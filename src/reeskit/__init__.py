"""Determinantal and Pfaffian ideal analysis toolkit.

Exact polynomial arithmetic, Groebner-based heights, the G_s checker, and
the specialization / degree-bound / classification engine for Rees algebra
presentations of ideals of minors and Pfaffians.
"""

from .bounds import (
    BoundValue,
    ClassificationReport,
    Conclusion,
    DegreeBoundsResult,
    GenericStatus,
    HypothesisReport,
    SpecializationResult,
    classify,
    degree_bounds,
    generic_status,
    hypothesis_check,
    specialization_check,
)
from .errors import (
    CharacteristicError,
    ComputationTimeout,
    DomainError,
    GenericHeightError,
    InputError,
    KindShapeError,
    NotApplicableError,
    PolyParseError,
    PreconditionError,
    RingMismatchError,
    SchemaError,
    ToolkitError,
)
from .groebner import (
    IdealHandle,
    LowerIdealCache,
    buchberger,
    expected_generic_height,
    ideal_of_minors,
    ideal_of_pfaffians,
    is_generic_height,
    monomial_ideal_dimension,
    normal_form,
    time_limit,
)
from .gs import GsReport, ProblemInstance, check_Gs, gs_threshold, max_Gs_generic, min_gens_generic
from .matrixalg import (
    MatrixKind,
    PolyMatrix,
    classical_adjoint,
    det_cofactor,
    determinant,
    enumerate_minors,
    enumerate_pfaffians,
    generic_matrix,
    pfaffian,
    pfaffian_adjoint,
)
from .poly import (
    ALL_DEGREES,
    FieldSpec,
    MonomialOrder,
    PolyRing,
    Polynomial,
    format_poly,
    homogeneous_degree,
    parse_poly,
)
from .resolutions import (
    NEG_INF,
    abw_generation_degree,
    ku_generation_degree,
    n_constants,
)

__version__ = "0.1.0"
