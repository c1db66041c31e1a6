"""Exception hierarchy shared across the toolkit.

Two families matter for the CLI exit codes: ``InputError`` (malformed text,
schema violations, out-of-range parameters -> exit 1) and
``PreconditionError`` (a mathematically required hypothesis failed or a
computation was aborted -> exit 2).
"""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ToolkitError):
    """Bad input: unparsable text, schema violation, invalid parameter."""


class PolyParseError(InputError):
    """Syntax or identifier error in polynomial text, with a position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position + 1})")
        self.position = position


class SchemaError(InputError):
    """Problem-file schema violation; names the offending key."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message if key is None else f"{message} (key: {key})")
        self.key = key


class RingMismatchError(InputError):
    """Operands live in different polynomial rings."""


class KindShapeError(InputError):
    """Matrix kind and shape/entries are inconsistent."""


class DomainError(InputError, ValueError):
    """A parameter is outside the range an operation is defined on."""


class PreconditionError(ToolkitError):
    """A hypothesis required by a criterion does not hold."""


class GenericHeightError(PreconditionError):
    """The ideal under analysis is not of generic height."""


class CharacteristicError(PreconditionError):
    """The field characteristic violates a criterion's requirement."""


class NotApplicableError(PreconditionError):
    """No built-in criterion covers the requested parameters."""


class NotAttestedError(PreconditionError):
    """Bound evaluation requested without the hypothesis attestation flag."""


class ComputationTimeout(PreconditionError):
    """A computation exceeded the configured deadline: any stage that reads
    the clock (see `deadline`), from polynomial arithmetic and enumeration
    to Buchberger and the degree-bound evaluation."""
