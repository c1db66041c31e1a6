"""Seeded problem corpora for the reeskit benchmark.

Every problem is a base problem fixed in this file, shown to the program in
a presentation drawn from the run seed: new names for the variables and
sign changes of rows and columns (see problem_document).  These change no
height, entry degree, number of variables or field, and every other value
in a report is computed from those, so the expected values in expected.json
(written once by record.py) hold for every seed.  They change no step of
the computation either, so the seed moves the inputs but not the work.

Two presentations are not drawn: the `pfaffian` subcommand prints a
polynomial whose sign and term order depend on them, and the `generic`
subcommand reads no file.  Those problems are run as written.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from math import comb
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# --timeout on every linear problem: far above any of their run times, so
# expiry there is a failure.  The scaling-limit probe gets the short limit.
LINEAR_TIMEOUT_S = 60.0
PROBE_TIMEOUT_S = 4.0

ORDINARY, SYMMETRIC, ALTERNATING = "ordinary", "symmetric", "alternating"


@dataclass(frozen=True)
class Base:
    """One problem whose answer is fixed.

    entries: "generic" (a fresh variable per free position), "linear"
    (dense linear forms in y1..yd with nonzero coefficients from a
    generator seeded by kind, shape and d, so both fields get the same
    matrix), or an explicit grid of polynomial text over `variables`.
    """

    id: str
    kind: str
    m: int
    n: int
    t: int
    command: tuple[str, ...]
    entries: object = "generic"
    d: int = 0
    variables: tuple[str, ...] = ()
    field: str | None = None  # the problem file's field; None keeps the default
    json: bool = True
    timeout: float | None = None
    may_expire: bool = False  # a --timeout expiry is the known outcome at the seed
    transform: bool = True
    repeat: int = 1


def _linear(id_: str, kind: str, m: int, n: int, t: int, d: int, **kw) -> Base:
    return Base(id_, kind, m, n, t, ("analyze",), entries="linear", d=d, **kw)


def _generic_cmd(id_: str, args: str, json_out: bool = False, repeat: int = 1) -> Base:
    """A `generic` subcommand problem; kind/m/n/t are only labels here."""
    return Base(id_, "", 0, 0, 0, ("generic",) + tuple(args.split()), json=json_out, transform=False, repeat=repeat)


_TWISTED_CUBIC = (("x", "y", "z"), ("y", "z", "w"))

BASES: dict[str, tuple[Base, ...]] = {
    # Height only: the dimension search over the leading-term ideal of 2x2
    # minors / 4x4 Pfaffians in 30 and 36 variables does most of the work.
    "generic-dim": (
        Base("gd-ord-5x6-t2", ORDINARY, 5, 6, 2, ("height",)),
        Base("gd-alt-9x9-t2", ALTERNATING, 9, 9, 2, ("height",)),
    ),
    # Buchberger reduction dominates; <= 10 variables keeps the dimension
    # search trivial.
    "linear-gf": (
        _linear("lin-ord-3x5-d8-t3", ORDINARY, 3, 5, 3, 8, timeout=LINEAR_TIMEOUT_S),
        _linear("lin-ord-3x6-d9-t3", ORDINARY, 3, 6, 3, 9, timeout=LINEAR_TIMEOUT_S),
        _linear("lin-sym-4x4-d8-t3", SYMMETRIC, 4, 4, 3, 8, timeout=LINEAR_TIMEOUT_S),
        _linear("lin-alt-6x6-d9-t2", ALTERNATING, 6, 6, 2, 9, timeout=LINEAR_TIMEOUT_S),
        _linear("lin-ord-4x5-d10-t4", ORDINARY, 4, 5, 4, 10, timeout=PROBE_TIMEOUT_S, may_expire=True),
    ),
    # The same integer matrices over QQ.  3x6 d=9 (about 18 s alone) and
    # the scaling-limit probe are left out to keep the pass comparable.
    "linear-qq": (
        _linear("lin-ord-3x5-d8-t3-qq", ORDINARY, 3, 5, 3, 8, field="rationals", timeout=LINEAR_TIMEOUT_S),
        _linear("lin-sym-4x4-d8-t3-qq", SYMMETRIC, 4, 4, 3, 8, field="rationals", timeout=LINEAR_TIMEOUT_S),
        _linear("lin-alt-6x6-d9-t2-qq", ALTERNATING, 6, 6, 2, 9, field="rationals", timeout=LINEAR_TIMEOUT_S),
    ),
    # Little Groebner work per problem, so parsing, enumeration, the
    # catalog and rendering carry a measurable share of the time.
    "small-sweep": (
        Base("sw-cubic-analyze", ORDINARY, 2, 3, 2, ("analyze",), entries=_TWISTED_CUBIC, variables=("x", "y", "z", "w"), repeat=8),
        Base("sw-cubic-analyze-qq-text", ORDINARY, 2, 3, 2, ("analyze", "--field", "rationals"), entries=_TWISTED_CUBIC, variables=("x", "y", "z", "w"), json=False, repeat=8),
        _linear("sw-lin-ord-2x3-d4", ORDINARY, 2, 3, 2, 4, repeat=8),
        _linear("sw-lin-ord-2x4-d5-qq", ORDINARY, 2, 4, 2, 5, field="rationals", repeat=8),
        _linear("sw-lin-ord-3x3-d6-text", ORDINARY, 3, 3, 2, 6, json=False, repeat=8),
        Base("sw-lin-ord-2x3-d4-bounds", ORDINARY, 2, 3, 2, ("bounds", "--k", "1..5"), entries="linear", d=4, repeat=8),
        Base("sw-lin-ord-2x4-d5-gs", ORDINARY, 2, 4, 2, ("gs", "--s", "3"), entries="linear", d=5, json=False, repeat=8),
        Base("sw-lin-ord-3x4-d6-height", ORDINARY, 3, 4, 3, ("height",), entries="linear", d=6, json=False, repeat=8),
        Base("sw-lin-ord-2x3-d4-classify", ORDINARY, 2, 3, 2, ("classify",), entries="linear", d=4, repeat=8),
        # Exit 2: proportional rows give I_2 = 0, not of generic height.
        Base("sw-ord-2x3-rank1-x2", ORDINARY, 2, 3, 2, ("analyze",),
             entries=(("a", "b", "c"), ("2*a", "2*b", "2*c")), variables=("a", "b", "c"), repeat=8),
        # Exit 2: entries in two of four variables, so ht I_1 = 2 fails the
        # capped bound hypothesis min(3, 4) at j = 1.
        Base("sw-ord-2x3-hyp-x2", ORDINARY, 2, 3, 2, ("bounds", "--k", "2"),
             entries=(("u", "v", "u + v"), ("v", "u - v", "3*u")), variables=("u", "v", "s", "r"), repeat=8),
        _linear("sw-lin-sym-3x3-d5-qq", SYMMETRIC, 3, 3, 2, 5, field="rationals", repeat=8),
        _linear("sw-lin-sym-3x3-d4-t3", SYMMETRIC, 3, 3, 3, 4, repeat=8),
        Base("sw-gen-sym-4x4-t3-height", SYMMETRIC, 4, 4, 3, ("height",), repeat=8),
        Base("sw-gen-sym-3x3-t1-text", SYMMETRIC, 3, 3, 1, ("analyze",), json=False, repeat=8),
        _linear("sw-lin-alt-5x5-d6-t2", ALTERNATING, 5, 5, 2, 6, repeat=8),
        Base("sw-gen-alt-5x5-t1-qq", ALTERNATING, 5, 5, 1, ("analyze",), field="rationals", repeat=8),
        # Exit 2: alternating 2t = n has no specialization criterion.
        Base("sw-gen-alt-4x4-t2-x2", ALTERNATING, 4, 4, 2, ("analyze",), repeat=8),
        Base("sw-pf-alt-4x4-text", ALTERNATING, 4, 4, 2, ("pfaffian",), json=False, transform=False, repeat=8),
        Base("sw-pf-alt-6x6", ALTERNATING, 6, 6, 3, ("pfaffian",), transform=False, repeat=8),
        _generic_cmd("sw-g-ord-2x3", "--kind ordinary --m 2 --n 3 --t 2", repeat=8),
        _generic_cmd("sw-g-ord-2x4-bounds", "--kind ordinary --m 2 --n 4 --t 2 --analyses forms,height,bounds --k 2..5", True, repeat=8),
        _generic_cmd("sw-g-ord-3x3-t2", "--kind ordinary --m 3 --n 3 --t 2", True, repeat=8),
        _generic_cmd("sw-g-ord-3x4-t3-bounds", "--kind ordinary --m 3 --n 4 --t 3 --analyses bounds --k 1..6", repeat=4),
        _generic_cmd("sw-g-ord-2x3-qq", "--kind ordinary --m 2 --n 3 --t 2 --field rationals", True, repeat=8),
        _generic_cmd("sw-g-ord-2x5-gs", "--kind ordinary --m 2 --n 5 --t 2 --analyses gs --s inf", repeat=8),
        _generic_cmd("sw-g-ord-3x4-t2-qq", "--kind ordinary --m 3 --n 4 --t 2 --analyses height,classify --field rationals", repeat=4),
        _generic_cmd("sw-g-sym-3-t2", "--kind symmetric --n 3 --t 2", repeat=8),
        _generic_cmd("sw-g-sym-3-t2-bounds", "--kind symmetric --n 3 --t 2 --analyses bounds --k 2..4", True, repeat=8),
        _generic_cmd("sw-g-alt-5-t2", "--kind alternating --n 5 --t 2", repeat=8),
        _generic_cmd("sw-g-alt-5-t2-bounds", "--kind alternating --n 5 --t 2 --analyses bounds --k 1..6", True, repeat=8),
        _generic_cmd("sw-g-alt-6-t2", "--kind alternating --n 6 --t 2 --analyses forms,height", True, repeat=4),
        _generic_cmd("sw-g-alt-6-t2-char2", "--kind alternating --n 6 --t 2 --field 2 --analyses classify", repeat=4),
        _generic_cmd("sw-g-alt-7-t3", "--kind alternating --n 7 --t 3 --analyses height,gs", repeat=4),
        _generic_cmd("sw-g-ord-3x6-t3-forms", "--kind ordinary --m 3 --n 6 --t 3 --analyses forms", repeat=8),
        _generic_cmd("sw-g-sym-5-t3-forms", "--kind symmetric --n 5 --t 3 --analyses forms", True, repeat=8),
        _generic_cmd("sw-g-alt-8-t2-forms", "--kind alternating --n 8 --t 2 --analyses forms", repeat=8),
        _generic_cmd("sw-g-alt-4-t2-x2", "--kind alternating --n 4 --t 2", True, repeat=8),
    ),
}


WORKLOADS = tuple(BASES)


# -- problem documents --------------------------------------------------------


def _free_positions(kind: str, m: int, n: int) -> list[tuple[int, int]]:
    if kind == ORDINARY:
        return [(i, j) for i in range(m) for j in range(n)]
    if kind == SYMMETRIC:
        return [(i, j) for i in range(n) for j in range(i, n)]
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _term_text(coeff: int, name: str) -> str:
    return name if coeff == 1 else f"{coeff}*{name}"


def _form_text(form: dict[str, int]) -> str:
    """A linear form {name: coeff} as polynomial text, in insertion order."""
    out = ""
    for name, c in form.items():
        if not out:
            out = ("-" if c < 0 else "") + _term_text(abs(c), name)
        else:
            out += (" - " if c < 0 else " + ") + _term_text(abs(c), name)
    return out or "0"


def _upper_entries(base: Base) -> tuple[list[str], dict[tuple[int, int], str]]:
    """Variables and the text of each free entry of the base matrix."""
    positions = _free_positions(base.kind, base.m, base.n)
    if base.entries == "generic":
        names = [f"x{i + 1}_{j + 1}" for i, j in positions]
        return names, dict(zip(positions, names))
    if base.entries == "linear":
        rng = random.Random(f"reeskit-perfbench:{base.kind}:{base.m}x{base.n}:d{base.d}")
        names = [f"y{k + 1}" for k in range(base.d)]
        text = {}
        for pos in positions:
            text[pos] = _form_text({v: rng.choice((-1, 1)) * rng.randint(1, 9) for v in names})
        return names, text
    grid = base.entries
    return list(base.variables), {(i, j): grid[i][j] for i, j in positions}


def _grid(base: Base, upper: dict[tuple[int, int], str], signs: list[int], col_signs: list[int]) -> list[list[str]]:
    """The full matrix; entry (i, j) is multiplied by signs[i] * col_signs[j]."""

    def entry(a: int, b: int) -> tuple[str, int]:
        if base.kind == ORDINARY or (a, b) in upper:
            return upper[(a, b)], 1
        if base.kind == SYMMETRIC:
            return upper[(b, a)], 1
        if a == b:
            return "0", 1
        return upper[(b, a)], -1

    grid = []
    for i in range(base.m):
        row = []
        for j in range(base.n):
            text, sign = entry(i, j)
            sign *= signs[i] * col_signs[j]
            row.append(text if sign > 0 or text == "0" else f"-({text})")
        grid.append(row)
    return grid


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def problem_document(base: Base, rng: random.Random | None) -> dict:
    """The problem file for one presentation of a base problem (rng None: as written).

    The seed renames the variables, keeping each in its place in the ring
    order, and flips the signs of rows and columns (the same flips on both
    for symmetric and alternating matrices).  The minors and Pfaffians only
    change sign, so after Buchberger makes them monic the computation is
    the base problem's, step for step.  Reordering the ring instead changed
    the dimension search's time by a third between seeds.
    """
    names, upper = _upper_entries(base)
    signs, col_signs = [1] * base.m, [1] * base.n
    if rng is not None and base.transform:
        renamed = names[:]
        rng.shuffle(renamed)
        rename = dict(zip(names, renamed))
        upper = {pos: _IDENT.sub(lambda m: rename[m.group()], text) for pos, text in upper.items()}
        names = renamed
        signs = [rng.choice((-1, 1)) for _ in range(base.m)]
        col_signs = [rng.choice((-1, 1)) for _ in range(base.n)] if base.kind == ORDINARY else signs
    doc = {
        "format": 1,
        "variables": names,
        "matrix": {"kind": base.kind, "entries": _grid(base, upper, signs, col_signs)},
        "t": base.t,
    }
    if base.field is not None:
        doc["field"] = base.field
    return doc


# -- corpora ----------------------------------------------------------------


def heights_by_formula(base: Base) -> dict[int, int]:
    """Heights of the lower ideals of a dense linear matrix in d variables.

    A general linear section of the generic determinantal or Pfaffian
    variety keeps its codimension up to d: ht I_j = min(generic height, d),
    with j the minor size, or the Pfaffian size for alternating matrices.
    """
    m, n, d = base.m, base.n, base.d
    if base.kind == ORDINARY:
        return {j: min((m - j + 1) * (n - j + 1), d) for j in range(1, min(m, n) + 1)}
    if base.kind == SYMMETRIC:
        return {j: min(comb(n - j + 2, 2), d) for j in range(1, n + 1)}
    return {j: min(comb(n - j + 2, 2), d) for j in range(2, n + 1, 2)}


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def build(workload: str, seed: int) -> list[dict]:
    """The problems of one pass, in a seeded order, each with its expectation."""
    if workload not in BASES:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    expected = load_expected()
    rng = random.Random(f"{workload}:{seed}")
    problems = []
    for base in BASES[workload]:
        if base.id not in expected:
            raise KeyError(f"no expected values for {base.id}")
        for copy in range(base.repeat):
            problems.append(problem(base, rng, f"{base.id}#{copy}", expected[base.id]))
    rng.shuffle(problems)
    return problems


def problem(base: Base, rng: random.Random | None, id_: str, expect: dict | None) -> dict:
    """One problem as the worker reads it.  argv holds the placeholder
    "{file}" where the path of the problem file written from doc goes."""
    argv = list(base.command)
    doc = None
    if argv[0] != "generic":
        doc = problem_document(base, rng)
        argv.insert(1, "{file}")
    if base.json:
        argv.append("--json")
    if base.timeout is not None:
        argv += ["--timeout", str(base.timeout)]
    return {
        "id": id_,
        "base": base.id,
        "argv": argv,
        "doc": doc,
        "json": base.json,
        "timeout": base.timeout,
        "may_expire": base.may_expire,
        "expect": expect,
    }


def digest(problems: list[dict]) -> str:
    """sha256 of the corpus as the program sees it, in pass order."""
    view = [{"argv": p["argv"], "doc": p["doc"]} for p in problems]
    return hashlib.sha256(json.dumps(view, sort_keys=True).encode()).hexdigest()
