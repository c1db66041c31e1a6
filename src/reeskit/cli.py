"""Command-line front end.

Subcommands: analyze, height, gs, bounds, classify, pfaffian, generic.
Problem files are JSON documents with a versioned ``format: 1`` field (the
schema is documented in the README); `generic` builds a generic matrix
in-memory instead of reading a file.

Output is a deterministic text report by default, or the loss-free
structured form with --json.  Every number a report takes from the built-in
criteria catalog carries that criterion's label in brackets.  Exit codes:
0 success, 1 input error, 2 precondition failure (including --timeout
expiry of a Groebner run).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from . import bounds as bounds_mod
from . import groebner, gs, matrixalg
from .errors import InputError, PreconditionError, SchemaError, ToolkitError
from .gs import ProblemInstance
from .matrixalg import MatrixKind, PolyMatrix
from .poly import FieldSpec, MonomialOrder, PolyRing, parse_poly

_ANALYSES = ("height", "gs", "specialize", "bounds", "classify", "forms")
_FILE_ANALYSES = ("height", "gs", "specialize", "bounds", "classify")


class _KindSources(NamedTuple):
    """Labels a report cites for each matrix kind."""

    generic_height: str
    gs_threshold: str
    max_gs: str
    min_generators: str


_KIND_SOURCES = {
    MatrixKind.ORDINARY: _KindSources("Notation 2.1a", "Prop 3.2a", "Cor 3.3", "Lemma 4.4a"),
    MatrixKind.SYMMETRIC: _KindSources("Notation 2.1b", "Prop 3.2b", "Cor 3.4", "Lemma 4.4b"),
    MatrixKind.ALTERNATING: _KindSources("Notation 2.1c", "Prop 3.2c", "Cor 3.5", "Lemma 4.4c"),
}

# Forms-section flags of GenericStatus with their report titles.
_STATUS_FLAGS = (
    ("linear_type", "linear type"),
    ("fiber_type", "fiber type"),
    ("td_finite_all_k", "td finite for all k"),
    ("td_infinite_some_k", "td infinite for some k"),
)

DEFAULT_FIELD = FieldSpec.prime(32003)


def _ext(value) -> object:
    """JSON-safe rendering of extended integers."""
    if value == math.inf:
        return "inf"
    if value == -math.inf:
        return "-inf"
    return value


@dataclass(frozen=True)
class Request:
    analysis: str
    s: object = None  # gs only: a positive int or math.inf
    k_range: tuple[int, int] | None = None


@dataclass(frozen=True)
class ProblemFile:
    """Validated problem document (polynomials still as text)."""

    field: FieldSpec | None
    variables: tuple[str, ...]
    kind: MatrixKind
    entries: tuple[tuple[str, ...], ...]
    t: int
    requested: tuple[Request, ...]


def _parse_field_value(value, key: str) -> FieldSpec:
    if isinstance(value, str):
        name = value.strip().lower()
        if name in ("rationals", "qq", "q"):
            return FieldSpec.rationals()
        if name.startswith("prime:"):
            name = name[len("prime:") :]
        if name.isdecimal():
            return FieldSpec.prime(int(name))
        raise SchemaError(f"unrecognized field {value!r}", key=key)
    if isinstance(value, dict):
        kind = value.get("kind")
        if kind == "rationals":
            return FieldSpec.rationals()
        if kind == "prime-field":
            p = value.get("p")
            if type(p) is not int:
                raise SchemaError("prime-field needs an integer 'p'", key=f"{key}.p")
            return FieldSpec.prime(p)
        raise SchemaError(f"unrecognized field kind {kind!r}", key=f"{key}.kind")
    raise SchemaError("field must be a string or an object", key=key)


def _parse_s_value(value, key: str):
    if value in ("inf", "+inf", None):
        return math.inf
    if isinstance(value, str) and value.isdecimal():
        value = int(value)
    if type(value) is int and value >= 1:
        return value
    raise SchemaError(f"s must be a positive integer or 'inf', got {value!r}", key=key)


def _parse_k_value(value, key: str) -> tuple[int, int]:
    if type(value) is int:
        lo = hi = value
    elif isinstance(value, str) and ".." in value:
        a, _, b = value.partition("..")
        if not (a.isdecimal() and b.isdecimal()):
            raise SchemaError(f"bad k range {value!r}", key=key)
        lo, hi = int(a), int(b)
    elif isinstance(value, str) and value.isdecimal():
        lo = hi = int(value)
    else:
        raise SchemaError(f"k must be an integer or 'a..b', got {value!r}", key=key)
    if lo < 1 or hi < lo:
        raise SchemaError(f"bad k range {value!r}", key=key)
    return lo, hi


def load_problem(path) -> ProblemFile:
    """Load and validate the problem file at `path`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read problem file: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"problem file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("problem document must be a JSON object")
    known = {"format", "field", "variables", "matrix", "t", "requested"}
    for key in doc:
        if key not in known:
            raise SchemaError("unknown key", key=key)
    if type(doc.get("format")) is not int or doc["format"] != 1:
        raise SchemaError("missing or unsupported format version (expected format: 1)", key="format")
    field_spec = _parse_field_value(doc["field"], "field") if "field" in doc else None
    variables = doc.get("variables")
    if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
        raise SchemaError("variables must be a list of names", key="variables")
    matrix = doc.get("matrix")
    if not isinstance(matrix, dict):
        raise SchemaError("matrix must be an object with kind and entries", key="matrix")
    for key in matrix:
        if key not in ("kind", "entries"):
            raise SchemaError("unknown key", key=f"matrix.{key}")
    try:
        kind = MatrixKind(matrix.get("kind"))
    except ValueError:
        raise SchemaError(f"unknown matrix kind {matrix.get('kind')!r}", key="matrix.kind") from None
    entries = matrix.get("entries")
    if (
        not isinstance(entries, list)
        or not entries
        or not all(isinstance(row, list) and all(isinstance(e, str) for e in row) for row in entries)
    ):
        raise SchemaError("entries must be a non-empty grid of strings", key="matrix.entries")
    width = len(entries[0])
    if width == 0 or any(len(row) != width for row in entries):
        raise SchemaError("entries grid must be rectangular and non-empty", key="matrix.entries")
    t = doc.get("t")
    if type(t) is not int:
        raise SchemaError("t must be an integer", key="t")
    requested: list[Request] = []
    raw_requests = doc.get("requested", [])
    if not isinstance(raw_requests, list):
        raise SchemaError("requested must be a list", key="requested")
    for idx, item in enumerate(raw_requests):
        key = f"requested[{idx}]"
        if isinstance(item, str):
            item = {"analysis": item}
        if not isinstance(item, dict):
            raise SchemaError("each request must be a name or an object", key=key)
        name = item.get("analysis")
        if name not in _FILE_ANALYSES:
            raise SchemaError(f"unknown analysis {name!r}", key=f"{key}.analysis")
        for extra in item:
            if extra not in ("analysis", {"gs": "s", "bounds": "k"}.get(name)):
                raise SchemaError("unknown key", key=f"{key}.{extra}")
        req = Request(analysis=name)
        if name == "gs":
            req = Request(analysis=name, s=_parse_s_value(item.get("s", "inf"), f"{key}.s"))
        elif name == "bounds":
            if "k" not in item:
                raise SchemaError("bounds request needs k", key=f"{key}.k")
            req = Request(analysis=name, k_range=_parse_k_value(item["k"], f"{key}.k"))
        requested.append(req)
    return ProblemFile(
        field=field_spec,
        variables=tuple(variables),
        kind=kind,
        entries=tuple(tuple(row) for row in entries),
        t=t,
        requested=tuple(requested),
    )


def build_matrix(pf: ProblemFile, field: FieldSpec, order: MonomialOrder) -> PolyMatrix:
    ring = PolyRing(pf.variables, field=field, order=order)
    rows = [[parse_poly(text, ring) for text in row] for row in pf.entries]
    return PolyMatrix(pf.kind, rows)


# -- report sections -----------------------------------------------------------
#
# Each analysis has a section builder, (M, t, request, cache) -> the section
# as a JSON-safe dict, and a text renderer, section -> its report lines.
# `_SECTIONS` below maps each analysis name to that pair.


def _yes_no(flag: bool) -> str:
    return "yes" if flag else "no"


def _height_section(M: PolyMatrix, t: int, req: Request, cache: groebner.LowerIdealCache) -> dict:
    report = cache.generic_report(t)
    family, size = cache.ideal_at(M.kind, t)
    return {
        "analysis": "height",
        "ideal": f"{family}({size})",
        "generators": cache.generator_counts[family, size],
        "height": _ext(report.actual),
        "expected_generic": report.expected,
        "expected_source": _KIND_SOURCES[M.kind].generic_height,
        "generic": report.ok,
    }


def _height_lines(section: dict) -> list[str]:
    return [
        "height",
        f"  ideal {section['ideal']}, {section['generators']} generators",
        f"  height = {section['height']}",
        f"  expected generic height = {section['expected_generic']} [{section['expected_source']}]",
        f"  generic height: {_yes_no(section['generic'])}",
    ]


def _gs_section(M: PolyMatrix, t: int, req: Request, cache: groebner.LowerIdealCache) -> dict:
    report = gs.check_Gs(M, t, req.s, cache=cache)
    return {
        "analysis": "gs",
        "s": _ext(req.s),
        "threshold_source": _KIND_SOURCES[M.kind].gs_threshold,
        "rows": [
            {
                "j": r.j,
                "threshold": r.threshold,
                "height": _ext(r.actual),
                "required": r.required,
                "satisfied": r.satisfied,
            }
            for r in report.per_j
        ],
        "max_s": _ext(report.max_s),
        "satisfied": report.satisfied,
    }


def _gs_lines(section: dict) -> list[str]:
    source = section["threshold_source"]
    return [
        f"gs (s = {section['s']})",
        *(
            f"  j = {row['j']}: height = {row['height']}, required >= {row['required']}, "
            f"threshold = {row['threshold']} [{source}] -> {'ok' if row['satisfied'] else 'FAIL'}"
            for row in section["rows"]
        ),
        f"  max_s = {section['max_s']} [{source} (derived)]",
        f"  G_s holds at requested s: {_yes_no(section['satisfied'])}",
    ]


def _hypothesis_rows(report: bounds_mod.HypothesisReport) -> list[dict]:
    return [
        {"j": r.j, "required": r.required, "height": _ext(r.actual), "satisfied": r.satisfied} for r in report.per_j
    ]


def _hypothesis_lines(prefix: str, rows: list[dict], source: str) -> list[str]:
    return [
        f"  {prefix}j = {row['j']}: height = {row['height']}, required >= {row['required']} "
        f"[{source}] -> {'ok' if row['satisfied'] else 'FAIL'}"
        for row in rows
    ]


def _specialize_section(M: PolyMatrix, t: int, req: Request, cache: groebner.LowerIdealCache) -> dict:
    result = bounds_mod.specialization_check(M, t, cache=cache)
    return {
        "analysis": "specialize",
        "source": result.report.source,
        "rows": _hypothesis_rows(result.report),
        "specializes": result.report.all_satisfied,
        "cohen_macaulay": result.cohen_macaulay,
    }


def _specialize_lines(section: dict) -> list[str]:
    source = section["source"]
    return [
        "specialize",
        *_hypothesis_lines("", section["rows"], source),
        f"  Rees algebra specializes: {_yes_no(section['specializes'])} [{source}]",
        f"  Cohen-Macaulay: {section['cohen_macaulay']} [{source}]",
    ]


def _bound_value_json(v: bounds_mod.BoundValue | None) -> object:
    if v is None:
        return None
    out: dict = {"tag": v.tag, "rendered": v.render()}
    if v.finite_part is not None:
        out["finite_part"] = v.finite_part
    if v.symbol is not None:
        out["symbol"] = v.symbol
    if v.note is not None:
        out["note"] = v.note
    return out


def _bounds_section(M: PolyMatrix, t: int, req: Request, cache: groebner.LowerIdealCache) -> dict:
    hyp = bounds_mod.hypothesis_check(M, t, capped=True, cache=cache)
    section: dict = {
        "analysis": "bounds",
        "hypotheses": {"source": hyp.source, "rows": _hypothesis_rows(hyp), "satisfied": hyp.all_satisfied},
    }
    if not hyp.all_satisfied:
        failing = next(r for r in hyp.per_j if not r.satisfied)
        raise PreconditionError(
            f"height hypothesis violated at j = {failing.j}: "
            f"height {_ext(failing.actual)} < required {failing.required} [{hyp.source}]"
        )
    inst = ProblemInstance.from_matrix(M, t)
    rows = []
    lo, hi = req.k_range
    for k in range(lo, hi + 1):
        result = bounds_mod.degree_bounds(inst, k, hypotheses_attested=True)
        row: dict = {"k": k, "applicable": result.applicable, "source": result.source}
        if result.applicable:
            row["b0"] = _bound_value_json(result.b0)
            row["td"] = _bound_value_json(result.td)
        if result.note is not None:
            row["note"] = result.note
        rows.append(row)
    section["rows"] = rows
    return section


def _bounds_lines(section: dict) -> list[str]:
    hyp = section["hypotheses"]
    lines = ["bounds", *_hypothesis_lines("hypothesis ", hyp["rows"], hyp["source"])]
    lines.append(f"  hypotheses satisfied: {_yes_no(hyp['satisfied'])} [{hyp['source']}]")
    for row in section["rows"]:
        if not row["applicable"]:
            lines.append(f"  k = {row['k']}: not applicable ({row['note']}) [{row['source']}]")
            continue
        b0, td = row["b0"]["rendered"], row["td"]["rendered"]
        lines.append(f"  k = {row['k']}: b0 <= {b0}, td <= {td} [{row['source']}]")
        if row.get("note"):
            lines.append(f"      note: {row['note']}")
        for part in ("b0", "td"):
            note = row[part].get("note")
            if note:
                lines.append(f"      {part} note: {note}")
    return lines


def _classify_section(M: PolyMatrix, t: int, req: Request, cache: groebner.LowerIdealCache) -> dict:
    report = bounds_mod.classify(M, t, cache=cache)
    return {
        "analysis": "classify",
        "conclusions": [
            {
                "claim": c.claim,
                "source": c.source,
                "hypotheses_verified": c.hypotheses_verified,
                **({"detail": c.detail} if c.detail else {}),
            }
            for c in report.conclusions
        ],
    }


def _classify_lines(section: dict) -> list[str]:
    lines = ["classify"]
    if not section["conclusions"]:
        lines.append("  no conclusion applies")
    for c in section["conclusions"]:
        verified = "verified" if c["hypotheses_verified"] else "UNVERIFIED"
        detail = f" ({c['detail']})" if c.get("detail") else ""
        lines.append(f"  conclusion: {c['claim']}{detail} [{c['source']}] hypotheses {verified}")
    return lines


def _forms_section(M: PolyMatrix, t: int, req: Request, cache: groebner.LowerIdealCache) -> dict:
    inst = ProblemInstance.from_matrix(M, t)
    status = bounds_mod.generic_status(inst)
    return {
        "analysis": "forms",
        "max_gs": _ext(gs.max_Gs_generic(inst)),
        "max_gs_source": _KIND_SOURCES[inst.kind].max_gs,
        "min_generators": gs.min_gens_generic(inst),
        "min_generators_source": _KIND_SOURCES[inst.kind].min_generators,
        "status": {
            **{flag: getattr(status, flag) for flag, _ in _STATUS_FLAGS},
            "flag_sources": status.flag_sources,
            "sources": list(status.sources),
        },
    }


def _forms_lines(section: dict) -> list[str]:
    status = section["status"]
    return [
        "generic closed forms",
        f"  max s with G_s = {section['max_gs']} [{section['max_gs_source']}]",
        f"  min generators = {section['min_generators']} [{section['min_generators_source']}]",
        *(
            f"  {title}: no statement"
            if status[flag] is None
            else f"  {title}: {_yes_no(status[flag])} [{status['flag_sources'][flag]}]"
            for flag, title in _STATUS_FLAGS
        ),
    ]


def _pfaffian_section(M: PolyMatrix, t: int, req: Request, cache: groebner.LowerIdealCache) -> dict:
    return {"analysis": "pfaffian", "pfaffian": str(matrixalg.pfaffian(M))}


def _pfaffian_lines(section: dict) -> list[str]:
    return ["pfaffian", f"  Pf = {section['pfaffian']}"]


# The one place that knows each analysis.  The `pfaffian` row serves only
# the subcommand of that name: it is in neither _ANALYSES nor
# _FILE_ANALYSES, so --analyses and problem files cannot request it.
_SECTIONS = {
    "height": (_height_section, _height_lines),
    "gs": (_gs_section, _gs_lines),
    "specialize": (_specialize_section, _specialize_lines),
    "bounds": (_bounds_section, _bounds_lines),
    "classify": (_classify_section, _classify_lines),
    "forms": (_forms_section, _forms_lines),
    "pfaffian": (_pfaffian_section, _pfaffian_lines),
}


def _run_analyses(M: PolyMatrix, t: int, requests: list[Request]) -> dict:
    cache = groebner.LowerIdealCache(M)
    return {
        "format": 1,
        "banner": {"field": str(M.ring.field), "order": M.ring.order.value},
        "matrix": {
            "kind": M.kind.value,
            "m": M.m,
            "n": M.n,
            "t": t,
            "entry_degree": M.entry_degree,
            "d": M.ring.nvars,
        },
        "analyses": [_SECTIONS[req.analysis][0](M, t, req, cache) for req in requests],
    }


def render_text(report: dict) -> str:
    banner = report["banner"]
    mat = report["matrix"]
    delta = mat["entry_degree"]
    lines = [
        f"field {banner['field']} | order {banner['order']}",
        f"matrix {mat['kind']} {mat['m']}x{mat['n']}, t = {mat['t']}, "
        f"entry degree {'none' if delta is None else delta}, ring variables {mat['d']}",
    ]
    for section in report["analyses"]:
        lines.append("")
        lines.extend(_SECTIONS[section["analysis"]][1](section))
    return "\n".join(lines) + "\n"


def emit_report(report: dict, fmt: str = "text") -> str:
    """Render a report: "structured" is the JSON form, loss-free for the
    text form, and anything else the text form."""
    if fmt == "structured":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    return render_text(report)


# -- argument plumbing ---------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--field", help="coefficient field: 'rationals' or a prime (default GF(32003))")
    sub.add_argument("--order", choices=["grevlex", "lex"], default="grevlex")
    sub.add_argument("--json", action="store_true", help="structured output")
    sub.add_argument("--timeout", type=float, help="abort the computation after this many seconds (exit 2)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; `run` reuses it, since
    parsing leaves it unchanged.  Callers must not modify it."""
    parser = argparse.ArgumentParser(prog="reeskit", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    for name, needs_file in (
        ("analyze", True),
        ("height", True),
        ("gs", True),
        ("bounds", True),
        ("classify", True),
        ("pfaffian", True),
        ("generic", False),
    ):
        sub = subs.add_parser(name)
        if needs_file:
            sub.add_argument("file", help="problem file (JSON, format 1)")
        _add_common(sub)
        if name in ("gs", "generic"):
            sub.add_argument("--s", default=None, help="G_s level: a positive integer or 'inf'")
        if name in ("bounds", "generic"):
            sub.add_argument("--k", default=None, help="power k or range 'a..b'")
        if name == "generic":
            sub.add_argument("--kind", required=True, choices=[k.value for k in MatrixKind])
            sub.add_argument("--m", type=int)
            sub.add_argument("--n", type=int, required=True)
            sub.add_argument("--t", type=int, required=True)
            sub.add_argument(
                "--analyses",
                default="forms,height,gs,specialize,classify",
                help="comma list from: " + ",".join(_ANALYSES),
            )
    return parser


def _flag_request(name: str, args: argparse.Namespace) -> Request:
    """The request for one analysis, with its --s or --k."""
    if name == "gs":
        return Request("gs", s=_parse_s_value(args.s, "--s"))
    if name == "bounds":
        if args.k is None:
            raise InputError("bounds needs --k")
        return Request("bounds", k_range=_parse_k_value(args.k, "--k"))
    return Request(name)


def run(argv) -> int:
    """Parse argv, run the requested analyses, print the report."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0

    try:
        order = MonomialOrder(args.order)
        flag_field = None if args.field is None else _parse_field_value(args.field, "--field")

        if args.command == "generic":
            kind = MatrixKind(args.kind)
            n = args.n
            m = args.m if args.m is not None else n
            if kind in (MatrixKind.SYMMETRIC, MatrixKind.ALTERNATING):
                if args.m is not None and args.m != n:
                    raise InputError(f"{kind.value} matrices are square; --m {args.m} conflicts with --n {n}")
                m = n
            field = flag_field or DEFAULT_FIELD
            M = matrixalg.generic_matrix(m, n, kind, field=field, order=order)
            t = args.t
            requests = []
            for name in args.analyses.split(","):
                name = name.strip()
                if not name:
                    continue
                if name not in _ANALYSES:
                    raise InputError(f"unknown analysis {name!r}")
                requests.append(_flag_request(name, args))
            for name, flag in (("gs", args.s), ("bounds", args.k)):
                if flag is not None and not any(r.analysis == name for r in requests):
                    requests.append(_flag_request(name, args))
            # Rejects a bad t before any Groebner work.
            ProblemInstance.from_matrix(M, t)
        else:
            pf = load_problem(args.file)
            field = flag_field or pf.field or DEFAULT_FIELD
            t = pf.t
            if args.command == "analyze":
                requests = list(pf.requested) or [
                    Request("height"),
                    Request("gs", s=math.inf),
                    Request("specialize"),
                    Request("classify"),
                ]
            else:
                requests = [_flag_request(args.command, args)]

        limit = contextlib.nullcontext() if args.timeout is None else groebner.time_limit(args.timeout)
        with limit:
            if args.command != "generic":
                # Parsing multiplies parenthesized factors and raises powers: the limit bounds it too.
                M = build_matrix(pf, field, order)
            report = _run_analyses(M, t, requests)

        sys.stdout.write(emit_report(report, "structured" if args.json else "text"))
        return 0
    except PreconditionError as exc:
        sys.stderr.write(f"precondition failure: {exc}\n")
        return 2
    except ToolkitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
