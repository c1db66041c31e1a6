"""Spans and counters around the layer boundaries of reeskit, from outside.

`Tracer.install()` replaces each boundary function, in every reeskit
module that binds it (a name bound by `from .x import f` is a separate
binding), with a wrapper that records a span or bumps a counter, and
`Tracer.remove()` puts every original back.  No program file changes.

A span is (name, start, end, parent index, problem id).  Spans stay in
memory until `write_spans`; self times are computed from them afterwards:
a span's duration minus the durations of its direct children, which never
overlap because the program runs on one thread.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# Functions timed as spans, by module.
SPANNED = {
    "cli": ("run", "build_parser", "load_problem", "build_matrix", "emit_report"),
    "poly": ("parse_poly",),
    "matrixalg": ("enumerate_minors", "enumerate_pfaffians", "pfaffian"),
    "groebner": ("buchberger", "monomial_ideal_dimension"),
    "gs": ("check_Gs",),
    "bounds": ("hypothesis_check", "specialization_check", "degree_bounds", "generic_status", "classify"),
}
# Functions only counted: timing them would add a clock read per S-pair,
# and their time belongs to the span that calls them.
COUNTED = {"groebner": ("spoly", "ideal_of_minors", "ideal_of_pfaffians")}
CACHE_LOOKUPS = ("minor_height", "pfaffian_height", "generic_report")
ENUMERATORS = ("matrixalg.enumerate_minors", "matrixalg.enumerate_pfaffians")
IDEAL_BUILDS = ("groebner.ideal_of_minors", "groebner.ideal_of_pfaffians")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, problem]
        self.counts: Counter = Counter()
        self.problem: str | None = None
        self._stack: list[int] = []
        self._seen_enumerations: set = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, on_result = self.spans, self._stack, self._on_result

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None, self.problem])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            on_result(name, args, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _cache_lookup(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = sum(counts[b] for b in IDEAL_BUILDS)
            result = fn(*args, **kwargs)
            counts["cache.lookups"] += 1
            if sum(counts[b] for b in IDEAL_BUILDS) == before:
                counts["cache.hits"] += 1
            return result

        return wrapper

    def _on_result(self, name: str, args, result):
        counts = self.counts
        if name in ENUMERATORS:
            counts["enumerate.generators"] += len(result)
            counts["enumerate.distinct"] += len(set(result))
            key = (args[0], args[1])
            if key in self._seen_enumerations:
                counts["enumerate.repeats"] += 1
            self._seen_enumerations.add(key)
        elif name == "groebner.buchberger" and result:
            counts["basis.max_size"] = max(counts["basis.max_size"], len(result))
            counts["basis.max_degree"] = max(counts["basis.max_degree"], max(g.degree() for g in result))

    def start_problem(self, problem_id: str):
        self.problem = problem_id
        self._seen_enumerations = set()

    # -- install / remove ----------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "reeskit" or mod_name.startswith("reeskit.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self):
        import reeskit.cli  # noqa: F401  (imports every module that is wrapped)
        from reeskit.groebner import LowerIdealCache

        for group, make in ((SPANNED, self._span), (COUNTED, self._counter)):
            for mod_name, names in group.items():
                module = sys.modules[f"reeskit.{mod_name}"]
                for name in names:
                    original = getattr(module, name)
                    self._replace_everywhere(original, make(f"{mod_name}.{name}", original))
        for name in CACHE_LOOKUPS:
            original = vars(LowerIdealCache)[name]
            self._restore.append((LowerIdealCache, name, original))
            setattr(LowerIdealCache, name, self._cache_lookup(original))

    def remove(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # -- results -------------------------------------------------------------

    def self_times(self, scale: dict | None = None) -> Counter:
        """Total self time per span name, each span's scaled by its problem's
        factor in `scale` (default 1)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: Counter = Counter()
        for (name, start, end, _, problem), inner in zip(self.spans, child):
            totals[name] += (end - start - inner) * (scale or {}).get(problem, 1.0)
        return totals

    def layer_metrics(self, scale: dict | None = None) -> dict[str, float]:
        """The per-layer metrics of one traced pass; times are scaled as in self_times."""
        own = self.self_times(scale)
        calls = Counter(span[0] for span in self.spans)
        c = self.counts
        generators = c["enumerate.generators"]
        enumerations = sum(calls[e] for e in ENUMERATORS)
        return {
            "cli.parser_s": own["cli.build_parser"],
            "cli.load_s": own["cli.load_problem"] + own["cli.build_matrix"],
            "cli.render_s": own["cli.emit_report"],
            "cli.self_s": own["cli.run"],
            "poly.parse_s": own["poly.parse_poly"],
            "poly.parse_calls": calls["poly.parse_poly"],
            "matrixalg.enumerate_s": sum(own[e] for e in ENUMERATORS),
            "matrixalg.enumerate_calls": enumerations,
            "matrixalg.generators": generators,
            "matrixalg.distinct_generator_frac": c["enumerate.distinct"] / generators if generators else 1.0,
            "matrixalg.repeat_enumerate_frac": c["enumerate.repeats"] / enumerations if enumerations else 0.0,
            "matrixalg.pfaffian_s": own["matrixalg.pfaffian"],
            "groebner.buchberger_s": own["groebner.buchberger"],
            "groebner.buchberger_calls": calls["groebner.buchberger"],
            "groebner.spoly_calls": c["groebner.spoly"],
            "groebner.basis_size": c["basis.max_size"],
            "groebner.basis_max_degree": c["basis.max_degree"],
            "groebner.dimension_s": own["groebner.monomial_ideal_dimension"],
            "groebner.dimension_calls": calls["groebner.monomial_ideal_dimension"],
            "groebner.cache_hit_frac": c["cache.hits"] / c["cache.lookups"] if c["cache.lookups"] else 0.0,
            "gs.self_s": own["gs.check_Gs"],
            "bounds.self_s": sum(v for k, v in own.items() if k.startswith("bounds.")),
        }

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, problem in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "problem": problem}) + "\n")
