"""The catalog tables against the statements they encode.

Each classify conclusion reads the height schedule of its instance's
Prop 4.7 case, uncapped or capped at d (Cor 5.1.4).  The oracle below keeps
the twelve schedules as the README states them for each conclusion, and
the grid checks that the table hands every matching row the same one.
"""

import re
from math import comb
from pathlib import Path

import pytest

from reeskit.bounds import BOUND_RULES, CONCLUSION_RULES, STATUS_RULES, degree_bounds
from reeskit.cli import _KIND_SOURCES
from reeskit.gs import SPECIALIZATION_CASES, ProblemInstance, matching, specialization_case

README = Path(__file__).resolve().parent.parent / "README.md"

# source (letters a-e dropped for Cor 5.2.3 and 5.4.4) -> (capped, schedule)
STATED_SCHEDULES = {
    "Cor 4.8i": (False, lambda i: [(j, i.m - j + 2) for j in range(1, i.m)]),
    "Cor 4.8ii": (False, lambda i: [(j, (i.n - j + 1) ** 2) for j in range(1, i.n - 1)]),
    "Cor 4.8iii": (False, lambda i: [(j, comb(i.n - j + 2, 2)) for j in range(1, i.n - 1)]),
    "Cor 4.8iv": (False, lambda i: [(j, i.n - 2 * j + 2) for j in range(1, (i.n - 3) // 2 + 1)]),
    "Cor 4.8v": (False, lambda i: [(j, comb(i.n - 2 * j + 2, 2)) for j in range(1, (i.n - 4) // 2 + 1)]),
    "Cor 4.8vi": (False, lambda i: [(j, (i.m - j + 1) * (i.n - i.m) + 1) for j in range(1, i.m)]),
    "Cor 4.8vii": (False, lambda i: [(1, 3 * i.n)]),
    "Cor 5.2.3": (True, lambda i: [(j, min((i.m - j + 1) * (i.n - i.m) + 1, i.d)) for j in range(1, i.m)]),
    "Cor 5.2.5": (True, lambda i: [(1, min(3 * i.n, i.d))]),
    "Cor 5.2.7": (True, lambda i: [(1, min(9, i.d))]),
    "Cor 5.4.4": (True, lambda i: [(j, min(i.n - 2 * j + 2, i.d)) for j in range(1, (i.n - 3) // 2 + 1)]),
    "Cor 5.4.6": (True, lambda i: [(1, min(15, i.d))]),
}


def shapes():
    for n in range(1, 12):
        for m in range(1, min(n, 7) + 1):
            yield from (("ordinary", m, n, t) for t in range(1, m + 1))
        if n <= 7:
            yield from (("symmetric", n, n, t) for t in range(1, n + 1))
        yield from (("alternating", n, n, t) for t in range(1, n // 2 + 1))


GRID = tuple(
    ProblemInstance(kind=kind, m=m, n=n, t=t, d=d, delta=delta, char=char)
    for kind, m, n, t in shapes()
    for d in (1, 2, 3, 6, 13, 40)
    for delta in (1, 2)
    for char in (0, 2, 32003)
)


def stated_key(source: str) -> str:
    return re.sub(r"^(Cor 5\.2\.3|Cor 5\.4\.4)[a-e]$", r"\1", source)


def test_every_conclusion_has_a_stated_schedule():
    assert {stated_key(rule.source) for rule in CONCLUSION_RULES} == set(STATED_SCHEDULES)


@pytest.mark.parametrize("key", sorted(STATED_SCHEDULES))
def test_table_schedule_equals_the_stated_one(key):
    capped, stated = STATED_SCHEDULES[key]
    checked = 0
    for inst in GRID:
        for rule in matching(CONCLUSION_RULES, inst):
            if stated_key(rule.source) != key:
                continue
            assert rule.capped is capped, rule.source
            schedule = specialization_case(inst).schedule(inst, rule.capped)
            assert [(j, required) for j, _, required in schedule] == stated(inst), (rule.source, inst)
            checked += 1
    assert checked > 0


# -- labels ---------------------------------------------------------------------

ROMAN = ["i", "ii", "iii", "iv", "v", "vi", "vii"]


def readme_labels() -> set[str]:
    """Labels of the README criteria table, ranges such as a-h or i-v and
    lists such as a/b/c expanded."""
    labels = set()
    for line in README.read_text(encoding="utf-8").splitlines():
        match = re.match(r"\| ((?:Notation|Prop|Cor|Lemma|Thm) [^|]+?) \|", line)
        if not match:
            continue
        label = match.group(1)
        span = re.fullmatch(r"(.*?\d)([a-z]+)-([a-z]+)", label)
        listed = re.fullmatch(r"(.*?\d)([a-z]+(?:/[a-z]+)+)", label)
        if span:
            head, lo, hi = span.groups()
            seq = ROMAN if lo in ROMAN and hi in ROMAN else [chr(c) for c in range(ord("a"), ord("z") + 1)]
            labels.update(head + s for s in seq[seq.index(lo) : seq.index(hi) + 1])
        elif listed:
            head, tails = listed.groups()
            labels.update(head + s for s in tails.split("/"))
        else:
            labels.add(label)
    return labels


def emitted_labels() -> set[str]:
    labels = {rule.source for rule in CONCLUSION_RULES} | {rule.source for rule in STATUS_RULES}
    labels |= {case.source(capped) for case in SPECIALIZATION_CASES for capped in (False, True)}
    labels |= {label for sources in _KIND_SOURCES.values() for label in sources}
    for inst in GRID:
        if inst.char != 0 or inst.d > 13 or next(matching(BOUND_RULES, inst), None) is None:
            continue
        for k in range(1, 12):
            result = degree_bounds(inst, k, hypotheses_attested=True)
            labels.add(result.source)
            for value in (result.b0, result.td):
                if value is not None and value.note:
                    labels.update(re.findall(r"\[([^\]]+)\]", value.note))
    return labels


def test_every_emitted_label_has_a_readme_row():
    emitted = emitted_labels()
    assert {"Thm 5.2.2a", "Thm 5.4.3c", "Thm 5.4.5b", "Prop 5.4.1f", "Cor 5.1.4v", "Lemma 4.4c"} <= emitted
    assert emitted - readme_labels() == set()


def test_every_readme_row_is_an_emitted_label():
    assert readme_labels() - emitted_labels() == set()
