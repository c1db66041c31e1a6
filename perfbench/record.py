"""Write perfbench/expected.json: the checked content of every base problem.

    python3 perfbench/record.py

Run from the root of a checkout.  Each base problem runs in this process
in the presentations of seeds 1 and 2, and both must give the same exit
code and checked content.  Every height a linear matrix reports must equal
corpus.heights_by_formula.  The scaling-limit probe does not finish, so its
content is computed with the lower-ideal heights taken from that formula
instead of from Buchberger.

Recording pins the answers of the program at hand: run it only when a base
problem is added, and check the new entries by hand.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import corpus
import worker
from reeskit import groebner

RECORD_SEEDS = (1, 2)


class _FormulaIdeal:
    def __init__(self, height: int):
        self._height = height

    def height(self) -> int:
        return self._height


def _run(base: corpus.Base, seed: int, scratch: Path) -> dict:
    p = corpus.problem(base, random.Random(f"record:{seed}"), base.id, None)
    if p["doc"] is not None:
        path = scratch / f"{base.id}-{seed}.json"
        path.write_text(json.dumps(p["doc"]), encoding="utf-8")
        p["argv"] = [str(path) if a == "{file}" else a for a in p["argv"]]
    argv = p["argv"]
    if base.may_expire:  # drop --timeout: the heights come from the formula
        argv = argv[: argv.index("--timeout")]
    _, code, stdout, stderr = worker.run_problem(argv)
    if code is None:
        raise RuntimeError(f"{base.id}: {stderr}")
    return {"exit": code, "content": worker.checked_content(stdout, base.json) if code == 0 else None}


def _check_formula(base: corpus.Base, content: list) -> None:
    heights = corpus.heights_by_formula(base)
    step = 2 if base.kind == corpus.ALTERNATING else 1
    for section in content:
        if section["analysis"] == "height":
            assert section["height"] == heights[step * base.t], (base.id, section)
        for row in section.get("rows", []) + section.get("hypotheses", []):
            if "j" in row:
                assert row["height"] == heights[step * row["j"]], (base.id, row)


def record() -> dict:
    scratch = Path.cwd() / ".perfbench_run" / "record"
    scratch.mkdir(parents=True, exist_ok=True)
    expected = {}
    for workload in corpus.WORKLOADS:
        for base in corpus.BASES[workload]:
            original = groebner.ideal_of_minors
            if base.may_expire:
                heights = corpus.heights_by_formula(base)
                groebner.ideal_of_minors = lambda M, j: _FormulaIdeal(heights[j])
            try:
                runs = [_run(base, seed, scratch) for seed in RECORD_SEEDS]
            finally:
                groebner.ideal_of_minors = original
            if runs[0] != runs[1]:
                raise RuntimeError(f"{base.id}: seeds {RECORD_SEEDS} disagree:\n{runs[0]}\n{runs[1]}")
            if base.entries == "linear" and base.json and runs[0]["exit"] == 0:
                _check_formula(base, runs[0]["content"])
            expected[base.id] = runs[0]
            print(f"{base.id}: exit {runs[0]['exit']}", file=sys.stderr)
    return expected


if __name__ == "__main__":
    result = record()
    corpus.EXPECTED_PATH.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
