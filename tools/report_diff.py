"""Compare the reports of two reeskit source trees, run by run.

    python3 tools/report_diff.py OLD_TREE NEW_TREE [--calls FILE]... [--only [ID ...]]

Each tree is a directory holding `src/reeskit`.  The runs are every base
problem of every perfbench workload, as written (no seeded presentation)
except that a scaling-limit probe (`may_expire`) runs without its
`--timeout`, followed by the command lines of each calls FILE, in the
order the `--calls` options are given, one per line in shell quoting
(blank lines and lines starting with `#` are skipped).  `--only` keeps the
named base problems and drops the rest; with no ID it drops them all, so
`--only --calls FILE` runs the calls file alone, and
`--only --calls A --calls B` runs A and then B.  Every run starts its own
`python3 -m reeskit.cli` process with `PYTHONHASHSEED=0`, one at a time,
first on OLD_TREE and then on NEW_TREE, in the same working directory and
with the same problem file.  The problem file of every base problem is
written there as ID.json, whether it runs or not, and the `*.json` files
of a `problems` directory beside each FILE are copied there, so a calls
line can name either.

A probe's run time straddles its limit, so with the limit one tree could
expire where the other finishes: a difference of timing, not of the
program.  Without the limit both trees compute the probe's full report and
the tool compares it, which checks more than an expiry does; RUN_CAP_S
still bounds the run.

It prints each run whose exit code, stdout or stderr differs, with a
unified diff of the streams that differ, each cut after DIFF_LINES lines
and followed by the count of the lines left out, and exits 1 if any run
differs, 0 if none does.  Standard library only; it imports perfbench/corpus.py
for the base problems and only reads it.
"""

from __future__ import annotations

import argparse
import dataclasses
import difflib
import itertools
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import corpus  # noqa: E402

# A run that takes longer than this is killed and recorded as exit "killed".
RUN_CAP_S = 600
# Each stream's diff is printed up to this many lines, then the count of the rest.
DIFF_LINES = 40


def base_runs(only: set[str] | None, workdir: Path) -> list[tuple[str, list[str]]]:
    """(id, argv) of each base problem as written, for the ids in `only`
    (all when None); every base problem's file goes in workdir."""
    runs = []
    for workload, bases in corpus.BASES.items():
        for base in bases:
            p = corpus.problem(dataclasses.replace(base, timeout=None) if base.may_expire else base, None, base.id, None)
            argv = p["argv"]
            if p["doc"] is not None:
                path = workdir / f"{base.id}.json"
                path.write_text(json.dumps(p["doc"]), encoding="utf-8")
                argv = [str(path) if a == "{file}" else a for a in argv]
            if only is None or base.id in only:
                runs.append((f"{workload}/{base.id}", argv))
    return runs


def call_runs(path: Path, workdir: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) of each command line in the calls file; the problem
    files in the `problems` directory beside it go in workdir."""
    for problem in sorted((path.parent / "problems").glob("*.json")):
        shutil.copy(problem, workdir)
    runs = []
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if line.strip() and not line.lstrip().startswith("#"):
            runs.append((f"{path.name}:{number}", shlex.split(line)))
    return runs


def run_once(tree: Path, argv: list[str], cwd: Path) -> tuple[object, str, str]:
    """(exit code or "killed", stdout, stderr) of one CLI run on the tree."""
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": str(tree.resolve() / "src")}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "reeskit.cli", *argv],
            cwd=cwd,
            env=env,
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            timeout=RUN_CAP_S,
        )
    except subprocess.TimeoutExpired as exc:
        # The partial output comes as bytes even in text mode.
        return "killed", *(s.decode() if isinstance(s, bytes) else s or "" for s in (exc.stdout, exc.stderr))
    return done.returncode, done.stdout, done.stderr


def describe(name: str, argv: list[str], old: tuple, new: tuple) -> list[str]:
    """Lines reporting one differing run."""
    lines = [f"DIFF {name}: {shlex.join(argv)}"]
    if old[0] != new[0]:
        lines.append(f"  exit code: {old[0]} -> {new[0]}")
    for stream, a, b in (("stdout", old[1], new[1]), ("stderr", old[2], new[2])):
        if a != b:
            diff = difflib.unified_diff(a.splitlines(), b.splitlines(), f"old {stream}", f"new {stream}", lineterm="")
            lines.extend("  " + d for d in itertools.islice(diff, DIFF_LINES))
            rest = sum(1 for _ in diff)
            if rest:
                lines.append(f"  ... {rest} more diff lines")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="source tree run first")
    parser.add_argument("new", type=Path, help="source tree compared with it")
    parser.add_argument("--calls", type=Path, action="append", default=[], help="file of extra command lines, one per line; may be repeated")
    parser.add_argument("--only", nargs="*", metavar="ID", help="run only these base problems (none without an ID)")
    args = parser.parse_args(argv)
    for tree in (args.old, args.new):
        if not (tree / "src" / "reeskit").is_dir():
            parser.error(f"{tree} holds no src/reeskit")
    unknown = set(args.only or ()) - {b.id for bases in corpus.BASES.values() for b in bases}
    if unknown:
        parser.error(f"no base problem named {', '.join(sorted(unknown))}")

    with tempfile.TemporaryDirectory(prefix="report-diff-") as tmp:
        workdir = Path(tmp)
        runs = base_runs(None if args.only is None else set(args.only), workdir)
        for calls in args.calls:
            runs += call_runs(calls, workdir)
        differing = 0
        for name, run_argv in runs:
            old = run_once(args.old, run_argv, workdir)
            new = run_once(args.new, run_argv, workdir)
            if old != new:
                differing += 1
                print("\n".join(describe(name, run_argv, old, new)), flush=True)
    print(f"{len(runs)} runs, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
