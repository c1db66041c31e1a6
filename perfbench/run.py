"""The reeskit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The seed draws the presentation of
a fixed set of problems (see corpus.py); the program sees only the problem
files and argv.  Each run starts a few start-up probes and then one worker
process (worker.py), one at a time, and kills the worker if it outlives a
hard cap.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1.  The lines before it print every metric with its sample count,
failed_frac, and the provenance of the result.  The full result and, for
--trace 1, the spans are kept under .perfbench_run/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus

ROOT = Path.cwd()
WORKER = Path(__file__).resolve().with_name("worker.py")
WORK_DIR = ROOT / ".perfbench_run"

SETUP_PROBES = 7
# The worker's own budget is --seconds; the cap only catches a worker that
# runs away (the dimension search ignores --timeout), and keeps the run
# inside 180 s.
HARD_CAP_S = 150.0

END_TO_END = {
    "wall_s": "s",
    "problem_s_p50": "s",
    "problem_s_max": "s",
    "solved_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def start_worker(args: list[str], out: Path, log: Path) -> subprocess.Popen:
    t0 = time.monotonic()
    with open(log, "w", encoding="utf-8") as err:
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), *args, str(out), "--t0", repr(t0)],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
            cwd=ROOT,
            # Fixed string hashing: set orders, and so the work, repeat exactly.
            env={**os.environ, "PYTHONHASHSEED": "0"},
        )
    return proc


def wait_capped(proc: subprocess.Popen, cap: float) -> bool:
    """Wait for the worker; kill it at the cap, or if this process is
    stopped while waiting.  True if it was killed at the cap."""
    try:
        proc.wait(timeout=cap)
        return False
    except subprocess.TimeoutExpired:
        return True
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def read_events(path: Path) -> list[dict]:
    if not path.exists():
        return []
    events = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.endswith("\n"):  # a killed worker may leave half a line
                events.append(json.loads(line))
    return events


def probe_setup(run_dir: Path) -> list[float]:
    """Start-up seconds of SETUP_PROBES workers that only import reeskit.cli."""
    times = []
    for k in range(SETUP_PROBES):
        out = run_dir / f"setup{k}.jsonl"
        proc = start_worker(["-", "--setup-only"], out, run_dir / f"setup{k}.log")
        if wait_capped(proc, 30.0) or proc.returncode != 0:
            raise RuntimeError(f"start-up probe failed: {(run_dir / f'setup{k}.log').read_text()[-2000:]}")
        times.append(read_events(out)[0]["setup_s"])
    return times


def summarize(events: list[dict], per_pass: int, finished: bool) -> dict:
    """Outcome counts and end-to-end timings from the worker's events.

    A problem fails if its outcome is "wrong" or "timeout", or if the worker
    ended before reaching it in its last pass.
    """
    problems = [e for e in events if e["event"] == "problem"]
    passes = [e for e in events if e["event"] == "pass" and not e["traced"]]
    unfinished = 0 if finished else (-len(problems)) % per_pass
    outcomes = {k: sum(1 for p in problems if p["outcome"] == k) for k in ("ok", "expired", "timeout", "wrong")}
    timed: dict[str, list[float]] = {}
    for e in passes:
        for base, seconds in e["problem_s"]:
            timed.setdefault(base, []).append(seconds)
    return {
        "attempted": len(problems) + unfinished,
        "outcomes": outcomes,
        "failed": outcomes["wrong"] + outcomes["timeout"] + unfinished,
        "unfinished": unfinished,
        "passes": len(passes),
        "wall_s": [e["wall_s"] for e in passes],
        "measured_wall_s": [e["measured_wall_s"] for e in passes],
        "peak_rss_mb": max(e["peak_rss_mb"] for e in passes) if passes else None,
        "problem_s": timed,
        "failures": [p for p in problems if p["outcome"] in ("wrong", "timeout")][:20],
    }


def run_corpus(problems: list[dict], run_dir: Path, seconds: float, trace: bool, spans_path: Path | None = None) -> dict:
    """Write the problem files, time start-up, run one capped worker over
    the corpus and summarize its events.  Raises RuntimeError if the worker
    leaves no usable result."""
    problems = [dict(p) for p in problems]
    for k, p in enumerate(problems):
        if p["doc"] is not None:
            path = run_dir / f"p{k:04d}.json"
            path.write_text(json.dumps(p["doc"]), encoding="utf-8")
            p["argv"] = [str(path) if a == "{file}" else a for a in p["argv"]]
    corpus_path = run_dir / "corpus.json"
    corpus_path.write_text(json.dumps(problems), encoding="utf-8")

    setup = probe_setup(run_dir)
    worker_args = [str(corpus_path), "--seconds", str(seconds), "--trace", str(int(trace))]
    if trace and spans_path is not None:
        worker_args += ["--spans", str(spans_path)]
    out, log = run_dir / "events.jsonl", run_dir / "worker.log"
    proc = start_worker(worker_args, out, log)
    killed = wait_capped(proc, HARD_CAP_S)
    events = read_events(out)
    finished = not killed and proc.returncode == 0 and bool(events) and events[-1]["event"] == "done"
    s = summarize(events, len(problems), finished)
    layers = next((e["metrics"] for e in events if e["event"] == "layers"), None)
    if s["passes"] == 0 or (trace and layers is None):
        raise RuntimeError(f"the worker finished no pass (killed at the cap: {killed}):\n{log.read_text()[-4000:]}")
    s["setup_s"] = setup + [events[0]["setup_s"]]
    s["killed"] = killed
    s["layers"] = layers
    return s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="reeskit benchmark")
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Let SIGTERM unwind, so the worker is killed and the run directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "reeskit" / "cli.py").is_file():
        print(f"error: no reeskit source tree under {ROOT}; run from the root of a checkout", file=sys.stderr)
        return 2

    problems = corpus.build(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = WORK_DIR / f"{tag}-{os.getpid()}"
    results_dir = WORK_DIR / "results"
    run_dir.mkdir(parents=True, exist_ok=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    try:
        s = run_corpus(problems, run_dir, args.seconds, bool(args.trace), results_dir / f"{tag}-spans.jsonl")
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    outcomes = s["outcomes"]
    runs = [t for v in s["problem_s"].values() for t in v] or [0.0]
    samples = {
        "wall_s": (statistics.median(s["wall_s"]), f"median of {s['passes']} passes"),
        "problem_s_p50": (statistics.median(runs), f"median of {len(runs)} problem runs"),
        "problem_s_max": (max((statistics.median(v) for v in s["problem_s"].values()), default=0.0),
                          f"the slowest of {len(s['problem_s'])} problems, each the median of its runs"),
        "solved_frac": (outcomes["ok"] / s["attempted"], f"{outcomes['ok']} of {s['attempted']} attempted"),
        "peak_rss_mb": (s["peak_rss_mb"], "1 worker"),
        "setup_s": (statistics.median(s["setup_s"]), f"median of {len(s['setup_s'])} starts"),
    }
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "corpus_sha256": corpus.digest(problems),
        "problems_per_pass": len(problems),
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "killed_at_cap": s["killed"],
    }
    failed_frac = s["failed"] / s["attempted"]
    expired_frac = outcomes["expired"] / s["attempted"]
    print(f"reeskit benchmark  {tag}  corpus sha256 {provenance['corpus_sha256'][:16]}")
    for name, (value, how) in samples.items():
        print(f"  {name:<34} {value:>14.6g} {END_TO_END[name]:<6} ({how})")
    print(f"  {'(wall_s as measured)':<34} {statistics.median(s['measured_wall_s']):>14.6g} s      (median of {s['passes']} passes)")
    print(f"  {'failed_frac':<34} {failed_frac:>14.6g} ratio  ({s['failed']} of {s['attempted']} attempted)")
    print(f"  {'expired_frac':<34} {expired_frac:>14.6g} ratio  ({outcomes['expired']} of {s['attempted']} attempted)")
    for name, value in (s["layers"] or {}).items():
        print(f"  {name:<34} {value:>14.6g} {per_layer_unit(name):<6} (1 traced pass)")
    for f in s["failures"]:
        print(f"  FAILED {f['id']}: {f['detail'][:400]}")
    print("provenance " + json.dumps(provenance, sort_keys=True))

    result = {"correct": outcomes["wrong"] == 0, "attempted": s["attempted"], "failed": s["failed"]}
    if args.trace:
        result["metrics"] = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in s["layers"].items()}
    else:
        result["metrics"] = {k: {"value": v, "unit": END_TO_END[k]} for k, (v, _) in samples.items()}
    record = dict(result, provenance=provenance, failed_frac=failed_frac, expired_frac=expired_frac,
                  samples={k: how for k, (_, how) in samples.items()}, raw=s)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results_dir / f"{tag}-{stamp}.json").write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
