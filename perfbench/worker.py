"""Benchmark worker: runs a corpus in-process through reeskit.cli.run.

    python3 perfbench/worker.py CORPUS OUT --t0 T [--seconds S] [--trace 0|1] [--setup-only]

T is the parent's time.monotonic() just before it started this process, so
the first event gives the start-up time (interpreter start until
reeskit.cli is imported).  The worker then makes whole passes over the
corpus while the next pass is expected to end within S seconds (at least
one; exactly one with --trace 1), captures each report, checks it against the problem's expectation,
and appends one JSON line per event to OUT as it goes, so a worker killed
by the parent leaves every finished problem on record.  Times are reported
in reference seconds (see SpeedSampler).  With --trace 1 it makes one more
pass with the tracer installed, removes it, and writes the spans and
per-layer metrics.  The worker starts no threads or processes.
"""

from __future__ import annotations

import time  # noqa: I001  (first, so start-up is timed to the import below)
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import reeskit.cli  # noqa: E402

READY = time.monotonic()

import argparse  # noqa: E402
import bisect  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

import tracing  # noqa: E402

# Report lines checked in text mode: heights and verdicts.  Generator counts
# ("ideal minors(3), 10 generators") and cited labels in brackets are not.
_LABEL = re.compile(r"\s*\[[^\]]*\]")
_VERDICT_WORDS = ("height", "->", ": yes", ": no", "conclusion", "max_s", "max s", "b0 <=", "not applicable", "Pf =")


def checked_content(stdout: str, as_json: bool):
    """The computed part of a report: what expected.json pins."""
    if not as_json:
        lines = []
        for line in stdout.splitlines():
            if "generators" in line or not any(w in line for w in _VERDICT_WORDS):
                continue
            lines.append(_LABEL.sub("", line).rstrip())
        return lines
    sections = []
    for s in json.loads(stdout)["analyses"]:
        kind = s["analysis"]
        if kind == "height":
            c = {k: s[k] for k in ("height", "expected_generic", "generic")}
        elif kind == "gs":
            rows = [{k: r[k] for k in ("j", "threshold", "height", "required", "satisfied")} for r in s["rows"]]
            c = {"s": s["s"], "rows": rows, "max_s": s["max_s"], "satisfied": s["satisfied"]}
        elif kind == "specialize":
            rows = [{k: r[k] for k in ("j", "required", "height", "satisfied")} for r in s["rows"]]
            c = {"rows": rows, "specializes": s["specializes"], "cohen_macaulay": s["cohen_macaulay"]}
        elif kind == "bounds":
            hyp = s["hypotheses"]
            c = {
                "hypotheses": [{k: r[k] for k in ("j", "required", "height", "satisfied")} for r in hyp["rows"]],
                "hypotheses_satisfied": hyp["satisfied"],
                "rows": [
                    {"k": r["k"], "applicable": r["applicable"], **({"b0": r["b0"]["rendered"], "td": r["td"]["rendered"]} if r["applicable"] else {})}
                    for r in s["rows"]
                ],
            }
        elif kind == "classify":
            c = {"conclusions": [{k: x.get(k) for k in ("claim", "source", "hypotheses_verified", "detail")} for x in s["conclusions"]]}
        elif kind == "forms":
            flags = ("linear_type", "fiber_type", "td_finite_all_k", "td_infinite_some_k")
            c = {"max_gs": s["max_gs"], "min_generators": s["min_generators"], "status": {k: s["status"][k] for k in flags}}
        elif kind == "pfaffian":
            c = {"pfaffian": s["pfaffian"]}
        else:
            c = {}
        sections.append({"analysis": kind, **c})
    return sections


def run_problem(argv: list[str]) -> tuple[float, int | None, str, str]:
    """(seconds, exit code or None on an exception, stdout, stderr or traceback)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = reeskit.cli.run(argv)
    except Exception:  # the problem fails; the run goes on
        return time.perf_counter() - start, None, out.getvalue(), traceback.format_exc()
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def judge(problem: dict, seconds: float, code: int | None, stdout: str, stderr: str) -> tuple[str, str]:
    """(outcome, detail).  Outcomes: "ok"; "expired", the known --timeout
    expiry of a scaling-limit probe; "timeout", any other expiry; "wrong",
    a wrong exit code, a wrong value or an exception."""
    expect = problem["expect"]
    if code is None:
        return "wrong", "exception: " + stderr.strip().splitlines()[-1]
    if code == expect["exit"]:
        if code != 0:
            return "ok", ""
        try:
            got = checked_content(stdout, problem["json"])
        except (ValueError, KeyError, TypeError) as exc:
            return "wrong", f"unreadable report: {exc!r}"
        if got != expect["content"]:
            return "wrong", f"wrong values: got {json.dumps(got)}"
        return "ok", ""
    timeout = problem["timeout"]
    if code == 2 and timeout is not None and seconds >= timeout:
        return ("expired" if problem["may_expire"] else "timeout"), stderr.strip()
    return "wrong", f"exit {code}, expected {expect['exit']}: {stderr.strip()[:300]}"


def _reference_loop(n: int = 10_000) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def _timed_reference_loop() -> float:
    start = time.perf_counter()
    _reference_loop()
    return time.perf_counter() - start


class SpeedSampler:
    """The machine's speed while each problem ran.

    A shared machine's speed drifts by tens of percent over seconds.  From a
    SIGALRM handler, every SAMPLE_EVERY_S of real time, this times a fixed
    pure-Python loop, which shares nothing with reeskit.  factor(start, end)
    is REFERENCE_S over the median loop time around an interval: the
    multiplier that turns measured seconds into reference seconds, the time
    the same work takes where the loop runs in REFERENCE_S.  Parent and
    child commits run the same loop, so the drift cancels in a comparison.
    """

    SAMPLE_EVERY_S = 0.025
    WINDOW_S = 0.25  # samples this far outside a short interval also count
    REFERENCE_S = 0.0007

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def _sample(self, signum, frame):
        self.at.append(time.perf_counter())
        self.took.append(_timed_reference_loop())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_EVERY_S, self.SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.at, start - self.WINDOW_S)
        hi = bisect.bisect_right(self.at, end + self.WINDOW_S)
        return self.REFERENCE_S / statistics.median(self.took[lo:hi] or self.took)


class Worker:
    def __init__(self, problems: list[dict], out):
        self.problems = problems
        self.out = out

    def emit(self, **event):
        self.out.write(json.dumps(event) + "\n")
        self.out.flush()

    def run_pass(self, index: int, tracer: tracing.Tracer | None = None) -> tuple[float, float, dict[str, float]]:
        """One pass: its wall time in reference seconds and as measured, and
        each problem's factor from measured to reference seconds."""
        traced = tracer is not None
        intervals, limited = [], []
        with SpeedSampler() as speed:
            for p in self.problems:
                if traced:
                    tracer.start_problem(p["id"])
                start = time.perf_counter()
                seconds, code, stdout, stderr = run_problem(p["argv"])
                intervals.append((start, start + seconds))
                outcome, detail = judge(p, seconds, code, stdout, stderr)
                limited.append(outcome in ("expired", "timeout"))
                self.emit(event="problem", traced=traced, id=p["id"], seconds=seconds, outcome=outcome, detail=detail)
            # Samples after the last problem complete its window.
            time.sleep(SpeedSampler.WINDOW_S)
        # A --timeout expiry lasts as long as the limit, whatever the speed.
        factors = [1.0 if cut else speed.factor(a, b) for (a, b), cut in zip(intervals, limited)]
        ref_seconds = [(b - a) * f for (a, b), f in zip(intervals, factors)]
        # problem_s leaves out expiries: their time is the limit's, not the work's.
        measured = sum(b - a for a, b in intervals)
        self.emit(event="pass", traced=traced, index=index, wall_s=sum(ref_seconds),
                  problem_s=[[p["base"], t] for p, t, cut in zip(self.problems, ref_seconds, limited) if not cut],
                  measured_wall_s=measured, speed_samples=len(speed.took),
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        return sum(ref_seconds), measured, {p["id"]: f for p, f in zip(self.problems, factors)}

    def run(self, seconds: float, trace: bool, spans_path: str | None):
        """Untraced passes while the next should end within `seconds`; with
        `trace`, one untraced pass and then one traced pass."""
        start = time.perf_counter()
        walls, took = [], []
        while True:
            wall, measured, _ = self.run_pass(len(walls))
            walls.append(wall)
            took.append(measured)
            if trace or time.perf_counter() - start + statistics.median(took) > seconds:
                break
        if not trace:
            return
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_wall, _, factors = self.run_pass(len(walls), tracer)
        finally:
            tracer.remove()
        metrics = tracer.layer_metrics(factors)
        metrics["trace.overhead_frac"] = traced_wall / statistics.median(walls) - 1
        if spans_path:
            tracer.write_spans(spans_path)
        self.emit(event="layers", metrics=metrics)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("corpus")
    ap.add_argument("out")
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    with open(args.out, "w", encoding="utf-8") as out:
        worker = Worker([], out)
        # Start-up is too short to sample during; the speed just after it
        # stands in.
        loop = statistics.median(_timed_reference_loop() for _ in range(30))
        worker.emit(event="ready", setup_s=(READY - args.t0) * SpeedSampler.REFERENCE_S / loop, measured_setup_s=READY - args.t0)
        if args.setup_only:
            return 0
        with open(args.corpus, encoding="utf-8") as fh:
            worker.problems = json.load(fh)
        worker.run(args.seconds, bool(args.trace), args.spans)
        worker.emit(event="done")
    return 0


if __name__ == "__main__":
    sys.exit(main())
