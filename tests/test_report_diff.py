"""Smoke tests of tools/report_diff.py, which compares the reports of two
source trees run by run."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "report_diff.py"


def run_tool(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *map(str, args)], capture_output=True, text=True, timeout=300
    )


def test_the_same_tree_gives_no_diff():
    done = run_tool(ROOT, ROOT, "--only", "sw-g-ord-2x3", "sw-cubic-analyze")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout == "2 runs, 0 differ\n"


def test_a_differing_run_is_printed(tmp_path):
    fake = tmp_path / "src" / "reeskit"
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text("")
    (fake / "cli.py").write_text("import sys\nprint('changed')\nsys.exit(3)\n")
    calls = tmp_path / "calls.txt"
    calls.write_text("# a comment\n\ngeneric --kind ordinary --m 2 --n 3 --t 2 --analyses height\n")
    done = run_tool(ROOT, tmp_path, "--only", "sw-g-ord-2x3", "--calls", calls)
    assert done.returncode == 1
    assert done.stdout.startswith("DIFF small-sweep/sw-g-ord-2x3: generic --kind ordinary --m 2 --n 3 --t 2\n")
    assert "\nDIFF calls.txt:3: generic --kind ordinary --m 2 --n 3 --t 2 --analyses height\n" in done.stdout
    assert done.stdout.count("  exit code: 0 -> 3\n") == 2
    assert "\n  +changed\n" in done.stdout
    assert done.stdout.endswith("2 runs, 2 differ\n")


def test_a_calls_file_runs_alone(tmp_path):
    calls = tmp_path / "calls.txt"
    calls.write_text("generic --kind ordinary --m 2 --n 3 --t 2 --analyses height\n")
    done = run_tool(ROOT, ROOT, "--only", "--calls", calls)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout == "1 runs, 0 differ\n"


def test_calls_files_run_in_the_order_given(tmp_path):
    fake = tmp_path / "src" / "reeskit"
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text("")
    (fake / "cli.py").write_text("print('changed')\n")
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    first.write_text("generic --kind ordinary --m 2 --n 3 --t 2 --analyses height\n")
    second.write_text("# a comment\ngeneric --kind ordinary --m 2 --n 2 --t 1 --analyses height\n")
    done = run_tool(ROOT, tmp_path, "--only", "--calls", second, "--calls", first)
    assert done.returncode == 1
    names = [line.split(":", 2)[:2] for line in done.stdout.splitlines() if line.startswith("DIFF ")]
    assert names == [["DIFF second.txt", "2"], ["DIFF first.txt", "1"]]
    assert done.stdout.endswith("2 runs, 2 differ\n")


def test_a_calls_line_can_name_a_file_in_the_problems_directory(tmp_path):
    # The old tree is the real CLI; the new one only says it ran.
    fake = tmp_path / "fake" / "src" / "reeskit"
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text("")
    (fake / "cli.py").write_text("print('ran')\n")
    problems = tmp_path / "calls" / "problems"
    problems.mkdir(parents=True)
    doc = {"format": 1, "variables": ["x"], "matrix": {"kind": "ordinary", "entries": [["x"]]}, "t": 1}
    (problems / "own.json").write_text(json.dumps(doc))
    calls = tmp_path / "calls" / "calls.txt"
    calls.write_text("height own.json\n")
    done = run_tool(ROOT, tmp_path / "fake", "--only", "--calls", calls)
    assert done.returncode == 1
    assert done.stdout.startswith("DIFF calls.txt:1: height own.json\n")
    assert "exit code" not in done.stdout
    assert "\n  -  height = 1\n" in done.stdout
    assert "\n  +ran\n" in done.stdout
    assert done.stdout.endswith("1 runs, 1 differ\n")


def load_tool():
    spec = importlib.util.spec_from_file_location("report_diff", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_only_a_scaling_limit_probe_runs_without_its_timeout(tmp_path):
    # A probe may finish on one tree and expire on the other by timing
    # alone, so both run it to the end and compare its report.
    tool = load_tool()
    probes = {f"{w}/{b.id}" for w, bases in tool.corpus.BASES.items() for b in bases if b.may_expire}
    runs = dict(tool.base_runs(None, tmp_path))
    assert probes and probes < set(runs)
    assert not any("--timeout" in runs[name] for name in probes)
    assert any("--timeout" in argv for argv in runs.values())


def test_a_long_diff_is_cut_with_a_count_of_the_rest():
    tool = load_tool()
    many = "\n".join(map(str, range(1000))) + "\n"
    lines = tool.describe("calls.txt:1", ["height", "a.json"], (0, "a\n", ""), (0, many, "x\n"))
    # The stdout diff has 1004 lines: two file headers, one hunk header,
    # -a and a + line for each of the 1000 new ones.
    stdout = lines[1 : 2 + tool.DIFF_LINES]
    assert stdout[:4] == ["  --- old stdout", "  +++ new stdout", "  @@ -1 +1,1000 @@", "  -a"]
    assert stdout[-1] == f"  ... {1004 - tool.DIFF_LINES} more diff lines"
    # A diff no longer than the cap is printed whole, with no count.
    assert lines[2 + tool.DIFF_LINES :] == ["  --- old stderr", "  +++ new stderr", "  @@ -0,0 +1 @@", "  +x"]
    assert len(lines) == 2 + tool.DIFF_LINES + 4


def test_unknown_problem_is_an_error():
    done = run_tool(ROOT, ROOT, "--only", "no-such-problem")
    assert done.returncode == 2
    assert "no base problem named no-such-problem" in done.stderr
