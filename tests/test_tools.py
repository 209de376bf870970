"""The tools under tools/.

tools/src_lines.py counts physical lines and code lines: a code line holds
a token that is not a comment, a newline or indentation, outside every
module, class and function docstring.  tools/paired_ab.py runs a bench deck
on two checkouts job by job: the same checkout on both sides writes the
same bytes, and a difference in stdout or exit code fails the run.  Its
per-subcommand pass times add up to the whole pass on each side, and its
per-pass ratios are those of each pass's summed job times.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "src_lines.py"
PAIRED = ROOT / "tools" / "paired_ab.py"
MODULE = '"""A module docstring."""\n# a comment\n\nx = 1\ny = x + 1\n'
NESTED = '''class A:
    """A class docstring
    on two lines."""

    def f(self):
        """A function docstring."""
        return (1 +  # a trailing comment
                2)
'''


def load_tool(path=TOOL):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_synthetic_module():
    assert load_tool().count(MODULE) == (5, 2)


def test_directory_total(tmp_path, capsys):
    # NESTED: eight physical lines, code on class, def and both return lines
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text(NESTED)
    assert load_tool().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        f"{tmp_path}: 13 physical lines, 6 code lines\n")


def test_paired_same_checkout_writes_identical_bytes():
    done = subprocess.run(
        [sys.executable, str(PAIRED), str(ROOT), str(ROOT),
         "--workload", "ring", "--passes", "1", "--limit", "24"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "24 jobs x 1 pass(es), identical exit codes and stdout" in done.stdout
    assert done.stdout.splitlines()[-1].startswith("ratio")


def test_paired_command_keeps_those_jobs():
    done = subprocess.run(
        [sys.executable, str(PAIRED), str(ROOT), str(ROOT),
         "--workload", "tables", "--passes", "1", "--limit", "12",
         "--command", "fan", "--command", "numbers"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "12 jobs x 1 pass(es), identical exit codes and stdout" in done.stdout
    deck = load_tool(PAIRED).bench_deck("tables", 1)
    kept = [argv for argv in deck if argv[0] in ("fan", "numbers")]
    assert 12 < len(kept) < len(deck)


@pytest.mark.parametrize("name", ["nope", "classify"])
def test_paired_unknown_command_exits_2(name):
    done = subprocess.run(
        [sys.executable, str(PAIRED), str(ROOT), str(ROOT),
         "--workload", "tables", "--command", "fan", "--command", name],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert f"no tables job runs {name}" in done.stderr
    assert done.stdout == ""


def test_paired_splits_the_pass_by_command():
    done = subprocess.run(
        [sys.executable, str(PAIRED), str(ROOT), str(ROOT),
         "--workload", "tables", "--passes", "2", "--limit", "30"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    names = dict.fromkeys(argv[0] for argv in
                          load_tool(PAIRED).bench_deck("tables", 1)[:30])
    start = lines.index(f"{'command':10s} {'parent ms':>10s} "
                        f"{'change ms':>10s} {'ratio':>10s}")
    rows = [line.split() for line in lines[start + 1:start + 1 + len(names)]]
    assert [row[0] for row in rows] == [*names] and len(names) > 1
    sides = lines[start + len(names) + 2:start + len(names) + 4]
    for side, line in enumerate(sides, 1):  # the parts add up to the pass
        assert line.split()[0] == ("parent", "change")[side - 1]
        assert sum(float(row[side]) for row in rows) == pytest.approx(
            float(line.split()[1]), rel=1e-3, abs=1e-3)
    assert lines[-1].startswith("ratio")


def test_by_command_sums_each_pass():
    argvs = [("a", "1"), ("b", "1"), ("a", "2")]
    times = [1e6, 2e6, 3e6, 5e6, 4e6, 7e6]  # two passes of three jobs
    assert load_tool(PAIRED).by_command(times, argvs) == {"a": 8.0, "b": 3.0}


def test_pass_ratios_and_wins():
    tool = load_tool(PAIRED)
    parent = [1e6, 3e6, 2e6, 2e6, 5e6, 1e6]  # three passes of two jobs
    change = [1e6, 2e6, 3e6, 1e6, 3e6, 3e6]
    assert tool.pass_ratios((parent, change), 2) == pytest.approx(
        [0.75, 1.0, 1.0])
    done = subprocess.run(
        [sys.executable, str(PAIRED), str(ROOT), str(ROOT),
         "--workload", "ring", "--passes", "3", "--limit", "8"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    line = done.stdout.splitlines()[1].split()
    assert line[:2] == ["pass", "ratio"] and line[-2:] == ["of", "3"]
    low, high = map(float, line[2].rstrip(",").split("-"))
    assert 0 < low <= high and 0 <= int(line[-3]) <= 3


def test_paired_reports_a_difference():
    tool = load_tool(PAIRED)

    def side(text, code):
        return SimpleNamespace(main=lambda argv: print(text) or code)

    argvs = [("a",), ("b",)]
    same = tool.compare([side("x", 0), side("x", 0)], argvs, 2)
    assert same[1] == [] and [len(t) for t in same[0]] == [4, 4]
    assert tool.compare([side("x", 0), side("y", 0)], argvs, 1)[1] == argvs
    assert tool.compare([side("x", 0), side("x", 3)], argvs, 1)[1] == argvs
