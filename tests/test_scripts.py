"""Smoke runs of the scripts under ``scripts/``, each in a fresh interpreter,
and of the row function of ``scripts/bench.py`` in this one."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lexleast.checks import BATTERY

import golden

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )


def test_run_checks_fast():
    proc = run_script("run_checks.py", "--fast")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("PASS ") == len(BATTERY)
    assert "\n0 failing check(s)" in proc.stdout


def test_explore_exponents_small():
    proc = run_script("explore_exponents.py", "--length", "60", "--exponents", "3/2", "2/1")
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stdout.splitlines() if line]
    assert len(lines) == 4
    assert lines[0].startswith("3/2 threshold")
    assert lines[0].endswith("head " + " ".join(map(str, golden.W32_100[:30])))


def test_explore_exponents_usage_errors():
    for args, message in (
        (("--length", "0"), "--length must be at least 1"),
        (("--exponents", "1/2"), "exponent needs p > q >= 1"),
        (("--exponents", "3"), "expected 'P/Q'"),
    ):
        proc = run_script("explore_exponents.py", *args)
        assert proc.returncode == 2, (args, proc.stderr)
        assert message in proc.stderr and "Traceback" not in proc.stderr, args


def test_explore_exponents_into_closed_pipe_exits_quietly():
    # more output than a pipe holds, so a write fails after the reader
    # takes one line and closes the pipe, as `| head -1` does
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with subprocess.Popen(
        [sys.executable, str(ROOT / "scripts" / "explore_exponents.py"),
         "--length", "30", "--exponents", *["2/1"] * 600],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
    ) as proc:
        assert proc.stdout.readline().startswith(b"2/1 threshold")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert err == b""


def _bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_rows_at_their_smallest_size():
    # each row of scripts/bench.py times its call at its smallest size
    # (10^4 letters, 3*10^3 near exponent 1), in a worker process importing
    # this checkout's src, beside the reference loop, and scales it as
    # perfbench does; the slope needs two sizes, and reads 1 on times
    # linear in them.  A full run times at least LETTERS letters at each
    # size, in at least REPEATS calls
    bench = _bench()
    plan = [(name, sizes[:1]) for name, (_, sizes) in bench.ROWS.items()]
    (rows,) = bench.measure([ROOT / "src"], plan, repeats=1)
    assert [result["row"] for result in rows] == list(bench.ROWS)
    for (name, (n,)), result in zip(plan, rows):
        assert result["sizes"] == [n] and result["calls"] == [1] and n in (3_000, 10_000), name
        for size in bench.ROWS[name][1]:
            assert bench.calls_at(size) >= bench.REPEATS and bench.calls_at(size) * size >= bench.LETTERS, (name, size)
        raw, ref, scaled = result["raw_seconds"][0], result["reference_s"][0], result["seconds"][0]
        assert raw > 0 and ref > 0 and result["slope"] is None, name
        assert scaled == pytest.approx(raw * bench._perfbench().REFERENCE_S / ref), name
        assert result["us_per_letter"][0] == pytest.approx(scaled / n * 1e6), name
    assert bench.slope([10, 1_000], [0.5, 50.0]) == pytest.approx(1.0)


def test_bench_times_two_trees_call_by_call(tmp_path):
    # one worker per tree, each timing every call of the run; a worker
    # whose lexleast does not come from its tree is refused
    bench = _bench()
    first, second = bench.measure([ROOT / "src", ROOT / "src"], [("greedy w32 threshold", [3_000, 10_000])], repeats=2)
    for rows in (first, second):
        assert [(r["row"], r["sizes"], r["calls"]) for r in rows] == [("greedy w32 threshold", [3_000, 10_000], [2, 2])]
    with pytest.raises(RuntimeError, match="imported lexleast from"):
        bench.Worker(tmp_path)


def test_bench_revision_is_dirty_only_when_the_sources_changed(tmp_path):
    # a BENCH file written into the checkout, or any other change outside
    # the sources, leaves the revision clean; a changed source marks it
    bench = _bench()
    src = tmp_path / "src"
    src.mkdir()
    (src / "module.py").write_text("x = 1\n")
    (tmp_path / "README.md").write_text("readme\n")

    def git(*args):
        subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "seed")
    clean = bench.revision(src)
    assert clean and not clean.endswith("-dirty")
    (tmp_path / "README.md").write_text("changed\n")
    (tmp_path / "BENCH_label.json").write_text("{}\n")
    assert bench.revision(src) == clean
    (src / "module.py").write_text("x = 2\n")
    assert bench.revision(src) == clean + "-dirty"
