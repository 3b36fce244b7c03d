"""Smoke runs of the scripts under ``scripts/``, each in a fresh interpreter,
and of the row function of ``scripts/bench.py`` in this one."""

import importlib.util
import json
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


def test_bench_times_large_sizes_for_a_floor_of_calls_and_seconds():
    # 3 calls of 0.1-0.3 s at 10^5 letters could not resolve 25%, and 5 at
    # 10^6 letters read one scan 1.08 and then 0.74 on the same code: every
    # size gets REPEATS calls (at least 9) and SECONDS of them in each tree,
    # small ones LETTERS
    bench = _bench()
    assert bench.REPEATS >= 9 and bench.SECONDS >= 2
    assert bench.more_calls(10**5, bench.REPEATS, [bench.SECONDS, 0.9 * bench.SECONDS])
    assert not bench.more_calls(10**5, bench.REPEATS, [bench.SECONDS, 3 * bench.SECONDS])
    assert bench.more_calls(10**6, 8, [100.0])
    assert not bench.more_calls(10**6, bench.REPEATS, [100.0])
    assert f"``REPEATS`` ({bench.REPEATS})" in bench.__doc__  # what --help says
    assert bench.more_calls(10**4, bench.LETTERS // 10**4 - 1, [100.0])
    assert not bench.more_calls(10**4, bench.LETTERS // 10**4, [bench.SECONDS])
    # a worker's time counts its reference loops: 2 ms calls beside a
    # 10 ms loop reach 2 s in 91 calls, not 1,000
    assert bench.spent([(0.002, 0.01)] * 91) == pytest.approx(2.002)
    assert bench.spread([1.0]) == 0 and bench.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(2 / 3)


def _bench_file(label, rows):
    return {"schema": "bench/5", "label": label, "rows": [
        {"row": name, "sizes": sizes, "us_per_letter": us, "slope": slope, **({"spread": wide} if wide else {})}
        for name, sizes, us, slope, wide in rows
    ]}


def test_bench_compare_reads_a_pair(tmp_path, capsys):
    # change/parent per row and size, slower or faster only past the larger
    # spread of the two files, and the change of slope
    parent = _bench_file("x-parent", [
        ("greedy", [10, 100], [2.0, 2.0], 1.0, [0.05, 0.05]),
        ("scan", [10, 100], [1.0, 1.0], 1.0, [0.05, 0.02]),
        ("gone", [10], [1.0], None, [0.0]),
        ("old", [10, 100], [1.0, 1.0], 1.0, None),
    ])
    change = _bench_file("x", [
        ("greedy", [10, 100], [1.5, 1.98], 1.1, [0.02, 0.04]),
        ("scan", [10, 100], [1.2, 1.03], 0.95, [0.1, 0.01]),
        ("new", [10], [1.0], None, [0.0]),
        ("old", [10, 100], [2.0, 1.0], 0.8, [0.0, 0.0]),
    ])
    bench = _bench()
    lines = [line.split() for line in bench.compare(parent, change)]
    assert lines[0] == ["row", "size", "parent", "change", "ratio", "spread", "verdict"]
    assert lines[1:] == [
        ["greedy", "10", "2.000", "1.500", "0.750", "0.050", "faster"],
        ["greedy", "100", "2.000", "1.980", "0.990", "0.050", "~"],
        ["greedy", "slope", "1.000", "1.100", "+0.100"],
        ["scan", "10", "1.000", "1.200", "1.200", "0.100", "slower"],
        ["scan", "100", "1.000", "1.030", "1.030", "0.020", "slower"],
        ["scan", "slope", "1.000", "0.950", "-0.050"],
        ["new", "only", "in", "x"],
        ["old", "10", "1.000", "2.000", "2.000", "-", "-"],
        ["old", "100", "1.000", "1.000", "1.000", "-", "-"],
        ["old", "slope", "1.000", "0.800", "-0.200"],
        ["gone", "only", "in", "x-parent"],
    ]
    (tmp_path / "a.json").write_text(json.dumps(parent))
    (tmp_path / "b.json").write_text(json.dumps(change))
    assert bench.main(["--compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 0
    assert capsys.readouterr().out.splitlines() == bench.compare(parent, change)


def test_bench_rows_times_only_the_rows_it_names(tmp_path, monkeypatch, capsys):
    # --rows PATTERN plans the rows whose name contains PATTERN, in their
    # order, and the file names the pattern; one that matches no row is a
    # usage error
    bench, plans = _bench(), []

    def measure(sources, plan):
        plans.append(plan)
        return [[bench.summary(name, sizes, [[(0.01, 0.01)]] * len(sizes)) for name, sizes in plan] for _ in sources]

    monkeypatch.setattr(bench, "measure", measure)
    assert bench.main(["--label", "x", "--rows", "401/400", "--out", str(tmp_path)]) == 0
    names = [name for name in bench.ROWS if "401/400" in name]
    assert len(names) == 5 and plans == [[(name, bench.ROWS[name][1]) for name in names]]
    report = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert [row["row"] for row in report["rows"]] == names and report["environment"]["rows_matching"] == "401/400"
    capsys.readouterr()
    with pytest.raises(SystemExit) as stop:
        bench.main(["--label", "x", "--rows", "no such row", "--out", str(tmp_path)])
    assert stop.value.code == 2 and "--rows 'no such row' matches no row" in capsys.readouterr().err
    assert len(plans) == 1


def test_bench_times_two_trees_call_by_call(tmp_path):
    # one worker per tree, each timing every call of the run; a worker
    # whose lexleast does not come from its tree is refused
    bench = _bench()
    first, second = bench.measure([ROOT / "src", ROOT / "src"], [("greedy w32 threshold", [3_000, 10_000])], repeats=2)
    for rows in (first, second):
        assert [(r["row"], r["sizes"], r["calls"]) for r in rows] == [("greedy w32 threshold", [3_000, 10_000], [2, 2])]
    with pytest.raises(RuntimeError, match="imported lexleast from"):
        bench.Worker(tmp_path)


def test_bench_runs_where_lexleast_cannot_be_imported():
    # only the workers import lexleast, each from its tree's src: the
    # script loads, shows its help and times a row in an interpreter that
    # cannot import the package, as in a checkout without it installed
    script = f"""
import runpy, sys
class NoLexleast:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "lexleast":
            raise ModuleNotFoundError(name)
sys.meta_path.insert(0, NoLexleast())
try:
    import lexleast
except ModuleNotFoundError:
    print("blocked")
bench = runpy.run_path({str(ROOT / "scripts" / "bench.py")!r})
(rows,) = bench["measure"]([bench["ROOT"] / "src"], [("generate closed json", [10_000])], repeats=1)
print(rows[0]["row"], rows[0]["calls"])
sys.argv = ["bench.py", "--help"]
runpy.run_path({str(ROOT / "scripts" / "bench.py")!r}, run_name="__main__")
"""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["blocked", "generate closed json [1]"]
    assert lines[2].startswith("usage: bench.py")


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
