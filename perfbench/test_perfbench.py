"""Tests of the benchmark itself, on small inputs.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
import tracing
import workloads

BATTERY = {
    "b_window": {"n_max": 40, "r_max": 10},
    "b_inequality": {"s_max": 10, "j_max": 10},
    "ell_claim": {"n_max": 60},
    "eq6_intervals": {"n_max": 60},
}


def small_jobs(workload: str, seed: int, workdir: Path) -> list[workloads.Job]:
    if workload == "greedy":
        return workloads.build_greedy(seed, n=400)
    if workload == "scan":
        return workloads.build_scan(seed, workdir, sizes=(200, 400), minimality=100, structure=400)
    return workloads.build_stream(seed, n=3_000, lookups=300, battery=BATTERY)


def values(result: run.Pass) -> dict:
    """Job outputs, with check reports reduced to their timing-free form."""
    return {
        name: out.value.to_dict() if hasattr(out.value, "to_dict") else out.value
        for name, out in result.outcomes.items()
    }


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_pass_installs_no_wrapper(workload, tmp_path):
    jobs = small_jobs(workload, 1, tmp_path)
    result = run.run_pass(jobs)
    assert result.failed == []
    assert tracing.installed_wrappers() == []


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_pass_matches_untraced_and_restores(workload, tmp_path):
    jobs = small_jobs(workload, 2, tmp_path)
    plain = run.run_pass(jobs)
    tracer = tracing.Tracer()
    traced = run.run_pass(jobs, tracer=tracer)
    assert plain.failed == traced.failed == []
    assert values(traced) == values(plain)
    assert tracer.calls  # the wrappers did see the calls
    assert tracing.installed_wrappers() == []


def test_wrappers_are_in_place_inside_the_block_and_restored_on_error():
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert "lexleast.cli.main" in tracing.installed_wrappers()
            assert "lexleast.detect.LceIndex.append" in tracing.installed_wrappers()
            assert "lexleast.cli._CLOSED[(3, 2, <AvoidanceMode.THRESHOLD: 'threshold'>)]" in (
                tracing.installed_wrappers()
            )
            raise RuntimeError("boom")
    assert tracing.installed_wrappers() == []


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_one_seed_gives_the_same_inputs(workload, tmp_path):
    def inputs(seed: int, sub: str):
        workdir = tmp_path / sub
        workdir.mkdir()
        jobs = small_jobs(workload, seed, workdir)
        files = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
        return [(job.name, job.letters, job.lookups) for job in jobs], files, values(run.run_pass(jobs))

    assert inputs(5, "a") == inputs(5, "b")
    if workload != "greedy":  # greedy words depend on the seed through their length only
        assert inputs(5, "c") != inputs(6, "d")


def test_self_time_on_a_synthetic_span_tree():
    ticks = iter([0.0, 1.0, 1.5, 2.0, 3.0, 4.0, 7.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    tracer.enter("job", span=True)  # 0
    tracer.enter("cli.main", span=True)  # 1
    tracer.enter("detect.query")  # 1.5
    tracer.exit()  # 2.0
    tracer.exit()  # 3.0
    tracer.enter("detect.query")  # 4.0
    tracer.exit()  # 7.0
    tracer.exit()  # 10.0
    assert tracer.calls["detect.query"] == 2
    assert tracer.total_s["detect.query"] == pytest.approx(3.5)
    assert tracer.self_s["cli.main"] == pytest.approx(2.0 - 0.5)
    assert tracer.self_s["job"] == pytest.approx(10.0 - 2.0 - 3.0)
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["job"].parent is None
    assert by_name["cli.main"].parent == by_name["job"].id
    assert by_name["cli.main"].self_s == pytest.approx(1.5)
    assert by_name["job"].self_s == pytest.approx(5.0)


def _flip(outcome: workloads.Outcome, index: int) -> workloads.Outcome:
    value = list(outcome.value)
    value[index] = value[index] + 1
    return workloads.Outcome(value)


def test_a_wrong_output_is_counted_as_a_failure(tmp_path):
    jobs = small_jobs("greedy", 1, tmp_path)
    good = jobs[0].run()
    assert jobs[0].check(good, {})
    assert not jobs[0].check(_flip(good, 17), {})

    broken = workloads.Job("broken", lambda: _flip(good, 3), jobs[0].check, letters=400)
    result = run.run_pass([jobs[1], broken])
    assert result.failed == ["broken"]


def test_scan_checks_reject_wrong_verdicts(tmp_path):
    jobs = {job.name: job for job in small_jobs("scan", 3, tmp_path)}
    clean, mutated = jobs["scan-w32-400"], jobs["scan-w32-400-mutated"]
    assert clean.check(clean.run(), {})
    assert not clean.check(workloads.Outcome((1, "forbidden start=0 period=1 length=2\n")), {})
    out = mutated.run()
    assert mutated.check(out, {})
    code, text = out.value
    start = int(text.split()[1].split("=")[1])
    shifted = text.replace(f"start={start}", f"start={start - 1}")
    assert not mutated.check(workloads.Outcome((code, shifted)), {})
    assert not mutated.check(workloads.Outcome((0, "clean\n")), {})


def test_stream_checks_compare_the_two_routes(tmp_path):
    jobs = small_jobs("stream", 4, tmp_path)
    result = run.run_pass(jobs)
    assert result.failed == []
    outcomes = dict(result.outcomes)
    code, letters, digest, opening = outcomes["w32-morphism"].value
    outcomes["w32-morphism"] = workloads.Outcome((code, letters, "0" * 32, opening))
    by_name = {job.name: job for job in jobs}
    assert not by_name["w32-closed"].check(outcomes["w32-closed"], outcomes)
    lookups = outcomes["lookups"]
    wrong = bytearray(lookups.value)
    wrong[1] += 1
    assert not by_name["lookups"].check(workloads.Outcome(wrong), outcomes)


def test_traced_run_reports_every_declared_metric(tmp_path):
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    for workload in run.WORKLOADS:
        jobs = small_jobs(workload, 1, tmp_path)
        untraced = [run.run_pass(jobs), run.run_pass(jobs)]
        tracer = tracing.Tracer()
        traced = run.run_pass(jobs, tracer=tracer)
        layers = run.per_layer(jobs, tracer, traced, untraced, 0.0)
        assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
            (name, unit) for name, (_, unit) in layers.items()
        ]
        ends = run.end_to_end(jobs, untraced, 0.25, 1 << 20)
        assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
            (name, unit) for name, (_, unit) in ends.items()
        ]
        if workload == "stream":
            assert layers["detect.query.calls"][0] == 0
        else:
            assert layers["detect.query.calls"][0] > 0


def test_times_are_scaled_by_the_reference_next_to_them(tmp_path):
    assert run.scaled(2.0, 2 * run.REFERENCE_S) == pytest.approx(1.0)
    assert run.scaled(0.3, run.REFERENCE_S / 2) == pytest.approx(0.6)
    jobs = small_jobs("greedy", 1, tmp_path)
    result = run.run_pass(jobs)
    assert set(result.reference) == {job.name for job in jobs}
    assert all(r > 0 for r in result.reference.values())
    # a pass on a machine twice as slow, job and reference alike, scales to the same wall_s
    slow = run.Pass(
        seconds={name: 2 * s for name, s in result.seconds.items()},
        reference={name: 2 * r for name, r in result.reference.items()},
        outcomes=result.outcomes,
    )
    wall = run.end_to_end(jobs, [result], 0.2, 1)["wall_s"][0]
    assert run.end_to_end(jobs, [slow], 0.2, 1)["wall_s"][0] == pytest.approx(wall)
