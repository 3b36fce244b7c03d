"""The benchmark tracer in ``perfbench/tracing.py`` wraps package names by
string; installing it here makes renaming or deleting one of them fail the
main suite, not only ``python -m pytest perfbench``."""

import importlib.util
import sys
from pathlib import Path

import pytest

# the tracer rebinds names only in modules already imported, so import them
# all before installing it (the CLI imports the checks only to run one)
import lexleast.checks  # noqa: F401
import lexleast.cli  # noqa: F401
from lexleast import AvoidanceMode, Exponent, GreedyState

ROOT = Path(__file__).resolve().parent.parent


def _tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while the class is built
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_installs_over_every_target(monkeypatch):
    tracing = _tracing(monkeypatch)
    with tracing.Tracer().installed():
        wrapped = set(tracing.installed_wrappers())
        for target in tracing.TARGETS:
            assert f"lexleast.{target.module}.{target.attr}" in wrapped, target
    assert tracing.installed_wrappers() == []


@pytest.mark.parametrize("mode", list(AvoidanceMode), ids=lambda mode: mode.value)
def test_greedy_steps_are_traced_as_detector_queries(monkeypatch, mode):
    # greedy's step calls the traced name of its mode once per letter, so
    # 50 steps are 50 detect.query calls; extend_to makes one call of the
    # same name for all its letters, and no step
    tracing = _tracing(monkeypatch)
    with tracing.Tracer().installed() as tracer:
        state = GreedyState(Exponent(3, 2), mode)
        for _ in range(50):
            state.step()
    assert tracer.calls["detect.query"] == 50
    assert tracer.calls["greedy.step"] == 50
    with tracing.Tracer().installed() as tracer:
        GreedyState(Exponent(3, 2), mode).extend_to(50)
    assert tracer.calls["detect.query"] == 1
    assert tracer.calls["greedy.step"] == 0
