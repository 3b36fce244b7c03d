"""The benchmark tracer in ``perfbench/tracing.py`` wraps package names by
string; installing it here makes renaming or deleting one of them fail the
main suite, not only ``python -m pytest perfbench``."""

import importlib.util
import sys
from pathlib import Path

# the tracer rebinds names only in modules already imported, so import them
# all before installing it (the CLI imports the checks only to run one)
import lexleast.checks  # noqa: F401
import lexleast.cli  # noqa: F401

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_over_every_target(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while the class is built
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    with tracing.Tracer().installed():
        wrapped = set(tracing.installed_wrappers())
        for target in tracing.TARGETS:
            assert f"lexleast.{target.module}.{target.attr}" in wrapped, target
    assert tracing.installed_wrappers() == []
