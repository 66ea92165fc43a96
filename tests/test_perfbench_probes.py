"""Every per-layer probe of the benchmark names a function that exists.

The benchmark wraps program names at their import sites; a renamed or
deleted name would otherwise only show up as a missing metric in a traced
benchmark run.  The probe table is read from the source, so the benchmark
module is neither imported nor run, and no probe is installed.
"""

import ast
import importlib
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _probe_targets() -> list[str]:
    for node in ast.parse(LAYERS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["PROBES"]:
            # each entry is (span name, "module:attribute path", value extractor)
            return sorted({entry.elts[1].value for entry in node.value.elts})
    raise AssertionError(f"no PROBES table in {LAYERS}")


@pytest.mark.parametrize("target", _probe_targets())
def test_probe_target_resolves(target):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
