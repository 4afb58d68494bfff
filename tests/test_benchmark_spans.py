"""Every per-layer span of the benchmark tracer still names a krall6 function.

The tracer in `perfbench/tracing.py` wraps functions by module and attribute
path and records a missing target as zero calls, so a renamed or deleted
function would silently zero its metric.  This test resolves every target
the same way, without installing the tracer.
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACING = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"))


@pytest.mark.parametrize("name, module, path", [span[:3] for span in TRACING["SPANS"]])
def test_span_target_resolves(name, module, path):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), name


def test_every_traced_suite_is_a_builder():
    from krall6.suites import SUITE_BUILDERS

    assert set(TRACING["SUITE_NAMES"]) <= set(SUITE_BUILDERS)
