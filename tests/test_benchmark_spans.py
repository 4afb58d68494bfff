"""Every per-layer span of the benchmark tracer still names a krall6 function.

The tracer in `perfbench/tracing.py` wraps functions by module and attribute
path and records a missing target as zero calls, so a renamed or deleted
function would silently zero its metric.  This test resolves every target
the same way, without installing the tracer.  Resolving a target does not
show that its hook still reads the arguments it expects, so each benchmark
workload is also run once under the tracer, as `perfbench/child.py` runs it.
"""

import importlib
import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = runpy.run_path(str(ROOT / "perfbench" / "tracing.py"))
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name, module, path", [span[:3] for span in TRACING["SPANS"]])
def test_span_target_resolves(name, module, path):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), name


def test_every_traced_suite_is_a_builder():
    from krall6.suites import SUITE_BUILDERS

    assert set(TRACING["SUITE_NAMES"]) <= set(SUITE_BUILDERS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_passes(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"),
         "--workload", workload, "--seed", "1", "--mode", "trace"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failures"] == []
    assert result["untraced_spans"] == []
    layers = result["layers"]
    if workload in ("verify-all", "endpoint-log"):
        assert layers["germs.LogGerm.derivative.calls"] > 0
    if workload == "verify-all":
        # a builder that returned before its cases ran would read about 0 s here
        for name in TRACING["SUITE_NAMES"]:
            assert layers[f"suites.{name}.calls"] == 1, name
        assert layers["suites.overlap_ratio"] >= 0.9
