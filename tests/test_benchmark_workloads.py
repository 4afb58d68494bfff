"""Every benchmark workload passes its own known-answer checks.

Each workload of `perfbench/workloads.py` is prepared at seed 1, executed
in-process and checked, so a change that the benchmark would reject as
incorrect output fails here in seconds.  Nothing under `perfbench/` is
changed.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_workload_passes_its_checks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    assert workloads.WORKLOADS
    for name, workload in workloads.WORKLOADS.items():
        inputs = workload.prepare(1)
        failures, info = workload.check(inputs, workload.execute(inputs))
        assert failures == [], name
        assert info["cases"] > 0, name
