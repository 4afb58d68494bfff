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


def test_germ_layer_never_runs_euclid(monkeypatch, capsys):
    """`poly_gcd` and `Poly.divmod` are the tests' reference route only.

    With both made to raise and the germ memos empty, the endpoint-log
    workload and `run all --nmax 3` still pass, so every germ coefficient
    stays in the q / (1-x^2)^j form without Euclid's algorithm.
    """
    from krall6 import cli, concomitant, germs, polynomials

    def euclid(*args):
        raise RuntimeError("Euclid's algorithm ran in library code")

    monkeypatch.setattr(polynomials, "poly_gcd", euclid)
    monkeypatch.setattr(polynomials.Poly, "divmod", euclid)
    for memo in (germs._derivative, concomitant._germ_chain, concomitant._endpoint_values, concomitant._poly_records):
        memo.cache_clear()
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = importlib.import_module("workloads").WORKLOADS["endpoint-log"]
    inputs = workload.prepare(1)
    failures, info = workload.check(inputs, workload.execute(inputs))
    assert failures == [] and info["cases"] > 0
    assert cli.main(["run", "all", "--A", "1", "--B", "2", "--nmax", "3"]) == 0
    assert '"failed": 0' in capsys.readouterr().out
