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
    memos = (germs._derivative, germs._principal, concomitant._germ_chain, concomitant._endpoint_values,
             concomitant._poly_records)
    for memo in memos:
        memo.cache_clear()
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = importlib.import_module("workloads").WORKLOADS["endpoint-log"]
    inputs = workload.prepare(1)
    failures, info = workload.check(inputs, workload.execute(inputs))
    assert failures == [] and info["cases"] > 0
    assert cli.main(["run", "all", "--A", "1", "--B", "2", "--nmax", "3"]) == 0
    assert '"failed": 0' in capsys.readouterr().out


#: sha256 of the endpoint-log verdicts at seed 1 (291 checks): every bracket among its
#: 16 log-bearing and piecewise inputs, its log-probe reductions and certificate, by value.
ENDPOINT_LOG_SEED_1_SHA256 = "8fa692717ecd6daefbb05316ec0ed858d810efbad206227efc2e2c4e707fa3b5"


def test_endpoint_log_verdicts_are_pinned(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = importlib.import_module("workloads").WORKLOADS["endpoint-log"]
    inputs = workload.prepare(1)
    failures, info = workload.check(inputs, workload.execute(inputs))
    assert failures == []
    assert info == {"digest": ENDPOINT_LOG_SEED_1_SHA256, "cases": 291}


def test_convergent_brackets_build_no_germ_lines(monkeypatch, capsys):
    """In `run all` at seed 1 and the endpoint-log workload at seed 1, no LogGerm x LogGerm
    product is made: every bracket limit, reductions and divergent pairs included, is read
    off principal parts by `germs.product_limit`, which also names the diverging lines."""
    from krall6 import cli, concomitant, germs
    from krall6.polynomials import Poly

    products, divergent = [], []
    multiply, kernel = germs.LogGerm.__mul__, germs.product_limit

    def recorded_multiply(a, b):
        if isinstance(b, germs.LogGerm):
            products.append((a, b))
        return multiply(a, b)

    def recorded_kernel(factors):
        try:
            return kernel(factors)
        except germs.DivergentLimitError:
            divergent.append(factors)
            raise

    monkeypatch.setattr(germs.LogGerm, "__mul__", recorded_multiply)
    monkeypatch.setattr(germs, "product_limit", recorded_kernel)
    monkeypatch.setattr(concomitant, "product_limit", recorded_kernel)
    assert cli.main(["run", "all", "--A", "1", "--B", "2", "--nmax", "8", "--seed", "1"]) == 0
    assert '"failed": 0' in capsys.readouterr().out
    assert divergent  # the out-of-class witness
    del divergent[:]
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = importlib.import_module("workloads").WORKLOADS["endpoint-log"]
    inputs = workload.prepare(1)
    workload.execute(inputs)
    # neither run brackets a divergent pair, so the concomitant suite's out-of-class input,
    # a bare logarithm near +1, is bracketed here against every endpoint-log function
    bare_log = germs.EndpointFn(germs.LogGerm.zero(-1), germs.LogGerm.from_log_poly(Poly.one(), 1))
    for g in inputs["functions"]:
        try:
            concomitant.concomitant(bare_log, g, 1, inputs["params"])
        except germs.DivergentLimitError:
            pass
    monkeypatch.undo()
    assert products == []
    assert any(len(factors) == 6 for factors in divergent)  # divergent brackets took the kernel
