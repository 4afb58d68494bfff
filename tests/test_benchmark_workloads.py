"""Every benchmark workload passes its own known-answer checks.

Each workload of `perfbench/workloads.py` is prepared at seed 1, executed
in-process and checked, so a change that the benchmark would reject as
incorrect output fails here in seconds.  Nothing under `perfbench/` is
changed.
"""

import importlib
import threading
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
    """In `run all` at seed 1 and the endpoint-log workload at seed 1, the germ lines
    (`_concomitant_lines`) are built only for pairs whose bracket diverges, and no
    LogGerm x LogGerm product is made outside them: every convergent bracket limit,
    reductions included, is read off principal parts."""
    from krall6 import cli, concomitant, germs

    calls, products, inside = [], [], threading.local()
    lines, multiply = concomitant._concomitant_lines, germs.LogGerm.__mul__

    def recorded_lines(fg, gg, params):
        calls.append((fg, gg, params))
        inside.depth = getattr(inside, "depth", 0) + 1
        try:
            return lines(fg, gg, params)
        finally:
            inside.depth -= 1

    def recorded_multiply(a, b):
        if isinstance(b, germs.LogGerm) and not getattr(inside, "depth", 0):
            products.append((a, b))
        return multiply(a, b)

    monkeypatch.setattr(concomitant, "_concomitant_lines", recorded_lines)
    monkeypatch.setattr(germs.LogGerm, "__mul__", recorded_multiply)
    assert cli.main(["run", "all", "--A", "1", "--B", "2", "--nmax", "8", "--seed", "1"]) == 0
    assert '"failed": 0' in capsys.readouterr().out
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = importlib.import_module("workloads").WORKLOADS["endpoint-log"]
    inputs = workload.prepare(1)
    workload.execute(inputs)
    monkeypatch.undo()
    assert products == []
    for fg, gg, params in calls:
        built = lines(fg, gg, params)
        assert not sum(built[1:], built[0]).has_limit()
