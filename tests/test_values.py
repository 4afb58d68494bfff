"""The value classes: equality, hash, repr and immutability by declared fields,
and an import of the CLI that loads no code generator."""

import copy
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from krall6.extension import IndependenceCertificate
from krall6.frobenius import SeriesSolution, series_solution
from krall6.inner_products import ExtendedVector
from krall6.operator import KrallParams, LocalExpression
from krall6.polynomials import Poly
from krall6.report import Case, Report
from krall6.suites import RunConfig

P = KrallParams(1, 2)

#: (make, the fields as repr shows them, a value that differs) per frozen class;
#: `make()` builds a fresh instance, equal by value to every other it builds
FROZEN = {
    "KrallParams": (
        lambda: KrallParams("2/4", 3),
        "KrallParams(A=Fraction(1, 2), B=Fraction(3, 1))",
        KrallParams(Fraction(1, 2), 4),
    ),
    "LocalExpression": (
        lambda: LocalExpression(1, KrallParams(1, 2)),
        "LocalExpression(center=1, params=KrallParams(A=Fraction(1, 1), B=Fraction(2, 1)))",
        LocalExpression(-1, P),
    ),
    "ExtendedVector": (
        lambda: ExtendedVector(Poly.x(), 1, "1/3"),
        "ExtendedVector(fn=Poly(1*x), a=Fraction(1, 1), b=Fraction(1, 3))",
        ExtendedVector(Poly.x(), 1, 0),
    ),
    "IndependenceCertificate": (
        lambda: IndependenceCertificate(((1, 2), (3, 4)), Fraction(-2), True),
        "IndependenceCertificate(matrix=((1, 2), (3, 4)), det=Fraction(-2, 1), conclusive=True)",
        IndependenceCertificate(((1, 2), (2, 4)), Fraction(0), False),
    ),
    "SeriesSolution": (
        lambda: SeriesSolution(1, 3, "phi-3", 12, (Poly([1, 2]), Poly())),
        "SeriesSolution(endpoint=1, exponent=3, label='phi-3', order=12, levels=(Poly(1 + 2*x), Poly(0)))",
        series_solution(1, "phi-3", 12, P),
    ),
    "Case": (
        lambda: Case("eigen:n=00", "item", "1", "1", "pass"),
        "Case(name='eigen:n=00', paper_item='item', lhs='1', rhs='1', verdict='pass', witness=None)",
        Case("eigen:n=00", "item", "1", "1", "pass", "w"),
    ),
}


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_value_contract(name):
    make, text, other = FROZEN[name]
    value, twin = make(), make()
    assert value is not twin
    assert value == twin and hash(value) == hash(twin)
    assert value != other and type(value).__name__ == name
    assert repr(value) == text
    assert copy.copy(value) == value
    field = text[len(name) + 1:].split("=")[0]  # the first field
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(other, field))
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == twin


def test_params_cache_is_outside_equality():
    params = KrallParams(Fraction(2, 4), 3)
    assert params == KrallParams(Fraction(1, 2), 3) and hash(params) == hash((Fraction(1, 2), Fraction(3)))
    assert params.symmetric_coefficients() is params.symmetric_coefficients()
    assert params != (Fraction(1, 2), Fraction(3))


def test_mutable_value_contract():
    config = RunConfig()
    assert (config.A, config.B, config.nmax, config.series_order, config.suites, config.seed) == (
        Fraction(1), Fraction(1), 8, 20, ("all",), 987
    )
    assert config.params == KrallParams(1, 1)
    assert repr(config) == (
        "RunConfig(A=Fraction(1, 1), B=Fraction(1, 1), nmax=8, series_order=20, suites=('all',), seed=987)"
    )
    assert RunConfig(nmax=3) == RunConfig(nmax=3) != config
    config.seed = 1
    assert config == RunConfig(seed=1)

    first, second = Report("eigen", P), Report("eigen", P)
    assert first.cases == [] and first.cases is not second.cases
    first.add(Case("a", "item", "1", "1", "pass"))
    assert second.cases == [] and first != second
    assert repr(second) == "Report(suite='eigen', params=KrallParams(A=Fraction(1, 1), B=Fraction(2, 1)), cases=[])"
    second.cases = list(first.cases)
    assert first == second
    for value in (config, first):
        with pytest.raises(TypeError):
            hash(value)


def test_series_derivative_is_termwise():
    sol = series_solution(1, "phi-2", 12, P)
    r, (C, E) = sol.exponent, sol.levels
    assert E  # phi-2 carries a log level
    # d/dt t^r (C + E ln|t|) = t^(r-1) (sum ((r+m) c_m + e_m) t^m + sum (r+m) e_m t^m ln|t|)
    scaled = [Poly([(r + m) * c for m, c in enumerate(level.coeffs)]) for level in (C, E)]
    d = sol.derivative()
    assert (d.endpoint, d.exponent, d.label, d.order) == (1, r - 1, "phi-2", 12)
    assert d.levels == (scaled[0] + E, scaled[1])
    assert sol.exponent == r and sol.levels == (C, E)


def test_cli_import_loads_no_code_generator():
    src = Path(__file__).resolve().parents[1] / "src"
    unwanted = ("dataclasses", "inspect", "ast", "dis", "typing")
    script = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import krall6.cli; "
        f"print(sorted(m for m in {unwanted!r} if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
