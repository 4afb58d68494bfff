"""The value classes: equality, hash, repr, immutability, copy and pickle by
declared fields, for every class in krall6, and an import of the CLI that loads
no code generator."""

import copy
import importlib
import pickle
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import krall6
from krall6.concomitant import log_probe
from krall6.extension import IndependenceCertificate
from krall6.frobenius import SeriesSolution, series_solution
from krall6.germs import LogGerm
from krall6.inner_products import ExtendedVector
from krall6.operator import KrallParams, LocalExpression
from krall6.polynomials import Poly, RationalFn
from krall6.report import Case, Report
from krall6.suites import RunConfig
from krall6.values import Value

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


def test_config_and_report_contract():
    config = RunConfig()
    assert (config.A, config.B, config.nmax, config.series_order, config.suites, config.seed) == (
        Fraction(1), Fraction(1), 8, 20, ("all",), 987
    )
    assert config.params == KrallParams(1, 1)
    assert repr(config) == (
        "RunConfig(A=Fraction(1, 1), B=Fraction(1, 1), nmax=8, series_order=20, suites=('all',), seed=987)"
    )
    assert RunConfig(nmax=3) == RunConfig(nmax=3) != config
    assert RunConfig(seed=1) != config and hash(RunConfig(seed=1)) == hash(RunConfig(seed=1))
    for field, value in (("seed", 1), ("A", Fraction(5)), ("params", KrallParams(5, 2)), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(config, field, value)
    assert config == RunConfig() and config.params == KrallParams(1, 1)
    assert RunConfig(A=5, B=2).params == KrallParams(5, 2)

    case = Case("a", "item", "1", "1", "pass")
    first, second = Report("eigen", P, [case]), Report("eigen", P, iter([case]))
    assert first.cases == (case,) and type(second.cases) is tuple
    assert first == second and hash(first) == hash(second)
    assert Report("eigen", P) != first
    assert repr(Report("eigen", P)) == (
        "Report(suite='eigen', params=KrallParams(A=Fraction(1, 1), B=Fraction(2, 1)), cases=())"
    )
    for field, value in (("cases", ()), ("suite", "gram")):
        with pytest.raises(AttributeError):
            setattr(first, field, value)
    assert not hasattr(first, "add") and not hasattr(first, "extend")


#: one instance of every value class, by class name
INSTANCES = {
    "Poly": lambda: Poly([Fraction(1, 2), 0, -3]),
    "RationalFn": lambda: RationalFn(Poly([1, 2]), Poly([1, 0, -1])),
    "LogGerm": lambda: LogGerm.from_log_poly(Poly([1, 0, -1]), 1).derivative(3),
    "EndpointFn": lambda: log_probe(-1, P) + Poly.x(),
    "KrallParams": lambda: KrallParams(Fraction(1, 3), Fraction(7, 2)),
    "LocalExpression": lambda: LocalExpression(-1, P),
    "ExtendedVector": lambda: ExtendedVector(log_probe(1, P), 1, "1/3"),
    "IndependenceCertificate": lambda: IndependenceCertificate(((1, 2), (3, 4)), Fraction(-2), True),
    "SeriesSolution": lambda: series_solution(1, "phi-2", 12, P),
    "Case": lambda: Case("eigen:n=00", "item", "1", "1", "pass", "w"),
    "Report": lambda: Report("eigen", P, [Case("a", "item", "1", "2", "fail")]),
    "RunConfig": lambda: RunConfig(A=Fraction(1, 3), B=Fraction(7, 2), nmax=4, suites=("eigen", "gram"), seed=3),
}


def _krall6_classes():
    """Every class defined in a krall6 module (`__main__` runs the CLI on import)."""
    for info in pkgutil.iter_modules(krall6.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"krall6.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                yield obj


def test_one_value_contract_for_every_class():
    classes = set(_krall6_classes())
    slotted = {cls for cls in classes if "__slots__" in vars(cls) and not issubclass(cls, BaseException)}
    assert {cls for cls in slotted if not issubclass(cls, Value)} == set()
    assert [cls.__name__ for cls in classes if "__setattr__" in vars(cls)] == ["Value"]
    values = {cls.__name__ for cls in classes if issubclass(cls, Value) and cls is not Value}
    assert values == set(INSTANCES)


@pytest.mark.parametrize("name", INSTANCES)
def test_every_value_copies_and_pickles(name):
    value = INSTANCES[name]()
    assert type(value).__name__ == name
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value and value == twin
        assert hash(twin) == hash(value)


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
