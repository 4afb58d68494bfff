"""Frobenius analysis: indicial structure, series, classification."""

from fractions import Fraction

import pytest

from krall6.frobenius import (
    LocalExpression,
    ObstructionUnexpectedError,
    SOLUTION_LABELS,
    _SOLUTIONS,
    corrupted,
    deficiency_index,
    is_square_integrable,
    l2_classification,
    residual_order,
    solution_basis,
)
from krall6.operator import KrallParams, power_stencil
from krall6.polynomials import Poly

PARAM_PAIRS = [KrallParams(1, 1), KrallParams(1, 2), KrallParams(Fraction(3, 2), Fraction(5, 2))]


@pytest.mark.parametrize("endpoint", (-1, 1))
@pytest.mark.parametrize("params", PARAM_PAIRS)
def test_indicial_roots_computed(endpoint, params):
    local = LocalExpression(endpoint, params)
    assert local.indicial_roots() == [3, 2, 1, 1, 0, -1]
    rho0 = local.indicial_polynomial()
    # computed from the local coefficients: +-8 (s-3)(s-2)(s-1)^2 s (s+1)
    expected = Poly.one()
    for root in (3, 2, 1, 1, 0, -1):
        expected = expected * Poly([-root, 1])
    assert rho0 == 8 * endpoint * expected
    assert rho0(3) == 0 and rho0(4) != 0


def test_indicial_polynomial_is_parameter_free():
    a = LocalExpression(1, KrallParams(1, 1)).indicial_polynomial()
    b = LocalExpression(1, KrallParams(Fraction(3, 2), Fraction(5, 2))).indicial_polynomial()
    assert a == b


@pytest.fixture(scope="module")
def basis_plus():
    return solution_basis(1, 20, KrallParams(1, 2))


def test_basis_structure(basis_plus):
    assert [s.label for s in basis_plus] == list(SOLUTION_LABELS)
    assert [s.leading_exponent() for s in basis_plus] == [3, 2, 1, 1, 0, -1]
    assert [s.log_degree() for s in basis_plus] == [0, 1, 0, 1, 1, 1]


def test_leading_normalization(basis_plus):
    by = {s.label: s for s in basis_plus}
    assert by["phi-3"].coefficient(0, 0) == 1
    assert by["phi-2"].coefficient(0, 0) == 1
    assert by["phi-1"].coefficient(0, 0) == 1
    assert by["phi-hat-1"].coefficient(0, 0) == 1
    assert by["phi-hat-1"].coefficient(0, 1) == 3
    assert by["phi-0"].coefficient(0, 0) == 1
    assert by["phi-minus-1"].coefficient(0, 0) == 1


def test_log_offsets_discovered(basis_plus):
    by = {s.label: s for s in basis_plus}
    # forced zero log coefficients at the leading offset
    assert by["phi-2"].coefficient(0, 1) == 0
    assert by["phi-2"].coefficient(1, 1) != 0
    assert by["phi-0"].coefficient(0, 1) == 0
    assert by["phi-minus-1"].coefficient(0, 1) == 0
    assert by["phi-minus-1"].coefficient(1, 1) != 0


def test_forced_log_values(basis_plus):
    """Spot values forced by the recurrence (B = 2 at the +1 endpoint)."""
    by = {s.label: s for s in basis_plus}
    B = Fraction(2)
    A = Fraction(1)
    assert by["phi-2"].coefficient(1, 1) == -B / 8
    assert by["phi-minus-1"].coefficient(1, 1) == -B
    assert by["phi-1"].coefficient(1, 0) == -(A + 1) / 2


def test_hat_log_part_is_three_times_pure(basis_plus):
    by = {s.label: s for s in basis_plus}
    hat_log = by["phi-hat-1"].level_coefficients(1)
    pure = by["phi-1"].level_coefficients(0)
    for m in range(21):
        assert hat_log.get(m, Fraction(0)) == 3 * pure.get(m, Fraction(0))


def test_residual_orders(basis_plus):
    params = KrallParams(1, 2)
    for sol in basis_plus:
        order = residual_order(sol, params)
        assert order is None or order >= 14
    bad = corrupted(basis_plus[0])
    assert residual_order(bad, params) < 14


def test_zero_series_residual_is_infinite():
    from krall6.frobenius import SeriesSolution

    params = KrallParams(1, 1)
    empty = SeriesSolution(endpoint=1, exponent=0, label="zero", order=12, terms={})
    assert residual_order(empty, params) is None
    # the exponent-0 canonical solution minus its log admixture is the
    # constant, which solves exactly; spot-check residual on one-term series
    constant = SeriesSolution(endpoint=1, exponent=0, label="const", order=12, terms={(0, 0): Fraction(1)})
    assert residual_order(constant, params) is None


def test_l2_classification_and_deficiency():
    for params in PARAM_PAIRS:
        for endpoint in (-1, 1):
            cls = l2_classification(solution_basis(endpoint, 12, params))
            assert cls["count"] == 5
            assert cls["flags"]["phi-minus-1"] is False
            assert all(cls["flags"][lab] for lab in SOLUTION_LABELS if lab != "phi-minus-1")
        assert deficiency_index(params) == 4


def test_frobenius_suite_builds_each_basis_once(monkeypatch):
    from krall6 import frobenius as fro
    from krall6.suites import RunConfig, suite_frobenius

    calls = []
    real = fro.solution_basis

    def counting(endpoint, order, params):
        calls.append(endpoint)
        return real(endpoint, order, params)

    def rebuilding(*args, **kwargs):
        raise AssertionError("the suite already holds both bases")

    monkeypatch.setattr(fro, "solution_basis", counting)
    monkeypatch.setattr(fro, "deficiency_index", rebuilding)
    cases = {c.name: c for c in suite_frobenius(RunConfig(A=1, B=2)).cases}
    assert calls == [-1, 1]
    assert (cases["deficiency-index"].lhs, cases["deficiency-index"].verdict) == ("4", "pass")


def test_one_power_stencil_per_endpoint():
    # parameters no other test uses, so the memo starts without this pair
    params = KrallParams(Fraction(7, 11), Fraction(13, 5))
    misses = power_stencil.cache_info().misses
    bases = [solution_basis(1, 12, params) for _ in range(2)]
    for sol in bases[0]:
        residual_order(sol, params)
    assert power_stencil.cache_info().misses - misses == 1
    stencil = power_stencil(params, 1)
    with pytest.raises(TypeError):
        stencil[0] = Poly()
    local = LocalExpression(1, params)
    assert list(local.stencil) == sorted(local.stencil)
    assert local.dstencil == {d: rho.derivative() for d, rho in local.stencil.items()}


def test_derivative_classification(basis_plus):
    by = {s.label: s for s in basis_plus}
    assert is_square_integrable(by["phi-hat-1"], 2) is False
    assert is_square_integrable(by["phi-3"], 2) is True
    assert is_square_integrable(by["phi-1"], 1) is True
    with pytest.raises(ValueError):
        is_square_integrable(by["phi-3"], 4)


def test_minus_endpoint_mirror():
    params = KrallParams(1, 2)
    basis = solution_basis(-1, 14, params)
    assert [s.leading_exponent() for s in basis] == [3, 2, 1, 1, 0, -1]
    assert [s.log_degree() for s in basis] == [0, 1, 0, 1, 1, 1]
    by = {s.label: s for s in basis}
    # mirror symmetry swaps the roles of A and B (and flips odd offsets' sign)
    assert by["phi-2"].coefficient(1, 1) == params.A / 8
    assert by["phi-1"].coefficient(1, 0) == (params.B + 1) / 2
    assert by["phi-minus-1"].coefficient(1, 1) == params.A


def test_series_dump_format(basis_plus):
    text = basis_plus[3].format_series()
    lines = text.splitlines()
    assert lines[0] == "endpoint +1; exponent 1; log-degree 1; order 20; label phi-hat-1"
    assert "(0, 0) 1" in lines and "(0, 1) 3" in lines


def test_truncation_order_validation():
    with pytest.raises(ValueError):
        solution_basis(1, 8, KrallParams(1, 1))


@pytest.mark.parametrize("endpoint", (-1, 1))
@pytest.mark.parametrize(
    "params",
    PARAM_PAIRS + [KrallParams(Fraction(1, 100), 3), KrallParams(Fraction(2, 7), Fraction(2, 7))],
)
def test_truncation_is_consistent(endpoint, params):
    # a longer truncation only appends terms: the parameters settle at the
    # last resonance, so no coefficient up to order 12 may depend on N
    for short, long in zip(solution_basis(endpoint, 12, params), solution_basis(endpoint, 40, params)):
        assert short.label == long.label
        assert short.terms == {key: c for key, c in long.terms.items() if key[0] <= 12}


def test_unsatisfiable_shape_is_an_obstruction(monkeypatch):
    # an impossible canonicalization target (a log coefficient on the pure
    # exponent-3 solution) must surface as the typed obstruction, never be
    # absorbed silently
    import krall6.frobenius as fro_mod

    broken = dict(fro_mod._SOLUTIONS)
    broken["phi-3"] = (3, False, (((0, 0), 1), ((0, 1), 5)))
    monkeypatch.setattr(fro_mod, "_SOLUTIONS", broken)
    with pytest.raises(ObstructionUnexpectedError):
        solution_basis(1, 12, KrallParams(1, 1))


@pytest.mark.parametrize("endpoint", (-1, 1))
@pytest.mark.parametrize("params", PARAM_PAIRS)
def test_solutions_meet_their_targets(endpoint, params):
    for sol in solution_basis(endpoint, 12, params):
        exponent, has_log, targets = _SOLUTIONS[sol.label]
        assert sol.exponent == exponent
        for (m, level), value in targets:
            assert sol.coefficient(m, level) == value
        assert (sol.log_degree() == 0) == (not has_log)


def test_square_integrability_rule(basis_plus):
    # leading exponent >= 0 is the whole story for integer exponents
    for sol in basis_plus:
        assert is_square_integrable(sol) == (sol.leading_exponent() >= 0)
