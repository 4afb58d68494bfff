"""The sixth-order expression: forms, eigenvalues, eigenpolynomials."""

from fractions import Fraction

import pytest

import krall6.operator as op
from krall6.concomitant import log_probe
from krall6.operator import (
    CLOSED_FORM_VARIANTS,
    DegenerateEigenvalueError,
    KrallParams,
    apply_expression,
    apply_expression_factored,
    apply_legendre_type,
    closed_form_comparison,
    closed_form_polynomial,
    eigen_polynomial,
    eigenvalue,
    eigenvalue_shifted_factor_variant,
    expansion_consistency_report,
    leading_coefficient_oracle,
    legendre_type,
    power_stencil,
)
from krall6.polynomials import Poly

PARAM_PAIRS = [KrallParams(1, 1), KrallParams(1, 2), KrallParams(Fraction(3, 2), Fraction(5, 2))]
#: a small A and a pair with A = B < 1, for the solver tests
EXTRA_PAIRS = [KrallParams(Fraction(1, 100), 3), KrallParams(Fraction(2, 7), Fraction(2, 7))]
X = Poly.x()


def test_params_validate():
    with pytest.raises(ValueError):
        KrallParams(0, 1)
    with pytest.raises(ValueError):
        KrallParams(1, Fraction(-1, 2))
    p = KrallParams.parse("3/2", "5/2")
    assert p.alpha == 3 * Fraction(3, 2) + 3 * Fraction(5, 2) + 6


def test_apply_on_constants_vanishes():
    for params in PARAM_PAIRS:
        assert apply_expression(Poly([5]), params).is_zero()


def test_apply_on_x():
    params = KrallParams(1, 1)
    assert apply_expression(X, params) == Poly([0, 48])
    params = KrallParams(1, 2)
    A, B = params.A, params.B
    assert apply_expression(X, params) == Poly([12 * B - 12 * A, 24 * A * B + 12 * A + 12 * B])


def test_apply_on_x_squared():
    assert apply_expression(X * X, KrallParams(1, 1)) == Poly([-288, 0, 432])


def test_factored_form_agrees_on_polynomials_and_log_probes():
    for params in PARAM_PAIRS:
        for k in range(13):
            p = Poly.monomial(k)
            assert apply_expression(p, params) == apply_expression_factored(p, params)
        for e in (-1, 1):
            probe = log_probe(e, params)
            assert apply_expression(probe, params) == apply_expression_factored(probe, params)


def test_sign_variant_breaks_equivalence():
    params = KrallParams(1, 2)
    report = expansion_consistency_report(params)
    assert all(report["corrected"]["matches"].values())
    assert report["sign-variant"]["matches"][1] is False
    assert report["sign-variant"]["matches"][2] is False
    assert all(report["sign-variant"]["matches"][k] for k in (6, 5, 4, 3))
    # the y' line differs by -24Ax: variant gives (24AB+12B-12A)x + ...
    assert report["sign-variant"]["diffs"][1] == "0,-24"


def test_eigenvalue_examples():
    assert eigenvalue(0, KrallParams(1, 1)) == 0
    assert eigenvalue(1, KrallParams(1, 1)) == 48
    assert eigenvalue(2, KrallParams(1, 1)) == 432
    assert eigenvalue(1, KrallParams(1, 2)) == 84


def test_eigenvalue_oracle_up_to_20():
    for params in PARAM_PAIRS:
        for n in range(21):
            assert eigenvalue(n, params) == leading_coefficient_oracle(n, params)


def test_shifted_factor_variant_fails_oracle_at_1():
    for params in PARAM_PAIRS:
        assert eigenvalue_shifted_factor_variant(1, params) == 0
        assert leading_coefficient_oracle(1, params) != 0


def test_kernel_polynomial_examples():
    assert eigen_polynomial(0, KrallParams(1, 1)) == Poly.one()
    assert eigen_polynomial(1, KrallParams(1, 2)) == Poly([Fraction(1, 7), 1])
    assert eigen_polynomial(1, KrallParams(2, 2)) == X
    with pytest.raises(ValueError, match="n must be non-negative"):
        eigen_polynomial(-1, KrallParams(1, 2))


def test_power_stencil_at_zero_is_the_monomial_action():
    for params in PARAM_PAIRS + EXTRA_PAIRS:
        stencil = power_stencil(params, 0)
        assert set(stencil) <= set(range(-6, 1))
        for m in range(21):
            image = sum(
                (Poly.monomial(m + shift, rho(m)) for shift, rho in stencil.items() if m + shift >= 0),
                Poly(),
            )
            assert image == apply_expression(Poly.monomial(m), params)
            assert stencil[0](m) == eigenvalue(m, params)


def test_eigen_identity_batch():
    for params in PARAM_PAIRS + EXTRA_PAIRS:
        for n in range(25):
            k_n = eigen_polynomial(n, params)
            assert k_n.degree == n and k_n.leading_coefficient() == 1
            assert apply_expression(k_n, params) == eigenvalue(n, params) * k_n


def test_kernel_within_p12_is_constants():
    params = KrallParams(1, 2)
    # the only monomial image that vanishes is the constant one
    assert apply_expression(Poly.one(), params).is_zero()
    for k in range(1, 13):
        assert eigenvalue(k, params) != 0
        assert not apply_expression(Poly.monomial(k), params).is_zero()


def test_degenerate_eigenvalues_detected(monkeypatch):
    # the diagonal of the back-substitution holds lambda_m - lambda_n
    params = KrallParams(1, 1)
    lambda_0 = eigenvalue(0, params)
    monkeypatch.setattr(op, "eigenvalue", lambda n, p: lambda_0)
    with pytest.raises(DegenerateEigenvalueError, match="lambda_0 = lambda_2"):
        eigen_polynomial.__wrapped__(2, params)
    # a lambda on no diagonal entry leaves no kernel: kernel_vector refuses it
    monkeypatch.setattr(op, "eigenvalue", lambda n, p: Fraction(7))
    with pytest.raises(ValueError, match="0 zero diagonal entries"):
        eigen_polynomial.__wrapped__(2, params)


def test_closed_form_variant_n0():
    params = KrallParams(1, 2)
    A, B = params.A, params.B
    got = closed_form_polynomial(0, params, "sum-end")
    assert got == Poly([3 * A * B / (A + B)])
    for variant in CLOSED_FORM_VARIANTS:
        assert not closed_form_polynomial(0, params, variant).is_zero()


def test_closed_form_comparison_outcomes():
    for params in PARAM_PAIRS[:2]:
        for n in range(9):
            outcome = closed_form_comparison(n, params)
            if n == 0:
                assert all(r["matches"] for r in outcome.values())
            else:
                assert not outcome["sum-end"]["matches"]
                assert not outcome["before-j-term"]["matches"]
                assert outcome["even-selector-sum-end"]["matches"]


def test_legendre_type():
    p0, mu0 = legendre_type(0, 1)
    assert mu0 == 0 and p0.degree == 0
    p1, mu1 = legendre_type(1, Fraction(3, 2))
    assert mu1 == 8 * Fraction(3, 2)
    assert apply_legendre_type(X, Fraction(3, 2)) == 8 * Fraction(3, 2) * X
    for n in range(7):
        for a in (Fraction(1), Fraction(3, 2)):
            p, mu = legendre_type(n, a)
            assert p.degree == n
            assert apply_legendre_type(p, a) == mu * p
    with pytest.raises(ValueError, match="n must be non-negative"):
        legendre_type(-1, 1)


def test_degree_preservation():
    params = KrallParams(1, 2)
    for k in range(1, 13):
        image = apply_expression(Poly.monomial(k), params)
        assert image.degree == k  # eigenvalues are nonzero here


@pytest.mark.parametrize("params", [KrallParams(1, 2), KrallParams(Fraction(1, 3), Fraction(7, 2))])
def test_q_and_p_polynomials(params):
    w = Poly([1, 0, -1])
    assert params.q_poly() == w**3
    assert params.p_poly() == w * (12 + params.alpha * w)
    twin = KrallParams(params.A, params.B)
    assert twin == params and hash(twin) == hash(params)
    assert repr(params) == f"KrallParams(A={params.A!r}, B={params.B!r})"
