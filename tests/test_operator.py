"""The sixth-order expression: forms, eigenvalues, eigenpolynomials."""

import math
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import krall6.operator as op
from krall6.concomitant import log_probe
from krall6.linalg import kernel_vector
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
    expanded_coefficients_of_factored,
    expansion_consistency_report,
    leading_coefficient_oracle,
    legendre_type,
    local_expression,
    power_stencil,
    quasi_derivatives,
)
from krall6.polynomials import Poly
from krall6.suites import seeded_polynomials

PARAM_PAIRS = [KrallParams(1, 1), KrallParams(1, 2), KrallParams(Fraction(3, 2), Fraction(5, 2))]
#: a small A and a pair with A = B < 1, for the solver tests
EXTRA_PAIRS = [KrallParams(Fraction(1, 100), 3), KrallParams(Fraction(2, 7), Fraction(2, 7))]
X = Poly.x()


def test_params_validate():
    with pytest.raises(ValueError, match="^A must be positive$"):
        KrallParams(0, 1)
    with pytest.raises(ValueError, match="^B must be positive$"):
        KrallParams(1, Fraction(-1, 2))
    p = KrallParams(Fraction(3, 2), Fraction(5, 2))
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


STENCIL_PAIRS = [
    KrallParams(1, 2),
    KrallParams(Fraction(1, 100), 3),
    KrallParams(Fraction(1, 3), Fraction(7, 2)),
    KrallParams(5, 5),
]


@pytest.mark.parametrize("center", (-1, 0, 1))
@pytest.mark.parametrize("params", STENCIL_PAIRS, ids=KrallParams.label)
def test_power_stencil_is_the_expression_at_every_centre(params, center):
    """A proof of the stencil at the centre, not a sample: each rho_shift has degree at most
    the order 6 in s, so agreement with `apply_expression` on (x - e)^s at s = 0..6, with
    rho_shift(s) = 0 wherever s + shift < 0, holds at every s, negative s included."""
    stencil = power_stencil(params, center)
    assert max(rho.degree for rho in stencil.values()) <= 6
    t = Poly([-center, 1])  # x - e
    for s in range(7):
        assert all(rho(s) == 0 for shift, rho in stencil.items() if s + shift < 0)
        image = sum((rho(s) * t ** (s + shift) for shift, rho in stencil.items() if s + shift >= 0), Poly())
        assert image == apply_expression(t**s, params)


def test_eigen_identity_batch():
    for params in PARAM_PAIRS + EXTRA_PAIRS:
        for n in range(25):
            k_n = eigen_polynomial(n, params)
            assert k_n.degree == n and k_n.leading_coefficient() == 1
            assert apply_expression(k_n, params) == eigenvalue(n, params) * k_n


def test_eigen_polynomial_matches_dense_reference():
    # the dense (n+1)^2 matrix of l - lambda_n on monomials, back-substituted; every
    # pivot lambda_m - lambda_n is negative, so the integer denominator changes sign
    for params in PARAM_PAIRS + EXTRA_PAIRS + [
        KrallParams(Fraction(1, 10**6), Fraction(10**6, 7)),
        KrallParams(Fraction(7, 3), Fraction(5, 11)),
    ]:
        stencil = power_stencil(params, 0)
        for n in range(40):
            lam = eigenvalue(n, params)
            mat = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
            for m in range(n + 1):
                for shift, rho in stencil.items():
                    if m + shift >= 0:
                        mat[m + shift][m] = rho(m) - (lam if shift == 0 else 0)
            assert eigen_polynomial(n, params) == Poly(kernel_vector(mat))


def test_kernel_within_p12_is_constants():
    params = KrallParams(1, 2)
    # the only monomial image that vanishes is the constant one
    assert apply_expression(Poly.one(), params).is_zero()
    for k in range(1, 13):
        assert eigenvalue(k, params) != 0
        assert not apply_expression(Poly.monomial(k), params).is_zero()


def test_degenerate_eigenvalues_detected(monkeypatch):
    # the recurrence's pivots are lambda_m - lambda_n
    params = KrallParams(1, 1)
    lambda_0 = eigenvalue(0, params)
    monkeypatch.setattr(op, "eigenvalue", lambda n, p: lambda_0)
    with pytest.raises(DegenerateEigenvalueError, match="lambda_0 = lambda_2"):
        eigen_polynomial.__wrapped__(2, params)
    # a lambda equal to no rho_0(m) leaves no eigenpolynomial: the pivot at n is nonzero
    monkeypatch.setattr(op, "eigenvalue", lambda n, p: Fraction(7))
    with pytest.raises(ValueError, match="no eigenpolynomial of degree 2: lambda = 7 is not rho_0"):
        eigen_polynomial.__wrapped__(2, params)


@pytest.mark.parametrize("index, entry", enumerate((eigen_polynomial, closed_form_polynomial, local_expression)))
def test_memoised_entry_points_take_only_int_keys(index, entry):
    # 2.0 and Fraction(2) equal 2, and True equals 1: a memo keyed by 1 and 2 would answer them
    params = KrallParams(Fraction(7, 11), Fraction(13, 5) + index)  # no other test's, so the memos start cold
    for n in (None, 1, 2):
        if n is not None:
            entry(n, params)
        for bad in (2.0, Fraction(2), True):
            with pytest.raises(TypeError, match="must be an int"):
                entry(bad, params)


@pytest.mark.parametrize("center", (-1, 1))
def test_continued_series_solves_the_shifted_equation_at_an_endpoint(center):
    # at +-1 the shift lands on the row d = pole, not on the upward pivot d = 0: t^3 continued to
    # t^23 with shift q lambda solves l[y] = lambda y through t^20, checked by `apply_expression`
    params, lam = KrallParams(1, 2), 7
    local = local_expression(center, params)
    C, E = local.continue_solution(range(4, 24), [1], [0], shift=local.scale * lam)
    assert not E and C.degree == 20
    y = Poly([-center, 1]) ** 3 * C.shift(-center)
    residual = (apply_expression(y, params) - lam * y).shift(center)
    assert residual.valuation() == 21


def test_cold_eigenpolynomials_fill_one_row_per_degree(monkeypatch):
    # K_0..K_32 read the centre-0 rows 0..32 only: a shifted row past n meets a zero window entry
    params = KrallParams(Fraction(1, 100), 3)
    fresh = op.LocalExpression(0, params)
    monkeypatch.setattr(op, "local_expression", lambda center, p: fresh)
    for n in range(33):
        assert eigen_polynomial.__wrapped__(n, params) == eigen_polynomial(n, params)
    assert sorted(fresh.table) == list(range(33))


def test_shared_row_tables_under_threads():
    # K_0..K_20 and a +1 basis from 8 threads on cold tables: each row is stored only once complete
    from krall6.frobenius import solution_basis

    params = KrallParams(Fraction(5, 13), Fraction(9, 4))
    expected = ([eigen_polynomial(n, params) for n in range(21)], solution_basis(1, 40, params))
    for memo in (eigen_polynomial, local_expression):
        memo.cache_clear()
    errors = []

    def worker(offset):
        try:
            for k in range(21):
                n = (k + offset) % 21
                assert eigen_polynomial(n, params) == expected[0][n]
            assert solution_basis(1, 40, params) == expected[1]
        except AssertionError as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert sorted(local_expression(0, params).table) == list(range(21))


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


def _closed_form_by_fractions(n, params, variant):
    """The closed-form coefficient sum evaluated literally on Fractions, term by
    term as displayed: the reference for the integer evaluation."""
    A, B = params.A, params.B
    n_f = Fraction(n)
    coeffs = [Fraction(0)] * (n + 1)
    for j in range(n + 1):
        even_weight = (
            Fraction(2 + (-1) ** j, 2) if not variant.startswith("even-selector") else Fraction(1 + (-1) ** j, 2)
        )
        odd_weight = Fraction(1 - (-1) ** j, 2)
        core = n_f**4 + (2 * A + 2 * B - 1) * n_f**2 + 4 * A * B
        j_term = 2 * j * (n_f**2 + n_f + A + B)
        if variant.endswith("sum-end"):
            q = even_weight * (core + j_term) + odd_weight * (4 * B - 4 * A)
        else:
            q = even_weight * core + j_term + odd_weight * (4 * B - 4 * A)
        sign = Fraction((-1) ** (j // 2))
        num = sign * math.factorial(2 * n - j) * q
        den = (
            Fraction(2) ** (n + 1)
            * math.factorial(n - ((j + 1) // 2))
            * math.factorial(j // 2)
            * math.factorial(n - j)
            * (n_f**2 + n_f + A + B)
        )
        coeffs[n - j] += num / den
    return Poly(coeffs)


@pytest.mark.parametrize(
    "params",
    [
        KrallParams(1, 2),
        KrallParams(Fraction(1, 3), Fraction(7, 2)),
        KrallParams(Fraction(1, 100), 3),
        KrallParams(5, 5),
        KrallParams(Fraction(7, 3), Fraction(5, 11)),
        KrallParams(Fraction(1, 10**6), Fraction(10**6, 7)),
    ],
    ids=KrallParams.label,
)
def test_closed_form_on_ints_matches_fraction_reference(params):
    for variant in CLOSED_FORM_VARIANTS:
        for n in range(25):
            got, want = closed_form_polynomial(n, params, variant), _closed_form_by_fractions(n, params, variant)
            assert (got._n, got._d) == (want._n, want._d), (n, variant)
    assert closed_form_polynomial(3, params, "sum-end") is closed_form_polynomial(3, params, "sum-end")
    with pytest.raises(ValueError, match="unknown closed-form variant"):
        closed_form_polynomial(3, params, "sum")
    with pytest.raises(ValueError, match="^n must be non-negative$"):  # not the zero polynomial
        closed_form_polynomial(-1, params)


def test_params_hash_by_value():
    assert hash(KrallParams(1, 2)) == hash((Fraction(1), Fraction(2)))
    assert hash(KrallParams(Fraction(2, 4), 3)) == hash(KrallParams(Fraction(1, 2), Fraction(6, 2)))
    assert KrallParams(Fraction(2, 4), 3) == KrallParams(Fraction(1, 2), Fraction(6, 2))
    assert {KrallParams(1, 2): 0}[KrallParams(Fraction(2, 2), 2)] == 0


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
    _, p, q = params.symmetric_coefficients()
    assert q == w**3
    assert p == w * (12 + params.alpha * w)
    twin = KrallParams(params.A, params.B)
    assert twin == params and hash(twin) == hash(params)
    assert repr(params) == f"KrallParams(A={params.A!r}, B={params.B!r})"


@pytest.mark.parametrize("apply", [apply_expression, apply_expression_factored])
def test_expression_reads_an_exact_scalar_as_a_constant(apply):
    params = KrallParams(1, 2)
    assert apply(3, params) == 0 and apply(Fraction(1, 2), params) == 0
    assert apply(Poly.x(), params) == apply_expression(Poly.x(), params)
    for bad in ("3", 1.5, None):
        with pytest.raises(TypeError):
            apply(bad, params)


# ---------------------------------------------------------------------------
# the hand-written sixth- and fourth-order forms, kept as references for the
# generic coefficient-tuple code
# ---------------------------------------------------------------------------

small_polys = st.lists(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)), max_size=9).map(Poly)
positive_rationals = st.builds(Fraction, st.integers(1, 40), st.integers(1, 12))


def printed_leading_coefficients(params):
    """{k: [x^k] b_k}, as printed with the expression."""
    A, B = params.A, params.B
    return {
        6: Fraction(1),
        5: Fraction(18),
        4: 3 * A + 3 * B + 96,
        3: 24 * A + 24 * B + 168,
        2: 12 * A * B + 42 * A + 42 * B + 72,
        1: 24 * A * B + 12 * A + 12 * B,
    }


def factored_reference(y, params):
    """-(Q y''')''' + (P y'')'' - (pi y')', one term per line."""
    pi, pp, q = params.symmetric_coefficients()
    term1 = (y.derivative(3) * q).derivative(3)
    term2 = (y.derivative(2) * pp).derivative(2)
    term3 = (y.derivative(1) * pi).derivative(1)
    return -term1 + term2 - term3


def leibniz_reference(params, pi):
    """(b6, ..., b1) of the factored form with the given pi, by the unrolled Leibniz rule."""
    _, p, q = params.symmetric_coefficients()
    # -(Q y''')''' = -(Q''' y''' + 3 Q'' y^(4) + 3 Q' y^(5) + Q y^(6))
    # (P y'')''   = P'' y'' + 2 P' y''' + P y^(4)
    # -(pi y')'   = -pi' y' - pi y''
    b6 = -q
    b5 = -3 * q.derivative()
    b4 = -3 * q.derivative(2) + p
    b3 = -q.derivative(3) + 2 * p.derivative()
    b2 = p.derivative(2) - pi
    b1 = -pi.derivative()
    return b6, b5, b4, b3, b2, b1


def legendre_type_reference(f, A):
    """(1-x^2)^2 y'''' + 8x(x^2-1)y''' + (4A+12)(x^2-1)y'' + 8Axy', written out."""
    w = Poly([1, 0, -1])
    x2m1 = -w
    return (
        w**2 * f.derivative(4)
        + 8 * X * x2m1 * f.derivative(3)
        + (4 * A + 12) * x2m1 * f.derivative(2)
        + 8 * A * X * f.derivative(1)
    )


def test_expression_leading_coefficients_are_the_printed_ones():
    for params in PARAM_PAIRS + EXTRA_PAIRS:
        coeffs = params.expression_coefficients()
        printed = printed_leading_coefficients(params)
        assert len(coeffs) == len(printed)
        for k, b in zip(range(6, 0, -1), coeffs):
            assert b.degree <= k and b[k] == printed[k]


def test_oracle_is_the_top_coefficient_of_the_monomial_image():
    for params in PARAM_PAIRS + EXTRA_PAIRS:
        printed = printed_leading_coefficients(params)
        for n in range(41):
            image = apply_expression(Poly.monomial(n), params)
            assert leading_coefficient_oracle(n, params) == image[n]
            assert image[n] == sum(lead * math.perm(n, k) for k, lead in printed.items())


@given(small_polys, st.sampled_from(PARAM_PAIRS + EXTRA_PAIRS))
@settings(max_examples=40, deadline=None)
def test_factored_form_equals_its_three_term_reference(y, params):
    assert apply_expression_factored(y, params) == factored_reference(y, params)


def test_factored_form_equals_its_reference_on_log_probes():
    for params in PARAM_PAIRS + EXTRA_PAIRS:
        for e in (-1, 1):
            probe = log_probe(e, params)
            assert apply_expression_factored(probe, params) == factored_reference(probe, params)


@given(positive_rationals, positive_rationals)
@settings(max_examples=30, deadline=None)
def test_leibniz_expansion_equals_the_unrolled_lines(a, b):
    params = KrallParams(a, b)
    corrected = leibniz_reference(params, params.symmetric_coefficients()[0])
    assert expanded_coefficients_of_factored(params) == corrected == params.expression_coefficients()
    variant = leibniz_reference(params, params.pi_poly_sign_variant())
    assert expanded_coefficients_of_factored(params, "sign-variant") == variant


def test_pi_and_its_sign_variant_are_the_printed_ones():
    for params in PARAM_PAIRS + EXTRA_PAIRS:
        A, B = params.A, params.B
        constant, linear = 12 * A * B + 18 * A + 18 * B + 24, 12 * A - 12 * B
        assert params.symmetric_coefficients()[0] == Poly([constant, linear, -6 * A - 6 * B - 12 * A * B])
        assert params.pi_poly_sign_variant() == Poly([constant, linear, 6 * A - 6 * B - 12 * A * B])


@given(small_polys, positive_rationals)
@settings(max_examples=40, deadline=None)
def test_legendre_type_equals_its_written_out_sum(f, a):
    assert apply_legendre_type(f, a) == legendre_type_reference(f, a)


# ---------------------------------------------------------------------------
# the quasi-derivative chain at order four
# ---------------------------------------------------------------------------

LEGENDRE_A = [Fraction(5), Fraction(2, 7), Fraction(3, 2)]


def legendre_type_symmetric(A):
    """(p_1, p_2) of (p_2 y'')'' - (p_1 y')' = apply_legendre_type: (8 + 4A(1-x^2), (1-x^2)^2)."""
    w = Poly([1, 0, -1])
    return Poly([8]) + 4 * A * w, w**2


@pytest.mark.parametrize("a", LEGENDRE_A)
def test_fourth_order_chain_gives_the_legendre_type_expression(a):
    symmetric = legendre_type_symmetric(a)
    for y in seeded_polynomials(5, 12):
        chain = quasi_derivatives(symmetric, y)
        assert len(chain) == 2
        assert chain[-1].derivative() == apply_legendre_type(y, a)


@pytest.mark.parametrize("a", LEGENDRE_A)
def test_fourth_order_chain_satisfies_greens_formula(a):
    """integral(l f g - f l g) = sum_{j<2} (-1)^j (f^[3-j] g^(j) - g^[3-j] f^(j)) from -1 to 1."""
    symmetric = legendre_type_symmetric(a)

    def bracket(f, g, e):
        fc, gc = quasi_derivatives(symmetric, f), quasi_derivatives(symmetric, g)
        return sum(
            (-1) ** j * (fc[-1 - j](e) * g.derivative(j)(e) - gc[-1 - j](e) * f.derivative(j)(e)) for j in range(2)
        )

    polys = seeded_polynomials(9, 12)
    lhs_values = []
    for f, g in zip(polys[::2], polys[1::2]):
        lf, lg = apply_legendre_type(f, a), apply_legendre_type(g, a)
        lhs_values.append(lf.integrate_product(g) - f.integrate_product(lg))
        assert lhs_values[-1] == bracket(f, g, 1) - bracket(f, g, -1)
    assert any(lhs_values)  # the boundary form is not identically zero on these pairs
