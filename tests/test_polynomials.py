"""Exact polynomial and rational-function algebra."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krall6.polynomials import (
    Poly,
    RationalFn,
    format_rational,
    parse_rational,
    poly_gcd,
)

rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 8))
polys = st.lists(rationals, min_size=0, max_size=11).map(Poly)
nonzero_rationals = rationals.filter(lambda c: c != 0)


def test_construction_strips_trailing_zeros():
    assert Poly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
    assert Poly([0, 0]).is_zero()
    assert Poly().degree is None
    assert Poly([0, 0, 5]).degree == 2


def test_parse_and_format_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert format_rational(Fraction(-3, 4)) == "-3/4"
    assert format_rational(Fraction(8, 2)) == "4"
    with pytest.raises(ValueError):
        parse_rational("1/-2")
    for bad in ("abc", "0.5", "1/x", "1/2/3", "1/", ""):
        with pytest.raises(ValueError, match="p/q"):
            parse_rational(bad)


def test_poly_text_roundtrip():
    p = Poly([0, 0, 1])
    assert p.format_coeffs() == "0,0,1"
    assert Poly.parse("0,0,1") == p
    assert Poly.parse("1/2,-3") == Poly([Fraction(1, 2), -3])
    assert Poly().format_coeffs() == "0"


def test_derivative_power_rule():
    # derive(x^3, 2) -> 6x
    assert Poly.monomial(3).derivative(2) == Poly([0, 6])
    assert Poly([5]).derivative() == Poly()


def test_eval_at_double_root():
    w2 = Poly([1, 0, -1]) ** 2
    assert w2(1) == 0
    assert w2(Fraction(1, 2)) == Fraction(9, 16)


def test_difference_of_squares():
    assert Poly([1, 0, -1]) * Poly([1, 0, 1]) == Poly([1, 0, 0, 0, -1])


def test_integral_examples():
    assert Poly([1]).integrate_unit_interval() == 2
    assert Poly.x().integrate_unit_interval() == 0
    assert Poly.monomial(2).integrate_unit_interval() == Fraction(2, 3)


@pytest.mark.parametrize("m", range(11))
def test_integral_even_powers(m):
    assert Poly.monomial(2 * m).integrate_unit_interval() == Fraction(2, 2 * m + 1)


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_product_rule(p, q):
    lhs = (p * q).derivative()
    rhs = p.derivative() * q + p * q.derivative()
    assert lhs == rhs


@given(polys, polys, rationals)
@settings(max_examples=60, deadline=None)
def test_integration_linearity(p, q, c):
    lhs = (p + q * c).integrate_unit_interval()
    rhs = p.integrate_unit_interval() + c * q.integrate_unit_interval()
    assert lhs == rhs


@given(polys, polys)
@settings(max_examples=40, deadline=None)
def test_divmod_reconstructs(p, q):
    if q.is_zero():
        return
    quot, rem = p.divmod(q)
    assert quot * q + rem == p
    assert rem.is_zero() or rem.degree < q.degree


def test_compose():
    p = Poly([0, 0, 1])  # x^2 composed with (x+1) -> (x+1)^2
    assert p.compose(Poly([1, 1])) == Poly([1, 2, 1])


def test_split_root_examples():
    p = Poly([1, 0, -1]) ** 3 * Poly([0, 1])
    assert p.split_root(1)[0] == 3
    assert p.split_root(-1)[0] == 3
    assert p.split_root(0) == (1, Poly([1, 0, -1]) ** 3, 1)
    assert p.split_root(2) == (0, p, p(2))
    _, q, value = p.split_root(1)
    assert value == q(1) == -8  # q = -(x + 1)^3 x
    assert q.split_root(1) == (0, q, q(1))
    assert Poly([-1, 1]) ** 3 * q == p
    for c in (1, -1, 0, 2):
        _, q, value = p.split_root(c)
        assert value == q(c) != 0
    with pytest.raises(ValueError):
        Poly().split_root(0)


def test_monomial_rejects_negative_power():
    assert Poly.monomial(0, 5) == Poly([5])
    with pytest.raises(ValueError):
        Poly.monomial(-2)


def _without_root(p, c):
    while p(c) == 0:
        p = p.divmod(Poly([-c, 1]))[0]
    return p


@given(st.integers(0, 5), polys.filter(lambda q: not q.is_zero()), st.integers(-3, 3))
@settings(max_examples=80, deadline=None)
def test_split_root_recovers_a_known_multiplicity(m, q, c):
    q = _without_root(q, c)  # so the multiplicity is exactly m
    p = Poly([-c, 1]) ** m * q
    got_m, got_q, value = p.split_root(c)
    assert (got_m, got_q) == (m, q)
    assert Poly([-c, 1]) ** got_m * got_q == p
    assert value == got_q(c) != 0


def test_gcd_monic_and_divides():
    w = Poly([1, 0, -1])
    a = w * Poly([2, 2])
    b = w * Poly([0, 6])
    g = poly_gcd(a, b)
    assert g.leading_coefficient() == 1
    assert g == w.monic()  # common factor 1-x^2, normalized monic
    assert a.divmod(g)[1].is_zero() and b.divmod(g)[1].is_zero()


def test_rationalfn_normal_form():
    r = RationalFn(Poly([0, 2, 2]), Poly([0, 0, 4]))  # (2x+2x^2)/(4x^2) = (1+x)/(2x)
    assert r.num == Poly([Fraction(1, 2), Fraction(1, 2)])
    assert r.den == Poly([0, 1])
    assert r.den.leading_coefficient() == 1


def test_rationalfn_arithmetic_and_derivative():
    one_over = RationalFn(Poly([1]), Poly([0, 1]))
    assert one_over + one_over == RationalFn(Poly([2]), Poly([0, 1]))
    # d/dx (1/x) = -1/x^2
    assert one_over.derivative() == RationalFn(Poly([-1]), Poly([0, 0, 1]))


def test_rationalfn_leading_at_examples():
    w = Poly([1, 0, -1])
    r = RationalFn(w**2, w)  # 1 - x^2 = (x - 1)(-1 - x)
    assert r.leading_at(1) == (1, -2)  # a zero of order 1: the value there is 0
    s = RationalFn(Poly([0, 1]), w)  # x / (1 - x^2) has a simple pole at 1
    assert s.leading_at(1) == (-1, Fraction(-1, 2))
    assert s.leading_at(0) == (1, 1)
    assert RationalFn(Poly([3, 1]), w).leading_at(2) == (0, Fraction(-5, 3))
    with pytest.raises(ValueError):
        RationalFn(Poly()).leading_at(1)


@given(
    st.integers(0, 4),
    st.integers(0, 4),
    polys.filter(lambda q: not q.is_zero()),
    nonzero_rationals,
    st.sampled_from([-1, 1]),
)
@settings(max_examples=80, deadline=None)
def test_leading_at_reads_off_valuation_and_leading_coefficient(j, k, a, c, e):
    # r = (x - e)^j a / (c w^k), a(e) != 0: a constant denominator when k = 0,
    # a w-power one otherwise.  Near e, w = (x - e)(-2e + O(x - e)).
    a = _without_root(a, e)
    w = Poly([1, 0, -1])
    r = RationalFn(Poly([-e, 1]) ** j * a, c * w**k)
    assert r.leading_at(e) == (j - k, a(e) / (c * (-2 * e) ** k))


def euclid_normal_form(num, den):
    """Reference normal form: divide out the Euclidean gcd, then make den monic."""
    if num.is_zero():
        return Poly(), Poly([1])
    g = poly_gcd(num, den)
    num, den = num.divmod(g)[0], den.divmod(g)[0]
    lead = den.leading_coefficient()
    return num * (1 / lead), den * (1 / lead)



@given(polys, nonzero_rationals)
@settings(max_examples=60, deadline=None)
def test_constant_denominator_matches_euclid_normal_form(p, c):
    r = RationalFn(p, Poly([c]))
    assert (r.num, r.den) == euclid_normal_form(p, Poly([c]))


@pytest.mark.parametrize("c", [1, -1, 3, Fraction(-2, 7)])
def test_constant_denominator_examples(c):
    p = Poly([1, Fraction(1, 2), -3])
    r = RationalFn(p, Poly([c]))
    assert (r.num, r.den) == euclid_normal_form(p, Poly([c]))
    assert r.is_polynomial()


@given(polys, polys)
@settings(max_examples=40, deadline=None)
def test_polynomial_fast_paths_match_general_formulas(p, q):
    one = Poly([1])
    rp, rq = RationalFn(p), RationalFn(q)
    s, m, d = rp + rq, rp * rq, rp.derivative()
    assert (s.num, s.den) == euclid_normal_form(p * one + q * one, one * one)
    assert (m.num, m.den) == euclid_normal_form(p * q, one * one)
    assert (d.num, d.den) == euclid_normal_form(p.derivative() * one - p * one.derivative(), one * one)
