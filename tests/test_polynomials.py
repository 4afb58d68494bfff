"""Exact polynomial and rational-function algebra."""

import math
import operator
import subprocess
import sys
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from krall6.inner_products import ExtendedVector
from krall6.operator import KrallParams
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
W = Poly([1, 0, -1])  # w = 1 - x^2


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
    for bad in ("abc", "0.5", "1/x", "1/2/3", "1/", "", "1_0", "\uff11", "\u0663/\u0664", " 3/ 4", "+3/+4"):
        with pytest.raises(ValueError, match="p/q"):
            parse_rational(bad)
    # constructors read text through parse_rational too, so they accept what the CLI accepts
    assert KrallParams("2/4", "1/3") == KrallParams(Fraction(1, 2), Fraction(1, 3))
    assert Poly(["2/4", "-1/3"]) == Poly([Fraction(1, 2), Fraction(-1, 3)])
    for make in (lambda: KrallParams("1.5", 2), lambda: Poly(["1e3"]), lambda: ExtendedVector(Poly.x(), 1, "1_0")):
        with pytest.raises(ValueError, match="p/q"):
            make()


def unlimited_str(n: int) -> str:
    """str(n) with the int-to-str digit limit (where the interpreter has one) lifted."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        return str(n)
    old = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        return str(n)
    finally:
        set_limit(old)


def test_format_rational_at_any_size():
    sevens = 7 * (10**6000 - 1) // 9  # 6,000 sevens, coprime to 10
    assert format_rational(Fraction(-sevens, 10**5000)) == "-" + "7" * 6000 + "/1" + "0" * 5000
    # interior zeros fill whole pieces
    assert format_rational(Fraction(10**5000 + 7, 3)) == "1" + "0" * 4999 + "7/3"
    p = Poly([Fraction(sevens, 10**5000), 10**5000 + 7])
    assert p.format_coeffs() == "7" * 6000 + "/1" + "0" * 5000 + ",1" + "0" * 4999 + "7"
    for n in (10**512 - 1, 10**512, -(10**512), 10**5120, 3**12000, -(3**10500) * 10**700 + 1):
        assert format_rational(n) == unlimited_str(n)
        f = Fraction(n, 7**6000 + 2)
        assert format_rational(f) == f"{unlimited_str(f.numerator)}/{unlimited_str(f.denominator)}"


@pytest.mark.parametrize("sign", (1, -1))
def test_parse_rational_reads_back_any_size(sign):
    big = 10**5000 + 1  # 5,001 digits, past the default int-to-str limit of 4,300
    sevens = 7 * (10**5000 - 1) // 9  # 5,000 sevens
    for value in (
        Fraction(sign * big, 3),
        Fraction(sign * 3, big),
        Fraction(sign * sevens, big),
        Fraction(sign * big),
        Fraction(sign * (10**5120 + 7), 7**6000 + 2),
    ):
        text = format_rational(value)
        assert parse_rational(text) == value
        assert parse_rational("  " + text + "\n") == value
    assert parse_rational("+" + "0" * 4999 + "12/" + "0" * 5000 + "4") == 3
    with pytest.raises(ValueError, match="p/q"):
        parse_rational(format_rational(Fraction(sign * big, 3)) + "_0")
    with pytest.raises(ValueError, match="positive"):
        parse_rational(format_rational(sign * big) + "/" + "0" * 5000)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str limit")
def test_parse_rational_reads_back_any_size_at_the_least_limit():
    script = (
        "import sys; from fractions import Fraction; import krall6; "
        "v = Fraction(-(10**5000 + 1), 3 * 10**700 + 1); "
        "assert krall6.parse_rational(krall6.format_rational(v)) == v; "
        "assert sys.get_int_max_str_digits() == 640"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=640", "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str limit")
def test_import_leaves_the_int_str_limit_alone():
    # the least limit Python accepts; rendering must still work and the limit stay put
    script = (
        "import sys; from fractions import Fraction; import krall6, krall6.cli; "
        "assert sys.get_int_max_str_digits() == 640; "
        "assert krall6.format_rational(Fraction(10**5000 + 7, 3)) == '1' + '0' * 4999 + '7/3'; "
        "assert sys.get_int_max_str_digits() == 640"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=640", "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_poly_text_roundtrip():
    p = Poly([0, 0, 1])
    assert p.format_coeffs() == "0,0,1"
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
@example(Poly(), Poly([3]))
@example(Poly([Fraction(-5, 2)]), Poly([Fraction(4, 3)]))
@example(Poly([Fraction(1, 3), 0, Fraction(-7, 6)]), Poly([Fraction(2, 5), Fraction(3, 7), 0, Fraction(1, 8)]))
@settings(max_examples=100, deadline=None)
def test_moment_kernel_matches_the_product_route(p, q):
    # the integral of p q from q's moment vector, with no product built
    product = (p * q).integrate_unit_interval()
    assert p.integrate_product(q) == product == q.integrate_product(p)
    assert p.integrate_against(q.moments((p.degree or 0) + 4)) == product
    nu, den = q.moments(4)
    assert [Fraction(v, den) for v in nu] == [(q * Poly.monomial(k)).integrate_unit_interval() for k in range(4)]


@given(polys, polys)
@settings(max_examples=40, deadline=None)
def test_divmod_reconstructs(p, q):
    if q.is_zero():
        return
    quot, rem = p.divmod(q)
    assert quot * q + rem == p
    assert rem.is_zero() or rem.degree < q.degree


def test_shift():
    p = Poly([0, 0, 1])  # x^2 shifted by 1 -> (x+1)^2
    assert p.shift(1) == Poly([1, 2, 1])
    assert p.shift(0) == p and Poly().shift(3) == Poly()


def taylor_lead(p, c):
    """(m, t_m) for the first nonzero Taylor coefficient of p at c: p = (x - c)^m q, t_m = q(c)."""
    return next((m, Fraction(t, p._d)) for m, t in enumerate(p.taylor(c)) if t)


def test_taylor_examples():
    p = Poly([1, 0, -1]) ** 3 * Poly([0, 1])  # (1 - x)^3 (1 + x)^3 x
    assert taylor_lead(p, 1) == (3, -8)  # q = -(x + 1)^3 x
    assert taylor_lead(p, -1) == (3, -8)  # q = (1 - x)^3 x
    assert taylor_lead(p, 0) == (1, 1)
    assert taylor_lead(p, 2) == (0, p(2))
    assert list(Poly([Fraction(1, 2), 3]).taylor(1)) == [7, 6]  # numerators over the denominator 2
    assert list(Poly().taylor(0)) == []


@pytest.mark.parametrize("point", (True, 1.0, Fraction(1), "1"), ids=repr)
def test_taylor_point_must_be_an_int(point):
    # each but "1" equals 1, so a non-int point would pass for the int it equals
    p = Poly([1, 2, 3])
    with pytest.raises(TypeError, match="must be an int"):
        list(p.taylor(point))
    with pytest.raises(TypeError, match="must be an int"):
        p.shift(point)


@given(polys, st.integers(-4, 4))
@settings(max_examples=80, deadline=None)
def test_taylor_coefficients_are_scaled_derivatives(p, c):
    ts = list(p.taylor(c))
    assert len(ts) == len(p.coeffs) and all(type(t) is int for t in ts)
    for m, t in enumerate(ts):
        assert Fraction(t, p._d) == p.derivative(m)(c) / math.factorial(m)
    assert p.shift(c).shift(-c) == p
    assert p.shift(c) == sum((a * Poly([c, 1]) ** i for i, a in enumerate(p.coeffs)), Poly())


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
def test_taylor_recovers_a_known_multiplicity(m, q, c):
    q = _without_root(q, c)  # so the multiplicity is exactly m
    p = Poly([-c, 1]) ** m * q
    ts = list(p.taylor(c))
    assert taylor_lead(p, c) == (m, q(c))
    # the cofactor q(x + c) is sum_{i >= m} t_i x^(i - m)
    assert (Poly(ts[m:]) * Fraction(1, p._d)).shift(-c) == q


def test_gcd_monic_and_divides():
    w = Poly([1, 0, -1])
    a = w * Poly([2, 2])
    b = w * Poly([0, 6])
    g = poly_gcd(a, b)
    assert g.leading_coefficient() == 1
    assert g == w.monic()  # common factor 1-x^2, normalized monic
    assert a.divmod(g)[1].is_zero() and b.divmod(g)[1].is_zero()


def test_rationalfn_normal_form():
    # (2+2x)(1-x) / (4(1-x)^3) = (2+2x)(1-x)(1+x)^3 / (4 w^3) = (1+x)^3 / (2 w^2), w = 1-x^2
    num, den = Poly([2, 2]) * Poly([1, -1]), Poly([1, -1]) ** 3 * 4
    r = RationalFn(num * Poly([1, 1]) ** 3 * Fraction(1, 4), 3)
    assert (r.q, r.j) == (Poly([1, 1]) ** 3 * Fraction(1, 2), 2)
    assert r.den == W**2
    assert euclid_normal_form(num, den) == (Poly([Fraction(1, 2), Fraction(1, 2)]), Poly([1, -2, 1]))
    assert_matches_euclid(r, num, den)


@given(polys, st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_make_divides_out_every_factor_of_w(p, i, m, j, k):
    # q has roots of random multiplicity at +-1, so some factors of w already divide it
    q = p * Poly([-1, 1]) ** i * Poly([1, 1]) ** m
    w = Poly([1, 0, -1])
    value, reduced = RationalFn._make(q * w**k, j + k), RationalFn._make(q, j)
    assert (value.q, value.j) == (reduced.q, reduced.j)
    assert value.j == 0 or value.q(1) != 0 or value.q(-1) != 0
    assert value.q * w ** (j + k - value.j) == q * w**k


def test_constructors_read_an_exact_scalar_as_a_constant():
    assert RationalFn(3) == 3 and RationalFn(3).derivative() == 0
    assert RationalFn(Fraction(1, 2)) == Fraction(1, 2)
    assert RationalFn(Fraction(1, 3), 1) == RationalFn(Poly([Fraction(1, 3)]), 1)
    for q, j in (("x", 0), (1.5, 0), (None, 0), (Poly([1]), "x"), (Poly([1]), 2.0), (Poly([1]), True), (1, Poly([1]))):
        with pytest.raises(TypeError):
            RationalFn(q, j)
    with pytest.raises(ValueError, match="non-negative"):
        RationalFn(Poly([1]), -1)


def test_rationalfn_arithmetic_and_derivative():
    # a power of one endpoint factor is held over w: 1/(1-x)^k = (1+x)^k / w^k
    one_over = RationalFn(Poly([1, 1]), 1)
    assert one_over + one_over == RationalFn(Poly([2, 2]), 1)
    # d/dx (1-x)^-1 = (1-x)^-2
    assert one_over.derivative() == RationalFn(Poly([1, 1]) ** 2, 2) == one_over * one_over
    # 1/(1-x) - 1/(1+x) = 2x/(1-x^2): the poles are different, nothing cancels
    assert one_over - RationalFn(Poly([1, -1]), 1) == RationalFn(Poly([0, 2]), 1)
    # a sum at equal poles can cancel one: x/(1-x) - 1/(1-x) = -1
    assert RationalFn(Poly([0, 1, 1]), 1) - one_over == -1


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("e", (-1, 1))
def test_a_power_of_one_endpoint_factor_is_held_over_w(e, k):
    # 1/(1-ex)^k = (1+ex)^k / w^k: a pole of order k at e, none at -e
    r = RationalFn(Poly([1, e]) ** k, k)
    assert (r.q, r.j) == (Poly([1, e]) ** k, k) and r.den == W**k
    assert r * Poly([1, -e]) ** k == 1
    assert laurent_lead(r, e) == (-k, 1) and laurent_lead(r, -e) == (0, Fraction(1, 2**k))


def laurent_lead(r, e):
    """(v, c_v): r = c_v u^v + ... near e, u = 1 - e x, read off `laurent_at`."""
    v = r.laurent_at(e, 0)[0]
    _, den, nums = r.laurent_at(e, v)
    return v, Fraction(nums[0], den)


def test_rationalfn_laurent_at_examples():
    w = Poly([1, 0, -1])
    r = RationalFn(w**2, 1)  # 1 - x^2 = u (2 - u) at +1
    assert laurent_lead(r, 1) == (1, 2)  # a zero of order 1: the value there is 0
    s = RationalFn(Poly([0, 1]), 1)  # x / (1 - x^2) = (1 - u) / (u (2 - u)), a simple pole at 1
    v, den, nums = s.laurent_at(1, 1)
    assert v == -1 and [Fraction(n, den) for n in nums] == [Fraction(1, 2), Fraction(-1, 4), Fraction(-1, 8)]
    assert laurent_lead(s, -1) == (-1, Fraction(-1, 2))  # (u - 1) / (u (2 - u)) at -1, u = 1 + x
    assert s.laurent_at(1, -2)[::2] == (-1, ())  # no coefficient up to a depth below the pole
    with pytest.raises(ValueError):
        RationalFn(Poly()).laurent_at(1, 0)


@given(
    st.integers(0, 4),
    st.integers(0, 4),
    polys.filter(lambda q: not q.is_zero()),
    nonzero_rationals,
    st.sampled_from([-1, 1]),
)
@settings(max_examples=80, deadline=None)
def test_laurent_at_reads_off_valuation_and_leading_coefficient(j, k, a, c, e):
    # r = (x - e)^j a / (c w^k), a(e) != 0: a polynomial when k = 0, a pole of
    # order k - j at e otherwise.  Near e, x - e = -e u and w = u (2 - u).
    a = _without_root(a, e)
    r = RationalFn(Poly([-e, 1]) ** j * a * (1 / c), k)
    assert laurent_lead(r, e) == (j - k, (-e) ** j * a(e) / (c * 2**k))


def euclid_normal_form(num, den):
    """Reference normal form: divide out the Euclidean gcd, then make den monic."""
    if num.is_zero():
        return Poly(), Poly([1])
    g = poly_gcd(num, den)
    num, den = num.divmod(g)[0], den.divmod(g)[0]
    lead = den.leading_coefficient()
    return num * (1 / lead), den * (1 / lead)


def assert_matches_euclid(r, num, den):
    """r is num / den, by cross-multiplication with the Euclid normal form, and its
    fields are in normal form: w divides q only when j = 0, and zero is (0, 0)."""
    num_ref, den_ref = euclid_normal_form(num, den)
    assert r.q * den_ref == num_ref * W**r.j
    assert r.j >= 0 and (r.j == 0 or r.q(1) != 0 or r.q(-1) != 0)
    assert r.j == 0 or not r.is_zero()


@given(polys, nonzero_rationals)
@settings(max_examples=60, deadline=None)
def test_constant_denominator_matches_euclid_normal_form(p, c):
    # p / c is a polynomial, and `den` is the constant 1
    r = RationalFn(p * (1 / c))
    assert_matches_euclid(r, p, Poly([c]))
    assert r.is_polynomial() and r.den == 1 and r.den.degree == 0


@pytest.mark.parametrize("c", [1, -1, 3, Fraction(-2, 7)])
def test_constant_denominator_examples(c):
    p = Poly([1, Fraction(1, 2), -3])
    r = RationalFn(p * (1 / Fraction(c)))
    assert_matches_euclid(r, p, Poly([c]))
    assert r.is_polynomial() and r.den.degree == 0


def in_class(num, c, a, b):
    """(value, num, den): num / (c (1-x)^a (1+x)^b) as q / w^j with j = max(a, b),
    and its general quotient."""
    j = max(a, b)
    den = Poly([1, -1]) ** a * Poly([1, 1]) ** b * c
    return RationalFn(num * Poly([1, -1]) ** (j - a) * Poly([1, 1]) ** (j - b) * (1 / c), j), num, den


endpoint_exponents = st.integers(0, 3)
# numerators with roots at +-1 of random multiplicity, so factors cancel
in_class_values = st.builds(
    lambda p, i, j, c, a, b: in_class(p * Poly([-1, 1]) ** i * Poly([1, 1]) ** j, c, a, b),
    polys.filter(lambda p: p.degree is None or p.degree <= 4),
    st.integers(0, 3),
    st.integers(0, 3),
    nonzero_rationals,
    endpoint_exponents,
    endpoint_exponents,
)


def euclid_laurent_lead(num, den, e):
    """(v, c_v) of num / den in u = 1 - e x from both split at e: (x - e)^v = (-e)^v u^v,
    and (-e)^v = (-e)^(v mod 2), an int also when v < 0."""
    v_num, _, a = ref_split_root(num.coeffs, e)
    v_den, _, b = ref_split_root(den.coeffs, e)
    v = v_num - v_den
    return v, a / b * (-e) ** (v % 2)


@given(in_class_values, in_class_values)
@settings(max_examples=80, deadline=None)
def test_in_class_operations_match_euclid_normal_form(x, y):
    (r, a, b), (s, c, d) = x, y
    total, product, slope = r + s, r * s, r.derivative()
    for value, num, den in (
        (r, a, b),
        (total, a * d + c * b, b * d),
        (product, a * c, b * d),
        (slope, a.derivative() * b - a * b.derivative(), b * b),
    ):
        assert_matches_euclid(value, num, den)
        # the fields are in normal form, so equal values have equal fields, also
        # when the constructor is given a factor of w too many
        for k in (0, 1):
            twin = RationalFn(value.q * W**k, value.j + k)
            assert (twin.q, twin.j) == (value.q, value.j) and hash(twin) == hash(value)
        assert value.den == W**value.j and (value.den.degree == 0) == value.is_polynomial()
    if r.is_zero():
        return
    num, den = euclid_normal_form(a, b)
    for e in (1, -1):
        assert laurent_lead(r, e) == euclid_laurent_lead(num, den, e)


@given(polys.filter(lambda p: not p.is_zero()), nonzero_rationals, st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_laurent_at_a_pole_is_exact(p, c, a, b):
    # (-1)^s with s < 0 is the float -1.0 in Python; every coefficient must stay an exact int
    r, num, den = in_class(_without_root(_without_root(p, 1), -1), c, a, b)
    for e, pole in ((1, a), (-1, b)):
        v, d, nums = r.laurent_at(e, 2)
        assert v == -pole and type(d) is int and nums and all(type(n) is int for n in nums)
        assert laurent_lead(r, e) == euclid_laurent_lead(*euclid_normal_form(num, den), e)


@given(polys, polys)
@settings(max_examples=40, deadline=None)
def test_polynomial_fast_paths_match_general_formulas(p, q):
    one = Poly([1])
    rp, rq = RationalFn(p), RationalFn(q)
    s, m, d = rp + rq, rp * rq, rp.derivative()
    assert_matches_euclid(s, p * one + q * one, one * one)
    assert_matches_euclid(m, p * q, one * one)
    assert_matches_euclid(d, p.derivative() * one - p * one.derivative(), one * one)


# ---------------------------------------------------------------------------
# the integer-content representation against a plain-Fraction reference
# ---------------------------------------------------------------------------
#
# A reference polynomial is a tuple of Fractions, low to high, without
# trailing zeros: the textbook representation, one Fraction per coefficient.


def ref(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b):
    n = max(len(a), len(b))
    return ref((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref(out)


def ref_derivative(a, k):
    for _ in range(k):
        a = ref(i * c for i, c in enumerate(a))[1:]
    return a


def ref_eval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def ref_integral(a):
    return sum((2 * c / (i + 1) for i, c in enumerate(a) if i % 2 == 0), Fraction(0))


def ref_divmod(a, b):
    rem, quot = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b):
        factor = rem[-1] / b[-1]
        quot[len(rem) - len(b)] = factor
        for i, c in enumerate(b):
            rem[len(rem) - len(b) + i] -= factor * c
        rem = list(ref(rem[:-1]))
    return ref(quot), ref(rem)


def ref_monic(a):
    return tuple(c / a[-1] for c in a) if a else a


def ref_gcd(a, b):
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return ref_monic(a)


def ref_split_root(a, x):
    m = 0
    while True:
        partial, acc = [], Fraction(0)
        for c in reversed(a):
            acc = acc * x + c
            partial.append(acc)
        if acc != 0:
            return m, a, acc
        m, a = m + 1, ref(reversed(partial[:-1]))


def assert_normal_form(p):
    """The invariant: gcd(content, den) = 1, den > 0, no trailing zero."""
    assert isinstance(p._n, tuple) and all(type(c) is int for c in p._n)
    assert type(p._d) is int and p._d > 0
    assert not p._n or p._n[-1] != 0
    assert math.gcd(p._d, *p._n) == 1


def poly_and_ref(cs):
    return Poly(cs), ref(cs)


coefficient_lists = st.lists(rationals, min_size=0, max_size=9)
pairs = coefficient_lists.map(poly_and_ref)
# divisors with a leading coefficient that is negative or not a unit
divisor_leads = st.sampled_from([Fraction(-1), Fraction(-3), Fraction(2), Fraction(5, 3), Fraction(-7, 4)])
divisors = st.builds(lambda cs, lead: poly_and_ref(cs + [lead]), st.lists(rationals, max_size=5), divisor_leads)
points = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))


@given(coefficient_lists, st.integers(1, 12))
@settings(max_examples=80, deadline=None)
def test_normal_form_and_equality_under_mixed_denominators(cs, k):
    p = Poly(cs)
    # the same values written over larger denominators, and as "p/q" text
    widened = Poly([Fraction(c.numerator * k, c.denominator * k) for c in cs])
    text = Poly([f"{c.numerator}/{c.denominator}" for c in cs])
    for q in (p, widened, text):
        assert_normal_form(q)
        assert q.coeffs == ref(cs)
    assert p == widened == text
    assert hash(p) == hash(widened) == hash(text)


@given(rationals)
@settings(max_examples=60, deadline=None)
def test_constants_equal_and_hash_as_their_scalar(c):
    p = Poly([c])
    assert p == c and hash(p) == hash(c)
    if c.denominator == 1:
        assert p == int(c) and hash(p) == hash(int(c))
    r = RationalFn(p)
    assert r == c == p and hash(r) == hash(c) == hash(p)
    assert hash(Poly()) == hash(0) == hash(RationalFn(Poly()))


@given(pairs)
@settings(max_examples=60, deadline=None)
def test_rationalfn_polynomial_hashes_as_its_numerator(pr):
    p, _ = pr
    assert RationalFn(p) == p and hash(RationalFn(p)) == hash(p)


@given(pairs, pairs, rationals)
@settings(max_examples=80, deadline=None)
def test_ring_operations_match_reference(pa, pb, c):
    (p, a), (q, b) = pa, pb
    results = {
        "add": (p + q, ref_add(a, b)),
        "sub": (p - q, ref_add(a, tuple(-x for x in b))),
        "neg": (-p, tuple(-x for x in a)),
        "mul": (p * q, ref_mul(a, b)),
        "scalar": (p * c, ref(x * c for x in a)),
        "int-scalar": (3 * p - 1, ref_add(tuple(3 * x for x in a), (Fraction(-1),))),
    }
    for name, (got, want) in results.items():
        assert_normal_form(got)
        assert got.coeffs == want, name


@given(pairs, st.integers(0, 4), points)
@settings(max_examples=80, deadline=None)
def test_calculus_matches_reference(pa, k, x):
    p, a = pa
    d = p.derivative(k)
    assert_normal_form(d)
    assert d.coeffs == ref_derivative(a, k)
    assert p(x) == ref_eval(a, x) and type(p(x)) is Fraction
    assert p(x.numerator) == ref_eval(a, Fraction(x.numerator))
    assert p.integrate_unit_interval() == ref_integral(a)


@given(pairs, pairs)
@settings(max_examples=80, deadline=None)
def test_integral_of_a_product_matches_reference(pa, pb):
    (p, a), (q, b) = pa, pb
    assert p.integrate_product(q) == ref_integral(ref_mul(a, b))


@given(pairs, divisors)
@settings(max_examples=80, deadline=None)
def test_divmod_matches_reference(pa, pb):
    (p, a), (q, b) = pa, pb
    quot, rem = p.divmod(q)
    assert_normal_form(quot)
    assert_normal_form(rem)
    assert quot * q + rem == p
    assert rem.is_zero() or rem.degree < q.degree
    assert (quot.coeffs, rem.coeffs) == ref_divmod(a, b)


@given(pairs, pairs, divisors)
@settings(max_examples=60, deadline=None)
def test_gcd_and_monic_match_reference(pa, pb, pc):
    # a common factor c makes the gcd nontrivial
    (p, a), (q, b), (r, c) = pa, pb, pc
    g = poly_gcd(p * r, q * r)
    assert_normal_form(g)
    assert g.coeffs == ref_gcd(ref_mul(a, c), ref_mul(b, c))
    m = r.monic()
    assert_normal_form(m)
    assert m.coeffs == ref_monic(c) and m.leading_coefficient() == 1


@given(pairs.filter(lambda pa: not pa[0].is_zero()), st.integers(0, 3), st.integers(-6, 6))
@settings(max_examples=80, deadline=None)
def test_taylor_matches_reference(pa, m, point):
    p, a = pa
    # a root of multiplicity >= m at the point
    factor = Poly([-point, 1]) ** m
    product = p * factor
    want_m, want_q, want_value = ref_split_root(ref_mul(a, factor.coeffs), point)
    assert taylor_lead(product, point) == (want_m, want_value)
    cofactor = (Poly(list(product.taylor(point))[want_m:]) * Fraction(1, product._d)).shift(-point)
    assert_normal_form(cofactor)
    assert cofactor.coeffs == want_q


scale_values = st.lists(st.one_of(rationals, st.integers(-20, 20)), min_size=9, max_size=9)


@given(st.lists(st.tuples(st.integers(0, 4), pairs, scale_values), max_size=4))
@settings(max_examples=80, deadline=None)
def test_scaled_sum_matches_reference(terms):
    # ints and Fractions mixed, zero values and zero polys included, against
    # the sum of shifted term-by-term products
    got = Poly.scaled_sum([(shift, p, values) for shift, (p, _), values in terms])
    assert_normal_form(got)
    want = [Fraction(0)] * 13
    for shift, (_, a), values in terms:
        for i, (c, v) in enumerate(zip(a, values), shift):
            want[i] += c * v
    assert got.coeffs == ref(want)


@given(pairs, st.integers(0, 6), st.integers(-6, 6))
@settings(max_examples=80, deadline=None)
def test_valuation_and_value_and_slope_match_reference(pa, zeros, point):
    p, a = pa
    shifted = p * Poly.monomial(zeros)
    assert shifted.valuation() == (None if not a else zeros + next(i for i, c in enumerate(a) if c))
    value = sum(c * point**i for i, c in enumerate(a))
    slope = sum(i * c * point ** (i - 1) for i, c in enumerate(a) if i)
    assert (value, slope) == (p(point), p.derivative()(point))


def test_scaled_sum_reads_only_the_values_it_needs():
    p = Poly([1, 2, 3])
    assert Poly.scaled_sum([(0, p, range(1, 4))]) == Poly([1, 4, 9])
    assert Poly.scaled_sum([(2, p, range(1, 10))]) == Poly([0, 0, 1, 4, 9])
    assert Poly.scaled_sum([(0, Poly(), [])]) == Poly.scaled_sum([]) == Poly()
    with pytest.raises(ValueError):
        Poly.scaled_sum([(0, p, [1, 2])])


ratio_pairs = st.lists(
    st.tuples(st.one_of(st.just(0), st.integers(-10**30, 10**30)), st.integers(-40, 40).filter(bool)), max_size=9
)


@given(ratio_pairs, st.integers(0, 3))
@example([], 0)
@example([(0, -3), (5, -7)], 2)
@settings(max_examples=80, deadline=None)
def test_ratios_constructor_matches_fraction_route(pairs, trailing):
    # zero numerators, trailing zeros, negative denominators and the empty list
    pairs = pairs + [(0, 1 + k) for k in range(trailing)]
    got = Poly._ratios(pairs)
    assert_normal_form(got)
    assert got == Poly([Fraction(n, d) for n, d in pairs])


#: per-step factors of a running denominator: 1, small ints, and about 2,000 bits, either sign
emission_factors = st.one_of(
    st.just(1),
    st.integers(-40, 40).filter(bool),
    st.builds(operator.mul, st.sampled_from((1, -1)), st.integers(2**1990, 2**2010)),
)
emission_numerators = st.one_of(st.just(0), st.integers(-10**30, 10**30), st.integers(-(2**2000), 2**2000))
emission_steps = st.lists(st.tuples(emission_factors, emission_numerators, emission_numerators), min_size=1, max_size=9)


@given(emission_steps, st.booleans(), st.booleans())
@example([(7, 0, 0)], False, False)
@example([(1, 3, -2)], True, True)
@example([(1, 1, 0), (2**2000 + 1, -5, 0), (1, 0, 0)], True, False)
@settings(max_examples=80, deadline=None)
def test_emit_matches_ratios_over_the_running_denominators(steps, descending, zero_level):
    # step k multiplies the denominator by factors[k] and produces one numerator per level over it;
    # ascending is a series' order, descending K_n's (from x^n down)
    factors = [f for f, _, _ in steps]
    levels = [[a for _, a, _ in steps], [0 if zero_level else b for _, _, b in steps]]
    dens = list(accumulate(factors, operator.mul))
    got = Poly._emit(factors, *levels, descending=descending)
    assert len(got) == len(levels)
    for p, level in zip(got, levels):
        assert_normal_form(p)
        pairs = list(zip(level, dens))
        assert p == Poly._ratios(pairs[::-1] if descending else pairs)
