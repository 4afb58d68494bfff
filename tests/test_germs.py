"""Log-germ algebra: derivatives, valuation limits, endpoint functions."""

import itertools
import math
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krall6.germs import (
    DivergentLimitError,
    EndpointFn,
    LogGerm,
    UnspecifiedInteriorError,
    _differentiate,
    germ_at,
    value_at,
)
from krall6 import concomitant as con
from krall6 import germs
from krall6.concomitant import concomitant, greens_formula_check, quasi_derivative
from krall6.frobenius import MIN_ORDER, series_solution
from krall6.inner_products import expansion_coefficients, expansion_reconstruction, kappa_inner
from krall6.operator import KrallParams, apply_legendre_type, local_expression
from krall6.polynomials import Poly, RationalFn

W = Poly([1, 0, -1])


def test_log_derivative_chain_rule():
    # d/dx ln(1-x^2) = -2x/(1-x^2)
    g = LogGerm.from_log_poly(Poly.one(), 1)
    d = g.derivative()
    assert d.terms == {0: RationalFn(Poly([0, -2]), 1)}


def test_product_rule_weight_times_log():
    # ((1-x^2) L)' = -2x L + (1-x^2)(-2x/(1-x^2)) = -2x L - 2x
    g = LogGerm.from_log_poly(W, 1)
    d = g.derivative()
    assert d.terms[1] == RationalFn(Poly([0, -2]))
    assert d.terms[0] == RationalFn(Poly([0, -2]))


def test_constant_derivative_vanishes():
    g = LogGerm.from_poly(Poly([7]), -1)
    assert g.derivative().is_zero()


def test_limit_weight_log_vanishes():
    g = LogGerm.from_log_poly(W, 1)
    assert g.limit() == 0


def test_limit_constant_plus_weight():
    g = LogGerm.from_poly(Poly([3]) + W, 1)
    assert g.limit() == 3


def test_limit_bare_log_diverges():
    g = LogGerm.from_log_poly(Poly.one(), 1)
    with pytest.raises(DivergentLimitError):
        g.limit()
    assert not g.has_limit()


def test_limit_pole_diverges():
    g = LogGerm(1, {0: RationalFn(Poly.one(), 1)})
    with pytest.raises(DivergentLimitError):
        g.limit()


def test_embedding_consistency():
    # germ limit of a global polynomial equals polynomial evaluation
    p = Poly([2, -3, 5, 1])
    for e in (-1, 1):
        assert germ_at(p, e).limit() == p(e)
        assert value_at(p, e) == p(e)


def test_derivative_of_convergent_germ_times_weight_vanishes():
    # u * d/du of a convergent germ term -> 0; checked on the log-probe shapes
    for e in (-1, 1):
        g = LogGerm.from_log_poly(Fraction(3, 8) * W**2 + Fraction(1, 2) * W, e)
        assert g.limit() == 0
        assert (g.derivative() * W).limit() == 0


def test_germ_multiplication_collects_log_powers():
    g = LogGerm.from_log_poly(Poly.one(), 1)
    sq = g * g
    assert set(sq.terms) == {2}
    h = LogGerm.from_poly(W, 1)
    assert (g * h).terms == {1: RationalFn(W)}


def test_piecewise_interior_is_off_limits():
    f = EndpointFn.poly_near(1, W)
    params = KrallParams(1, 2)
    with pytest.raises(UnspecifiedInteriorError):
        kappa_inner(f, Poly.one(), params)
    assert value_at(f, 1) == 0
    assert value_at(f, -1) == 0
    assert kappa_inner(W, Poly.one(), params) == Fraction(4, 3)


def test_endpointfn_algebra_mixes_classes():
    f = EndpointFn.poly_near(1, Poly.one())
    g = Poly.x()
    s = f + g
    assert isinstance(s, EndpointFn)
    assert value_at(s, 1) == 2  # 1 + x at x=1
    assert value_at(s, -1) == -1
    assert isinstance(g * W, Poly)
    assert value_at(f * 3, 1) == 3


def test_poly_and_endpointfn_sum_in_either_order():
    p = Poly([1, 2])
    pieces = [
        EndpointFn.poly_near(1, Poly.one()),
        EndpointFn.poly_near(-1, W) + EndpointFn.log_poly_near(1, W * 3),
        EndpointFn(LogGerm.from_log_poly(Poly.x(), -1), LogGerm(1, {0: RationalFn(Poly.one(), 1)})),
    ]
    for f in pieces:
        assert p + f == f + p
        assert p - f == -(f - p)
        assert (p + f) - p == f
        assert f + Fraction(1, 2) == Fraction(1, 2) + f == f + Poly([Fraction(1, 2)])
    for bad in (lambda: Poly.x() + "x", lambda: "x" + Poly.x(), lambda: Poly.x() - "x", lambda: "x" - Poly.x()):
        with pytest.raises(TypeError):
            bad()


def test_readers_take_scalars_and_reject_other_types():
    for e in (-1, 1):
        assert germ_at(3, e) == LogGerm.from_poly(Poly([3]), e)
        assert value_at(Fraction(3, 2), e) == Fraction(3, 2)
        assert value_at(Fraction(3, 2), e, 1) == 0
        with pytest.raises(TypeError):
            germ_at("x", e)
        with pytest.raises(TypeError):
            value_at(None, e)
    with pytest.raises(ValueError):
        value_at(Poly.x(), 0)


def test_germ_constructors_read_scalars_and_reject_other_types():
    for e in (-1, 1):
        assert LogGerm.from_poly(3, e) == LogGerm.from_poly(Poly([3]), e)
        assert LogGerm.from_log_poly(Fraction(1, 2), e) == LogGerm.from_log_poly(Poly([Fraction(1, 2)]), e)
        assert value_at(EndpointFn.poly_near(e, 3), e) == 3
        assert EndpointFn.log_poly_near(e, 2) == EndpointFn.log_poly_near(e, Poly([2]))
        # a Poly or a scalar term is held as the polynomial RationalFn it equals
        g = LogGerm(e, {0: Poly([1]), 1: W * 2})
        assert g == LogGerm(e, {0: RationalFn(Poly([1])), 1: RationalFn(W * 2)})
        assert all(type(r) is RationalFn for r in g.terms.values())
        assert g.limit() == 1 and LogGerm(e, {0: 5}).limit() == 5
        for bad in (lambda: LogGerm.from_poly("x", e), lambda: EndpointFn.poly_near(e, 1.5),
                    lambda: EndpointFn.log_poly_near(e, None), lambda: LogGerm(e, {0: "x"}),
                    lambda: LogGerm(e, {1.5: Poly([0, 0, 1])}), lambda: LogGerm(e, {True: Poly.x()})):
            with pytest.raises(TypeError):
                bad()


def test_germ_and_endpoint_fn_do_not_multiply():
    # each reflected product used to call the other's __mul__ again, until RecursionError
    g, f = LogGerm.from_poly(Poly.x(), 1), EndpointFn.poly_near(1, Poly.x())
    for bad in (lambda: g * f, lambda: f * g):
        with pytest.raises(TypeError, match="unsupported operand"):
            bad()


def test_germ_sums_with_other_types_raise_type_error():
    g = LogGerm.from_poly(Poly.x(), 1)
    f = EndpointFn.poly_near(1, Poly.x())
    for bad in (lambda: g + 1, lambda: 1 + g, lambda: g - 1, lambda: g - Poly([1]), lambda: g - f,
                lambda: g + RationalFn(Poly.x())):
        with pytest.raises(TypeError) as caught:
            bad()
        assert caught.type is TypeError
    # an EndpointFn takes two germs, checked before their endpoints
    for args in ((Poly([1]), g), (LogGerm.zero(-1), 1)):
        with pytest.raises(TypeError, match="expected two germs"):
            EndpointFn(*args)
    with pytest.raises(ValueError, match="wrong endpoints"):
        EndpointFn(g, LogGerm.zero(-1))


#: every entry point that takes an endpoint, called at `e`
ENDPOINT_READERS = {
    "series_solution": lambda e: series_solution(e, "phi-3", MIN_ORDER, KrallParams(1, 2)),
    "germ_at": lambda e: germ_at(W, e),
    "value_at": lambda e: value_at(W, e),
    "concomitant": lambda e: concomitant(W, Poly.x(), e, KrallParams(1, 2)),
    "concomitant-of-germs": lambda e: concomitant(
        EndpointFn.log_poly_near(1, W), EndpointFn.log_poly_near(1, W), e, KrallParams(1, 2)
    ),
    "LogGerm": lambda e: LogGerm(e, {0: RationalFn(W)}),
}


@pytest.mark.parametrize("warm", (False, True), ids=("cold", "warm"))
@pytest.mark.parametrize("endpoint", (1.0, True), ids=repr)
def test_endpoint_must_be_an_int(endpoint, warm):
    # both equal 1, and 1.0 hashes as 1, so a warm memo keyed by the endpoint would answer for it
    for memo in (local_expression, con._poly_records, con._endpoint_values, con._germ_chain, germs._derivative):
        memo.cache_clear()
    for call in ENDPOINT_READERS.values():
        if warm:
            call(1)
        with pytest.raises(TypeError, match="endpoint must be the int -1 or \\+1"):
            call(endpoint)


P12 = KrallParams(1, 2)

#: (entry point on one polynomial input, whether it integrates over the interval)
POLYNOMIAL_ENTRY_POINTS = {
    "expansion_coefficients": (lambda f: expansion_coefficients(f, P12), True),
    "expansion_reconstruction": (lambda f: expansion_reconstruction(f, P12), True),
    "greens_formula_check": (lambda f: (greens_formula_check(f, W, P12), greens_formula_check(W, f, P12)), True),
    "quasi_derivative": (lambda f: quasi_derivative(f, P12), False),
    "apply_legendre_type": (lambda f: apply_legendre_type(f, 1), False),
}


@pytest.mark.parametrize("name", POLYNOMIAL_ENTRY_POINTS)
def test_polynomial_entry_points_read_scalars_as_constants(name):
    call, integrates = POLYNOMIAL_ENTRY_POINTS[name]
    for c in (3, Fraction(-1, 2)):
        assert call(c) == call(Poly([c]))
    if integrates:
        with pytest.raises(UnspecifiedInteriorError):
            call(EndpointFn.poly_near(1, Poly.x()))
    for bad in ("3", 1.5, None):
        with pytest.raises(TypeError) as caught:
            call(bad)
        assert caught.type is TypeError


def test_derivative_order_on_endpointfn():
    assert Poly.monomial(3).derivative(2) == Poly([0, 6])
    p = EndpointFn.poly_near(-1, Poly.monomial(2))
    assert value_at(p.derivative(2), -1) == 2
    assert value_at(p.derivative(2), 1) == 0


def test_endpoint_validation():
    with pytest.raises(ValueError):
        LogGerm.zero(0)
    with pytest.raises(ValueError):
        EndpointFn(LogGerm.zero(1), LogGerm.zero(1))


def test_negative_derivative_order_raises():
    g = LogGerm.from_log_poly(W, 1)
    with pytest.raises(ValueError, match="non-negative"):
        g.derivative(-1)
    g.derivative(3)  # a filled jet must not turn -1 into "last cached order"
    with pytest.raises(ValueError, match="non-negative"):
        g.derivative(-1)
    with pytest.raises(ValueError, match="non-negative"):
        EndpointFn.poly_near(1, W).derivative(-1)
    with pytest.raises(ValueError, match="non-negative"):
        W.derivative(-1)
    assert g.derivative(0) is g


small_polys = st.lists(
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)), min_size=1, max_size=4
).map(Poly)
log_terms = st.dictionaries(
    st.integers(0, 2),
    st.builds(lambda p, j: RationalFn(p, j), small_polys, st.integers(0, 2)),
    min_size=1,
    max_size=3,
)


@given(st.sampled_from([-1, 1]), log_terms, st.lists(st.integers(0, 5), min_size=1, max_size=6))
@settings(max_examples=30, deadline=None)
def test_jet_matches_chained_first_derivatives(endpoint, terms, orders):
    g = LogGerm(endpoint, terms)
    for n in orders:
        chained = g
        for _ in range(n):
            chained = _differentiate(chained)
        assert g.derivative(n) == chained


def test_jet_is_invisible_to_equality_hash_and_repr():
    g = LogGerm.from_log_poly(Fraction(3, 8) * W**2 + Fraction(1, 2) * W, -1)
    fresh = LogGerm(-1, dict(g.terms))
    text = repr(g)
    g.derivative(4)
    assert g == fresh and hash(g) == hash(fresh) and repr(g) == text


def test_jet_under_threads():
    g = LogGerm.from_log_poly(Fraction(3, 8) * W**2 + Fraction(1, 2) * W, 1)
    expected = [LogGerm(1, dict(g.terms))]
    for _ in range(6):
        expected.append(LogGerm(1, dict(expected[-1].derivative().terms)))
    shared = LogGerm(1, dict(g.terms))
    errors = []

    def worker(orders):
        try:
            for n in orders:
                assert shared.derivative(n) == expected[n]
        except AssertionError as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=([(i + k) % 7 for k in range(7)],))
            for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_derivative_memo_is_keyed_by_value():
    p = Poly([1, -2, 0, 5])
    for make in (LogGerm.from_poly, LogGerm.from_log_poly):
        for e in (-1, 1):
            g, twin = make(p, e), make(Poly([1, -2, 0, 5]), e)
            assert g is not twin and g == twin
            for n in (1, 3):
                assert twin.derivative(n) is g.derivative(n)
        minus, plus = make(p, -1).derivative(2), make(p, 1).derivative(2)
        assert minus is not plus
        assert (minus.endpoint, plus.endpoint) == (-1, 1)
    assert germ_at(p, 1).derivative(3) is LogGerm.from_poly(p, 1).derivative(3)
    # x^2 + 2x/(1-x^2) L from its fields, from a sum with the terms in the
    # other order, and as the derivative of x^3/3 - L^2/2
    direct = LogGerm(1, {0: RationalFn(Poly([0, 0, 1])), 1: RationalFn(Poly([0, 2]), 1)})
    summed = LogGerm(1, {1: RationalFn(Poly([0, 2]) * W, 2)}) + LogGerm.from_poly(Poly([0, 0, 1]), 1)
    antiderivative = {0: RationalFn(Poly([0, 0, 0, Fraction(1, 3)])), 2: RationalFn(Poly([Fraction(-1, 2)]))}
    derived = LogGerm(1, antiderivative).derivative()
    assert direct == summed == derived and hash(direct) == hash(summed) == hash(derived)
    for n in (1, 2):
        assert summed.derivative(n) is direct.derivative(n) is derived.derivative(n)


def test_non_int_derivative_order_raises():
    g = LogGerm.from_log_poly(W, 1)
    for order in (1.5, Fraction(2), "1", None):
        with pytest.raises(TypeError, match="int"):
            g.derivative(order)
    with pytest.raises(TypeError, match="int"):
        EndpointFn.poly_near(-1, W).derivative(0.5)


scalars = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 3))


@given(st.sampled_from([-1, 1]), log_terms, log_terms)
@settings(max_examples=30, deadline=None)
def test_leibniz_rule(endpoint, g_terms, h_terms):
    g, h = LogGerm(endpoint, g_terms), LogGerm(endpoint, h_terms)
    assert (g * h).derivative() == g.derivative() * h + g * h.derivative()


@given(
    st.sampled_from([-1, 1]),
    log_terms,
    log_terms,
    st.integers(0, 3),
    st.integers(0, 3),
    scalars,
    scalars,
)
@settings(max_examples=60, deadline=None)
def test_limit_is_linear(endpoint, g_terms, h_terms, j, k, a, b):
    # a factor u^j, u = 1 - e*x the local coordinate, moves a germ into (or
    # towards) the limit class, so both convergent and divergent cases occur
    u = Poly([1, -endpoint])
    g = LogGerm(endpoint, g_terms) * u**j
    h = LogGerm(endpoint, h_terms) * u**k
    combo = g * a + h * b
    if g.has_limit() and h.has_limit():
        assert combo.limit() == a * g.limit() + b * h.limit()
    elif g.has_limit() or h.has_limit():
        # the limit class is a vector space: convergent plus divergent diverges
        assert not combo.has_limit()


@given(st.sampled_from([-1, 1]), log_terms, st.sampled_from([0, Fraction(-3, 2), 2, Poly([1, -1]), W]))
@settings(max_examples=40, deadline=None)
def test_negation_and_scaling_match_the_validating_constructor(endpoint, terms, factor):
    # both skip the constructor's copy and zero filter; a zero factor gives the zero germ
    g = LogGerm(endpoint, terms)
    neg = -g
    assert neg == LogGerm(endpoint, {k: -r for k, r in g.terms.items()})
    scaled = g * factor
    assert scaled == LogGerm(endpoint, {k: r * RationalFn._coerce(factor) for k, r in g.terms.items()})
    for germ in (neg, scaled):
        assert all(not r.is_zero() for r in germ.terms.values())
    assert scaled.is_zero() == (g.is_zero() or factor == 0)


@given(small_polys, st.sampled_from([-1, 1]), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_value_at_evaluation_matches_the_germ_limit(p, endpoint, order):
    # a polynomial's value comes by evaluation, an EndpointFn's as a germ limit
    via_germ = germ_at(p, endpoint).derivative(order).limit()
    assert value_at(p, endpoint, order) == via_germ
    assert value_at(EndpointFn(germ_at(p, -1), germ_at(p, 1)), endpoint, order) == via_germ


def _lead(r, e):
    """(v, c_v) of r = q / w^j in u = 1 - e x from q's derivatives at e, the reference for
    `laurent_at`: x - e = -e u and w = u (2 - u), so r = (-e)^m q^(m)(e) / m! u^(m-j) / 2^j + ...
    with m the least order whose derivative is nonzero at e; (1, 0) for the zero function."""
    if r.is_zero():
        return 1, 0
    m, c = next((m, r.q.derivative(m)(e)) for m in itertools.count() if r.q.derivative(m)(e))
    return m - r.j, (-e) ** m * c / math.factorial(m) / 2**r.j


def _reference_limit(g):
    """The valuation test written out on g's terms in ascending log power, by `_lead`."""
    value = Fraction(0)
    for k in sorted(g.terms):
        val, lead = _lead(g.terms[k], g.endpoint)
        needed = 0 if k == 0 else 1
        if val < needed:
            raise DivergentLimitError(g.endpoint, f"term with log power {k} has valuation {val} (needs >= {needed})")
        if k == 0 and val == 0:
            value = lead
    return value


def _outcome(read):
    """read()'s value, or the text of the DivergentLimitError it raises."""
    try:
        return read()
    except DivergentLimitError as exc:
        return str(exc)


@given(st.sampled_from([-1, 1]), small_polys.filter(bool), st.integers(0, 3), st.integers(-4, 3))
@settings(max_examples=60, deadline=None)
def test_laurent_coefficients_match_successive_limits(endpoint, q, j, depth):
    """c_n of r = q / w^j in u = 1 - e x is the limit of (r - sum_{m<n} c_m u^m) / u^n,
    taken by `_lead` on `RationalFn` arithmetic; u^-n = (1 + e x)^n / w^n."""
    r = RationalFn(q, j)
    v, den, nums = r.laurent_at(endpoint, depth)
    assert v == _lead(r, endpoint)[0]
    assert len(nums) <= max(depth - v + 1, 0)
    rest = r
    for n in range(v, depth + 1):
        c = Fraction(nums[n - v], den) if n - v < len(nums) else 0
        scaled = rest * RationalFn(Poly([1, endpoint]) ** n, n) if n > 0 else rest * Poly([1, -endpoint]) ** -n
        order, lead = _lead(scaled, endpoint)
        assert order >= 0 and c == (lead if order == 0 else 0)
        rest = rest - RationalFn(c * Poly([1, -endpoint]) ** n if n >= 0 else c * Poly([1, endpoint]) ** -n, max(-n, 0))


def test_product_limit_reads_no_coefficient_past_u0():
    """At +1, u = 1 - x: (1/u + L)(1 + u) - L - 1/u = 1 + u L has limit 1.  The first
    product's u L term lies past u^0 and must not read as a divergent log term."""
    inv_u = RationalFn(Poly([1, 1]), 1)  # 1/(1 - x) = (1 + x)/(1 - x^2)
    one = germ_at(1, 1)
    products = [
        (1, LogGerm(1, {0: inv_u, 1: 1}), germ_at(Poly([2, -1]), 1)),
        (-1, LogGerm(1, {1: 1}), one),
        (-1, LogGerm(1, {0: inv_u}), one),
    ]
    assert germs.product_limit(products) == 1
    with pytest.raises(DivergentLimitError, match=r"^divergent limit at \+1: term with log power 0 has valuation -1 "
                       r"\(needs >= 0\)$"):
        germs.product_limit(products[:2])  # 1/u is left over
    assert germs.product_limit([(1, LogGerm.zero(1), one)]) == 0


@given(
    st.sampled_from([-1, 1]),
    st.lists(
        st.tuples(st.integers(-2, 2), log_terms, log_terms, st.integers(0, 4), st.integers(0, 4)),
        min_size=1,
        max_size=3,
    ),
)
@settings(max_examples=60, deadline=None)
def test_product_limit_matches_the_built_products(endpoint, lines):
    # a factor u^i moves a germ towards the limit class, so both outcomes occur
    u = Poly([1, -endpoint])
    products = [(c, LogGerm(endpoint, a) * u**i, LogGerm(endpoint, b) * u**k) for c, a, b, i, k in lines]
    total = sum((a * b * c for c, a, b in products), LogGerm.zero(endpoint))
    want = _outcome(lambda: _reference_limit(total))
    assert _outcome(lambda: germs.product_limit(products)) == want == _outcome(total.limit)
    # a b - b a cancels whatever each product does on its own
    assert germs.product_limit(products + [(-c, b, a) for c, a, b in products]) == 0


def test_product_limit_rejects_germs_from_two_endpoints():
    x_plus, x_minus = germ_at(Poly.x(), 1), germ_at(Poly.x(), -1)
    for products in ([(1, x_plus, x_minus)], [(1, x_minus, x_plus)], [(1, x_plus, x_plus), (1, x_minus, x_minus)],
                     [(1, x_plus, LogGerm.zero(-1))]):
        with pytest.raises(ValueError, match="germs live at different endpoints"):
            germs.product_limit(products)
    with pytest.raises(ValueError, match="germs live at different endpoints"):
        x_plus * x_minus


# a coefficient q / w^j with q(e) != 0 and j >= 1 has valuation -j, so fails at every power
poles_at = st.tuples(st.integers(-3, 3).filter(bool), st.integers(0, 2), st.integers(1, 3))


@given(
    st.sampled_from([-1, 1]),
    st.dictionaries(st.integers(0, 3), poles_at, min_size=2, max_size=4),
    st.lists(st.tuples(st.integers(-2, 2), log_terms), max_size=2),
)
@settings(max_examples=60, deadline=None)
def test_kernel_error_text_is_the_built_sums_with_several_failing_powers(endpoint, poles, others):
    """A germ whose every power diverges, in random insertion order, alone and plus other
    products: the kernel's error names what the valuation test on the built sum names."""
    g = LogGerm(endpoint, {k: RationalFn(Poly([1, endpoint]) ** i * c, j) for k, (c, i, j) in poles.items()})
    low = min(poles)
    assert _outcome(g.limit) == str(DivergentLimitError(
        endpoint, f"term with log power {low} has valuation {-poles[low][2]} (needs >= {int(low > 0)})"))
    products = [(1, g, germ_at(1, endpoint))] + [(c, LogGerm(endpoint, t), g) for c, t in others]
    total = sum((a * b * c for c, a, b in products), LogGerm.zero(endpoint))
    assert _outcome(lambda: germs.product_limit(products)) == _outcome(lambda: _reference_limit(total))


def test_limit_names_the_lowest_failing_power():
    # both terms diverge; the error names power 0 whichever order the terms were given in
    for terms in ({1: 1, 0: RationalFn(1, 1)}, {0: RationalFn(1, 1), 1: 1}):
        with pytest.raises(DivergentLimitError) as info:
            LogGerm(1, terms).limit()
        assert info.value.detail == "term with log power 0 has valuation -1 (needs >= 0)"


@given(st.sampled_from([-1, 1]), log_terms, log_terms, st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_terms_are_held_in_ascending_log_power(endpoint, g_terms, h_terms, rng):
    items = list(g_terms.items())
    rng.shuffle(items)
    g, shuffled = LogGerm(endpoint, g_terms), LogGerm(endpoint, dict(items))
    assert list(g.terms) == list(shuffled.terms) == sorted(g.terms)
    assert hash(g) == hash(shuffled) and repr(g) == repr(shuffled)
    h = LogGerm(endpoint, h_terms)
    for made in (g + h, h - g, g * h, -g, g * Fraction(-3, 2), g.derivative(), g.derivative(3)):
        assert list(made.terms) == sorted(made.terms)
