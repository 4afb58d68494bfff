"""Log-germ algebra: derivatives, valuation limits, endpoint functions."""

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
)
from krall6.polynomials import Poly, RationalFn

W = Poly([1, 0, -1])


def test_log_derivative_chain_rule():
    # d/dx ln(1-x^2) = -2x/(1-x^2)
    g = LogGerm.from_log_poly(Poly.one(), 1)
    d = g.derivative()
    assert d.terms == {0: RationalFn(Poly([0, -2]), Poly([1, 0, -1]))}


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
    g = LogGerm(1, {0: RationalFn(Poly.one(), W)})
    with pytest.raises(DivergentLimitError):
        g.limit()


def test_embedding_consistency():
    # germ limit of a global polynomial equals polynomial evaluation
    p = Poly([2, -3, 5, 1])
    f = EndpointFn.from_poly(p)
    for e in (-1, 1):
        assert f.germ_at(e).limit() == p(e)
        assert f.value_at(e) == p(e)


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
    with pytest.raises(UnspecifiedInteriorError):
        f.require_global("integration")
    assert f.value_at(1) == 0
    assert f.value_at(-1) == 0
    assert EndpointFn.from_poly(W).require_global("integration") == W


def test_endpointfn_algebra_mixes_classes():
    f = EndpointFn.poly_near(1, Poly.one())
    g = EndpointFn.from_poly(Poly.x())
    s = f + g
    assert not s.is_global()
    assert s.value_at(1) == 2  # 1 + x at x=1
    assert s.value_at(-1) == -1
    assert (g * W).is_global()
    assert (f * 3).value_at(1) == 3


def test_derivative_order_on_endpointfn():
    f = EndpointFn.from_poly(Poly.monomial(3))
    assert f.derivative(2).poly == Poly([0, 6])
    p = EndpointFn.poly_near(-1, Poly.monomial(2))
    assert p.derivative(2).value_at(-1) == 2
    assert p.derivative(2).value_at(1) == 0


def test_endpoint_validation():
    with pytest.raises(ValueError):
        LogGerm.zero(0)
    with pytest.raises(ValueError):
        EndpointFn.piecewise(LogGerm.zero(1), LogGerm.zero(1))


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
        EndpointFn.from_poly(W).derivative(-1)
    assert g.derivative(0) is g


small_polys = st.lists(
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)), min_size=1, max_size=4
).map(Poly)
log_terms = st.dictionaries(
    st.integers(0, 2),
    st.builds(lambda p, j: RationalFn(p, W**j), small_polys, st.integers(0, 2)),
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
    f = EndpointFn.from_poly(p)
    assert f.germ_at(1).derivative(3) is LogGerm.from_poly(p, 1).derivative(3)


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
