"""Concomitant limits, quasi-derivative, Green's formula, domain predicates."""

import math
import random
import sys
import threading
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krall6 import concomitant as con
from krall6.concomitant import (
    WEIGHT,
    bracket_weight_reduction,
    bracket_weight_sq_reduction,
    concomitant,
    concomitant_with_one,
    general_endpoint_reduction,
    greens_formula_check,
    in_reduced_domain,
    in_separated_domain,
    log_probe,
    log_probe_reduction,
    one_near,
    quasi_derivative,
    quasi_derivative_at,
    quasi_derivative_terms_at,
    quasi_derivative_probe_identity,
    quasi_probe,
    reduced_concomitant,
    symplectic_form,
    weight_near,
    weight_sq_near,
)
from krall6.germs import (
    DivergentLimitError,
    EndpointFn,
    LogGerm,
    _derivative,
    _differentiate,
    germ_at,
    product_limit,
    value_at,
)
from krall6.operator import KrallParams
from krall6.polynomials import Poly, RationalFn
from krall6.suites import _maximal_domain_cases

PARAM_PAIRS = [KrallParams(1, 1), KrallParams(1, 2), KrallParams(Fraction(3, 2), Fraction(5, 2))]
X = Poly.x()


def seeded(count, seed=41, max_degree=10):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        degree = rng.randint(0, max_degree)
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree + 1)]
        out.append(Poly(coeffs))
    return out


def test_quasi_derivative_basics():
    params = KrallParams(1, 1)
    assert quasi_derivative(Poly.one(), params).is_zero()
    # on x^2 the value at 0 is 2(12+alpha) = 36+6A+6B
    lam = quasi_derivative(X * X, params)
    assert lam(0) == 48
    for p in PARAM_PAIRS:
        assert quasi_derivative(X * X, p)(0) == 36 + 6 * p.A + 6 * p.B


def test_quasi_derivative_vanishes_at_endpoints_for_polynomials():
    params = KrallParams(1, 2)
    for k in range(13):
        for e in (-1, 1):
            assert quasi_derivative_at(Poly.monomial(k), e, params) == 0


def test_log_probe_quasi_derivative_is_32():
    """The machine value: 32, not the 24 sometimes quoted (see errata suite)."""
    for params in PARAM_PAIRS:
        assert quasi_derivative_at(log_probe(1, params), 1, params) == 32
        assert quasi_derivative_at(log_probe(-1, params), -1, params) == 32


def test_quasi_derivative_terms_build_no_germ_once_the_chain_is_warm(monkeypatch):
    # P f'' is read off Lam and (f^[3])', so no one-off difference germ is built (and kept by the
    # `_principal` memo), and each limit pairs with the unit germ built once: a warm call builds none
    params = KrallParams(1, 2)
    probes = {e: log_probe(e, params) for e in (-1, 1)}
    for e, probe in probes.items():
        quasi_derivative_terms_at(probe, e, params)
    built = []
    real_init, real_make = LogGerm.__init__, LogGerm._make

    def init(self, *args):
        real_init(self, *args)
        built.append(self)

    def make(*args):
        built.append(real_make(*args))
        return built[-1]

    monkeypatch.setattr(LogGerm, "__init__", init)
    monkeypatch.setattr(LogGerm, "_make", staticmethod(make))
    for e, probe in probes.items():
        built.clear()
        assert quasi_derivative_terms_at(probe, e, params) == (8, 24)
        assert built == []


def test_probe_symplectic_form_is_one_sided():
    # the probes vanish near the opposite endpoint, so the full boundary form
    # against a probe collapses to the single endpoint quasi-derivative
    params = KrallParams(1, 2)
    for f in seeded(5, seed=59):
        assert symplectic_form(f, quasi_probe(1, params), params) == quasi_derivative_at(f, 1, params)
        assert symplectic_form(f, quasi_probe(-1, params), params) == -quasi_derivative_at(f, -1, params)


def test_probe_identity_extracts_quasi_derivative():
    params = KrallParams(Fraction(3, 2), Fraction(5, 2))
    functions = [
        X**3,
        WEIGHT**2,
        log_probe(1, params),
        log_probe(-1, params),
        one_near(1),
    ]
    for f in functions:
        for e in (-1, 1):
            via_probe, lam = quasi_derivative_probe_identity(f, e, params)
            assert via_probe == lam


def test_concomitant_examples():
    params = KrallParams(1, 2)
    # [f, f] = 0 (antisymmetry with real scalars)
    f = X * X + 3 * X
    for e in (-1, 1):
        assert concomitant(f, f, e, params) == 0
    # against the squared weight near +1: 192 f(1)
    assert concomitant(X, weight_sq_near(1), 1, params) == 192
    # against the cubed weight: zero at both ends
    w3 = WEIGHT**3
    for g in seeded(5, seed=3):
        for e in (-1, 1):
            assert concomitant(g, w3, e, params) == 0


def test_antisymmetry_on_pairs():
    params = KrallParams(1, 2)
    pool = seeded(4, seed=8, max_degree=6)
    pool += [log_probe(1, params), weight_near(-1), quasi_probe(1, params)]
    for i, f in enumerate(pool):
        for g in pool[i:]:
            for e in (-1, 1):
                try:
                    ab = concomitant(f, g, e, params)
                    ba = concomitant(g, f, e, params)
                except DivergentLimitError:
                    continue
                assert ab == -ba


def test_divergent_pair_is_typed():
    params = KrallParams(1, 1)
    # a bare log germ is outside the limit class against x
    bad = EndpointFn(LogGerm.zero(-1), LogGerm.from_log_poly(Poly.one(), 1))
    with pytest.raises(DivergentLimitError):
        concomitant(bad, X, 1, params)
    # no memo caches the exception: a second call diverges again
    with pytest.raises(DivergentLimitError):
        concomitant(bad, X, 1, params)


def _germ_lines(fg, gg, params):
    """The 2m summands of [f, g] as built germs, sign a b over `_line_factors` (the reference route)."""
    return tuple(a * b * sign for sign, a, b in con._line_factors(fg, gg, params))


def test_divergent_concomitant_names_endpoint_and_lines():
    params = KrallParams(1, 2)
    bare_log = EndpointFn(LogGerm.zero(-1), LogGerm.from_log_poly(Poly.one(), 1))
    with pytest.raises(DivergentLimitError) as info:
        concomitant(bare_log, X, 1, params)
    assert info.value.endpoint == 1
    assert info.value.detail.startswith("[f, g](+1) lines 1, 2, 3 of 6 diverge; sum: ")
    # each named line diverges on its own, and the others converge
    lines = _germ_lines(germ_at(bare_log, 1), germ_at(X, 1), params)
    assert [line.has_limit() for line in lines] == [False, False, False, True, True, True]
    # lines 3 and 4 of [probe, probe] diverge separately but cancel in the sum
    probe = germ_at(log_probe(1, params), 1)
    lines = _germ_lines(probe, probe, params)
    assert [line.has_limit() for line in lines] == [True, True, False, False, True, True]
    assert concomitant(log_probe(1, params), log_probe(1, params), 1, params) == 0


def test_divergent_bracket_detail_names_the_lowest_failing_power():
    # the sum of [bare log, log probe]'s lines diverges at log powers 0 and 1; power 0 is named
    params = KrallParams(1, 2)
    bare_log = EndpointFn(LogGerm.zero(-1), LogGerm.from_log_poly(Poly.one(), 1))
    with pytest.raises(DivergentLimitError) as info:
        concomitant(bare_log, log_probe(1, params), 1, params)
    assert info.value.detail == (
        "[f, g](+1) lines 1, 2, 3, 4, 5, 6 of 6 diverge; sum: term with log power 0 has valuation -1 (needs >= 0)"
    )


small_polys = st.lists(
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)), min_size=1, max_size=5
).map(Poly)
endpoints = st.sampled_from([-1, 1])


def _bracket_by_germ_lines(f, g, endpoint, params):
    """[f, g](e) as the limit of the sum of the germ lines (the reference route)."""
    lines = _germ_lines(germ_at(f, endpoint), germ_at(g, endpoint), params)
    return sum(lines[1:], lines[0]).limit()


@given(small_polys, small_polys, st.sampled_from([-1, 1]), st.sampled_from(PARAM_PAIRS))
@settings(max_examples=40, deadline=None)
def test_bracket_from_endpoint_values_matches_germ_lines_on_polynomials(p, q, endpoint, params):
    assert con._endpoint_values(germ_at(p, endpoint), params) is not None
    assert concomitant(p, q, endpoint, params) == _bracket_by_germ_lines(p, q, endpoint, params)


@pytest.mark.parametrize("params", [KrallParams(1, 2), KrallParams(Fraction(1, 3), Fraction(7, 2))])
def test_bracket_from_endpoint_values_matches_germ_lines_on_canonical_functions(params):
    pool = [X**3 - 2 * X, *seeded(3, seed=5, max_degree=6)]
    for e in (-1, 1):
        pool += [one_near(e), weight_near(e), weight_sq_near(e), quasi_probe(e, params)]
    for endpoint in (-1, 1):
        for f in pool:
            assert con._endpoint_values(germ_at(f, endpoint), params) is not None
            for g in pool:
                assert concomitant(f, g, endpoint, params) == _bracket_by_germ_lines(f, g, endpoint, params)


def test_endpoint_values_are_none_for_log_probes():
    for params in PARAM_PAIRS:
        for endpoint in (-1, 1):
            probe = germ_at(log_probe(endpoint, params), endpoint)
            assert con._endpoint_values(probe, params) is None
            hits = con._endpoint_values.cache_info().hits
            assert con._endpoint_values(probe, params) is None
            assert con._endpoint_values.cache_info().hits == hits + 1  # None is cached, not re-derived
            # the other endpoint's germ is zero, a polynomial, so has a record
            assert con._endpoint_values(germ_at(log_probe(-endpoint, params), endpoint), params) == (1, (0, 0, 0), (0, 0, 0))


def _limit_record(g, params):
    """g's endpoint record from limits: the limits of its derivatives and of its
    unmemoised chain, as ints over one denominator; None where one diverges.
    The reference for the records `_poly_records` reads off by evaluation."""
    try:
        values = [g.derivative(j).limit() for j in range(len(params.symmetric_coefficients()))]
        quasi = [q.limit() for q in reversed(con._germ_chain.__wrapped__(g, params))]
    except DivergentLimitError:
        return None
    quasi = [-v if j % 2 else v for j, v in enumerate(quasi)]
    d = math.lcm(*(v.denominator for v in values + quasi))
    return d, *(tuple(v.numerator * (d // v.denominator) for v in vs) for vs in (values, quasi))


@given(small_polys, st.sampled_from(PARAM_PAIRS + [KrallParams(Fraction(1, 10**6), Fraction(10**6, 7))]))
@settings(max_examples=40, deadline=None)
def test_poly_record_matches_germ_record(p, params):
    """The records read off the Poly chain at -1 and +1 are the limits' records, int for int."""
    records = con._poly_records(p, params)
    assert records == tuple(_limit_record(LogGerm.from_poly(p, e), params) for e in (-1, 1))
    assert records == tuple(con._endpoint_values(LogGerm.from_poly(p, e), params) for e in (-1, 1))


def _far_pole_near(e):
    """1/(1+ex) = (1-ex)/(1-x^2) near e, 0 near -e: log-free with every limit at e, but not a polynomial."""
    return EndpointFn._one_sided(LogGerm(e, {0: RationalFn(Poly([1, -e]), 1)}))


@pytest.mark.parametrize("params", [KrallParams(1, 2), KrallParams(Fraction(1, 3), Fraction(7, 2))])
def test_endpoint_record_exists_exactly_for_polynomial_germs(params):
    for e in (-1, 1):
        polynomial = [
            X**3 - 2 * X,
            Poly.one(),
            one_near(e),
            weight_sq_near(e),
            quasi_probe(e, params),
            one_near(-e),  # zero near e
            log_probe(-e, params),  # zero near e
        ]
        other = [
            log_probe(e, params),
            log_probe(e, params) * Fraction(-3, 2) + EndpointFn.poly_near(e, X**2 + 1),
            EndpointFn.log_poly_near(e, WEIGHT**3),
            _far_pole_near(e),
        ]
        for f, has_record in [(f, True) for f in polynomial] + [(f, False) for f in other]:
            g = germ_at(f, e)
            record = con._endpoint_values(g, params)
            assert (record is not None) == has_record, f
            assert (con._record_at(f, e, params) is not None) == has_record
            if has_record:
                assert record == _limit_record(g, params)


@pytest.mark.parametrize("params", [KrallParams(1, 2), KrallParams(Fraction(1, 3), Fraction(7, 2))])
def test_germ_with_every_limit_but_no_polynomial_takes_the_germ_lines(params):
    """(1-x^2)^3 ln(1-x^2) and 1/(1+ex) have every limit a record holds, yet
    no record: their brackets, B(e) and Lam(e) come from the germ lines and
    the chain, and equal what the limits' record gives."""
    for e in (-1, 1):
        for f in (EndpointFn.log_poly_near(e, WEIGHT**3), _far_pole_near(e)):
            assert con._endpoint_values(germ_at(f, e), params) is None
            d, values, quasi = _limit_record(germ_at(f, e), params)
            assert concomitant_with_one(f, e, params) == Fraction(quasi[0], d)
            assert quasi_derivative_at(f, e, params) == Fraction(-quasi[1], d)
            for p in seeded(5, seed=61, max_degree=8):
                p_den, p_values, p_quasi = _limit_record(LogGerm.from_poly(p, e), params)
                expected = Fraction(sum(map(mul, quasi, p_values)) - sum(map(mul, p_quasi, values)), d * p_den)
                assert concomitant(f, p, e, params) == expected
                assert concomitant(p, f, e, params) == -expected


def _limit_or_divergent(read):
    try:
        return read()
    except DivergentLimitError:
        return DivergentLimitError


@pytest.mark.parametrize("params", [KrallParams(1, 2), KrallParams(Fraction(1, 3), Fraction(7, 2))])
def test_record_reads_match_chain_limits(params):
    """B(e) and Lam(e) from the records equal the germ chain's limits; the log
    probes have no record at their endpoint and take the chain's limit."""
    pool = [X**3 - 2 * X, *seeded(4, seed=7, max_degree=8), X**4]
    for e in (-1, 1):
        pool += [one_near(e), weight_near(e), quasi_probe(e, params), log_probe(e, params)]
    for endpoint in (-1, 1):
        assert con._record_at(log_probe(endpoint, params), endpoint, params) is None
        for f in pool:
            chain = con._germ_chain.__wrapped__(germ_at(f, endpoint), params)
            for read, entry in ((concomitant_with_one, chain[-1]), (quasi_derivative_at, chain[-2])):
                got = _limit_or_divergent(lambda: read(f, endpoint, params))
                assert got == _limit_or_divergent(entry.limit)


def _endpoint_input(kind, p, q, endpoint):
    """A global polynomial, a one-sided polynomial, or p + q ln(1-x^2) near `endpoint`."""
    if kind == "global":
        return p
    if kind == "piecewise":
        return EndpointFn.poly_near(endpoint, p)
    return EndpointFn.poly_near(endpoint, p) + EndpointFn.log_poly_near(endpoint, q * WEIGHT)


def _chained_derivative(g, n):
    for _ in range(n):
        g = _differentiate(g)
    return g


def _reference_lam_and_b(g, params):
    """Lam[g] = -(Q g''')' + P g'' and B[g] = Lam[g]' - pi g', written out on chained first derivatives, no memo."""
    pi, p, q = params.symmetric_coefficients()
    d = _chained_derivative
    lam = -d(d(g, 3) * q, 1) + d(g, 2) * p
    return lam, d(lam, 1) - d(g, 1) * pi


def _reference_lines(fg, gg, params):
    """The hand-written five-line bracket at order six:
    B[f] g, -B[g] f, -Lam[f] g', Lam[g] f', -Q (f''' g'' - f'' g''')."""
    (lam_f, b_f), (lam_g, b_g) = _reference_lam_and_b(fg, params), _reference_lam_and_b(gg, params)
    d, q = _chained_derivative, params.symmetric_coefficients()[2]
    return (
        b_f * gg,
        -(b_g * fg),
        -(lam_f * d(gg, 1)),
        lam_g * d(fg, 1),
        -((d(fg, 3) * d(gg, 2) - d(fg, 2) * d(gg, 3)) * q),
    )


kinds = st.sampled_from(["global", "piecewise", "log"])


@given(kinds, kinds, small_polys, small_polys, small_polys, small_polys, endpoints, st.sampled_from(PARAM_PAIRS))
@settings(max_examples=40, deadline=None)
def test_chain_bracket_lines_match_the_five_line_reference(kind_f, kind_g, p, q, r, s, endpoint, params):
    f, g = _endpoint_input(kind_f, p, q, endpoint), _endpoint_input(kind_g, r, s, endpoint)
    fg, gg = germ_at(f, endpoint), germ_at(g, endpoint)
    lines, reference = _germ_lines(fg, gg, params), _reference_lines(fg, gg, params)
    assert lines[:4] == reference[:4]
    reference_sum = sum(reference[1:], reference[0])
    assert sum(lines[1:], lines[0]) == reference_sum
    if reference_sum.has_limit():
        assert concomitant(f, g, endpoint, params) == reference_sum.limit()
    else:
        with pytest.raises(DivergentLimitError):
            concomitant(f, g, endpoint, params)


@given(kinds, small_polys, small_polys, endpoints, st.sampled_from(PARAM_PAIRS))
@settings(max_examples=30, deadline=None)
def test_memoised_germ_data_matches_a_fresh_computation(kind, p, q, endpoint, params):
    g = germ_at(_endpoint_input(kind, p, q, endpoint), endpoint)
    fresh = LogGerm(endpoint, dict(g.terms))
    assert fresh is not g and fresh == g
    lam, b = _reference_lam_and_b(fresh, params)
    expected = (-(_chained_derivative(fresh, 3) * params.symmetric_coefficients()[2]), lam, b)
    assert con._germ_chain.__wrapped__(fresh, params) == expected
    for _ in range(2):  # a miss, then a hit
        assert con._germ_chain(g, params) == expected
        assert quasi_derivative(g, params) == lam


def _pole_input(p, q, poles, endpoint):
    """p / w^j0 + (q / w^j1) ln(1-x^2) near `endpoint`, (j0, j1) = `poles`: no library input has
    a pole, so only these make both factors of a line need principal parts past u^0, and many
    of their brackets diverge."""
    j0, j1 = poles
    return EndpointFn._one_sided(LogGerm(endpoint, {0: RationalFn(p, j0), 1: RationalFn(q, j1)}))


def _outcome(read):
    """read()'s value, or the text of the DivergentLimitError it raises."""
    try:
        return read()
    except DivergentLimitError as exc:
        return str(exc)


def _line_sum(factors):
    """The sum of the built germ lines c a b of `factors` (the reference route)."""
    lines = [a * b * c for c, a, b in factors]
    return sum(lines[1:], lines[0])


def _reference_concomitant(f, g, e, params):
    """[f, g](e) as the limit of the germ-line sum, with `concomitant`'s divergence detail."""
    lines = _germ_lines(germ_at(f, e), germ_at(g, e), params)
    try:
        return sum(lines[1:], lines[0]).limit()
    except DivergentLimitError as exc:
        diverging = ", ".join(str(i) for i, line in enumerate(lines, 1) if not line.has_limit())
        raise DivergentLimitError(e, f"[f, g]({e:+d}) lines {diverging} of 6 diverge; sum: {exc.detail}") from None


def _reference_general_reduction(f, g, e, params):
    _, _, *rest = _germ_lines(germ_at(f, e), germ_at(g, e), params)
    head = concomitant_with_one(f, e, params) * value_at(g, e) - concomitant_with_one(g, e, params) * value_at(f, e)
    return head + sum(rest[1:], rest[0]).limit()


def _reference_log_probe_reduction(f, e, params):
    fg = germ_at(f, e)
    _, _, line3, _, *rest = _germ_lines(fg, germ_at(log_probe(e, params), e), params)
    near, far = con._near_far(e, params)
    return e * (32 * near + 12 * far - 16) * value_at(f, e) + sum(rest, line3 + fg.derivative(1) * 32).limit()


def _kernel_input(kind, p, q, poles, endpoint):
    return _pole_input(p, q, poles, endpoint) if kind == "pole" else _endpoint_input(kind, p, q, endpoint)


kernel_kinds = st.sampled_from(["global", "piecewise", "log", "pole"])
poles = st.tuples(st.integers(1, 3), st.integers(1, 3))


@given(kernel_kinds, kernel_kinds, small_polys, small_polys, small_polys, small_polys, poles, poles, endpoints,
       st.sampled_from(PARAM_PAIRS))
@settings(max_examples=60, deadline=None)
def test_bracket_kernel_matches_the_germ_line_sum(kind_f, kind_g, p, q, r, s, f_poles, g_poles, e, params):
    """Principal parts against built germ lines: `product_limit` on the lines of [f, g] and on
    the reductions' lines j >= 1 gives the built lines' sum's limit, or raises its
    DivergentLimitError; `concomitant` and both reductions give the reference's value or its
    DivergentLimitError."""
    f, g = _kernel_input(kind_f, p, q, f_poles, e), _kernel_input(kind_g, r, s, g_poles, e)
    for a, b in ((f, g), (f, f)):
        factors = con._line_factors(germ_at(a, e), germ_at(b, e), params)
        for subset in (factors, factors[2:]):
            assert _outcome(lambda: product_limit(subset)) == _outcome(_line_sum(subset).limit)
        for read, reference in (
            (lambda: concomitant(a, b, e, params), lambda: _reference_concomitant(a, b, e, params)),
            (lambda: general_endpoint_reduction(a, b, e, params),
             lambda: _reference_general_reduction(a, b, e, params)),
            (lambda: log_probe_reduction(a, e, params), lambda: _reference_log_probe_reduction(a, e, params)),
        ):
            assert _outcome(read) == _outcome(reference)


def test_germ_memos_are_keyed_by_params():
    p1, p2 = KrallParams(1, 2), KrallParams(Fraction(1, 3), Fraction(7, 2))
    for f in (X, X * X, log_probe(1, p1)):
        g = germ_at(f, 1)
        b1, b2 = con._germ_chain(g, p1)[-1], con._germ_chain(g, p2)[-1]
        assert b1 != b2
        assert b2 == con._germ_chain.__wrapped__(LogGerm(1, dict(g.terms)), p2)[-1]
    g = germ_at(X * X, -1)
    assert quasi_derivative(g, p1) != quasi_derivative(g, p2)
    assert quasi_derivative(g, p2) == con._germ_chain.__wrapped__(LogGerm(-1, dict(g.terms)), p2)[-2]


scalars = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 3))


def endpoint_sums(params):
    """Sums of global, one-sided, log-bearing functions and scaled log probes.

    Smooth functions have Lam = 0 at both endpoints, so without the probes of
    `params` (Lam = 32 at their endpoint) few convergent brackets would be
    nonzero.
    """
    single = st.one_of(
        small_polys,
        st.builds(EndpointFn.poly_near, endpoints, small_polys),
        st.builds(lambda e, p, k: EndpointFn.log_poly_near(e, p * WEIGHT**k), endpoints, small_polys, st.integers(0, 3)),
        st.builds(lambda e, c: log_probe(e, params) * c, endpoints, scalars),
    )
    return st.lists(single, min_size=1, max_size=3).map(lambda fs: sum(fs[1:], fs[0]))


def _bracket_or_none(f, g, endpoint, params):
    try:
        return concomitant(f, g, endpoint, params)
    except DivergentLimitError:
        return None


@given(st.sampled_from(PARAM_PAIRS), endpoints, st.data())
@settings(max_examples=40, deadline=None)
def test_concomitant_is_antisymmetric(params, endpoint, data):
    f, g = data.draw(endpoint_sums(params)), data.draw(endpoint_sums(params))
    fg, gf = _bracket_or_none(f, g, endpoint, params), _bracket_or_none(g, f, endpoint, params)
    assert (fg is None) == (gf is None)
    if fg is not None:
        assert fg == -gf


@given(st.sampled_from(PARAM_PAIRS), endpoints, scalars, scalars, st.data())
@settings(max_examples=40, deadline=None)
def test_concomitant_is_linear_in_f(params, endpoint, a, b, data):
    f1, f2, g = (data.draw(endpoint_sums(params)) for _ in range(3))
    b1, b2 = _bracket_or_none(f1, g, endpoint, params), _bracket_or_none(f2, g, endpoint, params)
    combined = _bracket_or_none(f1 * a + f2 * b, g, endpoint, params)
    if b1 is not None and b2 is not None:
        assert combined == a * b1 + b * b2
    elif b1 is not None or b2 is not None:
        # a convergent bracket plus a divergent one diverges
        assert combined is None


def test_greens_formula_seeded():
    polys = seeded(40, seed=17)
    for params in PARAM_PAIRS:
        for i in range(0, 40, 2):
            lhs, rhs = greens_formula_check(polys[i], polys[i + 1], params)
            assert lhs == rhs
    f = polys[0]
    lhs, rhs = greens_formula_check(f, f, KrallParams(1, 1))
    assert lhs == 0 and rhs == 0


def test_bracket_with_one_closed_forms():
    params = KrallParams(1, 1)
    assert concomitant_with_one(Poly.one(), 1, params) == 0
    assert concomitant_with_one(X * X, 1, params) == -144
    assert reduced_concomitant(X * X, 1, 1, params) == -144
    params = KrallParams(1, 2)
    assert concomitant_with_one(X, -1, params) == -24 * (params.B + 1)
    for f in seeded(10, seed=29):
        for e in (-1, 1):
            direct = concomitant_with_one(f, e, params)
            assert direct == reduced_concomitant(f, 1, e, params)
            assert direct == concomitant(f, Poly.one(), e, params)


def test_pair_closed_form_on_reduced_domain():
    params = KrallParams(Fraction(3, 2), Fraction(5, 2))
    polys = seeded(10, seed=31)
    for i in range(0, 10, 2):
        f, g = polys[i], polys[i + 1]
        for e in (-1, 1):
            assert concomitant(f, g, e, params) == reduced_concomitant(f, g, e, params)


def test_weight_reductions():
    params = KrallParams(1, 2)
    w = WEIGHT
    w2 = WEIGHT**2
    for f in seeded(6, seed=37):
        for e in (-1, 1):
            assert concomitant(f, w, e, params) == bracket_weight_reduction(f, e, params)
            assert concomitant(f, w2, e, params) == bracket_weight_sq_reduction(f, e, params)
    # for the log probe: [h, w](1) = 2*32 - 48(A+2)*0 = 64
    assert concomitant(log_probe(1, params), w, 1, params) == 64
    assert symplectic_form(log_probe(1, params), weight_near(1), params) == 64


def test_general_endpoint_reduction():
    params = KrallParams(1, 2)
    cases = [
        (X, log_probe(1, params)),
        (log_probe(1, params), WEIGHT),
        (seeded(1, seed=43)[0], seeded(1, seed=44)[0]),
    ]
    for f, g in cases:
        for e in (-1, 1):
            assert concomitant(f, g, e, params) == general_endpoint_reduction(f, g, e, params)


def test_log_probe_reduction_constants():
    """Constant (32A+12B-16) at +1 and -(32B+12A-16) at -1, residual +32 f'."""
    for params in PARAM_PAIRS:
        for f in (X, X * X, Poly([1, 0, 0, 2])):
            for e in (-1, 1):
                direct = concomitant(f, log_probe(e, params), e, params)
                assert direct == log_probe_reduction(f, e, params)
    # for f = x at +1 the formula is (32A+12B-16) + 32
    params = KrallParams(1, 1)
    assert concomitant(X, log_probe(1, params), 1, params) == (32 + 12 - 16) + 32


def test_maximal_domain_suite_rows_pass():
    params = KrallParams(1, 2)
    functions = [
        Poly.one(),
        WEIGHT**3,
        log_probe(1, params),
        log_probe(-1, params),
        quasi_probe(1, params),
        one_near(-1),
    ] + seeded(4, seed=47)
    for i, f in enumerate(functions):
        for case in _maximal_domain_cases(f, params, f"f{i}"):
            assert case.verdict == "pass", case.name


@pytest.mark.parametrize("params", [KrallParams(1, 2), KrallParams(Fraction(1, 3), Fraction(7, 2))])
def test_polynomial_and_its_germ_pair_agree(params):
    """A Poly reads its record directly and its values by evaluation; its germ
    pair reaches the record through each germ and its values as germ limits."""
    polys = seeded(8, seed=71, max_degree=8)
    for p, q in zip(polys[::2], polys[1::2]):
        pair_p, pair_q = (EndpointFn(germ_at(f, -1), germ_at(f, 1)) for f in (p, q))
        for e in (-1, 1):
            for f, g in ((pair_p, pair_q), (p, pair_q), (pair_p, q)):
                assert concomitant(f, g, e, params) == concomitant(p, q, e, params)
                assert reduced_concomitant(f, g, e, params) == reduced_concomitant(p, q, e, params)
                assert general_endpoint_reduction(f, g, e, params) == general_endpoint_reduction(p, q, e, params)
            assert concomitant_with_one(pair_p, e, params) == concomitant_with_one(p, e, params)
            assert quasi_derivative_at(pair_p, e, params) == quasi_derivative_at(p, e, params)
            assert log_probe_reduction(pair_p, e, params) == log_probe_reduction(p, e, params)


def test_reduced_domain_membership():
    params = KrallParams(1, 2)
    ok, witness = in_reduced_domain(seeded(1, seed=53)[0], params)
    assert ok and witness[1] == 0 and witness[-1] == 0
    ok, witness = in_reduced_domain(log_probe(1, params), params)
    assert not ok and witness[1] == 32
    ok, _ = in_reduced_domain(WEIGHT**2, params)
    assert ok


def test_separated_domain_membership():
    params = KrallParams(1, 2)
    assert in_separated_domain(WEIGHT**3, params)
    assert in_separated_domain(Poly.one(), params)
    assert not in_separated_domain(X, params)
    assert in_separated_domain(one_near(1), params)


def test_log_probe_constant_by_independent_symbolic_route():
    """Lam[h](+-1) = 8 + 24 = 32 by sympy's own calculus and limits.

    The quasi-derivative and the concomitant are written out here from their
    defining formulas (the `krall6.concomitant` docstring) with symbolic A, B,
    and differentiated and limited by sympy, not by the germ algebra.  The
    probe's shape is forced: the ln-coefficient of [f, (a w^2 + b w) ln w] at
    +1 (-1) vanishes only at a/b = (A+2)/4 ((B+2)/4), so the stated 24 cannot
    come from a differently shaped probe, only from dropping the -(Q f''')'
    summand.
    """
    sp = pytest.importorskip("sympy")
    x, A, B, a, b, L = sp.symbols("x A B a b L")
    w = 1 - x**2
    alpha = 3 * A + 3 * B + 6
    Q, P = w**3, w * (12 + alpha * w)
    pi = (-6 * A - 6 * B - 12 * A * B) * x**2 + (12 * A - 12 * B) * x + 12 * A * B + 18 * A + 18 * B + 24

    def d(f, k=1):
        return sp.diff(f, x, k)

    def lam_terms(f):
        return -d(Q * d(f, 3)), P * d(f, 2)

    def bracket(f, g):
        def with_one(u):
            return -d(Q * d(u, 3), 2) + d(P * d(u, 2)) - pi * d(u)

        lam_f, lam_g = sum(lam_terms(f)), sum(lam_terms(g))
        return (
            with_one(f) * g - with_one(g) * f - lam_f * d(g) + lam_g * d(f)
            - Q * (d(f, 3) * d(g, 2) - d(f, 2) * d(g, 3))
        )

    for e, c in ((1, A), (-1, B)):
        h = (sp.Rational(1, 8) * (c + 2) * w**2 + sp.Rational(1, 2) * w) * sp.log(w)
        side = "-" if e == 1 else "+"
        q_limit, p_limit = (Fraction(str(sp.limit(sp.factor(t), x, e, side))) for t in lam_terms(h))
        assert (q_limit, p_limit) == (8, 24)
        for params in PARAM_PAIRS:
            probe = log_probe(e, params)
            assert quasi_derivative_terms_at(probe, e, params) == (q_limit, p_limit)
            assert quasi_derivative_at(probe, e, params) == q_limit + p_limit

        # the shape: only a/b = (c+2)/4 removes the ln divergence of [f, h](e)
        h = (a * w**2 + b * w) * sp.log(w)
        for f in (sp.Integer(1), x, x**2):
            expanded = sp.expand(bracket(f, h).subs(sp.log(w), L))
            assert expanded.coeff(L, 2) == 0
            ln_coefficient = sp.cancel(expanded.coeff(L, 1))
            assert ln_coefficient.is_polynomial(x)
            assert sp.solve(ln_coefficient.subs(x, e), a) == [b * (c + 2) / 4]


def test_divergent_antisymmetry_pair_is_reported_inconclusive(monkeypatch):
    from krall6.suites import RunConfig, suite_concomitant

    config = RunConfig(A=1, B=2)
    before = {c.name: c for c in suite_concomitant(config).cases}
    real = con.concomitant
    minus, plus = one_near(-1), one_near(1)

    def diverging(f, g, endpoint, params):
        if endpoint == 1 and isinstance(f, EndpointFn) and f == minus and g == plus:
            raise DivergentLimitError(1, "forced")
        return real(f, g, endpoint, params)

    monkeypatch.setattr(con, "concomitant", diverging)
    after = {c.name: c for c in suite_concomitant(config).cases}
    name = "antisymmetry:one-near-minus|one-near-plus:e=+1"
    assert before[name].verdict == "pass"
    assert after[name].verdict == "inconclusive"
    assert after[name].witness == (
        "[one-near-minus, one-near-plus](+1) not in checkable class: divergent limit at +1: forced"
    )
    assert set(after) == set(before)
    assert [n for n in before if after[n] != before[n]] == [name]


def test_germ_memos_under_threads():
    params = KrallParams(Fraction(1, 3), Fraction(7, 2))
    polys = seeded(6, seed=23, max_degree=7)
    keys = [(p, e) for p in polys for e in (-1, 1)]
    expected = [
        (
            con._germ_chain.__wrapped__(LogGerm.from_poly(p, e), params)[-1].limit(),
            con._germ_chain.__wrapped__(LogGerm.from_poly(p, e), params)[-2].limit(),
        )
        for p, e in keys
    ]
    for memo in (_derivative, con._germ_chain, con._endpoint_values, con._poly_records):
        memo.cache_clear()
    errors = []

    def worker(offset):
        try:
            for k in range(len(keys)):
                j = (k + offset) % len(keys)
                p, e = keys[j]
                germ = germ_at(p, e)
                got = (concomitant_with_one(p, e, params), quasi_derivative(germ, params).limit())
                assert got == expected[j]
                d, _, quasi = con._endpoint_values(germ, params)
                assert (Fraction(quasi[0], d), -Fraction(quasi[1], d)) == expected[j]
        except AssertionError as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
