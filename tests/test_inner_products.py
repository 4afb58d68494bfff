"""Weighted inner products, embedding, Gram matrices."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krall6 import inner_products
from krall6.germs import UnspecifiedInteriorError
from krall6.inner_products import (
    ExtendedVector,
    embed,
    expansion_coefficients,
    expansion_reconstruction,
    extended_inner,
    gram_matrix,
    kappa_inner,
    kappa_moments,
    mu_inner,
)
from krall6.concomitant import one_near
from krall6.operator import KrallParams, eigen_polynomial, legendre_type
from krall6.polynomials import Poly

PARAM_PAIRS = [KrallParams(1, 1), KrallParams(1, 2), KrallParams(Fraction(3, 2), Fraction(5, 2))]


def rand_poly(rng, max_degree=8):
    degree = rng.randint(0, max_degree)
    return Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree + 1)])


def ref_kappa(f, g, params):
    """kappa by the product route: build f g, then integrate it."""
    return f(-1) * g(-1) / params.A + (f * g).integrate_unit_interval() + f(1) * g(1) / params.B


def test_kappa_examples():
    assert kappa_inner(Poly.one(), Poly.one(), KrallParams(1, 1)) == 4
    assert kappa_inner(Poly.x(), Poly.one(), KrallParams(2, 2)) == 0
    params = KrallParams(1, 2)
    k0 = eigen_polynomial(0, params)
    k1 = eigen_polynomial(1, params)
    assert kappa_inner(k0, k1, params) == 0
    # the three-term breakdown: -6/7 + 2/7 + 4/7
    assert k1(-1) / params.A == Fraction(-6, 7)
    assert k1.integrate_unit_interval() == Fraction(2, 7)
    assert k1(1) / params.B == Fraction(4, 7)


def test_kappa_moments_are_kappa_against_monomials():
    rng = random.Random(17)
    for params in PARAM_PAIRS + [KrallParams(Fraction(1, 100), 3)]:
        for f in [Poly(), Poly([Fraction(-3, 4)])] + [rand_poly(rng) for _ in range(4)]:
            mu, den = kappa_moments(f, 6, params)
            assert [Fraction(v, den) for v in mu] == [ref_kappa(f, Poly.monomial(k), params) for k in range(6)]


def test_mu_examples():
    assert mu_inner(Poly.one(), Poly.one(), 1) == 4
    assert mu_inner(Poly.x(), Poly.one(), Fraction(7, 3)) == 0
    p0 = legendre_type(0, 2)[0]
    p1 = legendre_type(1, 2)[0]
    assert mu_inner(p1, p0, 2) == 0


def test_mu_is_kappa_with_equal_jumps():
    rng = random.Random(11)
    for _ in range(10):
        f, g = rand_poly(rng), rand_poly(rng)
        a = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        assert mu_inner(f, g, a) == kappa_inner(f, g, KrallParams(a, a))


def test_symmetry_bilinearity_positivity():
    rng = random.Random(5)
    params = KrallParams(Fraction(3, 2), Fraction(5, 2))
    for _ in range(10):
        f, g, h = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        assert kappa_inner(f, g, params) == kappa_inner(g, f, params)
        assert kappa_inner(f + c * h, g, params) == kappa_inner(f, g, params) + c * kappa_inner(h, g, params)
        if not f.is_zero():
            assert kappa_inner(f, f, params) > 0


def test_extended_inner_examples():
    params = KrallParams(1, 1)
    u = ExtendedVector(Poly.one(), 1, 1)
    assert extended_inner(u, u, params) == 4
    a = ExtendedVector(Poly(), 1, 0)
    b = ExtendedVector(Poly(), 0, 1)
    assert extended_inner(a, b, params) == 0
    assert extended_inner(a, a, KrallParams(2, 1)) == Fraction(1, 2)


def test_embed_examples_and_isometry():
    assert embed(Poly.one()) == ExtendedVector(Poly.one(), 1, 1)
    assert embed(Poly.x()) == ExtendedVector(Poly.x(), -1, 1)
    w = Poly([1, 0, -1])
    assert embed(w) == ExtendedVector(w, 0, 0)
    rng = random.Random(23)
    for params in PARAM_PAIRS:
        for _ in range(6):
            f, g = rand_poly(rng), rand_poly(rng)
            assert extended_inner(embed(f), embed(g), params) == kappa_inner(f, g, params)
    assert embed(one_near(1)) == ExtendedVector(one_near(1), 0, 1)
    for bad in ("x", None, 1.5, [1, 2]):
        with pytest.raises(TypeError):
            embed(bad)


def test_embed_reads_an_exact_scalar_as_a_constant():
    half = Fraction(1, 2)
    assert embed(half) == embed(Poly([half])) == ExtendedVector(Poly([half]), half, half)
    assert embed(3) == embed(Poly([3]))


@pytest.mark.parametrize("params", PARAM_PAIRS)
def test_gram_diagonal_positive(params):
    gram = gram_matrix(10, params)
    for m in range(11):
        for n in range(11):
            if m == n:
                assert gram[m][n] > 0
            else:
                assert gram[m][n] == 0


@pytest.mark.parametrize("params", PARAM_PAIRS + [KrallParams(Fraction(1, 100), 3)])
def test_gram_matrix_equals_both_triangles(params):
    # the matrix computes the upper triangle from moment vectors and mirrors it;
    # build both halves here by the product route
    for n_max in (0, 3, 8):
        polys = [eigen_polynomial(n, params) for n in range(n_max + 1)]
        assert gram_matrix(n_max, params) == [[ref_kappa(f, g, params) for g in polys] for f in polys]


def test_gram_matrix_rejects_a_negative_nmax():
    # an empty matrix would pass for the Gram matrix of no polynomials
    with pytest.raises(ValueError, match="^nmax must be non-negative$"):
        gram_matrix(-1, KrallParams(1, 2))


def test_deep_gram_matrix_matches_the_product_route():
    # K_0..K_32 at the spectral-deep parameters, entry by entry
    params = KrallParams(Fraction(1, 100), 3)
    polys = [eigen_polynomial(n, params) for n in range(33)]
    gram = gram_matrix(32, params)
    for m, f in enumerate(polys):
        for n, g in enumerate(polys):
            assert gram[m][n] == ref_kappa(f, g, params), (m, n)


@pytest.mark.parametrize("params", PARAM_PAIRS + [KrallParams(Fraction(1, 100), 3)])
def test_expansion_coefficients_match_the_product_route(params):
    rng = random.Random(31)
    for f in [Poly(), Poly([Fraction(2, 3)])] + [rand_poly(rng, 24) for _ in range(3)]:
        polys = [eigen_polynomial(n, params) for n in range((f.degree or 0) + 1)] if f else []
        want = [ref_kappa(f, k, params) / ref_kappa(k, k, params) for k in polys]
        assert expansion_coefficients(f, params) == want


def test_inner_products_build_no_product(monkeypatch):
    """The moment route: no `Poly.__mul__` in the Gram matrix, the expansions or kappa."""
    params = KrallParams(Fraction(1, 100), 3)
    for n in range(13):
        eigen_polynomial(n, params)  # warm the K_n memo, whose stencil multiplies
    inner_products._squared_norm.cache_clear()
    f, g = rand_poly(random.Random(3), 12), rand_poly(random.Random(4), 12)
    products = []
    real_mul = Poly.__mul__

    def counting(self, other):
        products.append((self, other))
        return real_mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting)
    gram_matrix(8, params)
    expansion_coefficients(f, params)
    kappa_inner(f, g, params)
    assert products == []


def test_gram_matrix_reads_each_endpoint_value_once(monkeypatch):
    params = KrallParams(Fraction(1, 100), 3)
    polys = [eigen_polynomial(n, params) for n in range(9)]
    points = []
    real_call = Poly.__call__

    def counting(self, point):
        points.append(point)
        return real_call(self, point)

    monkeypatch.setattr(Poly, "__call__", counting)
    gram_matrix(8, params)
    assert sorted(points) == [-1] * len(polys) + [1] * len(polys)


rationals = st.builds(Fraction, st.integers(-10**4, 10**4), st.integers(1, 10**3))


@given(
    st.lists(rationals, max_size=12).map(Poly),
    st.lists(rationals, max_size=12).map(Poly),
    st.builds(KrallParams, rationals.filter(bool).map(abs), rationals.filter(bool).map(abs)),
)
@settings(max_examples=80, deadline=None)
def test_kappa_is_exactly_symmetric(f, g, params):
    # the fact `gram_matrix` relies on to mirror its upper triangle
    assert kappa_inner(f, g, params) == kappa_inner(g, f, params)


def test_piecewise_functions_are_rejected():
    params = KrallParams(1, 1)
    with pytest.raises(UnspecifiedInteriorError):
        kappa_inner(one_near(1), Poly.one(), params)
    with pytest.raises(UnspecifiedInteriorError):
        extended_inner(ExtendedVector(one_near(1), 0, 1), embed(Poly.one()), params)


def test_expansion_reconstruction_exact():
    for params in PARAM_PAIRS:
        for f in (Poly.monomial(3), Poly.monomial(4) + Poly.x()):
            assert expansion_reconstruction(f, params) == f
