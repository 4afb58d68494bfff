"""Point-mass-weighted inner products and the extended space L2(-1,1) (+) C2.

The weighted inner product on polynomials is

    (f, g) = f(-1) g(-1) / A  +  integral_{-1}^{1} f g dx  +  f(1) g(1) / B,

exactly the measure under which the degree-n eigenpolynomials of the
sixth-order expression are orthogonal.  `mu_inner` is the equal-jump (B = A)
special case matching the fourth-order Legendre-type instance.

The form is bilinear over the moments of the measure (the integral of x^k
is 2/(k+1) for even k, 0 for odd k, plus (-1)^k/A and 1/B), so no product
f g is built: `kappa_moments` gives (f, x^k) for k below a count as ints
over one denominator, from `Poly.moments` and f(-1), f(1), and (f, g) is
one integer dot product of g's numerators with them and one Fraction
(`Poly.integrate_against`).  `gram_matrix` computes one such vector per K_n
and `expansion_coefficients` one per call, then only dot products.

The extended space pairs a function with two endpoint coordinates:
(f, a, b) with inner product a1*a2/A + integral f g + b1*b2/B; the endpoint
part alone is `w_inner`.  `ExtendedVector` is the one type for its vectors
throughout the library (`ExtendedVector.plain(f)` is (f, 0, 0)).  `embed` sends
f to (f, f(-1), f(1)) and is an isometry onto its image:
extended_inner(embed f, embed g) = kappa_inner(f, g).

Inner products integrate over the whole interval, so they are only defined
for polynomials (a `Poly`, or an exact scalar as a constant); an `EndpointFn`
raises `UnspecifiedInteriorError` (its middle is deliberately unrepresented).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .germs import EndpointFn, _as_global_poly, _as_poly, value_at
from .operator import KrallParams, eigen_polynomial
from .polynomials import Poly, Scalar, as_fraction
from .values import Value

_set = object.__setattr__


def kappa_moments(f: Poly, count: int, params: KrallParams) -> tuple[list[int], int]:
    """(mu, den) with mu[k] / den = kappa(f, x^k) for k < count: the moments of f against
    the measure, ints over one denominator, so kappa(f, g) = g.integrate_against((mu, den))
    for any g of degree below `count`.  f is evaluated at -1 and +1 once."""
    nu, den = f.moments(count)
    lo, hi = f(-1) / params.A, f(1) / params.B
    common = math.lcm(den, lo.denominator, hi.denominator)
    scale = common // den
    lo, hi = lo.numerator * (common // lo.denominator), hi.numerator * (common // hi.denominator)
    # kappa(f, x^k) = f(-1) (-1)^k / A + integral x^k f + f(1) / B
    return [v * scale + (hi - lo if k % 2 else hi + lo) for k, v in enumerate(nu)], common


def kappa_inner(f, g, params: KrallParams) -> Fraction:
    """Jump 1/A at -1, Lebesgue on (-1,1), jump 1/B at +1.  Exact."""
    fp = _as_global_poly(f, "kappa_inner")
    gp = _as_global_poly(g, "kappa_inner")
    return gp.integrate_against(kappa_moments(fp, (gp.degree or 0) + 1, params))


def mu_inner(f, g, A: Scalar) -> Fraction:
    """Equal jumps 1/A at both endpoints (fourth-order instance's measure)."""
    A = as_fraction(A)
    return kappa_inner(f, g, KrallParams(A, A))


class ExtendedVector(Value):
    """(f, a, b) in L2(-1,1) (+) C2; a sits at the -1 slot, b at +1."""

    __slots__ = _fields = ("fn", "a", "b")

    def __init__(self, fn: Poly | EndpointFn, a: Scalar, b: Scalar):
        _set(self, "fn", fn)
        _set(self, "a", as_fraction(a))
        _set(self, "b", as_fraction(b))

    @staticmethod
    def plain(fn) -> "ExtendedVector":
        """(fn, 0, 0): a function with no endpoint part."""
        return ExtendedVector(fn, 0, 0)


def embed(f) -> ExtendedVector:
    """f |-> (f, f(-1), f(1)) for an EndpointFn or a polynomial (an exact scalar is a constant)."""
    if not isinstance(f, EndpointFn):
        f = _as_poly(f)
    return ExtendedVector(f, value_at(f, -1), value_at(f, 1))


def w_inner(u: tuple, v: tuple, params: KrallParams) -> Fraction:
    """<(a,b),(a',b')> = a a'/A + b b'/B on the endpoint part C2."""
    return u[0] * v[0] / params.A + u[1] * v[1] / params.B


def extended_inner(u: ExtendedVector, v: ExtendedVector, params: KrallParams) -> Fraction:
    """a1*a2/A + integral f g + b1*b2/B, exact (function parts global)."""
    fp = _as_global_poly(u.fn, "extended_inner")
    gp = _as_global_poly(v.fn, "extended_inner")
    return fp.integrate_product(gp) + w_inner((u.a, u.b), (v.a, v.b), params)


def gram_matrix(n_max: int, params: KrallParams) -> list[list[Fraction]]:
    """Gram matrix of the monic eigenpolynomials K_0..K_{n_max} under kappa, which is
    symmetric: the upper triangle, computed once and mirrored.  Row m takes one
    `kappa_moments` vector of K_m, and entry (m, n) is the dot product of K_n's
    numerators with it, one Fraction each: every K_n is evaluated at -1 and +1 once,
    not once per pair, and no product is built."""
    if n_max < 0:
        raise ValueError("nmax must be non-negative")
    polys = [eigen_polynomial(n, params) for n in range(n_max + 1)]
    upper = []
    for m, k_m in enumerate(polys):
        moments = kappa_moments(k_m, n_max + 1, params)
        upper.append([k_n.integrate_against(moments) for k_n in polys[m:]])
    return [[upper[n][m - n] for n in range(m)] + row for m, row in enumerate(upper)]


def expansion_coefficients(f: Poly, params: KrallParams) -> list[Fraction]:
    """Orthogonal-projection coefficients of f onto K_0..K_{deg f}: kappa(f, K_n) from
    one `kappa_moments` vector of f, over the memoised kappa(K_n, K_n)."""
    f = _as_global_poly(f, "expansion_coefficients")
    if f.is_zero():
        return []
    moments = kappa_moments(f, f.degree + 1, params)
    return [
        eigen_polynomial(n, params).integrate_against(moments) / _squared_norm(n, params)
        for n in range(f.degree + 1)
    ]


@functools.lru_cache(maxsize=4096)
def _squared_norm(n: int, params: KrallParams) -> Fraction:
    """kappa(K_n, K_n), memoised per (n, params) like `eigen_polynomial`."""
    k_n = eigen_polynomial(n, params)
    return kappa_inner(k_n, k_n, params)


def expansion_reconstruction(f: Poly, params: KrallParams) -> Poly:
    """Sum of the projections through degree(f); equals f iff expansion is exact."""
    acc = Poly()
    for n, c in enumerate(expansion_coefficients(f, params)):
        acc = acc + c * eigen_polynomial(n, params)
    return acc
