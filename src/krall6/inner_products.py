"""Point-mass-weighted inner products and the extended space L2(-1,1) (+) C2.

The weighted inner product on polynomials is

    (f, g) = f(-1) g(-1) / A  +  integral_{-1}^{1} f g dx  +  f(1) g(1) / B,

exactly the measure under which the degree-n eigenpolynomials of the
sixth-order expression are orthogonal.  `mu_inner` is the equal-jump (B = A)
special case matching the fourth-order Legendre-type instance.

The extended space pairs a function with two endpoint coordinates:
(f, a, b) with inner product a1*a2/A + integral f g + b1*b2/B; the endpoint
part alone is `w_inner`.  `ExtendedVector` is the one type for its vectors
throughout the library (`ExtendedVector.plain(f)` is (f, 0, 0)).  `embed` sends
f to (f, f(-1), f(1)) and is an isometry onto its image:
extended_inner(embed f, embed g) = kappa_inner(f, g).

Inner products integrate over the whole interval, so they are only defined
for global polynomials; piecewise endpoint functions raise
`UnspecifiedInteriorError` (their middles are deliberately unrepresented).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .germs import EndpointFn
from .operator import KrallParams, eigen_polynomial
from .polynomials import Poly, Scalar, as_fraction


def _as_global_poly(f, operation: str) -> Poly:
    if isinstance(f, Poly):
        return f
    if isinstance(f, EndpointFn):
        return f.require_global(operation)
    if isinstance(f, (int, Fraction)):
        return Poly([f])
    raise TypeError(f"{operation} expects a polynomial")


def kappa_inner(f, g, params: KrallParams) -> Fraction:
    """Jump 1/A at -1, Lebesgue on (-1,1), jump 1/B at +1.  Exact."""
    fp = _as_global_poly(f, "kappa_inner")
    gp = _as_global_poly(g, "kappa_inner")
    return (
        fp(-1) * gp(-1) / params.A
        + (fp * gp).integrate_unit_interval()
        + fp(1) * gp(1) / params.B
    )


def mu_inner(f, g, A: Scalar) -> Fraction:
    """Equal jumps 1/A at both endpoints (fourth-order instance's measure)."""
    A = as_fraction(A)
    return kappa_inner(f, g, KrallParams(A, A))


@dataclass(frozen=True)
class ExtendedVector:
    """(f, a, b) in L2(-1,1) (+) C2; a sits at the -1 slot, b at +1."""

    fn: Union[Poly, EndpointFn]
    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", as_fraction(self.a))
        object.__setattr__(self, "b", as_fraction(self.b))

    @staticmethod
    def plain(fn) -> "ExtendedVector":
        """(fn, 0, 0): a function with no endpoint part."""
        return ExtendedVector(fn, 0, 0)


def embed(f) -> ExtendedVector:
    """f |-> (f, f(-1), f(1))."""
    if isinstance(f, Poly):
        return ExtendedVector(f, f(-1), f(1))
    if isinstance(f, EndpointFn):
        return ExtendedVector(f, f.value_at(-1), f.value_at(1))
    raise TypeError("embed expects a Poly or EndpointFn")


def w_inner(u: tuple, v: tuple, params: KrallParams) -> Fraction:
    """<(a,b),(a',b')> = a a'/A + b b'/B on the endpoint part C2."""
    return u[0] * v[0] / params.A + u[1] * v[1] / params.B


def extended_inner(u: ExtendedVector, v: ExtendedVector, params: KrallParams) -> Fraction:
    """a1*a2/A + integral f g + b1*b2/B, exact (function parts global)."""
    fp = _as_global_poly(u.fn, "extended_inner")
    gp = _as_global_poly(v.fn, "extended_inner")
    return (fp * gp).integrate_unit_interval() + w_inner((u.a, u.b), (v.a, v.b), params)


def gram_matrix(n_max: int, params: KrallParams) -> list[list[Fraction]]:
    """Gram matrix of the monic eigenpolynomials K_0..K_{n_max} under kappa."""
    polys = [eigen_polynomial(n, params) for n in range(n_max + 1)]
    return [[kappa_inner(pm, pn, params) for pn in polys] for pm in polys]


def expansion_coefficients(f: Poly, params: KrallParams) -> list[Fraction]:
    """Orthogonal-projection coefficients of f onto K_0..K_{deg f}."""
    if f.is_zero():
        return []
    out = []
    for n in range(f.degree + 1):
        k_n = eigen_polynomial(n, params)
        out.append(kappa_inner(f, k_n, params) / kappa_inner(k_n, k_n, params))
    return out


def expansion_reconstruction(f: Poly, params: KrallParams) -> Poly:
    """Sum of the projections through degree(f); equals f iff expansion is exact."""
    acc = Poly()
    for n, c in enumerate(expansion_coefficients(f, params)):
        acc = acc + c * eigen_polynomial(n, params)
    return acc
