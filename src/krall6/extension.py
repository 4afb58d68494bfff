"""The self-adjoint operator in the extended space L2(-1,1) (+) C2.

The two-dimensional extension space W carries the weighted inner product
<(a,b),(a',b')> = a a'/A + b b'/B, positive definite for A, B > 0.  Its
orthonormal basis is (sqrt A, 0), (0, sqrt B); those square roots are never
materialized -- every quantity this module produces is rational because the
basis factors cancel (e.g. the boundary-coupling map Omega lands directly in
standard coordinates).

Building blocks:

  * `omega(f)  = (-A [f,1](-1), B [f,1](+1))` -- the boundary coupling map;
  * `extended_symplectic(u, v) = [f,g]_H - <Omega f, w_v> + <w_u, Omega g>`
    where [f,g]_H = [f,g](1) - [f,g](-1) is the base symplectic form;
  * GKN verification: a candidate family is admissible when all pairwise
    extended brackets vanish (`gkn_symmetry_check`) and is certified linearly
    independent modulo the minimal domain by a nonsingular probe matrix
    (`independence_certificate`); a singular matrix is Inconclusive, never
    "dependent", because minimal-domain membership is not computable from
    germs;
  * the operator domain: (f, a, b) belongs iff the four brackets against the
    boundary-condition functions vanish; equivalently a = f(-1), b = f(1) and
    the quasi-derivative of f vanishes at both endpoints
    (`domain_membership` computes both routes and insists they agree);
  * the operator itself: (f, a, b) |-> (l[f], -Omega f), which on the domain
    equals the explicit endpoint form
    (l[f], 24A f''(-1) - 24A(B+1) f'(-1), 24B f''(1) + 24B(A+1) f'(1));
    `apply_extended` computes both and insists they agree;
  * the eigenvectors: embedded eigenpolynomials, (K_n, K_n(-1), K_n(1)),
    with eigenvalue lambda_n, verified componentwise by `eigen_verify`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from . import linalg
from .concomitant import (
    boundary_condition_functions,
    concomitant_with_one,
    quasi_derivative_at,
    symplectic_form,
)
from .germs import EndpointFn
from .inner_products import ExtendedVector, embed, extended_inner, gram_matrix
from .operator import KrallParams, apply_expression, eigen_polynomial, eigenvalue
from .polynomials import Poly, Scalar, as_fraction, format_rational


class NotInDomainError(ValueError):
    """The extended vector fails the operator's boundary conditions."""


@dataclass(frozen=True)
class WVector:
    """A vector of the extension space in standard coordinates."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", as_fraction(self.a))
        object.__setattr__(self, "b", as_fraction(self.b))

    @staticmethod
    def zero() -> "WVector":
        return WVector(Fraction(0), Fraction(0))

    def __add__(self, other: "WVector") -> "WVector":
        return WVector(self.a + other.a, self.b + other.b)

    def __neg__(self) -> "WVector":
        return WVector(-self.a, -self.b)

    def scaled(self, c: Scalar) -> "WVector":
        c = as_fraction(c)
        return WVector(c * self.a, c * self.b)


def w_inner(u: WVector, v: WVector, params: KrallParams) -> Fraction:
    """<(a,b),(a',b')> = a a'/A + b b'/B."""
    return u.a * v.a / params.A + u.b * v.b / params.B


def psi_standard_tag(alpha1: Scalar, alpha2: Scalar) -> tuple[str, str]:
    """Symbolic standard coordinates of the seed-pair combination
    f0 + alpha1 t1 + alpha2 t2.

    In orthonormal-basis coordinates the image is just (alpha1, alpha2); the
    standard coordinates (alpha1 sqrt A, alpha2 sqrt B) may be irrational, so
    they are available only as this tag.
    """
    return (
        f"{format_rational(as_fraction(alpha1))}*sqrt(A)",
        f"{format_rational(as_fraction(alpha2))}*sqrt(B)",
    )


def omega(f, params: KrallParams) -> WVector:
    """Omega f = (-A [f,1](-1), B [f,1](+1)); exact and fully rational."""
    return WVector(
        -params.A * concomitant_with_one(f, -1, params),
        params.B * concomitant_with_one(f, 1, params),
    )


FnLike = Union[Poly, EndpointFn]


@dataclass(frozen=True)
class GknCandidate:
    """A maximal-domain function paired with an extension-space vector."""

    fn: FnLike
    w: WVector

    @staticmethod
    def plain(fn: FnLike) -> "GknCandidate":
        return GknCandidate(fn, WVector.zero())


def extended_symplectic(u: GknCandidate, v: GknCandidate, params: KrallParams) -> Fraction:
    """[(f,w_u),(g,w_v)] = [f,g]_H - <Omega f, w_v> + <w_u, Omega g>."""
    base = symplectic_form(u.fn, v.fn, params)
    correction = -w_inner(omega(u.fn, params), v.w, params) + w_inner(u.w, omega(v.fn, params), params)
    return base + correction


def gkn_symmetry_check(candidates: Sequence[GknCandidate], params: KrallParams) -> dict:
    """All pairwise extended brackets; admissible iff every one is zero."""
    n = len(candidates)
    values = [
        [extended_symplectic(candidates[i], candidates[j], params) for j in range(n)]
        for i in range(n)
    ]
    return {"brackets": values, "all_zero": all(v == 0 for row in values for v in row)}


@dataclass(frozen=True)
class IndependenceCertificate:
    """Nonsingular probe matrix certifying independence modulo the minimal domain."""

    matrix: tuple
    det: Fraction
    conclusive: bool

    def rows(self) -> list[list[Fraction]]:
        return [list(r) for r in self.matrix]


def independence_certificate(
    candidates: Sequence[GknCandidate],
    probes: Sequence[GknCandidate],
    params: KrallParams,
) -> IndependenceCertificate:
    """Probe-matrix certificate M[i][j] = bracket(probe_i, candidate_j).

    Any combination of candidates lying in the minimal domain brackets to
    zero against every maximal-domain probe, so a nonsingular M proves
    linear independence modulo the minimal domain.  A singular M proves
    nothing (conclusive=False), never dependence.
    """
    if len(probes) != len(candidates):
        raise ValueError("need exactly one probe per candidate")
    matrix = [
        [extended_symplectic(p, c, params) for c in candidates]
        for p in probes
    ]
    det = linalg.determinant(matrix)
    return IndependenceCertificate(tuple(tuple(r) for r in matrix), det, det != 0)


# ---------------------------------------------------------------------------
# the operator domain and the operator
# ---------------------------------------------------------------------------


def boundary_condition_values(u: ExtendedVector, params: KrallParams) -> list[Fraction]:
    """The four defining brackets of (f,a,b) against the boundary functions.

    Expanded, the four values are
        192 f(1) - 192 b,
        192 f(-1) - 192 a,
        2 Lam[f](1) - 48(A+2) f(1) + 48 b (A+2),
        2 Lam[f](-1) - 48(B+2) f(-1) + 48 a (B+2),
    and membership means all four vanish.
    """
    uu = GknCandidate(u.fn, WVector(u.a, u.b))
    return [
        extended_symplectic(uu, GknCandidate.plain(y), params)
        for y in boundary_condition_functions(params)
    ]


def domain_membership(u: ExtendedVector, params: KrallParams) -> tuple[bool, dict]:
    """Membership of (f,a,b) by the four brackets, cross-checked.

    The reduced route (a = f(-1), b = f(1), quasi-derivative vanishing) must
    agree with the direct route; disagreement is an internal error.
    """
    direct = boundary_condition_values(u, params)
    direct_ok = all(v == 0 for v in direct)
    f = EndpointFn.from_poly(u.fn)
    lam_minus = quasi_derivative_at(f, -1, params)
    lam_plus = quasi_derivative_at(f, 1, params)
    reduced_ok = (
        u.a == f.value_at(-1)
        and u.b == f.value_at(1)
        and lam_minus == 0
        and lam_plus == 0
    )
    if direct_ok != reduced_ok:
        raise AssertionError(
            f"membership routes disagree: direct={direct}, reduced="
            f"(a-match={u.a == f.value_at(-1)}, b-match={u.b == f.value_at(1)}, "
            f"lam=({lam_minus},{lam_plus}))"
        )
    witness = {
        "conditions": direct,
        "lam_minus": lam_minus,
        "lam_plus": lam_plus,
        "a_matches": u.a == f.value_at(-1),
        "b_matches": u.b == f.value_at(1),
    }
    return direct_ok, witness


def apply_extended(u: ExtendedVector, params: KrallParams, check_domain: bool = True) -> ExtendedVector:
    """Apply the extended operator: (f,a,b) |-> (l[f], -Omega f).

    Both the -Omega form and the explicit endpoint-derivative form are
    computed and must agree.  `check_domain=False` skips the membership
    check and is intended for negative testing only.
    """
    if check_domain:
        ok, witness = domain_membership(u, params)
        if not ok:
            raise NotInDomainError(f"boundary conditions violated: {witness['conditions']}")
    f = EndpointFn.from_poly(u.fn)
    image_fn = apply_expression(u.fn, params)

    om = omega(f, params)
    via_omega = (-om.a, -om.b)
    d1m = f.derivative(1).value_at(-1)
    d2m = f.derivative(2).value_at(-1)
    d1p = f.derivative(1).value_at(1)
    d2p = f.derivative(2).value_at(1)
    explicit_a = 24 * params.A * d2m - 24 * params.A * (params.B + 1) * d1m
    explicit_b = 24 * params.B * d2p + 24 * params.B * (params.A + 1) * d1p
    if check_domain and (via_omega[0] != explicit_a or via_omega[1] != explicit_b):
        raise AssertionError(
            f"operator forms disagree: -Omega={via_omega}, explicit=({explicit_a},{explicit_b})"
        )
    return ExtendedVector(image_fn, via_omega[0], via_omega[1])


def eigen_verify(n: int, params: KrallParams) -> dict:
    """Componentwise check that the embedded eigenpolynomial is an eigenvector."""
    k_n = eigen_polynomial(n, params)
    lam = eigenvalue(n, params)
    u = embed(k_n)
    image = apply_extended(u, params)
    fn_ok = image.fn.poly == lam * k_n if isinstance(image.fn, EndpointFn) else image.fn == lam * k_n
    return {
        "n": n,
        "eigenvalue": lam,
        "fn_ok": fn_ok,
        "a_ok": image.a == lam * u.a,
        "b_ok": image.b == lam * u.b,
        "a": image.a,
        "b": image.b,
    }


def operator_matrix(n_max: int, params: KrallParams) -> list[list[Fraction]]:
    """M[m][n] = <T embed(K_m), embed(K_n)> / <K_n, K_n>; diagonal = lambda.

    Precondition (checked): the Gram matrix of K_0..K_{n_max} is diagonal.
    """
    gram = gram_matrix(n_max, params)
    for i, row in enumerate(gram):
        for j, v in enumerate(row):
            if i != j and v != 0:
                raise AssertionError(f"Gram matrix not diagonal at ({i},{j})")
    polys = [eigen_polynomial(n, params) for n in range(n_max + 1)]
    images = [apply_extended(embed(p), params) for p in polys]
    out = []
    for m in range(n_max + 1):
        row = []
        for n in range(n_max + 1):
            row.append(extended_inner(images[m], embed(polys[n]), params) / gram[n][n])
        out.append(row)
    return out


def operator_symmetry_gap(u: ExtendedVector, v: ExtendedVector, params: KrallParams) -> Fraction:
    """<T u, v> - <u, T v>; zero on domain pairs."""
    tu = apply_extended(u, params)
    tv = apply_extended(v, params)
    return extended_inner(tu, v, params) - extended_inner(u, tv, params)
