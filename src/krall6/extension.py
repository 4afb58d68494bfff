"""The self-adjoint operator in the extended space L2(-1,1) (+) C2.

Every vector of that space is an `inner_products.ExtendedVector` (f, a, b):
a maximal-domain function f with an endpoint part (a, b) in C2, which carries
the weighted inner product <(a,b),(a',b')> = a a'/A + b b'/B (`w_inner`),
positive definite for A, B > 0.  Its orthonormal basis is (sqrt A, 0),
(0, sqrt B); those square roots are never materialized -- every quantity this
module produces is rational because the basis factors cancel (e.g. the
boundary-coupling map Omega lands directly in standard coordinates).

Building blocks:

  * `omega(f)  = (-A [f,1](-1), B [f,1](+1))` -- the boundary coupling map,
    returned as the pair (a, b);
  * `extended_symplectic(u, v) = [f,g]_H - <Omega f, (a_v,b_v)> + <(a_u,b_u), Omega g>`
    where [f,g]_H = [f,g](1) - [f,g](-1) is the base symplectic form.  As [f,1](e) = B[f](e),
    it is sum_{e=+-1} e [f - c_e, g - c'_e](e), c_-1 = a_u, c_+1 = b_u (c' from v): each
    coordinate folds into the value slot f(e) of an endpoint record, so two functions
    with records at both endpoints take two integer dot products and one Fraction, with
    no A or B; a log probe (no record) takes the formula through `omega` and `w_inner`;
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
    (l[f], 24A f''(-1) - 24A(B+1) f'(-1), 24B f''(1) + 24B(A+1) f'(1)),
    i.e. (A, -B) times the reduced closed form `reduced_concomitant(f, 1, .)`
    at (-1, +1); `apply_extended` computes both and insists they agree;
  * the eigenvectors: embedded eigenpolynomials, (K_n, K_n(-1), K_n(1)),
    with eigenvalue lambda_n, verified componentwise by `eigen_verify`.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from fractions import Fraction

from . import linalg
from .concomitant import (
    _bracket_parts,
    boundary_condition_functions,
    concomitant_with_one,
    quasi_derivative_at,
    reduced_concomitant,
    symplectic_form,
)
from .germs import value_at
from .inner_products import ExtendedVector, embed, extended_inner, gram_matrix, w_inner
from .operator import KrallParams, apply_expression, eigen_polynomial, eigenvalue
from .values import Value

_set = object.__setattr__


class NotInDomainError(ValueError):
    """The extended vector fails the operator's boundary conditions."""


def omega(f, params: KrallParams) -> tuple[Fraction, Fraction]:
    """Omega f = (-A [f,1](-1), B [f,1](+1)); exact and fully rational."""
    return (
        -params.A * concomitant_with_one(f, -1, params),
        params.B * concomitant_with_one(f, 1, params),
    )


#: Kept for callers that still build candidates by the former class name.
GknCandidate = ExtendedVector


def extended_symplectic(u: ExtendedVector, v: ExtendedVector, params: KrallParams) -> Fraction:
    """[(f,a,b),(g,a',b')] = [f,g]_H - <Omega f, (a',b')> + <(a,b), Omega g>, read off the
    endpoint records as [f - b, g - b'](+1) - [f - a, g - a'](-1) where both have them."""
    lo, hi = (_bracket_parts(u.fn, v.fn, e, params, c, c2) for e, c, c2 in ((-1, u.a, v.a), (1, u.b, v.b)))
    if lo is not None and hi is not None:
        return Fraction(hi[0] * lo[1] - lo[0] * hi[1], hi[1] * lo[1])
    base = symplectic_form(u.fn, v.fn, params)
    omega_u, omega_v = omega(u.fn, params), omega(v.fn, params)
    return base - w_inner(omega_u, (v.a, v.b), params) + w_inner((u.a, u.b), omega_v, params)


def gkn_symmetry_check(candidates: Sequence[ExtendedVector], params: KrallParams) -> dict:
    """All pairwise extended brackets; admissible iff every one is zero."""
    values = [[extended_symplectic(u, v, params) for v in candidates] for u in candidates]
    return {"brackets": values, "all_zero": all(v == 0 for row in values for v in row)}


class IndependenceCertificate(Value):
    """Nonsingular probe matrix certifying independence modulo the minimal domain."""

    __slots__ = _fields = ("matrix", "det", "conclusive")

    def __init__(self, matrix: tuple, det: Fraction, conclusive: bool):
        _set(self, "matrix", matrix)
        _set(self, "det", det)
        _set(self, "conclusive", conclusive)

    def rows(self) -> list[list[Fraction]]:
        return [list(r) for r in self.matrix]


def independence_certificate(
    candidates: Sequence[ExtendedVector],
    probes: Sequence[ExtendedVector],
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
    matrix = [[extended_symplectic(p, c, params) for c in candidates] for p in probes]
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
    return [
        extended_symplectic(u, ExtendedVector.plain(y), params)
        for y in boundary_condition_functions(params)
    ]


def domain_membership(u: ExtendedVector, params: KrallParams) -> tuple[bool, dict]:
    """Membership of (f,a,b) by the four brackets, cross-checked.

    The reduced route (a = f(-1), b = f(1), quasi-derivative vanishing) must
    agree with the direct route; disagreement is an internal error.
    """
    direct = boundary_condition_values(u, params)
    direct_ok = all(v == 0 for v in direct)
    lam_minus = quasi_derivative_at(u.fn, -1, params)
    lam_plus = quasi_derivative_at(u.fn, 1, params)
    a_match, b_match = u.a == value_at(u.fn, -1), u.b == value_at(u.fn, 1)
    reduced_ok = a_match and b_match and lam_minus == 0 and lam_plus == 0
    if direct_ok != reduced_ok:
        raise AssertionError(
            f"membership routes disagree: direct={direct}, reduced="
            f"(a-match={a_match}, b-match={b_match}, lam=({lam_minus},{lam_plus}))"
        )
    return direct_ok, {"conditions": direct, "lam_minus": lam_minus, "lam_plus": lam_plus}


@functools.lru_cache(maxsize=256)
def apply_extended(u: ExtendedVector, params: KrallParams) -> ExtendedVector:
    """Apply the extended operator: (f,a,b) |-> (l[f], -Omega f).

    The vector must lie in the domain (else `NotInDomainError`).  Both the
    -Omega form and the explicit endpoint form, (A, -B) times
    `reduced_concomitant(f, 1, .)` at (-1, +1), are computed and must agree.
    Memoised, so T is applied once per distinct vector and params.
    """
    ok, witness = domain_membership(u, params)
    if not ok:
        raise NotInDomainError(f"boundary conditions violated: {witness['conditions']}")
    via_omega = tuple(-c for c in omega(u.fn, params))
    explicit = (
        params.A * reduced_concomitant(u.fn, 1, -1, params),
        -params.B * reduced_concomitant(u.fn, 1, 1, params),
    )
    if via_omega != explicit:
        raise AssertionError(f"operator forms disagree: -Omega={via_omega}, explicit={explicit}")
    return ExtendedVector(apply_expression(u.fn, params), *via_omega)


def eigen_verify(n: int, params: KrallParams) -> dict:
    """Componentwise check that the embedded eigenpolynomial is an eigenvector."""
    k_n = eigen_polynomial(n, params)
    lam = eigenvalue(n, params)
    u = embed(k_n)
    image = apply_extended(u, params)
    return {
        "n": n,
        "eigenvalue": lam,
        "fn_ok": image.fn == lam * k_n,
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
    vectors = [embed(eigen_polynomial(n, params)) for n in range(n_max + 1)]
    images = [apply_extended(u, params) for u in vectors]
    return [[extended_inner(t, u, params) / gram[n][n] for n, u in enumerate(vectors)] for t in images]


def operator_symmetry_gaps(
    vectors: Sequence[ExtendedVector],
    pairs: Sequence[tuple[int, int]],
    params: KrallParams,
) -> list[Fraction]:
    """<T u_i, u_j> - <u_i, T u_j> for each index pair (i, j); zero on the domain.

    T is applied once per vector, however many pairs the vector occurs in.
    """
    images = [apply_extended(u, params) for u in vectors]
    return [
        extended_inner(images[i], vectors[j], params) - extended_inner(vectors[i], images[j], params)
        for i, j in pairs
    ]
