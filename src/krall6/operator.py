"""The sixth-order Krall differential expression and its eigenstructure.

The expression acts on y as

    l[y] = b6 y^(6) + b5 y^(5) + b4 y^(4) + b3 y''' + b2 y'' + b1 y'

with polynomial coefficients depending on two positive rational parameters
A, B (see `KrallParams.expression_coefficients`).  It has no order-0 term, so
constants are annihilated.  The same expression also factors in Lagrangian
symmetric form

    l[y] = -(Q y''')''' + (P y'')'' - (pi y')'

with Q = (1-x^2)^3, P = (1-x^2)(12 + alpha(1-x^2)), alpha = 3A+3B+6 and
pi(x) = (-6A-6B-12AB)x^2 + (12A-12B)x + (12AB+18A+18B+24).  Some printings
of the factored form carry +6A instead of -6A in the x^2 coefficient of pi;
`expansion_consistency_report` expands both variants symbolically and shows
only the -6A sign reproduces the expanded coefficients (the mismatch lands in
the y' and y'' lines).  The expanded form is normative throughout.

Eigenvalues: l[.] preserves polynomial degree, and the degree-n eigenvalue is

    lambda_n = n(n+1)(n^4 + 2n^3 + (3A+3B-1)n^2 + (3A+3B-2)n + 12AB).

The leading factor is forced to be n(n+1): `leading_coefficient_oracle`
computes the coefficient of x^n in l[x^n] independently via falling
factorials, and the alternative n(n-1) printing fails that oracle already at
n = 1 (it gives 0 while l[x] = (24AB+12A+12B)x + 12B-12A is nonzero).

`power_stencil` gives l on powers (x - c)^s; at c = 0 its shifts lie in
-6..0, a banded recurrence that `eigen_polynomial` runs down from c_n = 1 to
the monic ground truth, and at c = +-1 it is the Frobenius stencil.
`closed_form_polynomial` implements the explicit coefficient-sum formula
under several parse variants of its ambiguous inner parenthesis and
`closed_form_comparison` documents which variant (if any) is proportional to
the kernel solution; see also the fourth-order Legendre-type instance
`legendre_type`, used as a cross-check of the same machinery.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .germs import EndpointFn
from .polynomials import Poly, Scalar, as_fraction, format_rational


class DegenerateEigenvalueError(ValueError):
    """Two eigenvalues collide, making the polynomial kernel ambiguous."""


#: Parse variants of the closed-form coefficient sum (see module docstring).
CLOSED_FORM_VARIANTS = (
    "sum-end",                    # inner parenthesis closes after the 2j(...) term
    "before-j-term",              # inner parenthesis closes before the 2j(...) term
    "even-selector-sum-end",      # as sum-end, with even-term selector (1+(-1)^j)/2
    "even-selector-before-j-term",
)


_W = Poly([1, 0, -1])  # w(x) = 1 - x^2
_Q = _W**3


@dataclass(frozen=True)
class KrallParams:
    """The parameter pair (A, B), both positive rationals."""

    A: Fraction
    B: Fraction

    def __post_init__(self):
        object.__setattr__(self, "A", as_fraction(self.A))
        object.__setattr__(self, "B", as_fraction(self.B))
        if self.A <= 0 or self.B <= 0:
            raise ValueError("parameters A and B must be positive")
        # not a dataclass field: equality, hash and repr see only (A, B)
        object.__setattr__(self, "_p_poly", _W * (Poly([12]) + self.alpha * _W))

    @property
    def alpha(self) -> Fraction:
        return 3 * self.A + 3 * self.B + 6

    def pi_poly(self) -> Poly:
        """pi(x) = (-6A-6B-12AB)x^2 + (12A-12B)x + (12AB+18A+18B+24)."""
        A, B = self.A, self.B
        return Poly([12 * A * B + 18 * A + 18 * B + 24, 12 * A - 12 * B, -6 * A - 6 * B - 12 * A * B])

    def pi_poly_sign_variant(self) -> Poly:
        """The sign-discrepant variant (+6A in the x^2 coefficient)."""
        A, B = self.A, self.B
        return Poly([12 * A * B + 18 * A + 18 * B + 24, 12 * A - 12 * B, 6 * A - 6 * B - 12 * A * B])

    def q_poly(self) -> Poly:
        """Q(x) = (1-x^2)^3."""
        return _Q

    def p_poly(self) -> Poly:
        """P(x) = (1-x^2)(12 + alpha(1-x^2)), computed once per instance."""
        return self._p_poly

    def expression_coefficients(self) -> tuple[Poly, Poly, Poly, Poly, Poly, Poly]:
        """Coefficients (b6, b5, b4, b3, b2, b1) of the expanded form."""
        A, B = self.A, self.B
        x = Poly.x()
        x2m1 = Poly([-1, 0, 1])
        b6 = x2m1 ** 3
        b5 = 18 * x * x2m1 ** 2
        b4 = x2m1 * Poly([-3 * A - 3 * B - 36, 0, 3 * A + 3 * B + 96])
        b3 = (24 * A + 24 * B + 168) * x * x2m1
        b2 = Poly([
            -12 * A * B - 30 * A - 30 * B - 72,
            12 * B - 12 * A,
            12 * A * B + 42 * A + 42 * B + 72,
        ])
        b1 = Poly([12 * B - 12 * A, 24 * A * B + 12 * A + 12 * B])
        return b6, b5, b4, b3, b2, b1

    def label(self) -> str:
        return f"A={format_rational(self.A)}, B={format_rational(self.B)}"


# ---------------------------------------------------------------------------
# applying the expression
# ---------------------------------------------------------------------------


def _lift(f, kernel, operation: str):
    """Apply `kernel` (written once for Poly and LogGerm) to f, keeping f's class.

    A Poly stays a Poly, a global EndpointFn maps its polynomial, and a
    piecewise EndpointFn maps each endpoint germ.
    """
    if isinstance(f, Poly):
        return kernel(f)
    if isinstance(f, EndpointFn):
        return f.map(kernel)
    raise TypeError(f"{operation} expects a Poly or EndpointFn")


def apply_expression(f, params: KrallParams):
    """Apply the expanded sixth-order expression; returns the class of `f`."""
    coeffs = params.expression_coefficients()

    def kernel(y):
        terms = [y.derivative(order) * b for order, b in zip(range(6, 0, -1), coeffs)]
        return sum(terms[1:], terms[0])

    return _lift(f, kernel, "apply_expression")


def _falling_factorial_poly(order: int) -> Poly:
    """s(s-1)...(s-order+1) as a polynomial in s."""
    out = Poly.one()
    for u in range(order):
        out = out * Poly([-u, 1])
    return out


@functools.lru_cache(maxsize=4096)
def power_stencil(params: KrallParams, center: Scalar) -> Mapping[int, Poly]:
    """{shift: rho_shift} with l[t^s] = sum rho_shift(s) t^(s+shift), t = x - center.

    The t^i coefficient of b_k times s(s-1)...(s-k+1) adds to rho_{i-k}.  At
    center 0 the shifts lie in -6..0 and rho_0(n) = lambda_n.  Memoised per
    (params, center); the mapping is read-only because every caller shares it.
    """
    t = Poly([center, 1])  # x = center + t
    stencil: dict[int, Poly] = {}
    for order, b in zip(range(6, 0, -1), params.expression_coefficients()):
        ff = _falling_factorial_poly(order)
        for i, c in enumerate(b.compose(t).coeffs):
            if c != 0:
                stencil[i - order] = stencil.get(i - order, Poly()) + c * ff
    return MappingProxyType(stencil)


def apply_expression_factored(f, params: KrallParams):
    """Apply the Lagrangian symmetric form -(Qy''')''' + (Py'')'' - (pi y')'.

    pi is the corrected one that reproduces the expanded form; the sign
    variant is compared only coefficient-wise, in `expansion_consistency_report`.
    """
    q, pp, pi = params.q_poly(), params.p_poly(), params.pi_poly()

    def kernel(y):
        term1 = (y.derivative(3) * q).derivative(3)
        term2 = (y.derivative(2) * pp).derivative(2)
        term3 = (y.derivative(1) * pi).derivative(1)
        return -term1 + term2 - term3

    return _lift(f, kernel, "apply_expression_factored")


def expanded_coefficients_of_factored(params: KrallParams, pi_variant: str = "corrected"):
    """Symbolically expand the factored form into (b6..b1) via Leibniz."""
    pi = params.pi_poly() if pi_variant == "corrected" else params.pi_poly_sign_variant()
    q, p = params.q_poly(), params.p_poly()
    # -(Q y''')''' = -(Q''' y''' + 3 Q'' y^(4) + 3 Q' y^(5) + Q y^(6))
    # (P y'')''   = P'' y'' + 2 P' y''' + P y^(4)
    # -(pi y')'   = -pi' y' - pi y''
    b6 = -q
    b5 = -3 * q.derivative()
    b4 = -3 * q.derivative(2) + p
    b3 = -q.derivative(3) + 2 * p.derivative()
    b2 = p.derivative(2) - pi
    b1 = -pi.derivative()
    return b6, b5, b4, b3, b2, b1


def expansion_consistency_report(params: KrallParams) -> dict:
    """Compare the expanded coefficients against both factored-form variants.

    Returns {"corrected": {order: bool}, "sign-variant": {order: bool}} plus
    the mismatching differences for the sign variant.
    """
    target = params.expression_coefficients()
    report: dict = {}
    for variant in ("corrected", "sign-variant"):
        got = expanded_coefficients_of_factored(params, variant)
        per_order = {}
        diffs = {}
        for order, (want, have) in zip(range(6, 0, -1), zip(target, got)):
            per_order[order] = want == have
            if want != have:
                diffs[order] = (have - want).format_coeffs()
        report[variant] = {"matches": per_order, "diffs": diffs}
    return report


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------


def eigenvalue(n: int, params: KrallParams) -> Fraction:
    """lambda_n = n(n+1)(n^4+2n^3+(3A+3B-1)n^2+(3A+3B-2)n+12AB)."""
    A, B = params.A, params.B
    n = Fraction(n)
    return n * (n + 1) * (n**4 + 2 * n**3 + (3 * A + 3 * B - 1) * n**2 + (3 * A + 3 * B - 2) * n + 12 * A * B)


def eigenvalue_shifted_factor_variant(n: int, params: KrallParams) -> Fraction:
    """The n(n-1) leading-factor variant; fails the oracle at n = 1."""
    A, B = params.A, params.B
    n = Fraction(n)
    return n * (n - 1) * (n**4 + 2 * n**3 + (3 * A + 3 * B - 1) * n**2 + (3 * A + 3 * B - 2) * n + 12 * A * B)


def leading_coefficient_oracle(n: int, params: KrallParams) -> Fraction:
    """Coefficient of x^n in l[x^n], computed term by term.

    Independent of `eigenvalue`: sums (falling factorial) x (leading
    coefficient) over the six terms of the expression.
    """
    A, B = params.A, params.B
    leads = [
        (6, Fraction(1)),
        (5, Fraction(18)),
        (4, 3 * A + 3 * B + 96),
        (3, 24 * A + 24 * B + 168),
        (2, 12 * A * B + 42 * A + 42 * B + 72),
        (1, 24 * A * B + 12 * A + 12 * B),
    ]
    return sum((lead * math.perm(n, k) for k, lead in leads), Fraction(0))


# ---------------------------------------------------------------------------
# eigenpolynomials
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=4096)
def eigen_polynomial(n: int, params: KrallParams) -> Poly:
    """The monic degree-n eigenpolynomial K_n, by the banded stencil recurrence.

    With l[x^m] = sum_j rho_j(m) x^(m+j) from `power_stencil(params, 0)`
    (shifts j <= 0), the x^m coefficient of (l - lambda_n) K_n is
    (rho_0(m) - lambda_n) c_m + sum_{j<0} rho_j(m-j) c_{m-j}.  The pivot
    rho_0(m) - lambda_n is lambda_m - lambda_n, so the eigenvalues are
    distinct exactly when it vanishes only at m = n; then c_n = 1 and each
    lower c_m follows from the window of higher ones that the stencil's
    shifts reach.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    lam = eigenvalue(n, params)
    stencil = power_stencil(params, 0)
    pivots = []
    for m in range(n):
        pivots.append(stencil[0](m) - lam)
        if pivots[m] == 0:
            raise DegenerateEigenvalueError(
                f"lambda_{m} = lambda_{n} = {format_rational(lam)} for {params.label()}"
            )
    if stencil[0](n) != lam:
        raise ValueError(f"no eigenpolynomial of degree {n}: lambda = {format_rational(lam)} is not rho_0({n})")
    window = [(-shift, rho) for shift, rho in stencil.items() if shift < 0]
    c = [Fraction(0)] * n + [Fraction(1)]
    for m in range(n - 1, -1, -1):
        rest = sum((rho(m + j) * c[m + j] for j, rho in window if m + j <= n), Fraction(0))
        c[m] = -rest / pivots[m]
    return Poly(c)


def closed_form_polynomial(n: int, params: KrallParams, variant: str = "sum-end") -> Poly:
    """Literal evaluation of the closed-form coefficient sum under one parse.

    The displayed inner factor has an unbalanced parenthesis; `variant`
    selects the reading (see CLOSED_FORM_VARIANTS).
    """
    if variant not in CLOSED_FORM_VARIANTS:
        raise ValueError(f"unknown closed-form variant {variant!r}")
    A, B = params.A, params.B
    n_f = Fraction(n)
    coeffs = [Fraction(0)] * (n + 1)
    for j in range(n + 1):
        even_weight = (
            Fraction(2 + (-1) ** j, 2) if not variant.startswith("even-selector") else Fraction(1 + (-1) ** j, 2)
        )
        odd_weight = Fraction(1 - (-1) ** j, 2)
        core = n_f**4 + (2 * A + 2 * B - 1) * n_f**2 + 4 * A * B
        j_term = 2 * j * (n_f**2 + n_f + A + B)
        if variant.endswith("sum-end"):
            q = even_weight * (core + j_term) + odd_weight * (4 * B - 4 * A)
        else:
            q = even_weight * core + j_term + odd_weight * (4 * B - 4 * A)
        sign = Fraction((-1) ** (j // 2))
        num = sign * math.factorial(2 * n - j) * q
        den = (
            Fraction(2) ** (n + 1)
            * math.factorial(n - ((j + 1) // 2))
            * math.factorial(j // 2)
            * math.factorial(n - j)
            * (n_f**2 + n_f + A + B)
        )
        coeffs[n - j] += num / den
    return Poly(coeffs)


def closed_form_comparison(n: int, params: KrallParams) -> dict:
    """Compare every closed-form parse variant with the kernel solution.

    A variant "matches" when it is a nonzero scalar multiple of the monic
    kernel polynomial.  Returns {variant: {"matches": bool, "scale": str}}.
    """
    reference = eigen_polynomial(n, params)
    out = {}
    for variant in CLOSED_FORM_VARIANTS:
        candidate = closed_form_polynomial(n, params, variant)
        matches = False
        scale = None
        if not candidate.is_zero() and candidate.degree == reference.degree:
            scale = candidate.leading_coefficient()
            matches = candidate == scale * reference
        out[variant] = {
            "matches": matches,
            "scale": format_rational(scale) if matches and scale is not None else None,
        }
    return out


# ---------------------------------------------------------------------------
# fourth-order Legendre-type cross-check instance
# ---------------------------------------------------------------------------


def apply_legendre_type(f: Poly, A: Scalar) -> Poly:
    """(1-x^2)^2 y'''' + 8x(x^2-1)y''' + (4A+12)(x^2-1)y'' + 8Axy'."""
    A = as_fraction(A)
    x = Poly.x()
    w = Poly([1, 0, -1])
    x2m1 = -w
    return (
        w**2 * f.derivative(4)
        + 8 * x * x2m1 * f.derivative(3)
        + (4 * A + 12) * x2m1 * f.derivative(2)
        + 8 * A * x * f.derivative(1)
    )


def legendre_type(n: int, A: Scalar) -> tuple[Poly, Fraction]:
    """(P_n, mu_n) for the fourth-order instance with equal endpoint jumps.

    P_n is the displayed coefficient sum; mu_n = n(n+1)(n^2+n+4A-2).  The
    pair satisfies apply_legendre_type(P_n) = mu_n * P_n exactly.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    A = as_fraction(A)
    if A <= 0:
        raise ValueError("parameter A must be positive")
    n_f = Fraction(n)
    mu = n_f * (n_f + 1) * (n_f**2 + n_f + 4 * A - 2)
    coeffs = [Fraction(0)] * (n + 1)
    for j in range((n // 2) + 1):
        num = Fraction((-1) ** j) * math.factorial(2 * n - 2 * j) * (A + Fraction(n * (n - 1), 2) + 2 * j)
        den = Fraction(2) ** n * math.factorial(j) * math.factorial(n - j) * math.factorial(n - 2 * j)
        coeffs[n - 2 * j] += num / den
    return Poly(coeffs), mu
