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

Both forms are data, (b6, ..., b1) and the (pi, P, Q) of
sum_k (-1)^k (p_k y^(k))^(k); the order is the length of a tuple, written
nowhere else.  `_apply` is the one kernel for an expanded tuple, and
`quasi_derivatives` the one kernel for a symmetric tuple (p_1, ..., p_m):
its chain y^[m], ..., y^[2m-1] gives l[y] = (y^[2m-1])', and `concomitant`
reads Lam, B and the Lagrange bracket off the same chain.

Eigenvalues: l[.] preserves polynomial degree, and the degree-n eigenvalue is

    lambda_n = n(n+1)(n^4 + 2n^3 + (3A+3B-1)n^2 + (3A+3B-2)n + 12AB).

The leading factor is forced to be n(n+1): `leading_coefficient_oracle`
computes the coefficient of x^n in l[x^n] independently via falling
factorials, and the alternative n(n-1) printing fails that oracle already at
n = 1 (it gives 0 while l[x] = (24AB+12A+12B)x + 12B-12A is nonzero).

`power_stencil` gives l on powers (x - c)^s, and `LocalExpression` is the
one integer form of it at any integer centre c: a table of int rows
q rho_d(s), q rho_d'(s), each filled once by one Horner pass, shared through
the memoised `local_expression`.  Its one banded recurrence,
`continue_solution`, solves q l[y] = shift y on powers: at c = 0 (shifts in
-6..0) `eigen_polynomial` runs it down from c_n = 1 with shift q lambda_n to
the monic ground truth, and at c = +-1 the Frobenius solver runs it up past
the last resonance; the same rows give the series' residuals.
`closed_form_polynomial` implements the explicit coefficient-sum formula
under several parse variants of its ambiguous inner parenthesis and
`closed_form_comparison` documents which variant (if any) is proportional to
the kernel solution; see also the fourth-order Legendre-type instance
`legendre_type`, used as a cross-check of the same machinery.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .germs import EndpointFn, _as_poly
from .polynomials import WEIGHT, Poly, Scalar, as_fraction, format_rational
from .values import Value

_set = object.__setattr__


class DegenerateEigenvalueError(ValueError):
    """Two eigenvalues collide, making the polynomial kernel ambiguous."""


#: Parse variants of the closed-form coefficient sum (see module docstring).
CLOSED_FORM_VARIANTS = (
    "sum-end",                    # inner parenthesis closes after the 2j(...) term
    "before-j-term",              # inner parenthesis closes before the 2j(...) term
    "even-selector-sum-end",      # as sum-end, with even-term selector (1+(-1)^j)/2
    "even-selector-before-j-term",
)


def _expression_coefficients(A: Fraction, B: Fraction) -> tuple[Poly, Poly, Poly, Poly, Poly, Poly]:
    x = Poly.x()
    x2m1 = -WEIGHT
    b6 = x2m1 ** 3
    b5 = 18 * x * x2m1 ** 2
    b4 = x2m1 * Poly([-3 * A - 3 * B - 36, 0, 3 * A + 3 * B + 96])
    b3 = (24 * A + 24 * B + 168) * x * x2m1
    b2 = Poly([-12 * A * B - 30 * A - 30 * B - 72, 12 * B - 12 * A, 12 * A * B + 42 * A + 42 * B + 72])
    b1 = Poly([12 * B - 12 * A, 24 * A * B + 12 * A + 12 * B])
    return b6, b5, b4, b3, b2, b1


class KrallParams(Value):
    """The parameter pair (A, B), both positive rationals."""

    __slots__ = ("A", "B", "_symmetric", "_coefficients", "_hash")
    _fields = ("A", "B")

    def __init__(self, A: Scalar, B: Scalar):
        A, B = as_fraction(A), as_fraction(B)
        for name, value in (("A", A), ("B", B)):
            if value <= 0:
                raise ValueError(f"{name} must be positive")
        _set(self, "A", A)
        _set(self, "B", B)
        pi = Poly([12 * A * B + 18 * A + 18 * B + 24, 12 * A - 12 * B, -6 * A - 6 * B - 12 * A * B])
        # cached outside `_fields`: equality, hash and repr see only (A, B)
        _set(self, "_symmetric", (pi, WEIGHT * (Poly([12]) + self.alpha * WEIGHT), WEIGHT**3))
        _set(self, "_coefficients", _expression_coefficients(A, B))
        _set(self, "_hash", hash((A, B)))

    def __hash__(self):  # hash((A, B)), computed once: every memo keyed by params hashes it
        return self._hash

    @property
    def alpha(self) -> Fraction:
        return 3 * self.A + 3 * self.B + 6

    def pi_poly_sign_variant(self) -> Poly:
        """pi with the sign-discrepant +6A in its x^2 coefficient."""
        return self._symmetric[0] + Poly.monomial(2, 12 * self.A)

    def symmetric_coefficients(self) -> tuple[Poly, Poly, Poly]:
        """(pi, P, Q): the p_k of l[y] = sum_k (-1)^k (p_k y^(k))^(k), computed once per instance."""
        return self._symmetric

    def expression_coefficients(self) -> tuple[Poly, Poly, Poly, Poly, Poly, Poly]:
        """Coefficients (b6, b5, b4, b3, b2, b1) of the expanded form, computed once per instance."""
        return self._coefficients

    def label(self) -> str:
        return f"A={format_rational(self.A)}, B={format_rational(self.B)}"


# ---------------------------------------------------------------------------
# applying the expression
# ---------------------------------------------------------------------------


def _lift(f, kernel):
    """Apply `kernel` (written once for Poly and LogGerm) to f, keeping f's class.

    An EndpointFn maps each endpoint germ; anything else is read by
    `germs._as_poly`, so a Poly stays a Poly and an exact scalar is a constant.
    """
    if isinstance(f, EndpointFn):
        return f.map(kernel)
    return kernel(_as_poly(f))


def _orders(coeffs):
    """(k, b_k) pairs of a highest-first coefficient tuple (b_m, ..., b_1): its length is the order."""
    return zip(range(len(coeffs), 0, -1), coeffs)


def _apply(coeffs, y):
    """sum_k b_k y^(k) over a highest-first coefficient tuple; y is a Poly or a LogGerm."""
    terms = [y.derivative(order) * b for order, b in _orders(coeffs)]
    return sum(terms[1:], terms[0])


def apply_expression(f, params: KrallParams):
    """Apply the expanded sixth-order expression; returns the class of `f`."""
    coeffs = params.expression_coefficients()
    return _lift(f, lambda y: _apply(coeffs, y))


def _falling_factorial_poly(order: int) -> Poly:
    """s(s-1)...(s-order+1) as a polynomial in s."""
    out = Poly.one()
    for u in range(order):
        out = out * Poly([-u, 1])
    return out


def power_stencil(params: KrallParams, center: int) -> dict[int, Poly]:
    """{shift: rho_shift} with l[t^s] = sum rho_shift(s) t^(s+shift), t = x - center.

    The t^i coefficient of b_k, read off `b_k.shift(center)`, times s(s-1)...(s-k+1)
    adds to rho_{i-k}.  At center 0 the shifts lie in -6..0 and rho_0(n) = lambda_n.
    TypeError for a centre whose type is not `int`.  Built afresh on each call:
    `local_expression` keeps the one integer form of it per centre.
    """
    stencil: dict[int, Poly] = {}
    for order, b in _orders(params.expression_coefficients()):
        ff = _falling_factorial_poly(order)
        for i, c in enumerate(b.shift(center).coeffs):
            if c != 0:
                stencil[i - order] = stencil.get(i - order, Poly()) + c * ff
    return stencil


class LocalExpression(Value):
    """The expression at an integer centre c, on powers t^s, t = x - c.

    `pole` is minus the lowest shift of `power_stencil` there and `stencil[d]`
    its rho_{d-pole}, in ascending d, so l[t^s] = sum_d rho_d(s) t^(s-pole+d);
    `order` is the highest degree in s of any rho_d, `scale` the lcm q of the
    stencil's coefficient denominators, and `table[s]` the int row `at(s)` once
    it is complete.  Equality, hash and repr see only (center, params).
    TypeError for a centre whose type is not `int` (`True` and `1.0` included),
    ArithmeticError where Fuchs's condition fails (deg rho_0 below the order).
    """

    __slots__ = ("center", "params", "stencil", "pole", "order", "scale", "table", "_horner")
    _fields = ("center", "params")

    def __init__(self, center: int, params: KrallParams):
        if type(center) is not int:
            raise TypeError(f"center must be an int, got {type(center).__name__}")
        shifts = power_stencil(params, center)
        pole = -min(shifts)
        stencil = {shift + pole: rho for shift, rho in sorted(shifts.items())}
        order = max(rho.degree for rho in stencil.values())
        if stencil[0].degree != order:
            raise ArithmeticError(f"irregular singular point at {center:+d}: deg rho_0 < order {order}")
        q = math.lcm(*(c.denominator for rho in stencil.values() for c in rho.coeffs))
        # q rho_d's coefficients as ints, highest first: the one Horner row kernel's input
        horner = {
            d: tuple(c.numerator * (q // c.denominator) for c in reversed(rho.coeffs)) for d, rho in stencil.items()
        }
        for name, value in (
            ("center", center), ("params", params), ("stencil", stencil), ("pole", pole), ("order", order),
            ("scale", q), ("table", {}), ("_horner", horner),
        ):
            _set(self, name, value)

    def at(self, s: int) -> dict:
        """{d: (q rho_d(s), q rho_d'(s))} as ints (q = `scale`), by one Horner pass per d;
        the row goes into `table` only once it is complete, so an interrupted pass leaves none."""
        row = self.table.get(s)
        if row is None:
            row = {}
            for d, coeffs in self._horner.items():
                value = slope = 0
                for c in coeffs:
                    slope = slope * s + value
                    value = value * s + c
                row[d] = value, slope
            self.table[s] = row
        return row

    def indicial_polynomial(self) -> Poly:
        """rho_0(s), computed from the local coefficients."""
        return self.stencil[0]

    def indicial_roots(self) -> list[int]:
        """Integer roots in -10..10 with multiplicity, descending: a candidate's multiplicity
        is the index of its first nonzero Taylor coefficient (`Poly.taylor`).  ArithmeticError
        when they do not account for the whole degree."""
        p = self.indicial_polynomial()
        roots = []
        for candidate in range(10, -11, -1):
            roots += [candidate] * next(m for m, t in enumerate(p.taylor(candidate)) if t)
        if len(roots) != p.degree:
            raise ArithmeticError(f"indicial polynomial {p.format_coeffs()} has a root outside the integers -10..10")
        return roots

    def apply_to_series(self, r: int, levels: tuple) -> tuple[Poly, Poly]:
        """(C', E') with l[t^r (C + E ln|t|)] = t^{r-pole} (C' + E' ln|t|), from the rows `at(r+m)`:
        each level is one integer pass (`Poly.scaled_sum`), divided by `scale` once."""
        C, E = levels
        rows = [self.at(r + m) for m in range(max((p.degree + 1 for p in levels if p), default=0))]
        value_terms = [(d, E, [row[d][0] for row in rows]) for d in self.stencil]
        slope_terms = [(d, E, [row[d][1] for row in rows]) for d in self.stencil]
        out_c = Poly.scaled_sum([(d, C, values) for d, _, values in value_terms] + slope_terms)
        unscale = Fraction(1, self.scale)
        return out_c * unscale, Poly.scaled_sum(value_terms) * unscale

    def row_sum(self, s: int, pivot: int, c, e, total=0, shift: int = 0) -> tuple:
        """(T1, T0) = (sum e_k v_d, sum c_k v_d + e_k v_d') over the rows d != pivot of
        q l - shift, (v_d, v_d') = `at(s + pivot - d)[d]` less (shift, 0) at d = pole (the shift-0
        row), where c_k = c[-k] and e_k = e[-k] are the coefficients of t^(s+pivot-d),
        k = |d - pivot| places back; a pair the lists do not reach, or a zero pair, reads no row.
        The entries are ints or `Poly` linear forms, summed onto `total`."""
        t1 = t0 = total
        reach, pole = len(c), self.pole
        for d in self.stencil:
            k = abs(d - pivot)
            if k and k <= reach and (c[-k] or e[-k]):
                value, slope = self.at(s + pivot - d)[d]
                if d == pole:
                    value -= shift
                t1 = t1 + e[-k] * value
                t0 = t0 + c[-k] * value + e[-k] * slope
        return t1, t0

    def continue_solution(self, exponents: range, c: list, e: list, den: int = 1, shift: int = 0) -> tuple:
        """Continue y = sum_s t^s (c_s + e_s ln|t|), a solution of q l[y] = shift y, over `exponents`.

        `c`, `e`: the coefficients so far in the order of travel, numerators over one denominator
        `den`, extended in place; returns (C, E), y = t^lo (C + E ln|t|), lo the lowest exponent.
        The pivot row is d = 0 upward (step +1) and the highest d downward, so the other rows
        reach only known coefficients; the shift lands on row d = pole.  With P, S0 the pivot
        row's value and slope (P != 0) and (T1, T0) = `row_sum`, P e_s + T1 = 0 = P c_s + S0 e_s
        + T0 gives e_s = -T1 P and c_s = T1 S0 - T0 P over P^2.  The last max(stencil) numerators
        of each level share one running denominator; each step multiplies all by P^2 and divides
        by g = gcd(P^2, e_s, c_s) (by P and gcd(P, T0) when T1 = 0, the same values), which keeps
        it at the size of the reduced coefficients (2,073-2,272 bits at order 120 for A = 1/100,
        B = 3, against 9,991-10,389 without g).  `Poly._emit` brings the numerators to the last
        denominator by the per-step factors; no `Fraction` is built.
        """
        width = max(self.stencil)
        pivot = 0 if exponents.step > 0 else width
        cw, ew = (([0] * width + level)[-width:] for level in (c, e))
        factors = [den] + [1] * (len(c) - 1)
        for s in exponents:
            t1, t0 = self.row_sum(s, pivot, cw, ew, shift=shift)
            p, slope = self.at(s)[pivot]
            if pivot == self.pole:
                p -= shift
            size, new_e, new_c = (p * p, -t1 * p, t1 * slope - t0 * p) if t1 else (p, 0, -t0)
            g = math.gcd(size, new_e, new_c)
            rescale = size // g
            ew = [x * rescale for x in ew[1:]] + [new_e // g]
            cw = [x * rescale for x in cw[1:]] + [new_c // g]
            e.append(ew[-1])
            c.append(cw[-1])
            factors.append(rescale)
        return Poly._emit(factors, c, e, descending=exponents.step < 0)


@functools.lru_cache(maxsize=64, typed=True)
def local_expression(center: int, params: KrallParams) -> LocalExpression:
    """The shared `LocalExpression` at (center, params); the bound caps the tables kept."""
    return LocalExpression(center, params)


def quasi_derivatives(symmetric, y) -> tuple:
    """(y^[m], ..., y^[2m-1]): the quasi-derivatives of sum_k (-1)^k (p_k y^(k))^(k).

    With symmetric = (p_1, ..., p_m), y^[m] = (-1)^m p_m y^(m) and
    y^[m+i] = (y^[m+i-1])' + (-1)^(m-i) p_(m-i) y^(m-i), so l[y] = (y^[2m-1])'.
    For (pi, P, Q) the chain is (-Q y''', Lam[y], B[y]).  y and every entry are
    a Poly or a LogGerm.
    """
    chain = []
    for k in range(len(symmetric), 0, -1):
        term = y.derivative(k) * symmetric[k - 1]
        term = -term if k % 2 else term
        chain.append(chain[-1].derivative() + term if chain else term)
    return tuple(chain)


def apply_expression_factored(f, params: KrallParams):
    """Apply the Lagrangian symmetric form -(Qy''')''' + (Py'')'' - (pi y')' as (y^[5])'.

    pi is the corrected one that reproduces the expanded form; the sign
    variant is compared only coefficient-wise, in `expansion_consistency_report`.
    """
    symmetric = params.symmetric_coefficients()
    return _lift(f, lambda y: quasi_derivatives(symmetric, y)[-1].derivative())


def expanded_coefficients_of_factored(params: KrallParams, pi_variant: str = "corrected"):
    """Symbolically expand the factored form into (b6..b1) via Leibniz.

    (p_k y^(k))^(k) = sum_j C(k, j-k) p_k^(2k-j) y^(j) over j = k..2k, so each
    k adds (-1)^k C(k, j-k) p_k^(2k-j) to b_j.
    """
    symmetric = params.symmetric_coefficients()
    if pi_variant != "corrected":
        symmetric = (params.pi_poly_sign_variant(), *symmetric[1:])
    b = [Poly()] * (2 * len(symmetric) + 1)
    for k, p in enumerate(symmetric, 1):
        for j in range(k, 2 * k + 1):
            b[j] = b[j] + (-1) ** k * math.comb(k, j - k) * p.derivative(2 * k - j)
    return tuple(b[:0:-1])


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
        for order, (want, have) in _orders(list(zip(target, got))):
            per_order[order] = want == have
            if want != have:
                diffs[order] = (have - want).format_coeffs()
        report[variant] = {"matches": per_order, "diffs": diffs}
    return report


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------


def _quartic(n: Fraction, params: KrallParams) -> Fraction:
    """n^4+2n^3+(3A+3B-1)n^2+(3A+3B-2)n+12AB, the factor both eigenvalue printings share."""
    A, B = params.A, params.B
    return n**4 + 2 * n**3 + (3 * A + 3 * B - 1) * n**2 + (3 * A + 3 * B - 2) * n + 12 * A * B


def eigenvalue(n: int, params: KrallParams) -> Fraction:
    """lambda_n = n(n+1)(n^4+2n^3+(3A+3B-1)n^2+(3A+3B-2)n+12AB)."""
    n = Fraction(n)
    return n * (n + 1) * _quartic(n, params)


def eigenvalue_shifted_factor_variant(n: int, params: KrallParams) -> Fraction:
    """The n(n-1) leading-factor variant; fails the oracle at n = 1."""
    n = Fraction(n)
    return n * (n - 1) * _quartic(n, params)


def leading_coefficient_oracle(n: int, params: KrallParams) -> Fraction:
    """Coefficient of x^n in l[x^n], computed term by term.

    Independent of `eigenvalue`: sums [x^k]b_k * n!/(n-k)! over the terms
    b_k y^(k) of the expression (no b_k has degree above k).
    """
    coeffs = params.expression_coefficients()
    return sum((b[k] * math.perm(n, k) for k, b in _orders(coeffs)), Fraction(0))


# ---------------------------------------------------------------------------
# eigenpolynomials
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=4096, typed=True)
def eigen_polynomial(n: int, params: KrallParams) -> Poly:
    """The monic degree-n eigenpolynomial K_n: `LocalExpression.continue_solution` at centre 0,
    down from c_n = 1 with shift q lambda_n.  Its x^m pivot is lambda_m - lambda_n, so the
    eigenvalues must be distinct below n, and lambda_n must be rho_0(n)."""
    if type(n) is not int:
        raise TypeError(f"n must be an int, got {type(n).__name__}")
    if n < 0:
        raise ValueError("n must be non-negative")
    lam = eigenvalue(n, params)
    local = local_expression(0, params)
    diagonal, scaled_lam = [local.at(m)[local.pole][0] for m in range(n + 1)], local.scale * lam
    for m in range(n):
        if diagonal[m] == scaled_lam:
            raise DegenerateEigenvalueError(
                f"lambda_{m} = lambda_{n} = {format_rational(lam)} for {params.label()}"
            )
    if diagonal[n] != scaled_lam:
        raise ValueError(f"no eigenpolynomial of degree {n}: lambda = {format_rational(lam)} is not rho_0({n})")
    return local.continue_solution(range(n - 1, -1, -1), [1], [0], shift=diagonal[n])[0]


@functools.lru_cache(maxsize=4096, typed=True)
def closed_form_polynomial(n: int, params: KrallParams, variant: str = "sum-end") -> Poly:
    """The closed-form coefficient sum under one parse, memoised per (n, params, variant).

    The coefficient of x^(n-j) is (-1)^(j//2) (2n-j)! q_j / (2^(n+1) (n-(j+1)//2)! (j//2)! (n-j)! S),
    S = n^2+n+A+B, with q_j = e_j(C + 2jS) + o_j(4B-4A), C = n^4+(2A+2B-1)n^2+4AB,
    e_j = (2+(-1)^j)/2 and o_j = (1-(-1)^j)/2.  The displayed inner factor has
    an unbalanced parenthesis; `variant` selects the reading (see
    CLOSED_FORM_VARIANTS): "before-j-term" reads q_j = e_j C + 2jS + o_j(4B-4A),
    "even-selector" e_j = (1+(-1)^j)/2.  It runs on ints: with A = a/D and
    B = b/D, D = den(A) den(B), each quantity is scaled by D^2 and each weight
    doubled, and every coefficient is one int pair for `Poly._ratios`.
    """
    if type(n) is not int:
        raise TypeError(f"n must be an int, got {type(n).__name__}")
    if n < 0:
        raise ValueError("n must be non-negative")
    if variant not in CLOSED_FORM_VARIANTS:
        raise ValueError(f"unknown closed-form variant {variant!r}")
    A, B = params.A, params.B
    D = A.denominator * B.denominator
    a, b = A.numerator * B.denominator, B.numerator * A.denominator
    s = D * D * (n * n + n) + D * (a + b)  # D^2 S
    core = D * D * n**4 + (2 * a + 2 * b - D) * D * n * n + 4 * a * b  # D^2 C
    jump = 4 * D * (b - a)  # D^2 (4B - 4A)
    even_selector, sum_end = variant.startswith("even-selector"), variant.endswith("sum-end")
    pairs = []  # from x^n down
    for j in range(n + 1):
        even, odd = (1 if even_selector else 2) + (-1) ** j, 1 - (-1) ** j  # 2 e_j, 2 o_j
        q = even * (core + 2 * j * s) + odd * jump if sum_end else even * core + 4 * j * s + odd * jump
        num = (-1) ** (j // 2) * math.factorial(2 * n - j) * q
        den = 2 ** (n + 2) * math.factorial(n - (j + 1) // 2) * math.factorial(j // 2) * math.factorial(n - j) * s
        pairs.append((num, den))
    return Poly._ratios(pairs[::-1])


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
    coeffs = (WEIGHT**2, -8 * x * WEIGHT, -(4 * A + 12) * WEIGHT, 8 * A * x)
    return _lift(f, lambda y: _apply(coeffs, y))


def legendre_type(n: int, A: Scalar) -> tuple[Poly, Fraction]:
    """(P_n, mu_n) for the fourth-order instance with equal endpoint jumps.

    P_n is the displayed coefficient sum; mu_n = n(n+1)(n^2+n+4A-2).  The
    pair satisfies apply_legendre_type(P_n) = mu_n * P_n exactly.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    A = as_fraction(A)
    if A <= 0:
        raise ValueError("A must be positive")
    n_f = Fraction(n)
    mu = n_f * (n_f + 1) * (n_f**2 + n_f + 4 * A - 2)
    coeffs = [Fraction(0)] * (n + 1)
    for j in range((n // 2) + 1):
        num = Fraction((-1) ** j) * math.factorial(2 * n - 2 * j) * (A + Fraction(n * (n - 1), 2) + 2 * j)
        den = Fraction(2) ** n * math.factorial(j) * math.factorial(n - j) * math.factorial(n - 2 * j)
        coeffs[n - 2 * j] += num / den
    return Poly(coeffs), mu
