"""Frobenius series solutions of l[y] = 0 at the regular singular endpoints.

In the local coordinate t = x - e (e = +1 or -1) the expression maps a
formal power t^s to the stencil of `operator.power_stencil` centred at the
endpoint (nothing is transcribed), l[t^s] = sum_d rho_d(s) t^{s-pole+d},
with pole = -(lowest shift) and d = 0, 1, ...  The expression's order n is
the highest degree in s of any rho_d, and rho_0 is the indicial polynomial:
Fuchs's condition, deg rho_0 = n, makes the endpoint a regular singular
point, and `operator.LocalExpression`, the type `eigen_polynomial` reads at
centre 0, checks it.  Here pole = 3 and d = 0..3 at both
endpoints; rho_0 factors as +-8 (s-3)(s-2)(s-1)^2 s (s+1), so the indicial
roots are {3, 2, 1, 1, 0, -1}.

Series with a single log level, y = sum_m t^{r+m} (c_m + e_m ln|t|), satisfy

    level 1 :  sum_{m+d=n} e_m rho_d(r+m)                          = 0
    level 0 :  sum_{m+d=n} [ c_m rho_d(r+m) + e_m rho_d'(r+m) ]    = 0

for every n (using l[t^s ln|t|] = d/ds l[t^s]), with rho_d(s) and rho_d'(s)
read as ints from one table per endpoint (`LocalExpression.at`, one integer
Horner pass per row, no `Fraction`) that the six labels, `residual_order` and
the suite share through the memoised `operator.local_expression`.  Up to
`settle` (below) every coefficient is a variable of `linalg.eliminate`, a
linear form held as a `Poly`: e_n = x^(2n+1) and c_n = x^(2n+2).  Each
order's two rows are eliminated under their highest remaining variable, so
at a non-resonant order c_n's own row gives -rest/rho_0(r+n), and at a
resonance (rho_0(r+n) = 0) the row eliminates the latest variable left in
the rest and the coefficient stays free.  Delayed elimination matters: e.g.
the pure exponent-1 solution has its second coefficient forced to -(A+1)/2
by a row two orders later, so naive pin-to-zero would falsely obstruct.  At
`settle`, the last resonance (or the highest target offset, if later), the
canonicalization targets are eliminated too, and each coefficient is its
form reduced by the rows (`linalg.reduce`) with any free variable pinned
to 0.  The recurrence rows are homogeneous, so only a target can leave a
nonzero constant: the single-log ansatz (or the requested normalization)
is impossible, and `ObstructionUnexpectedError` is raised.  The rows are
ints scaled by q = `LocalExpression.scale` (the lcm of the stencil's
denominators); both levels are homogeneous in them.
Past `settle` no pivot vanishes, and `LocalExpression.continue_solution`
runs the rest on ints.

A solution is y = t^r (C(t) + E(t) ln|t|), C and E the `Poly`s whose t^m
coefficients are c_m and e_m.  With theta = t d/dt, rho(r+theta) scales the
t^m coefficient by rho(r+m), so l[y] = t^{r-pole} (C' + E' ln|t|) with
C' = sum_d t^d [rho_d(r+theta) C + rho_d'(r+theta) E] and
E' = sum_d t^d rho_d(r+theta) E, each level one integer pass over one
denominator (`Poly.scaled_sum`), and dy/dt = t^{r-1} ((r+theta) C + E +
(r+theta) E ln|t|).

Canonical basis (labels give the leading exponent).  The one table
`_SOLUTIONS` holds, per label, the leading exponent, whether the ansatz has a
log level, and the normalization targets; `SOLUTION_LABELS` is its key order.

    phi-3        t^3,  no log
    phi-2        t^2,  log part forced, starting one order up
    phi-1        t^1,  pure (its t^2 coefficient is determined, see above)
    phi-hat-1    t^1 with log part exactly 3 x the phi-1 series
    phi-0        t^0 with log part starting one order up; the recurrence
                 leaves the log scale FREE here (pinning it to zero collapses
                 the solution to the constant 1, which trivially solves), so
                 the canonical choice normalizes the log leading coefficient
                 to 1 and the removability is reported as a finding
    phi-minus-1  t^-1, log part forced

Square-integrability near an endpoint is decided by the leading exponent r:
integral of t^{2r} ln^{2k} t converges at 0 iff 2r > -1, i.e. iff r >= 0 for
integer exponents (log factors never matter there).  `is_square_integrable`
applies that test to a solution or to one of its first three termwise
derivatives (`SeriesSolution.derivative`).  Five of the six solutions are
square integrable at each endpoint, and the deficiency index of the minimal
operator is d_+ + d_- minus the order, 5 + 5 - 6 = 4.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest

from .germs import _check_endpoint
from .linalg import eliminate, reduce
from .operator import KrallParams, LocalExpression, local_expression
from .polynomials import Poly, format_rational
from .values import Value

_set = object.__setattr__

#: The smallest truncation order `solution_basis` accepts; `deficiency_index`
#: solves at this order.
MIN_ORDER = 12

#: label -> (leading exponent, whether the ansatz carries a log level,
#: canonicalization targets).  The targets are ordered ((offset, log_level),
#: value) assignments eliminated against whatever variables remain free after
#: the last resonance; any variable still free afterwards is pinned to 0.
_SOLUTIONS = {
    "phi-3": (3, False, (((0, 0), 1),)),
    "phi-2": (2, True, (((0, 0), 1), ((1, 0), 0))),
    "phi-1": (1, False, (((0, 0), 1), ((2, 0), 0))),
    "phi-hat-1": (1, True, (((0, 1), 3), ((0, 0), 1), ((2, 1), 0), ((2, 0), 0))),
    "phi-0": (0, True, (((0, 0), 1), ((1, 1), 1), ((1, 0), 0), ((2, 0), 0), ((3, 0), 0))),
    "phi-minus-1": (
        -1, True, (((0, 0), 1), ((1, 0), 0), ((2, 1), 0), ((2, 0), 0), ((3, 0), 0), ((4, 0), 0))
    ),
}

SOLUTION_LABELS = tuple(_SOLUTIONS)


class ObstructionUnexpectedError(ArithmeticError):
    """A resonance forces a log level the single-log ansatz lacks."""


def _size(levels) -> int:
    """The number of t^m coefficients the longer level holds."""
    return max((p.degree + 1 for p in levels if p), default=0)


def _valuation(levels) -> int | None:
    """The lowest power of t with a nonzero coefficient in either level."""
    return min((p.valuation() for p in levels if p), default=None)


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------


class SeriesSolution(Value):
    """Truncated t^r (C(t) + E(t) ln|t|) at one endpoint; `levels` is (C, E),
    Polys whose t^m coefficients are c_m and e_m."""

    __slots__ = _fields = ("endpoint", "exponent", "label", "order", "levels")

    def __init__(self, endpoint: int, exponent: int, label: str, order: int, levels: tuple):
        _set(self, "endpoint", endpoint)
        _set(self, "exponent", exponent)
        _set(self, "label", label)
        _set(self, "order", order)
        _set(self, "levels", levels)

    def coefficient(self, offset: int, level: int) -> Fraction:
        """c_offset (level 0) or e_offset (level 1); past the truncation it is unknown, not 0."""
        if level not in (0, 1):
            raise ValueError(f"log level must be 0 or 1, got {level}")
        if not 0 <= offset <= self.order:
            raise ValueError(f"offset {offset} is outside the solved range 0..{self.order}")
        return self.levels[level][offset]

    def log_degree(self) -> int:
        return 1 if self.levels[1] else 0

    def leading_exponent(self) -> int | None:
        valuation = _valuation(self.levels)
        return None if valuation is None else self.exponent + valuation

    def derivative(self) -> "SeriesSolution":
        """Termwise d/dt: t^{r-1} ((r+theta) C + E + (r+theta) E ln|t|)."""
        C, E = self.levels
        r_theta = range(self.exponent, self.exponent + _size(self.levels))
        levels = (Poly.scaled_sum([(0, C, r_theta)]) + E, Poly.scaled_sum([(0, E, r_theta)]))
        return SeriesSolution(self.endpoint, self.exponent - 1, self.label, self.order, levels)

    def format_series(self) -> str:
        """Dump format: header line then one "(m, k) p/q" line per term."""
        lines = [
            f"endpoint {self.endpoint:+d}; exponent {self.exponent}; "
            f"log-degree {self.log_degree()}; order {self.order}; label {self.label}"
        ]
        for m, pair in enumerate(zip_longest(*(p.coeffs for p in self.levels), fillvalue=0)):
            lines += [f"({m}, {k}) {format_rational(c)}" for k, c in enumerate(pair) if c]
        return "\n".join(lines)


def _solve_single(local: LocalExpression, label: str, order: int) -> SeriesSolution:
    """Run the two-level recurrence for one label through `linalg.eliminate`.

    Order n <= `settle` eliminates the rows pivot e_n + T1 (with a log level) and
    pivot c_n + slope e_n + T0, then the targets; each coefficient is its reduced
    form's constant.  No pivot past `settle` is zero, so `local.continue_solution`
    runs the later orders on ints.
    """
    r, with_log, targets = _SOLUTIONS[label]
    pivots = [local.at(r + n)[0][0] for n in range(order + 1)]
    settle = max([n for n, pivot in enumerate(pivots) if pivot == 0] + [m for (m, _), _ in targets])

    e, c = [], []  # level-1 and level-0 coefficients: variables, then Fractions
    rows: dict[int, Poly] = {}  # x^i -> the monic row eliminating variable i
    for n in range(settle + 1):
        tail1, tail0 = local.row_sum(r + n, 0, c, e)
        pivot, slope = local.at(r + n)[0]
        # without a log level every e_m is 0, and so is tail1: there is no level-1 row
        e.append(Poly.monomial(2 * n + 1) if with_log else Poly())
        c.append(Poly.monomial(2 * n + 2))
        if with_log:
            eliminate(rows, tail1 + e[n] * pivot)
        eliminate(rows, tail0 + e[n] * slope + c[n] * pivot)
    for (m, level), value in targets:
        form = eliminate(rows, (e if level else c)[m] - value)
        if form.degree == 0:
            raise ObstructionUnexpectedError(
                f"{label} at endpoint {local.center:+d}: target {(m, level)}={value} leaves "
                f"nonzero constant {form[0]}"
            )
    e, c = [reduce(rows, form)[0] for form in e], [reduce(rows, form)[0] for form in c]

    den = math.lcm(*(f.denominator for f in e + c))
    e, c = ([f.numerator * (den // f.denominator) for f in level] for level in (e, c))
    levels = local.continue_solution(range(r + settle + 1, r + order + 1), c, e, den)
    return SeriesSolution(local.center, r, label, order, levels)


def series_solution(endpoint: int, label: str, order: int, params: KrallParams) -> SeriesSolution:
    """The canonical truncated solution `label` (one of SOLUTION_LABELS) at one endpoint.

    `order` is the truncation order N (>= MIN_ORDER): coefficients are solved
    for offsets 0..N, so the residual of the solution starts above t^{r+N-pole}.
    """
    _check_endpoint(endpoint)
    if order < MIN_ORDER:
        raise ValueError(f"truncation order must be at least {MIN_ORDER}")
    if label not in _SOLUTIONS:
        raise ValueError(f"unknown solution label {label!r}; expected one of {', '.join(SOLUTION_LABELS)}")
    return _solve_single(local_expression(endpoint, params), label, order)


def solution_basis(endpoint: int, order: int, params: KrallParams) -> list[SeriesSolution]:
    """The six canonical truncated solutions at one endpoint: `series_solution` of each label."""
    return [series_solution(endpoint, label, order, params) for label in SOLUTION_LABELS]


def basis_findings(basis: list[SeriesSolution]) -> list[str]:
    """Structural findings worth surfacing in reports."""
    findings = []
    by_label = {sol.label: sol for sol in basis}
    phi0 = by_label["phi-0"]
    if phi0.coefficient(0, 1) == 0 and phi0.log_degree() == 1:
        findings.append(
            "exponent-0 solution: the log part is a removable admixture of the"
            " exponent-1 log solution (the recurrence leaves its scale free; the"
            " pinned-to-zero variant is the constant 1); canonical choice"
            " normalizes the log leading coefficient to 1"
        )
    phim1 = by_label["phi-minus-1"]
    if phim1.log_degree() == 1:
        findings.append("exponent--1 solution: log part is forced by the recurrence")
    phi2 = by_label["phi-2"]
    if phi2.coefficient(0, 1) == 0 and phi2.coefficient(1, 1) != 0:
        findings.append(
            "exponent-2 solution: log part forced, starting one order above the"
            " leading exponent (discovered, not assumed)"
        )
    return findings


def residual_order(sol: SeriesSolution, params: KrallParams) -> int | None:
    """Lowest absolute t-exponent where l[sol] has a nonzero coefficient.

    None means the truncated series solves the equation exactly (e.g. the
    constant).  For a valid truncation at order N the residual order must
    exceed N - 6; for the canonical solutions it is exactly r + N - 2.
    """
    local = local_expression(sol.endpoint, params)
    valuation = _valuation(local.apply_to_series(sol.exponent, sol.levels))
    return None if valuation is None else sol.exponent - local.pole + valuation


def corrupted(sol: SeriesSolution) -> SeriesSolution:
    """Negative control: add 1 to the t^(r+5) coefficient so the residual order drops."""
    C, E = sol.levels
    levels = (C + Poly.monomial(5), E)
    return SeriesSolution(sol.endpoint, sol.exponent, sol.label + "-corrupted", sol.order, levels)


# ---------------------------------------------------------------------------
# square integrability and deficiency
# ---------------------------------------------------------------------------


def is_square_integrable(sol: SeriesSolution, derivatives: int = 0) -> bool:
    """Near-endpoint L2 of the termwise `derivatives`-th derivative (<= 3).

    The criterion is the leading exponent r: integrable iff 2r > -1, i.e.
    r >= 0 for integer exponents; log factors do not change it (t^{2r}
    ln^{2k} t is integrable at 0 for any k when 2r > -1).
    """
    if not 0 <= derivatives <= 3:
        raise ValueError(f"derivative order {derivatives} is outside the verified range 0..3")
    for _ in range(derivatives):
        sol = sol.derivative()
    lead = sol.leading_exponent()
    return lead is None or lead >= 0


def l2_classification(basis: list[SeriesSolution]) -> dict:
    """Per-solution square-integrability flags and the L2 count of one basis."""
    flags = {sol.label: is_square_integrable(sol) for sol in basis}
    return {"flags": flags, "count": sum(flags.values())}


def deficiency_index(params: KrallParams) -> int:
    """d_+ + d_- minus the order, where d_e is the L2 count at endpoint e (bases of order MIN_ORDER)."""
    d_plus = l2_classification(solution_basis(1, MIN_ORDER, params))["count"]
    d_minus = l2_classification(solution_basis(-1, MIN_ORDER, params))["count"]
    return d_plus + d_minus - local_expression(1, params).order
