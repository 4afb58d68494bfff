"""Frobenius series solutions of l[y] = 0 at the regular singular endpoints.

In the local coordinate t = x - e (e = +1 or -1) the order-6 coefficient of
the expression vanishes to order exactly 3 at t = 0, so both endpoints are
regular singular points.  Applying the expression to a formal power t^s
yields a four-term stencil

    l[t^s] = sum_{d=0}^{3} rho_d(s) t^{s-3+d},

where each rho_d is a polynomial in s from `operator.power_stencil` centred
at the endpoint (nothing is transcribed).  rho_0 is the indicial
polynomial; at either endpoint it factors as +-8 (s-3)(s-2)(s-1)^2 s (s+1),
so the indicial roots are {3, 2, 1, 1, 0, -1}.

Series with a single log level, y = sum_m t^{r+m} (c_m + e_m ln|t|), satisfy

    level 1 :  sum_{m+d=n} e_m rho_d(r+m)                          = 0
    level 0 :  sum_{m+d=n} [ c_m rho_d(r+m) + e_m rho_d'(r+m) ]    = 0

for every n (using l[t^s ln|t|] = d/ds l[t^s]), with rho_d(s) and rho_d'(s)
read from one table per endpoint (`LocalExpression.at`, one value-and-slope
Horner pass per row) that the six labels, `residual_order` and the suite
share through the memoised `local_expression`.  Up to `settle` (below) the solver
keeps every coefficient as an exact linear form in the free parameters p_1,
p_2, ... introduced at resonances (orders where rho_0(r+n) = 0), held as the
`Poly` const + sum_i a_i x^i, so forms add and scale as polynomials do.  One elimination rule
serves every order: the coefficient times rho_0(r+n) plus the known rest
must vanish, so the coefficient is -rest/rho_0(r+n), or, at a resonance, the
rest becomes a constraint and the coefficient a fresh parameter.  Every
constraint -- a recurrence row at a resonance or a canonicalization target
-- goes through the one path `resolve_constraint`, which eliminates the
latest parameter present (the form's degree); one that survives elimination
as a nonzero constant means the single-log ansatz (or the requested
normalization) is impossible and raises `ObstructionUnexpectedError`.
Delayed elimination matters: e.g. the pure exponent-1 solution has its
second coefficient forced to -(A+1)/2 by a constraint two orders later, so
naive pin-to-zero would falsely obstruct.  Parameters settle at the last
resonance (or the highest target offset, if later): there the targets are
applied, the parameters still free are pinned to 0, and every form becomes
its constant: past `settle` the same loop runs on plain Fractions.

A solution is y = t^r (C(t) + E(t) ln|t|), C and E the `Poly`s whose t^m
coefficients are c_m and e_m.  With theta = t d/dt, rho(r+theta) scales the
t^m coefficient by rho(r+m), so l[y] = t^{r-3} (C' + E' ln|t|) with
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
operator is d_+ + d_- - 6 = 4.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import zip_longest
from typing import Optional

from .operator import KrallParams, power_stencil
from .polynomials import Poly, format_rational

#: The smallest truncation order `solution_basis` accepts; `deficiency_index`
#: solves at this order.
MIN_ORDER = 12

#: label -> (leading exponent, whether the ansatz carries a log level,
#: canonicalization targets).  The targets are ordered ((offset, log_level),
#: value) assignments resolved against whatever parameters remain free after
#: the last resonance; any parameter still free afterwards is pinned to 0.
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


def _valuation(levels) -> Optional[int]:
    """The lowest power of t with a nonzero coefficient in either level."""
    return min((p.valuation() for p in levels if p), default=None)


# ---------------------------------------------------------------------------
# the local expression and its stencil
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalExpression:
    """The expression at one endpoint: `stencil[d]` is rho_{d-3} of `power_stencil`
    there, in ascending d, and `table[s]` the row `at(s)` once it is asked for."""

    endpoint: int
    params: KrallParams
    stencil: dict = field(hash=False, compare=False, default=None)
    table: dict = field(hash=False, compare=False, default_factory=dict, repr=False)

    def __post_init__(self):
        if self.endpoint not in (-1, 1):
            raise ValueError("endpoint must be -1 or +1")
        stencil = {
            shift + 3: rho for shift, rho in sorted(power_stencil(self.params, self.endpoint).items())
        }
        if min(stencil) < 0:
            raise AssertionError("not a regular singular point structure")
        object.__setattr__(self, "stencil", stencil)

    def at(self, s: int) -> dict:
        """{d: (rho_d(s), rho_d'(s))}, worked out once per s and kept in `table`."""
        row = self.table.get(s)
        if row is None:
            row = self.table[s] = {d: rho.value_and_slope(s) for d, rho in self.stencil.items()}
        return row

    def indicial_polynomial(self) -> Poly:
        """rho_0(s), computed from the local coefficients."""
        return self.stencil[0]

    def indicial_roots(self) -> list[int]:
        """Integer roots with multiplicity, descending; fails loudly otherwise."""
        p = self.indicial_polynomial()
        roots = []
        for candidate in range(10, -11, -1):
            mult, p, _ = p.split_root(candidate)
            roots += [candidate] * mult
        if p.degree not in (None, 0):
            raise ArithmeticError(
                f"indicial polynomial has a non-integer factor: {p.format_coeffs()}"
            )
        return sorted(roots, reverse=True)

    def apply_to_series(self, r: int, levels: tuple) -> tuple[Poly, Poly]:
        """(C', E') with l[t^r (C + E ln|t|)] = t^{r-3} (C' + E' ln|t|), from the rows `at(r+m)`:
        each level is one integer pass (`Poly.scaled_sum`), normalised once."""
        C, E = levels
        rows = [self.at(r + m) for m in range(_size(levels))]
        value_terms = [(d, E, [row[d][0] for row in rows]) for d in self.stencil]
        slope_terms = [(d, E, [row[d][1] for row in rows]) for d in self.stencil]
        out_c = Poly.scaled_sum([(d, C, values) for d, _, values in value_terms] + slope_terms)
        return out_c, Poly.scaled_sum(value_terms)


@functools.lru_cache(maxsize=64)
def local_expression(endpoint: int, params: KrallParams) -> LocalExpression:
    """The shared `LocalExpression` at (endpoint, params); the bound caps the tables kept."""
    return LocalExpression(endpoint, params)


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesSolution:
    """Truncated t^r (C(t) + E(t) ln|t|) at one endpoint; `levels` is (C, E)."""

    endpoint: int
    exponent: int
    label: str
    order: int
    levels: tuple  # (C, E): Polys whose t^m coefficients are c_m and e_m

    def coefficient(self, offset: int, level: int) -> Fraction:
        """c_offset (level 0) or e_offset (level 1); past the truncation it is unknown, not 0."""
        if level not in (0, 1):
            raise ValueError(f"log level must be 0 or 1, got {level}")
        if not 0 <= offset <= self.order:
            raise ValueError(f"offset {offset} is outside the solved range 0..{self.order}")
        return self.levels[level][offset]

    def log_degree(self) -> int:
        return 1 if self.levels[1] else 0

    def leading_exponent(self) -> Optional[int]:
        valuation = _valuation(self.levels)
        return None if valuation is None else self.exponent + valuation

    def derivative(self) -> "SeriesSolution":
        """Termwise d/dt: t^{r-1} ((r+theta) C + E + (r+theta) E ln|t|)."""
        C, E = self.levels
        r_theta = range(self.exponent, self.exponent + _size(self.levels))
        levels = (Poly.scaled_sum([(0, C, r_theta)]) + E, Poly.scaled_sum([(0, E, r_theta)]))
        return replace(self, exponent=self.exponent - 1, levels=levels)

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
    """Run the two-level recurrence for one label, with one elimination rule.

    Up to `settle` coefficients are linear forms held as `Poly`s (p_i is
    x^i).  `solve` gives each coefficient from coefficient * pivot + rest = 0,
    or, for a zero pivot, constrains rest = 0 and returns a fresh parameter.
    At `settle` the targets are applied, the free parameters pinned to 0, and
    every coefficient becomes its constant; the same loop then runs on plain
    Fractions, since no pivot past `settle` is zero.
    """
    r, with_log, targets = _SOLUTIONS[label]
    pivots = [local.at(r + n)[0][0] for n in range(order + 1)]
    settle = max([n for n, pivot in enumerate(pivots) if pivot == 0] + [m for (m, _), _ in targets])

    e, c = [], []  # level-1 and level-0 coefficients: forms, then Fractions
    rows: dict[int, Poly] = {}  # x^i -> the monic constraint eliminating p_i
    params = 0

    def reduce(form: Poly) -> Poly:
        # a row eliminating p_i holds only lower parameters, so one descending pass
        for i in range(form.degree or 0, 0, -1):
            if i in rows and form[i]:
                form = form - rows[i] * form[i]
        return form

    def resolve_constraint(form: Poly, context: str) -> None:
        # eliminate the latest-introduced parameter present
        form = reduce(form)
        if form.degree:
            rows[form.degree] = form.monic()
        elif form:
            raise ObstructionUnexpectedError(
                f"{label} at endpoint {local.endpoint:+d}: {context} leaves "
                f"nonzero constant {form[0]}"
            )

    def solve(rest: Poly | Fraction, pivot: Fraction, context: str) -> Poly | Fraction:
        nonlocal params
        if pivot:
            return rest * (-1 / pivot)
        resolve_constraint(rest, context)
        params += 1
        return Poly.monomial(params)

    for n in range(order + 1):
        # before `settle` a tail stays a Poly: at a resonance it is a constraint
        tail1 = tail0 = Poly() if n <= settle else Fraction(0)
        for d in local.stencil:
            m = n - d
            if d and m >= 0:
                value, slope = local.at(r + m)[d]
                tail1 = tail1 + e[m] * value
                tail0 = tail0 + c[m] * value + e[m] * slope
        # without a log level every e_m is 0, and so is tail1
        e.append(solve(tail1, pivots[n], f"level-1 order {n}") if with_log else tail1)
        c.append(solve(tail0 + e[n] * local.at(r + n)[0][1], pivots[n], f"level-0 order {n}"))
        if n == settle:
            for (m, level), value in targets:
                resolve_constraint((e if level else c)[m] - value, f"target {(m, level)}={value}")
            for i in range(1, params + 1):
                rows.setdefault(i, Poly.monomial(i))
            e, c = [reduce(form)[0] for form in e], [reduce(form)[0] for form in c]

    return SeriesSolution(local.endpoint, r, label, order, (Poly(c), Poly(e)))


def solution_basis(endpoint: int, order: int, params: KrallParams) -> list[SeriesSolution]:
    """The six canonical truncated solutions at one endpoint.

    `order` is the truncation order N (>= MIN_ORDER): coefficients are solved
    for offsets 0..N, so the residual of each solution starts above t^{r+N-3}.
    """
    if order < MIN_ORDER:
        raise ValueError(f"truncation order must be at least {MIN_ORDER}")
    local = local_expression(endpoint, params)
    return [_solve_single(local, label, order) for label in SOLUTION_LABELS]


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


def residual_order(sol: SeriesSolution, params: KrallParams) -> Optional[int]:
    """Lowest absolute t-exponent where l[sol] has a nonzero coefficient.

    None means the truncated series solves the equation exactly (e.g. the
    constant).  For a valid truncation at order N the residual order must
    exceed N - 6; for the canonical solutions it is exactly r + N - 2.
    """
    local = local_expression(sol.endpoint, params)
    valuation = _valuation(local.apply_to_series(sol.exponent, sol.levels))
    return None if valuation is None else sol.exponent - 3 + valuation


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
    """d_+ + d_- - 6 where d_e is the L2 count at endpoint e (bases of order MIN_ORDER)."""
    d_plus = l2_classification(solution_basis(1, MIN_ORDER, params))["count"]
    d_minus = l2_classification(solution_basis(-1, MIN_ORDER, params))["count"]
    return d_plus + d_minus - 6
