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

for every n (using l[t^s ln|t|] = d/ds l[t^s]).  The solver walks n upward
keeping every coefficient as an exact linear form in the free parameters
introduced at resonances (orders where rho_0(r+n) = 0).  Constraint rows are
eliminated against the free parameters as they appear.  Every constraint --
a recurrence row at a resonance or a canonicalization target -- goes through
the one path `resolve_constraint`; one that survives elimination as a nonzero
constant means the single-log ansatz (or the requested normalization) is
impossible and raises `ObstructionUnexpectedError`.  Delayed elimination
matters: e.g. the pure exponent-1 solution has its second coefficient forced
to -(A+1)/2 by a constraint two orders later, so naive pin-to-zero would
falsely obstruct.

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
derivatives.  Five of the six solutions are square integrable at each
endpoint, and the deficiency index of the minimal operator is
d_+ + d_- - 6 = 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .operator import KrallParams, power_stencil
from .polynomials import Poly, format_rational

#: label -> (leading exponent, whether the ansatz carries a log level,
#: canonicalization targets).  The targets are ordered ((offset, log_level),
#: value) assignments resolved against whatever parameters remain free after
#: the recurrence; any parameter still free afterwards is pinned to 0.
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


# ---------------------------------------------------------------------------
# linear forms in free parameters
# ---------------------------------------------------------------------------


class LinExpr:
    """const + sum coeff_i * param_i over Fraction, immutable-ish and tiny."""

    __slots__ = ("const", "coeffs")

    def __init__(self, const: Fraction = Fraction(0), coeffs: Optional[dict[int, Fraction]] = None):
        self.const = Fraction(const)
        self.coeffs = {p: c for p, c in (coeffs or {}).items() if c != 0}

    @staticmethod
    def param(index: int) -> "LinExpr":
        return LinExpr(Fraction(0), {index: Fraction(1)})

    def __add__(self, other: "LinExpr") -> "LinExpr":
        coeffs = dict(self.coeffs)
        for p, c in other.coeffs.items():
            coeffs[p] = coeffs.get(p, Fraction(0)) + c
        return LinExpr(self.const + other.const, coeffs)

    def scale(self, factor: Fraction) -> "LinExpr":
        if factor == 0:
            return LinExpr()
        return LinExpr(self.const * factor, {p: c * factor for p, c in self.coeffs.items()})

    def substitute(self, param: int, replacement: "LinExpr") -> "LinExpr":
        if param not in self.coeffs:
            return self
        coeff = self.coeffs[param]
        rest = LinExpr(self.const, {p: c for p, c in self.coeffs.items() if p != param})
        return rest + replacement.scale(coeff)

    def is_constant(self) -> bool:
        return not self.coeffs

    def __repr__(self) -> str:
        body = " + ".join(f"{c}*p{p}" for p, c in sorted(self.coeffs.items()))
        return f"LinExpr({self.const}" + (f" + {body})" if body else ")")


def _accumulate(out: dict, key, value: Fraction) -> None:
    """out[key] += value, keeping `out` free of zero entries."""
    if value == 0:
        return
    total = out.get(key, Fraction(0)) + value
    if total == 0:
        del out[key]
    else:
        out[key] = total


# ---------------------------------------------------------------------------
# the local expression and its stencil
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalExpression:
    """The expression at one endpoint: `stencil[d]` is rho_{d-3} of `power_stencil`
    there, and `dstencil[d]` its derivative rho_{d-3}', both in ascending d."""

    endpoint: int
    params: KrallParams
    stencil: dict = field(hash=False, compare=False, default=None)
    dstencil: dict = field(hash=False, compare=False, default=None)

    def __post_init__(self):
        if self.endpoint not in (-1, 1):
            raise ValueError("endpoint must be -1 or +1")
        stencil = {
            shift + 3: rho for shift, rho in sorted(power_stencil(self.params, self.endpoint).items())
        }
        if min(stencil) < 0:
            raise AssertionError("not a regular singular point structure")
        object.__setattr__(self, "stencil", stencil)
        object.__setattr__(self, "dstencil", {d: rho.derivative() for d, rho in stencil.items()})

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

    def apply_to_series(self, terms: dict) -> dict:
        """Apply the expression to {(absolute_exponent, level): Fraction} terms.

        rho_d(s) and rho_d'(s) are evaluated once per exponent s, shared by
        both log levels.
        """
        out: dict[tuple[int, int], Fraction] = {}
        values: dict[int, list] = {}
        for (s, level), coeff in terms.items():
            at_s = values.get(s)
            if at_s is None:
                at_s = values[s] = [(d, rho(s), self.dstencil[d](s)) for d, rho in self.stencil.items()]
            for d, value, dvalue in at_s:
                target = s - 3 + d
                _accumulate(out, (target, level), coeff * value)
                if level == 1:
                    _accumulate(out, (target, 0), coeff * dvalue)
        return out


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesSolution:
    """Truncated sum_m t^{r+m} (c_m + e_m ln|t|) at one endpoint."""

    endpoint: int
    exponent: int
    label: str
    order: int
    terms: dict = field(hash=False)  # (offset m, level k) -> Fraction, no zeros

    def coefficient(self, offset: int, level: int) -> Fraction:
        return self.terms.get((offset, level), Fraction(0))

    def log_degree(self) -> int:
        return 1 if any(level == 1 for (_, level) in self.terms) else 0

    def leading_exponent(self) -> Optional[int]:
        if not self.terms:
            return None
        return self.exponent + min(m for (m, _) in self.terms)

    def level_coefficients(self, level: int) -> dict[int, Fraction]:
        return {m: c for (m, k), c in self.terms.items() if k == level}

    def absolute_terms(self) -> dict[tuple[int, int], Fraction]:
        return {(self.exponent + m, k): c for (m, k), c in self.terms.items()}

    def differentiated_terms(self, times: int) -> dict[tuple[int, int], Fraction]:
        """Termwise d/dt applied `times` times to the absolute terms."""
        terms = self.absolute_terms()
        for _ in range(times):
            nxt: dict[tuple[int, int], Fraction] = {}
            for (s, k), c in terms.items():
                _accumulate(nxt, (s - 1, k), c * s)
                if k >= 1:
                    _accumulate(nxt, (s - 1, k - 1), c * k)
            terms = nxt
        return terms

    def format_series(self) -> str:
        """Dump format: header line then one "(m, k) p/q" line per term."""
        head = (
            f"endpoint {self.endpoint:+d}; exponent {self.exponent}; "
            f"log-degree {self.log_degree()}; order {self.order}; label {self.label}"
        )
        lines = [head]
        for (m, k), c in sorted(self.terms.items()):
            lines.append(f"({m}, {k}) {format_rational(c)}")
        return "\n".join(lines)


def _solve_single(local: LocalExpression, label: str, order: int) -> SeriesSolution:
    """Run the two-level recurrence with delayed elimination for one label."""
    r, with_log, targets = _SOLUTIONS[label]
    rhos, rhods = local.stencil, local.dstencil

    e: dict[int, LinExpr] = {}
    c: dict[int, LinExpr] = {}
    substitutions: dict[int, LinExpr] = {}
    next_param = 0

    def reduce(expr: LinExpr) -> LinExpr:
        # substitutions always express a parameter in strictly lower-indexed
        # ones (constraints eliminate the max index), so this terminates
        while any(p in substitutions for p in expr.coeffs):
            for p in list(expr.coeffs):
                if p in substitutions:
                    expr = expr.substitute(p, substitutions[p])
        return expr

    def new_param() -> LinExpr:
        nonlocal next_param
        next_param += 1
        return LinExpr.param(next_param - 1)

    def resolve_constraint(expr: LinExpr, context: str):
        expr = reduce(expr)
        if expr.is_constant():
            if expr.const != 0:
                raise ObstructionUnexpectedError(
                    f"{label} at endpoint {local.endpoint:+d}: {context} leaves "
                    f"nonzero constant {expr.const}"
                )
            return
        # eliminate the latest-introduced parameter present
        target = max(expr.coeffs)
        coeff = expr.coeffs[target]
        rest = LinExpr(expr.const, {p: v for p, v in expr.coeffs.items() if p != target})
        substitutions[target] = rest.scale(Fraction(-1) / coeff)

    for n in range(order + 1):
        s_n = r + n
        rho0_n = rhos[0](s_n)
        rho0d_n = rhods[0](s_n)
        # known contributions from earlier offsets
        tail1 = LinExpr()
        tail0 = LinExpr()
        for d in rhos:
            m = n - d
            if d == 0 or m < 0:
                continue
            s_m = r + m
            if with_log and m in e:
                tail1 = tail1 + e[m].scale(rhos[d](s_m))
                tail0 = tail0 + e[m].scale(rhods[d](s_m))
            if m in c:
                tail0 = tail0 + c[m].scale(rhos[d](s_m))

        if with_log:
            if rho0_n != 0:
                # level 1 determines e_n, then level 0 determines c_n
                e[n] = reduce(tail1.scale(Fraction(-1) / rho0_n))
                numer = tail0 + e[n].scale(rho0d_n)
                c[n] = reduce(numer.scale(Fraction(-1) / rho0_n))
            else:
                resolve_constraint(tail1, f"level-1 order {n}")
                if rho0d_n != 0:
                    # level 0 determines e_n; c_n is free
                    e[n] = reduce(tail0.scale(Fraction(-1) / rho0d_n))
                    c[n] = new_param()
                else:
                    # double root: both constraints, both coefficients free
                    resolve_constraint(tail0, f"level-0 order {n}")
                    e[n] = new_param()
                    c[n] = new_param()
        else:
            e[n] = LinExpr()
            if rho0_n != 0:
                c[n] = reduce(tail0.scale(Fraction(-1) / rho0_n))
            else:
                resolve_constraint(tail0, f"level-0 order {n}")
                c[n] = new_param()

    # canonicalization targets, applied in declared order
    for (m, level), value in targets:
        slot = e[m] if level == 1 else c[m]
        resolve_constraint(slot + LinExpr(-value), f"target {(m, level)}={value}")

    # remaining free parameters are pinned to 0
    for idx in range(next_param):
        if idx not in substitutions:
            substitutions[idx] = LinExpr()

    def finalize(expr: LinExpr) -> Fraction:
        expr = reduce(expr)
        if not expr.is_constant():
            raise AssertionError(f"parameter left unresolved in {expr!r}")
        return expr.const

    terms: dict[tuple[int, int], Fraction] = {}
    for n in range(order + 1):
        _accumulate(terms, (n, 0), finalize(c[n]))
        _accumulate(terms, (n, 1), finalize(e[n]))
    return SeriesSolution(local.endpoint, r, label, order, terms)


def solution_basis(endpoint: int, order: int, params: KrallParams) -> list[SeriesSolution]:
    """The six canonical truncated solutions at one endpoint.

    `order` is the truncation order N (>= 12): coefficients are solved for
    offsets 0..N, so the residual of each solution starts above t^{r+N-3}.
    """
    if order < 12:
        raise ValueError("truncation order must be at least 12")
    local = LocalExpression(endpoint, params)
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
    exceed N - 6 -- in fact it lands above r + N - 3.
    """
    local = LocalExpression(sol.endpoint, params)
    image = local.apply_to_series(sol.absolute_terms())
    if not image:
        return None
    return min(s for (s, _) in image)


def corrupted(sol: SeriesSolution) -> SeriesSolution:
    """Negative control: add 1 to the t^(r+5) coefficient so the residual order drops."""
    terms = dict(sol.terms)
    terms[(5, 0)] = terms.get((5, 0), Fraction(0)) + 1
    return SeriesSolution(sol.endpoint, sol.exponent, sol.label + "-corrupted", sol.order, terms)


# ---------------------------------------------------------------------------
# square integrability and deficiency
# ---------------------------------------------------------------------------


def is_square_integrable(sol: SeriesSolution, derivatives: int = 0) -> bool:
    """Near-endpoint L2 of the termwise `derivatives`-th derivative (<= 3).

    The criterion is the leading exponent r: integrable iff 2r > -1, i.e.
    r >= 0 for integer exponents; log factors do not change it (t^{2r}
    ln^{2k} t is integrable at 0 for any k when 2r > -1).
    """
    if derivatives > 3:
        raise ValueError("derivative order grows past the verified range")
    terms = sol.differentiated_terms(derivatives)
    return not terms or min(s for (s, _) in terms) >= 0


def l2_classification(basis: list[SeriesSolution]) -> dict:
    """Per-solution square-integrability flags and the L2 count of one basis."""
    flags = {sol.label: is_square_integrable(sol) for sol in basis}
    return {"flags": flags, "count": sum(flags.values())}


def deficiency_index(params: KrallParams, order: int = 12) -> int:
    """d_+ + d_- - 6 where d_e is the L2 count at endpoint e."""
    d_plus = l2_classification(solution_basis(1, order, params))["count"]
    d_minus = l2_classification(solution_basis(-1, order, params))["count"]
    return d_plus + d_minus - 6
