"""Bilinear concomitant, quasi-derivative, Green's formula, limit identities.

Integrating the sixth-order expression by parts produces a boundary bilinear
form [f, g] whose endpoint limits carry all boundary-condition information.
With w = 1-x^2, alpha = 3A+3B+6, Q = w^3, P = w(12+alpha w) and pi as in
`operator`, the concomitant is built from two auxiliary combinations:

    B[f]   = -(Q f''')'' + (P f'')' - pi f'     (the "bracket with one")
    Lam[f] = -(Q f''')'  +  P f''               (the quasi-derivative)

    [f, g] = B[f] g - B[g] f - Lam[f] g' + Lam[g] f' - Q (f''' g'' - f'' g''')

Lam is written once, in `quasi_derivative_terms`; B is computed from it as
B[f] = Lam[f]' - pi f'.

The five summands are kept in exactly this grouping so that divergence
diagnostics point at individual sub-expressions: `_concomitant_lines` is
the one place they are written, `concomitant` sums them and names the
diverging lines when the sum has no limit, and the endpoint reductions take
lines 3-5 from it.  All scalars are real rationals, so complex conjugation
is the identity and [f, g] = -[g, f].

Endpoint limits are germ-valuation limits (`germs.LogGerm.limit`); divergence
raises `DivergentLimitError`, the typed signal that an input pair lies
outside the limit class.

B[f] and Lam[f] on a germ are memoised: each (germ, params) pair is worked
out once and served to every later bracket, Omega, membership check,
quasi-derivative limit and reduction.  Both memos are `functools.lru_cache`s
bounded at 4096 entries and keyed by value (`LogGerm` and `KrallParams` hash
by value), like the germ derivatives they read (`germs._derivative`).  They
hold germs, never limits: `.limit()` runs on every call, so a
`DivergentLimitError` is never cached.

The module also provides:

  * `symplectic_form`: [f,g](1) - [f,g](-1), the Green's-formula boundary term;
  * `greens_formula_check`: both sides of Green's formula for global
    polynomials, computed independently (exact integration vs endpoint limits);
  * the canonical test functions of the theory (piecewise weights, the
    quasi-derivative probes, log-bearing probes, piecewise constants);
  * closed-form endpoint reduction formulas valid on the reduced domain, each
    cross-checked against the direct five-term limit;
  * membership predicates for the reduced domain (quasi-derivative vanishing
    at both endpoints) and for the separated auxiliary domain.

One caution baked into the tests rather than the code: the log-bearing
probes have quasi-derivative limit 32 at their endpoint.  Some sources quote
24 for that constant; 24 is inconsistent with the probes' own definition (it
drops the -(Q f''')' boundary contribution of 16 per unit of w ln w:
`quasi_derivative_terms_at` splits the 32 into 8 + 24), and the reduction
formula for [f, log-probe] reproduced here -- constant (32A+12B-16) and
residual +32 f' -- confirms 32.  See the errata suite.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .germs import DivergentLimitError, EndpointFn, LogGerm
from .operator import KrallParams, apply_expression
from .polynomials import Poly

WEIGHT = Poly([1, 0, -1])  # w(x) = 1 - x^2


# ---------------------------------------------------------------------------
# canonical test functions
# ---------------------------------------------------------------------------


def one_near(endpoint: int) -> EndpointFn:
    """1 near `endpoint`, 0 near the other (a piecewise constant)."""
    return EndpointFn.poly_near(endpoint, Poly.one())


def weight_near(endpoint: int) -> EndpointFn:
    """(1-x^2) near `endpoint`, 0 near the other."""
    return EndpointFn.poly_near(endpoint, WEIGHT)


def weight_sq_near(endpoint: int) -> EndpointFn:
    """(1-x^2)^2 near `endpoint`, 0 near the other."""
    return EndpointFn.poly_near(endpoint, WEIGHT**2)


def _probe_poly(endpoint: int, params: KrallParams) -> Poly:
    """h_e = (1/2)w + (1/8)(C+2)w^2, with C = A at +1 and C = B at -1."""
    c = params.A if endpoint == 1 else params.B
    return Fraction(1, 2) * WEIGHT + Fraction(1, 8) * (c + 2) * WEIGHT**2


def quasi_probe(endpoint: int, params: KrallParams) -> EndpointFn:
    """The combination of w and w^2 whose bracket extracts the quasi-derivative.

    e * h_e near e, zero near the other endpoint: at +1 (1/2)w + (1/8)(A+2)w^2,
    at -1 the mirror image (B in place of A) with an overall minus sign.  For
    every f in the limit class, [f, probe](e) = Lam[f](e); see
    `quasi_derivative_probe_identity`.
    """
    return EndpointFn.poly_near(endpoint, endpoint * _probe_poly(endpoint, params))


def log_probe(endpoint: int, params: KrallParams) -> EndpointFn:
    """The log-bearing maximal-domain function h_e ln w near e, zero near the
    other endpoint: ((1/8)(A+2)w^2 + (1/2)w) ln w at +1, B in place of A at -1.

    The two summands are paired exactly so that the bracket against smooth
    functions stays finite (the ln divergences cancel); any other ratio of
    the two coefficients leaves the maximal-domain limit class.
    """
    return EndpointFn.log_poly_near(endpoint, _probe_poly(endpoint, params))


def boundary_condition_functions(params: KrallParams) -> list[EndpointFn]:
    """The four piecewise weights generating the operator's boundary conditions.

    Order: w^2 near +1, w^2 near -1, w near +1, w near -1.
    """
    return [weight_sq_near(1), weight_sq_near(-1), weight_near(1), weight_near(-1)]


def partial_gkn_pair() -> list[EndpointFn]:
    """Unit-scaled seed pair: 1 near -1 and 1 near +1.

    Positive scalings (the orthonormal-basis factors) cancel in every
    rational-valued quantity computed from these, so the unit normalization
    is used throughout.
    """
    return [one_near(-1), one_near(1)]


def probe_functions(params: KrallParams) -> list[EndpointFn]:
    """Independence probes: 1 near -1, 1 near +1, log probes at +1 and -1."""
    return [one_near(-1), one_near(1), log_probe(1, params), log_probe(-1, params)]


# ---------------------------------------------------------------------------
# core combinations
# ---------------------------------------------------------------------------


def quasi_derivative_terms(f, params: KrallParams):
    """The two summands of Lam[f], in order: -((1-x^2)^3 f''')' and P f''.

    This is the one place the Lam formula is written: B, the germ-level
    concomitant and the endpoint reductions go through it too.  Each summand
    is of f's class (Poly, EndpointFn or LogGerm in, the same out; a scalar
    is taken as a global constant).  For a log-bearing f the summands can
    diverge separately even where their sum has a limit.
    """
    if not isinstance(f, (Poly, LogGerm)):
        f = EndpointFn.from_poly(f)
    return -(f.derivative(3) * params.q_poly()).derivative(), f.derivative(2) * params.p_poly()


def _lam(f, params: KrallParams):
    q_term, p_term = quasi_derivative_terms(f, params)
    return q_term + p_term


_lam_germ = functools.lru_cache(maxsize=4096)(_lam)


def quasi_derivative(f, params: KrallParams):
    """Lam[f] = -((1-x^2)^3 f''')' + (1-x^2)(12+alpha(1-x^2)) f''.

    Returns the same class as f (Poly, EndpointFn or LogGerm); a germ's Lam
    is memoised per (germ, params).
    """
    return _lam_germ(f, params) if isinstance(f, LogGerm) else _lam(f, params)


def quasi_derivative_at(f, endpoint: int, params: KrallParams) -> Fraction:
    """Endpoint limit of the quasi-derivative, taken on f's memoised germ."""
    return _lam_germ(EndpointFn.from_poly(f).germ_at(endpoint), params).limit()


def quasi_derivative_terms_at(f, endpoint: int, params: KrallParams) -> tuple[Fraction, Fraction]:
    """Endpoint limits of the two summands of Lam[f] taken separately.

    Raises DivergentLimitError when a summand alone has no limit.  For the
    log probes the limits are 8 and 24, at both endpoints and for every
    (A, B): the stated constant 24 is the P f'' part alone.
    """
    q_term, p_term = quasi_derivative_terms(EndpointFn.from_poly(f).germ_at(endpoint), params)
    return q_term.limit(), p_term.limit()


@functools.lru_cache(maxsize=4096)
def _bracket_with_one_germ(g: LogGerm, params: KrallParams) -> LogGerm:
    """B[f] = -(Q f''')'' + (P f'')' - pi f' on a germ, written as Lam[f]' - pi f'."""
    return _lam_germ(g, params).derivative() - g.derivative(1) * params.pi_poly()


def _concomitant_lines(fg: LogGerm, gg: LogGerm, params: KrallParams) -> tuple[LogGerm, ...]:
    """The five summands of [f, g] as germs at one endpoint, in the order
    B[f] g, -B[g] f, -Lam[f] g', Lam[g] f', -Q (f''' g'' - f'' g''')."""
    return (
        _bracket_with_one_germ(fg, params) * gg,
        -(_bracket_with_one_germ(gg, params) * fg),
        -(quasi_derivative(fg, params) * gg.derivative(1)),
        quasi_derivative(gg, params) * fg.derivative(1),
        -((fg.derivative(3) * gg.derivative(2) - fg.derivative(2) * gg.derivative(3)) * params.q_poly()),
    )


def concomitant(f, g, endpoint: int, params: KrallParams) -> Fraction:
    """Endpoint limit of the bilinear concomitant [f, g](endpoint).

    Raises DivergentLimitError when the pair is outside the limit class; its
    detail names the endpoint and the lines (1-5, in the order of the module
    docstring) that diverge on their own.
    """
    f = EndpointFn.from_poly(f)
    g = EndpointFn.from_poly(g)
    lines = _concomitant_lines(f.germ_at(endpoint), g.germ_at(endpoint), params)
    try:
        return sum(lines[1:], lines[0]).limit()
    except DivergentLimitError as exc:
        diverging = ", ".join(str(i) for i, line in enumerate(lines, 1) if not line.has_limit())
        raise DivergentLimitError(
            endpoint, f"[f, g]({endpoint:+d}) lines {diverging} of 5 diverge; sum: {exc.detail}"
        ) from None


def concomitant_with_one(f, endpoint: int, params: KrallParams) -> Fraction:
    """Endpoint limit of B[f] (equals concomitant(f, 1, endpoint) exactly)."""
    f = EndpointFn.from_poly(f)
    return _bracket_with_one_germ(f.germ_at(endpoint), params).limit()


def symplectic_form(f, g, params: KrallParams) -> Fraction:
    """[f, g](1) - [f, g](-1), the boundary term of Green's formula."""
    return concomitant(f, g, 1, params) - concomitant(f, g, -1, params)


def greens_formula_check(f: Poly, g: Poly, params: KrallParams) -> tuple[Fraction, Fraction]:
    """(LHS, RHS) of Green's formula for global polynomials.

    LHS = integral(l[f] g - f l[g]) by exact termwise integration;
    RHS = the symplectic boundary form.  Equality is the caller's assertion.
    """
    lf = apply_expression(f, params)
    lg = apply_expression(g, params)
    lhs = (lf * g - f * lg).integrate_unit_interval()
    rhs = symplectic_form(f, g, params)
    return lhs, rhs


# ---------------------------------------------------------------------------
# closed-form endpoint reductions (reduced-domain formulas)
# ---------------------------------------------------------------------------


def reduced_concomitant(f, g, endpoint: int, params: KrallParams) -> Fraction:
    """Closed form of [f, g](e) on the reduced domain.

    At +1: -24(f''g - g''f)(1) - 24(A+1)(f'g - g'f)(1); the -1 version flips
    the second-derivative sign and uses B.
    """
    f = EndpointFn.from_poly(f)
    g = EndpointFn.from_poly(g)
    fe, ge = f.value_at(endpoint), g.value_at(endpoint)
    f1, g1 = f.derivative(1).value_at(endpoint), g.derivative(1).value_at(endpoint)
    f2, g2 = f.derivative(2).value_at(endpoint), g.derivative(2).value_at(endpoint)
    if endpoint == 1:
        return -24 * (f2 * ge - g2 * fe) - 24 * (params.A + 1) * (f1 * ge - g1 * fe)
    return 24 * (f2 * ge - g2 * fe) - 24 * (params.B + 1) * (f1 * ge - g1 * fe)


def bracket_weight_reduction(f, endpoint: int, params: KrallParams) -> Fraction:
    """[f, 1-x^2](e) via the quasi-derivative:

    +1: 2 Lam[f](1) - 48(A+2) f(1);  -1: -2 Lam[f](-1) + 48(B+2) f(-1).
    """
    f = EndpointFn.from_poly(f)
    lam = quasi_derivative_at(f, endpoint, params)
    fe = f.value_at(endpoint)
    if endpoint == 1:
        return 2 * lam - 48 * (params.A + 2) * fe
    return -2 * lam + 48 * (params.B + 2) * fe


def bracket_weight_sq_reduction(f, endpoint: int, params: KrallParams) -> Fraction:
    """[f, (1-x^2)^2](e) = +-192 f(+-1)."""
    f = EndpointFn.from_poly(f)
    return endpoint * 192 * f.value_at(endpoint)


def general_endpoint_reduction(f, g, endpoint: int, params: KrallParams) -> Fraction:
    """[f, g](e) decomposed as bracket-with-one terms plus a residual limit:

    [f,1](e) g(e) - [g,1](e) f(e)
        + lim( -Lam[f] g' + Lam[g] f' - (1-x^2)^3 (f''' g'' - f'' g''') ).
    """
    f = EndpointFn.from_poly(f)
    g = EndpointFn.from_poly(g)
    *_, line3, line4, line5 = _concomitant_lines(f.germ_at(endpoint), g.germ_at(endpoint), params)
    residual = line3 + line4 + line5
    head = (
        concomitant_with_one(f, endpoint, params) * g.value_at(endpoint)
        - concomitant_with_one(g, endpoint, params) * f.value_at(endpoint)
    )
    return head + residual.limit()


def log_probe_reduction(f, endpoint: int, params: KrallParams) -> Fraction:
    """[f, log_probe(e)](e) decomposed as constant * f(e) plus a residual limit.

    At +1 the constant is 32A+12B-16; at -1 it is -(32B+12A-16).  The
    residual is -Lam[f] probe' + 32 f' - (1-x^2)^3(f''' probe'' - probe''' f'')
    whose +32 f' term is the probe's own quasi-derivative limit showing up.
    Only defined when every sub-limit exists (polynomials qualify).
    """
    f = EndpointFn.from_poly(f)
    probe = log_probe(endpoint, params)
    fg = f.germ_at(endpoint)
    *_, line3, _, line5 = _concomitant_lines(fg, probe.germ_at(endpoint), params)
    residual = line3 + fg.derivative(1) * 32 + line5
    if endpoint == 1:
        constant = 32 * params.A + 12 * params.B - 16
    else:
        constant = -(32 * params.B + 12 * params.A - 16)
    return constant * f.value_at(endpoint) + residual.limit()


# ---------------------------------------------------------------------------
# domain predicates
# ---------------------------------------------------------------------------


def quasi_derivative_probe_identity(f, endpoint: int, params: KrallParams) -> tuple[Fraction, Fraction]:
    """([f, probe](e), Lam[f](e)) -- the pair the probe construction equates."""
    probe = quasi_probe(endpoint, params)
    return concomitant(f, probe, endpoint, params), quasi_derivative_at(f, endpoint, params)


def in_reduced_domain(f, params: KrallParams) -> tuple[bool, dict]:
    """Quasi-derivative vanishing at both endpoints, with a witness record.

    The witness reports Lam[f](+-1) and the directly computed concomitants
    against the probes (the two routes must agree).
    """
    witness = {}
    ok = True
    for endpoint in (-1, 1):
        via_probe, lam = quasi_derivative_probe_identity(f, endpoint, params)
        if via_probe != lam:
            raise AssertionError(
                f"probe identity violated at {endpoint:+d}: {via_probe} != {lam}"
            )
        witness[endpoint] = lam
        ok = ok and lam == 0
    return ok, witness


def in_separated_domain(f, params: KrallParams) -> bool:
    """Reduced-domain member whose bracket with the one-sided constants vanishes.

    This is the domain of the auxiliary self-adjoint operator in plain
    L2(-1,1): four separated conditions, two per endpoint.
    """
    ok, _ = in_reduced_domain(f, params)
    if not ok:
        return False
    return (
        concomitant(f, one_near(1), 1, params) == 0
        and concomitant(f, one_near(-1), -1, params) == 0
    )


# ---------------------------------------------------------------------------
# identity suites (exact checks, reported as rows)
# ---------------------------------------------------------------------------


def maximal_domain_suite(f, params: KrallParams, tag: str) -> list[dict]:
    """Limit identities valid on the whole maximal domain, per test function.

    Covers: vanishing of (1-x^2)^j f^(j); the weight and squared-weight
    bracket reductions; vanishing against (1-x^2)^3; the general endpoint
    reduction; and for the log probes the constants-and-residual reduction.
    Each row has name/lhs/rhs; equality is the caller's assertion.
    """
    f = EndpointFn.from_poly(f)
    rows = []
    w = WEIGHT
    for endpoint in (-1, 1):
        for j in (1, 2, 3):
            germ = (f.derivative(j) * w**j).germ_at(endpoint)
            rows.append(
                {
                    "name": f"{tag}:weighted-derivative-vanishing:j={j}:e={endpoint:+d}",
                    "paper_item": "vanishing-weighted-derivatives",
                    "lhs": germ.limit(),
                    "rhs": Fraction(0),
                }
            )
        rows.append(
            {
                "name": f"{tag}:bracket-weight-reduction:e={endpoint:+d}",
                "paper_item": "bracket-weight-reduction",
                "lhs": concomitant(f, EndpointFn.from_poly(w), endpoint, params),
                "rhs": bracket_weight_reduction(f, endpoint, params),
            }
        )
        rows.append(
            {
                "name": f"{tag}:bracket-weight-sq-reduction:e={endpoint:+d}",
                "paper_item": "bracket-weight-sq-reduction",
                "lhs": concomitant(f, EndpointFn.from_poly(w**2), endpoint, params),
                "rhs": bracket_weight_sq_reduction(f, endpoint, params),
            }
        )
        rows.append(
            {
                "name": f"{tag}:bracket-weight-cube-vanishing:e={endpoint:+d}",
                "paper_item": "bracket-weight-cube-vanishing",
                "lhs": concomitant(f, EndpointFn.from_poly(w**3), endpoint, params),
                "rhs": Fraction(0),
            }
        )
    return rows


def general_reduction_suite(f, g, params: KrallParams, tag: str) -> list[dict]:
    """Direct five-term limit vs the general endpoint reduction, both ends."""
    rows = []
    for endpoint in (-1, 1):
        rows.append(
            {
                "name": f"{tag}:general-endpoint-reduction:e={endpoint:+d}",
                "paper_item": "bracket-general-reduction",
                "lhs": concomitant(f, g, endpoint, params),
                "rhs": general_endpoint_reduction(f, g, endpoint, params),
            }
        )
    return rows


def reduced_domain_suite(f, g, params: KrallParams, tag: str) -> list[dict]:
    """Closed-form reductions on the reduced domain vs direct limits."""
    rows = []
    for endpoint in (-1, 1):
        rows.append(
            {
                "name": f"{tag}:bracket-with-one-closed-form:e={endpoint:+d}",
                "paper_item": "bracket-with-one-closed-form",
                "lhs": concomitant_with_one(f, endpoint, params),
                "rhs": reduced_concomitant(f, 1, endpoint, params),
            }
        )
        rows.append(
            {
                "name": f"{tag}:two-route-bracket-with-one:e={endpoint:+d}",
                "paper_item": "bracket-with-one-two-routes",
                "lhs": concomitant_with_one(f, endpoint, params),
                "rhs": concomitant(f, EndpointFn.from_poly(Poly.one()), endpoint, params),
            }
        )
        rows.append(
            {
                "name": f"{tag}:pair-closed-form:e={endpoint:+d}",
                "paper_item": "bracket-pair-closed-form",
                "lhs": concomitant(f, g, endpoint, params),
                "rhs": reduced_concomitant(f, g, endpoint, params),
            }
        )
        fe = EndpointFn.from_poly(f).value_at(endpoint)
        weight_rhs = -48 * (params.A + 2) * fe if endpoint == 1 else 48 * (params.B + 2) * fe
        rows.append(
            {
                "name": f"{tag}:weight-closed-form:e={endpoint:+d}",
                "paper_item": "bracket-weight-closed-form",
                "lhs": concomitant(f, EndpointFn.from_poly(WEIGHT), endpoint, params),
                "rhs": weight_rhs,
            }
        )
        rows.append(
            {
                "name": f"{tag}:weight-sq-closed-form:e={endpoint:+d}",
                "paper_item": "bracket-weight-sq-closed-form",
                "lhs": concomitant(f, EndpointFn.from_poly(WEIGHT**2), endpoint, params),
                "rhs": endpoint * 192 * fe,
            }
        )
    return rows
