"""Bilinear concomitant, quasi-derivative, Green's formula, limit identities.

Integrating l[y] = sum_k (-1)^k (p_k y^(k))^(k) by parts produces a boundary
bilinear form [f, g] whose endpoint limits carry all boundary-condition
information.  Both are read off one chain of quasi-derivatives,
`operator.quasi_derivatives`: for (p_1, ..., p_m) it gives f^[m], ...,
f^[2m-1], with l[f] = (f^[2m-1])' and

    [f, g] = sum_{j<m} (-1)^j (f^[2m-1-j] g^(j) - g^[2m-1-j] f^(j)).

For the (pi, P, Q) of `operator`, with w = 1-x^2, alpha = 3A+3B+6, Q = w^3
and P = w(12+alpha w), the chain is

    f^[3] = -Q f'''
    f^[4] = Lam[f] = -(Q f''')' + P f''      (the quasi-derivative)
    f^[5] = B[f]   = Lam[f]' - pi f'          (the "bracket with one")

`_line_factors` writes [f, g] as its 2m summands, the f-line then the
g-line for each j, each as (sign, factor, factor): at order six B[f] g,
-B[g] f, -Lam[f] g', Lam[g] f', -Q f''' g'', Q g''' f''.  The grouping lets
divergence diagnostics point at individual sub-expressions: `concomitant`
names the lines that diverge on their own when their sum has no limit, and
the endpoint reductions take the lines for j >= 1.  All scalars are real
rationals, so complex conjugation is the identity and [f, g] = -[g, f].

Endpoint limits are germ-valuation limits, all by `germs.product_limit`;
divergence raises `DivergentLimitError`, the typed signal that an input pair
lies outside the limit class.

Three memos serve the brackets.  An endpoint record holds f^(j)(e) and
(-1)^j f^[2m-1-j](e) for j < m as ints over one denominator, and an input
has one at e exactly when it is a polynomial near e.  `_poly_records` is
the one record filler: it fills both endpoints' records of a polynomial at
once, by evaluating its Poly chain at -1 and +1, with no germ and no limit.
A `Poly` reads it directly; an `EndpointFn` goes through its germ, and
`_endpoint_values` hands a germ that is a polynomial near its endpoint (no
log term, no pole) that polynomial's record and every other germ None.
When both factors of a pair have records, `concomitant` is two integer dot
products and one `Fraction` (evaluation at e, since both are polynomials
near e), and B(e) and Lam(e) are read from the record.
Every other input -- a log-bearing germ, say -- takes the germ-line route:
`_germ_chain` works out the chain of each (germ, params) pair once and
serves Lam, B and the factors of the bracket lines.  No line is built:
`germs.product_limit` reads the sum's limit off the memoised principal
parts of the factors, one short integer convolution per line, and when
that sum diverges `concomitant` runs it on each line alone to name the
ones that diverge.  All three memos are `functools.lru_cache`s bounded at 4096
entries and keyed by value (`Poly`, `LogGerm` and `KrallParams` hash by
value), like the germ derivatives and principal parts they read
(`germs._derivative`, `germs._principal`).  The chain memo holds germs,
never limits, and the records are ints or None, so a divergent pair takes
the germ-line route on every call and raises there.

The module also provides:

  * `symplectic_form`: [f,g](1) - [f,g](-1), the Green's-formula boundary term;
  * `greens_formula_check`: both sides of Green's formula for global
    polynomials, computed independently (exact integration vs endpoint limits);
  * the canonical test functions of the theory (piecewise weights, the
    quasi-derivative probes, log-bearing probes, piecewise constants);
  * closed-form endpoint reduction formulas valid on the reduced domain, each
    cross-checked against the direct limit of the bracket lines;
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
import math
from fractions import Fraction
from operator import mul

from .germs import (
    UNIT,
    DivergentLimitError,
    EndpointFn,
    LogGerm,
    _as_global_poly,
    _as_poly,
    _check_endpoint,
    germ_at,
    product_limit,
    value_at,
)
from .operator import WEIGHT, KrallParams, apply_expression, quasi_derivatives
from .polynomials import Poly


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


def _near_far(endpoint: int, params: KrallParams) -> tuple[Fraction, Fraction]:
    """(near, far): the parameter of `endpoint`, then the other's; (A, B) at +1, (B, A) at -1."""
    return (params.A, params.B) if endpoint == 1 else (params.B, params.A)


def _probe_poly(endpoint: int, params: KrallParams) -> Poly:
    """h_e = (1/2)w + (1/8)(near+2)w^2."""
    near, _ = _near_far(endpoint, params)
    return Fraction(1, 2) * WEIGHT + Fraction(1, 8) * (near + 2) * WEIGHT**2


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


@functools.lru_cache(maxsize=64)
def boundary_condition_functions(params: KrallParams) -> tuple[EndpointFn, ...]:
    """The four piecewise weights generating the operator's boundary conditions (memoised).

    Order: w^2 near +1, w^2 near -1, w near +1, w near -1.
    """
    return weight_sq_near(1), weight_sq_near(-1), weight_near(1), weight_near(-1)


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


@functools.lru_cache(maxsize=4096)
def _germ_chain(g: LogGerm, params: KrallParams) -> tuple[LogGerm, ...]:
    """`quasi_derivatives` of a germ, (-Q g''', Lam[g], B[g]), memoised per (germ, params)."""
    return quasi_derivatives(params.symmetric_coefficients(), g)


def quasi_derivative(f, params: KrallParams):
    """Lam[f] = -((1-x^2)^3 f''')' + (1-x^2)(12+alpha(1-x^2)) f'', entry -2 of the chain.

    Returns the same class as f (a Poly, with an exact scalar read as a constant
    one, a LogGerm or an EndpointFn); a germ's chain is memoised.
    """
    if isinstance(f, LogGerm):
        return _germ_chain(f, params)[-2]
    if not isinstance(f, EndpointFn):
        f = _as_poly(f)
    return quasi_derivatives(params.symmetric_coefficients(), f)[-2]


def quasi_derivative_at(f, endpoint: int, params: KrallParams) -> Fraction:
    """Endpoint limit of the quasi-derivative Lam[f], the chain's entry -2."""
    return _quasi_at(f, endpoint, params, 1)


def quasi_derivative_terms_at(f, endpoint: int, params: KrallParams) -> tuple[Fraction, Fraction]:
    """Endpoint limits of the two summands of Lam[f] = f^[4] taken separately,
    in order: (f^[3])' = -((1-x^2)^3 f''')' and P f''.

    Raises DivergentLimitError when a summand alone has no limit, which a
    log-bearing f can do even where the sum has one.  For the log probes the
    limits are 8 and 24, at both endpoints and for every (A, B): the stated
    constant 24 is the P f'' part alone.
    """
    *_, before, lam, _ = _germ_chain(germ_at(f, endpoint), params)
    head = before.derivative().limit()
    # (f^[3])' has a limit, so P f'' = Lam - (f^[3])' diverges as Lam does, in the same term
    return head, lam.limit() - head


def _line_factors(fg: LogGerm, gg: LogGerm, params: KrallParams) -> list[tuple[int, LogGerm, LogGerm]]:
    """The 2m summands of [f, g] at one endpoint as (sign, a, b), the summand sign a b:
    for each j < m, ((-1)^j, f^[2m-1-j], g^(j)), then (-(-1)^j, g^[2m-1-j], f^(j))."""
    f_chain, g_chain = _germ_chain(fg, params), _germ_chain(gg, params)
    factors = []
    for j in range(len(f_chain)):
        sign = -1 if j % 2 else 1
        factors += (sign, f_chain[-1 - j], gg.derivative(j)), (-sign, g_chain[-1 - j], fg.derivative(j))
    return factors


def _diverges(products) -> bool:
    """Whether sum c a b over `products` has no limit, by `product_limit`."""
    try:
        product_limit(products)
    except DivergentLimitError:
        return True
    return False


@functools.lru_cache(maxsize=4096)
def _poly_records(p: Poly, params: KrallParams) -> tuple[tuple, tuple]:
    """p's endpoint records at -1 and at +1, each (d, (d p^(j)(e))_j,
    (d (-1)^j p^[2m-1-j](e))_j) for j < m, ints over one denominator d, read
    off p's Poly chain by evaluation: no germ is built and no limit taken."""
    quasi = quasi_derivatives(params.symmetric_coefficients(), p)[::-1]
    values = [p.derivative(j) for j in range(len(quasi))]
    records = []
    for e in (-1, 1):
        row = [v(e) for v in values], [-q(e) if j % 2 else q(e) for j, q in enumerate(quasi)]
        d = math.lcm(*(v.denominator for vs in row for v in vs))
        records.append((d, *(tuple(v.numerator * (d // v.denominator) for v in vs) for vs in row)))
    return tuple(records)


@functools.lru_cache(maxsize=4096)
def _endpoint_values(g: LogGerm, params: KrallParams) -> tuple[int, tuple[int, ...], tuple[int, ...]] | None:
    """g's record at its endpoint from `_poly_records` when g is a polynomial
    there (the zero germ, or one log-free term without a pole), else None."""
    r = g.terms.get(0)
    if g.terms.keys() - {0} or (r is not None and not r.is_polynomial()):
        return None
    return _poly_records(Poly([]) if r is None else r.q, params)[g.endpoint > 0]


def _record_at(f, endpoint: int, params: KrallParams):
    """f's record at `endpoint`: a Poly's from `_poly_records`, any other input's
    from `_endpoint_values` of its germ (None unless a polynomial there)."""
    if isinstance(f, Poly):
        return _poly_records(f, params)[_check_endpoint(endpoint) > 0]
    return _endpoint_values(germ_at(f, endpoint), params)


def _quasi_at(f, endpoint: int, params: KrallParams, j: int) -> Fraction:
    """f^[2m-1-j](e) from f's record, or from its germ chain's limit where it has none."""
    record = _record_at(f, endpoint, params)
    if record is None:
        return _germ_chain(germ_at(f, endpoint), params)[-1 - j].limit()
    d, _, quasi = record
    return Fraction(-quasi[j] if j % 2 else quasi[j], d)


def _bracket_parts(f, g, endpoint: int, params: KrallParams, c=0, c2=0) -> tuple[int, int] | None:
    """[f - c, g - c2](e) = [f, g](e) - c2 B[f](e) + c B[g](e), c and c2 rational constants, as
    (numerator, denominator) from the records at e (None unless f and g both have one)."""
    fv, gv = _record_at(f, endpoint, params), _record_at(g, endpoint, params)
    if fv is None or gv is None:
        return None
    (f_den, f_values, f_quasi), (g_den, g_values, g_quasi) = fv, gv
    q, q2 = c.denominator, c2.denominator
    dot = (sum(map(mul, f_quasi, g_values)) - sum(map(mul, g_quasi, f_values))) * q * q2
    shifts = g_quasi[0] * f_den * c.numerator * q2 - f_quasi[0] * g_den * c2.numerator * q
    return dot + shifts, f_den * g_den * q * q2


def concomitant(f, g, endpoint: int, params: KrallParams) -> Fraction:
    """Endpoint limit of the bilinear concomitant [f, g](endpoint).

    When f and g are both polynomials near e, the bracket is
    sum_j (-1)^j (f^[2m-1-j](e) g^(j)(e) - g^[2m-1-j](e) f^(j)(e)), two
    integer dot products over the two endpoint records.  Otherwise the limit
    is read off the principal parts of the line factors (`germs.product_limit`),
    and no germ line is built.

    Raises DivergentLimitError when the pair is outside the limit class; its
    detail names the endpoint and the lines (numbered from 1, in the order
    of the module docstring) that diverge on their own.
    """
    parts = _bracket_parts(f, g, endpoint, params)
    if parts is not None:
        return Fraction(*parts)
    lines = _line_factors(germ_at(f, endpoint), germ_at(g, endpoint), params)
    try:
        return product_limit(lines)
    except DivergentLimitError as exc:
        diverging = ", ".join(str(i) for i, line in enumerate(lines, 1) if _diverges([line]))
        raise DivergentLimitError(
            endpoint, f"[f, g]({endpoint:+d}) lines {diverging} of {len(lines)} diverge; sum: {exc.detail}"
        ) from None


def concomitant_with_one(f, endpoint: int, params: KrallParams) -> Fraction:
    """Endpoint limit of B[f], the chain's last entry (equals concomitant(f, 1, endpoint) exactly)."""
    return _quasi_at(f, endpoint, params, 0)


def symplectic_form(f, g, params: KrallParams) -> Fraction:
    """[f, g](1) - [f, g](-1), the boundary term of Green's formula."""
    return concomitant(f, g, 1, params) - concomitant(f, g, -1, params)


def greens_formula_check(f: Poly, g: Poly, params: KrallParams) -> tuple[Fraction, Fraction]:
    """(LHS, RHS) of Green's formula for global polynomials.

    LHS = integral(l[f] g - f l[g]) by exact termwise integration, each
    integral one dot product with a moment vector (no product is built);
    RHS = the symplectic boundary form.  Equality is the caller's assertion.
    """
    f, g = _as_global_poly(f, "greens_formula_check"), _as_global_poly(g, "greens_formula_check")
    lf = apply_expression(f, params)
    lg = apply_expression(g, params)
    lhs = lf.integrate_product(g) - f.integrate_product(lg)
    rhs = symplectic_form(f, g, params)
    return lhs, rhs


# ---------------------------------------------------------------------------
# closed-form endpoint reductions (reduced-domain formulas)
# ---------------------------------------------------------------------------


def reduced_concomitant(f, g, endpoint: int, params: KrallParams) -> Fraction:
    """Closed form of [f, g](e) on the reduced domain:
    -24e(f''g - g''f)(e) - 24(near+1)(f'g - g'f)(e), near = A at +1 and B at -1.
    """
    fe, f1, f2 = (value_at(f, endpoint, j) for j in range(3))
    ge, g1, g2 = (value_at(g, endpoint, j) for j in range(3))
    near, _ = _near_far(endpoint, params)
    return -24 * endpoint * (f2 * ge - g2 * fe) - 24 * (near + 1) * (f1 * ge - g1 * fe)


def bracket_weight_closed_form(f, endpoint: int, params: KrallParams) -> Fraction:
    """[f, 1-x^2](e) on the reduced domain: -48e(near+2) f(e)."""
    near, _ = _near_far(endpoint, params)
    return -48 * endpoint * (near + 2) * value_at(f, endpoint)


def bracket_weight_reduction(f, endpoint: int, params: KrallParams) -> Fraction:
    """[f, 1-x^2](e) via the quasi-derivative: e(2 Lam[f](e) - 48(near+2) f(e))."""
    lam = quasi_derivative_at(f, endpoint, params)
    return 2 * endpoint * lam + bracket_weight_closed_form(f, endpoint, params)


def bracket_weight_sq_reduction(f, endpoint: int, params: KrallParams) -> Fraction:
    """[f, (1-x^2)^2](e) = +-192 f(+-1)."""
    return endpoint * 192 * value_at(f, endpoint)


def general_endpoint_reduction(f, g, endpoint: int, params: KrallParams) -> Fraction:
    """[f, g](e) split into bracket-with-one terms plus a residual limit:

    [f,1](e) g(e) - [g,1](e) f(e) + lim (the bracket lines for j >= 1), that is
    lim( -Lam[f] g' + Lam[g] f' - (1-x^2)^3 f''' g'' + (1-x^2)^3 g''' f'' ).
    """
    fg, gg = germ_at(f, endpoint), germ_at(g, endpoint)
    head = (
        concomitant_with_one(f, endpoint, params) * value_at(g, endpoint)
        - concomitant_with_one(g, endpoint, params) * value_at(f, endpoint)
    )
    return head + product_limit(_line_factors(fg, gg, params)[2:])


def log_probe_reduction(f, endpoint: int, params: KrallParams) -> Fraction:
    """[f, log_probe(e)](e) split into constant * f(e) plus a residual limit.

    The constant is e(32 near + 12 far - 16): 32A+12B-16 at +1 and
    -(32B+12A-16) at -1.  The residual is the bracket lines for j >= 1 with
    Lam[probe] f' replaced by 32 f', the probe's own quasi-derivative limit:
    -Lam[f] probe' + 32 f' - (1-x^2)^3(f''' probe'' - probe''' f'').
    Only defined when every sub-limit exists (polynomials qualify).
    """
    fg, probe = germ_at(f, endpoint), germ_at(log_probe(endpoint, params), endpoint)
    near, far = _near_far(endpoint, params)
    head = endpoint * (32 * near + 12 * far - 16) * value_at(f, endpoint)
    _, _, line3, _, *rest = _line_factors(fg, probe, params)
    return head + product_limit([line3, (32, fg.derivative(1), UNIT[endpoint]), *rest])


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
