"""Verification suites: every exactly-checkable claim, as report cases.

Each suite is a generator of `Case`s, registered once under its report name
with `_suite`; the registered function takes a `RunConfig` and returns the
suite's one `Report`, and `SUITE_NAMES` is the order of registration.  Suites
only assert identities that are true consequences of the definitions; the
`errata` suite additionally documents, with exact evidence, the four
discrepancies between those definitions and constants quoted elsewhere
(eigenvalue leading factor, the factored-form sign, the closed-form
coefficient parenthesis, and the log-probe quasi-derivative constant).

Randomness is deterministic: `seeded_polynomials` with the config seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import concomitant as con
from . import frobenius as fro
from .extension import (
    apply_extended,
    domain_membership,
    eigen_verify,
    gkn_symmetry_check,
    independence_certificate,
    omega,
    operator_matrix,
    operator_symmetry_gaps,
)
from .germs import DivergentLimitError, EndpointFn, LogGerm, value_at
from .inner_products import (
    ExtendedVector,
    embed,
    expansion_reconstruction,
    extended_inner,
    gram_matrix,
    kappa_inner,
    mu_inner,
)
from .operator import (
    CLOSED_FORM_VARIANTS,
    KrallParams,
    apply_expression,
    apply_expression_factored,
    apply_legendre_type,
    closed_form_comparison,
    eigen_polynomial,
    eigenvalue,
    eigenvalue_shifted_factor_variant,
    expansion_consistency_report,
    leading_coefficient_oracle,
    legendre_type,
)
from .polynomials import Poly, format_rational
from .report import Report, make_case, render_value
from .values import Value

_set = object.__setattr__


class RunConfig(Value):
    """The settings of one run; `params` is KrallParams(A, B), built once and kept outside `_fields`."""

    _fields = ("A", "B", "nmax", "series_order", "suites", "seed")
    __slots__ = (*_fields, "params")

    def __init__(
        self,
        A: Fraction = Fraction(1),
        B: Fraction = Fraction(1),
        nmax: int = 8,
        series_order: int = 20,
        suites: tuple = ("all",),
        seed: int = 987,
    ):
        if nmax < 0:
            raise ValueError("nmax must be non-negative")
        if series_order < fro.MIN_ORDER:
            raise ValueError(f"series order must be at least {fro.MIN_ORDER}")
        _set(self, "A", A)
        _set(self, "B", B)
        _set(self, "nmax", nmax)
        _set(self, "series_order", series_order)
        _set(self, "suites", suites)
        _set(self, "seed", seed)
        _set(self, "params", KrallParams(A, B))

    def selected_suites(self) -> list[str]:
        if "all" in self.suites:
            return list(SUITE_NAMES)
        unknown = [s for s in self.suites if s not in SUITE_NAMES]
        if unknown:
            raise ValueError(f"unknown suites: {', '.join(unknown)}")
        return [s for s in SUITE_NAMES if s in self.suites]


def seeded_polynomials(seed: int, count: int) -> list[Poly]:
    """Deterministic pseudo-random polynomials of degree <= 10 with small rational coefficients."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        degree = rng.randint(0, 10)
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree)]
        lead = rng.choice([k for k in range(-9, 10) if k != 0])
        coeffs.append(Fraction(lead, rng.randint(1, 4)))
        out.append(Poly(coeffs))
    return out


#: report name -> the registered builder of that suite, in report order
SUITE_BUILDERS = {}


def _suite(name: str):
    """Register a generator of a suite's `Case`s under its report name.

    The registered function runs the generator to its end and returns the one
    `Report` of its cases, so a call to it covers the whole suite.
    """

    def register(cases):
        def build(config: RunConfig) -> Report:
            return Report(name, config.params, cases(config))

        build.__name__ = build.__qualname__ = cases.__name__
        SUITE_BUILDERS[name] = build
        return build

    return register


# ---------------------------------------------------------------------------
# individual suites
# ---------------------------------------------------------------------------


@_suite("eigen")
def suite_eigen(config: RunConfig):
    params = config.params
    for n in range(config.nmax + 1):
        k_n = eigen_polynomial(n, params)
        lam = eigenvalue(n, params)
        yield make_case(
            f"eigen-identity:n={n:02d}",
            "expression-eigen-identity",
            apply_expression(k_n, params),
            lam * k_n,
        )
        yield make_case(
            f"eigen-monic-degree:n={n:02d}",
            "eigenpolynomial-degree",
            (k_n.degree, k_n.leading_coefficient()),
            (n, Fraction(1)),
        )
    for n in range(21):
        yield make_case(
            f"eigenvalue-oracle:n={n:02d}",
            "eigenvalue-oracle",
            eigenvalue(n, params),
            leading_coefficient_oracle(n, params),
        )
    basis_checked = min(config.nmax, 12)
    for degree in range(basis_checked + 1):
        image = apply_expression(Poly.monomial(degree), params)
        want_degree = degree if (degree == 0 or eigenvalue(degree, params) != 0) else None
        yield make_case(
            f"degree-preservation:n={degree:02d}",
            "degree-preservation",
            image.degree if degree > 0 else image.is_zero(),
            want_degree if degree > 0 else True,
        )


@_suite("polys")
def suite_polys(config: RunConfig):
    params = config.params
    for n in range(min(config.nmax, 8) + 1):
        outcome = closed_form_comparison(n, params)
        matching = sorted(v for v, r in outcome.items() if r["matches"])
        expected = sorted(CLOSED_FORM_VARIANTS) if n == 0 else ["even-selector-sum-end"]
        yield make_case(
            f"closed-form-scalar-match:n={n}",
            "closed-form-parse-comparison",
            matching,
            expected,
            witness={v: r["scale"] for v, r in outcome.items() if r["matches"]},
        )
    for n in range(min(config.nmax, 8) + 1):
        p_n, mu = legendre_type(n, params.A)
        yield make_case(
            f"legendre-type-identity:n={n}",
            "legendre-type-eigen-identity",
            apply_legendre_type(p_n, params.A),
            mu * p_n,
            witness=f"mu_{n}={format_rational(mu)}",
        )
        if n >= 1:
            yield make_case(
                f"legendre-type-orthogonality:n={n}",
                "legendre-type-orthogonality",
                mu_inner(p_n, legendre_type(n - 1, params.A)[0], params.A),
                Fraction(0),
            )
    basis = [Poly.monomial(k) for k in range(13)]
    factored_ok = all(
        apply_expression(p, params) == apply_expression_factored(p, params) for p in basis
    )
    yield make_case(
        "factored-form-agrees-on-basis",
        "lagrangian-form-equivalence",
        factored_ok,
        True,
    )
    for endpoint in (-1, 1):
        probe = con.log_probe(endpoint, params)
        yield make_case(
            f"factored-form-agrees-on-log-probe:e={endpoint:+d}",
            "lagrangian-form-equivalence",
            apply_expression(probe, params) == apply_expression_factored(probe, params),
            True,
        )


@_suite("gram")
def suite_gram(config: RunConfig):
    params = config.params
    n_max = max(config.nmax, 10)
    gram = gram_matrix(n_max, params)
    offdiag = [
        (m, n, gram[m][n]) for m in range(n_max + 1) for n in range(n_max + 1) if m != n and gram[m][n] != 0
    ]
    yield make_case(
        "gram-offdiagonal-zero",
        "eigenpolynomial-orthogonality",
        offdiag,
        [],
    )
    yield make_case(
        "gram-diagonal-positive",
        "inner-product-positivity",
        all(gram[n][n] > 0 for n in range(n_max + 1)),
        True,
        witness=[gram[n][n] for n in range(min(n_max, 4) + 1)],
    )
    yield make_case(
        "embedding-isometry",
        "embedding-isometry",
        extended_inner(embed(Poly([1, 2])), embed(Poly([0, 0, 3])), params),
        kappa_inner(Poly([1, 2]), Poly([0, 0, 3]), params),
    )
    for text, f in (("x^3", Poly.monomial(3)), ("x^4+x", Poly.monomial(4) + Poly.x())):
        yield make_case(
            f"expansion-reconstruction:{text}",
            "finite-expansion-exactness",
            expansion_reconstruction(f, params),
            f,
        )
    yield make_case(
        "completeness-analytic-claim",
        "completeness-out-of-scope",
        "",
        "",
        "the analytic completeness of the eigenpolynomials rests on a"
        " classical density theorem and is out of scope; the finite"
        " expansion-reconstruction cases above are the desk-scale"
        " substitute",
        inconclusive=True,
    )


@_suite("green")
def suite_green(config: RunConfig):
    params = config.params
    polys = seeded_polynomials(config.seed, 40)
    for i in range(20):
        f, g = polys[2 * i], polys[2 * i + 1]
        lhs, rhs = con.greens_formula_check(f, g, params)
        yield make_case(
            f"green-formula:pair={i:02d}",
            "green-formula",
            lhs,
            rhs,
            witness=f"deg f={f.degree}, deg g={g.degree}",
        )
    f = polys[0]
    lhs, rhs = con.greens_formula_check(f, f, params)
    yield make_case("green-formula:diagonal", "green-formula", (lhs, rhs), (Fraction(0), Fraction(0)))


def _canonical_functions(params: KrallParams) -> list[tuple[str, Poly | EndpointFn]]:
    w = con.WEIGHT
    return [
        ("one", Poly.one()),
        ("weight", w),
        ("weight-sq", w**2),
        ("weight-cube", w**3),
        ("one-near-minus", con.one_near(-1)),
        ("one-near-plus", con.one_near(1)),
        ("weight-near-plus", con.weight_near(1)),
        ("weight-near-minus", con.weight_near(-1)),
        ("weight-sq-near-plus", con.weight_sq_near(1)),
        ("weight-sq-near-minus", con.weight_sq_near(-1)),
        ("quasi-probe-plus", con.quasi_probe(1, params)),
        ("quasi-probe-minus", con.quasi_probe(-1, params)),
        ("log-probe-plus", con.log_probe(1, params)),
        ("log-probe-minus", con.log_probe(-1, params)),
    ]


def _maximal_domain_cases(f, params: KrallParams, tag: str):
    """Limit identities valid on the whole maximal domain, at both endpoints:
    vanishing of (1-x^2)^j f^(j), the weight and squared-weight bracket
    reductions, and vanishing of the bracket against (1-x^2)^3."""
    w = con.WEIGHT
    for e in (-1, 1):
        for j in (1, 2, 3):
            yield make_case(
                f"{tag}:weighted-derivative-vanishing:j={j}:e={e:+d}",
                "vanishing-weighted-derivatives",
                value_at(f.derivative(j) * w**j, e),
                Fraction(0),
            )
        yield make_case(
            f"{tag}:bracket-weight-reduction:e={e:+d}",
            "bracket-weight-reduction",
            con.concomitant(f, w, e, params),
            con.bracket_weight_reduction(f, e, params),
        )
        yield make_case(
            f"{tag}:bracket-weight-sq-reduction:e={e:+d}",
            "bracket-weight-sq-reduction",
            con.concomitant(f, w**2, e, params),
            con.bracket_weight_sq_reduction(f, e, params),
        )
        yield make_case(
            f"{tag}:bracket-weight-cube-vanishing:e={e:+d}",
            "bracket-weight-cube-vanishing",
            con.concomitant(f, w**3, e, params),
            Fraction(0),
        )


def _general_reduction_cases(f, g, params: KrallParams, tag: str):
    """The direct bracket limit against the general endpoint reduction, at both endpoints."""
    for e in (-1, 1):
        yield make_case(
            f"{tag}:general-endpoint-reduction:e={e:+d}",
            "bracket-general-reduction",
            con.concomitant(f, g, e, params),
            con.general_endpoint_reduction(f, g, e, params),
        )


def _reduced_domain_cases(f, g, params: KrallParams, tag: str):
    """Closed-form reductions on the reduced domain against direct limits, at both endpoints."""
    w = con.WEIGHT
    for e in (-1, 1):
        with_one = con.concomitant_with_one(f, e, params)
        yield make_case(
            f"{tag}:bracket-with-one-closed-form:e={e:+d}",
            "bracket-with-one-closed-form",
            with_one,
            con.reduced_concomitant(f, 1, e, params),
        )
        yield make_case(
            f"{tag}:two-route-bracket-with-one:e={e:+d}",
            "bracket-with-one-two-routes",
            with_one,
            con.concomitant(f, Poly.one(), e, params),
        )
        yield make_case(
            f"{tag}:pair-closed-form:e={e:+d}",
            "bracket-pair-closed-form",
            con.concomitant(f, g, e, params),
            con.reduced_concomitant(f, g, e, params),
        )
        yield make_case(
            f"{tag}:weight-closed-form:e={e:+d}",
            "bracket-weight-closed-form",
            con.concomitant(f, w, e, params),
            con.bracket_weight_closed_form(f, e, params),
        )
        yield make_case(
            f"{tag}:weight-sq-closed-form:e={e:+d}",
            "bracket-weight-sq-closed-form",
            con.concomitant(f, w**2, e, params),
            con.bracket_weight_sq_reduction(f, e, params),
        )


@_suite("concomitant")
def suite_concomitant(config: RunConfig):
    params = config.params
    seeded = seeded_polynomials(config.seed + 1, 10)
    functions = _canonical_functions(params) + [
        (f"seeded-{i:02d}", p) for i, p in enumerate(seeded)
    ]

    for tag, f in functions:
        yield from _maximal_domain_cases(f, params, tag)
        for endpoint in (-1, 1):
            via_probe, lam = con.quasi_derivative_probe_identity(f, endpoint, params)
            yield make_case(
                f"{tag}:quasi-probe-identity:e={endpoint:+d}",
                "quasi-derivative-probe-identity",
                via_probe,
                lam,
            )

    # log-probe quasi-derivative limits (the machine-verified constants)
    for endpoint in (-1, 1):
        probe = con.log_probe(endpoint, params)
        yield make_case(
            f"log-probe-quasi-derivative:e={endpoint:+d}",
            "log-probe-quasi-derivative",
            con.quasi_derivative_at(probe, endpoint, params),
            Fraction(32),
            witness="see errata suite: 24 is quoted elsewhere but is inconsistent",
        )

    # antisymmetry across pairs
    pool = functions[:8] + functions[-3:]
    for i, (tag_f, f) in enumerate(pool):
        for tag_g, g in pool[i:]:
            for endpoint in (-1, 1):
                name = f"antisymmetry:{tag_f}|{tag_g}:e={endpoint:+d}"
                try:
                    ab = con.concomitant(f, g, endpoint, params)
                    ba = con.concomitant(g, f, endpoint, params)
                except DivergentLimitError as exc:
                    witness = f"[{tag_f}, {tag_g}]({endpoint:+d}) not in checkable class: {exc}"
                    yield make_case(name, "concomitant-antisymmetry", "", "", witness, inconclusive=True)
                else:
                    yield make_case(name, "concomitant-antisymmetry", ab, -ba)

    # general endpoint reduction on mixed pairs
    pairs = [
        ("x|log-probe-plus", Poly.x(), con.log_probe(1, params)),
        ("seeded|seeded", seeded[0], seeded[1]),
        ("seeded|weight-sq", seeded[2], con.WEIGHT**2),
        ("log-probe-plus|weight", con.log_probe(1, params), con.WEIGHT),
    ]
    for tag, f, g in pairs:
        yield from _general_reduction_cases(f, g, params, tag)

    # reduced-domain closed forms on seeded polynomials
    for i in range(0, 10, 2):
        f, g = seeded[i], seeded[i + 1]
        yield from _reduced_domain_cases(f, g, params, f"seeded-{i:02d}")

    # log-probe reduction identity on polynomials (constants 32A+12B-16 etc.)
    for i, f in enumerate(seeded[:4]):
        for endpoint in (-1, 1):
            yield make_case(
                f"log-probe-reduction:seeded-{i:02d}:e={endpoint:+d}",
                "log-probe-bracket-reduction",
                con.concomitant(f, con.log_probe(endpoint, params), endpoint, params),
                con.log_probe_reduction(f, endpoint, params),
            )

    # self-pairing: the log probe's own divergent pieces cancel structurally
    # inside the germ algebra, so the reduction stays checkable and equals
    # the direct limit (both are 0 by antisymmetry)
    yield make_case(
        "log-probe-reduction:self-pairing",
        "log-probe-bracket-reduction",
        con.log_probe_reduction(con.log_probe(1, params), 1, params),
        con.concomitant(con.log_probe(1, params), con.log_probe(1, params), 1, params),
    )

    # a genuinely out-of-class input (bare logarithm germ) diverges in both
    # routes; reported as "not in checkable class", never guessed around
    bare_log = EndpointFn(LogGerm.zero(-1), LogGerm.from_log_poly(Poly.one(), 1))
    try:
        con.log_probe_reduction(bare_log, 1, params)
    except DivergentLimitError as exc:
        yield make_case(
            "log-probe-reduction:out-of-class-input",
            "log-probe-bracket-reduction",
            "",
            "",
            f"not in checkable class: {exc}",
            inconclusive=True,
        )
    else:
        yield make_case(
            "log-probe-reduction:out-of-class-input",
            "log-probe-bracket-reduction",
            "limit unexpectedly exists",
            "DivergentLimitError",
        )


@_suite("delta")
def suite_delta(config: RunConfig):
    params = config.params
    w = con.WEIGHT
    member_cases = [
        ("one", Poly.one(), True),
        ("x", Poly.x(), True),
        ("weight-sq", w**2, True),
        ("seeded", seeded_polynomials(config.seed + 2, 1)[0], True),
        ("log-probe-plus", con.log_probe(1, params), False),
        ("log-probe-minus", con.log_probe(-1, params), False),
    ]
    for tag, f, expected in member_cases:
        ok, witness = con.in_reduced_domain(f, params)
        yield make_case(
            f"reduced-domain:{tag}",
            "reduced-domain-membership",
            ok,
            expected,
            witness={"lam_minus": witness[-1], "lam_plus": witness[1]},
        )
    separated_cases = [
        ("weight-cube", w**3, True),
        ("one", Poly.one(), True),
        ("x", Poly.x(), False),
        ("one-near-plus", con.one_near(1), True),
    ]
    for tag, f, expected in separated_cases:
        yield make_case(
            f"separated-domain:{tag}",
            "separated-domain-membership",
            con.in_separated_domain(f, params),
            expected,
        )


@_suite("frobenius")
def suite_frobenius(config: RunConfig):
    params = config.params
    l2_counts = []
    for endpoint in (-1, 1):
        local = fro.local_expression(endpoint, params)
        yield make_case(
            f"indicial-roots:e={endpoint:+d}",
            "indicial-roots",
            local.indicial_roots(),
            [3, 2, 1, 1, 0, -1],
            witness=f"rho0 coeffs: {local.indicial_polynomial().format_coeffs()}",
        )
        basis = fro.solution_basis(endpoint, config.series_order, params)
        by_label = {sol.label: sol for sol in basis}
        yield make_case(
            f"leading-exponents:e={endpoint:+d}",
            "frobenius-structure",
            [sol.leading_exponent() for sol in basis],
            [3, 2, 1, 1, 0, -1],
        )
        yield make_case(
            f"log-degrees:e={endpoint:+d}",
            "frobenius-structure",
            [sol.log_degree() for sol in basis],
            [0, 1, 0, 1, 1, 1],
            witness="; ".join(fro.basis_findings(basis)),
        )
        for sol in basis:
            r = fro.residual_order(sol, params)
            yield make_case(
                f"residual-order:{sol.label}:e={endpoint:+d}",
                "series-residual-order",
                r is None or r >= config.series_order - 6,
                True,
                witness=f"residual order {r if r is not None else 'inf'}",
            )
        phi1 = by_label["phi-1"]
        phihat = by_label["phi-hat-1"]
        yield make_case(
            f"hat-solution-log-coupling:e={endpoint:+d}",
            "hat-solution-log-coupling",
            phihat.levels[1] == 3 * phi1.levels[0],
            True,
        )
        classification = fro.l2_classification(basis)
        l2_counts.append(classification["count"])
        yield make_case(
            f"l2-count:e={endpoint:+d}",
            "square-integrability-count",
            classification["count"],
            5,
            witness=classification["flags"],
        )
        yield make_case(
            f"second-derivative-not-l2:e={endpoint:+d}",
            "hat-solution-second-derivative",
            fro.is_square_integrable(phihat, 2),
            False,
        )
        corrupt = fro.corrupted(by_label["phi-3"])
        bad = fro.residual_order(corrupt, params)
        yield make_case(
            f"corruption-negative-control:e={endpoint:+d}",
            "series-residual-order",
            bad is not None and bad < config.series_order - 6,
            True,
            witness=f"residual order after corruption: {bad}",
        )
    yield make_case(
        "deficiency-index",
        "deficiency-index",
        sum(l2_counts) - 6,
        4,
    )


@_suite("gkn")
def suite_gkn(config: RunConfig):
    params = config.params
    A, B = params.A, params.B
    ys = con.boundary_condition_functions(params)
    candidates = [ExtendedVector.plain(y) for y in ys]
    check = gkn_symmetry_check(candidates, params)
    yield make_case(
        "pairwise-brackets-zero",
        "gkn-symmetry",
        check["all_zero"],
        True,
        witness=check["brackets"],
    )
    for j, y in enumerate(ys, start=1):
        expected = {
            1: (0, -192 * B),
            2: (-192 * A, 0),
            3: (0, 48 * B * (A + 2)),
            4: (48 * A * (B + 2), 0),
        }[j]
        yield make_case(f"omega-table:y{j}", "omega-table", omega(y, params), expected)
    probes = [ExtendedVector.plain(p) for p in con.probe_functions(params)]
    cert = independence_certificate(candidates, probes, params)
    expected_matrix = [
        [Fraction(0), Fraction(192), Fraction(0), -48 * (B + 2)],
        [Fraction(192), Fraction(0), -48 * (A + 2), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(64), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(0), Fraction(64)],
    ]
    yield make_case(
        "probe-matrix",
        "independence-probe-matrix",
        cert.rows(),
        expected_matrix,
        witness=(
            "h-row entries are 64 = 2 x quasi-derivative limit 32; the value"
            " 48 quoted elsewhere is inconsistent (see errata)"
        ),
    )
    yield make_case(
        "probe-matrix-nonsingular",
        "independence-certificate",
        cert.conclusive,
        True,
        witness=f"det={format_rational(cert.det)}",
    )
    dup = independence_certificate(
        [candidates[0], candidates[0], candidates[2], candidates[3]], probes, params
    )
    yield make_case(
        "duplicate-candidates-inconclusive",
        "independence-certificate",
        dup.conclusive,
        False,
    )
    # the seed pair: unit-scaled piecewise constants with x-weighted probes
    seeds = [ExtendedVector.plain(t) for t in con.partial_gkn_pair()]
    seed_check = gkn_symmetry_check(seeds, params)
    yield make_case(
        "seed-pair-brackets-zero",
        "partial-gkn-symmetry",
        seed_check["all_zero"],
        True,
    )
    x = Poly.x()
    xprobes = [
        ExtendedVector.plain(EndpointFn.poly_near(-1, x)),
        ExtendedVector.plain(EndpointFn.poly_near(1, x)),
    ]
    seed_cert = independence_certificate(seeds, xprobes, params)
    yield make_case(
        "seed-pair-certificate",
        "partial-gkn-independence",
        (seed_cert.conclusive, seed_cert.rows()),
        (
            True,
            [
                [24 * (B + 1), Fraction(0)],
                [Fraction(0), -24 * (A + 1)],
            ],
        ),
    )
    # a deliberately non-admissible family: swap one boundary function for a
    # probe with nonvanishing bracket
    bad = [candidates[2], ExtendedVector.plain(con.one_near(1))]
    bad_check = gkn_symmetry_check(bad, params)
    yield make_case(
        "non-admissible-family-detected",
        "gkn-symmetry",
        bad_check["all_zero"],
        False,
        witness=bad_check["brackets"],
    )


@_suite("operator-matrix")
def suite_operator_matrix(config: RunConfig):
    params = config.params
    seeded = seeded_polynomials(config.seed + 3, 20)

    # 20 membership cases, members and non-members, both routes (the route
    # agreement is asserted inside domain_membership)
    for i, p in enumerate(seeded[:10]):
        u = embed(p)
        ok, _ = domain_membership(u, params)
        yield make_case(f"membership:member:{i:02d}", "domain-membership", ok, True)
    rng = random.Random(config.seed + 4)
    for i, p in enumerate(seeded[10:16]):
        u = embed(p)
        bump = Fraction(rng.randint(1, 5))
        broken = (
            ExtendedVector(u.fn, u.a + bump, u.b) if i % 2 == 0 else ExtendedVector(u.fn, u.a, u.b + bump)
        )
        ok, witness = domain_membership(broken, params)
        yield make_case(
            f"membership:perturbed:{i:02d}",
            "domain-membership",
            ok,
            False,
            witness=witness["conditions"],
        )
    for i, endpoint in enumerate((1, -1)):
        probe = con.log_probe(endpoint, params)
        ok, witness = domain_membership(ExtendedVector(probe, 0, 0), params)
        yield make_case(
            f"membership:log-probe:{i:02d}",
            "domain-membership",
            ok,
            False,
            witness={"lam_minus": witness["lam_minus"], "lam_plus": witness["lam_plus"]},
        )
    for i, fn in enumerate((con.one_near(1), con.weight_near(-1))):
        u = embed(fn)
        ok, _ = domain_membership(u, params)
        yield make_case(f"membership:piecewise:{i:02d}", "domain-membership", ok, True)

    # operator forms agree on members (assertion inside apply_extended) and
    # eigenvectors verify componentwise
    for n in range(config.nmax + 1):
        r = eigen_verify(n, params)
        yield make_case(
            f"eigenvector:n={n:02d}",
            "eigenfunction-identity",
            (r["fn_ok"], r["a_ok"], r["b_ok"]),
            (True, True, True),
            witness=f"lambda={format_rational(r['eigenvalue'])}",
        )

    n_mat = min(config.nmax, 10)
    matrix = operator_matrix(n_mat, params)
    expected = [
        [eigenvalue(n, params) if m == n else Fraction(0) for n in range(n_mat + 1)]
        for m in range(n_mat + 1)
    ]
    yield make_case(
        "operator-matrix-diagonal",
        "operator-matrix",
        matrix,
        expected,
    )

    vectors = [embed(p) for p in seeded]
    pairs = [(i % len(seeded), (i * 7 + 3) % len(seeded)) for i in range(20)]
    gaps = operator_symmetry_gaps(vectors, pairs, params)
    yield make_case(
        "operator-symmetry",
        "operator-symmetry",
        [g for g in gaps if g != 0],
        [],
    )

    u = ExtendedVector(Poly([0, 0, 1]), 1, 1)
    image = apply_extended(u, params)
    yield make_case(
        "square-example",
        "explicit-operator-form",
        (image.a, image.b),
        (
            24 * params.A * 2 - 24 * params.A * (params.B + 1) * (-2),
            24 * params.B * 2 + 24 * params.B * (params.A + 1) * 2,
        ),
    )

    # the endpoint components continuously extend the expression itself:
    # l[f](+-1) equals the boundary derivative forms for every smooth f
    A, B = params.A, params.B
    for i, f in enumerate(seeded[:5]):
        lf = apply_expression(f, params)
        yield make_case(
            f"endpoint-value-identity:{i:02d}",
            "expression-endpoint-values",
            (lf(1), lf(-1)),
            (
                24 * B * f.derivative(2)(1) + 24 * B * (A + 1) * f.derivative(1)(1),
                24 * A * f.derivative(2)(-1) - 24 * A * (B + 1) * f.derivative(1)(-1),
            ),
        )


@_suite("errata")
def suite_errata(config: RunConfig):
    params = config.params

    oracle_1 = leading_coefficient_oracle(1, params)
    yield make_case(
        "finding-1:eigenvalue-leading-factor",
        "eigenvalue-leading-factor-discrepancy",
        (eigenvalue(1, params), eigenvalue_shifted_factor_variant(1, params) == oracle_1),
        (oracle_1, False),
        witness=(
            f"n(n+1) variant gives {format_rational(eigenvalue(1, params))} ="
            f" oracle; n(n-1) variant gives"
            f" {format_rational(eigenvalue_shifted_factor_variant(1, params))}"
        ),
    )

    consistency = expansion_consistency_report(params)
    yield make_case(
        "finding-2:lagrangian-third-term-sign",
        "lagrangian-sign-discrepancy",
        (
            all(consistency["corrected"]["matches"].values()),
            sorted(consistency["sign-variant"]["diffs"]),
        ),
        (True, [1, 2]),
        witness=(
            "sign-variant coefficient differences by derivative order: "
            + render_value(consistency["sign-variant"]["diffs"])
        ),
    )

    outcomes = {n: closed_form_comparison(n, params) for n in range(9)}
    printed_mismatch = all(
        not outcomes[n][v]["matches"] for n in range(1, 9) for v in ("sum-end", "before-j-term")
    )
    fixed_match = all(outcomes[n]["even-selector-sum-end"]["matches"] for n in range(9))
    per_n = {
        f"n={n}": sorted(v for v, r in outcomes[n].items() if r["matches"]) for n in range(9)
    }
    yield make_case(
        "finding-3:closed-form-parenthesis",
        "closed-form-parse-discrepancy",
        (printed_mismatch, fixed_match),
        (True, True),
        witness=(
            "both displayed readings fail the kernel solver for 1<=n<=8 (they"
            " break the equal-parameter parity symmetry); the even-term"
            " selector reading (1+(-1)^j)/2 matches up to scalar for n<=8;"
            " matching variants per degree: " + render_value(per_n)
        ),
    )

    lam_plus = con.quasi_derivative_at(con.log_probe(1, params), 1, params)
    lam_minus = con.quasi_derivative_at(con.log_probe(-1, params), -1, params)
    # (-(Q h''')', P h'') limits: the quoted 24 is the P h'' part alone
    split_plus = con.quasi_derivative_terms_at(con.log_probe(1, params), 1, params)
    split_minus = con.quasi_derivative_terms_at(con.log_probe(-1, params), -1, params)
    y3 = con.weight_near(1)
    y4 = con.weight_near(-1)
    bracket_plus = con.symplectic_form(con.log_probe(1, params), y3, params)
    bracket_minus = con.symplectic_form(con.log_probe(-1, params), y4, params)
    x = Poly.x()
    reduction_ok = all(
        con.concomitant(f, con.log_probe(e, params), e, params) == con.log_probe_reduction(f, e, params)
        for f in (x, x * x)
        for e in (1, -1)
    )
    yield make_case(
        "finding-4:log-probe-quasi-derivative",
        "log-probe-constant-discrepancy",
        (lam_plus, lam_minus, bracket_plus, bracket_minus, reduction_ok, split_plus, split_minus),
        (Fraction(32), Fraction(32), Fraction(64), Fraction(64), True, (8, 24), (8, 24)),
        witness=(
            "the value 24 (and bracket 48) quoted elsewhere is inconsistent"
            " with the probe definition: the bracket-reduction identity with"
            " residual +32 f' and constants 32A+12B-16 / -(32B+12A-16) is"
            " reproduced exactly, which forces quasi-derivative limit 32;"
            " split into its two summands, the limit is"
            f" {render_value(split_plus)} at +1 and {render_value(split_minus)}"
            " at -1 as [-(Q h''')'; P h''], so the quoted 24 is the P h''"
            " part alone, without the -(Q h''')' contribution (16 per unit"
            " of w ln w)"
        ),
    )


SUITE_NAMES = tuple(SUITE_BUILDERS)


def run_suites(config: RunConfig) -> list[Report]:
    """Build the selected suites' reports one after another, in report order.

    Each suite is a generator of cases, and its registered builder collects
    them into the suite's one `Report`.  The suites are pure-Python CPU work,
    so threads would only take turns on the interpreter lock; the CLI's
    `--serial` is accepted and changes nothing.
    """
    return [SUITE_BUILDERS[name](config) for name in config.selected_suites()]
