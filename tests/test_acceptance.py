"""Acceptance criteria: one test per criterion, one printed verdict line each.

All tolerances are exact (rational arithmetic, no rounding anywhere), so
every comparison below is `==` on Fractions/Polys.

Two constants stated for the log-bearing probes are checked as a reproduced
erratum rather than as values: the quasi-derivative limit "24" (criterion 5)
and the probe-matrix h-row entry "48" (criterion 8).  The limit computed from
the probes' own definition is 32 (entry 64 = 2 x 32), and the
bracket-reduction identity with residual +32 f' and constants 32A+12B-16 /
-(32B+12A-16) -- which this library reproduces exactly -- is only consistent
with 32.  The stated-value tests assert where 24 and 48 come from: 24 is the
limit of the P f'' summand of the quasi-derivative alone, without the
-(Q f''')' summand (limit 8), and 48 is twice that.  See the errata suite
(finding-4), the README and the independent symbolic check in
`tests/test_concomitant.py`.
"""

import json
import time
from fractions import Fraction

from krall6.cli import main as cli_main
from krall6.concomitant import (
    boundary_condition_functions,
    concomitant,
    greens_formula_check,
    log_probe,
    one_near,
    quasi_derivative_at,
    quasi_derivative_terms_at,
    quasi_probe,
    weight_near,
    weight_sq_near,
    WEIGHT,
)
from krall6.extension import (
    apply_extended,
    domain_membership,
    gkn_symmetry_check,
    independence_certificate,
    omega,
    operator_matrix,
    operator_symmetry_gaps,
)
from krall6.frobenius import (
    LocalExpression,
    l2_classification,
    deficiency_index,
    residual_order,
    solution_basis,
)
from krall6.inner_products import ExtendedVector, embed, expansion_reconstruction, gram_matrix
from krall6.operator import (
    KrallParams,
    apply_expression,
    eigen_polynomial,
    eigenvalue,
    eigenvalue_shifted_factor_variant,
    leading_coefficient_oracle,
)
from krall6.polynomials import Poly
from krall6.suites import (
    RunConfig,
    _general_reduction_cases,
    _maximal_domain_cases,
    _reduced_domain_cases,
    seeded_polynomials,
    suite_errata,
)

PARAM_PAIRS = [KrallParams(1, 1), KrallParams(1, 2), KrallParams(Fraction(3, 2), Fraction(5, 2))]
SEED = 987


def verdict(number, ok, text):
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number}: {text}"


def test_criterion_01_eigen_identity():
    ok = True
    for params in PARAM_PAIRS:
        for n in range(13):
            k_n = eigen_polynomial(n, params)
            ok = ok and (apply_expression(k_n, params) - eigenvalue(n, params) * k_n).is_zero()
    verdict(1, ok, "l[K_n] - lambda_n K_n = 0 exactly for n <= 12, three parameter pairs")


def test_criterion_02_eigenvalue_oracle():
    ok = True
    for params in PARAM_PAIRS:
        for n in range(21):
            ok = ok and eigenvalue(n, params) == leading_coefficient_oracle(n, params)
        # the n(n-1) printing fails the oracle at n = 1, n(n+1) passes
        ok = ok and eigenvalue_shifted_factor_variant(1, params) != leading_coefficient_oracle(1, params)
        ok = ok and eigenvalue(1, params) == leading_coefficient_oracle(1, params)
    report = suite_errata(RunConfig(A=Fraction(1), B=Fraction(2)))
    finding = next(c for c in report.cases if c.name.startswith("finding-1"))
    ok = ok and finding.verdict == "pass"
    verdict(2, ok, "eigenvalue equals leading-coefficient oracle for n <= 20; n(n-1) variant fails at n=1, documented")


def test_criterion_03_orthogonality():
    ok = True
    for params in PARAM_PAIRS:
        gram = gram_matrix(10, params)
        for m in range(11):
            for n in range(11):
                if m == n:
                    ok = ok and gram[m][n] > 0
                else:
                    ok = ok and gram[m][n] == 0
    verdict(3, ok, "Gram matrix of K_0..K_10 exactly diagonal with positive diagonal, three parameter pairs")


def test_criterion_04_greens_formula():
    ok = True
    for params in PARAM_PAIRS:
        polys = seeded_polynomials(SEED, 40)
        for i in range(20):
            lhs, rhs = greens_formula_check(polys[2 * i], polys[2 * i + 1], params)
            ok = ok and lhs == rhs
    verdict(4, ok, "Green's formula LHS = RHS exactly on 20 seeded degree<=10 pairs per parameter pair")


def _canonical_for_acceptance(params):
    return [
        Poly.one(),
        WEIGHT,
        WEIGHT**2,
        WEIGHT**3,
        one_near(-1),
        one_near(1),
        weight_near(1),
        weight_near(-1),
        weight_sq_near(1),
        weight_sq_near(-1),
        quasi_probe(1, params),
        quasi_probe(-1, params),
        log_probe(1, params),
        log_probe(-1, params),
    ]


def test_criterion_05_limit_identities():
    params = KrallParams(1, 2)
    ok = True
    functions = _canonical_for_acceptance(params)
    functions += seeded_polynomials(SEED + 1, 10)
    for i, f in enumerate(functions):
        for case in _maximal_domain_cases(f, params, f"f{i}"):
            ok = ok and case.verdict == "pass"
    pairs = [(functions[12], functions[1]), (functions[0], functions[12]), (functions[14], functions[15])]
    for f, g in pairs:
        for case in _general_reduction_cases(f, g, params, "pair"):
            ok = ok and case.verdict == "pass"
    verdict(5, ok, "maximal-domain limit identities hold exactly on canonical functions and 10 seeded polynomials")


def test_criterion_05_stated_log_probe_value():
    """Criterion 5's stated constant 24 for the log-probe quasi-derivative.

    Checked as the erratum it is: the full limit is not 24, while the P f''
    summand alone has limit exactly 24 and the -(Q f''')' summand has limit
    exactly 8 (see the module docstring and errata finding-4).
    """
    params = KrallParams(1, 2)
    ok = True
    found = {}
    for e in (1, -1):
        probe = log_probe(e, params)
        lam = quasi_derivative_at(probe, e, params)
        q_part, p_part = quasi_derivative_terms_at(probe, e, params)
        ok = ok and lam != 24 and lam == q_part + p_part and p_part == 24 and q_part == 8
        found[e] = f"{lam} = {q_part} + {p_part}"
    verdict(
        5,
        ok,
        "STATED value 24 for the log-probe quasi-derivative is its P f'' part alone"
        f" (Lam = -(Q f''')' part + P f'' part: {found[1]} at +1, {found[-1]} at -1)",
    )


def test_criterion_05_verified_log_probe_value():
    ok = True
    for params in PARAM_PAIRS:
        ok = ok and quasi_derivative_at(log_probe(1, params), 1, params) == 32
        ok = ok and quasi_derivative_at(log_probe(-1, params), -1, params) == 32
        # coherence: the reduction identity that pins the constant
        x = Poly.x()
        for e in (1, -1):
            from krall6.concomitant import log_probe_reduction

            ok = ok and concomitant(x, log_probe(e, params), e, params) == log_probe_reduction(x, e, params)
    verdict(5, ok, "VERIFIED log-probe quasi-derivative = 32 with the reduction-identity cross-check")


def test_criterion_06_reduced_domain_closed_forms():
    params = KrallParams(1, 2)
    polys = seeded_polynomials(SEED + 2, 10)
    ok = True
    for i in range(0, 10, 2):
        for case in _reduced_domain_cases(polys[i], polys[i + 1], params, f"s{i}"):
            ok = ok and case.verdict == "pass"
    verdict(6, ok, "reduced-domain closed forms agree with direct limits on 10 seeded polynomials")


def test_criterion_07_frobenius():
    started = time.monotonic()
    ok = True
    params = KrallParams(1, 2)
    for endpoint in (-1, 1):
        ok = ok and LocalExpression(endpoint, params).indicial_roots() == [3, 2, 1, 1, 0, -1]
        basis = solution_basis(endpoint, 20, params)
        for sol in basis:
            order = residual_order(sol, params)
            ok = ok and (order is None or order >= 14)
        ok = ok and l2_classification(basis)["count"] == 5
    ok = ok and deficiency_index(params) == 4
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 60
    verdict(7, ok, f"indicial roots, residual orders >= 14 at N=20, limit-5, deficiency 4 ({elapsed:.1f}s)")


def test_criterion_08_gkn_verification():
    ok = True
    for params in PARAM_PAIRS:
        A, B = params.A, params.B
        ys = boundary_condition_functions(params)
        candidates = [ExtendedVector.plain(y) for y in ys]
        ok = ok and gkn_symmetry_check(candidates, params)["all_zero"]
        ok = ok and omega(ys[0], params) == (0, -192 * B)
        ok = ok and omega(ys[1], params) == (-192 * A, 0)
        ok = ok and omega(ys[2], params) == (0, 48 * B * (A + 2))
        ok = ok and omega(ys[3], params) == (48 * A * (B + 2), 0)
        from krall6.concomitant import probe_functions

        cert = independence_certificate(
            candidates, [ExtendedVector.plain(p) for p in probe_functions(params)], params
        )
        ok = ok and cert.conclusive
        ok = ok and cert.rows()[0] == [0, 192, 0, -48 * (B + 2)]
        ok = ok and cert.rows()[1] == [192, 0, -48 * (A + 2), 0]
    verdict(8, ok, "pairwise brackets zero, Omega table exact, probe matrix nonsingular with exact f-rows")


def test_criterion_08_stated_probe_matrix_entries():
    """Criterion 8's stated h-row probe-matrix entry 48.

    Checked as the erratum it is: each h-row entry is 2 Lam[h](+-1), not 48,
    and 48 is twice the P f'' part of Lam[h](+-1) alone (the root cause of
    the stated 24 in criterion 5).  Nonsingularity and the admissibility
    conclusion are unaffected and pass above.
    """
    params = KrallParams(1, 2)
    from krall6.concomitant import probe_functions

    candidates = [ExtendedVector.plain(y) for y in boundary_condition_functions(params)]
    cert = independence_certificate(
        candidates, [ExtendedVector.plain(p) for p in probe_functions(params)], params
    )
    ok = True
    for row, e in ((2, 1), (3, -1)):
        probe = log_probe(e, params)
        _, p_part = quasi_derivative_terms_at(probe, e, params)
        expected = [0, 0, 0, 0]
        expected[row] = 2 * quasi_derivative_at(probe, e, params)
        ok = ok and cert.rows()[row] == expected and expected[row] != 48 and 2 * p_part == 48
    verdict(
        8,
        ok,
        "STATED probe-matrix h-row entry 48 is twice the P f'' part of Lam[h] alone"
        f" (entries {cert.rows()[2][2]} and {cert.rows()[3][3]}, each 2 Lam[h](+-1))",
    )


def test_criterion_08_verified_probe_matrix():
    ok = True
    for params in PARAM_PAIRS:
        from krall6.concomitant import probe_functions

        candidates = [ExtendedVector.plain(y) for y in boundary_condition_functions(params)]
        cert = independence_certificate(
            candidates, [ExtendedVector.plain(p) for p in probe_functions(params)], params
        )
        ok = ok and cert.rows()[2] == [0, 0, 64, 0]
        ok = ok and cert.rows()[3] == [0, 0, 0, 64]
        ok = ok and cert.det != 0
    verdict(8, ok, "VERIFIED probe-matrix h-rows are 64 with nonsingular certificate")


def test_criterion_09_domain_and_operator():
    params = KrallParams(1, 2)
    ok = True
    polys = seeded_polynomials(SEED + 3, 20)
    # 20 membership cases (routes agree by internal assertion): 12 members,
    # 6 perturbed non-members, 2 log-probe non-members
    for p in polys[:12]:
        member, _ = domain_membership(embed(p), params)
        ok = ok and member
    for i, p in enumerate(polys[12:18]):
        u = embed(p)
        broken = ExtendedVector(u.fn, u.a + 1, u.b) if i % 2 else ExtendedVector(u.fn, u.a, u.b - 1)
        member, _ = domain_membership(broken, params)
        ok = ok and not member
    for e in (1, -1):
        member, _ = domain_membership(ExtendedVector(log_probe(e, params), 0, 0), params)
        ok = ok and not member
    # two-form agreement is asserted inside apply_extended on every member
    for p in polys[:12]:
        apply_extended(embed(p), params)
    matrix = operator_matrix(10, params)
    for m in range(11):
        for n in range(11):
            expected = eigenvalue(n, params) if m == n else 0
            ok = ok and matrix[m][n] == expected
    vectors = [embed(p) for p in polys[:12]]
    pairs = [(i % 12, (i * 7 + 3) % 12) for i in range(20)]
    ok = ok and operator_symmetry_gaps(vectors, pairs, params) == [0] * 20
    verdict(9, ok, "membership routes agree on 20 cases; operator forms agree; matrix = diag(lambda); symmetry exact")


def test_criterion_10_errata_findings():
    params = KrallParams(1, 2)
    report = suite_errata(RunConfig(A=params.A, B=params.B))
    by_name = {c.name.split(":")[0]: c for c in report.cases}
    ok = all(by_name[f"finding-{k}"].verdict == "pass" for k in (1, 2, 3, 4))
    ok = ok and all(c.witness for c in report.cases)
    verdict(10, ok, "errata suite reproduces the sign, factor, parenthesis and log-probe findings with evidence")


def test_criterion_11_expansion_substitute():
    ok = True
    for params in PARAM_PAIRS:
        for f in (Poly.monomial(3), Poly.monomial(4) + Poly.x()):
            ok = ok and expansion_reconstruction(f, params) == f
    from krall6.suites import suite_gram

    report = suite_gram(RunConfig(A=Fraction(1), B=Fraction(2)))
    note = next(c for c in report.cases if c.name == "completeness-analytic-claim")
    ok = ok and note.verdict == "inconclusive" and "out of scope" in note.witness
    verdict(11, ok, "finite expansion reconstruction exact; analytic completeness declared out of scope")


def test_criterion_12_full_run_under_budget(capsys):
    started = time.monotonic()
    code = cli_main(["run", "all", "--A", "1", "--B", "2", "--nmax", "8"])
    out = capsys.readouterr().out
    elapsed = time.monotonic() - started
    payload = json.loads(out)
    ok = code == 0 and payload["summary"]["failed"] == 0 and elapsed < 300
    verdict(12, ok, f"full 'all' suite: exit {code}, {payload['summary']['failed']} failures, {elapsed:.1f}s < 300s")
