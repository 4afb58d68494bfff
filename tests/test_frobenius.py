"""Frobenius analysis: indicial structure, series, classification."""

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import krall6.frobenius as fro
import krall6.operator as op
from krall6.frobenius import (
    LocalExpression,
    MIN_ORDER,
    ObstructionUnexpectedError,
    SOLUTION_LABELS,
    SeriesSolution,
    _SOLUTIONS,
    _solve_single,
    corrupted,
    deficiency_index,
    is_square_integrable,
    l2_classification,
    local_expression,
    residual_order,
    series_solution,
    solution_basis,
)
from krall6.operator import KrallParams, eigen_polynomial, power_stencil
from krall6.polynomials import Poly

PARAM_PAIRS = [KrallParams(1, 1), KrallParams(1, 2), KrallParams(Fraction(3, 2), Fraction(5, 2))]
MORE_PAIRS = PARAM_PAIRS + [KrallParams(Fraction(1, 100), 3), KrallParams(Fraction(2, 7), Fraction(2, 7))]


@pytest.mark.parametrize("endpoint", (-1, 1))
@pytest.mark.parametrize("params", PARAM_PAIRS)
def test_indicial_roots_computed(endpoint, params):
    local = LocalExpression(endpoint, params)
    assert local.indicial_roots() == [3, 2, 1, 1, 0, -1]
    rho0 = local.indicial_polynomial()
    # computed from the local coefficients: +-8 (s-3)(s-2)(s-1)^2 s (s+1)
    expected = Poly.one()
    for root in (3, 2, 1, 1, 0, -1):
        expected = expected * Poly([-root, 1])
    assert rho0 == 8 * endpoint * expected
    assert rho0(3) == 0 and rho0(4) != 0


ROOTS_0_TO_3 = Poly([0, 1]) * Poly([-1, 1]) * Poly([-2, 1]) * Poly([-3, 1])


@pytest.mark.parametrize(
    "rho0",
    [ROOTS_0_TO_3 * odd for odd in (Poly([-1, 1]) * Poly([-1, 2]), Poly([-1, 1]) * Poly([-11, 1]), Poly([2, 0, 1]))],
)
def test_indicial_roots_fail_on_a_root_outside_the_integers(monkeypatch, rho0):
    # a root at 1/2, at 11 (past the candidates) or a complex pair leaves the multiplicities short
    # of the degree; the lowest row keeps degree 6, so Fuchs's check still passes
    real = op.power_stencil

    def patched(params, center):
        stencil = real(params, center)
        return {**stencil, min(stencil): rho0}

    monkeypatch.setattr(op, "power_stencil", patched)
    local = LocalExpression(1, KrallParams(1, 2))  # fresh, not the memoised one
    assert local.indicial_polynomial() == rho0
    with pytest.raises(ArithmeticError, match="root outside the integers"):
        local.indicial_roots()


def test_stencil_is_read_only():
    # `local_expression` shares one instance per (centre, params), so a write must not reach it
    local = local_expression(1, KrallParams(1, 2))
    with pytest.raises(TypeError):
        local.stencil[0] = Poly([-1, 2])
    assert local.indicial_roots() == [3, 2, 1, 1, 0, -1]


def test_indicial_polynomial_is_parameter_free():
    a = LocalExpression(1, KrallParams(1, 1)).indicial_polynomial()
    b = LocalExpression(1, KrallParams(Fraction(3, 2), Fraction(5, 2))).indicial_polynomial()
    assert a == b


@pytest.mark.parametrize("endpoint", (-1, 1))
def test_pole_order_is_read_from_the_stencil(endpoint):
    for params in MORE_PAIRS:
        local = LocalExpression(endpoint, params)
        assert local.pole == 3 == -min(power_stencil(params, endpoint))
        assert list(local.stencil) == [0, 1, 2, 3]


def test_fuchs_condition_rejects_an_irregular_singular_point(monkeypatch):
    # b6 = (x-1)^4 (x+1)^3 with b5..b1 unchanged: at +1 the lowest shift is
    # still -3 (from b5 and b4), but b6 / b5 has a double pole there, and the
    # indicial row has degree 5, not the order 6.  At -1 nothing changes.
    params = KrallParams(1, 2)
    _, *rest = params.expression_coefficients()
    coeffs = (Poly([-1, 1]) ** 4 * Poly([1, 1]) ** 3, *rest)
    monkeypatch.setattr(KrallParams, "expression_coefficients", lambda self: coeffs)
    assert min(power_stencil(params, 1)) == -3 and power_stencil(params, 1)[-3].degree == 5
    with pytest.raises(ArithmeticError, match=r"irregular singular point at \+1"):
        LocalExpression(1, params)
    assert LocalExpression(-1, params).indicial_polynomial().degree == 6


@pytest.fixture(scope="module")
def basis_plus():
    return solution_basis(1, 20, KrallParams(1, 2))


def test_basis_structure(basis_plus):
    assert [s.label for s in basis_plus] == list(SOLUTION_LABELS)
    assert [s.leading_exponent() for s in basis_plus] == [3, 2, 1, 1, 0, -1]
    assert [s.log_degree() for s in basis_plus] == [0, 1, 0, 1, 1, 1]


def test_leading_normalization(basis_plus):
    by = {s.label: s for s in basis_plus}
    assert by["phi-3"].coefficient(0, 0) == 1
    assert by["phi-2"].coefficient(0, 0) == 1
    assert by["phi-1"].coefficient(0, 0) == 1
    assert by["phi-hat-1"].coefficient(0, 0) == 1
    assert by["phi-hat-1"].coefficient(0, 1) == 3
    assert by["phi-0"].coefficient(0, 0) == 1
    assert by["phi-minus-1"].coefficient(0, 0) == 1


def test_log_offsets_discovered(basis_plus):
    by = {s.label: s for s in basis_plus}
    # forced zero log coefficients at the leading offset
    assert by["phi-2"].coefficient(0, 1) == 0
    assert by["phi-2"].coefficient(1, 1) != 0
    assert by["phi-0"].coefficient(0, 1) == 0
    assert by["phi-minus-1"].coefficient(0, 1) == 0
    assert by["phi-minus-1"].coefficient(1, 1) != 0


def test_forced_log_values(basis_plus):
    """Spot values forced by the recurrence (B = 2 at the +1 endpoint)."""
    by = {s.label: s for s in basis_plus}
    B = Fraction(2)
    A = Fraction(1)
    assert by["phi-2"].coefficient(1, 1) == -B / 8
    assert by["phi-minus-1"].coefficient(1, 1) == -B
    assert by["phi-1"].coefficient(1, 0) == -(A + 1) / 2


def test_hat_log_part_is_three_times_pure(basis_plus):
    by = {s.label: s for s in basis_plus}
    assert by["phi-hat-1"].levels[1] == 3 * by["phi-1"].levels[0]


def test_residual_orders():
    # solving offsets 0..N leaves the first residual term at t^(r+N-2);
    # corrupting the t^(r+5) coefficient exposes rho_0(r+5) t^(r+2) != 0
    for params in MORE_PAIRS:
        for endpoint in (-1, 1):
            for order in (12, 40):
                for sol in solution_basis(endpoint, order, params):
                    assert residual_order(sol, params) == sol.exponent + order - 2
                    assert residual_order(corrupted(sol), params) == sol.exponent + 2


def test_zero_series_residual_is_infinite():
    params = KrallParams(1, 1)
    empty = SeriesSolution(endpoint=1, exponent=0, label="zero", order=12, levels=(Poly(), Poly()))
    assert residual_order(empty, params) is None
    # the exponent-0 canonical solution minus its log admixture is the
    # constant, which solves exactly; spot-check residual on one-term series
    constant = SeriesSolution(endpoint=1, exponent=0, label="const", order=12, levels=(Poly.one(), Poly()))
    assert residual_order(constant, params) is None


def test_l2_classification_and_deficiency():
    for params in PARAM_PAIRS:
        for endpoint in (-1, 1):
            cls = l2_classification(solution_basis(endpoint, 12, params))
            assert cls["count"] == 5
            assert cls["flags"]["phi-minus-1"] is False
            assert all(cls["flags"][lab] for lab in SOLUTION_LABELS if lab != "phi-minus-1")
        assert deficiency_index(params) == 4


def test_frobenius_suite_builds_each_basis_once(monkeypatch):
    from krall6 import frobenius as fro
    from krall6.suites import RunConfig, suite_frobenius

    calls = []
    real = fro.solution_basis

    def counting(endpoint, order, params):
        calls.append(endpoint)
        return real(endpoint, order, params)

    def rebuilding(*args, **kwargs):
        raise AssertionError("the suite already holds both bases")

    built = []
    real_local = op.LocalExpression

    def building(endpoint, params):
        built.append(endpoint)
        return real_local(endpoint, params)

    monkeypatch.setattr(fro, "solution_basis", counting)
    monkeypatch.setattr(fro, "deficiency_index", rebuilding)
    monkeypatch.setattr(op, "LocalExpression", building)
    op.local_expression.cache_clear()
    cases = {c.name: c for c in suite_frobenius(RunConfig(A=1, B=2)).cases}
    assert calls == [-1, 1]
    # one shared local expression (and rho table) per endpoint
    assert built == [-1, 1]
    assert (cases["deficiency-index"].lhs, cases["deficiency-index"].verdict) == ("4", "pass")


def test_one_power_stencil_per_endpoint(monkeypatch):
    # parameters no other test uses, so the memo starts without this pair
    params = KrallParams(Fraction(7, 11), Fraction(13, 5))
    built = []
    real_stencil = op.power_stencil

    def building(params, center):
        built.append(center)
        return real_stencil(params, center)

    monkeypatch.setattr(op, "power_stencil", building)
    for _ in range(2):
        solution_basis(-1, 12, params)
        for sol in solution_basis(1, 12, params):
            residual_order(sol, params)
        for n in range(12):
            eigen_polynomial(n, params)
    # one stencil, one `LocalExpression`, per (centre, params)
    assert sorted(built) == [-1, 0, 1]
    for center in (-1, 0, 1):
        local = local_expression(center, params)
        stencil = real_stencil(params, center)
        assert local.pole == -min(stencil) and list(local.stencil) == sorted(local.stencil)
        for s in range(-1, 8):
            # each row, keyed by d = shift + pole, is q (rho(s), rho'(s)) of the stencil
            assert local.at(s) == {
                shift + local.pole: (local.scale * rho(s), local.scale * rho.derivative()(s))
                for shift, rho in stencil.items()
            }
        assert set(range(-1, 8)) <= set(local.table)


def test_six_labels_share_one_rho_table(monkeypatch):
    # parameters no other test uses, so the shared table starts empty
    params = KrallParams(Fraction(5, 9), Fraction(4, 3))
    local = local_expression(1, params)
    assert not local.table
    fills = []
    real_at = op.LocalExpression.at

    def counting(self, s):
        if self is local and s not in self.table:
            fills.append(s)
        return real_at(self, s)

    monkeypatch.setattr(op.LocalExpression, "at", counting)
    basis = solution_basis(1, 40, params)
    # every row the six labels need, each worked out once, with all four d
    assert sorted(fills) == list(range(-1, 3 + 40 + 1)) == sorted(local.table)
    assert all(list(row) == [0, 1, 2, 3] for row in local.table.values())
    # the residuals read the rows the basis filled and add none
    for sol in basis:
        assert residual_order(sol, params) == sol.exponent + 40 - 2
    assert len(fills) == len(local.table) == 45


@pytest.mark.parametrize("endpoint", (0, 2))
def test_series_need_an_endpoint(endpoint):
    # `LocalExpression` takes any centre; the series are defined at the endpoints only
    params = KrallParams(1, 2)
    with pytest.raises(ValueError, match=r"endpoint must be -1 or \+1"):
        series_solution(endpoint, "phi-0", MIN_ORDER, params)
    with pytest.raises(ValueError, match=r"endpoint must be -1 or \+1"):
        solution_basis(endpoint, MIN_ORDER, params)


def test_derivative_classification(basis_plus):
    by = {s.label: s for s in basis_plus}
    assert is_square_integrable(by["phi-hat-1"], 2) is False
    assert is_square_integrable(by["phi-3"], 2) is True
    assert is_square_integrable(by["phi-1"], 1) is True
    with pytest.raises(ValueError):
        is_square_integrable(by["phi-3"], 4)


def test_odd_inputs_fail_loudly(basis_plus):
    sol = basis_plus[3]
    for level in (-1, 2):
        with pytest.raises(ValueError, match="log level"):
            sol.coefficient(0, level)
    for offset in (-1, sol.order + 1):
        with pytest.raises(ValueError, match="outside the solved range"):
            sol.coefficient(offset, 0)
    with pytest.raises(ValueError, match="derivative order"):
        is_square_integrable(sol, -1)


def test_minus_endpoint_mirror():
    params = KrallParams(1, 2)
    basis = solution_basis(-1, 14, params)
    assert [s.leading_exponent() for s in basis] == [3, 2, 1, 1, 0, -1]
    assert [s.log_degree() for s in basis] == [0, 1, 0, 1, 1, 1]
    by = {s.label: s for s in basis}
    # mirror symmetry swaps the roles of A and B (and flips odd offsets' sign)
    assert by["phi-2"].coefficient(1, 1) == params.A / 8
    assert by["phi-1"].coefficient(1, 0) == (params.B + 1) / 2
    assert by["phi-minus-1"].coefficient(1, 1) == params.A


def test_series_dump_format(basis_plus):
    text = basis_plus[3].format_series()
    lines = text.splitlines()
    assert lines[0] == "endpoint +1; exponent 1; log-degree 1; order 20; label phi-hat-1"
    assert "(0, 0) 1" in lines and "(0, 1) 3" in lines


def test_truncation_order_validation():
    with pytest.raises(ValueError):
        solution_basis(1, 8, KrallParams(1, 1))


def test_series_solution_validation():
    params = KrallParams(1, 1)
    with pytest.raises(ValueError):
        series_solution(1, "phi-0", 8, params)
    with pytest.raises(ValueError, match="unknown solution label"):
        series_solution(1, "phi-9", 12, params)
    assert [series_solution(-1, label, 12, params) for label in SOLUTION_LABELS] == solution_basis(-1, 12, params)


@pytest.mark.parametrize("endpoint", (-1, 1))
@pytest.mark.parametrize(
    "params",
    PARAM_PAIRS + [KrallParams(Fraction(1, 100), 3), KrallParams(Fraction(2, 7), Fraction(2, 7))],
)
def test_truncation_is_consistent(endpoint, params):
    # a longer truncation only appends terms: the parameters settle at the
    # last resonance, so no coefficient up to order 12 may depend on N
    for short, long in zip(solution_basis(endpoint, 12, params), solution_basis(endpoint, 40, params)):
        assert short.label == long.label
        assert short.levels == tuple(Poly(level.coeffs[:13]) for level in long.levels)


def test_unsatisfiable_shape_is_an_obstruction(monkeypatch):
    # an impossible canonicalization target (a log coefficient on the pure
    # exponent-3 solution) must surface as the typed obstruction, never be
    # absorbed silently
    import krall6.frobenius as fro_mod

    broken = dict(fro_mod._SOLUTIONS)
    broken["phi-3"] = (3, False, (((0, 0), 1), ((0, 1), 5)))
    monkeypatch.setattr(fro_mod, "_SOLUTIONS", broken)
    message = "phi-3 at endpoint +1: target (0, 1)=5 leaves nonzero constant -5"
    with pytest.raises(ObstructionUnexpectedError, match=re.escape(message)):
        solution_basis(1, 12, KrallParams(1, 1))


@pytest.mark.parametrize("endpoint", (-1, 1))
def test_resonance_forcing_a_missing_log_level_is_an_obstruction(monkeypatch, endpoint):
    # phi-2's resonance forces a log part; without a log level the recurrence pins c_0 to 0,
    # so the target c_0 = 1 cannot be met
    broken = dict(fro._SOLUTIONS)
    broken["phi-2"] = (2, False, broken["phi-2"][2])
    monkeypatch.setattr(fro, "_SOLUTIONS", broken)
    message = f"phi-2 at endpoint {endpoint:+d}: target (0, 0)=1 leaves nonzero constant -1"
    with pytest.raises(ObstructionUnexpectedError, match=re.escape(message)):
        series_solution(endpoint, "phi-2", 12, KrallParams(1, 2))


@pytest.mark.parametrize("endpoint", (-1, 1))
@pytest.mark.parametrize("params", PARAM_PAIRS)
def test_solutions_meet_their_targets(endpoint, params):
    for sol in solution_basis(endpoint, 12, params):
        exponent, has_log, targets = _SOLUTIONS[sol.label]
        assert sol.exponent == exponent
        for (m, level), value in targets:
            assert sol.coefficient(m, level) == value
        assert (sol.log_degree() == 0) == (not has_log)


def test_square_integrability_rule(basis_plus):
    # leading exponent >= 0 is the whole story for integer exponents
    for sol in basis_plus:
        assert is_square_integrable(sol) == (sol.leading_exponent() >= 0)


# ---------------------------------------------------------------------------
# the series algebra against a term-by-term reference
# ---------------------------------------------------------------------------
#
# A reference series is a dict {(absolute exponent s, log level k): Fraction}
# for sum c t^s ln^k|t|, with no zero entries, built and transformed one
# term at a time.


def ref_terms(r, levels):
    return {(r + m, k): c for k, level in enumerate(levels) for m, c in enumerate(level.coeffs) if c}


def ref_add(out, key, value):
    out[key] = out.get(key, Fraction(0)) + value


def ref_apply(params, endpoint, terms):
    """l[t^s] = sum rho(s) t^(s+shift) and l[t^s ln|t|] = d/ds of it, term by term."""
    out = {}
    for (s, k), c in terms.items():
        for shift, rho in power_stencil(params, endpoint).items():
            ref_add(out, (s + shift, k), c * rho(s))
            if k:
                ref_add(out, (s + shift, 0), c * rho.derivative()(s))
    return {key: c for key, c in out.items() if c}


def ref_derivative(terms):
    """d/dt (c t^s ln^k|t|) = c s t^(s-1) ln^k|t| + c k t^(s-1) ln^(k-1)|t|."""
    out = {}
    for (s, k), c in terms.items():
        ref_add(out, (s - 1, k), c * s)
        if k:
            ref_add(out, (s - 1, k - 1), c * k)
    return {key: c for key, c in out.items() if c}


series_levels = st.lists(st.builds(Fraction, st.integers(-50, 50), st.integers(1, 8)), max_size=9).map(Poly)


@given(
    st.integers(-1, 3),
    series_levels,
    st.one_of(st.just(Poly()), series_levels),
    st.sampled_from((-1, 1)),
    st.sampled_from(MORE_PAIRS[1:4]),
)
@settings(max_examples=80, deadline=None)
def test_series_algebra_matches_term_by_term_reference(r, C, E, endpoint, params):
    terms = ref_terms(r, (C, E))
    image = ref_apply(params, endpoint, terms)
    assert ref_terms(r - 3, LocalExpression(endpoint, params).apply_to_series(r, (C, E))) == image
    sol = SeriesSolution(endpoint, r, "random", 12, (C, E))
    assert residual_order(sol, params) == min((s for s, _ in image), default=None)
    assert sol.leading_exponent() == min((s for s, _ in terms), default=None)
    derivative = sol.derivative()
    assert ref_terms(derivative.exponent, derivative.levels) == ref_derivative(terms)


# longer series with large, mixed denominators, high valuations, and a log
# level without a plain one: the shapes the solver hands `residual_order`
wide_fractions = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))
long_levels = st.builds(
    lambda zeros, cs: Poly([0] * zeros + cs),
    st.one_of(st.just(0), st.integers(30, 45)),
    st.lists(wide_fractions, min_size=30, max_size=60),
)
LONG = Poly([Fraction(k + 1, 10**6 - k) for k in range(45)])


@given(
    st.integers(-1, 3),
    st.one_of(st.just(Poly()), long_levels),
    long_levels,
    st.sampled_from((-1, 1)),
    st.sampled_from(MORE_PAIRS[1:4]),
)
@example(0, Poly(), LONG, 1, MORE_PAIRS[3])
@example(2, Poly(), LONG * Poly.monomial(30), -1, MORE_PAIRS[1])
@example(-1, LONG * Poly.monomial(33), LONG * Poly.monomial(31), 1, MORE_PAIRS[2])
@settings(max_examples=30, deadline=None)
def test_integer_pass_on_long_series(r, C, E, endpoint, params):
    terms = ref_terms(r, (C, E))
    image = ref_apply(params, endpoint, terms)
    assert ref_terms(r - 3, local_expression(endpoint, params).apply_to_series(r, (C, E))) == image
    sol = SeriesSolution(endpoint, r, "random", 12, (C, E))
    assert residual_order(sol, params) == min((s for s, _ in image), default=None)
    assert sol.leading_exponent() == min((s for s, _ in terms), default=None)


# ---------------------------------------------------------------------------
# the solver against an all-Fraction reference
# ---------------------------------------------------------------------------


def reference_solve(local, label, order):
    """The two-level recurrence with one loop for every order: linear forms (`Poly`s,
    p_i is x^i) up to `settle`, plain Fractions past it, each divided by its pivot."""
    r, with_log, targets = _SOLUTIONS[label]
    pivots = [local.at(r + n)[0][0] for n in range(order + 1)]
    settle = max([n for n, pivot in enumerate(pivots) if pivot == 0] + [m for (m, _), _ in targets])
    e, c = [], []
    rows = {}
    params = 0

    def reduce(form):
        for i in range(form.degree or 0, 0, -1):
            if i in rows and form[i]:
                form = form - rows[i] * form[i]
        return form

    def resolve_constraint(form):
        form = reduce(form)
        if form.degree:
            rows[form.degree] = form.monic()
        elif form:
            raise ObstructionUnexpectedError(f"{label}: nonzero constant {form[0]}")

    def solve(rest, pivot):
        nonlocal params
        if pivot:
            return rest * Fraction(-1, pivot)
        resolve_constraint(rest)
        params += 1
        return Poly.monomial(params)

    for n in range(order + 1):
        tail1 = tail0 = Poly() if n <= settle else Fraction(0)
        for d in local.stencil:
            m = n - d
            if d and m >= 0:
                value, slope = local.at(r + m)[d]
                tail1 = tail1 + e[m] * value
                tail0 = tail0 + c[m] * value + e[m] * slope
        e.append(solve(tail1, pivots[n]) if with_log else tail1)
        c.append(solve(tail0 + e[n] * local.at(r + n)[0][1], pivots[n]))
        if n == settle:
            for (m, level), value in targets:
                resolve_constraint((e if level else c)[m] - value)
            for i in range(1, params + 1):
                rows.setdefault(i, Poly.monomial(i))
            e, c = [reduce(form)[0] for form in e], [reduce(form)[0] for form in c]
    return SeriesSolution(local.center, r, label, order, (Poly(c), Poly(e)))


SOLVER_PAIRS = MORE_PAIRS + [
    KrallParams(Fraction(1, 10**6), Fraction(10**6, 7)),
    KrallParams(Fraction(7, 3), Fraction(5, 11)),
]


@pytest.mark.parametrize("endpoint", (-1, 1))
@pytest.mark.parametrize("params", SOLVER_PAIRS)
def test_integer_window_matches_fraction_reference(endpoint, params):
    # orders MIN_ORDER, one past it, and two longer runs; every label
    local = local_expression(endpoint, params)
    for order in (MIN_ORDER, MIN_ORDER + 1, 20, 40):
        for label in SOLUTION_LABELS:
            assert _solve_single(local, label, order) == reference_solve(local, label, order)


@pytest.mark.parametrize("endpoint", (-1, 1))
def test_integer_window_matches_fraction_reference_at_order_120(endpoint):
    # and at order 200 on the widest pair, whose window numerators run to thousands of bits
    for params, order in (
        (KrallParams(Fraction(1, 100), 3), 120),
        (KrallParams(Fraction(1, 10**6), Fraction(10**6, 7)), 200),
    ):
        local = local_expression(endpoint, params)
        for label in SOLUTION_LABELS:
            assert _solve_single(local, label, order) == reference_solve(local, label, order)


def test_solver_builds_no_fraction_past_settle(monkeypatch):
    """Past `settle` the window of `LocalExpression.continue_solution` stays ints and `Poly._emit`
    brings them to the last denominator: no order adds a `Fraction`, so order 120 builds as many
    as order 40, in either module."""
    local = local_expression(1, KrallParams(Fraction(1, 100), 3))
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(fro, "Fraction", counting)
    monkeypatch.setattr(op, "Fraction", counting)
    counts = []
    for order in (40, 120):
        built.clear()
        for label in SOLUTION_LABELS:
            _solve_single(local, label, order)
        counts.append(len(built))
    assert counts[0] == counts[1]
