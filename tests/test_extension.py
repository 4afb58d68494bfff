"""Extended-space machinery: the C2 inner product, GKN checks, the operator."""

import random
from fractions import Fraction

import pytest

from krall6.concomitant import (
    boundary_condition_functions,
    log_probe,
    one_near,
    partial_gkn_pair,
    probe_functions,
    weight_near,
)
from krall6 import extension
from krall6.extension import (
    NotInDomainError,
    apply_extended,
    boundary_condition_values,
    domain_membership,
    eigen_verify,
    extended_symplectic,
    gkn_symmetry_check,
    independence_certificate,
    omega,
    operator_matrix,
    operator_symmetry_gaps,
    psi_standard_tag,
)
from krall6.germs import EndpointFn
from krall6.inner_products import ExtendedVector, embed, extended_inner, w_inner
from krall6.operator import KrallParams, apply_expression, eigen_polynomial, eigenvalue
from krall6.polynomials import Poly

PARAM_PAIRS = [KrallParams(1, 1), KrallParams(1, 2), KrallParams(Fraction(3, 2), Fraction(5, 2))]
X = Poly.x()


def seeded(count, seed, max_degree=8):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        degree = rng.randint(0, max_degree)
        out.append(Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree + 1)]))
    return out


def test_w_inner():
    assert w_inner((1, 0), (1, 0), KrallParams(2, 1)) == Fraction(1, 2)
    assert w_inner((1, 0), (0, 1), KrallParams(2, 3)) == 0
    # the orthonormal-basis directions have unit norm: <(A,0),(A,0)>/A = A
    params = KrallParams(Fraction(3, 2), 5)
    assert w_inner((params.A, 0), (params.A, 0), params) == params.A


def test_psi_map():
    assert psi_standard_tag(3, Fraction(1, 2)) == ("3*sqrt(A)", "1/2*sqrt(B)")


@pytest.mark.parametrize("params", PARAM_PAIRS)
def test_omega_table(params):
    A, B = params.A, params.B
    y1, y2, y3, y4 = boundary_condition_functions(params)
    assert omega(y1, params) == (0, -192 * B)
    assert omega(y2, params) == (-192 * A, 0)
    assert omega(y3, params) == (0, 48 * B * (A + 2))
    assert omega(y4, params) == (48 * A * (B + 2), 0)
    assert omega(Poly.one(), params) == (0, 0)


def test_extended_symplectic_reduces_to_base_form():
    params = KrallParams(1, 2)
    f = ExtendedVector.plain(EndpointFn.from_poly(X * X))
    assert f == ExtendedVector(EndpointFn.from_poly(X * X), 0, 0)
    y3 = ExtendedVector.plain(weight_near(1))
    from krall6.concomitant import symplectic_form

    assert extended_symplectic(f, y3, params) == symplectic_form(X * X, weight_near(1), params)
    # zero function with an endpoint part pairs against Omega of the partner
    zero_fn = ExtendedVector(EndpointFn.from_poly(Poly()), 1, 0)
    assert extended_symplectic(zero_fn, y3, params) == w_inner((1, 0), omega(weight_near(1), params), params)
    assert extended_symplectic(zero_fn, y3, params) == 0  # Omega y3 lives in the +1 slot


def test_extended_symplectic_antisymmetry():
    params = KrallParams(Fraction(3, 2), Fraction(5, 2))
    rng = random.Random(2)
    pool = [ExtendedVector.plain(y) for y in boundary_condition_functions(params)]
    pool += [ExtendedVector.plain(t) for t in partial_gkn_pair()]
    pool += [
        ExtendedVector(EndpointFn.from_poly(p), rng.randint(-3, 3), rng.randint(-3, 3))
        for p in seeded(4, seed=3)
    ]
    for i, u in enumerate(pool):
        for v in pool[i:]:
            assert extended_symplectic(u, v, params) == -extended_symplectic(v, u, params)


@pytest.mark.parametrize("params", PARAM_PAIRS)
def test_gkn_family_admissible(params):
    candidates = [ExtendedVector.plain(y) for y in boundary_condition_functions(params)]
    check = gkn_symmetry_check(candidates, params)
    assert check["all_zero"]


def test_singleton_family_vacuous_pass():
    params = KrallParams(1, 1)
    check = gkn_symmetry_check([ExtendedVector.plain(weight_near(1))], params)
    assert check["all_zero"] and check["brackets"] == [[0]]


def test_gkn_family_with_bad_member_detected():
    params = KrallParams(1, 2)
    y3 = ExtendedVector.plain(weight_near(1))
    bad = ExtendedVector.plain(one_near(1))
    check = gkn_symmetry_check([y3, bad], params)
    assert not check["all_zero"]
    # [y3, one-near-plus] = -48(A+2) by the weight closed form (antisymmetric partner)
    assert check["brackets"][0][1] == 48 * (params.A + 2)


@pytest.mark.parametrize("params", PARAM_PAIRS)
def test_probe_matrix(params):
    A, B = params.A, params.B
    candidates = [ExtendedVector.plain(y) for y in boundary_condition_functions(params)]
    probes = [ExtendedVector.plain(p) for p in probe_functions(params)]
    cert = independence_certificate(candidates, probes, params)
    assert cert.rows() == [
        [0, 192, 0, -48 * (B + 2)],
        [192, 0, -48 * (A + 2), 0],
        [0, 0, 64, 0],
        [0, 0, 0, 64],
    ]
    assert cert.conclusive
    assert cert.det == -(Fraction(192) ** 2) * Fraction(64) ** 2


def test_duplicate_candidate_is_inconclusive():
    params = KrallParams(1, 1)
    candidates = [ExtendedVector.plain(y) for y in boundary_condition_functions(params)]
    probes = [ExtendedVector.plain(p) for p in probe_functions(params)]
    cert = independence_certificate([candidates[0]] * 2 + candidates[2:], probes, params)
    assert not cert.conclusive
    with pytest.raises(ValueError):
        independence_certificate(candidates[:2], probes, params)


def test_seed_pair_certificate():
    params = KrallParams(1, 2)
    seeds = [ExtendedVector.plain(t) for t in partial_gkn_pair()]
    assert gkn_symmetry_check(seeds, params)["all_zero"]
    probes = [
        ExtendedVector.plain(EndpointFn.poly_near(-1, X)),
        ExtendedVector.plain(EndpointFn.poly_near(1, X)),
    ]
    cert = independence_certificate(seeds, probes, params)
    assert cert.conclusive
    assert cert.rows() == [[24 * (params.B + 1), 0], [0, -24 * (params.A + 1)]]


def test_boundary_condition_values_expand_as_documented():
    params = KrallParams(1, 2)
    A, B = params.A, params.B
    f = X * X + 1
    u = ExtendedVector(f, 3, -2)
    values = boundary_condition_values(u, params)
    lam = Fraction(0)  # polynomials have vanishing quasi-derivative limits
    assert values[0] == 192 * f(1) - 192 * u.b
    assert values[1] == 192 * f(-1) - 192 * u.a
    assert values[2] == 2 * lam - 48 * (A + 2) * f(1) + 48 * u.b * (A + 2)
    assert values[3] == 2 * lam - 48 * (B + 2) * f(-1) + 48 * u.a * (B + 2)


def test_domain_membership_examples():
    params = KrallParams(1, 2)
    ok, _ = domain_membership(ExtendedVector(X, -1, 1), params)
    assert ok
    ok, witness = domain_membership(ExtendedVector(X, 0, 1), params)
    assert not ok
    assert witness["conditions"][1] == -192
    ok, witness = domain_membership(ExtendedVector(log_probe(1, params), 0, 0), params)
    assert not ok
    assert witness["lam_plus"] == 32


def test_apply_extended_forms_agree():
    params = KrallParams(1, 1)
    image = apply_extended(ExtendedVector(Poly([0, 0, 1]), 1, 1), params)
    assert image.fn == Poly([-288, 0, 432])
    assert image.a == 144 and image.b == 144
    image = apply_extended(ExtendedVector(Poly.one(), 1, 1), params)
    assert image.fn.is_zero() and image.a == 0 and image.b == 0


def test_apply_extended_rejects_nonmembers():
    params = KrallParams(1, 1)
    with pytest.raises(NotInDomainError):
        apply_extended(ExtendedVector(X, 0, 1), params)


@pytest.mark.parametrize("params", PARAM_PAIRS)
def test_eigen_verify(params):
    for n in range(11):
        result = eigen_verify(n, params)
        assert result["fn_ok"] and result["a_ok"] and result["b_ok"]
    assert eigen_verify(0, params)["eigenvalue"] == 0


def test_eigen_verify_example_values():
    params = KrallParams(1, 2)
    result = eigen_verify(1, params)
    assert result["eigenvalue"] == 84
    k1 = eigen_polynomial(1, params)
    assert result["a"] == 84 * k1(-1) and result["b"] == 84 * k1(1)


@pytest.mark.parametrize("params", PARAM_PAIRS)
def test_operator_matrix_diagonal(params):
    n_max = 6
    matrix = operator_matrix(n_max, params)
    for m in range(n_max + 1):
        for n in range(n_max + 1):
            expected = eigenvalue(n, params) if m == n else 0
            assert matrix[m][n] == expected


def test_operator_symmetry_on_seeded_pairs():
    params = KrallParams(Fraction(3, 2), Fraction(5, 2))
    vectors = [embed(p) for p in seeded(10, seed=19)]
    pairs = [(i, (i * 3 + 1) % 10) for i in range(10)]
    assert operator_symmetry_gaps(vectors, pairs, params) == [0] * 10


def test_operator_symmetry_gaps_apply_the_operator_once_per_vector(monkeypatch):
    params = KrallParams(1, 2)
    vectors = [embed(p) for p in seeded(4, seed=5)]
    # every vector occurs in several pairs, and once as both members of a pair
    pairs = [(i, j) for i in range(4) for j in range(4)]

    def by_definition(apply):
        return [
            extended_inner(apply(vectors[i], params), vectors[j], params)
            - extended_inner(vectors[i], apply(vectors[j], params), params)
            for i, j in pairs
        ]

    calls = []

    def counting(u, p):
        calls.append(u)
        return apply_extended(u, p)

    monkeypatch.setattr(extension, "apply_extended", counting)
    assert operator_symmetry_gaps(vectors, pairs, params) == by_definition(apply_extended)
    assert len(calls) == len(vectors)

    # a non-symmetric stand-in for T gives nonzero gaps, so a swapped index shows
    def skewed(u, p):
        return ExtendedVector(u.fn.derivative(), u.b, 0)

    monkeypatch.setattr(extension, "apply_extended", skewed)
    gaps = operator_symmetry_gaps(vectors, pairs, params)
    assert gaps == by_definition(skewed)
    assert any(g != 0 for g in gaps)


def test_endpoint_values_of_expression_match_operator_form():
    """l[f](+-1) equals the boundary derivative forms for every smooth f.

    This is what makes the extended operator's endpoint components a
    continuous extension of the expression itself: at +1 only the y'' and y'
    coefficients survive, with values 24B and 24B(A+1); mirrored at -1.
    """
    rng = random.Random(3)
    for params in PARAM_PAIRS:
        A, B = params.A, params.B
        for _ in range(6):
            f = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 11))])
            image = apply_expression(f, params)
            assert image(1) == 24 * B * f.derivative(2)(1) + 24 * B * (A + 1) * f.derivative(1)(1)
            assert image(-1) == 24 * A * f.derivative(2)(-1) - 24 * A * (B + 1) * f.derivative(1)(-1)


def test_piecewise_domain_member_maps_to_zero():
    params = KrallParams(1, 2)
    fn = one_near(1)
    u = ExtendedVector(fn, 0, 1)
    ok, _ = domain_membership(u, params)
    assert ok
    image = apply_extended(u, params)
    assert image.a == 0 and image.b == 0
