"""The elimination kernel, the determinant, and the back-substitution kernel vector."""

from fractions import Fraction
from itertools import permutations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krall6.linalg import determinant, eliminate, kernel_vector, reduce
from krall6.polynomials import Poly

rationals = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))
nonzero = rationals.filter(lambda q: q != 0)


@st.composite
def triangular_with_one_zero(draw):
    """(matrix, p): upper triangular, with its only zero diagonal entry at p."""
    n = draw(st.integers(1, 8))
    p = draw(st.integers(0, n - 1))
    mat = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        mat[i][i] = Fraction(0) if i == p else draw(nonzero)
        for j in range(i + 1, n):
            mat[i][j] = draw(rationals)
    return mat, p


@settings(max_examples=200, deadline=None)
@given(triangular_with_one_zero())
def test_kernel_vector_by_back_substitution(case):
    mat, p = case
    vec = kernel_vector(mat)
    assert all(sum(a * v for a, v in zip(row, vec)) == 0 for row in mat)
    assert vec[p] == 1
    assert all(v == 0 for v in vec[p + 1:])


@pytest.mark.parametrize(
    "mat, message",
    [
        ([[1, 2], [3, 0]], "upper-triangular"),
        ([[1, 2], [0, 5]], "0 zero diagonal entries"),
        ([[0, 2], [0, 0]], "2 zero diagonal entries"),
        ([[0, 2, 1], [0, 1]], "square"),
    ],
)
def test_kernel_vector_rejects_bad_input(mat, message):
    with pytest.raises(ValueError, match=message):
        kernel_vector([[Fraction(x) for x in row] for row in mat])


# ---------------------------------------------------------------------------
# the elimination kernel and the determinant
# ---------------------------------------------------------------------------


def leibniz(mat):
    """The sum over permutations of sign * the product of one entry per row."""
    n = len(mat)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod((mat[i][perm[i]] for i in range(n)), start=Fraction(1))
    return total


small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def square_matrices(draw):
    """Square matrices up to 5 x 5 of small rationals, some with a zero or repeated row or a zero column."""
    n = draw(st.integers(1, 5))
    mat = [[draw(small) for _ in range(n)] for _ in range(n)]
    kind = draw(st.sampled_from(("plain", "zero row", "zero column", "repeated row")))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if kind == "zero row":
        mat[i] = [Fraction(0)] * n
    elif kind == "zero column":
        for row in mat:
            row[j] = Fraction(0)
    elif kind == "repeated row" and i != j:
        mat[i] = list(mat[j])
    return mat


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_determinant_is_the_leibniz_sum(mat):
    assert determinant(mat) == leibniz(mat)


@pytest.mark.parametrize("perm", list(permutations(range(4))))
def test_determinant_of_a_permuted_identity_is_its_sign(perm):
    mat = [[Fraction(int(j == p)) for j in range(4)] for p in perm]
    inversions = sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4))
    assert determinant(mat) == (-1) ** inversions


def test_determinant_edge_cases():
    assert determinant([]) == 1
    with pytest.raises(ValueError, match="square"):
        determinant([[Fraction(1), Fraction(2)]])
    with pytest.raises(TypeError):
        determinant([[Fraction(1), 0.5], [Fraction(0), Fraction(1)]])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(small, min_size=1, max_size=6), max_size=8))
def test_eliminate_stores_monic_rows_in_lower_variables(forms):
    rows = {}
    for coeffs in forms:
        form, before = Poly(coeffs), dict(rows)
        reduced = eliminate(rows, form)
        assert reduced == reduce(before, form)
        # the reduced form holds no stored variable; a new row is stored under its highest, never over one
        assert all(not reduced[i] for i in before)
        assert rows == ({**before, reduced.degree: reduced.monic()} if reduced.degree else before)
    for key, row in rows.items():
        assert key >= 1 and row.degree == key and row[key] == 1
    # every form is a combination of the rows plus its constant term
    assert all(not reduce(rows, Poly(coeffs)).degree for coeffs in forms)
