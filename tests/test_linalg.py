"""Back-substitution kernel vector of an upper-triangular matrix."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krall6.linalg import kernel_vector

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
