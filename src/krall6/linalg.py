"""Tiny exact linear algebra over Fraction: determinant and kernel vector.

Matrices are lists of row lists.  Sizes here are small (a dozen rows at
most), so plain fraction Gaussian elimination with partial pivoting by
nonzero entry is plenty.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]


def _copy(m: Matrix) -> Matrix:
    return [[Fraction(x) for x in row] for row in m]


def determinant(m: Matrix) -> Fraction:
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    a = _copy(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] == 0:
                continue
            factor = a[r][col] * inv
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    return det


def kernel_vector(m: Matrix) -> list[Fraction]:
    """One nonzero kernel vector of a square matrix with 1-dimensional kernel.

    Raises ValueError if the kernel is trivial or has dimension > 1.
    """
    n = len(m)
    a = _copy(m)
    pivots: list[int] = []
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, n) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        inv = 1 / a[row][col]
        a[row] = [x * inv for x in a[row]]
        for r in range(n):
            if r != row and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        raise ValueError(f"kernel dimension is {len(free)}, expected 1")
    fc = free[0]
    vec = [Fraction(0)] * n
    vec[fc] = Fraction(1)
    for r, pc in enumerate(pivots):
        vec[pc] = -a[r][fc]
    return vec

