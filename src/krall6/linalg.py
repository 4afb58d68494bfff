"""Tiny exact linear algebra over Fraction: determinant and kernel vector.

Matrices are lists of row lists.  `determinant` eliminates with partial
pivoting by nonzero entry on the small certificate matrices
(`extension.independence_certificate`).  `kernel_vector` has no library
caller: `operator.eigen_polynomial` runs the banded stencil recurrence
instead.  It stays as the tests' dense reference for that recurrence, and
because the benchmark's trace spans name it.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]


def determinant(m: Matrix) -> Fraction:
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    a = [[Fraction(x) for x in row] for row in m]
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
    """The kernel vector of an upper-triangular m whose one zero diagonal entry is m[p][p].

    v[p] = 1, v[j] = 0 for j > p, and back-substitution gives v[i] for i < p.
    Any other input raises ValueError.  The dense reference for
    `operator.eigen_polynomial` in the tests; no library code calls it.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("kernel_vector needs a square matrix")
    if any(m[i][j] != 0 for i in range(n) for j in range(i)):
        raise ValueError("kernel_vector needs an upper-triangular matrix")
    zeros = [i for i in range(n) if m[i][i] == 0]
    if len(zeros) != 1:
        raise ValueError(f"{len(zeros)} zero diagonal entries, expected 1")
    p = zeros[0]
    vec = [Fraction(0)] * n
    vec[p] = Fraction(1)
    for i in range(p - 1, -1, -1):
        vec[i] = -sum((m[i][j] * vec[j] for j in range(i + 1, p + 1)), Fraction(0)) / m[i][i]
    return vec
