"""Tiny exact linear algebra: one elimination kernel, a determinant, a kernel vector.

A linear form is a `Poly` whose x^i coefficient belongs to variable i and whose
x^0 coefficient is the constant term.  `eliminate` stores a form, reduced and
monic, under its highest variable, so a row holds only lower variables; the
Frobenius settle phase and `determinant` (`extension.independence_certificate`)
both run it.  `kernel_vector` has no library caller: it stays as the tests'
dense reference for `operator.eigen_polynomial`'s banded recurrence, and
because the benchmark's trace spans name it.
"""

from __future__ import annotations

from fractions import Fraction

from .polynomials import Poly

Matrix = list[list[Fraction]]


def reduce(rows: dict[int, Poly], form: Poly) -> Poly:
    """`form` less the multiples of `rows` that clear each stored variable, highest first:
    one pass, since a row eliminating x^i holds only lower variables."""
    for i in range(form.degree or 0, 0, -1):
        if i in rows and form[i]:
            form = form - rows[i] * form[i]
    return form


def eliminate(rows: dict[int, Poly], form: Poly) -> Poly:
    """The reduced `form`; if a variable is left, its monic form is stored under the highest."""
    form = reduce(rows, form)
    if form.degree:
        rows[form.degree] = form.monic()
    return form


def determinant(m: Matrix) -> Fraction:
    """Row i is the form sum_j m[i][j] x^(j+1); `eliminate` adds only multiples of earlier rows,
    so det m is 0 if a row reduces to zero, else the product of the leading coefficients times
    (-1)^(inversions of their variables in row order).  ValueError unless square, TypeError
    for an entry that is not an exact scalar."""
    if any(len(row) != len(m) for row in m):
        raise ValueError("determinant needs a square matrix")
    rows: dict[int, Poly] = {}
    det, keys = Fraction(1), []
    for form in [Poly([0, *row]) for row in m]:
        form = eliminate(rows, form)
        if not form:
            return Fraction(0)
        det *= form.leading_coefficient()
        keys.append(form.degree)
    inversions = sum(a > b for i, a in enumerate(keys) for b in keys[i + 1 :])
    return -det if inversions % 2 else det


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
