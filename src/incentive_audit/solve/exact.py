"""Exact rational linear algebra for the quadratic fast paths.

Both routines are fraction Gaussian elimination, O(n^3) in the number of
agents and exact at every size.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

Matrix = Sequence[Sequence[Fraction]]


def solve_linear(a: Matrix, b: Sequence[Fraction]) -> Optional[list[Fraction]]:
    """Solve ``a x = b`` exactly; None when the matrix is singular."""
    n = len(b)
    m = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(b[i])]
         for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = Fraction(1) / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [v - factor * w for v, w in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


def is_positive_definite(a: Matrix) -> bool:
    """Sylvester's criterion, exact: elimination without row exchanges,
    whose pivot k is the ratio of leading minors k and k-1."""
    n = len(a)
    m = [[Fraction(v) for v in row] for row in a]
    for k in range(n):
        pivot = m[k][k]
        if pivot <= 0:
            return False
        for r in range(k + 1, n):
            factor = m[r][k] / pivot
            if factor:
                m[r] = [v - factor * w for v, w in zip(m[r], m[k])]
    return True
