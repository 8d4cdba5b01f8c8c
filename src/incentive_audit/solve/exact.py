"""Exact rational linear algebra for the quadratic fast paths.

Both routines are fraction-free Gaussian elimination (Bareiss 1968),
O(n^3) in the number of agents and exact at every size.  Each row is
scaled to integers by the lcm of its denominators, and every step keeps
the entries integers: entry (i, j) after step k is a minor of order k + 1
of the scaled matrix, so each division by the previous pivot is exact.
Fractions are formed once, at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterator, Optional, Sequence

Matrix = Sequence[Sequence[Fraction]]


def _integer_rows(rows: Matrix) -> list[list[int]]:
    """Each row times the lcm of its entries' denominators (ints or
    Fractions): a positive scaling, so each row keeps its solutions and
    each leading minor its sign."""
    out = []
    for row in rows:
        scale = lcm(*(v.denominator for v in row))
        out.append([v.numerator * (scale // v.denominator) for v in row])
    return out


def _bareiss(m: list[list[int]], exchange: bool) -> Iterator[int]:
    """Eliminate the square part of the integer rows ``m`` in place to
    upper-triangular form, yielding each pivot before the step that uses
    it; the caller stops the elimination by no longer asking.

    With ``exchange``, a zero pivot is replaced by the first row below
    with a nonzero entry in its column; a zero pivot is yielded only when
    there is none, and ends the elimination.  Without exchanges, pivot k
    is the leading minor of order k + 1."""
    n = len(m)
    prev = 1
    for k in range(n):
        if exchange and not m[k][k]:
            r = next((r for r in range(k + 1, n) if m[r][k]), k)
            m[k], m[r] = m[r], m[k]
        pivot = m[k][k]
        yield pivot
        if not pivot:
            return
        row = m[k]
        for i in range(k + 1, n):
            below = m[i]
            f = below[k]
            for j in range(k + 1, len(row)):
                below[j] = (below[j] * pivot - f * row[j]) // prev
            below[k] = 0
        prev = pivot


def solve_linear(a: Matrix, b: Sequence[Fraction]) -> Optional[list[Fraction]]:
    """Solve ``a x = b`` exactly; None when the matrix is singular."""
    n = len(b)
    m = _integer_rows([list(a[i][:n]) + [b[i]] for i in range(n)])
    if not all(_bareiss(m, exchange=True)):
        return None
    # by Cramer's rule det * x is an integer vector; det is the last pivot
    det = m[n - 1][n - 1] if n else 1
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = m[i]
        s = det * row[n] - sum(row[j] * y[j] for j in range(i + 1, n))
        y[i] = s // row[i]
    return [Fraction(v, det) for v in y]


def is_positive_definite(a: Matrix) -> bool:
    """Sylvester's criterion, exact: every leading minor, a pivot of the
    elimination without row exchanges, is positive."""
    return all(p > 0 for p in _bareiss(_integer_rows(a), exchange=False))
