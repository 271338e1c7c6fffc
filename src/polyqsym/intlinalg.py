"""Fraction-free exact linear algebra over the integers (Bareiss)."""

from __future__ import annotations

from fractions import Fraction


def _eliminate(a):
    """Bareiss elimination, in place, of the n rows of `a` on their first n
    columns, carrying further columns along; below the diagonal is left
    stale.  Returns the determinant of that block, cut short at 0."""
    n = len(a)
    sign = prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot, top = a[k][k], a[k]
        for row in a[k + 1:]:
            f = row[k]
            row[k + 1:] = [(x * pivot - f * y) // prev
                           for x, y in zip(row[k + 1:], top[k + 1:])]
        prev = pivot
    return sign * a[n - 1][n - 1] if n else 1


def det_bareiss(matrix):
    """Determinant of a square integer matrix, fraction-free."""
    a = [list(map(int, row)) for row in matrix]
    if any(len(row) != len(a) for row in a):
        raise ValueError("matrix must be square")
    return _eliminate(a)


def solve_exact(matrix, rhs):
    """Solve A x = b for square integer A with |det A| >= 1, exactly: one
    elimination of [A | b], then back-substitution in Fractions."""
    n = len(matrix)
    a = [list(map(int, row)) + [int(b)] for row, b in zip(matrix, rhs)]
    if len(a) != n or any(len(row) != n + 1 for row in a):
        raise ValueError("matrix must be square")
    if _eliminate(a) == 0:
        raise ValueError("singular system")
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        row = a[i]
        x[i] = Fraction(row[n] - sum(row[j] * x[j] for j in range(i + 1, n)),
                        row[i])
    return x
