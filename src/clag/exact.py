"""Exact linear algebra over the integers and rationals.

Everything here works with arbitrary-precision Python ints and
fractions.Fraction.  No floating point is used anywhere: row-space
membership, ranks and kernels are yes/no mathematical facts and have to
be decided exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

__all__ = [
    "bareiss_rank",
    "row_echelon_rational",
    "nullspace_int",
    "solve_left",
]


def _as_int_rows(matrix) -> list[list[int]]:
    return [[int(v) for v in row] for row in matrix]


def bareiss_rank(matrix) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination."""
    m = _as_int_rows(matrix)
    if not m:
        return 0
    rows, cols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(cols):
        pivot_row = None
        for r in range(rank, rows):
            if m[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        piv = m[rank][col]
        for r in range(rank + 1, rows):
            mrc = m[r][col]
            row_r = m[r]
            row_p = m[rank]
            for c in range(col, cols):
                row_r[c] = (piv * row_r[c] - mrc * row_p[c]) // prev
        prev = piv
        rank += 1
        if rank == rows:
            break
    return rank


def row_echelon_rational(matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals.

    Returns (rref_rows, pivot_columns); zero rows are dropped.
    """
    m = [[Fraction(v) for v in row] for row in matrix]
    if not m:
        return [], []
    rows, cols = len(m), len(m[0])
    pivots: list[int] = []
    rank = 0
    for col in range(cols):
        pivot_row = None
        for r in range(rank, rows):
            if m[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(rows):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        pivots.append(col)
        rank += 1
        if rank == rows:
            break
    return m[:rank], pivots


def _primitive(vec: list[Fraction]) -> list[int]:
    den = 1
    for v in vec:
        den = den * v.denominator // gcd(den, v.denominator)
    ints = [int(v * den) for v in vec]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    for v in ints:
        if v != 0:
            if v < 0:
                ints = [-w for w in ints]
            break
    return ints


def nullspace_int(matrix) -> list[list[int]]:
    """Primitive integer basis of the rational null space {z : M z = 0}."""
    rref, pivots = row_echelon_rational(matrix)
    if not rref:
        cols = len(matrix[0]) if len(matrix) else 0
        return [[1 if i == j else 0 for i in range(cols)] for j in range(cols)]
    cols = len(rref[0])
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * cols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rref[r][free]
        basis.append(_primitive(vec))
    return basis


def solve_left(matrix, target) -> list[Fraction] | None:
    """Exact rational y with y^T M = target, or None if target is not in
    the row space of M.  When M has full row rank the solution is unique."""
    rows = len(matrix)
    if rows == 0:
        return [] if all(v == 0 for v in target) else None
    cols = len(matrix[0])
    if len(target) != cols:
        raise ValueError("target length does not match column count")
    # Solve M^T y = target by elimination on the augmented transpose.
    aug = [[Fraction(matrix[r][c]) for r in range(rows)] + [Fraction(target[c])]
           for c in range(cols)]
    rref, pivots = row_echelon_rational(aug)
    y = [Fraction(0)] * rows
    for r, pc in enumerate(pivots):
        if pc == rows:  # pivot in the augmented column: inconsistent
            return None
        y[pc] = rref[r][rows]
    # The elimination may have dropped dependent equations; verify the
    # candidate once so every returned certificate is sound.
    for c in range(cols):
        acc = Fraction(0)
        for r in range(rows):
            if y[r]:
                acc += y[r] * matrix[r][c]
        if acc != target[c]:
            return None
    return y


INT64_GUARD = 2**62
