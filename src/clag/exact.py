"""Exact integer elimination.

No floating point is used anywhere: row-space membership, ranks and
kernels are yes/no mathematical facts and have to be decided exactly.
`eliminate` is the one elimination step, fraction-free with every changed
row divided by its gcd (not Bareiss's division by the previous pivot, so
no minor bounds the entries): it works in int64 while a bound on the new
entries stays below `INT64_GUARD` and in Python ints past it.
`nullspace_int` eliminates with it, and gives
`IncidenceMatrix.kernel_basis`.  The brute-force scheme does not (it
reads P off its product table as the algebra's characters), nor does
the search's tableau: the incidence matrix M is a 2-design, so
det(M M^T) = (r - lambda)^(v-1) r q^k is a unit mod every prime P > r
other than the characteristic, every Cameron-Liebler vector is y M with
y free of P in its denominators, and `classify` eliminates over GF(P)
instead, which keeps every entry below P.
"""

from __future__ import annotations

import numpy as np

__all__ = ["nullspace_int"]

INT64_GUARD = 2**62


def eliminate(a: np.ndarray, j: int, m: int) -> tuple[int, int, np.ndarray]:
    """(r, c, a') for column j of the integer rows a, whose entries are
    at most m in size: with pivot row r, the first with a[r, j] != 0,
    and c = a[r, j], a[s] <- c a[s] - a[s, j] a[r] for every other row
    with a[s, j] != 0, each changed row divided by its gcd; row r takes
    the last row's place and the last row is dropped.  a is not changed.
    The rows of a must be linearly independent, so no changed row
    vanishes."""
    # the new entries are at most 2 m^2
    if 2 * m * m >= INT64_GUARD:
        a = a.astype(object)  # Python ints from here on
    col = a[:, j]
    nz = col.nonzero()[0]
    r, rows = nz[0], nz[1:]
    c = col[r]
    upd = c * a[rows] - col[rows, None] * a[r]
    upd //= np.gcd.reduce(upd, axis=1)[:, None]
    out = a.copy()
    out[rows] = upd
    out[r] = out[-1]
    return int(r), int(c), out[:-1]


def nullspace_int(matrix) -> list[list[int]]:
    """Primitive integer basis of the rational null space {z : M z = 0},
    the first nonzero entry of each vector positive.

    The rows of [M^T | I] combine to exactly the rows (M z | z), so
    eliminating the first `rows` columns leaves rows (0 | z) that are a
    basis of the null space.  Each z is primitive: `eliminate` divides
    every changed row by its gcd, and the I block keeps every row
    nonzero and the rows independent.  Which basis comes out follows
    the pivot order of that elimination; it need not be the free-column
    basis of M's reduced row echelon form."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    a = np.zeros((cols, rows + cols), dtype=object)
    for i, row in enumerate(matrix):
        a[:, i] = [int(v) for v in row]
    a[:, rows:] = np.eye(cols, dtype=np.int64)
    m = int(abs(a).max(initial=0))
    if m < INT64_GUARD:
        a = a.astype(np.int64)
    for j in range(rows):
        if a[:, j].any():
            _, _, a = eliminate(a, j, m)
            m = int(abs(a).max(initial=0))
    return [z if next(v for v in z if v) > 0 else [-v for v in z]
            for z in a[:, rows:].tolist()]
