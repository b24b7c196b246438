"""Hot integer kernels in numpy.  The tests compare each with a
reference in `tests/oracle.py`, bit for bit.

Everything here is small-integer table arithmetic; exact rational work
lives in `exact`.
"""

from __future__ import annotations

import numpy as np

# Read by the benchmark's environment record; there is no compiled path.
USING_NUMBA = False


# ---------------------------------------------------------------------------
# reduced row echelon form over GF(q), table-driven
# ---------------------------------------------------------------------------

def gf_rref(m, add, mul, neg, inv):
    """RREF of `m` (int64, modified in place) over GF(q); returns rank."""
    rows, cols = m.shape
    rank = 0
    for col in range(cols):
        nz = np.nonzero(m[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            m[[rank, piv]] = m[[piv, rank]]
        pv = m[rank, col]
        if pv != 1:
            m[rank, col:] = mul[m[rank, col:], inv[pv]]
        f = m[:, col].copy()
        f[rank] = 0
        hit = np.nonzero(f)[0]
        if hit.size:
            m[hit, col:] = add[m[hit, col:], neg[mul[f[hit, None], m[rank, col:]]]]
        rank += 1
        if rank == rows:
            break
    return rank


# ---------------------------------------------------------------------------
# batched linear combinations over GF(q): C @ B for many coefficient rows
# ---------------------------------------------------------------------------

def gf_combinations(coeffs, basis, add, mul):
    """Row space samples: out[..., i, :] = sum_t coeffs[i,t] * basis[..., t, :]
    in GF(q), for one basis or a stack of bases of at least one row.  The
    tables are read raveled, at a*q + b."""
    q = add.shape[0]
    add, mul = add.ravel(), mul.ravel()
    scaled = coeffs * q
    out = mul.take(scaled[:, 0, None] + basis[..., 0, None, :])
    for t in range(1, basis.shape[-2]):
        out *= q
        out += mul.take(scaled[:, t, None] + basis[..., t, None, :])
        out = add.take(out)
    return out


# ---------------------------------------------------------------------------
# the normalised points of row spaces over GF(q), one block per basis row
# ---------------------------------------------------------------------------

def gf_point_blocks(bases, add, mul, blocks):
    """Blocks 0..blocks-1 of the normalised points of the row spaces of
    reduced-echelon bases b_0 ... b_{r-1}, shape (m, r, cols): block i is
    the coset b_i + span(b_{i+1}, ...), grown from b_i by one table
    addition per later row, in ascending code order."""
    q = add.shape[0]
    m, r, cols = bases.shape
    add = add.ravel()
    # q * (c b_j), j >= 1: row offsets into the raveled `add`
    multiples = (mul.ravel() * q).take(
        np.arange(0, q * q, q)[:, None] + bases[:, 1:, None])
    out = []
    for i in range(blocks):
        pts = bases[:, i:i + 1]
        for j in range(i, r - 1):
            pts = add.take(pts[:, :, None] + multiples[:, j, None]
                           ).reshape(m, -1, cols)
        out.append(pts)
    return out


# ---------------------------------------------------------------------------
# intersection numbers p_ij^l from a relation matrix, with constancy check
# ---------------------------------------------------------------------------

# rows of the relation matrix per product, and the most rows of length
# |X| that any temporary holds beyond the digit matrix
_ROWS = 64


def triple_counts(rel, d, covers=None):
    """All intersection numbers p_ij^l, verifying they are constant over
    every pair of each relation.  Returns (constant?, p[i,j,l]).

    `rel` holds relation numbers 0..d.  With b = bit_length(|X|), every
    count (A_i A_j)[a, c] is below 2^b, so the digit matrix
    D = 2^(b rel) packs a whole row of the table into one number:
        (A_i D)[a, c] = sum_j (A_i A_j)[a, c] 2^(b j),
    one base-2^b digit per j, with no carries.  One float64 product per
    relation i, taken in row blocks, thus gives all d+1 products A_i A_j.
    The relation equal to I gives D itself, and since sum_l A_l = J, one
    relation e needs no product: A_e D = 1 colsum(D) - sum_{i != e} A_i D.
    e is the relation with the most cells among those that neither have
    a cover nor equal I.

    covers[i], when given, is a clique cover of relation i: an int array
    (cliques x size) of elements in which every element lies in the same
    number m of rows.  With M its clique incidence, A_i = M^T M - m I,
    so A_i D is each row's m clique sums (M D) gathered, minus m D: no
    dense product.  The cover is checked on every cell: the number of
    cliques holding both a and c must be [rel[a, c] = i] for a != c and
    m for a = c.  A malformed or wrong cover makes the result not
    constant, never raises; a relation without a cover takes the dense
    product.

    Every packed value is a sum of terms n_c D[a', c] over elements c
    with sum_c n_c at most t = max(|X|, m size) (|X| for the dense
    products and colsum(D), m size for the clique sums), so it is below
    t 2^(b (g-1)) < 2^53 when the relations are split into digit groups
    of g = floor((53 - bit_length(t)) / b) + 1, and float64 is exact;
    today's sizes need one group (496 lines use 36 bits, 1080 use 44).

    Every packed product P_i = A_i D is compared with T_i[rel], where
    T_i[l] is P_i at the first pair of relation l in row-major order.
    p is read from T, so on any rel it is the table at those pairs.
    """
    x = rel.shape[0]
    cliques = {i: _cliques(c, x) if 0 <= i <= d else None
               for i, c in (covers or {}).items()}
    ok = None not in cliques.values()
    b = x.bit_length()
    top = max([x] + [c[1] * c[0].shape[1] for c in cliques.values()
                     if c is not None])
    g = (53 - top.bit_length()) // b + 1
    flat = rel.ravel()
    counts = [np.count_nonzero(flat == l) for l in range(d + 1)]
    ident = next((l for l in range(d + 1) if counts[l] == x
                  and (np.diagonal(rel) == l).all()), None)
    e = max(range(d + 1), key=lambda l: (l not in cliques and l != ident,
                                         counts[l], -l))
    present = np.flatnonzero(counts)
    rows, cols = np.divmod([np.argmax(flat == l) for l in present], x)
    first_rows = rel[rows]
    p = np.zeros((d + 1, d + 1, d + 1), dtype=np.int64)
    for lo in range(0, d + 1, g):
        width = min(g, d + 1 - lo)
        digit = np.zeros(d + 1)
        digit[lo:lo + width] = np.ldexp(1.0, b * np.arange(width))
        dig = np.take(digit, rel)
        # t[i, l]: (A_i D) at the first pair of relation l, exactly
        at_first = dig[:, cols].T
        t = np.zeros((d + 1, d + 1))
        for i in range(d + 1):
            t[i, present] = np.where(first_rows == i, at_first, 0.0).sum(axis=1)
        packed = t.astype(np.int64)
        for j in range(width):
            p[:, lo + j, :] = (packed >> (b * j)) & ((1 << b) - 1)
        if not ok:
            continue
        sums = {i: _clique_sums(dig, c[0]) for i, c in cliques.items()
                if i != e}
        colsum = dig.sum(axis=0)
        for s in range(0, x, _ROWS):
            block = rel[s:s + _ROWS]
            # the covers do not depend on the digits: check them once
            ok = lo > 0 or all(_cover_holds(block, s, i, c)
                               for i, c in cliques.items())
            prod_e = np.broadcast_to(colsum, block.shape).copy()
            for i in range(d + 1):
                if not ok or i == e:
                    continue
                if i in sums:
                    prod = _clique_product(sums[i], cliques[i], dig, s)
                elif i == ident:
                    prod = dig[s:s + _ROWS]
                else:
                    prod = (block == i).astype(np.float64) @ dig
                ok = bool((prod == np.take(t[i], block)).all())
                prod_e -= prod
            ok = ok and bool((prod_e == np.take(t[e], block)).all())
            if not ok:
                break
    return ok, p


def _cliques(cover, x):
    """(cover, m, where), where[a] the m rows of `cover` that hold a
    (with multiplicity); None unless `cover` is a non-empty 2-d integer
    array of elements 0..x-1 that each occur m times."""
    cover = np.asarray(cover)
    if (cover.ndim != 2 or cover.size == 0 or cover.dtype.kind not in "iu"
            or cover.size % x or cover.min() < 0 or cover.max() >= x):
        return None
    m = cover.size // x
    cover = cover.astype(np.intp, copy=False)
    flat = cover.ravel()
    if (np.bincount(flat, minlength=x) != m).any():
        return None
    return cover, m, (np.argsort(flat, kind="stable")
                      // cover.shape[1]).reshape(x, m)


def _clique_sums(dig, cover):
    """M D: the sum of dig's rows over each clique, gathering at most
    _ROWS rows at a time."""
    out = np.zeros((len(cover), dig.shape[1]))
    for lo in range(0, len(cover), _ROWS):
        part = out[lo:lo + _ROWS]
        for col in cover[lo:lo + _ROWS].T:
            part += dig[col]
    return out


def _cover_holds(block, start, i, clique):
    """For the rows start.. of `block`: the number of cliques holding
    both a and c is [block[a, c] = i] off the diagonal and m on it."""
    cover, m, where = clique
    rows, x = block.shape
    at = cover[where[start:start + rows]] + (x * np.arange(rows))[:, None, None]
    want = (block == i).astype(np.int64)
    want[np.arange(rows), start + np.arange(rows)] = m
    return bool((np.bincount(at.ravel(), minlength=rows * x)
                 == want.ravel()).all())


def _clique_product(sums, clique, dig, start):
    """Rows start.. of A_i D = M^T (M D) - m D, one gather of row
    length |X| per clique of each row."""
    _, m, where = clique
    w = where[start:start + _ROWS]
    prod = sums[w[:, 0]]
    for j in range(1, m):
        prod += sums[w[:, j]]
    prod -= m * dig[start:start + _ROWS]
    return prod
