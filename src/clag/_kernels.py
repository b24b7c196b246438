"""Hot integer kernels in numpy.  The tests compare each with a
plain-Python reference loop in `tests/oracle.py`, bit for bit.

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
    in GF(q), for one basis or a stack of bases."""
    out = np.zeros(basis.shape[:-2] + (coeffs.shape[0], basis.shape[-1]),
                   dtype=np.int64)
    for t in range(basis.shape[-2]):
        out = add[out, mul[coeffs[:, t, None], basis[..., t, None, :]]]
    return out


# ---------------------------------------------------------------------------
# intersection numbers p_ij^l from a relation matrix, with constancy check
# ---------------------------------------------------------------------------

# rows per popcount block: the AND temporary is _BLOCK x |X| x words
_BLOCK = 32


def _packed(mask):
    """Rows of a boolean matrix as bits, zero-padded to uint64 words."""
    nbytes = -(-mask.shape[1] // 64) * 8
    out = np.zeros((mask.shape[0], nbytes), dtype=np.uint8)
    packed = np.packbits(mask, axis=1)
    out[:, :packed.shape[1]] = packed
    return out.view(np.uint64)


def _popcount_product(rows, cols):
    """int32 A B for 0/1 matrices given as the packed rows of A and the
    packed columns of B: entry (a, b) counts the common set bits."""
    prod = np.empty((rows.shape[0], cols.shape[0]), dtype=np.int32)
    for s in range(0, rows.shape[0], _BLOCK):
        both = rows[s:s + _BLOCK, None, :] & cols[None]
        prod[s:s + _BLOCK] = np.bitwise_count(both).sum(axis=2, dtype=np.int32)
    return prod


def triple_counts(rel, d):
    """All intersection numbers p_ij^l, verifying they are constant over
    every pair of each relation.  Returns (constant?, p[i,j,l]).

    Every product A_i A_j of the adjacency matrices A_l = [rel == l] is
    formed and compared with its value on every pair of every relation,
    and p is read at the first pair in row-major order.  Only products
    of two relations other than I and e take a popcount pass over
    bit-packed rows.  A relation whose mask is the diagonal is I, so its
    products are copies.  The relation e with the most cells needs no
    pass: since sum_l A_l = J,
        A_i A_e = r_i 1^T - sum_{j != e} A_i A_j,
        A_e A_j = 1 c_j^T - sum_{i != e} A_i A_j,
    with r_i and c_j the row and column sums of A_i and A_j, for any rel.
    """
    x = rel.shape[0]
    masks = [rel == l for l in range(d + 1)]
    p = np.zeros((d + 1, d + 1, d + 1), dtype=np.int64)
    ok = True

    def check(i, j, prod):
        nonlocal ok
        for l in range(d + 1):
            vals = prod[masks[l]]
            if vals.size == 0:
                continue
            v = vals[0]
            if ok and not (vals == v).all():
                ok = False
            p[i, j, l] = v

    def total(prods):
        acc = np.zeros((x, x), dtype=np.int32)
        for prod in prods:
            acc += prod
        return acc

    eye = np.eye(x, dtype=bool)
    ident = next((l for l in range(d + 1)
                  if np.array_equal(masks[l], eye)), None)
    e = max(range(d + 1), key=lambda l: np.count_nonzero(masks[l]))
    rest = [l for l in range(d + 1) if l != e]
    packed = {l: (_packed(masks[l]), _packed(masks[l].T))
              for l in rest if l != ident}
    known = {}
    for i in rest:
        for j in rest:
            if i == ident:
                known[i, j] = masks[j]
            elif j == ident:
                known[i, j] = masks[i]
            else:
                known[i, j] = _popcount_product(packed[i][0], packed[j][1])
            check(i, j, known[i, j])
    row_sums = [m.sum(axis=1, dtype=np.int32)[:, None] for m in masks]
    col_sums = [m.sum(axis=0, dtype=np.int32)[None, :] for m in masks]
    for i in rest:  # A_i A_e = r_i 1^T - sum_{j != e} A_i A_j
        prod = total(known[i, j] for j in rest)
        check(i, e, np.subtract(row_sums[i], prod, out=prod))
    prod_ee = np.zeros((x, x), dtype=np.int32)
    for j in rest:  # A_e A_j = 1 c_j^T - sum_{i != e} A_i A_j
        prod = total(known[i, j] for i in rest)
        check(e, j, np.subtract(col_sums[j], prod, out=prod))
        prod_ee += prod
    # sum_j A_e A_j = r_e 1^T gives the last product
    check(e, e, np.subtract(row_sums[e], prod_ee, out=prod_ee))
    return ok, p
