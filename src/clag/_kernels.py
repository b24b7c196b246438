"""Hot integer kernels in numpy, each beside the plain-Python loop that
the tests compare it with bit for bit.

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

def _gf_rref_py(m, add, mul, neg, inv):
    rows, cols = m.shape
    rank = 0
    for col in range(cols):
        piv = -1
        for r in range(rank, rows):
            if m[r, col] != 0:
                piv = r
                break
        if piv < 0:
            continue
        if piv != rank:
            for c in range(cols):
                t = m[rank, c]
                m[rank, c] = m[piv, c]
                m[piv, c] = t
        pv = m[rank, col]
        if pv != 1:
            ipv = inv[pv]
            for c in range(col, cols):
                m[rank, c] = mul[m[rank, c], ipv]
        for r in range(rows):
            f = m[r, col]
            if r != rank and f != 0:
                for c in range(col, cols):
                    m[r, c] = add[m[r, c], neg[mul[f, m[rank, c]]]]
        rank += 1
        if rank == rows:
            break
    return rank


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

def _gf_combinations_py(coeffs, basis, add, mul):
    n, r = coeffs.shape
    cols = basis.shape[1]
    out = np.zeros((n, cols), dtype=np.int64)
    for i in range(n):
        for t in range(r):
            c = coeffs[i, t]
            if c != 0:
                for j in range(cols):
                    out[i, j] = add[out[i, j], mul[c, basis[t, j]]]
    return out


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

def _triple_counts_py(rel, d):
    x = rel.shape[0]
    p = np.zeros((d + 1, d + 1, d + 1), dtype=np.int64)
    seen = np.zeros(d + 1, dtype=np.int64)
    ok = True
    cnt = np.zeros((d + 1, d + 1), dtype=np.int64)
    for a in range(x):
        for b in range(x):
            for i in range(d + 1):
                for j in range(d + 1):
                    cnt[i, j] = 0
            for z in range(x):
                cnt[rel[a, z], rel[z, b]] += 1
            l = rel[a, b]
            if seen[l] == 0:
                seen[l] = 1
                for i in range(d + 1):
                    for j in range(d + 1):
                        p[i, j, l] = cnt[i, j]
            else:
                for i in range(d + 1):
                    for j in range(d + 1):
                        if p[i, j, l] != cnt[i, j]:
                            ok = False
    return ok, p


def triple_counts(rel, d):
    """All intersection numbers p_ij^l, verifying they are constant over
    every pair of each relation.  Returns (constant?, p[i,j,l])."""
    x = rel.shape[0]
    masks = [rel == l for l in range(d + 1)]
    adj = [m.astype(np.int64) for m in masks]
    p = np.zeros((d + 1, d + 1, d + 1), dtype=np.int64)
    ok = True
    for i in range(d + 1):
        for j in range(d + 1):
            prod = adj[i] @ adj[j]
            for l in range(d + 1):
                vals = prod[masks[l]]
                if vals.size == 0:
                    continue
                v = int(vals[0])
                if not (vals == v).all():
                    ok = False
                p[i, j, l] = v
    return ok, p

