"""Reference implementations for the tests.

`contains` decides containment independent of point sets: small lies
inside big iff adding its rows to big's does not grow the row space,
decided by GF(q) row reduction (`span` goes through `gf_rref`).

`combination_children` is the reference for `_Search._children`: one
clone per `itertools.combinations` choice of a pencil's unknown
members, each replaying the pencil's assignments one `_assign` at a
time from the start.

`OneArrayTableau` is the search's former tableau: one integer array
holds T with p as its last row, and every assignment eliminates the
whole array, T included."""

import itertools
from math import gcd

import numpy as np

from clag import exact
from clag.classify import _Contradiction
from clag.geometry import Subspace, span


def contains(big: Subspace, small: Subspace) -> bool:
    return span(big, small) == big


def combination_children(search, state, pid) -> list:
    undecided = [t for t in search.pencils[pid] if state.values[t] == -1]
    need = search.x - state.ones[pid]
    children = []
    for chosen in itertools.combinations(undecided, need):
        chosen = set(chosen)
        child = state.clone()
        try:
            for t in undecided:
                search._assign(child, t, 1 if t in chosen else 0)
        except _Contradiction:
            continue
        children.append(child)
    return children


class OneArrayTableau:
    __slots__ = ("a", "den")

    def __init__(self, a: np.ndarray, den: int):
        self.a = a
        self.den = den

    @classmethod
    def start(cls, matrix: np.ndarray) -> "OneArrayTableau":
        a = np.zeros((matrix.shape[0] + 1, matrix.shape[1]), dtype=np.int64)
        a[:-1] = matrix
        return cls(a, 1)

    @property
    def t(self) -> np.ndarray:
        return self.a[:-1]

    @property
    def p(self) -> np.ndarray:
        return self.a[-1]

    def assigned(self, j: int, val: int) -> "OneArrayTableau":
        a, den = self.a, self.den
        if not a[:-1, j].any():
            if a[-1, j] != val * den:
                raise _Contradiction
            return self
        m = int(abs(a).max())
        if m * (2 * m + (abs(val) + 1) * den) >= exact.INT64_GUARD:
            a = a.astype(object)
        col = a[:, j].copy()
        col[-1] -= val * den
        nz = col.nonzero()[0]
        r, rows = nz[0], nz[1:]
        c = col[r]
        upd = c * a[rows] - col[rows, None] * a[r]
        g = np.gcd.reduce(upd, axis=1)
        if col[-1]:
            den = int(den * c)
            gp = gcd(int(g[-1]), den)
            g[-1] = -gp if den < 0 else gp
            den //= int(g[-1])
        upd //= g[:, None]
        out = a.copy()
        out[rows] = upd
        out[r] = out[-2]
        out[-2] = out[-1]
        out = out[:-1]
        return OneArrayTableau(out, den)
