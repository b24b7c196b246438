"""Point versus k-space incidence matrices and exact row-space queries.

The projective matrix with the canonical ordering decomposes into
blocks: affine rows/columns first, so the top-left block is the affine
incidence matrix, the top-right block is zero (an affine point never
lies on a k-space at infinity) and the bottom-right block is the
incidence matrix of the hyperplane at infinity, one dimension down.

Membership in the rational row space uses the 2-design structure.
Every point lies on r k-spaces and every two points on lambda of them,
so the v x v Gram matrix is M M^T = a I + lambda J with a = r - lambda.
Both numbers are counted from the Gram matrix, which is checked entry
by entry; a matrix that is not of this form raises `NotADesign`.  With
c = a + lambda v, (M M^T)^-1 = (c I - lambda J) / (a c), so for
w = M chi the only candidate certificate is y = num / (a c) with
num = c w - lambda (sum w) 1.  chi lies in the row space iff
M^T num = a c chi, an exact integer check, and then y^T M = chi.
Since a > 0, M M^T is invertible, M has full row rank and y is the
unique certificate.  Every accepted certificate has passed that check.
`rows_in_row_space` decides a block of vectors at once: the same two
products, with the vectors as the columns of one matrix.

Whether two k-spaces meet is read off the same incidence: `meets`
gives M^T M[:, cols] as a Boolean product, True where a k-space shares
a point with a chosen one, so False marks the disjoint pairs.

There are two matrices per space and k.  `AmbientSpace.incidence` is
the Boolean one, for incidence questions such as `meets`, and checks
the CLAG_SIZE_GUARD entry guard on every call.  `build_incidence` wraps
its transpose, once, as a read-only int64 matrix in an
`IncidenceMatrix`, whose `.matrix` every integer product reads: the
design, the membership test and the search's tableau.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import exact
from .geometry import AmbientSpace, DimensionOutOfRange, _read_only

__all__ = ["IncidenceMatrix", "build_incidence", "LengthMismatch",
           "NotADesign", "meets", "certificate_to_json"]

class LengthMismatch(ValueError):
    pass


class NotADesign(ValueError):
    """M M^T is not (r - lambda) I + lambda J with r > lambda."""


class IncidenceMatrix:
    def __init__(self, space: AmbientSpace, k: int, matrix: np.ndarray):
        self.space = space
        self.k = k
        self.matrix = matrix
        self._kernel = None
        self._design = None

    @property
    def shape(self):
        return self.matrix.shape

    def rank(self) -> int:
        """Rank over the rationals: the row count, since the design
        identity makes M M^T invertible."""
        self.design()
        return self.matrix.shape[0]

    def kernel_basis(self) -> np.ndarray:
        """Primitive integer basis of {z : M z = 0}, as rows.  The
        membership test does not use it; tests compare against it."""
        if self._kernel is None:
            basis = exact.nullspace_int(self.matrix.tolist())
            self._kernel = np.array(basis, dtype=np.int64).reshape(
                len(basis), self.matrix.shape[1])
        return self._kernel

    def design(self) -> tuple[int, int]:
        """(r, lambda), counted from the Gram matrix M M^T, which must
        equal (r - lambda) I + lambda J with r > lambda."""
        if self._design is None:
            m = self.matrix
            gram = exact.int_matmul(m, m.T)
            v = gram.shape[0]
            r = int(gram[0, 0]) if v else 0
            lam = int(gram[0, 1]) if v > 1 else 0
            expected = np.full((v, v), lam, dtype=np.int64)
            np.fill_diagonal(expected, r)
            if r <= lam or not np.array_equal(gram, expected):
                raise NotADesign(
                    f"{self.matrix.shape[0]} x {self.matrix.shape[1]} matrix: "
                    "M M^T is not (r - lambda) I + lambda J with r > lambda")
            self._design = (r, lam)
        return self._design

    def _solve(self, vecs) -> tuple[np.ndarray, np.ndarray, int]:
        """(member?, num, a c) for the rows of vecs: y = num[:, i] / (a c)
        is the only candidate certificate for row i, and member?[i] is
        the exact check y^T M = vecs[i]."""
        v = np.asarray(vecs, dtype=np.int64)
        if v.ndim != 2 or v.shape[1] != self.matrix.shape[1]:
            raise LengthMismatch("vector length must equal column count")
        r, lam = self.design()
        a = r - lam
        c = a + lam * self.matrix.shape[0]
        vt = v.T
        w = exact.int_matmul(self.matrix, vt)
        # |num| and a c |v| are at most 2 c r |v|; past int64, use Python ints
        if 2 * c * r * int(np.abs(v).max(initial=0)) >= exact.INT64_GUARD:
            vt, w = vt.astype(object), w.astype(object)
        num = c * w - lam * w.sum(axis=0)
        member = (exact.int_matmul(self.matrix.T, num) == a * c * vt).all(axis=0)
        return member, num, a * c

    def in_row_space(self, vec) -> bool:
        """Membership of an integer vector in the rational row space,
        decided by the design identity (see the module docstring)."""
        return bool(self._solve(np.asarray(vec)[None])[0][0])

    def rows_in_row_space(self, vecs) -> np.ndarray:
        """in_row_space for every row of vecs, with one product pair."""
        return self._solve(vecs)[0]

    def row_space_membership(self, vec) -> tuple[bool, list[Fraction] | None]:
        """(member?, certificate).  The certificate y satisfies
        y^T M = vec exactly and is unique, since M has full row rank."""
        member, num, den = self._solve(np.asarray(vec)[None])
        if not member[0]:
            return False, None
        return True, [Fraction(int(n), den) for n in num[:, 0]]

    def verify_certificate(self, cert, vec) -> bool:
        rows, cols = self.matrix.shape
        for c in range(cols):
            acc = Fraction(0)
            for r in range(rows):
                if cert[r]:
                    acc += cert[r] * int(self.matrix[r, c])
            if acc != Fraction(int(vec[c])):
                return False
        return True


def meets(space: AmbientSpace, k: int, cols) -> np.ndarray:
    """Boolean M^T M[:, cols] over the space's k-spaces: entry [j, c] is
    True iff k-space j shares a point with k-space cols[c]."""
    m = space.incidence(k)
    return m @ m[cols].T


def build_incidence(space: AmbientSpace, k: int) -> IncidenceMatrix:
    """The 0/1 point versus k-space matrix in canonical order, one per
    space and k: the transposed `AmbientSpace.incidence` as a read-only
    int64 matrix, whose size guard it passes on every call."""
    if not 1 <= k <= space.n - 1:
        raise DimensionOutOfRange(f"k={k} outside 1..{space.n - 1}")
    mat = space.incidence(k)
    return space.memo(("IncidenceMatrix", k), lambda: IncidenceMatrix(
        space, k, _read_only(mat.T.astype(np.int64, order="C"))))


def certificate_to_json(space: AmbientSpace, cert) -> dict[str, str]:
    """Certificate as rational strings keyed by point coordinates."""
    out = {}
    for pt, val in zip(space.points, cert):
        f = Fraction(val)
        out[":".join(str(c) for c in pt)] = f"{f.numerator}/{f.denominator}"
    return out
