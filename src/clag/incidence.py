"""Point versus k-space incidence and exact row-space queries.

The projective matrix with the canonical ordering decomposes into
blocks: affine rows/columns first, so the top-left block is the affine
incidence matrix, the top-right block is zero (an affine point never
lies on a k-space at infinity) and the bottom-right block is the
incidence matrix of the hyperplane at infinity, one dimension down.

An `IncidenceMatrix` holds M as point lists, never as a dense matrix:
column j of M is the point list of k-space j (`points`, the space's
own K x s array `AmbientSpace.point_lists(k)`), and row p is the list
of the r k-spaces through point p, sorted out of the same array by the
design check.  Every product with M or M^T is a gather and sum over one
of the two lists.

Membership in the rational row space uses the 2-design structure.
Every point lies on r k-spaces and every two points on lambda of them,
so the v x v Gram matrix is M M^T = a I + lambda J with a = r - lambda.
r is counted over the point lists and must be the same for every point;
then, point by point, the k-spaces through p must cover p r times and
every other point lambda = r (s - 1) / (v - 1) times.  A matrix that is
not of this form raises `NotADesign`.  With c = a + lambda v,
(M M^T)^-1 = (c I - lambda J) / (a c), so for w = M chi the only
candidate certificate is y = num / (a c) with
num = c w - lambda (sum w) 1.  chi lies in the row space iff
M^T num = a c chi, an exact integer check, and then y^T M = chi.
Since a > 0, M M^T is invertible, M has full row rank and y is the
unique certificate.  Every accepted certificate has passed that check.
`rows_in_row_space` decides many vectors with the same two gathers,
the vectors as the columns of one matrix, in blocks of bounded size.

Whether two k-spaces meet is an incidence question: `meets` gives
M^T M[:, cols] as a Boolean product, True where a k-space shares a point
with a chosen one, so False marks the disjoint pairs.  It, the search's
starting tableau and `kernel_basis` need M dense; each builds the
Boolean K x v matrix from the point lists when it is called, and none
keeps it.  The point lists (`AmbientSpace.point_lists`) pass the
CLAG_SIZE_GUARD entry guard on every call, counted in closed form as K s
entries; a dense matrix is refused first when its v K entries exceed it.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import exact
from .geometry import AmbientSpace, DimensionOutOfRange, SizeGuard, entry_guard

__all__ = ["IncidenceMatrix", "build_incidence", "LengthMismatch",
           "NotADesign", "meets", "certificate_to_json"]

# entries of the gathers that decide one block of `rows_in_row_space`:
# a block of rows costs one entry per incidence and row, in int64 (or
# Python ints past the int64 guard)
MEMBERSHIP_BLOCK_ENTRIES = 2**20


class LengthMismatch(ValueError):
    pass


class NotADesign(ValueError):
    """M M^T is not (r - lambda) I + lambda J with r > lambda."""


class IncidenceMatrix:
    """The v x K point versus k-space matrix M of `space`, held as the
    K x s int64 array `points` of each k-space's point indices."""

    def __init__(self, space: AmbientSpace, k: int, points: np.ndarray):
        self.space = space
        self.k = k
        self.points = points
        self.shape = (space.num_points, len(points))
        self._kernel = None
        self._design = None
        self._through = None

    def rank(self) -> int:
        """Rank over the rationals: the row count, since the design
        identity makes M M^T invertible."""
        self.design()
        return self.shape[0]

    def kernel_basis(self) -> np.ndarray:
        """Primitive integer basis of {z : M z = 0}, as rows, with M
        read from the space's point lists (the `points` that
        `build_incidence` passes).  The membership test does not use it;
        tests compare against it."""
        if self._kernel is None:
            m = _dense_rows(self.space, self.k).T.astype(np.int64)
            basis = exact.nullspace_int(m.tolist())
            self._kernel = np.array(basis, np.int64).reshape(-1, m.shape[1])
        return self._kernel

    def design(self) -> tuple[int, int]:
        """(r, lambda): every point lies on r k-spaces and every two
        points on lambda of them, with r > lambda, checked one point at
        a time over the point lists."""
        if self._design is None:
            pts = self.points
            (v, spaces), s = self.shape, pts.shape[1]
            refused = NotADesign(
                f"{v} x {spaces} matrix: "
                "M M^T is not (r - lambda) I + lambda J with r > lambda")
            degree = np.bincount(pts.ravel(), minlength=v)
            r = int(degree[0])
            # the k-spaces through a point cover r (s - 1) other points
            lam = r * (s - 1) // (v - 1) if v > 1 else 0
            if r <= lam or (degree != r).any():
                raise refused
            # the k-spaces through each point, in index order
            through = np.argsort(pts.ravel(), kind="stable").reshape(v, r) // s
            for p, mine in enumerate(through):
                count = np.bincount(pts[mine].ravel(), minlength=v)
                count[p] += lam - r
                if (count != lam).any():
                    raise refused
            self._through = through
            self._design = (r, lam)
        return self._design

    def _point_sums(self, vt: np.ndarray) -> np.ndarray:
        """M vt: row p sums the rows of vt over the k-spaces through p."""
        self.design()
        return vt[self._through].sum(axis=1)

    def _solve(self, vecs) -> tuple[np.ndarray, np.ndarray, int]:
        """(member?, num, a c) for the rows of vecs: y = num[:, i] / (a c)
        is the only candidate certificate for row i, and member?[i] is
        the exact check y^T M = vecs[i]."""
        v = np.asarray(vecs, dtype=np.int64)
        if v.ndim != 2 or v.shape[1] != self.shape[1]:
            raise LengthMismatch("vector length must equal column count")
        r, lam = self.design()
        a = r - lam
        c = a + lam * self.shape[0]
        vt = v.T
        # |num| and a c |v| are at most 2 c r |v|, and an entry of
        # M^T num sums s entries of num; past int64, use Python ints
        if (2 * c * r * self.points.shape[1] * int(np.abs(v).max(initial=0))
                >= exact.INT64_GUARD):
            vt = vt.astype(object)
        w = self._point_sums(vt)
        num = c * w - lam * w.sum(axis=0)
        member = (num[self.points].sum(axis=1) == a * c * vt).all(axis=0)
        return member, num, a * c

    def in_row_space(self, vec) -> bool:
        """Membership of an integer vector in the rational row space,
        decided by the design identity (see the module docstring)."""
        return bool(self._solve(np.asarray(vec)[None])[0][0])

    def rows_in_row_space(self, vecs) -> np.ndarray:
        """in_row_space for every row of vecs, with one gather pair per
        block of rows; a block's gathers, one entry per incidence and
        row, hold at most MEMBERSHIP_BLOCK_ENTRIES entries (or one row)."""
        vecs = np.asarray(vecs)
        step = max(1, MEMBERSHIP_BLOCK_ENTRIES // self.points.size)
        return np.concatenate([self._solve(vecs[i:i + step])[0]
                               for i in range(0, max(1, len(vecs)), step)])

    def row_space_membership(self, vec) -> tuple[bool, list[Fraction] | None]:
        """(member?, certificate).  The certificate y satisfies
        y^T M = vec exactly and is unique, since M has full row rank."""
        member, num, den = self._solve(np.asarray(vec)[None])
        if not member[0]:
            return False, None
        return True, [Fraction(int(n), den) for n in num[:, 0]]

    def verify_certificate(self, cert, vec) -> bool:
        """y^T M = vec, summed exactly over each k-space's points."""
        if len(vec) != self.shape[1]:
            raise LengthMismatch("vector length must equal column count")
        return all(sum((cert[p] for p in pts), Fraction(0)) == int(x)
                   for pts, x in zip(self.points.tolist(), vec))


def _dense_rows(space: AmbientSpace, k: int) -> np.ndarray:
    """Boolean (k-spaces x points) M^T, built from the point lists on
    each call.  Raises SizeGuard first when its entries, counted in
    closed form, exceed `entry_guard()`."""
    cap = entry_guard()
    v, spaces = space.num_points, space._num_spaces(k)
    if v * spaces > cap:
        raise SizeGuard(f"{v} x {spaces} incidence exceeds guard {cap}")
    mat = np.zeros((spaces, v), dtype=bool)
    np.put_along_axis(mat, space.point_lists(k), True, axis=1)
    return mat


def meets(space: AmbientSpace, k: int, cols) -> np.ndarray:
    """Boolean M^T M[:, cols] over the space's k-spaces: entry [j, c] is
    True iff k-space j shares a point with k-space cols[c]."""
    m = _dense_rows(space, k)
    return m @ m[cols].T


def build_incidence(space: AmbientSpace, k: int) -> IncidenceMatrix:
    """The 0/1 point versus k-space matrix in canonical order, one per
    space and k, on the space's own point lists.  Every call reads them
    through `AmbientSpace.point_lists`, so its size guard holds whatever
    is already cached."""
    if not 1 <= k <= space.n - 1:
        raise DimensionOutOfRange(f"k={k} outside 1..{space.n - 1}")
    points = space.point_lists(k)
    return space.memo(("IncidenceMatrix", k),
                      lambda: IncidenceMatrix(space, k, points))


def certificate_to_json(space: AmbientSpace, cert) -> dict[str, str]:
    """Certificate as rational strings keyed by point coordinates."""
    out = {}
    for pt, val in zip(space.points, cert):
        f = Fraction(val)
        out[":".join(str(c) for c in pt)] = f"{f.numerator}/{f.denominator}"
    return out
