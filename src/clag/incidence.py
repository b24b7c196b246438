"""Point versus k-space incidence and exact row-space queries.

The projective matrix with the canonical ordering decomposes into
blocks: affine rows/columns first, so the top-left block is the affine
incidence matrix, the top-right block is zero (an affine point never
lies on a k-space at infinity) and the bottom-right block is the
incidence matrix of the hyperplane at infinity, one dimension down.

An `IncidenceMatrix` holds M as point lists, never as a dense matrix:
column j of M is the point list of k-space j (`points`, the space's
own K x s array `AmbientSpace.point_lists(k)`), and row p is the list
of the r k-spaces through point p (`AmbientSpace.point_pencils(k)`,
sorted once out of the same array, which the design check reads).
Every product with M or M^T is a gather and sum over one of the two
lists.

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

Whether two k-spaces meet is read from the point lists too: `meets`
gives the Boolean M^T[rows] M[:, cols], True where a k-space shares a
point with a chosen one, so False marks the disjoint pairs.  Each point
marks the chosen k-spaces through it in a v x len(cols) Boolean array
packed into bits, and each k-space ORs the packed marks of its s
points.  `meet_counts` counts the set bits of those ORs block by block,
so the disjointness counts never hold a K x len(cols) matrix.  Only
exact elimination needs M dense: the search's starting tableau and
`kernel_basis` each build the Boolean K x v matrix from the point lists
when they are called, and neither keeps it.  The point lists
(`AmbientSpace.point_lists`) pass the CLAG_SIZE_GUARD entry guard on
every call, counted in closed form as K s entries; the meet marks are
refused when their v len(cols) entries exceed it, the result of `meets`
when its len(rows) len(cols) entries do, and a dense matrix when its
v K entries do.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import exact, geometry
from .geometry import AmbientSpace, DimensionOutOfRange, check_size

__all__ = ["IncidenceMatrix", "build_incidence", "LengthMismatch",
           "NotADesign", "meets", "meet_counts", "certificate_to_json"]

# entries of the gathers that decide one block of `rows_in_row_space`:
# a block of rows costs one entry per incidence and row, in int64 (or
# Python ints past the int64 guard)
MEMBERSHIP_BLOCK_ENTRIES = 2**20
# k-space x chosen-k-space entries that `meet_counts` gathers per block
MEET_BLOCK_ENTRIES = 2**22


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
        `build_incidence` passes), from `exact.nullspace_int`: the first
        nonzero entry of each row is positive, and which basis of the
        kernel comes out follows that elimination's pivot order.  The
        membership test does not use it; tests compare against it."""
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
            # the k-spaces through each point, in index order: the
            # space's own table, unless M was built on other lists
            through = (self.space.point_pencils(self.k)
                       if pts is self.space.point_lists(self.k)
                       else geometry._pencil_rows(pts, v))
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
    each call, for the two users that need M dense for exact
    elimination: the search's starting tableau and `kernel_basis`.
    Raises SizeGuard first when its entries, counted in closed form,
    exceed `entry_guard()`."""
    v, spaces = space.num_points, space._num_spaces(k)
    check_size("{} x {} incidence exceeds guard {cap}", v, spaces)
    mat = np.zeros((spaces, v), dtype=bool)
    np.put_along_axis(mat, space.point_lists(k), True, axis=1)
    return mat


def _meet_marks(space: AmbientSpace, k: int, cols):
    """(point lists, packed marks, len(cols)): each point marks the
    chosen k-spaces through it in a v x len(cols) Boolean array, packed
    into bits along cols.  Raises SizeGuard first when the
    v x len(cols) marks exceed `entry_guard()`."""
    pts = space.point_lists(k)
    chosen = pts[cols]
    v, width = space.num_points, len(chosen)
    check_size("{} x {} meet marks exceed guard {cap}", v, width)
    marks = np.zeros((v, width), dtype=bool)
    marks[chosen, np.arange(width)[:, None]] = True
    return pts, np.packbits(marks, axis=1), width


def _gather_marks(packed: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """OR of the packed marks of the points of each row of `pts`, one
    gather per column of the point lists."""
    met = packed[pts[:, 0]]
    for col in pts.T[1:]:
        met |= packed[col]
    return met


def meets(space: AmbientSpace, k: int, cols, rows=slice(None)) -> np.ndarray:
    """Boolean M^T[rows] M[:, cols]: entry [i, c] is True iff k-space
    rows[i] shares a point with k-space cols[c] (every k-space by
    default).  Each k-space ORs the bit-packed marks of its points.
    Raises SizeGuard when the v x len(cols) marks or, before the
    gather, the len(rows) x len(cols) result exceed `entry_guard()`."""
    pts, packed, width = _meet_marks(space, k, cols)
    pts = pts[rows]
    check_size("{} x {} meet matrix exceeds guard {cap}", len(pts), width)
    met = _gather_marks(packed, pts)
    return np.unpackbits(met, axis=1, count=width).view(bool)


def meet_counts(space: AmbientSpace, k: int, cols) -> np.ndarray:
    """For every k-space, the number of k-spaces cols[c] it shares a
    point with: the set bits of its row of `meets`, counted in blocks
    of at most MEET_BLOCK_ENTRIES result entries (or one row), so no
    K x len(cols) matrix is built."""
    pts, packed, width = _meet_marks(space, k, cols)
    step = max(1, MEET_BLOCK_ENTRIES // max(1, width))
    counts = np.empty(len(pts), dtype=np.int64)
    for i in range(0, len(pts), step):
        met = _gather_marks(packed, pts[i:i + step])
        counts[i:i + step] = np.bitwise_count(met).sum(1, dtype=np.int64)
    return counts


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
