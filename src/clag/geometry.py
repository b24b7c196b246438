"""Projective and affine geometries over GF(q).

PG(n, q) is modelled on homogeneous coordinates (x0 : ... : xn); the
affine space AG(n, q) is PG(n, q) minus the fixed hyperplane at
infinity x0 = 0, with affine points normalized to x0 = 1.  A subspace
is stored as the unique reduced row echelon basis of its row space, so
two subspaces are equal iff their matrices are equal.

The projective space owns the canonical order: its k-spaces are sorted
on the echelon matrix, affine ones first, and its points are listed and
indexed in closed form, by this module alone (`_index_form`): block c
holds the normalised points led by a 1 in column c, in base-q order.
The k-spaces are enumerated once per (space, k) as one read-only int64
array of echelon bases (`AmbientSpace.bases`), every pivot pattern's
matrices at once, and sorted once on byte-string keys (`_keys`); a
subspace is found among them by its key (`Enumeration.find`), and the
`Subspace` objects of `spaces(k)` are built from the array only for the
callers that emit or take them.  AG(n, q) reads its points (block 0) and
k-spaces as the affine prefix of its projective `closure`, so embedding
into PG(n, q) and restricting to AG(n, q) keep every index, and the
order is reproducible everywhere: file formats, incidence block
structure, search certificates.  The subspaces at infinity have their
own enumeration, that of PG(n-1, q) with a zero column prepended.
Every derived table of a space (enumerations, point sets, pencils) is
built once and kept in that instance's one memo, `AmbientSpace.memo`,
so it lives exactly as long as the instance.

Each k-space's points are stored once, as one row of the int64 point
lists of the k-spaces (`AmbientSpace.point_lists`), computed by
`point_sets` in a few vectorised chunks of bounded size; they are also
the one stored form of the point versus k-space incidence.  They are
built as cosets of the echelon basis, an affine k-space's q^k affine
points the first: no point is listed.  No dense
points x k-spaces matrix and no per-space tuples are kept.  An affine
question about a subspace at infinity is never read in the projective
closure: `AmbientSpace.shared_at_origin` answers it at the affine point
0, through the pencils of `infinity_pencils`.

Every table sized in closed form, each enumeration of subspaces
included, is checked before it is built by `check_size`, the one size
policy: it raises SizeGuard past `entry_guard()`.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .galois import FiniteField, field_for_order

__all__ = [
    "gaussian_binomial", "Subspace", "Enumeration", "AmbientSpace",
    "ambient", "make_subspace", "span", "apply_matrix",
    "DimensionOutOfRange", "AmbientMismatch", "SizeGuard", "BadGuardValue",
]

DEFAULT_ENTRY_GUARD = 10**7

# (subspace, point) pairs whose coordinates `point_sets` builds at once;
# the largest call of any benchmark workload (the 363 affine hyperplanes
# of AG(5,3), 81 points each) fits in one such chunk
POINT_BLOCK_ENTRIES = 2**16


class DimensionOutOfRange(ValueError):
    pass


class SizeGuard(RuntimeError):
    pass


# CLAG_SIZE_GUARD is no non-negative decimal integer; not a ValueError,
# which callers read as a malformed input
class BadGuardValue(RuntimeError):
    pass


def entry_guard() -> int:
    """Matrix-entry cap: CLAG_SIZE_GUARD, else (unset or empty)
    DEFAULT_ENTRY_GUARD."""
    env = os.environ.get("CLAG_SIZE_GUARD")
    if not env:
        return DEFAULT_ENTRY_GUARD
    if not (env.isascii() and env.isdigit()):
        raise BadGuardValue(f"CLAG_SIZE_GUARD={env!r} is not a "
                            "non-negative decimal integer")
    return int(env)


def count_text(v: int) -> str:
    """v in decimal, or "at least 2^b" from 2^100 on: a count in closed
    form can have more digits than `str` prints."""
    b = v.bit_length() - 1
    return str(v) if b < 100 else f"at least 2^{b}"


def capped_count(exact, q: int, e: int, cap: int) -> int:
    """exact(), a count in closed form known to be at least q^e, unless
    2^b with b = e (bit length of q - 1), a power of two at most q^e, is
    at least 2^100 and past cap: then 2^b.  `count_text` prints either
    as "at least 2^..." there, and forming the closed form that far out
    can take minutes: [10^7 + 1, 2]_2 alone took 4 s on a 2-core host."""
    b = e * (q.bit_length() - 1)
    if b >= 100 and 1 << b > cap:
        return 1 << b
    return exact()


def check_size(message: str, *shape: int) -> None:
    """The one size policy: raise SizeGuard when a table of the given
    shape, counted in closed form before it is built, has more entries
    than `entry_guard()`.  Only then is `message` formatted, with each
    dimension as `count_text` shows it in its positional fields and the
    guard in {cap}."""
    cap = entry_guard()
    if math.prod(shape) > cap:
        raise SizeGuard(message.format(*map(count_text, shape), cap=cap))


def _read_only(arr: np.ndarray) -> np.ndarray:
    """arr, locked against writes: memoised tables are shared by every
    caller."""
    arr.flags.writeable = False
    return arr


class AmbientMismatch(ValueError):
    pass


def gaussian_binomial(a: int, b: int, q: int) -> int:
    """Number of (b-1)-dimensional projective subspaces of PG(a-1, q)."""
    if a < 0 or b < 0:
        raise DimensionOutOfRange("negative argument")
    if b > a:
        return 0
    b = min(b, a - b)  # [a, b]_q = [a, a - b]_q
    num = 1
    den = 1
    for i in range(b):
        num *= q ** (a - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


@dataclass(frozen=True)
class Subspace:
    """A projective subspace in canonical reduced row echelon form."""

    n: int
    q: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.rows) - 1

    @property
    def field(self) -> FiniteField:
        return field_for_order(self.q)

    def is_affine(self) -> bool:
        """True iff the subspace is not contained in x0 = 0."""
        return self.rows[0][0] != 0

    def key(self):
        """Canonical sort key: affine subspaces first (leading pivot
        column 0), then the ones at infinity ordered recursively, so the
        infinite block of every enumeration is the canonical enumeration
        of the same objects one dimension down."""
        c0 = next(i for i, x in enumerate(self.rows[0]) if x)
        return (c0, self.rows)

    def to_json(self) -> list[list[int]]:
        return [list(r) for r in self.rows]

    def __repr__(self):
        return f"Subspace(n={self.n}, q={self.q}, dim={self.dim}, {self.rows})"


def _rref(field, rows) -> tuple[tuple[int, ...], ...]:
    # range-check the entries as given: an int past int64 would overflow
    # the int64 conversion before any check
    mat = np.array(rows, dtype=object)
    if mat.ndim != 2:
        raise ValueError("basis must be a matrix")
    if not all(0 <= v < field.q for v in mat.flat):
        raise ValueError(f"basis entries must be field codes 0..{field.q - 1}")
    mat = mat.astype(np.int64)
    rank = _kernels.gf_rref(mat, field.add_table, field.mul_table,
                            field.neg_table, field.inv_table)
    return tuple(tuple(int(v) for v in mat[i]) for i in range(rank))


def make_subspace(n: int, q: int, rows) -> Subspace:
    """Canonicalize a generator list into a Subspace."""
    field = field_for_order(q)
    for r in rows:
        if len(r) != n + 1:
            raise DimensionOutOfRange("row length must be n+1")
    canon = _rref(field, rows)
    if not canon:
        raise ValueError("empty subspace")
    return Subspace(n, q, canon)


def span(a: Subspace, b: Subspace) -> Subspace:
    if (a.n, a.q) != (b.n, b.q):
        raise AmbientMismatch("span of subspaces of different spaces")
    return make_subspace(a.n, a.q, list(a.rows) + list(b.rows))


def apply_matrix(s: Subspace, matrix) -> Subspace:
    """Image of a subspace under an invertible (n+1)x(n+1) matrix acting
    on row vectors."""
    field = s.field
    return make_subspace(s.n, s.q, _kernels.gf_combinations(
        np.array(s.rows, dtype=np.int64), np.array(matrix, dtype=np.int64),
        field.add_table, field.mul_table))


def _index_form(n: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(weights, shift): the normalised point x of PG(n, q) led at c has
    index x @ weights + shift[c], weights = (q^n, ..., 1) and
    shift[c] = sum_{c' < c} q^(n-c') - q^(n-c)."""
    weights = q ** np.arange(n, -1, -1, dtype=np.int64)
    return weights, np.cumsum(weights) - 2 * weights


def normalized_points(n: int, q: int, blocks: int) -> list[tuple[int, ...]]:
    """Blocks 0..blocks-1 of the points of PG(n, q), numbered as by
    `_index_form`: block c is (0,)*c + (1,) + t, t in base-q order."""
    check_size("{} points exceed guard {cap}",
               sum(q ** (n - c) for c in range(blocks)))
    return [(0,) * c + (1,) + t for c in range(blocks)
            for t in itertools.product(range(q), repeat=n - c)]


def _echelon_bases(ncols: int, nrows: int, q: int) -> np.ndarray:
    """All reduced-echelon full-rank nrows x ncols matrices over GF(q),
    the (nrows-1)-spaces of PG(ncols-1, q), as one int64 array (count,
    nrows, ncols), unsorted: each pivot pattern's at once, its f free
    cells every tuple of f field codes, in product order.  Raises
    SizeGuard before any is built when their number exceeds
    `entry_guard()`."""
    # [a b]_q >= q^(b (a - b))
    count = capped_count(lambda: gaussian_binomial(ncols, nrows, q), q,
                         nrows * (ncols - nrows), entry_guard())
    check_size(f"{{}} {nrows - 1}-spaces of PG({ncols - 1},{q}) exceed "
               "guard {cap}", count)
    blocks = [np.zeros((0, nrows * ncols), dtype=np.int64)]
    for pivots in itertools.combinations(range(ncols), nrows):
        # the matrices flattened: entry (i, j) at i ncols + j
        free = [i * ncols + j for i, pc in enumerate(pivots)
                for j in range(pc + 1, ncols) if j not in pivots]
        block = np.zeros((q ** len(free), nrows * ncols), dtype=np.int64)
        block[:, np.arange(nrows) * ncols + pivots] = 1
        block[:, free] = np.indices((q,) * len(free)).reshape(len(free),
                                                               len(block)).T
        blocks.append(block)
    return np.concatenate(blocks).reshape(-1, nrows, ncols)


def _keys(bases: np.ndarray) -> np.ndarray:
    """Byte-string keys of echelon bases (m, r, c) that ascend in
    canonical order (`Subspace.key`): the leading pivot column of row 0,
    then every entry row by row, each as two big-endian bytes.  Entries
    below 2^16 (every field code: q <= 512) give distinct matrices
    distinct keys, of any length: no key overflows."""
    lead = (bases[:, 0] != 0).argmax(axis=1)
    entries = bases.reshape(len(bases), math.prod(bases.shape[1:]))
    words = np.concatenate([lead[:, None], entries], axis=1).astype(">u2")
    return words.view(f"S{words.itemsize * words.shape[1]}").ravel()


def _subspaces(n: int, q: int, bases: np.ndarray) -> list[Subspace]:
    """The echelon bases (m, r, n+1) as `Subspace` objects."""
    return [Subspace(n, q, tuple(map(tuple, b))) for b in bases.tolist()]


class Enumeration:
    """Echelon bases in canonical order, read-only, with their sorted
    `_keys`: the one lookup of subspaces among the k-spaces of a space
    (`AmbientSpace.space_index`) or those at infinity
    (`AmbientSpace.infinite_index`), by one searchsorted."""

    def __init__(self, q: int, bases: np.ndarray, keys=None):
        if keys is None:  # sort once
            keys = _keys(bases)
            order = np.argsort(keys, kind="stable")
            bases, keys = bases[order], keys[order]
        self.q, self.bases, self.keys = q, _read_only(bases), keys

    def find(self, bases: np.ndarray) -> np.ndarray:
        """Position of each basis of the int64 array `bases` (m, r, c)
        among these, -1 for one not among them; a basis with an entry
        outside 0..q-1 is never found."""
        if bases.shape[1:] != self.bases.shape[1:] or not len(self.keys):
            return np.full(len(bases), -1, dtype=np.int64)
        keys = _keys(bases)
        at = self.keys.searchsorted(keys)
        # the key of an entry outside 0..q-1 (negative ones are past q
        # as uint64) may alias: such a basis is refused whatever its key
        # matches
        found = (bases.view(np.uint64) < self.q).all(axis=(1, 2))
        found &= self.keys.take(at, mode="clip") == keys
        return np.where(found, at, -1)

    def __getitem__(self, rows) -> int:
        i = int(self.find(np.array([rows], dtype=np.int64))[0])
        if i < 0:
            raise KeyError(rows)
        return i


class AmbientSpace:
    """PG(n, q) or AG(n, q) with memoized canonical enumerations."""

    def __init__(self, n: int, q: int, mode: str = "affine"):
        if mode not in ("affine", "projective"):
            raise ValueError(f"unknown mode {mode!r}")
        if n < 1:
            raise DimensionOutOfRange("need n >= 1")
        self.n = n
        self.q = q
        self.mode = mode
        self.field = field_for_order(q)
        self._memo: dict = {}

    def memo(self, key, build):
        """build() stored under key: every derived table of this space is
        computed once, kept here, and freed with the instance."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    @property
    def closure(self) -> AmbientSpace:
        """PG(n, q), whose points and k-spaces open with this space's;
        a projective space is its own closure."""
        if self.mode == "projective":
            return self
        return ambient(self.n, self.q, "projective")

    def _num_spaces(self, k: int) -> int:
        if self.mode == "affine":
            return self.q ** (self.n - k) * gaussian_binomial(self.n, k, self.q)
        return gaussian_binomial(self.n + 1, k + 1, self.q)

    # -- points --------------------------------------------------------

    @property
    def num_points(self) -> int:
        return self._num_spaces(0)

    @property
    def points(self) -> list[tuple[int, ...]]:
        """Normalized coordinates, in index order."""
        return self.memo("points", lambda: normalized_points(
            self.n, self.q, 1 if self.mode == "affine" else self.n + 1))

    # -- k-spaces ------------------------------------------------------

    def space_index(self, k: int) -> Enumeration:
        """The canonically ordered k-spaces of this space, enumerated
        once, in the closure, and found by key; SizeGuard is raised first
        when the closure has more k-spaces, counted in closed form, than
        `entry_guard()`."""
        if k < 0 or k > self.n:
            raise DimensionOutOfRange(f"k={k} outside 0..{self.n}")

        def build():
            if self.mode == "affine":
                full, m = self.closure.space_index(k), self._num_spaces(k)
                return Enumeration(self.q, full.bases[:m], full.keys[:m])
            return Enumeration(self.q, _echelon_bases(self.n + 1, k + 1, self.q))
        return self.memo(("space_index", k), build)

    def bases(self, k: int) -> np.ndarray:
        """Read-only int64 (k-spaces x (k+1) x (n+1)) array of the
        echelon bases of the k-spaces, in canonical order."""
        return self.space_index(k).bases

    def spaces(self, k: int) -> list[Subspace]:
        """`bases(k)` as `Subspace` objects, built on the first call, for
        the callers that emit or take them; in AG the closure's own."""
        bases = self.bases(k)
        return self.memo(("spaces", k), lambda: (
            self.closure.spaces(k)[:len(bases)] if self.mode == "affine"
            else _subspaces(self.n, self.q, bases)))

    # -- point sets ------------------------------------------------------

    def point_sets(self, bases: np.ndarray) -> np.ndarray:
        """Sorted int64 (len(bases), s) array: for each basis of the int64
        array `bases` (m, r, n+1) of reduced echelon bases, such as
        `bases(k)`, the indices of the s points of its row space in this
        space: in PG every block of `_kernels.gf_point_blocks`, in AG
        block 0 alone (an affine subspace's q^(r-1) affine points; none
        for a subspace at infinity).  Raises AmbientMismatch when the
        subspaces have different numbers of points here, as a line at
        infinity and an affine line do in AG.  Points are built for at
        most POINT_BLOCK_ENTRIES (subspace, point) pairs at a time, so
        the peak stays near the result's size."""
        n, q, r = self.n, self.q, bases.shape[1]
        affine = bases[:, 0, 0] != 0
        if self.mode == "affine" and affine.any() and not affine.all():
            raise AmbientMismatch("unequal numbers of points in this space")
        blocks = 1 if self.mode == "affine" else r
        built = q**(r - 1) if blocks == 1 else gaussian_binomial(r, 1, q)
        # in AG block 0 of a subspace at infinity holds no point
        width = built if self.mode == "projective" or affine.all() else 0
        weights, shift = _index_form(n, q)
        step = max(1, POINT_BLOCK_ENTRIES // built)
        field = self.field
        out = np.empty((len(bases), width), dtype=np.int64)
        for start in range(0, len(bases), step):
            chunk = bases[start:start + step]
            shifts = shift[(chunk != 0).argmax(axis=2)]
            # block i is led left of block i + 1 and each block ascends,
            # so the indices come sorted
            out[start:start + step] = np.concatenate([
                pts @ weights + shifts[:, i, None]
                for i, pts in enumerate(_kernels.gf_point_blocks(
                    chunk, field.add_table, field.mul_table, blocks))],
                axis=1)[:, :width]
        return out

    def points_of(self, s: Subspace) -> list[tuple[int, ...]]:
        """The points of a subspace that belong to this space (all of
        them in projective mode, the x0 = 1 ones in affine mode)."""
        return [self.points[i] for i in self.point_indices_of(s)]

    def point_indices_of(self, s: Subspace) -> np.ndarray:
        return self.point_sets(np.array([s.rows], dtype=np.int64))[0]

    def space_point_indices(self, k: int) -> list[tuple[int, ...]]:
        """Per k-space sorted point-index tuples of Python ints, in
        enumeration order: `point_lists(k)` as tuples, built per call
        and not kept."""
        return [tuple(r) for r in self.point_lists(k).tolist()]

    # -- incidence -------------------------------------------------------

    def infinity_pencils(self, k: int):
        """Type II pencil structure for affine k-spaces.

        Returns (inf_bases, members, per_space): the bases of
        `infinite_index(k-1)`, the (k-1)-spaces at infinity in canonical
        order; the read-only (pencils x q^(n-k)) pencil table, row i the
        k-spaces through the i-th of them in index order (a type II
        spread), sorted by `_pencil_rows`; and the read-only per_space,
        per_space[j] = pencil id of k-space j, found by the key of its
        part at infinity in one `Enumeration.find`.
        """
        if self.mode != "affine":
            raise DimensionOutOfRange("pencil structure is an affine notion")

        def build():
            inf = self.infinite_index(k - 1)
            # rows below the first: the k-space's part at infinity
            per_space = inf.find(self.bases(k)[:, 1:])
            members = _kernels._pencil_rows(per_space[:, None], len(inf.keys))
            return inf.bases, _read_only(members), _read_only(per_space)
        return self.memo(("infinity_pencils", k), build)

    def shared_at_origin(self, k: int, a: Subspace) -> np.ndarray:
        """The one rule for incidences at infinity.  For every
        (k-1)-space t at infinity, in canonical order (that of the
        pencils of `infinity_pencils(k)`), the number of affine points
        that <P0, t> shares with <P0, a>, where a lies at infinity and
        P0 is the affine point 0, (1, 0, ..., 0).  The affine k-spaces
        K with K at infinity t pass through a iff the count is
        q^(dim a + 1); t lies in a iff it is q^k, and is skew to a iff
        it is 1.  (P0, *t.rows) is already in reduced echelon form, so
        no join is row reduced; the point lists of the <P0, t>, one
        k-space per pencil, are built once per k, and every call first
        checks their size, counted in closed form, against the guard."""
        if self.mode != "affine":
            raise DimensionOutOfRange("incidences at infinity are affine")

        def origin_lists(d):
            check_size("{} x {} point lists through point 0 exceed guard "
                       "{cap}", gaussian_binomial(self.n, d, self.q), self.q**d)

            def build():
                bases = np.pad(self.infinite_index(d - 1).bases,
                               ((0, 0), (1, 0), (0, 0)))
                bases[:, 0, 0] = 1  # P0 above each t
                return _read_only(self.point_sets(bases))
            return self.memo(("origin_lists", d), build)
        mask = np.zeros(self.num_points, dtype=bool)
        mask[origin_lists(a.dim + 1)[self.infinite_index(a.dim)[a.rows]]] = True
        return mask[origin_lists(k)].sum(axis=1)

    def point_lists(self, k: int) -> np.ndarray:
        """Read-only C-contiguous int64 (k-spaces x points per k-space)
        array of `point_sets(bases(k))`, the one stored copy of the
        k-spaces' points and so of the point versus k-space incidence;
        `point_pencils(k)` is sorted out of it.
        In AG it owns its memory, not a view of the closure-width rows.
        Every call first raises SizeGuard when its entries, counted in
        closed form, exceed `entry_guard()`, whatever is already
        cached."""
        spaces = self._num_spaces(k)
        size = (self.q ** k if self.mode == "affine"
                else gaussian_binomial(k + 1, 1, self.q))
        check_size("{} x {} point lists exceed guard {cap}", spaces, size)
        return self.memo(("point_lists", k), lambda: _read_only(
            self.point_sets(self.bases(k))))

    def point_pencils(self, k: int) -> np.ndarray:
        """Read-only int64 (points x [n k]_q) array: row p lists the
        k-spaces through point p in index order, sorted once out of
        `point_lists(k)`, under its size guard."""
        lists = self.point_lists(k)
        return self.memo(("point_pencils", k), lambda: _read_only(
            _kernels._pencil_rows(lists, self.num_points)))

    def infinite_index(self, d: int) -> Enumeration:
        """The d-spaces contained in the hyperplane at infinity, in
        canonical order, found by key: the d-spaces of PG(n-1, q) with a
        zero column prepended, enumerated on their own rather than cut
        from the closure's d-spaces, under the same guard as
        `space_index`."""
        return self.memo(("infinite_index", d), lambda: Enumeration(
            self.q, np.pad(_echelon_bases(self.n, d + 1, self.q),
                           ((0, 0), (0, 0), (1, 0)))))

    def infinite_subspaces(self, d: int) -> list[Subspace]:
        """The bases of `infinite_index(d)` as `Subspace` objects, built
        on the first call; none for d < 0."""
        if d < 0:
            return []
        return self.memo(("infinite_subspaces", d), lambda: _subspaces(
            self.n, self.q, self.infinite_index(d).bases))

    def __repr__(self):
        name = "AG" if self.mode == "affine" else "PG"
        return f"{name}({self.n},{self.q})"

    def __eq__(self, other):
        return (isinstance(other, AmbientSpace)
                and (self.n, self.q, self.mode) == (other.n, other.q, other.mode))

    def __hash__(self):
        return hash((self.n, self.q, self.mode))


_AMBIENT_CACHE: dict[tuple, AmbientSpace] = {}


def ambient(n: int, q: int, mode: str) -> AmbientSpace:
    key = (n, q, mode)
    if key not in _AMBIENT_CACHE:
        _AMBIENT_CACHE[key] = AmbientSpace(n, q, mode)
    return _AMBIENT_CACHE[key]


def _int(v) -> int:
    """v as an int; a bool, or a value that is not an integer, raises
    TypeError."""
    if isinstance(v, bool):
        raise TypeError("a bool where an int is meant")
    return operator.index(v)


def subspace_from_json(n: int, q: int, rows) -> Subspace:
    """Validate and load a subspace; input must already be in reduced
    echelon form so that files are canonical, with int entries: a bool
    or a float raises TypeError, as in `_int`."""
    sub = make_subspace(n, q, rows)
    if sub.rows != tuple(tuple(r) for r in rows):
        raise ValueError("subspace basis is not in reduced echelon form")
    for r in rows:  # False and 0.0 compare equal to 0
        list(map(_int, r))
    return sub
