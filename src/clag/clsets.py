"""Cameron-Liebler k-sets: the definitional row-space test, the
equivalent characterizations, closure operations, affine/projective
transfer, and projection through subspaces at infinity.

The definitional test (characteristic vector in the row space of the
point versus k-space incidence matrix) is the single source of truth;
the spread, switching-set and disjointness-count checks are validators.
The count-based equivalences carry the hypothesis n >= 2k+1 and report
a dedicated not-applicable status below it.

Both disjointness criteria, affine and projective, read their counts
from `disjoint_counts`: the members each k-space meets, counted over
the point lists in bounded blocks (`incidence.meet_counts`), so two
k-spaces are disjoint iff they share no point of the space, affine
points in AG and all points in PG.

Every other incidence question is read off point lists, never by row
reduction and never from a dense matrix: a point pencil is the
k-spaces whose list (`AmbientSpace.point_lists`) holds its point, read
as one row of `AmbientSpace.point_pencils`; a hyperplane set is the
k-spaces whose list lies in the hyperplane's points.
A question about a subspace at infinity (the k-spaces through an axis,
the canonical skew complement, whether pi is skew to the axis) is read
at the affine point 0 through the pencils, by
`AmbientSpace.shared_at_origin`, never in the projective closure.
Projection works per (k, axis, pi), not per k-set: one memoised image
map sends every k-space through the axis to the index of its cut with
pi, found by looking up the cut's point set among the rows of the
target's point lists, and a k-set's image is that map read at its
members.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .geometry import (AmbientSpace, Subspace, _int, _read_only, ambient,
                       gaussian_binomial, subspace_from_json,
                       DimensionOutOfRange)
from .incidence import build_incidence, meet_counts
from .spreads import SwitchingPair

__all__ = [
    "KSet", "CheckResult", "NotDisjoint", "NotContained", "NotLines",
    "WrongCodimension", "NotSkew", "DimensionViolation",
    "kset_from_indices", "kset_from_subspaces", "empty_kset", "full_kset",
    "point_pencil", "pg_hyperplane_set", "complement", "union", "difference",
    "is_cameron_liebler", "are_cameron_liebler", "check_spread_intersections",
    "check_switching_invariance", "disjoint_counts",
    "infinite_pencil_counts", "check_line_disjointness",
    "check_pg_disjointness", "embed_to_pg", "restrict_from_pg",
    "count_through_infinite_subspace", "project_through_infinite_subspace",
    "canonical_complement", "modular_check", "kset_to_json", "kset_from_json",
]

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not_applicable"


class NotDisjoint(ValueError):
    pass


class NotContained(ValueError):
    pass


class NotLines(ValueError):
    pass


class WrongCodimension(ValueError):
    pass


class NotSkew(ValueError):
    pass


class DimensionViolation(ValueError):
    pass


@dataclass
class CheckResult:
    name: str
    status: str
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == PASS


@dataclass(frozen=True)
class KSet:
    """A set of k-spaces with its characteristic vector and parameter."""

    space: AmbientSpace
    k: int
    members: frozenset

    @property
    def size(self) -> int:
        return len(self.members)

    @cached_property
    def x(self) -> Fraction:
        """Parameter |L| / [n choose k]_q, computed on the first read."""
        return Fraction(self.size,
                        gaussian_binomial(self.space.n, self.k, self.space.q))

    def chi(self) -> np.ndarray:
        vec = np.zeros(len(self.space.spaces(self.k)), dtype=np.int8)
        if self.members:
            vec[sorted(self.members)] = 1
        return vec

    def subspaces(self) -> list[Subspace]:
        spaces = self.space.spaces(self.k)
        return [spaces[j] for j in sorted(self.members)]


def kset_from_indices(space: AmbientSpace, k: int, indices) -> KSet:
    total = len(space.spaces(k))
    idx = frozenset(map(_int, indices))
    if idx and (min(idx) < 0 or max(idx) >= total):
        raise IndexError("member index out of range")
    return KSet(space, k, idx)


def kset_from_subspaces(space: AmbientSpace, k: int, subs) -> KSet:
    index = space.space_index(k)
    return KSet(space, k, frozenset(index[s.rows] for s in subs))


def empty_kset(space: AmbientSpace, k: int) -> KSet:
    return KSet(space, k, frozenset())


def full_kset(space: AmbientSpace, k: int) -> KSet:
    return KSet(space, k, frozenset(range(len(space.spaces(k)))))


def point_pencil(space: AmbientSpace, point, k: int) -> KSet:
    """All k-spaces of the space through a fixed point (x = 1), given by
    n + 1 ints in 0..q-1; else DimensionOutOfRange."""
    if isinstance(point, Subspace):
        point = point.rows[0]
    try:
        coords = tuple(map(_int, point))
    except TypeError:
        coords = ()
    if (len(coords) != space.n + 1
            or not all(0 <= v < space.q for v in coords)):
        raise DimensionOutOfRange(f"{point}: not {space.n + 1} field codes "
                                  f"0..{space.q - 1}")
    lead = next((v for v in coords if v), 1)
    f = space.field
    # normalized (first nonzero coordinate 1); no index at infinity in AG
    pidx = space.point_indices_of(Subspace(space.n, space.q, (tuple(
        f.mul_table[f.inv_table[lead], list(coords)].tolist()),)))
    if not any(coords) or len(pidx) != 1:
        raise DimensionOutOfRange(f"{point} is not a point of {space}")
    return KSet(space, k, frozenset(space.point_pencils(k)[pidx[0]].tolist()))


def pg_hyperplane_set(space: AmbientSpace, hyperplane: Subspace, k: int) -> KSet:
    """All k-spaces inside a fixed hyperplane of PG(n, q); the parameter
    (q^(n-k)-1)/(q^(k+1)-1) is an integer iff (k+1) | (n+1)."""
    if space.mode != "projective":
        raise DimensionOutOfRange("hyperplane sets live in the projective space")
    if hyperplane.dim != space.n - 1:
        raise DimensionOutOfRange("not a hyperplane")
    members = np.flatnonzero(np.isin(
        space.point_lists(k), space.point_indices_of(hyperplane)).all(axis=1))
    return KSet(space, k, frozenset(members.tolist()))


# ---------------------------------------------------------------------------
# closure operations
# ---------------------------------------------------------------------------

def complement(l: KSet) -> KSet:
    total = len(l.space.spaces(l.k))
    return KSet(l.space, l.k, frozenset(range(total)) - l.members)


def union(a: KSet, b: KSet) -> KSet:
    if (a.space, a.k) != (b.space, b.k):
        raise DimensionOutOfRange("mismatched ambient spaces")
    if a.members & b.members:
        raise NotDisjoint("union requires disjoint k-sets")
    return KSet(a.space, a.k, a.members | b.members)


def difference(a: KSet, b: KSet) -> KSet:
    if (a.space, a.k) != (b.space, b.k):
        raise DimensionOutOfRange("mismatched ambient spaces")
    if not b.members <= a.members:
        raise NotContained("difference requires containment")
    return KSet(a.space, a.k, a.members - b.members)


# ---------------------------------------------------------------------------
# the definitional test
# ---------------------------------------------------------------------------

def is_cameron_liebler(l: KSet) -> tuple[bool, list[Fraction] | None]:
    """Definitional test: chi in the row space of the incidence matrix.

    In affine mode a non-integral parameter is rejected before any
    linear algebra (type II spreads force integrality there); projective
    Cameron-Liebler sets can have non-integral parameters.
    """
    if l.space.mode == "affine" and l.x.denominator != 1:
        return False, None
    return build_incidence(l.space, l.k).row_space_membership(l.chi())


def are_cameron_liebler(space: AmbientSpace, k: int, ksets) -> list[bool]:
    """`is_cameron_liebler` of each k-set of `space`, without the
    certificates, from one membership call on their stacked
    characteristic vectors; an empty list builds nothing."""
    if not ksets:
        return []
    member = build_incidence(space, k).rows_in_row_space(
        np.array([l.chi() for l in ksets]))
    return [bool(ok) and (space.mode != "affine" or l.x.denominator == 1)
            for ok, l in zip(member, ksets)]


# ---------------------------------------------------------------------------
# equivalent characterizations (validators)
# ---------------------------------------------------------------------------

def _equivalence_applicable(l: KSet) -> bool:
    return l.space.n >= 2 * l.k + 1


def check_spread_intersections(l: KSet, spreads) -> CheckResult:
    """|L meet S| for every given spread; passes iff all equal x."""
    if not _equivalence_applicable(l):
        return CheckResult("spread_intersections", NOT_APPLICABLE,
                           {"reason": "requires n >= 2k+1"})
    idx = [s.member_indices() for s in spreads]
    # one gather of every member, summed per spread as prefix differences
    hits = l.chi()[np.fromiter(itertools.chain.from_iterable(idx),
                               dtype=np.int64)]
    prefix = np.concatenate(([0], np.cumsum(hits, dtype=np.int64)))
    ends = np.cumsum([0] + [len(i) for i in idx])
    counts = (prefix[ends[1:]] - prefix[ends[:-1]]).tolist()
    ok = l.x.denominator == 1 and all(c == l.x for c in counts)
    return CheckResult("spread_intersections", PASS if ok else FAIL,
                       {"counts": counts, "x": str(l.x)})


def check_switching_invariance(l: KSet, pair: SwitchingPair) -> CheckResult:
    if not _equivalence_applicable(l):
        return CheckResult("switching_invariance", NOT_APPLICABLE,
                           {"reason": "requires n >= 2k+1"})
    idx = l.space.space_index(l.k)
    c1 = sum(1 for m in pair.r1 if idx[m.rows] in l.members)
    c2 = sum(1 for m in pair.r2 if idx[m.rows] in l.members)
    return CheckResult("switching_invariance", PASS if c1 == c2 else FAIL,
                       {"r1": c1, "r2": c2})


def disjoint_counts(l: KSet) -> np.ndarray:
    """For every k-space in canonical order, the number of members
    sharing no point of the space with it (affine points in AG, all
    points in PG)."""
    members = sorted(l.members)
    return len(members) - meet_counts(l.space, l.k, members)


def infinite_pencil_counts(l: KSet) -> list[int]:
    """Members through each (k-1)-space at infinity, canonical order."""
    _, pencil_members, _ = l.space.infinity_pencils(l.k)
    chi = l.chi()
    return [int(chi[m].sum()) for m in pencil_members]


def _disjointness_mismatches(l: KSet, factor: int):
    """(j, got, expected) for the first five k-spaces j, in index order,
    whose number `got` of disjoint members is not the criterion's
    expected = (x - chi(j)) factor."""
    x = l.x
    got = disjoint_counts(l)
    num = (x.numerator - x.denominator * l.chi().astype(np.int64)) * factor
    bad = np.flatnonzero(got * x.denominator != num)[:5].tolist()
    return [(j, int(got[j]), Fraction(int(num[j]), x.denominator))
            for j in bad]


def check_line_disjointness(l: KSet) -> CheckResult:
    """The line-class criterion: for every affine line, the number of
    members affinely disjoint to it is (q^2 [n-2 choose 1]_q + 1)(x -
    chi(line)), and every infinite point lies on exactly x members."""
    if l.k != 1:
        raise NotLines("line-class check")
    if not _equivalence_applicable(l):
        return CheckResult("line_disjointness", NOT_APPLICABLE,
                           {"reason": "requires n >= 3"})
    space = l.space
    n, q = space.n, space.q
    if l.x.denominator != 1:
        return CheckResult("line_disjointness", FAIL,
                           {"reason": "non-integral parameter"})
    x = int(l.x)
    base = q * q * gaussian_binomial(n - 2, 1, q) + 1
    lines = space.spaces(1)
    bad = [{"line": lines[j].to_json(), "got": got, "expected": int(expected)}
           for j, got, expected in _disjointness_mismatches(l, base)]
    pencil_counts = infinite_pencil_counts(l)
    pencil_ok = all(c == x for c in pencil_counts)
    status = PASS if not bad and pencil_ok else FAIL
    return CheckResult("line_disjointness", status,
                       {"mismatches": bad, "pencil_counts_ok": pencil_ok})


def check_pg_disjointness(l: KSet) -> CheckResult:
    """Projective criterion: member count disjoint from K equals
    (x - chi(K)) [n-k-1 choose k]_q q^(k^2+k) for every k-space K."""
    if not _equivalence_applicable(l):
        return CheckResult("pg_disjointness", NOT_APPLICABLE,
                           {"reason": "requires n >= 2k+1"})
    space = l.space
    if space.mode != "projective":
        raise DimensionOutOfRange("projective count on a projective set")
    n, k, q = space.n, l.k, space.q
    factor = gaussian_binomial(n - k - 1, k, q) * q ** (k * k + k)
    kspaces = space.spaces(k)
    bad = [{"k_space": kspaces[j].to_json(), "got": got,
            "expected": str(expected)}
           for j, got, expected in _disjointness_mismatches(l, factor)]
    return CheckResult("pg_disjointness", PASS if not bad else FAIL,
                       {"mismatches": bad})


# ---------------------------------------------------------------------------
# affine <-> projective transfer
# ---------------------------------------------------------------------------

def embed_to_pg(l: KSet) -> KSet:
    """The same k-spaces viewed in the projective closure (parameter is
    unchanged; the projective chi is the affine chi padded with zeros)."""
    if l.space.mode != "affine":
        raise DimensionOutOfRange("embedding starts from an affine set")
    # affine k-spaces form a prefix of the projective enumeration
    return KSet(l.space.closure, l.k, l.members)


def restrict_from_pg(l: KSet) -> tuple[KSet, int]:
    """Restriction to the affine space; also returns how many members at
    infinity were dropped (the parameter changes iff nonzero)."""
    if l.space.mode != "projective":
        raise DimensionOutOfRange("restriction starts from a projective set")
    aff = ambient(l.space.n, l.space.q, "affine")
    n_affine = len(aff.spaces(l.k))
    kept = frozenset(j for j in l.members if j < n_affine)
    return KSet(aff, l.k, kept), l.size - len(kept)


# ---------------------------------------------------------------------------
# counting and projecting through subspaces at infinity
# ---------------------------------------------------------------------------

def count_through_infinite_subspace(l: KSet, axis: Subspace | None) -> int:
    """Members through a fixed i-space at infinity (axis None means
    i = -1, counting everything); an axis needs an affine set."""
    if axis is None:
        return l.size
    if axis.is_affine():
        raise NotSkew("axis must lie at infinity")
    if not -1 <= axis.dim <= l.k - 2:
        raise DimensionViolation("need -1 <= i <= k-2")
    space = l.space
    if space.mode != "affine":
        raise DimensionViolation("counting through an axis needs an affine set")
    # per pencil: do its k-spaces pass through the axis
    through = space.shared_at_origin(l.k, axis) == space.q ** (axis.dim + 1)
    return int(through[space.infinity_pencils(l.k)[2][list(l.members)]].sum())


def canonical_complement(space: AmbientSpace, axis: Subspace) -> Subspace:
    """First canonically enumerated affine (n-i-1)-space skew to axis,
    found once per (space, axis).  Affine subspaces are ordered on their
    rows, and each pencil's least member is the one through the affine
    point 0, whose first row (1, 0, ..., 0) is the least: so it is
    <P0, t> for the least rows t at infinity skew to the axis."""
    def build():
        dim = space.n - axis.dim - 1
        t = min(t.rows for t, c in zip(space.infinite_subspaces(dim - 1),
                                       space.shared_at_origin(dim, axis))
                if c == 1)
        return Subspace(space.n, space.q, ((1,) + (0,) * space.n, *t))
    return space.memo(("canonical_complement", axis.rows), build)


def _projection_map(space: AmbientSpace, k: int, axis: Subspace,
                    pi: Subspace) -> np.ndarray:
    """Read-only int64 array over the k-spaces of the affine space, in
    canonical order: for each one through the axis, the index of its cut
    with pi among the (k-i-1)-spaces of pi viewed as AG(n-i-1, q), and
    -1 for every other k-space.  Built once per (k, axis, pi)."""
    def build():
        at_inf = space.infinite_index(pi.dim - 1)[pi.rows[1:]]
        if space.shared_at_origin(pi.dim, axis)[at_inf] != 1:
            raise NotSkew("pi must be skew to the axis")
        d = k - axis.dim - 1
        target = ambient(pi.dim, space.q, "affine")
        # pi's affine point b_0 + c_1 b_1 + ... reads (1, c_1, ...) at
        # pi's pivots, its target coordinates; both numberings ascend
        # with c, so the i-th is point i
        local = np.full(space.num_points, -1, dtype=np.int64)
        local[space.point_indices_of(pi)] = np.arange(target.num_points)
        pencils = space.shared_at_origin(k, axis) == space.q ** (axis.dim + 1)
        through = np.flatnonzero(pencils[space.infinity_pencils(k)[2]])
        # each cut with pi, through its affine points, sorted: the -1
        # entries of the points outside pi come first
        cuts = np.sort(local[space.point_lists(k)[through]], axis=1)
        size = space.q ** d
        if ((cuts >= 0).sum(axis=1) != size).any():
            raise DimensionViolation("projection lost dimension")
        by_points = {tuple(pts): j
                     for j, pts in enumerate(target.point_lists(d).tolist())}
        image = np.full(len(space.spaces(k)), -1, dtype=np.int64)
        image[through] = [by_points[tuple(c)]
                          for c in cuts[:, cuts.shape[1] - size:].tolist()]
        return _read_only(image)
    return space.memo(("projection_map", k, axis.rows, pi.rows), build)


def project_through_infinite_subspace(l: KSet, axis: Subspace,
                                      pi: Subspace | None = None) -> KSet:
    """Project the members through an i-space at infinity onto a skew
    (n-i-1)-space pi, yielding a (k-i-1)-set of pi viewed as an affine
    geometry.  When the input has the Cameron-Liebler property and
    n >= 2k-i, the image does too, with the same parameter.  The image
    is read off the projection map of (k, axis, pi), the same one for
    every k-set."""
    space = l.space
    i = axis.dim
    if space.mode != "affine":
        raise DimensionViolation("projection starts from an affine set")
    if axis.is_affine():
        raise NotSkew("axis must lie at infinity")
    if not (0 <= i <= l.k - 2) or space.n < l.k + 2:
        raise DimensionViolation("need 0 <= i <= k-2 and n >= k+2")
    if pi is None:
        pi = canonical_complement(space, axis)
    if pi.dim != space.n - i - 1:
        raise DimensionViolation("pi must have dimension n-i-1")
    if not pi.is_affine():
        raise NotSkew("pi must carry an affine part")
    image = _projection_map(space, l.k, axis, pi)[list(l.members)]
    return KSet(ambient(pi.dim, space.q, "affine"), l.k - i - 1,
                frozenset(image[image >= 0].tolist()))


def modular_check(l: KSet) -> bool:
    """For (n-2)-sets: x(x-1)/2 must vanish mod q+1."""
    if l.k != l.space.n - 2:
        raise WrongCodimension("check applies to (n-2)-sets")
    if l.x.denominator != 1:
        return False
    x = int(l.x)
    return (x * (x - 1) // 2) % (l.space.q + 1) == 0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def kset_to_json(l: KSet) -> dict:
    return {
        "n": l.space.n, "q": l.space.q, "k": l.k, "mode": l.space.mode,
        "members": [s.to_json() for s in l.subspaces()],
    }


def kset_from_json(doc: dict) -> KSet:
    """n, q, k and every member coordinate must be ints, not bools or
    floats (TypeError otherwise).  One type check over the file's
    flattened coordinates decides the route: when every one is an int,
    each member is first looked up among the space's canonical k-spaces,
    keyed by its raw coordinate tuples, and only one not found there is
    validated row by row; otherwise (a bool or a float compares equal
    to an int, and so would be found) every member is.  Either way every
    malformed member is refused by `subspace_from_json`."""
    space = ambient(_int(doc["n"]), _int(doc["q"]), doc["mode"])
    k = _int(doc["k"])
    index = space.space_index(k)
    members = doc["members"]
    try:
        coords = itertools.chain.from_iterable(
            itertools.chain.from_iterable(members))
        ints = set(map(type, coords)) <= {int}
    except TypeError:  # a member or a row that is no sequence
        ints = False
    found, subs = [], []
    for rows in members:
        if ints:
            try:
                found.append(index[tuple(map(tuple, rows))])
                continue
            except KeyError:
                pass
        subs.append(subspace_from_json(space.n, space.q, rows))
    for s in subs:
        if s.dim != k:
            raise DimensionViolation("member of wrong dimension")
    members = frozenset(found + [index[s.rows] for s in subs])
    if len(members) != len(found) + len(subs):
        raise ValueError("a member is listed twice")
    return KSet(space, k, members)
