"""Construction and verification of k-spreads and switching sets.

Spread types:

* type I    -- a projective spread obtained by field reduction (the
               Desarguesian one) on GF(q)'s tables, f the least monic
               irreducible of degree k + 1 over GF(q) (the one rule of
               `galois`), restrictable to the affine space;
* type II   -- all affine k-spaces through a fixed (k-1)-space at
               infinity (a parallel class);
* type III  -- mix over the q affine hyperplanes through a fixed
               (n-2)-space pi at infinity: in hyperplane i take the
               k-spaces through a chosen (k-1)-space tau_i inside pi,
               the tau_i not all equal;
* type III+ -- type III for lines with all chosen points distinct.

Every constructor validates its output exactly (pairwise disjointness
and point coverage); type III spreads all at once, per (space, k).  A
type III spread is read from the pencil structure
(`AmbientSpace.infinity_pencils`), never in the projective closure, by
`type_III_tables`: the hyperplanes through pi are pi's pencil of
hyperplanes, one scatter over their point lists labels every affine
point, for every pi, by the hyperplane through pi that holds it, the
tau inside pi are read at the affine point 0, and a member K has K at
infinity equal to tau_i, where i is the label of K's first point.  A
type III spread is so the union of q parts, each the k-spaces with one
part at infinity inside one hyperplane; the part table lists, for every
k-space, the hyperplanes of its parts, and one check of every part
(each covers its hyperplane's points exactly once) validates every type
III spread before the first is read.

Each spread family of a check has one source, and no `Spread` is built
for it.  The parallel classes of a (space, k) are the rows of the
pencil table `AmbientSpace.infinity_pencils(k)[1]`, and
`spread_type_II` builds one of them on request.  The type III spreads
are named by keys alone (`type_III_keys`): pi's index and each tau_i's
position among the tau inside pi, every spread in product order or a
seeded sample, out of the #pi (#tau)^q choices `type_III_choices`
counts in closed form; `clsets.type_III_counts` reads a k-set's count
on each from the part table, and `spread_type_III` builds one on
request.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import numpy as np

from ._kernels import _pencil_rows
from .galois import _irreducible, _times_x
from .geometry import (AmbientSpace, Subspace, _read_only, _subspaces,
                       ambient, check_size, gaussian_binomial, make_subspace,
                       normalized_points, span)

__all__ = [
    "Spread", "SwitchingPair", "SpreadError", "DivisibilityViolated",
    "NotAtInfinity", "WrongDimension", "BadChoices", "AllEqual",
    "GeometryMismatch", "BadSeed", "spread_type_I", "restrict_to_affine",
    "spread_type_II", "spread_type_III", "is_spread",
    "verify_switching_pair", "switching_pair_from_spreads",
    "type_III_choices", "type_III_keys", "type_III_tables",
    "extend_spread_from_subspace", "lift_spread_through_infinity",
]


class SpreadError(ValueError):
    pass


class DivisibilityViolated(SpreadError):
    pass


class NotAtInfinity(SpreadError):
    pass


class WrongDimension(SpreadError):
    pass


class BadChoices(SpreadError):
    pass


class AllEqual(SpreadError):
    pass


class GeometryMismatch(SpreadError):
    pass


class BadSeed(SpreadError):
    pass


@dataclass(frozen=True)
class Spread:
    space: AmbientSpace
    k: int
    members: tuple[Subspace, ...]
    type_tag: str = "untyped"
    data: dict = field(default_factory=dict, compare=False, hash=False)

    def __len__(self):
        return len(self.members)

    def member_indices(self) -> tuple[int, ...]:
        """The members' indices in `space.bases(k)`, ascending."""
        idx = self.space.space_index(self.k)
        return tuple(sorted(idx[m.rows] for m in self.members))

    def to_json(self) -> dict:
        return {
            "n": self.space.n, "q": self.space.q, "k": self.k,
            "mode": self.space.mode, "type": self.type_tag,
            "data": {key: val for key, val in self.data.items()},
            "members": [m.to_json() for m in self.members],
        }


@dataclass(frozen=True)
class SwitchingPair:
    space: AmbientSpace
    k: int
    r1: tuple[Subspace, ...]
    r2: tuple[Subspace, ...]


def _sorted_members(members) -> tuple[Subspace, ...]:
    return tuple(sorted(members, key=Subspace.key))


def _point_counts(space: AmbientSpace, members) -> np.ndarray:
    """For every point of the space, the number of members through it:
    a `bincount` of the equal-dimension members' point sets, computed
    by one `point_sets` call, not read from the space's point lists
    (a type III spread reads them, see `spread_type_III`): a spread of
    PG(3, 23) has 530 members, the space 293,090 lines.  The members
    must all have points in the space (none at infinity in AG)."""
    pts = space.point_sets(np.array([m.rows for m in members],
                                    dtype=np.int64)).ravel() if members else []
    return np.bincount(pts, minlength=space.num_points)


def _at_infinity(space: AmbientSpace, members) -> bool:
    """True iff some member of an affine space lies at infinity: it has
    no point there, so no point count would see it."""
    return space.mode == "affine" and not all(m.is_affine() for m in members)


def is_spread(members, space: AmbientSpace, k: int | None = None) -> tuple[bool, str]:
    """Exact verification, a disjointness-and-partition check over the
    space's points; returns (ok, reason)."""
    members = list(members)
    if not members:
        return False, "empty"
    dims = {m.dim for m in members}
    if len(dims) != 1:
        return False, "mixed dimensions"
    if k is not None and dims != {k}:
        return False, f"dimension is not {k}"
    if len(set(m.rows for m in members)) != len(members):
        return False, "repeated member"
    if _at_infinity(space, members):
        return False, "member at infinity"
    counts = _point_counts(space, members)
    if (counts > 1).any():
        return False, "members overlap"
    if (counts == 0).any():
        return False, "points left uncovered"
    return True, "ok"


def verify_switching_pair(pair: SwitchingPair) -> tuple[bool, str]:
    """The three conditions on conjugated switching sets: disjoint as
    k-space sets, each a partial spread, covering the same points."""
    space = pair.space
    if set(m.rows for m in pair.r1) & set(m.rows for m in pair.r2):
        return False, "the two sets share a k-space"
    if _at_infinity(space, (*pair.r1, *pair.r2)):
        return False, "member at infinity"
    c1, c2 = _point_counts(space, pair.r1), _point_counts(space, pair.r2)
    if (c1 > 1).any() or (c2 > 1).any():
        return False, "not a partial spread"
    if not np.array_equal(c1 > 0, c2 > 0):
        return False, "covered point sets differ"
    return True, "ok"


def switching_pair_from_spreads(s1: Spread, s2: Spread) -> SwitchingPair:
    if s1.space != s2.space or s1.k != s2.k:
        raise GeometryMismatch("spreads live in different geometries")
    m1 = {m.rows: m for m in s1.members}
    m2 = {m.rows: m for m in s2.members}
    r1 = _sorted_members(m for key, m in m1.items() if key not in m2)
    r2 = _sorted_members(m for key, m in m2.items() if key not in m1)
    return SwitchingPair(s1.space, s1.k, r1, r2)


# ---------------------------------------------------------------------------
# type I: field reduction
# ---------------------------------------------------------------------------

def spread_type_I(n: int, q: int, k: int) -> Spread:
    """Desarguesian projective k-spread of PG(n, q) by field reduction:
    with t = k + 1 and m = (n + 1)/t, GF(q^t) = GF(q)[x]/(f), and a
    point of PG(m - 1, q^t) is m blocks v_i in GF(q)^t, the first
    nonzero one (1, 0, ..., 0) (its codes, as base-q digits).  Its
    member is spanned by the rows (v_1 C^j | ... | v_m C^j), j < t,
    C the companion matrix of f.  The points of PG(n, q), which bound the members and f's trial
    divisors and which `is_spread` reads, pass `check_size` first."""
    if k < 1:
        raise WrongDimension(f"k={k}: field reduction needs k >= 1")
    if (n + 1) % (k + 1) != 0:
        raise DivisibilityViolated(f"(k+1)={k + 1} must divide (n+1)={n + 1}")
    t, m = k + 1, (n + 1) // (k + 1)
    space = ambient(n, q, "projective")
    check_size(f"{{}} points of PG({n},{q}) exceed guard {{cap}}",
               space.num_points)
    f = _irreducible(space.field, t)
    codes = np.array(normalized_points(m - 1, q**t, m))
    blocks = codes[:, :, None] // q ** np.arange(t) % q
    bases = []
    for _ in range(t):
        bases.append(blocks.reshape(len(codes), n + 1))
        blocks = _times_x(space.field, f, blocks)
    members = [make_subspace(n, q, basis)
               for basis in np.stack(bases, axis=1).tolist()]
    spread = Spread(space, k, _sorted_members(members), "I",
                    {"subfield": q, "extension": q**t})
    ok, reason = is_spread(spread.members, space, k)
    if not ok:
        raise AssertionError(f"field reduction failed: {reason}")
    return spread


def restrict_to_affine(s: Spread) -> Spread:
    """Drop the members inside the hyperplane at infinity."""
    if s.space.mode != "projective":
        raise GeometryMismatch("restriction needs a projective spread")
    aff_space = ambient(s.space.n, s.space.q, "affine")
    members = _sorted_members(m for m in s.members if m.is_affine())
    spread = Spread(aff_space, s.k, members, s.type_tag, dict(s.data))
    ok, reason = is_spread(spread.members, aff_space, s.k)
    if not ok:
        raise AssertionError(f"restriction failed: {reason}")
    return spread


# ---------------------------------------------------------------------------
# type II: parallel classes
# ---------------------------------------------------------------------------

def spread_type_II(space: AmbientSpace, at_infinity: Subspace) -> Spread:
    if space.mode != "affine":
        raise GeometryMismatch("type II spreads live in the affine space")
    if at_infinity.is_affine():
        raise NotAtInfinity("the axis of a type II spread lies at infinity")
    k = at_infinity.dim + 1
    _, pencil_members, _ = space.infinity_pencils(k)
    i = space.infinite_index(k - 1).find(np.array([at_infinity.rows]))[0]
    if i < 0:
        raise WrongDimension("axis must be a (k-1)-space at infinity")
    # pencil indices are ascending, which is the canonical (Subspace.key) order
    return Spread(space, k, tuple(_subspaces(space.n, space.q, space.bases(k)[
        pencil_members[i]])), "II", {"at_infinity": at_infinity.to_json()})


# ---------------------------------------------------------------------------
# type III
# ---------------------------------------------------------------------------

def type_III_tables(space: AmbientSpace, k: int):
    """(hyps, at, taus, parts), the tables every type III k-spread is
    read from, for the (n-2)-spaces pi at infinity in canonical order:
    hyps[p] the indices of the q affine hyperplanes through the p-th pi
    (its pencil in `infinity_pencils(n-1)`, ascending, so in canonical
    order); at[p, P] the one of them holding the affine point P, from one
    scatter over their point lists; taus[p] the indices of the
    (k-1)-spaces t at infinity inside pi, ascending: the rule of
    `AmbientSpace.shared_at_origin` read off `at`, t lies in pi iff the
    k-space through the affine point 0 with part at infinity t lies in
    <P0, pi>, the hyperplane at[p, 0].

    parts is the part table.  A part (H, t) is the set of k-spaces with
    part at infinity t inside the affine hyperplane H, for t inside H's
    pi; S(pi; tau_1..tau_q) is the union of its parts (hyps[p][i],
    tau_i).  parts[j, c] is the hyperplane holding k-space j through the
    c-th pi, ascending, that contains j's part at infinity.  The tables
    are built once per (space, k) and kept in the space's memo, after
    `_parts_are_spreads` has checked every part: so every type III
    spread read from them is a spread."""
    def build():
        _, pencils, pi_of = space.infinity_pencils(space.n - 1)
        lists, dirs = space.point_lists(k), space.infinity_pencils(k)[2]
        origin = np.flatnonzero(lists[:, 0] == 0)  # one k-space per t
        check_size("{} x {} x {} pencil labels exceed guard {cap}",
                   len(pencils), len(origin), space.q ** k)
        at = np.zeros((len(pencils), space.num_points), dtype=np.int64)
        at[pi_of[:, None], space.point_lists(space.n - 1)] = \
            np.arange(len(pi_of))[:, None]
        inside = (at[:, lists[origin]] == at[:, :1, None]).all(axis=2)
        taus = np.sort(dirs[origin][np.nonzero(inside)[1]].reshape(
            len(pencils), -1))
        parts = at[_pencil_rows(taus, len(origin))[dirs], lists[:, :1]]
        tables = (np.array(pencils), at, taus, parts)
        if not _parts_are_spreads(space, k, *tables):
            raise AssertionError("a type III part does not cover its "
                                 "hyperplane once")
        return tuple(map(_read_only, tables))
    return space.memo(("type_III_tables", k), build)


def _parts_are_spreads(space: AmbientSpace, k: int, hyps, at, taus,
                       parts) -> bool:
    """True iff the members of every part (H, t) of the part table
    `parts` cover H's q^(n-1) points exactly once, and so every type III
    spread, the union of q parts in the q hyperplanes through its pi, is
    a spread.  That holds iff the hyperplanes through each pi cover every
    point once, so do the k-spaces with each part at infinity, and
    parts[j, c] is the hyperplane through the c-th pi containing j's
    part at infinity (by `taus`) that holds all of j's points (by
    `at`)."""
    lists, dirs = space.point_lists(k), space.infinity_pencils(k)[2]
    t, v = gaussian_binomial(space.n, k, space.q), space.num_points
    pis = _pencil_rows(taus, t)[dirs]

    def once(labels, pts, classes):
        return (np.bincount((labels[:, None] * v + pts).ravel(),
                            minlength=classes * v) == 1).all()
    return (once(space.infinity_pencils(space.n - 1)[2],
                 space.point_lists(space.n - 1), len(hyps))
            and once(dirs, lists, t)
            and all((at[pis[:, [c]], lists] == parts[:, [c]]).all()
                    for c in range(parts.shape[1])))


def spread_type_III(space: AmbientSpace, pi: Subspace, choices) -> Spread:
    """Members: the k-spaces K with tau_i <= K <= pi_i, where pi_1..pi_q
    are the affine hyperplanes through pi in canonical order and tau_i
    is the i-th chosen (k-1)-space inside pi.  Such a K has K at
    infinity equal to tau_i, and lies in the one hyperplane through pi
    that holds its first point: so K is a member iff its pencil id is
    that of tau_(label of its first point)."""
    if space.mode != "affine":
        raise GeometryMismatch("type III spreads live in the affine space")
    if pi.is_affine() or pi.dim != space.n - 2:
        raise NotAtInfinity("pi must be an (n-2)-space at infinity")
    choices = list(choices)
    if len(choices) != space.q:  # the hyperplanes through pi
        raise BadChoices(f"need {space.q} choices, got {len(choices)}")
    dims = {t.dim for t in choices}
    if len(dims) != 1:
        raise BadChoices("choices of mixed dimension")
    k = dims.pop() + 1
    p = space.infinite_index(space.n - 2)[pi.rows]
    tau_index = space.infinite_index(k - 1)
    ids = tau_index.find(np.array([t.rows for t in choices])).tolist()
    # for k >= n a tau_i is at least an (n-1)-space, which pi cannot hold
    if k >= space.n or not set(ids) <= set(type_III_tables(space, k)[2][p]):
        raise BadChoices("every tau_i must lie inside pi")
    distinct = len(set(ids))
    if distinct == 1:
        raise AllEqual("all tau_i equal degenerates to a type II spread")
    hyps, at = type_III_tables(space, k)[:2]
    # ascending indices are the canonical (Subspace.key) order
    idx = np.flatnonzero(space.infinity_pencils(k)[2] == np.array(ids)[
        np.searchsorted(hyps[p], at[p, space.point_lists(k)[:, 0]])])
    tag = "III+" if k == 1 and distinct == len(ids) else "III"
    # pi and the choices were found by their rows: they are canonical
    return Spread(space, k, tuple(_subspaces(space.n, space.q,
                                             space.bases(k)[idx])), tag, {
        "pi": pi.to_json(),
        "hyperplanes": space.bases(space.n - 1)[hyps[p]].tolist(),
        "choices": [t.to_json() for t in choices],
    })


def type_III_choices(space: AmbientSpace, k: int) -> tuple[int, int]:
    """(#pi, #tau) in closed form: the (n-2)-spaces pi at infinity, and
    the (k-1)-spaces at infinity inside each.  A type III k-spread picks
    one pi and q taus, so #pi (#tau)^q counts its choices, the q taus
    all equal included."""
    return (gaussian_binomial(space.n, space.n - 1, space.q),
            gaussian_binomial(space.n - 1, k, space.q))


def type_III_keys(space: AmbientSpace, k: int, count: int | None = None,
                  seed: int | None = None) -> np.ndarray:
    """The type III k-spreads S(pi; tau_1..tau_q) of a check, as a
    read-only int64 array with one row (p, c_1, ..., c_q) per spread: p
    the index of pi in `infinite_index(n-2)`, c_i the position of
    tau_i among the (k-1)-spaces at infinity inside pi in canonical
    order, tau_i chosen in the i-th affine hyperplane through pi; rows
    with all c_i equal are left out.  With no count: every spread, pi in
    order and the choices in product order.  Else the seeded sample,
    which draws p and then c_1..c_q with `random.Random(seed).choice`,
    discards repeats, and stops at `count` spreads, after 50 * count
    draws, or once every spread has been drawn.  No table of the space
    is read.  Built once per (space, k, count, seed) and kept in the
    space's memo.  `seed` must be an int when count is given, so that no
    unseeded sample is ever kept and handed out again as if it were
    random.  With no count, every call first raises SizeGuard when the
    #pi (#tau)^q choices, counted in closed form, exceed the guard."""
    if count is not None and not isinstance(seed, int):
        raise BadSeed(f"seed must be an int, got {seed!r}")
    q = space.q
    pis, taus = type_III_choices(space, k)
    if count is None:
        check_size("{} x {} type III key choices exceed guard {cap}", pis,
                   taus ** q)

    def build():
        if count is None:
            keys = [(p, *c) for p in range(pis)
                    for c in itertools.product(range(taus), repeat=q)
                    if len(set(c)) > 1]
        else:
            rng, keys, attempts = random.Random(seed), {}, 0
            # stop too once every type III spread has been drawn
            while (len(keys) < count and attempts < 50 * count
                   and len(keys) < pis * (taus ** q - taus)):
                attempts += 1
                key = (rng.choice(range(pis)),
                       *(rng.choice(range(taus)) for _ in range(q)))
                if len(set(key[1:])) > 1:
                    keys[key] = None  # a dict: repeats are dropped
        return _read_only(np.array(list(keys), dtype=np.int64).reshape(
            -1, q + 1))
    return space.memo(("type_III_keys", k, count, seed), build)


# ---------------------------------------------------------------------------
# spread extension
# ---------------------------------------------------------------------------

def extend_spread_from_subspace(sub_members, tau_a: Subspace,
                                axis: Subspace, space: AmbientSpace) -> Spread:
    """Extend a k-spread of an affine subspace tau_a to one of the whole
    space by adding all k-spaces through `axis` (a (k-1)-space at
    infinity inside the closure of tau_a) that are not inside tau_a.
    The added part depends on `axis` only, never on the sub-spread."""
    sub_members = list(sub_members)
    k = sub_members[0].dim
    if axis.is_affine() or axis.dim != k - 1:
        raise GeometryMismatch("axis must be a (k-1)-space at infinity")
    if span(tau_a, axis) != tau_a:
        raise GeometryMismatch("axis must lie in the subspace at infinity")
    # the k-spaces through axis are its pencil; drop those inside tau_a
    _, pencils, _ = space.infinity_pencils(k)
    pencil = pencils[space.infinite_index(k - 1)[axis.rows]]
    inside = np.isin(space.point_lists(k)[pencil],
                     space.point_indices_of(tau_a)).all(axis=1)
    extra = _subspaces(space.n, space.q, space.bases(k)[pencil[~inside]])
    members = _sorted_members(sub_members + extra)
    spread = Spread(space, k, members, "untyped",
                    {"extended_from": tau_a.to_json(), "axis": axis.to_json()})
    ok, reason = is_spread(spread.members, space, k)
    if not ok:
        raise GeometryMismatch(f"extension is not a spread: {reason}")
    return spread


def lift_spread_through_infinity(local_members, axis: Subspace,
                                 space: AmbientSpace) -> Spread:
    """Lift a (k-i-1)-spread of a complementary (n-i-1)-space through an
    i-space `axis` at infinity: members become the spans <axis, N>."""
    if axis.is_affine():
        raise GeometryMismatch("axis must lie at infinity")
    members = [span(axis, n) for n in local_members]
    k = members[0].dim
    spread = Spread(space, k, _sorted_members(members), "untyped",
                    {"lifted_through": axis.to_json()})
    ok, reason = is_spread(spread.members, space, k)
    if not ok:
        raise GeometryMismatch(f"lift is not a spread: {reason}")
    return spread
