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
and point coverage).  A type III spread is read from the pencil
structure (`AmbientSpace.infinity_pencils`), never in the projective
closure: the hyperplanes through pi are pi's pencil of hyperplanes, one
scatter over their point lists labels every affine point by the
hyperplane through pi that holds it, the tau inside pi are read at the
affine point 0 (`AmbientSpace.shared_at_origin`), and a member K has K
at infinity equal to tau_i, where i is the label of K's first point.
Its members are gathered as indices into the space's k-spaces and
validated by one count over the rows of those point lists.  The
exhaustive list and the seeded sample read each pi's labels once, for
all of its spreads.

A `Spread` keeps its sorted member indices; the type II and type III
constructors hand them over.  The parallel classes of a (space, k) and
the seeded sample of type III spreads of a (space, k, count, seed) are
built once and kept in the space's memo; every call returns a new list
of the same frozen `Spread` objects.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import numpy as np

from .galois import _irreducible, _times_x
from .geometry import (AmbientSpace, Subspace, ambient, check_size,
                       gaussian_binomial, make_subspace, normalized_points,
                       span)

__all__ = [
    "Spread", "SwitchingPair", "SpreadError", "DivisibilityViolated",
    "NotAtInfinity", "WrongDimension", "BadChoices", "AllEqual",
    "GeometryMismatch", "BadSeed", "spread_type_I", "restrict_to_affine",
    "spread_type_II", "spread_type_III", "is_spread",
    "verify_switching_pair", "switching_pair_from_spreads",
    "all_type_II_spreads", "all_type_III_spreads", "sample_type_III_spreads",
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
    # the sorted member indices: given by the type II and III
    # constructors, else looked up on the first `member_indices` call
    indices: tuple[int, ...] | None = field(default=None, compare=False,
                                            repr=False)

    def __len__(self):
        return len(self.members)

    def member_indices(self) -> tuple[int, ...]:
        if self.indices is None:
            idx = self.space.space_index(self.k)
            object.__setattr__(self, "indices", tuple(sorted(
                idx[m.rows] for m in self.members)))
        return self.indices

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


def _spread_reason(repeated: bool, counts) -> str:
    """Why members are not a spread, or "ok": a repeated member, else
    what `counts` (per point of the space, the number of members through
    it; not read when a member is repeated) shows."""
    if repeated:
        return "repeated member"
    if (counts > 1).any():
        return "members overlap"
    if (counts == 0).any():
        return "points left uncovered"
    return "ok"


def _point_counts(space: AmbientSpace, members) -> np.ndarray:
    """For every point of the space, the number of members through it:
    a `bincount` of the equal-dimension members' point sets, computed
    by one `point_sets` call, not read from the space's point lists
    (a type III spread reads them, see `spread_type_III`): a spread of
    PG(3, 23) has 530 members, the space 293,090 lines.  The members
    must all have points in the space (none at infinity in AG)."""
    pts = space.point_sets(members).ravel() if members else []
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
    repeated = len(set(m.rows for m in members)) != len(members)
    if not repeated and _at_infinity(space, members):
        return False, "member at infinity"
    reason = _spread_reason(
        repeated, None if repeated else _point_counts(space, members))
    return reason == "ok", reason


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
    i = space.infinite_index(k - 1).get(at_infinity.rows)
    if i is None:
        raise WrongDimension("axis must be a (k-1)-space at infinity")
    spaces = space.spaces(k)
    # pencil indices are ascending, which is the canonical (Subspace.key) order
    idx = pencil_members[i].tolist()
    return Spread(space, k, tuple(spaces[j] for j in idx), "II",
                  {"at_infinity": at_infinity.to_json()}, indices=tuple(idx))


def all_type_II_spreads(space: AmbientSpace, k: int) -> list[Spread]:
    """Every parallel class of k-spaces: `spread_type_II` on each
    (k-1)-space at infinity, in canonical order.  The classes are built
    once per (space, k) and kept in the space's memo: each call returns
    a new list of the same frozen `Spread` objects."""
    return list(space.memo(("type_II_spreads", k), lambda: tuple(
        spread_type_II(space, axis) for axis in space.infinity_pencils(k)[0])))


# ---------------------------------------------------------------------------
# type III
# ---------------------------------------------------------------------------

def _pencil_of(space: AmbientSpace, pi: Subspace, k: int):
    """(hyps, label, taus) for the (n-2)-space pi at infinity: the
    indices of the q affine hyperplanes through pi (its pencil in
    `infinity_pencils(n-1)`, ascending, so in canonical order); for
    every affine point, the position in hyps of the one holding it; and
    the (k-1)-spaces tau at infinity inside pi, in canonical order:
    those whose <P0, tau> shares all its q^k affine points with
    <P0, pi> (`AmbientSpace.shared_at_origin`)."""
    _, pencils, _ = space.infinity_pencils(space.n - 1)
    hyps = pencils[space.infinite_index(space.n - 2)[pi.rows]]
    label = np.empty(space.num_points, dtype=np.int64)
    label[space.point_lists(space.n - 1)[hyps]] = np.arange(len(hyps))[:, None]
    inf_list = space.infinite_subspaces(k - 1)
    inside = np.flatnonzero(space.shared_at_origin(k, pi) == space.q ** k)
    return hyps, label, [inf_list[i] for i in inside]


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
    if k >= space.n:  # pi holds no (n-1)-space
        raise BadChoices("every tau_i must lie inside pi")
    return _spread_type_III(space, pi, choices, _pencil_of(space, pi, k))


def _spread_type_III(space: AmbientSpace, pi: Subspace, choices,
                     pencil) -> Spread:
    """`spread_type_III` past its checks of pi and of the number and
    dimension k - 1 of the choices, given `_pencil_of(space, pi, k)`."""
    hyps, label, taus = pencil
    k = choices[0].dim + 1
    if not {t.rows for t in choices} <= {t.rows for t in taus}:
        raise BadChoices("every tau_i must lie inside pi")
    tau_index = space.infinite_index(k - 1)
    ids = [tau_index[t.rows] for t in choices]
    distinct = len(set(ids))
    if distinct == 1:
        raise AllEqual("all tau_i equal degenerates to a type II spread")
    lists = space.point_lists(k)
    # ascending indices are the canonical (Subspace.key) order
    idx = np.flatnonzero(space.infinity_pencils(k)[2]
                         == np.array(ids)[label[lists[:, 0]]])
    counts = np.bincount(lists[idx].ravel(), minlength=space.num_points)
    reason = _spread_reason(False, counts)
    if reason != "ok":
        raise BadChoices(f"choices do not produce a spread: {reason}")
    spaces, hyperplanes = space.spaces(k), space.spaces(space.n - 1)
    tag = "III+" if k == 1 and distinct == len(choices) else "III"
    return Spread(space, k, tuple(spaces[j] for j in idx), tag, {
        "pi": pi.to_json(),
        "hyperplanes": [hyperplanes[j].to_json() for j in hyps],
        "choices": [t.to_json() for t in choices],
    }, indices=tuple(idx.tolist()))


def all_type_III_spreads(space: AmbientSpace, k: int = 1) -> list[Spread]:
    """Every type III k-spread (exhaustive over pi and the tau choices).
    Desk scale only: the choice count is (#tau)^q."""
    out = []
    q = space.q
    for pi in space.infinite_subspaces(space.n - 2):
        pencil = _pencil_of(space, pi, k)
        for combo in itertools.product(pencil[2], repeat=q):
            if len({t.rows for t in combo}) == 1:
                continue
            out.append(_spread_type_III(space, pi, list(combo), pencil))
    return out


def sample_type_III_spreads(space: AmbientSpace, k: int, count: int,
                            seed: int) -> list[Spread]:
    """Deterministic seeded sample of type III spreads, for checks where
    the exhaustive list is too large.  Repeats are discarded.  The sample
    is built once per (space, k, count, seed) and kept in the space's
    memo: each call returns a new list of the same shared, frozen
    `Spread` objects.  `seed` must be an int, so that no unseeded sample
    is ever kept and handed out again as if it were random."""
    if not isinstance(seed, int):
        raise BadSeed(f"seed must be an int, got {seed!r}")

    def build():
        rng = random.Random(seed)
        pis = space.infinite_subspaces(space.n - 2)
        taus = gaussian_binomial(space.n - 1, k, space.q)  # per pi
        out = []
        seen = set()
        pencils = {}  # pi.rows -> _pencil_of, for the pis drawn so far
        attempts = 0
        # stop too once every type III spread has been drawn
        while (len(out) < count and attempts < 50 * count
               and len(seen) < len(pis) * (taus ** space.q - taus)):
            attempts += 1
            pi = rng.choice(pis)
            if pi.rows not in pencils:
                pencils[pi.rows] = _pencil_of(space, pi, k)
            pencil = pencils[pi.rows]
            combo = [rng.choice(pencil[2]) for _ in range(space.q)]
            if len({t.rows for t in combo}) == 1:
                continue
            key = (pi.rows, tuple(t.rows for t in combo))
            if key in seen:
                continue
            seen.add(key)
            out.append(_spread_type_III(space, pi, combo, pencil))
        return tuple(out)
    return list(space.memo(("type_III_sample", k, count, seed), build))


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
    extra = [space.spaces(k)[j] for j in pencil[~inside]]
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
