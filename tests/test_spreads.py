import hashlib
import itertools
import json
import random
import time

import pytest

from clag._kernels import _pencil_rows
from clag.clsets import full_kset, type_III_counts
from clag.geometry import (AmbientSpace, SizeGuard, ambient, apply_matrix,
                           make_subspace)
from clag.spreads import (AllEqual, BadChoices, BadSeed, DivisibilityViolated,
                          NotAtInfinity, Spread, _parts_are_spreads,
                          extend_spread_from_subspace, is_spread,
                          lift_spread_through_infinity, restrict_to_affine,
                          spread_type_I, spread_type_II, spread_type_III,
                          switching_pair_from_spreads, type_III_choices,
                          type_III_keys, type_III_tables,
                          verify_switching_pair)

from oracle import (contains, drawn_type_III_spreads, infinite_part,
                    keyed_type_III_spreads, mask_taus, mask_type_III_indices,
                    member_spread_type_III, parallel_classes,
                    random_affine_collineation, transport_type_III)


def _taus_of(space, pi, k):
    """The (k-1)-spaces at infinity inside pi, as `type_III_tables`
    lists them."""
    inf = space.infinite_subspaces(k - 1)
    p = space.infinite_index(space.n - 2)[pi.rows]
    return [inf[i] for i in type_III_tables(space, k)[2][p]]


def test_type_I_field_reduction():
    s = spread_type_I(3, 2, 1)
    assert len(s) == 5 and s.type_tag == "I"
    ok, reason = is_spread(s.members, s.space, 1)
    assert ok, reason
    assert len(spread_type_I(5, 2, 1)) == 21
    assert len(spread_type_I(3, 3, 1)) == 10
    assert len(spread_type_I(3, 4, 1)) == 17  # GF(16) over GF(4)


def test_type_I_extension_beyond_table_bound():
    # GF(529) exceeds the table bound 512, but field reduction reads
    # GF(23)'s tables alone: GF(529) is GF(23)[x]/(f), x acting as the
    # companion matrix of f
    s = spread_type_I(3, 23, 1)
    assert len(s) == 23**2 + 1
    assert s.data == {"subfield": 23, "extension": 529}
    # GF(17^4) exceeds 2^16: the one member is PG(3,17)
    s = spread_type_I(3, 17, 3)
    assert len(s) == 1 and s.members[0].dim == 3
    assert s.data == {"subfield": 17, "extension": 17**4}


@pytest.mark.parametrize("n,q,k", [(3, 8, 1), (3, 9, 1), (3, 16, 1),
                                   (5, 4, 2), (5, 3, 2), (7, 2, 3)])
def test_type_I_over_prime_power_fields(n, q, k):
    # every member is a k-space through field reduction's companion
    # powers, and together they partition PG(n, q)
    s = spread_type_I(n, q, k)
    t = k + 1
    assert len(s) == (q ** (n + 1) - 1) // (q ** t - 1)
    assert s.data == {"subfield": q, "extension": q**t}
    assert {m.dim for m in s.members} == {k}
    ok, reason = is_spread(s.members, s.space, k)
    assert ok, reason


def test_type_I_plane_spread():
    # k = 2 field reduction: 9 planes partition PG(5,2)
    s = spread_type_I(5, 2, 2)
    assert len(s) == 9
    ok, reason = is_spread(s.members, s.space, 2)
    assert ok, reason
    aff = restrict_to_affine(s)
    assert len(aff) == 8  # q^(n-k)


def test_type_I_divisibility():
    with pytest.raises(DivisibilityViolated):
        spread_type_I(4, 2, 1)


def test_type_I_restriction():
    s = restrict_to_affine(spread_type_I(3, 2, 1))
    assert len(s) == 4  # q^(n-k)
    ok, _ = is_spread(s.members, s.space, 1)
    assert ok
    assert len(restrict_to_affine(spread_type_I(5, 2, 1))) == 16


def test_type_II():
    space = ambient(3, 2, "affine")
    axis = space.infinite_subspaces(0)[0]
    s = spread_type_II(space, axis)
    assert len(s) == 4 and s.type_tag == "II"
    assert all(infinite_part(m) == axis for m in s.members)
    assert len(spread_type_II(ambient(4, 3, "affine"),
                              ambient(4, 3, "affine").infinite_subspaces(0)[0])) == 27


def test_type_II_errors():
    space = ambient(3, 2, "affine")
    affine_point = make_subspace(3, 2, [[1, 0, 0, 0]])
    with pytest.raises(NotAtInfinity):
        spread_type_II(space, affine_point)


def test_type_II_pencils_partition_lines():
    space = ambient(3, 2, "affine")
    seen = set()
    for s in parallel_classes(space, 1):
        for idx in s.member_indices():
            assert idx not in seen
            seen.add(idx)
    assert len(seen) == 28


@pytest.mark.parametrize("n,q,k", [(3, 2, 1), (3, 3, 1), (4, 2, 2)])
def test_all_type_II_spreads_follow_the_pencils(n, q, k):
    # the parallel classes are the rows of one read-only pencil table,
    # and the pencil ids beside it are read-only too
    space = ambient(n, q, "affine")
    inf_list, pencil_members, per_space = space.infinity_pencils(k)
    assert pencil_members.shape == (len(inf_list), q ** (n - k))
    assert not pencil_members.flags.writeable
    assert not per_space.flags.writeable
    got = parallel_classes(space, k)
    assert len(got) == len(inf_list)
    for s, axis, members in zip(got, inf_list, pencil_members):
        assert s.type_tag == "II" and s.k == k
        assert s.data == {"at_infinity": axis.tolist()}
        assert s.member_indices() == tuple(sorted(members.tolist()))
        assert list(s.members) == sorted(s.members, key=lambda m: m.key())


def test_type_III_construction_and_plus():
    space = ambient(3, 2, "affine")
    pi = space.infinite_subspaces(1)[0]
    taus = [t for t in space.infinite_subspaces(0) if contains(pi, t)]
    s = spread_type_III(space, pi, [taus[0], taus[1]])
    assert len(s) == 4 and s.type_tag == "III+"
    ok, _ = is_spread(s.members, space, 1)
    assert ok
    # a type III spread is not a parallel class
    assert len({infinite_part(m).rows for m in s.members}) > 1


def test_type_III_all_equal_rejected():
    space = ambient(3, 2, "affine")
    pi = space.infinite_subspaces(1)[0]
    tau = next(t for t in space.infinite_subspaces(0) if contains(pi, t))
    with pytest.raises(AllEqual):
        spread_type_III(space, pi, [tau, tau])


def test_type_III_bad_choices():
    space = ambient(3, 2, "affine")
    pi = space.infinite_subspaces(1)[0]
    outside = next(t for t in space.infinite_subspaces(0)
                   if not contains(pi, t))
    inside = next(t for t in space.infinite_subspaces(0)
                  if contains(pi, t))
    with pytest.raises(BadChoices):
        spread_type_III(space, pi, [outside, inside])


def test_type_III_not_plus_for_larger_q():
    space = ambient(3, 3, "affine")
    pi = space.infinite_subspaces(1)[0]
    taus = [t for t in space.infinite_subspaces(0) if contains(pi, t)]
    repeated = spread_type_III(space, pi, [taus[0], taus[0], taus[1]])
    assert repeated.type_tag == "III"
    distinct = spread_type_III(space, pi, [taus[0], taus[1], taus[2]])
    assert distinct.type_tag == "III+"


def test_all_type_III_counts():
    space = ambient(3, 2, "affine")
    # 7 infinite lines, each with 3 points: 3^2 - 3 choice vectors
    spreads = keyed_type_III_spreads(space, 1, type_III_keys(space, 1))
    assert len(spreads) == 42
    assert sum(s.type_tag == "III+" for s in spreads) == 42


def test_spread_counts_and_sizes():
    space = ambient(3, 3, "affine")
    plus = [s for s in keyed_type_III_spreads(
        space, 1, type_III_keys(space, 1)) if s.type_tag == "III+"]
    for s in plus[:5]:
        assert len(s) == 9
        ok, _ = is_spread(s.members, s.space, 1)
        assert ok


def test_switching_pair_from_permuted_spread():
    s1 = spread_type_I(3, 2, 1)
    perm = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    members = tuple(sorted((apply_matrix(m, perm) for m in s1.members),
                           key=lambda s: s.key()))
    s2 = Spread(s1.space, 1, members, "I", {})
    pair = switching_pair_from_spreads(s1, s2)
    ok, reason = verify_switching_pair(pair)
    assert ok, reason
    assert len(pair.r1) == len(pair.r2) > 0


def test_degenerate_switching_pair():
    s1 = spread_type_I(3, 2, 1)
    pair = switching_pair_from_spreads(s1, s1)
    ok, _ = verify_switching_pair(pair)
    assert ok and len(pair.r1) == 0 == len(pair.r2)


def test_switching_pair_restricts_to_affine():
    # conjugated switching sets keep the property after dropping the
    # members at infinity
    s1 = spread_type_I(3, 2, 1)
    perm = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    members = tuple(sorted((apply_matrix(m, perm) for m in s1.members),
                           key=lambda s: s.key()))
    s2 = Spread(s1.space, 1, members, "I", {})
    pair = switching_pair_from_spreads(s1, s2)
    ok, _ = verify_switching_pair(pair)
    assert ok
    from clag.spreads import SwitchingPair
    aff = ambient(3, 2, "affine")
    r1 = tuple(m for m in pair.r1 if m.is_affine())
    r2 = tuple(m for m in pair.r2 if m.is_affine())
    ok, reason = verify_switching_pair(SwitchingPair(aff, 1, r1, r2))
    assert ok, reason


def test_member_at_infinity_is_refused_in_the_affine_space():
    # a line at infinity has no affine point, so no point count sees it
    from clag.spreads import SwitchingPair
    space = ambient(3, 2, "affine")
    at_inf = make_subspace(3, 2, [[0, 1, 0, 0], [0, 0, 1, 0]])
    members = list(parallel_classes(space, 1)[0].members)
    assert is_spread(members, space, 1) == (True, "ok")
    assert is_spread(members + [at_inf], space, 1) == \
        (False, "member at infinity")
    assert is_spread([at_inf], space, 1) == (False, "member at infinity")
    other = make_subspace(3, 2, [[0, 1, 0, 0], [0, 0, 0, 1]])
    for r1, r2 in (((at_inf,), (other,)), ((members[0],), (members[1], at_inf)),
                   ((members[0], at_inf), (members[1],))):
        assert verify_switching_pair(SwitchingPair(space, 1, r1, r2)) == \
            (False, "member at infinity")
    # in the closure the same lines are ordinary members
    pg = space.closure
    assert verify_switching_pair(SwitchingPair(pg, 1, (at_inf,), (other,))) \
        == (False, "covered point sets differ")


def test_type_III_transport_under_affine_maps():
    space = ambient(3, 2, "affine")
    pi = space.infinite_subspaces(1)[0]
    taus = [t for t in space.infinite_subspaces(0) if contains(pi, t)]
    s = spread_type_III(space, pi, [taus[0], taus[1]])
    rng = random.Random(41)
    for _ in range(8):
        mat = random_affine_collineation(space, rng)
        img = transport_type_III(s, mat)
        assert img.type_tag == "III+"
        ok, _ = is_spread(img.members, space, 1)
        assert ok


def test_extend_spread_from_subspace():
    space = ambient(4, 2, "affine")
    hyp = space.spaces(3)[0]
    inf_pts = [p for p in space.infinite_subspaces(0)
               if contains(hyp, p)]
    sub_members = [m for m in spread_type_II(space, inf_pts[1]).members
                   if contains(hyp, m)]
    assert len(sub_members) == 4
    ext = extend_spread_from_subspace(sub_members, hyp, inf_pts[0], space)
    assert len(ext) == 8
    ok, _ = is_spread(ext.members, space, 1)
    assert ok


def test_lift_spread_through_infinity():
    # a line spread of a solid lifted through an infinite point gives a
    # plane spread of AG(4,2)
    space = ambient(4, 2, "affine")
    solid = space.spaces(3)[0]
    inf_in = next(p for p in space.infinite_subspaces(0)
                  if contains(solid, p))
    local = [m for m in spread_type_II(space, inf_in).members
             if contains(solid, m)]
    axis = next(p for p in space.infinite_subspaces(0)
                if not contains(solid, p))
    lifted = lift_spread_through_infinity(local, axis, space)
    assert lifted.k == 2 and len(lifted) == 4


def test_lift_degenerate_is_type_II_pencil():
    # i = 0, n = 3, k = 1: the 0-spread of a complementary plane lifted
    # through an infinite point is exactly the type II pencil there
    space = ambient(3, 2, "affine")
    plane = space.spaces(2)[0]
    pts = [make_subspace(3, 2, [list(p)]) for p in space.points_of(plane)]
    axis = next(p for p in space.infinite_subspaces(0)
                if not contains(plane, p))
    lifted = lift_spread_through_infinity(pts, axis, space)
    assert lifted.k == 1 and len(lifted) == 4
    pencil = spread_type_II(space, axis)
    assert {m.rows for m in lifted.members} == {m.rows for m in pencil.members}


def test_type_I_spread_json():
    s = spread_type_I(3, 2, 1)
    doc = s.to_json()
    assert doc["type"] == "I" and len(doc["members"]) == 5


def _type_III_inputs(space, k, limit, seed):
    """(pi, choices) pairs: every one when there are at most `limit`,
    else `limit` seeded picks; all-equal choices are left out."""
    pairs = [(pi, list(combo))
             for pi in space.infinite_subspaces(space.n - 2)
             for combo in itertools.product(_taus_of(space, pi, k),
                                            repeat=space.q)
             if len({t.rows for t in combo}) > 1]
    if len(pairs) <= limit:
        return pairs
    return random.Random(seed).sample(pairs, limit)


@pytest.mark.parametrize("n,q,k,limit", [
    (3, 2, 1, 1000), (3, 3, 1, 1000), (3, 4, 1, 60), (4, 2, 2, 60)])
def test_type_III_from_indices_matches_the_member_route(n, q, k, limit):
    space = ambient(n, q, "affine")
    inputs = _type_III_inputs(space, k, limit, seed=n * q)
    assert inputs
    for pi, choices in inputs:
        s = spread_type_III(space, pi, choices)
        ref = member_spread_type_III(space, pi, choices)
        assert s.members == ref.members
        assert s.type_tag == ref.type_tag
        assert s.to_json() == ref.to_json()


def test_sampled_type_III_family_is_built_once_per_space(monkeypatch):
    # the sample is its keys, drawn once per (space, k, count, seed)
    import clag.spreads as spreads
    space = AmbientSpace(3, 3, "affine")
    first = type_III_keys(space, 1, 8, seed=2)
    keys = [key for key in space._memo
            if isinstance(key, tuple) and key[0] == "type_III_keys"]
    assert keys == [("type_III_keys", 1, 8, 2)]

    def refuse(*args):
        raise AssertionError("a sample was drawn again")

    monkeypatch.setattr(spreads.random, "Random", refuse)
    assert type_III_keys(space, 1, 8, seed=2) is first
    assert len(first) == 8 and not first.flags.writeable
    monkeypatch.undo()
    # another seed is another sample
    other = type_III_keys(space, 1, 8, seed=3)
    assert other.tolist() != first.tolist()


@pytest.mark.parametrize("seed", [None, 1.0, "0", (0,)])
def test_sampled_type_III_spreads_need_an_int_seed(seed):
    space = AmbientSpace(3, 3, "affine")
    with pytest.raises(BadSeed, match="seed must be an int"):
        type_III_keys(space, 1, 4, seed)
    assert issubclass(BadSeed, ValueError)
    assert not space._memo


def test_sampled_type_III_family_is_the_one_pinned():
    # SHA-256 of the JSON of the 60-spread samples that `clag verify
    # --all-checks` checks on AG(3,4) lines, as built one spread at a
    # time from sorted Subspace members
    pinned = {0: "68f33dc437a67166be39e0a1929a8a2d404e4c8c99e1dab4e16130b441ce74f1",
              3: "5b23dd9665d82c0a89cbb4665aeefdd92c5b7ab78e5fa89c4aa188c8c74320bc"}
    space = ambient(3, 4, "affine")
    for seed, digest in pinned.items():
        family = keyed_type_III_spreads(space, 1,
                                        type_III_keys(space, 1, 60, seed))
        text = json.dumps([s.to_json() for s in family])
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def _inputs_of(s):
    """(pi, choices) of a type III spread, read back from its data."""
    n, q = s.space.n, s.space.q
    return (make_subspace(n, q, s.data["pi"]),
            [make_subspace(n, q, c) for c in s.data["choices"]])


@pytest.mark.parametrize("n,q", [(3, 2), (3, 3), (4, 2)])
def test_every_type_III_spread_matches_the_mask_route(n, q):
    space = AmbientSpace(n, q, "affine")
    pis = space.infinite_subspaces(n - 2)
    for pi in pis:
        assert _taus_of(space, pi, 1) == mask_taus(space, pi, 1)
    family = keyed_type_III_spreads(space, 1, type_III_keys(space, 1))
    taus = len(mask_taus(space, pis[0], 1))
    assert len(family) == len(pis) * (taus ** q - taus)
    for s in family:
        assert s.member_indices() == mask_type_III_indices(space, *_inputs_of(s))


# SHA-256 of the JSON list of member index lists of the 60-spread seed-0
# samples, recorded from the former containment-mask route
_SAMPLE_DIGESTS = {
    (3, 4, 1): "03ce8587ef9922285cbd2f5a0a950368240536e3704f6f331b1833a8c5f831b0",
    (3, 5, 1): "3de6ee6ba685611477d0371fc2c0e42f0dae2cfeb54e5cb2dd6c023afa7d8441",
    (4, 2, 2): "f43cbb0ceb6c771162119db91a21ea01faa686100ab34a594c8c45944746337d",
    (5, 2, 2): "24321e27ee4f4dce3e7d58dafc18abc43aca34689d44622d312ba9a171d0b53f",
}


@pytest.mark.parametrize("n,q,k", sorted(_SAMPLE_DIGESTS))
def test_sampled_type_III_spreads_match_the_mask_route(n, q, k):
    space = AmbientSpace(n, q, "affine")
    family = keyed_type_III_spreads(space, k, type_III_keys(space, k, 60, 0))
    assert len(family) == 60
    for s in family:
        pi, choices = _inputs_of(s)
        assert _taus_of(space, pi, k) == mask_taus(space, pi, k)
        assert s.member_indices() == mask_type_III_indices(space, pi, choices)
    text = json.dumps([s.member_indices() for s in family])
    assert hashlib.sha256(text.encode()).hexdigest() == _SAMPLE_DIGESTS[n, q, k]


def test_type_III_reads_no_containment_masks(monkeypatch):
    # the closure's containment masks are gone, and no point list of the
    # closure is read: the tau inside pi are read at the affine point 0
    for name in ("spaces_inside", "spaces_through", "shared_points"):
        assert not hasattr(AmbientSpace, name)
    lists = AmbientSpace.point_lists

    def affine_only(space, k):
        assert space.mode == "affine", f"point lists of {space} read"
        return lists(space, k)
    monkeypatch.setattr(AmbientSpace, "point_lists", affine_only)
    space = AmbientSpace(3, 3, "affine")
    sample = keyed_type_III_spreads(space, 1, type_III_keys(space, 1, 8, 0))
    assert len(sample) == 8
    keys = type_III_keys(space, 1)
    assert len(keyed_type_III_spreads(space, 1, keys)) == 780
    assert set(type_III_counts(full_kset(space, 1), keys)) == {9}


def test_sample_stops_once_every_type_III_spread_is_drawn(monkeypatch):
    # AG(3,2) has 7 (n-2)-spaces pi at infinity with 3 tau each: 7 x
    # (3^2 - 3) = 42 type III line spreads, fewer than the 60 asked for;
    # the cap of 50 x 60 attempts made 3,000 draws of pi
    import clag.spreads as spreads
    draws = []

    class Counting(random.Random):
        def choice(self, seq):
            draws.append(len(seq))
            return super().choice(seq)
    monkeypatch.setattr(spreads.random, "Random", Counting)
    space = AmbientSpace(3, 2, "affine")
    sample = type_III_keys(space, 1, 60, seed=0)
    pis = draws.count(7)  # 278 at seed 0
    assert len(sample) == 42 and pis < 600
    assert sorted(sample.tolist()) == type_III_keys(space, 1).tolist()


def test_spread_member_indices_are_the_members_indices():
    # members are in canonical order, so their indices ascend; a type II
    # spread's are its row of the pencil table
    space = ambient(3, 3, "affine")
    classes = parallel_classes(space, 1)
    given = [*classes, *keyed_type_III_spreads(
        space, 1, type_III_keys(space, 1, 8, seed=1))]
    idx = space.space_index(1)
    for s in given:
        assert s.member_indices() == tuple(idx[m.rows] for m in s.members)
    assert [s.member_indices() for s in classes] == [
        tuple(row) for row in space.infinity_pencils(1)[1].tolist()]
    untyped = Spread(space, 1, given[-1].members, "untyped")
    assert untyped.member_indices() == given[-1].member_indices()


def test_spread_families_are_built_once_per_space(monkeypatch):
    # the type II family is the pencil table, the type III family its
    # keys: each built once per space and shared read-only
    import clag.spreads as spreads
    space = AmbientSpace(3, 3, "affine")
    first = [space.infinity_pencils(1)[1], type_III_keys(space, 1, 8, seed=0)]
    monkeypatch.setattr(spreads.random, "Random", None)
    monkeypatch.setattr(AmbientSpace, "spaces", None)
    second = [space.infinity_pencils(1)[1], type_III_keys(space, 1, 8, seed=0)]
    for a, b in zip(first, second):
        assert a is b and not a.flags.writeable


@pytest.mark.parametrize("n,q,k,count,seed", [
    (3, 2, 1, None, None), (3, 3, 1, None, None), (3, 2, 1, 60, 0),
    (3, 3, 1, 60, 0), (3, 3, 1, 8, 5), (3, 4, 1, 60, 0), (3, 4, 1, 60, 3),
    (4, 2, 1, 60, 1), (4, 2, 2, 60, 0)])
def test_type_III_keys_are_the_former_draws(n, q, k, count, seed):
    # the spreads built from the keys are those the former route drew,
    # one Subspace choice at a time, in the same order
    space = AmbientSpace(n, q, "affine")
    keys = type_III_keys(space, k, count, seed)
    ref = drawn_type_III_spreads(space, k, count, seed)
    got = keyed_type_III_spreads(space, k, keys)
    assert keys.shape == (len(ref), q + 1) and not keys.flags.writeable
    assert [s.to_json() for s in got] == [s.to_json() for s in ref]
    assert type_III_keys(space, k, count, seed) is keys


def test_type_III_keys_need_an_int_seed_to_sample():
    space = AmbientSpace(3, 3, "affine")
    with pytest.raises(BadSeed, match="seed must be an int"):
        type_III_keys(space, 1, 4, 1.0)
    assert not space._memo
    assert len(type_III_keys(space, 1)) == 780


def test_exhaustive_type_III_keys_are_guarded(monkeypatch):
    # AG(3,7) lines: 57 pi x 8^7 choices, about 1.2e8 keys, past the
    # default guard; the guard is counted before a key is listed
    monkeypatch.delenv("CLAG_SIZE_GUARD", raising=False)
    space = AmbientSpace(3, 7, "affine")
    start = time.perf_counter()
    with pytest.raises(SizeGuard, match="^57 x 2097152 type III key choices "
                                        "exceed guard 10000000$"):
        type_III_keys(space, 1)
    assert time.perf_counter() - start < 1
    assert not space._memo
    assert len(type_III_keys(space, 1, 8, seed=0)) == 8  # a sample draws
    assert type_III_choices(space, 1) == (57, 8)
    # clag verify lists every spread up to 200 choices and samples past
    # them: AG(3,2) is exhaustive, AG(3,3) sampled
    for q, choices, keys in ((2, 63, 42), (3, 832, 780)):
        small = AmbientSpace(3, q, "affine")
        pis, taus = type_III_choices(small, 1)
        assert pis * taus ** q == choices
        assert len(type_III_keys(small, 1)) == pis * (taus ** q - taus) == keys


@pytest.mark.parametrize("n,q,k", [(3, 2, 1), (3, 3, 1), (4, 2, 1),
                                   (4, 2, 2)])
def test_part_table_holds_every_part(n, q, k):
    # parts[j] lists the hyperplanes containing k-space j, one through
    # each (n-2)-space at infinity containing its part at infinity
    space = AmbientSpace(n, q, "affine")
    hyps, _, taus, parts = type_III_tables(space, k)
    hyperplanes, kspaces = space.spaces(n - 1), space.spaces(k)
    for j, row in enumerate(parts.tolist()):
        assert row == sorted(
            row, key=lambda h: space.infinite_index(n - 2)[
                hyperplanes[h].rows[1:]])
        assert {h for h in range(len(hyperplanes))
                if contains(hyperplanes[h], kspaces[j])} == set(row)
    for p, pi in enumerate(space.infinite_subspaces(n - 2)):
        assert [hyperplanes[h].rows[1:] for h in hyps[p]] == [pi.rows] * q
        assert _taus_of(space, pi, k) == mask_taus(space, pi, k)


def test_corrupted_part_table_fails_the_part_check(monkeypatch):
    import clag.spreads as spreads
    space = AmbientSpace(3, 3, "affine")
    hyps, at, taus, parts = type_III_tables(space, 1)
    assert _parts_are_spreads(space, 1, hyps, at, taus, parts)
    # line 7 through another hyperplane of the same (n-2)-space pi, and
    # through another hyperplane holding it, of another pi
    pi = space.infinity_pencils(2)[2][parts[7, 2]]
    other = next(h for h in hyps[pi] if h != parts[7, 2])
    for label in (other, parts[7, 0]):
        bad = parts.copy()
        bad[7, 2] = label
        assert not _parts_are_spreads(space, 1, hyps, at, taus, bad)
    # point 5 labelled with another hyperplane through the first pi, and
    # the part table read off those labels at every line's first point:
    # the lines through point 5 that start elsewhere leave their part
    bad_at = at.copy()
    bad_at[0, 5] = next(h for h in hyps[0] if h != at[0, 5])
    pis = _pencil_rows(taus, len(space.infinite_subspaces(0)))[
        space.infinity_pencils(1)[2]]
    bad = bad_at[pis, space.point_lists(1)[:, :1]]
    assert (bad != parts).any()
    assert not _parts_are_spreads(space, 1, hyps, bad_at, taus, bad)
    monkeypatch.setattr(spreads, "_parts_are_spreads", lambda *args: False)
    with pytest.raises(AssertionError, match="does not cover"):
        type_III_tables(AmbientSpace(3, 3, "affine"), 1)


def test_part_check_reads_the_geometry(monkeypatch):
    # the check counts the hyperplanes' and the lines' points itself:
    # two equal hyperplanes, two lines with their parts at infinity
    # swapped, or a line listed twice in place of a parallel one (with
    # the part table read off the labels at the first points again)
    # fail it
    space = AmbientSpace(3, 3, "affine")
    hyps, at, taus, parts = type_III_tables(space, 1)
    lists, pencils = space.point_lists, space.infinity_pencils
    inf, members, per_space = pencils(1)
    hyper = lists(2).copy()
    hyper[1] = hyper[0]
    swapped = per_space.copy()
    swapped[[0, 1]] = per_space[[1, 0]]
    assert swapped[0] != swapped[1]
    twice = lists(1).copy()
    twice[0] = twice[members[per_space[0]][1]]
    pis = _pencil_rows(taus, len(inf))[per_space]
    for attr, fake, table in (
            ("point_lists", lambda k: hyper if k == 2 else lists(k), parts),
            ("infinity_pencils",
             lambda k: (inf, members, swapped) if k == 1 else pencils(k),
             parts),
            ("point_lists", lambda k: twice if k == 1 else lists(k),
             at[pis, twice[:, :1]])):
        with monkeypatch.context() as m:
            m.setattr(space, attr, fake)
            assert not _parts_are_spreads(space, 1, hyps, at, taus, table)
    assert _parts_are_spreads(space, 1, hyps, at, taus, parts)
