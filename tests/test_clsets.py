import json
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from clag import cli, clsets, geometry
from clag.classify import cross_check_projection, search_cl_ksets
from clag.clsets import (NOT_APPLICABLE, DimensionViolation, NotContained,
                         NotDisjoint, NotSkew, WrongCodimension,
                         are_cameron_liebler, canonical_complement,
                         check_line_disjointness,
                         check_pg_disjointness, disjoint_counts,
                         check_spread_intersections,
                         check_switching_invariance, complement,
                         count_through_infinite_subspace, difference,
                         embed_to_pg, empty_kset, full_kset,
                         infinite_pencil_counts, is_cameron_liebler,
                         kset_from_indices, kset_from_json, kset_to_json,
                         modular_check, pg_hyperplane_set,
                         point_pencil, project_through_infinite_subspace,
                         restrict_from_pg, union)
from clag.geometry import (DimensionOutOfRange, SizeGuard, ambient,
                           gaussian_binomial, make_subspace)
from clag.incidence import IncidenceMatrix, meets
from clag.spreads import (all_type_II_spreads, all_type_III_spreads,
                          extend_spread_from_subspace,
                          sample_type_III_spreads, spread_type_II,
                          switching_pair_from_spreads)

from oracle import contains, meet, point_pencil_members

AG32 = ambient(3, 2, "affine")
PG32 = ambient(3, 2, "projective")


def lines_in_hyperplane(space, hyp):
    return [j for j, s in enumerate(space.spaces(1))
            if contains(hyp, s)]


def test_batched_decision_matches_the_definitional_test(monkeypatch):
    # in PG(4,2) the lines of a hyperplane have x = 7/3: Cameron-Liebler
    # there, while a non-integral x is refused in AG
    pg = ambient(4, 2, "projective")
    hyp = make_subspace(4, 2, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0],
                               [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]])
    pencil = point_pencil(AG32, AG32.points[3], 1)
    cases = [(AG32, [pencil, kset_from_indices(AG32, 1, [0]),
                     empty_kset(AG32, 1), complement(pencil)]),
             (pg, [pg_hyperplane_set(pg, hyp, 1),
                   kset_from_indices(pg, 1, [5]),
                   point_pencil(pg, pg.points[0], 1)])]
    for space, sets in cases:
        expected = [is_cameron_liebler(l)[0] for l in sets]
        assert are_cameron_liebler(space, 1, sets) == expected
    assert expected == [True, False, True]

    def refuse(*args):
        raise AssertionError("incidence built")

    monkeypatch.setattr(clsets, "build_incidence", refuse)
    assert are_cameron_liebler(AG32, 1, []) == []


def test_empty_and_full():
    e = empty_kset(AG32, 1)
    assert e.x == 0
    ok, cert = is_cameron_liebler(e)
    assert ok and all(c == 0 for c in cert)
    f = full_kset(AG32, 1)
    assert f.x == 4  # q^(n-k)
    assert is_cameron_liebler(f)[0]


def test_point_pencil_is_cl_with_x_1():
    pen = point_pencil(AG32, (1, 0, 0, 0), 1)
    assert pen.size == 7 and pen.x == 1
    ok, cert = is_cameron_liebler(pen)
    assert ok
    # certificate: exactly the unit vector at the vertex
    vertex = AG32.points.index((1, 0, 0, 0))
    assert cert[vertex] == 1 and sum(map(abs, cert)) == 1


def test_point_pencil_refuses_malformed_coordinates():
    # a negative code used to wrap round the tables to (1, 0, 0, 1), and
    # a code past q to raise a bare IndexError
    for point in [(1, 0, 0, -1), (1, 0, 0, 5), (1, 0, 0), (1, 0, 0, 0, 0),
                  (1, 0, 0, 1.0), (1, 0, 0, True), (1, 0, 0, "1"), 7]:
        with pytest.raises(DimensionOutOfRange, match="field codes 0..1"):
            point_pencil(AG32, point, 1)
    # well-formed non-points are refused as before
    for point in [(0, 0, 0, 0), (0, 1, 0, 0)]:
        with pytest.raises(DimensionOutOfRange, match="is not a point"):
            point_pencil(AG32, point, 1)
    assert point_pencil(AG32, (1, 0, 0, 1), 1).size == 7


def test_point_pencil_normalises_the_point():
    space = ambient(3, 3, "affine")
    assert (point_pencil(space, (2, 0, 0, 2), 1).members
            == point_pencil(space, (1, 0, 0, 1), 1).members)
    assert (point_pencil(space.closure, (0, 2, 1, 0), 1).members
            == point_pencil(space.closure, (0, 1, 2, 0), 1).members)


def test_point_pencil_lists_no_point(monkeypatch):
    # AG(3,17) and its closure have 4,913 and 5,220 points
    monkeypatch.setattr(geometry, "_AMBIENT_CACHE", {})
    space = ambient(3, 17, "affine")
    space.point_lists(1)
    assert point_pencil(space, (1, 2, 3, 4), 1).size == 307
    assert "points" not in space._memo
    assert "points" not in space.closure._memo


@pytest.mark.parametrize("n,q,mode", [(3, 3, "affine"), (4, 2, "affine"),
                                      (3, 2, "projective")])
def test_point_pencils_match_the_scan(n, q, mode):
    space = ambient(n, q, mode)
    for k in range(n + 1):
        for i, p in enumerate(space.points):
            assert (point_pencil(space, p, k).members
                    == point_pencil_members(space, i, k)), (k, p)


def test_kset_parameter_is_computed_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return gaussian_binomial(*args)

    monkeypatch.setattr(clsets, "gaussian_binomial", counted)
    l = kset_from_indices(AG32, 1, [0, 3])
    assert l.x == l.x == Fraction(2, 7)
    assert len(calls) == 1
    assert l == kset_from_indices(AG32, 1, [3, 0])
    assert hash(l) == hash(kset_from_indices(AG32, 1, [3, 0]))


def test_kset_from_indices_refuses_bools_and_floats():
    # int() used to read 2.7 as 2 and True as 1
    for indices in ([2.7, True], [1.0], [True]):
        with pytest.raises(TypeError):
            kset_from_indices(AG32, 1, indices)
    assert kset_from_indices(AG32, 1, np.array([2, 1])).members == {1, 2}


def test_pencils_read_the_point_lists_under_a_small_guard(monkeypatch):
    # AG(3,3) lines: 117 x 3 = 351 list entries, 27 x 117 = 3,159 dense,
    # and 27 marks per line that `meets` is asked about
    monkeypatch.setattr(geometry, "_AMBIENT_CACHE", {})
    monkeypatch.setenv("CLAG_SIZE_GUARD", "1000")
    space = ambient(3, 3, "affine")
    pen = point_pencil(space, (1, 0, 0, 0), 1)
    vertex = make_subspace(3, 3, [(1, 0, 0, 0)])
    assert pen.members == {j for j, s in enumerate(space.spaces(1))
                           if contains(s, vertex)}
    assert pen.size == 13 and is_cameron_liebler(pen)[0]
    assert check_line_disjointness(pen).passed
    # line 0 itself and the 12 other lines through each of its 3 points
    assert meets(space, 1, [0]).sum() == 1 + 3 * 12
    with pytest.raises(SizeGuard,
                       match="^27 x 117 meet marks exceed guard 1000$"):
        meets(space, 1, slice(None))
    with pytest.raises(SizeGuard,
                       match="^27 x 117 incidence exceeds guard 1000$"):
        search_cl_ksets(3, 3, 1, 1)


def test_pencils_and_projections_past_the_dense_guard():
    # the dense matrices would hold 1,331 x 16,093 and 364 x 33,880 entries
    ag311 = ambient(3, 11, "affine")
    pen = point_pencil(ag311, ag311.points[0], 1)
    assert pen.size == 133 and is_cameron_liebler(pen)[0]
    assert check_line_disjointness(pen).passed
    ag53 = ambient(5, 3, "affine")
    pen = point_pencil(ag53, ag53.points[0], 2)
    img = project_through_infinite_subspace(pen, ag53.infinite_subspaces(0)[0])
    assert (img.space.n, img.k, img.x) == (4, 1, 1)
    assert is_cameron_liebler(img)[0]


def _memo_arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _memo_arrays(item)
    elif isinstance(value, IncidenceMatrix):
        yield from _memo_arrays(list(vars(value).values()))


def test_no_dense_incidence_is_memoised(monkeypatch, tmp_path):
    monkeypatch.setattr(geometry, "_AMBIENT_CACHE", {})
    space = ambient(3, 4, "affine")
    setfile = tmp_path / "pencil.json"
    setfile.write_text(json.dumps(kset_to_json(
        point_pencil(space, space.points[7], 1))))
    assert cli.main(["verify", "--set", str(setfile), "--all-checks",
                     "--out", str(tmp_path / "report.json")]) == 0
    assert cross_check_projection(4, 2, 2)["all_images_cl_with_same_x"]
    touched = list(geometry._AMBIENT_CACHE.values())
    assert len(touched) >= 4
    lists = 0
    for sp in touched:
        v = sp.num_points
        dense = {shape for k in range(1, sp.n)
                 for shape in ((sp._num_spaces(k), v), (v, sp._num_spaces(k)))}
        for key, value in sp._memo.items():
            for arr in _memo_arrays(value):
                assert arr.shape not in dense, (sp, arr.shape)
            # each k-space's points are stored once, in the point lists
            assert key[0] != "space_point_indices", (sp, key)
            if key[0] == "point_lists":
                k = key[1]
                s = (sp.q ** k if sp.mode == "affine"
                     else (sp.q ** (k + 1) - 1) // (sp.q - 1))
                assert value.shape == (sp._num_spaces(k), s), (sp, k)
                assert value.dtype == np.int64 and value.flags.c_contiguous
                # not a view that keeps a wider array alive
                assert value.base is None or value.base.nbytes == value.nbytes
                lists += 1
    assert lists >= 3


def test_hyperplane_line_set_not_cl_in_affine():
    # a nonempty set of lines inside an affine plane is never CL
    plane = AG32.spaces(2)[0]
    l = kset_from_indices(AG32, 1, lines_in_hyperplane(AG32, plane))
    assert l.size == 6  # the affine plane AG(2,2) has 6 lines
    assert not is_cameron_liebler(l)[0]
    assert l.x.denominator != 1  # rejected before linear algebra


def test_single_line_rejected_by_integrality():
    l = kset_from_indices(AG32, 1, [0])
    assert l.x == Fraction(1, 7)
    assert not is_cameron_liebler(l)[0]


def test_complement_union_difference():
    pen = point_pencil(AG32, (1, 0, 0, 0), 1)
    co = complement(pen)
    assert co.x == 4 - 1
    assert is_cameron_liebler(co)[0]
    with pytest.raises(NotDisjoint):
        union(pen, pen)  # two pencils share nothing? the same one does
    other = point_pencil(AG32, (1, 1, 1, 1), 1)
    with pytest.raises(NotDisjoint):
        union(pen, other)  # distinct affine pencils always share a line
    assert difference(pen, pen).size == 0
    with pytest.raises(NotContained):
        difference(pen, other)
    disjoint_part = kset_from_indices(AG32, 1,
                                      sorted(co.members)[:3])
    u = union(pen, disjoint_part)
    assert u.size == 10


def test_spread_intersection_checks():
    pen = point_pencil(AG32, (1, 0, 0, 0), 1)
    t2 = all_type_II_spreads(AG32, 1)
    r = check_spread_intersections(pen, t2)
    assert r.passed and set(r.details["counts"]) == {1}
    t3 = all_type_III_spreads(AG32, 1)
    assert len(t3) == 42
    assert check_spread_intersections(pen, t3).passed
    single = kset_from_indices(AG32, 1, [0])
    r = check_spread_intersections(single, t2)
    assert r.status == "fail" and set(r.details["counts"]) == {0, 1}


def test_cl_meets_every_spread_exhaustively():
    # definitional test implies constant spread intersections, checked
    # over every constructible spread of AG(3,2) and AG(3,3): all
    # parallel classes, all mixed-hyperplane spreads, and the restricted
    # field-reduction spread
    from clag.spreads import restrict_to_affine, spread_type_I
    for n, q in [(3, 2), (3, 3)]:
        space = ambient(n, q, "affine")
        spreads = all_type_II_spreads(space, 1) + all_type_III_spreads(space, 1)
        spreads.append(restrict_to_affine(spread_type_I(n, q, 1)))
        pen = point_pencil(space, space.points[1], 1)
        assert check_spread_intersections(pen, spreads).passed
        co = complement(pen)
        r = check_spread_intersections(co, spreads)
        assert r.passed and set(r.details["counts"]) == {q ** (n - 1) - 1}


def test_cl_meets_sampled_spreads_beyond_desk_scale():
    # the same invariant on AG(4,2), with seeded sampling of the mixed
    # spreads (the exhaustive list is large there)
    space = ambient(4, 2, "affine")
    spreads = all_type_II_spreads(space, 1)
    spreads += sample_type_III_spreads(space, 1, 40, seed=7)
    pen = point_pencil(space, (1, 0, 1, 1, 0), 1)
    assert check_spread_intersections(pen, spreads).passed


def test_switching_invariance():
    t2 = all_type_II_spreads(AG32, 1)
    pen = point_pencil(AG32, (1, 0, 1, 0), 1)
    for i in range(1, 4):
        pair = switching_pair_from_spreads(t2[0], t2[i])
        assert check_switching_invariance(pen, pair).passed
    # a single line is separated by a pair built from a spread through
    # it and one avoiding it
    line_idx = sorted(pen.members)[0]
    containing = next(s for s in t2 if line_idx in s.member_indices())
    avoiding = next(s for s in t2 if line_idx not in s.member_indices())
    pair = switching_pair_from_spreads(containing, avoiding)
    single = kset_from_indices(AG32, 1, [line_idx])
    assert check_switching_invariance(single, pair).status == "fail"


def test_affine_disjoint_counts():
    pen = point_pencil(AG32, (1, 0, 0, 0), 1)
    member = sorted(pen.members)[0]
    assert disjoint_counts(pen)[member] == 0
    non_member = next(j for j in range(28) if j not in pen.members)
    assert disjoint_counts(pen)[non_member] == 5  # (q^2*1+1)*(1-0)
    assert disjoint_counts(empty_kset(AG32, 1))[member] == 0


def test_line_disjointness_check():
    pen = point_pencil(AG32, (1, 0, 0, 0), 1)
    assert check_line_disjointness(pen).passed
    assert set(infinite_pencil_counts(pen)) == {1}
    single = kset_from_indices(AG32, 1, [0])
    assert check_line_disjointness(single).status == "fail"


def test_pg_disjoint_counts():
    pen = point_pencil(PG32, (1, 0, 0, 0), 1)
    assert pen.size == 7 and pen.x == 1
    lines = PG32.spaces(1)
    member = sorted(pen.members)[0]
    assert disjoint_counts(pen)[member] == 0
    off_vertex = next(j for j, s in enumerate(lines)
                      if j not in pen.members
                      and not contains(s, make_subspace(3, 2, [[1, 0, 0, 0]])))
    # (x - chi) * [n-k-1 choose k]_q * q^(k^2+k) = 1 * 1 * 4
    assert disjoint_counts(pen)[off_vertex] == 4
    assert check_pg_disjointness(pen).passed
    assert check_pg_disjointness(empty_kset(PG32, 1)).passed


def _disjoint_counts_by_meet(l):
    """Reference: one exact meet per (k-space, member) pair.  In AG two
    k-spaces share an affine point iff their meet is not at infinity."""
    spaces = l.space.spaces(l.k)
    affine = l.space.mode == "affine"

    def disjoint(a, b):
        cut = meet(a, b)
        return cut is None or (affine and not cut.is_affine())
    return [sum(1 for j in l.members if disjoint(s, spaces[j]))
            for s in spaces]


@pytest.mark.parametrize("n,q,k,mode", [(3, 2, 1, "affine"),
                                        (3, 2, 1, "projective"),
                                        (4, 2, 2, "affine"),
                                        (3, 3, 1, "projective")])
def test_disjoint_counts_match_meet(n, q, k, mode):
    space = ambient(n, q, mode)
    spaces = space.spaces(k)
    hyp = ambient(n, q, "projective").spaces(n - 1)[0]
    rng = random.Random(n * 100 + q * 10 + k)
    sets = [point_pencil(space, space.points[0], k),
            point_pencil(space, space.points[-1], k),
            kset_from_indices(space, k, [j for j, s in enumerate(spaces)
                                         if contains(hyp, s)]),
            empty_kset(space, k),
            kset_from_indices(space, k, rng.sample(range(len(spaces)), 12))]
    for l in sets:
        assert list(disjoint_counts(l)) == _disjoint_counts_by_meet(l)


def _refuse(monkeypatch, *names):
    """Every clag module binding one of `names` gets a function that
    raises in its place."""
    def refuse(*args, **kwargs):
        raise AssertionError(f"one of {names} called")
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "clag" and mod is not None:
            for name in names:
                if name in vars(mod):
                    monkeypatch.setattr(mod, name, refuse)


def test_disjointness_checks_run_without_meet(monkeypatch):
    # the library has no meet; no GF(q) elimination stands in for it
    assert not hasattr(geometry, "meet")
    line = point_pencil(AG32, (1, 0, 0, 0), 1)
    pens = [point_pencil(PG32, (1, 0, 0, 0), 1),
            point_pencil(ambient(3, 3, "projective"), (0, 0, 1, 0), 1)]
    _refuse(monkeypatch, "gf_rref")
    assert check_line_disjointness(line).passed
    assert all(check_pg_disjointness(pen).passed for pen in pens)


def test_projection_cross_check_runs_without_meet_or_make_subspace(monkeypatch):
    # cold caches, so nothing computed earlier with these functions is reused
    monkeypatch.setattr(geometry, "_AMBIENT_CACHE", {})
    assert not hasattr(geometry, "meet")
    _refuse(monkeypatch, "make_subspace")
    with pytest.raises(AssertionError):
        geometry.make_subspace(3, 2, [[1, 0, 0, 0]])
    result = cross_check_projection(4, 2, 2)
    assert result["projections"] == 18 * 15
    assert result["all_images_cl_with_same_x"]


def test_affine_questions_read_no_point_list_of_the_closure(monkeypatch):
    # cold caches, and every point list of a projective space refused:
    # questions about subspaces at infinity are read at the affine point 0
    monkeypatch.setattr(geometry, "_AMBIENT_CACHE", {})
    lists = geometry.AmbientSpace.point_lists

    def affine_only(space, k):
        assert space.mode == "affine", f"point lists of {space} read"
        return lists(space, k)
    monkeypatch.setattr(geometry.AmbientSpace, "point_lists", affine_only)
    assert cross_check_projection(4, 2, 2)["all_images_cl_with_same_x"]
    ag52 = ambient(5, 2, "affine")
    axis = ag52.infinite_subspaces(1)[4]
    pi = canonical_complement(ag52, axis)
    assert pi.is_affine() and meet(pi, axis) is None
    # the solids through a point and a line at infinity: [3 choose 1]_2
    pen = point_pencil(ag52, ag52.points[5], 3)
    assert count_through_infinite_subspace(pen, axis) == 7
    ag42 = ambient(4, 2, "affine")
    solid = ag42.spaces(3)[0]
    inf = [p for p in ag42.infinite_subspaces(0) if contains(solid, p)]
    sub = [m for m in spread_type_II(ag42, inf[1]).members
           if contains(solid, m)]
    assert len(extend_spread_from_subspace(sub, solid, inf[0], ag42)) == 8
    ag33 = ambient(3, 3, "affine")
    assert len(sample_type_III_spreads(ag33, 1, 8, seed=0)) == 8


def test_count_through_an_axis_needs_an_affine_set():
    pg = ambient(4, 2, "projective")
    pen = point_pencil(pg, pg.points[0], 2)
    assert count_through_infinite_subspace(pen, None) == pen.size
    with pytest.raises(DimensionViolation, match="^counting through an axis "
                                                 "needs an affine set$"):
        count_through_infinite_subspace(pen, pg.infinite_subspaces(0)[0])


def test_pg_hyperplane_set_parameters():
    hyp = PG32.spaces(2)[0]
    hs = pg_hyperplane_set(PG32, hyp, 1)
    assert hs.size == 7 and hs.x == 1
    assert is_cameron_liebler(hs)[0]
    assert check_pg_disjointness(hs).passed
    pg42 = ambient(4, 2, "projective")
    hs4 = pg_hyperplane_set(pg42, pg42.spaces(3)[0], 1)
    assert hs4.x == Fraction(7, 3)  # integral iff (k+1) | (n+1)
    assert is_cameron_liebler(hs4)[0]  # still CL in the projective space


def test_equivalence_checkers_not_applicable_below_2k1():
    # planes of AG(3,2): n = 3 < 2k+1 = 5
    l = kset_from_indices(AG32, 2, [0, 1])
    r = check_spread_intersections(l, all_type_II_spreads(AG32, 2))
    assert r.status == NOT_APPLICABLE
    pair = switching_pair_from_spreads(*all_type_II_spreads(AG32, 2)[:2])
    assert check_switching_invariance(l, pair).status == NOT_APPLICABLE


def test_embed_restrict_extend():
    pen = point_pencil(AG32, (1, 0, 0, 0), 1)
    emb = embed_to_pg(pen)
    assert emb.x == 1 and is_cameron_liebler(emb)[0]
    back, dropped = restrict_from_pg(emb)
    assert dropped == 0 and back.members == pen.members
    # add every line at infinity: the lines of the hyperplane x0 = 0
    h_inf = AG32.infinite_subspaces(2)[0]
    ext = union(emb, pg_hyperplane_set(PG32, h_inf, 1))
    assert ext.x == 2  # x + (q^(n-k)-1)/(q^(k+1)-1) = 1 + 1
    assert is_cameron_liebler(ext)[0]
    back2, dropped2 = restrict_from_pg(ext)
    assert dropped2 == 7 and back2.members == pen.members


def test_embedding_preserves_membership_both_ways():
    rng = random.Random(13)
    for _ in range(40):
        idxs = [j for j in range(28) if rng.random() < 0.3]
        l = kset_from_indices(AG32, 1, idxs)
        assert is_cameron_liebler(l)[0] == is_cameron_liebler(embed_to_pg(l))[0]


def test_count_through_infinite_subspace():
    ag42 = ambient(4, 2, "affine")
    pen = point_pencil(ag42, (1, 0, 0, 0, 0), 2)
    assert count_through_infinite_subspace(pen, None) == 35
    for axis in ag42.infinite_subspaces(0):
        # gauss(n-i-1, k-i-1)_q * x = gauss(3,1)_2
        assert count_through_infinite_subspace(pen, axis) == 7
    assert count_through_infinite_subspace(empty_kset(ag42, 2),
                                           ag42.infinite_subspaces(0)[0]) == 0


def test_projection_pencil_to_pencil():
    ag42 = ambient(4, 2, "affine")
    pen = point_pencil(ag42, (1, 0, 0, 0, 0), 2)
    axis = ag42.infinite_subspaces(0)[0]
    img = project_through_infinite_subspace(pen, axis)
    assert img.space.n == 3 and img.k == 1 and img.x == 1
    assert is_cameron_liebler(img)[0]
    pencils = [point_pencil(AG32, p, 1).members for p in AG32.points]
    assert img.members in pencils


def test_projection_requires_skewness():
    ag42 = ambient(4, 2, "affine")
    pen = point_pencil(ag42, (1, 0, 0, 0, 0), 2)
    axis = ag42.infinite_subspaces(0)[0]
    bad_pi = next(s for s in ambient(4, 2, "projective").spaces(3)
                  if s.is_affine() and contains(s, axis))
    with pytest.raises(NotSkew):
        project_through_infinite_subspace(pen, axis, bad_pi)


def test_modular_check():
    # k = n-2 line classes of AG(3,q)
    pen32 = point_pencil(AG32, (1, 0, 0, 0), 1)
    assert modular_check(pen32)                       # x = 1
    assert modular_check(empty_kset(AG32, 1))         # x = 0
    two = kset_from_indices(AG32, 1, list(range(14)))
    assert not modular_check(two)                     # q=2, x=2: 1 mod 3
    ag33 = ambient(3, 3, "affine")
    eight = kset_from_indices(ag33, 1, list(range(8 * 13)))
    assert eight.x == 8
    assert modular_check(eight)                       # 28 = 0 mod 4
    with pytest.raises(WrongCodimension):
        modular_check(point_pencil(ambient(4, 2, "affine"), (1, 0, 0, 0, 0), 1))


def test_restriction_to_subspace_keeps_shifted_constant():
    # restriction mechanism: a fixed extension part E turns any spread
    # of an affine solid into one of the whole space, so a CL set meets
    # every solid spread in a constant shifted by |L meet E|
    space = ambient(4, 2, "affine")
    solid = space.spaces(3)[0]
    inf_pts = [p for p in space.infinite_subspaces(0)
               if contains(solid, p)]
    sub_spreads = []
    for axis in inf_pts:
        members = [m for m in spread_type_II(space, axis).members
                   if contains(solid, m)]
        sub_spreads.append(members)
    idx = space.space_index(1)
    for l in (point_pencil(space, (1, 0, 0, 0, 0), 1),
              complement(point_pencil(space, (1, 1, 0, 1, 0), 1))):
        assert is_cameron_liebler(l)[0]
        constants = set()
        for members in sub_spreads:
            ext = extend_spread_from_subspace(members, solid, inf_pts[0], space)
            # the full spread meets the class in exactly x members
            full_count = sum(1 for m in ext.members if idx[m.rows] in l.members)
            assert full_count == l.x
            constants.add(sum(1 for m in members if idx[m.rows] in l.members))
        assert len(constants) == 1  # the shifted constant


def test_sampled_type_III_spreads_deterministic():
    from clag.spreads import is_spread
    space = ambient(3, 3, "affine")
    a = sample_type_III_spreads(space, 1, 12, seed=5)
    b = sample_type_III_spreads(space, 1, 12, seed=5)
    assert [s.to_json() for s in a] == [s.to_json() for s in b]
    assert len(a) == 12
    for s in a:
        ok, _ = is_spread(s.members, space, 1)
        assert ok
    pen = point_pencil(space, (1, 0, 0, 0), 1)
    assert check_spread_intersections(pen, a).passed


def test_kset_json_round_trip(tmp_path):
    pen = point_pencil(AG32, (1, 0, 1, 1), 1)
    doc = kset_to_json(pen)
    text = json.dumps(doc)
    back = kset_from_json(json.loads(text))
    assert back.members == pen.members and back.space == pen.space
