import gc
import itertools
import random
import weakref

import numpy as np
import pytest

from clag._kernels import _pencil_rows
from clag.galois import field_for_order
from clag.geometry import (AmbientMismatch, AmbientSpace, DimensionOutOfRange,
                           SizeGuard, _index_form, ambient, apply_matrix,
                           capped_count, count_text, gaussian_binomial,
                           make_subspace, span, subspace_from_json)

from clag.clsets import kset_from_json, pg_hyperplane_set

import oracle
from oracle import contains, gf_add, gf_mul, infinite_part, meet


def test_gaussian_binomial_values():
    assert gaussian_binomial(3, 1, 2) == 7    # points of PG(2,2)
    assert gaussian_binomial(4, 2, 2) == 35   # lines of PG(3,2)
    assert gaussian_binomial(4, 2, 3) == 130  # lines of PG(3,3)
    assert gaussian_binomial(2, 3, 5) == 0    # b > a
    assert gaussian_binomial(5, 0, 7) == 1


def test_gaussian_binomial_loops_over_the_smaller_side():
    # [a, b]_q = [a, a - b]_q; b = 2999 factors took 24 s
    assert gaussian_binomial(3000, 2999, 2) == 2**3000 - 1
    assert gaussian_binomial(7, 5, 3) == gaussian_binomial(7, 2, 3)


def test_enumeration_passes_the_size_guard_first(monkeypatch):
    # PG(3,3) has 40 points and 130 lines; its plane at infinity, PG(2,3),
    # has 13 lines
    space = AmbientSpace(3, 3, "projective")
    monkeypatch.setenv("CLAG_SIZE_GUARD", "129")
    with pytest.raises(SizeGuard,
                       match=r"^130 1-spaces of PG\(3,3\) exceed guard 129$"):
        space.spaces(1)
    assert len(space.spaces(0)) == 40
    monkeypatch.setenv("CLAG_SIZE_GUARD", "12")
    with pytest.raises(SizeGuard,
                       match=r"^13 1-spaces of PG\(2,3\) exceed guard 12$"):
        space.infinite_subspaces(1)
    assert ("spaces", 1) not in space._memo


# every k of PG(n, q), n <= 5, whose k-spaces the oracle builds and
# sorts as Subspaces under a size cap
_ORDER_ROWS = [(n, q, k) for n in range(1, 6) for q in (2, 3, 4, 5, 7, 8, 9)
               for k in range(n + 1)
               if gaussian_binomial(n + 1, k + 1, q) <= 4000]


@pytest.mark.parametrize("n,q,k", _ORDER_ROWS)
def test_bases_are_the_former_canonical_order(n, q, k):
    # the k-spaces of PG(n, q), its affine prefix and the k-spaces at
    # infinity, byte for byte as the oracle's Subspaces sorted on
    # Subspace.key
    ag = AmbientSpace(n, q, "affine")
    want = oracle.canonical_bases(n, q, k + 1)
    _same_bytes(ag.closure.bases(k), want)
    _same_bytes(ag.bases(k), want[:ag._num_spaces(k)])
    assert not ag.bases(k).flags.writeable
    _same_bytes(ag.infinite_index(k).bases,
                oracle.canonical_bases(n, q, k + 1, at_infinity=True))


def test_lookup_past_63_key_bits():
    # AG(6,5) hyperplanes: 6 x 7 base-5 digits need about 97 bits; each
    # is found at its own index, and the hyperplane at infinity, the
    # closure's last, is found there alone
    ag = AmbientSpace(6, 5, "affine")
    index, bases = ag.space_index(5), ag.bases(5)
    assert np.array_equal(index.find(bases), np.arange(len(bases)))
    assert index[tuple(map(tuple, bases[-1].tolist()))] == len(bases) - 1
    at_infinity = ag.closure.bases(5)[-1:]
    assert (at_infinity[0, :, 0] == 0).all()
    assert index.find(at_infinity).tolist() == [-1]
    assert ag.closure.space_index(5).find(at_infinity).tolist() == [
        len(ag.closure.bases(5)) - 1]
    with pytest.raises(KeyError):
        index[tuple(map(tuple, at_infinity[0].tolist()))]


@pytest.mark.parametrize("member", [
    [[1, 0, 0, 0], [0, 0, 0, 2]],         # base-2 digits of (0, 0, 1, 0)
    [[1, 0, 0, 0], [0, 0, 1, 2**16]],     # 0 in 16 bits
    [[1, 0, 0, 0], [0, 0, 1, -2**16]],
    [[1, 0, 0, 0], [0, 0, 1, 2**64]],     # past int64
])
def test_coordinates_outside_the_field_alias_no_k_space(member):
    # each member would read as the line ((1,0,0,0), (0,0,1,0)) of
    # AG(3,2) under a key of base-q or 16-bit digits
    index = AmbientSpace(3, 2, "affine").space_index(1)
    assert index[((1, 0, 0, 0), (0, 0, 1, 0))] >= 0
    if abs(member[1][3]) < 2**63:
        assert index.find(np.array([member])).tolist() == [-1]
    with pytest.raises(ValueError, match="^basis entries must be field codes"):
        kset_from_json({"n": 3, "q": 2, "k": 1, "mode": "affine",
                        "members": [member]})


def test_a_k_set_file_without_members_meets_the_enumeration_guard(
        monkeypatch):
    # no member is looked up, yet the lookup is built first: so the
    # enumeration's guard speaks, not a later table's
    monkeypatch.delenv("CLAG_SIZE_GUARD", raising=False)
    with pytest.raises(SizeGuard, match=r"^52955405230 1-spaces of "
                       r"PG\(12,3\) exceed guard 10000000$"):
        kset_from_json({"n": 12, "q": 3, "k": 1, "mode": "affine",
                        "members": []})


def test_counts_past_the_digit_limit_are_printable():
    # str() refuses an int of more than 4,300 digits
    assert count_text(2**100 - 1) == str(2**100 - 1)
    assert count_text(2**100) == "at least 2^100"
    assert count_text(3 * 2**20000) == "at least 2^20001"


def test_capped_count_forms_the_closed_form_below_2_to_the_100():
    def refuse():
        raise AssertionError("closed form formed")

    # 3^70 >= 2^70 and 2^100 are lower bounds past a cap of 10
    assert capped_count(lambda: 3**70, 3, 70, 10) == 3**70
    assert capped_count(refuse, 2, 100, 10) == 2**100
    assert capped_count(refuse, 3, 100, 10) == 2**100
    # a cap at or past the bound: only the closed form decides
    assert capped_count(lambda: 2**100, 2, 100, 2**100) == 2**100
    g = gaussian_binomial(60, 2, 2)
    assert capped_count(lambda: g, 2, 2 * 58, 10) == 2**116 <= g


def test_gaussian_binomial_matches_pivot_pattern_count():
    # independent oracle: the reduced echelon matrices, one per subspace
    for a in range(6):
        for b in range(a + 1):
            for q in (2, 3, 4, 5):
                count = sum(1 for _ in oracle.enumerate_rref_matrices(
                    a, b, q))
                assert count == gaussian_binomial(a, b, q)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumeration_counts(n, q):
    pg = ambient(n, q, "projective")
    ag = ambient(n, q, "affine")
    assert len(pg.points) == (q ** (n + 1) - 1) // (q - 1)
    assert len(ag.points) == q**n
    for k in range(n + 1):
        expected = gaussian_binomial(n + 1, k + 1, q)
        if expected > 25000:
            continue
        spaces = pg.spaces(k)
        assert len(spaces) == expected
        assert len({s.rows for s in spaces}) == expected
        affine = ag.spaces(k)
        assert len(affine) == q ** (n - k) * gaussian_binomial(n, k, q)


def test_specific_counts():
    assert len(ambient(3, 2, "projective").spaces(1)) == 35
    assert len(ambient(3, 2, "affine").spaces(1)) == 28
    assert len(ambient(3, 2, "affine").spaces(2)) == 14
    assert len(ambient(3, 3, "affine").spaces(1)) == 117
    assert len(ambient(4, 2, "affine").spaces(1)) == 120


def test_affine_spaces_through_infinite_axis():
    # the members of one pencil at infinity number exactly q^(n-k)
    for n, q, k in [(3, 2, 1), (3, 3, 1), (4, 2, 2), (3, 2, 2)]:
        space = ambient(n, q, "affine")
        _, members, _ = space.infinity_pencils(k)
        assert all(len(m) == q ** (n - k) for m in members)
        assert len(members) == gaussian_binomial(n, k, q)


@pytest.mark.parametrize("n,q,k", [(3, 3, 1), (4, 2, 2), (5, 2, 3)])
def test_pencil_members_match_one_scan_per_pencil(n, q, k):
    # the members of every pencil, read from one sort of per_space, are
    # the arrays one nonzero scan per pencil gives, dtype included
    _, members, per_space = ambient(n, q, "affine").infinity_pencils(k)
    want = [np.nonzero(per_space == i)[0] for i in range(len(members))]
    assert len(members) == len(want)
    for got, ref in zip(members, want):
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)


def test_rref_canonicalization_invariance():
    rng = random.Random(23)
    space = ambient(3, 3, "projective")
    field = field_for_order(3)
    lines = space.spaces(1)
    for _ in range(50):
        sub = rng.choice(lines)
        rows = [list(r) for r in sub.rows]
        # random invertible coefficient mix of the basis
        a, b, c, d = rng.randrange(3), rng.randrange(3), rng.randrange(3), rng.randrange(3)
        if (a * d - b * c) % 3 == 0:
            continue
        mixed = [
            [gf_add(field, gf_mul(field, a, u), gf_mul(field, b, v))
             for u, v in zip(*rows)],
            [gf_add(field, gf_mul(field, c, u), gf_mul(field, d, v))
             for u, v in zip(*rows)],
        ]
        assert make_subspace(3, 3, mixed).rows == sub.rows


def _check_grassmann(a, b):
    s, m = span(a, b), meet(a, b)
    meet_dim = -1 if m is None else m.dim
    assert s.dim + meet_dim == a.dim + b.dim
    if m is not None:
        assert contains(a, m) and contains(b, m)


def test_span_meet_grassmann():
    # dim <a, b> + dim (a meet b) = dim a + dim b, with the meet inside
    # both: every pair of lines and planes of PG(3,2), a seeded sample
    # of PG(4,3)
    pg32 = ambient(3, 2, "projective")
    subs = pg32.spaces(1) + pg32.spaces(2)
    for a, b in itertools.product(subs, repeat=2):
        _check_grassmann(a, b)
    rng = random.Random(7)
    pg43 = ambient(4, 3, "projective")
    subs = pg43.spaces(1) + pg43.spaces(2)
    for _ in range(300):
        _check_grassmann(rng.choice(subs), rng.choice(subs))


def test_meet_idempotent_and_two_point_span():
    space = ambient(3, 2, "projective")
    line = space.spaces(1)[0]
    assert meet(line, line) == line
    p1 = make_subspace(3, 2, [[1, 0, 0, 0]])
    p2 = make_subspace(3, 2, [[1, 1, 1, 0]])
    joined = span(p1, p2)
    assert joined.dim == 1
    assert contains(joined, p1) and contains(joined, p2)


def test_disjoint_lines_span_whole_space():
    space = ambient(3, 2, "projective")
    lines = space.spaces(1)
    a = lines[0]
    b = next(l for l in lines if meet(a, l) is None)
    assert span(a, b).dim == 3


def test_ambient_mismatch():
    a = ambient(3, 2, "projective").spaces(1)[0]
    b = ambient(3, 3, "projective").spaces(1)[0]
    with pytest.raises(AmbientMismatch):
        span(a, b)


def test_infinite_part():
    ag = ambient(3, 2, "affine")
    line = ag.spaces(1)[0]
    part = infinite_part(line)
    assert part.dim == 0 and not part.is_affine()
    plane = ag.spaces(2)[0]
    assert infinite_part(plane).dim == 1
    inf_line = next(s for s in ambient(3, 2, "projective").spaces(1)
                    if not s.is_affine())
    assert not inf_line.is_affine()
    assert infinite_part(inf_line) == inf_line


def test_affine_spaces_are_projective_prefix():
    # the affine enumeration is the leading block of the projective one,
    # the same objects, which is what makes zero-padded embedding an
    # index identity; the rest are the subspaces at infinity
    for n, q in ((3, 2), (3, 3), (4, 2)):
        ag, pg = ambient(n, q, "affine"), ambient(n, q, "projective")
        assert ag.closure is pg and pg.closure is pg
        assert ag.points == pg.points[:q**n]
        for k in range(n + 1):
            aff, proj = ag.spaces(k), pg.spaces(k)
            assert len(aff) == q ** (n - k) * gaussian_binomial(n, k, q)
            assert all(a is p for a, p in zip(aff, proj))
            assert all(s.is_affine() for s in aff)
            assert ag.infinite_subspaces(k) == proj[len(aff):]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("mode", ["affine", "projective"])
def test_points_in_closed_form_are_the_enumerated_ones(mode, n, q):
    space = AmbientSpace(n, q, mode)
    assert space.points == [s.rows[0] for s in space.spaces(0)]


def test_space_tables_die_with_the_instance():
    old = AmbientSpace(3, 2, "affine")
    points, lists = old.points, old.point_lists(1)
    ref = weakref.ref(old)
    del old
    gc.collect()
    assert ref() is None
    # a fresh instance builds its own tables, equal to the old ones
    fresh = AmbientSpace(3, 2, "affine")
    assert fresh.points == points and fresh.points is not points
    assert np.array_equal(fresh.point_lists(1), lists)
    assert not np.shares_memory(fresh.point_lists(1), lists)


@pytest.mark.parametrize("n,q,mode,k", [(3, 2, "affine", 1),
                                         (3, 3, "projective", 1),
                                         (4, 2, "affine", 2)])
def test_space_point_indices_are_the_point_lists_as_tuples(n, q, mode, k):
    space = ambient(n, q, mode)
    tuples = space.space_point_indices(k)
    assert tuples == [tuple(r) for r in space.point_lists(k).tolist()]
    assert all(type(p) is int for t in tuples for p in t)
    assert all(list(t) == sorted(t) for t in tuples)
    # built per call from the stored lists, not kept beside them
    assert space.space_point_indices(k) is not tuples
    assert ("space_point_indices", k) not in space._memo


def _bases(subs):
    return np.array([s.rows for s in subs], dtype=np.int64)


def test_point_sets_of_unequal_point_counts_are_refused():
    ag = ambient(3, 2, "affine")
    affine_line = ag.spaces(1)[0]
    line_at_infinity = make_subspace(3, 2, [[0, 1, 0, 0], [0, 0, 1, 0]])
    sets = ag.point_sets(_bases([affine_line, affine_line]))
    assert sets.dtype == np.int64 and sets.shape == (2, 2)
    with pytest.raises(AmbientMismatch):
        ag.point_sets(_bases([affine_line, line_at_infinity]))
    # in the closure both lines have q + 1 points
    assert ag.closure.point_sets(
        _bases([affine_line, line_at_infinity])).shape == (2, 3)


def test_point_ordering_affine_first():
    pg = ambient(3, 2, "projective")
    pts = pg.points
    assert all(p[0] == 1 for p in pts[:8])
    assert all(p[0] == 0 for p in pts[8:])
    # infinite block ordered like the canonical points one dimension down
    tails = [p[1:] for p in pts[8:]]
    assert tails == list(ambient(2, 2, "projective").points)


def test_enumeration_order_is_deterministic():
    a = [s.rows for s in ambient(3, 2, "affine").spaces(1)]
    b = [s.rows for s in AmbientSpace(3, 2, "affine").spaces(1)]
    assert a == b


def test_dimension_errors():
    with pytest.raises(DimensionOutOfRange):
        ambient(3, 2, "projective").spaces(5)
    with pytest.raises(DimensionOutOfRange):
        ambient(3, 2, "affine").spaces(-1)


def test_apply_matrix_preserves_incidence():
    space = ambient(3, 2, "projective")
    line = space.spaces(1)[3]
    perm = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    img = apply_matrix(line, perm)
    mapped = {apply_matrix(make_subspace(3, 2, [list(p)]), perm).rows[0]
              for p in space.points_of(line)}
    assert {tuple(p) for p in space.points_of(img)} == mapped


def test_subspace_serialization_round_trip():
    sub = ambient(3, 2, "affine").spaces(1)[5]
    doc = sub.to_json()
    assert subspace_from_json(3, 2, doc) == sub
    # non-echelon input and entries that are not field codes are rejected
    for rows in ([[0, 0, 0, 1], [1, 0, 0, 1]], [[1, 0, 0, 0], [0, 2, 0, 0]],
                 [[1, 0, 0, 0], [0, -1, 0, 0]], [[1, 0.5, 0, 0], [0, 0, 1, 0]]):
        with pytest.raises(ValueError):
            subspace_from_json(3, 2, rows)


def test_points_of_affine_subspace():
    ag = ambient(3, 2, "affine")
    plane = ag.spaces(2)[0]
    pts = ag.points_of(plane)
    assert len(pts) == 4  # q^k affine points
    assert all(p[0] == 1 for p in pts)
    pg = ambient(3, 2, "projective")
    assert len(pg.points_of(plane)) == 7  # all projective points


@pytest.mark.parametrize("n,q,mode,k", [(4, 2, "affine", 2),
                                        (4, 2, "affine", 3),
                                        (3, 2, "projective", 2),
                                        (3, 3, "affine", 2)])
def test_spaces_through_matches_containment(n, q, mode, k):
    # the k-spaces through an axis at infinity, read pencil by pencil at
    # the affine point 0, are the ones containing it by row reduction;
    # the rule is affine, and PG refuses it
    space = ambient(n, q, mode)
    axes = [a for i in range(k - 1) for a in space.infinite_subspaces(i)]
    assert axes
    if mode == "projective":
        with pytest.raises(DimensionOutOfRange,
                           match="^incidences at infinity are affine$"):
            space.shared_at_origin(k, axes[0])
        return
    per_space = space.infinity_pencils(k)[2]
    for axis in axes:
        counts = space.shared_at_origin(k, axis)
        mask = (counts == q ** (axis.dim + 1))[per_space]
        assert mask.tolist() == [contains(s, axis) for s in space.spaces(k)]


def _probes(space, rng):
    """A few subspaces of every dimension below n: affine ones and ones
    at infinity (in AG those have no point of the space)."""
    proj = ambient(space.n, space.q, "projective")
    out = []
    for d in range(space.n):
        affine = [s for s in proj.spaces(d) if s.is_affine()]
        out += rng.sample(affine, min(3, len(affine)))
        at_inf = space.infinite_subspaces(d)
        out += rng.sample(at_inf, min(3, len(at_inf)))
    return out


@pytest.mark.parametrize("n,q,mode", [(3, 2, "affine"), (3, 3, "affine"),
                                      (4, 2, "affine"), (5, 2, "affine"),
                                      (3, 2, "projective")])
def test_inside_through_skew_match_row_reduction(n, q, mode):
    # in AG, the origin rule: for every (k-1)-space t and probe a at
    # infinity, <P0, t> and <P0, a> share the q^(c+1) affine points of
    # <P0, t meet a>, c = dim(t meet a), and the one point P0 when t and
    # a are skew; so the count tells through, inside and skew apart.
    # In PG, inside is read over the space's own point lists: the
    # k-spaces of a hyperplane set are the ones inside it.
    space = ambient(n, q, mode)
    probes = [s for s in _probes(space, random.Random(n * 10 + q))
              if not s.is_affine()]
    if mode == "projective":
        for k in range(1, n):
            for h in space.spaces(n - 1):
                assert pg_hyperplane_set(space, h, k).members == {
                    j for j, s in enumerate(space.spaces(k)) if contains(h, s)}
        return
    for k in range(1, n):
        for a in probes:
            shared = space.shared_at_origin(k, a)
            for t, count in zip(space.infinite_subspaces(k - 1), shared):
                cut = meet(t, a)
                assert count == (1 if cut is None else q ** (cut.dim + 1))
                assert (count == q ** (a.dim + 1)) == contains(t, a)
                assert (count == q ** k) == contains(a, t)
                assert (count == 1) == (cut is None)


def test_origin_lists_are_memoised_and_read_only():
    space = AmbientSpace(3, 3, "affine")
    axis = space.infinite_subspaces(0)[2]
    first = space.shared_at_origin(1, axis)
    keys = [key for key in space._memo if key[0] == "origin_lists"]
    assert sorted(keys) == [("origin_lists", 1)]
    lists = space._memo[keys[0]]
    # the lines through P0, one per point at infinity
    assert lists.shape == (13, 3) and (lists[:, 0] == 0).all()
    with pytest.raises(ValueError):
        lists[0, 0] = 1
    assert (space.shared_at_origin(1, axis) == first).all()
    assert space._memo[keys[0]] is lists


def test_point_sets_in_chunks_match_one_block(monkeypatch):
    from clag import geometry
    ag = ambient(3, 3, "affine")
    lines = ag.bases(1)
    whole = ag.point_sets(lines)
    line_at_infinity = make_subspace(3, 3, [[0, 1, 0, 0], [0, 0, 1, 0]])
    monkeypatch.setattr(geometry, "POINT_BLOCK_ENTRIES", 10)
    assert np.array_equal(ag.point_sets(lines), whole)
    assert np.array_equal(ag.closure.point_sets(lines),
                          ag.closure.point_lists(1)[:len(lines)])
    # 3 lines per chunk (10 // q^k): the line at infinity is alone in the third
    with pytest.raises(AmbientMismatch):
        ag.point_sets(np.concatenate([lines[:6],
                                      _bases([line_at_infinity])]))


_FIELDS = (2, 3, 4, 5, 7, 8, 9)
_POINT_SET_ROWS = (
    [(3, q, "affine", k) for q in _FIELDS for k in range(3)]
    + [(n, q, "affine", k) for n, q in ((4, 2), (4, 3), (5, 2))
       for k in range(n + 1)]
    + [(3, q, "projective", k) for q in _FIELDS for k in range(4)]
    + [(4, 2, "projective", k) for k in range(5)])


def _same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n,q,mode,k", _POINT_SET_ROWS)
def test_point_sets_match_the_former_route(n, q, mode, k):
    space = ambient(n, q, mode)
    _same_bytes(space.point_sets(space.bases(k)),
                oracle.point_sets(space, space.spaces(k)))
    if mode == "affine" and k < n:
        # block 0 of a subspace at infinity holds no affine point
        inf, subs = space.infinite_index(k).bases, space.infinite_subspaces(k)
        _same_bytes(space.point_sets(inf), oracle.point_sets(space, subs))
        assert space.point_sets(inf).shape == (len(inf), 0)
        _same_bytes(space.closure.point_sets(inf),
                    oracle.point_sets(space.closure, subs))


@pytest.mark.parametrize("n,q,mode", [(3, 3, "affine"), (3, 4, "projective"),
                                      (4, 2, "affine"), (4, 2, "projective")])
def test_point_sets_in_small_chunks_match_the_former_route(monkeypatch, n, q,
                                                           mode):
    from clag import geometry
    monkeypatch.setattr(geometry, "POINT_BLOCK_ENTRIES", 7)
    space = ambient(n, q, mode)
    for k in range(n + 1):
        _same_bytes(space.point_sets(space.bases(k)),
                    oracle.point_sets(space, space.spaces(k)))


@pytest.mark.parametrize("v", [2**16, 2**16 + 2])
def test_pencil_rows_on_narrow_and_wide_indices(v):
    # two random pairings of 0..v-1: point p lies in row a[p] // 2 of
    # the first and v / 2 + b[p] // 2 of the second; v = 2^16 is sorted
    # as uint16, v = 2^16 + 2 as int64
    rng = np.random.default_rng(v)
    first, second = rng.permutation(v), rng.permutation(v)
    lists = np.concatenate([first, second]).reshape(-1, 2)
    a, b = np.argsort(first), np.argsort(second)
    expected = np.stack([a // 2, v // 2 + b // 2], axis=1)
    assert np.array_equal(_pencil_rows(lists, v), expected)


@pytest.mark.parametrize("n,q", sorted({(n, q) for n, q, _, _ in
                                        _POINT_SET_ROWS}))
def test_closed_form_index_is_the_point_index(n, q):
    # the 0-spaces, enumerated and sorted, are numbered by the closed form
    pg = ambient(n, q, "projective")
    pts = np.array([s.rows[0] for s in pg.spaces(0)], dtype=np.int64)
    weights, shift = _index_form(n, q)
    idx = pts @ weights + shift[(pts != 0).argmax(axis=1)]
    assert idx.tolist() == list(range(len(pts)))


def test_point_sets_enumerate_no_points(monkeypatch):
    # PG(3,31) has 30,784 points; the point sets need none of them listed
    from clag import geometry
    monkeypatch.setattr(geometry, "_AMBIENT_CACHE", {})
    pg = ambient(3, 31, "projective")
    lines = _bases([make_subspace(3, 31, [[1, 0, 0, 0], [0, 1, 2, 3]]),
                    make_subspace(3, 31, [[0, 1, 0, 5], [0, 0, 1, 30]])])
    assert pg.point_sets(lines).shape == (2, 32)
    ag = ambient(3, 31, "affine")
    assert ag.point_sets(lines[:1]).shape == (1, 31)
    assert ag.point_sets(lines[1:]).shape == (1, 0)
    assert "points" not in pg._memo and "points" not in ag._memo


def test_point_lists_peak_stays_near_their_size(monkeypatch):
    # AG(3,13) lines: 30,927 lines of 13 points, a 3.07 MiB result
    import tracemalloc
    from clag import geometry
    monkeypatch.setattr(geometry, "_AMBIENT_CACHE", {})
    ag = ambient(3, 13, "affine")
    ag.spaces(1)
    tracemalloc.start()
    try:
        lists = ag.point_lists(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lists.shape == (30927, 13)
    assert peak < 5 * lists.nbytes
