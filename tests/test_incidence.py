import random
from fractions import Fraction

import numpy as np
import pytest

from clag import exact, incidence
from clag.clsets import (check_line_disjointness, check_pg_disjointness,
                         complement, is_cameron_liebler, kset_from_indices,
                         point_pencil)
from clag.classify import SearchStats, _Search
from clag.geometry import DimensionOutOfRange, SizeGuard, ambient
from clag.incidence import (IncidenceMatrix, LengthMismatch, NotADesign,
                            build_incidence, certificate_to_json, meet_counts,
                            meets)
from clag.scheme import relation_matrix
from clag.spreads import restrict_to_affine, spread_type_I
from oracle import (bareiss_rank, classify_line_pair, dense_incidence,
                    parallel_classes, solve_left)


def dense(A):
    return dense_incidence(A.space, A.k)


def test_shapes_and_column_sums():
    A = build_incidence(ambient(3, 2, "affine"), 1)
    assert A.shape == (8, 28)
    assert A.points.shape == (28, 2)  # q^k points per line
    assert set(dense(A).sum(axis=0).tolist()) == {2}
    P = build_incidence(ambient(3, 2, "projective"), 1)
    assert P.shape == (15, 35)
    assert P.points.shape == (35, 3)  # (q^2-1)/(q-1)
    assert set(dense(P).sum(axis=0).tolist()) == {3}


def test_projective_block_structure():
    # affine rows/cols first, zero top-right, one-lower incidence bottom-right
    P = dense(build_incidence(ambient(3, 2, "projective"), 1))
    A = dense(build_incidence(ambient(3, 2, "affine"), 1))
    assert np.array_equal(P[:8, :28], A)
    assert not P[:8, 28:].any()
    P2 = dense(build_incidence(ambient(2, 2, "projective"), 1))
    assert np.array_equal(P[8:, 28:], P2)


def test_incidence_has_full_row_rank():
    # rank() reads the row count off the design; elimination checks it
    for n, q, mode, k in [(3, 2, "affine", 1), (3, 2, "projective", 1),
                          (3, 3, "affine", 1), (4, 2, "affine", 2)]:
        A = build_incidence(ambient(n, q, mode), k)
        assert bareiss_rank(dense(A)) == A.rank() == A.shape[0]


def test_kernel_dimension():
    A = build_incidence(ambient(3, 2, "affine"), 1)
    kern = A.kernel_basis()
    assert kern.shape[0] == 20  # 28 - 8
    assert not (dense(A) @ kern.T).any()


def test_membership_trivial_cases():
    A = build_incidence(ambient(3, 2, "affine"), 1)
    ok, cert = A.row_space_membership([0] * 28)
    assert ok and all(c == 0 for c in cert)
    row = dense(A)[3].tolist()
    ok, cert = A.row_space_membership(row)
    assert ok
    assert cert == [Fraction(1) if i == 3 else Fraction(0) for i in range(8)]


def test_single_line_not_in_row_space():
    A = build_incidence(ambient(3, 2, "affine"), 1)
    vec = [0] * 28
    vec[0] = 1
    ok, cert = A.row_space_membership(vec)
    assert not ok and cert is None


def test_certificate_soundness():
    A = build_incidence(ambient(3, 2, "affine"), 1)
    # sum of two pencil rows is in the row space with known certificate
    m = dense(A)
    vec = (m[0] + m[5]).tolist()
    ok, cert = A.row_space_membership(vec)
    assert ok and A.verify_certificate(cert, vec)


def test_membership_consistent_with_kernel_on_random_vectors():
    A = build_incidence(ambient(3, 2, "affine"), 1)
    rng = random.Random(31)
    m = dense(A).tolist()
    for _ in range(60):
        vec = [rng.randrange(2) for _ in range(28)]
        closed = A.in_row_space(vec)
        via_solve = solve_left(m, vec) is not None
        assert closed == via_solve


def test_spread_difference_lies_in_kernel():
    space = ambient(3, 2, "affine")
    m = dense(build_incidence(space, 1))
    spreads = parallel_classes(space, 1)
    aff_type_I = restrict_to_affine(spread_type_I(3, 2, 1))
    spreads = spreads + [aff_type_I]
    for s1 in spreads:
        for s2 in spreads:
            diff = np.zeros(28, dtype=np.int64)
            diff[list(s1.member_indices())] += 1
            diff[list(s2.member_indices())] -= 1
            assert not (m @ diff).any()


def test_length_mismatch():
    A = build_incidence(ambient(3, 2, "affine"), 1)
    with pytest.raises(LengthMismatch):
        A.in_row_space([0] * 27)


def test_dimension_and_size_guards(monkeypatch):
    with pytest.raises(DimensionOutOfRange):
        build_incidence(ambient(3, 2, "affine"), 3)
    monkeypatch.setenv("CLAG_SIZE_GUARD", "10")
    with pytest.raises(SizeGuard):
        build_incidence(ambient(3, 2, "affine"), 1)


def test_size_guard_holds_on_a_warm_cache(monkeypatch):
    # the point lists hold 28 x 2 entries, the marks of `meets` 8 per
    # chosen line, the Boolean matrix 8 x 28
    space = ambient(3, 2, "affine")
    pencil = point_pencil(space, space.points[0], 1)
    assert is_cameron_liebler(pencil)[0]
    assert meets(space, 1, [0]).any()
    monkeypatch.setenv("CLAG_SIZE_GUARD", "10")
    lists = "^28 x 2 point lists exceed guard 10$"
    for query in (lambda: build_incidence(space, 1),
                  lambda: is_cameron_liebler(pencil),
                  lambda: meets(space, 1, [0])):
        with pytest.raises(SizeGuard, match=lists):
            query()
    monkeypatch.setenv("CLAG_SIZE_GUARD", "56")
    assert is_cameron_liebler(pencil)[0]
    # 8 x 7 marks pass; the 28 x 7 result of every row does not, but
    # the counts gather it in bounded blocks and 8 rows fit
    seven = list(range(7))
    with pytest.raises(SizeGuard,
                       match="^28 x 7 meet matrix exceeds guard 56$"):
        meets(space, 1, seven)
    assert np.array_equal(meets(space, 1, seven, rows=range(8)).sum(1),
                          meet_counts(space, 1, seven)[:8])
    assert check_line_disjointness(pencil).passed
    # 3 members: 8 x 3 marks and 3 x 3 relations, no 28 x 3 rows
    assert relation_matrix(space, members=[5, 0, 5]).shape == (3, 3)
    for query in (meets, meet_counts):
        with pytest.raises(SizeGuard,
                           match="^8 x 8 meet marks exceed guard 56$"):
            query(space, 1, list(range(8)))
    with pytest.raises(SizeGuard, match="^8 x 28 incidence exceeds guard 56$"):
        incidence._dense_rows(space, 1)


def test_one_incidence_buffer_per_space_and_k():
    # one read-only int64 array of point lists per space and k serves the
    # masks, the design and membership; the search keeps its own locked
    # int64 copy of M
    for space, k in ((ambient(3, 2, "affine"), 1),
                     (ambient(3, 3, "projective"), 1),
                     (ambient(4, 2, "affine"), 2)):
        inc = build_incidence(space, k)
        assert build_incidence(space, k) is inc
        assert inc.points.dtype == np.int64
        assert not inc.points.flags.writeable
        assert inc.points.tolist() == [list(p) for p in
                                       space.space_point_indices(k)]
        assert inc.points is space.point_lists(k)
        inc.design()
        assert build_incidence(space, k).points is inc.points
        # the design check reads the pencils that point_pencil reads
        assert inc._through is space.point_pencils(k)
        assert not inc._through.flags.writeable
        if space.mode == "affine":  # the search's T at its root
            t = _Search(space, k, 1, SearchStats()).root.a
            assert t.dtype == np.int64 and np.array_equal(t, dense(inc))
            assert not t.flags.writeable


def test_certificate_export_format():
    space = ambient(3, 2, "affine")
    A = build_incidence(space, 1)
    ok, cert = A.row_space_membership(dense(A)[0].tolist())
    doc = certificate_to_json(space, cert)
    assert doc["1:0:0:0"] == "1/1"
    assert len(doc) == 8


def oracle_membership(A, vec):
    """The kernel-basis route: verdict from the rational kernel, then the
    certificate from a Fraction elimination."""
    kern = A.kernel_basis()
    # Python ints: on PG(3,3) kern @ (3**36 m[3]) passes int64 on the way
    if (kern @ np.asarray(vec).astype(object)).any():
        return False, None
    return True, solve_left(dense(A).tolist(), [int(v) for v in vec])


@pytest.mark.parametrize("n,q,mode,k", [
    (3, 2, "affine", 1), (3, 3, "affine", 1), (3, 4, "affine", 1),
    (3, 3, "projective", 1), (4, 2, "affine", 2)])
def test_design_route_matches_kernel_route(n, q, mode, k):
    A = build_incidence(ambient(n, q, mode), k)
    m = dense(A)
    rng = random.Random(n * 100 + q * 10 + k)
    perturbed = m[1].copy()
    perturbed[rng.randrange(m.shape[1])] ^= 1
    # pencil, two pencils, complement, a multiple past int64 products;
    # one Fraction elimination on AG(3,4) takes seconds, so one member there
    members = ([m[0] + m[1]] if q == 4 else
               [m[0], m[0] + m[1], 1 - m[2], 3**36 * m[3]])
    randoms = [np.array([rng.randrange(2) for _ in range(m.shape[1])])
               for _ in range(4)]
    for i, vec in enumerate(members + [perturbed] + randoms):
        got = A.row_space_membership(vec)
        assert got == oracle_membership(A, vec)
        assert A.in_row_space(vec) == got[0]
        if i <= len(members):
            assert got[0] == (i < len(members))


@pytest.mark.parametrize("guard,wide", [(None, False), (393, False),
                                        (392, True), (197, True)])
def test_membership_widens_past_the_int64_bound(guard, wide, monkeypatch):
    # AG(3,2) lines: |num| <= 2 c r = 196 for a 0/1 vector, and an entry
    # of M^T num sums s = 2 entries of num, so Python ints from 392 down
    if guard is not None:
        monkeypatch.setattr(exact, "INT64_GUARD", guard)
    A = build_incidence(ambient(3, 2, "affine"), 1)
    m = dense(A)
    rng = random.Random(5)
    randoms = [np.array([rng.randrange(2) for _ in range(28)])
               for _ in range(4)]
    for vec in [m[0], 1 - m[2], np.eye(28, dtype=np.int64)[0]] + randoms:
        member, num, _ = A._solve(vec[None])
        assert (num.dtype == object) == wide
        assert A.row_space_membership(vec) == oracle_membership(A, vec)


def test_membership_builds_no_dense_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Boolean incidence built")

    monkeypatch.setattr(incidence, "_dense_rows", refuse)
    space = ambient(3, 7, "affine")
    lines = [j for j, pts in enumerate(space.space_point_indices(1))
             if 5 in pts]
    ok, cert = is_cameron_liebler(kset_from_indices(space, 1, lines))
    assert ok
    assert cert == [Fraction(int(i == 5)) for i in range(space.num_points)]


def test_disjointness_and_relations_build_no_dense_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Boolean incidence built")

    monkeypatch.setattr(incidence, "_dense_rows", refuse)
    ag = ambient(3, 4, "affine")
    pen = point_pencil(ag, ag.points[0], 1)
    assert check_line_disjointness(pen).passed
    assert check_line_disjointness(complement(pen)).passed
    assert not check_line_disjointness(kset_from_indices(ag, 1, [0])).passed
    pg = ambient(5, 2, "projective")
    pen = point_pencil(pg, pg.points[0], 2)
    assert check_pg_disjointness(pen).passed
    assert check_pg_disjointness(complement(pen)).passed
    ag = ambient(3, 2, "affine")
    lines = ag.spaces(1)
    rel = relation_matrix(ag)
    assert rel.tolist() == [[classify_line_pair(ag, a, b) for b in lines]
                            for a in lines]
    assert np.array_equal(relation_matrix(ag, members=[5, 0, 5]),
                          rel[np.ix_([5, 0, 5], [5, 0, 5])])
    rel = relation_matrix(ambient(4, 3, "affine"), "affine_hyperplanes")
    assert np.array_equal(rel, rel.T) and not rel.diagonal().any()
    # every hyperplane has the same number of partners in each relation
    counts = np.stack([(rel == i).sum(1) for i in range(rel.max() + 1)])
    assert (counts == counts[:, :1]).all()


def test_design_parameters_are_counted():
    for (n, q, mode, k), rl in {(3, 2, "affine", 1): (7, 1),
                                (3, 3, "projective", 1): (13, 1),
                                (4, 2, "affine", 2): (35, 7)}.items():
        assert build_incidence(ambient(n, q, mode), k).design() == rl


@pytest.mark.parametrize("rows", [
    [[0, 1], [0, 2], [3, 4], [5, 6]],    # unequal point degrees
    [[0, 1], [2, 3], [4, 5], [6, 7]],    # unequal pair counts
    [list(range(8))] * 2,                # r = lambda: rank 1
])
def test_non_design_matrix_is_refused(rows):
    # rows: point lists of equal size on the 8 points of AG(3, 2)
    A = IncidenceMatrix(ambient(3, 2, "affine"), 1,
                        np.array(rows, dtype=np.int64))
    vec = [0] * len(rows)
    for query in (A.design, A.rank, lambda: A.in_row_space(vec),
                  lambda: A.row_space_membership(vec)):
        with pytest.raises(NotADesign):
            query()
    assert issubclass(NotADesign, ValueError)


def test_membership_needs_no_rational_elimination(monkeypatch):
    space = ambient(3, 4, "affine")
    build_incidence(space, 1)

    def refuse(*args, **kwargs):
        raise AssertionError("rational elimination called")

    monkeypatch.setattr(exact, "nullspace_int", refuse)
    monkeypatch.setattr(IncidenceMatrix, "kernel_basis", refuse)
    l = point_pencil(space, space.points[5], 1)
    ok, cert = is_cameron_liebler(l)
    assert ok
    assert cert == [Fraction(int(i == 5)) for i in range(space.num_points)]


@pytest.mark.parametrize("n,q,mode,k", [(3, 2, "affine", 1),
                                        (3, 2, "projective", 1),
                                        (3, 3, "affine", 1),
                                        (4, 2, "affine", 2),
                                        (3, 3, "affine", 2),
                                        (5, 2, "projective", 2)])
def test_meets_matches_shared_point_counts(n, q, mode, k, monkeypatch):
    # blocks of a few rows, so the counts cross many block edges
    monkeypatch.setattr(incidence, "MEET_BLOCK_ENTRIES", 50)
    space = ambient(n, q, mode)
    m = dense_incidence(space, k)
    rng = random.Random(n * 100 + q * 10 + k)
    rows = rng.sample(range(m.shape[1]), 5)
    for cols in (slice(None), list(range(m.shape[1])),
                 sorted(rng.sample(range(m.shape[1]), 7)), []):
        shared = m.T @ m[:, cols]  # the integer product, as the oracle
        got = meets(space, k, cols)
        assert got.dtype == bool
        assert np.array_equal(got, shared > 0)
        assert np.array_equal(meets(space, k, cols, rows=rows),
                              shared[rows] > 0)
        assert meet_counts(space, k, cols).tolist() == \
            (shared > 0).sum(1).tolist()
