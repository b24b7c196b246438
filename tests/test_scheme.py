import itertools
import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from clag import _kernels, geometry, scheme
from clag.clsets import empty_kset, kset_from_indices, point_pencil
from clag.geometry import AmbientMismatch, SizeGuard, ambient, make_subspace
from clag.scheme import (EmptySet, align_rows_to,
                         eigenmatrix_bruteforce, eigenmatrix_closed,
                         eigenspace_profile, hyperplane_adjudication,
                         hyperplane_eigenmatrix_closed, hyperplane_scheme,
                         idempotents_scaled, inner_distribution,
                         intersection_matrices_bruteforce, line_scheme,
                         relation_matrix, scheme_axioms_bruteforce, scheme_report,
                         u_dot_q, verify_bose_mesner)
from clag.spreads import (all_type_II_spreads, all_type_III_spreads,
                          sample_type_III_spreads)
from oracle import (bareiss_rank, classify_line_pair,
                    hyperplane_dual_eigenmatrix,
                    hyperplane_intersection_matrices, line_dual_eigenmatrix,
                    line_intersection_matrices, meet)

AG32 = ambient(3, 2, "affine")


def spread_kset(space, spread):
    return kset_from_indices(space, spread.k, spread.member_indices())


def first_type_iii_plus(space):
    return next(s for s in all_type_III_spreads(space, 1)
                if s.type_tag == "III+")


def test_classify_line_pair():
    lines = AG32.spaces(1)
    assert classify_line_pair(AG32, lines[0], lines[0]) == 0
    a = make_subspace(3, 2, [[1, 0, 0, 0], [0, 1, 0, 0]])
    b = make_subspace(3, 2, [[1, 0, 1, 0], [0, 0, 0, 1]])
    assert classify_line_pair(AG32, a, b) == 3  # projectively disjoint
    # two parallels: same point at infinity
    c = make_subspace(3, 2, [[1, 1, 1, 0], [0, 0, 0, 1]])
    assert classify_line_pair(AG32, b, c) == 2
    # meeting in an affine point
    d = make_subspace(3, 2, [[1, 0, 1, 0], [0, 1, 0, 0]])
    assert classify_line_pair(AG32, b, d) == 1
    with pytest.raises(AmbientMismatch):
        classify_line_pair(AG32, a, ambient(3, 3, "affine").spaces(1)[0])
    assert scheme.AmbientMismatch is geometry.AmbientMismatch


def test_relation_matrix_agrees_with_pair_classifier():
    rel = relation_matrix(AG32)
    lines = AG32.spaces(1)
    for i in range(0, 28, 5):
        for j in range(0, 28, 3):
            assert rel[i, j] == classify_line_pair(AG32, lines[i], lines[j])


@pytest.mark.parametrize("n,q", [(3, 2), (2, 3), (4, 2)])
def test_hyperplane_relation_matrix_against_meet(n, q):
    space = ambient(n, q, "affine")
    hyps = space.spaces(n - 1)
    rel = relation_matrix(space, "affine_hyperplanes")
    for i, a in enumerate(hyps):
        for j, b in enumerate(hyps):
            if a.rows == b.rows:
                expected = 0
            else:  # two hyperplanes of the closure always meet
                expected = 2 if meet(a, b).is_affine() else 1
            assert rel[i, j] == expected


def test_closed_eigenmatrix_values_at_3_2():
    P = eigenmatrix_closed(3, 2)
    assert P.tolist() == [[1, 12, 3, 12], [1, 4, -1, -4],
                          [1, -2, -1, 2], [1, -2, 3, -2]]
    assert int(P[0].sum()) == 28


def test_closed_dual_dimensions_at_3_2():
    Q = line_scheme(3, 2).Q
    assert [int(v) for v in Q[0]] == [1, 7, 14, 6]
    assert sum(Q[0]) == 28


def test_orthogonality_grid():
    for n in range(3, 7):
        for q in (2, 3, 4, 5, 7, 8):
            assert line_scheme(n, q).check_orthogonality()
            assert hyperplane_scheme(n, q).check_orthogonality()


def test_intersection_matrices_closed_values():
    mats = line_scheme(3, 2).p_matrices
    assert np.array_equal(mats[0], np.eye(4, dtype=np.int64))
    assert mats[2][0].tolist() == [0, 0, 3, 0]  # q^(n-1) - 1 = 3
    # row sums of matrix i are the valency of relation i
    P = eigenmatrix_closed(3, 2)
    for i in range(4):
        assert set(mats[i].sum(axis=1).tolist()) == {int(P[0][i])}


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_derived_tables_equal_the_typed_references(q):
    # Q and the intersection matrices derived from the closed P
    cases = ([(line_scheme(n, q), line_intersection_matrices(n, q),
               line_dual_eigenmatrix(n, q)) for n in range(3, 8)]
             + [(hyperplane_scheme(n, q), hyperplane_intersection_matrices(n, q),
                 hyperplane_dual_eigenmatrix(n, q)) for n in range(2, 8)])
    for tables, mats, Q in cases:
        assert len(tables.p_matrices) == len(mats) == tables.d + 1
        for derived, typed in zip(tables.p_matrices, mats):
            assert derived.dtype == np.int64
            assert np.array_equal(derived, typed)
        assert tables.Q == Q
        assert tables.size == sum(int(v) for v in tables.P[0])


@pytest.mark.parametrize("kind,make,row,col,value", [
    # the hyperplane variant P[1][2] = -1: non-integral multiplicities
    ("affine_hyperplanes", hyperplane_eigenmatrix_closed, 1, 2, -1),
    # the line P with row 3 repeated: rows 2 and 3 not orthogonal
    ("affine_lines", eigenmatrix_closed, 3, slice(None), [1, -2, -1, 2]),
])
def test_tables_refuse_a_p_with_unorthogonal_rows(kind, make, row, col, value):
    P = make(3, 2).copy()
    P[row, col] = value
    with pytest.raises(AssertionError):
        scheme._tables_from_eigenmatrix(kind, 3, 2, P)


@pytest.mark.parametrize("n,q", [(3, 2), (3, 3)])
def test_bruteforce_matches_closed_forms(n, q):
    space = ambient(n, q, "affine")
    brute = intersection_matrices_bruteforce(space)
    closed = line_scheme(n, q).p_matrices
    for b, c in zip(brute, closed):
        assert np.array_equal(b, c)
    bp = align_rows_to(eigenmatrix_closed(n, q), eigenmatrix_bruteforce(brute))
    assert np.array_equal(bp, eigenmatrix_closed(n, q))


def _eigenmatrix_of(rel, d):
    ok, p = scheme_axioms_bruteforce(rel, d)
    assert ok
    return eigenmatrix_bruteforce([p[i].T.copy() for i in range(d + 1)])


@pytest.mark.parametrize("n", [3, 4])
def test_eigenmatrix_bruteforce_hamming(n):
    words = list(itertools.product((0, 1), repeat=n))
    rel = np.array([[sum(x != y for x, y in zip(a, b)) for b in words]
                    for a in words], dtype=np.int8)
    # Krawtchouk: P[r][i] = sum_j (-1)^j C(r, j) C(n - r, i - j)
    known = [[sum((-1) ** j * comb(r, j) * comb(n - r, i - j)
                  for j in range(i + 1)) for i in range(n + 1)]
             for r in range(n + 1)]
    P = _eigenmatrix_of(rel, n)
    assert P[0].tolist() == known[0]
    assert sorted(P.tolist()) == sorted(known)


def test_eigenmatrix_bruteforce_johnson():
    v, k = 7, 3
    blocks = [set(c) for c in itertools.combinations(range(v), k)]
    rel = np.array([[k - len(a & b) for b in blocks] for a in blocks],
                   dtype=np.int8)
    # Eberlein: P[r][i] = sum_j (-1)^j C(r, j) C(k-r, i-j) C(v-k-r, i-j)
    known = [[sum((-1) ** j * comb(r, j) * comb(k - r, i - j)
                  * comb(v - k - r, i - j) for j in range(i + 1))
              for i in range(k + 1)] for r in range(k + 1)]
    P = _eigenmatrix_of(rel, k)
    assert P[0].tolist() == known[0] == [1, 12, 18, 4]
    assert sorted(P.tolist()) == sorted(known)


def test_eigenmatrix_bruteforce_complete_graph():
    # d = 1: relation 1 is J - I on 6 points, eigenvalues 5 and -1
    rel = 1 - np.eye(6, dtype=np.int8)
    assert _eigenmatrix_of(rel, 1).tolist() == [[1, 5], [1, -1]]


def test_eigenmatrix_bruteforce_refuses_pentagon():
    # the 5-cycle's distance scheme has eigenvalues (-1 +- sqrt 5) / 2
    rel = np.array([[min((a - b) % 5, (b - a) % 5) for b in range(5)]
                    for a in range(5)], dtype=np.int8)
    with pytest.raises(AssertionError):
        _eigenmatrix_of(rel, 2)


def _leibniz_det(m):
    size = len(m)
    total = 0
    for perm in itertools.permutations(range(size)):
        inversions = sum(perm[a] > perm[b] for a in range(size)
                         for b in range(a + 1, size))
        term = (-1) ** inversions
        for r, c in enumerate(perm):
            term *= m[r][c]
        total += term
    return total


def test_charpoly_is_det_of_x_minus_m():
    rng = random.Random(11)
    for size in (1, 2, 3, 4, 5):
        for _ in range(8):
            m = [[rng.randint(-30, 30) for _ in range(size)]
                 for _ in range(size)]
            coeffs = scheme._charpoly(m)
            assert coeffs[0] == 1 and len(coeffs) == size + 1
            for t in range(-3, 4):
                shifted = [[(t if r == c else 0) - m[r][c]
                            for c in range(size)] for r in range(size)]
                assert sum(c * t ** (size - k) for k, c in
                           enumerate(coeffs)) == _leibniz_det(shifted)


def test_scheme_axioms_exhaustive():
    rel = relation_matrix(AG32)
    ok, p = scheme_axioms_bruteforce(rel, 3)
    assert ok
    # triple counting over 28 lines reproduces all 64 entries
    closed = line_scheme(3, 2).p_matrices
    for i in range(4):
        for j in range(4):
            for l in range(4):
                assert p[i, j, l] == closed[i][l, j]


def test_scheme_axioms_refuse_codes_outside_the_relations():
    rel = relation_matrix(AG32).copy()
    for bad in (4, -1):
        rel[0, 1] = rel[1, 0] = bad
        ok, p = scheme_axioms_bruteforce(rel, 3)
        assert not ok and not p.any()


def test_bose_mesner_identities():
    ok, p = scheme_axioms_bruteforce(relation_matrix(AG32), 3)
    assert ok
    tables = line_scheme(3, 2)
    res = verify_bose_mesner(p, tables)
    assert res["idempotency"]
    assert res["resolution_of_identity"]
    assert res["adjacency_expansion"]
    assert [str(t) for t in res["traces"]] == ["1", "7", "14", "6"]


def test_bose_mesner_needs_no_matrix_product(monkeypatch):
    ok, p = scheme_axioms_bruteforce(relation_matrix(AG32), 3)
    assert ok

    def forbidden(*args, **kwargs):
        raise AssertionError("relation matrix or triple count called")

    monkeypatch.setattr(scheme, "relation_matrix", forbidden)
    monkeypatch.setattr(_kernels, "triple_counts", forbidden)
    res = verify_bose_mesner(p, line_scheme(3, 2))
    assert res["idempotency"] and res["resolution_of_identity"]
    assert res["adjacency_expansion"]


@pytest.mark.parametrize("kind", ["affine_lines", "affine_hyperplanes"])
def test_bose_mesner_flags_perturbed_tables(kind):
    d, make = ((3, line_scheme) if kind == "affine_lines"
               else (2, hyperplane_scheme))
    ok, p = scheme_axioms_bruteforce(relation_matrix(AG32, kind), d)
    assert ok
    bad_p = make(3, 2)
    bad_p.P[1][1] += 1
    res = verify_bose_mesner(p, bad_p)
    assert res["idempotency"] and res["resolution_of_identity"]
    assert not res["adjacency_expansion"]
    bad_q = make(3, 2)
    bad_q.Q[1][1] += 1
    res = verify_bose_mesner(p, bad_q)
    assert not res["idempotency"]
    assert not res["resolution_of_identity"]
    assert not res["adjacency_expansion"]


def test_e0_is_all_ones_projector():
    rel = relation_matrix(AG32)
    tables = line_scheme(3, 2)
    n0, d0 = idempotents_scaled(rel, tables.Q, tables.size)[0]
    assert (n0 == n0[0, 0]).all() and n0[0, 0] * 28 == d0


def test_b2_e3_eigen_relation():
    # B_2 E_3 = P[3][2] E_3 with P[3][2] = q^(n-1) - 1
    rel = relation_matrix(AG32)
    tables = line_scheme(3, 2)
    n3, d3 = idempotents_scaled(rel, tables.Q, tables.size)[3]
    b2 = (rel == 2).astype(np.int64)
    assert np.array_equal(b2 @ n3, int(tables.P[3][2]) * n3)
    assert int(tables.P[3][2]) == 3


def test_inner_distributions():
    pen = point_pencil(AG32, (1, 0, 0, 0), 1)
    assert inner_distribution(pen) == [1, 6, 0, 0]
    t2 = spread_kset(AG32, all_type_II_spreads(AG32, 1)[0])
    assert inner_distribution(t2) == [1, 0, 3, 0]
    t3 = spread_kset(AG32, first_type_iii_plus(AG32))
    assert inner_distribution(t3) == [1, 0, 1, 2]
    with pytest.raises(EmptySet):
        inner_distribution(empty_kset(AG32, 1))


def test_inner_distribution_refuses_mismatched_kind():
    lines = point_pencil(AG32, (1, 0, 0, 0), 1)
    with pytest.raises(geometry.DimensionOutOfRange):
        inner_distribution(lines, "affine_hyperplanes")
    planes = point_pencil(AG32, (1, 0, 0, 0), 2)
    with pytest.raises(geometry.DimensionOutOfRange):
        inner_distribution(planes, "affine_lines")


def test_inner_distribution_closed_forms_general():
    for n, q in [(3, 2), (3, 3), (4, 2)]:
        space = ambient(n, q, "affine")
        pen = point_pencil(space, space.points[0], 1)
        assert inner_distribution(pen) == \
            [1, Fraction(q**n - q, q - 1), 0, 0]
        t2 = spread_kset(space, all_type_II_spreads(space, 1)[0])
        assert inner_distribution(t2) == [1, 0, q ** (n - 1) - 1, 0]
        t3 = spread_kset(space, first_type_iii_plus(space))
        assert inner_distribution(t3) == \
            [1, 0, q ** (n - 2) - 1, q ** (n - 1) - q ** (n - 2)]


@pytest.mark.parametrize("q", [2, 3])
def test_inner_distribution_matches_pair_classifier(q):
    space = ambient(3, q, "affine")
    lines = space.spaces(1)
    rng = random.Random(q)
    sets = [point_pencil(space, space.points[1], 1),
            spread_kset(space, all_type_II_spreads(space, 1)[-1]),
            spread_kset(space, sample_type_III_spreads(space, 1, 1, q)[0]),
            kset_from_indices(space, 1, rng.sample(range(len(lines)), 15))]
    for l in sets:
        counts = [0, 0, 0, 0]
        for a in sorted(l.members):
            for b in sorted(l.members):
                counts[classify_line_pair(space, lines[a], lines[b])] += 1
        assert inner_distribution(l) == [Fraction(c, l.size) for c in counts]


def test_eigenspace_profiles():
    pen = point_pencil(AG32, (1, 0, 0, 0), 1)
    assert eigenspace_profile(pen) == {0, 1}
    t2 = spread_kset(AG32, all_type_II_spreads(AG32, 1)[0])
    assert eigenspace_profile(t2) == {0, 3}
    t3 = spread_kset(AG32, first_type_iii_plus(AG32))
    assert eigenspace_profile(t3) == {0, 2, 3}


def test_u_dot_q_matches_projector_vanishing():
    rel = relation_matrix(AG32)
    tables = line_scheme(3, 2)
    ems = idempotents_scaled(rel, tables.Q, tables.size)
    for l in (point_pencil(AG32, (1, 1, 0, 0), 1),
              spread_kset(AG32, all_type_II_spreads(AG32, 1)[2]),
              kset_from_indices(AG32, 1, [0, 4, 9, 12, 20])):
        chi = l.chi().astype(np.int64)
        uq = u_dot_q(l, tables)
        for j, (nj, _) in enumerate(ems):
            assert (uq[j] == 0) == (not (nj @ chi).any())


def test_hyperplane_scheme_tables():
    t = hyperplane_scheme(3, 2)
    assert t.size == 14
    assert t.valencies == [1, 1, 12]
    assert [int(v) for v in t.Q[0]] == [1, 6, 7]
    rel = relation_matrix(AG32, "affine_hyperplanes")
    ok, p = scheme_axioms_bruteforce(rel, 2)
    assert ok
    res = verify_bose_mesner(p, t)
    assert res["idempotency"] and res["adjacency_expansion"]


def test_hyperplane_inner_distributions():
    t2 = all_type_II_spreads(AG32, 2)[0]
    s = spread_kset(AG32, t2)
    assert inner_distribution(s) == [1, 1, 0]      # (1, q-1, 0)
    assert eigenspace_profile(s) == {0, 1}
    pen = point_pencil(AG32, (1, 0, 0, 0), 2)
    assert inner_distribution(pen) == [1, 0, 6]    # (1, 0, (q^n-1)/(q-1)-1)
    assert eigenspace_profile(pen) == {0, 2}


@pytest.mark.parametrize("n,q", [(3, 2), (3, 3), (4, 2)])
def test_hyperplane_adjudication(n, q):
    space = ambient(n, q, "affine")
    adopted = hyperplane_eigenmatrix_closed(n, q)
    mats = intersection_matrices_bruteforce(space, "affine_hyperplanes")
    brute = align_rows_to(adopted, eigenmatrix_bruteforce(mats))
    assert np.array_equal(brute, adopted)
    rep = hyperplane_adjudication(n, q, brute)
    for entry in rep["entries"]:
        assert entry["adopted"]["valency_row_sum"]
        assert entry["adopted"]["orthogonality"]
        assert entry["adopted"]["matches_brute_force"]
        assert not entry["variant"]["orthogonality"]
        assert not entry["variant"]["matches_brute_force"]


def test_scheme_report_no_diff():
    rep = scheme_report(3, 2, "affine_lines", brute_force=True)
    assert rep["brute_force"]["diff"] == []
    assert rep["brute_force"]["axioms"]
    assert rep["orthogonality"]
    rep2 = scheme_report(3, 2, "affine_hyperplanes", brute_force=True)
    assert rep2["brute_force"]["diff"] == []
    assert rep2["adjudication"]["brute_force_available"]


@pytest.mark.parametrize("kind", ["affine_lines", "affine_hyperplanes"])
def test_scheme_report_counts_triples_once(monkeypatch, kind):
    calls = {"triples": 0, "relation": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(_kernels, "triple_counts",
                        counted("triples", _kernels.triple_counts))
    monkeypatch.setattr(scheme, "relation_matrix",
                        counted("relation", scheme.relation_matrix))
    rep = scheme_report(3, 2, kind, brute_force=True)
    assert rep["brute_force"]["diff"] == []
    assert calls == {"triples": 1, "relation": 1}


@pytest.mark.parametrize("n,q", [(3, 2), (3, 3), (4, 2), (5, 2)])
@pytest.mark.parametrize("kind", ["affine_lines", "affine_hyperplanes"])
def test_product_table_covers_all_but_identity_and_largest(monkeypatch,
                                                           n, q, kind):
    # I gives the digit matrix and the largest relation follows from
    # sum_l A_l = J; every other relation gets a clique cover, so the
    # library path takes no dense product
    seen = []

    def capture(rel, d, covers=None):
        seen.append((rel, d, covers))
        return triple_counts(rel, d, covers)

    triple_counts = _kernels.triple_counts
    monkeypatch.setattr(_kernels, "triple_counts", capture)
    p = scheme._product_table(ambient(n, q, "affine"), kind)
    ((rel, d, covers),) = seen
    counts = np.bincount(rel.ravel())
    assert (np.diagonal(rel) == 0).all() and counts[0] == len(rel)
    assert counts[d] == counts.max()
    assert sorted(covers) == list(range(1, d))
    assert np.array_equal(p, triple_counts(rel, d)[1])


def test_scheme_report_no_diff_on_ag35_lines():
    # 775 lines; AG(4,3) (1080 lines) is acceptance criterion 1
    rep = scheme_report(3, 5, "affine_lines", brute_force=True)
    assert rep["brute_force"]["diff"] == []
    assert all(rep["brute_force"]["bose_mesner"].values())


def test_scheme_report_reads_the_environment_guard(monkeypatch):
    # the environment guard refuses the 28^2 relation matrix
    monkeypatch.setenv("CLAG_SIZE_GUARD", "100")
    rep = scheme_report(3, 2, brute_force=True)
    assert rep["brute_force"] == {"skipped": "size guard (28^2 > 100)"}
    with pytest.raises(SizeGuard):
        relation_matrix(AG32)


def test_scheme_report_guard_path():
    rep = scheme_report(5, 4, "affine_lines", brute_force=True)
    assert "skipped" in rep["brute_force"]


def test_type_iii_plus_span():
    # the type III+ spread vectors span V0 + V2 + V3 and are killed by E_1
    rel = relation_matrix(AG32)
    tables = line_scheme(3, 2)
    ems = idempotents_scaled(rel, tables.Q, tables.size)
    vecs = []
    for s in all_type_III_spreads(AG32, 1):
        if s.type_tag != "III+":
            continue
        chi = spread_kset(AG32, s).chi().astype(np.int64)
        assert not (ems[1][0] @ chi).any()
        vecs.append(chi)
    assert len(vecs) == 42
    dim = 1 + tables.Q[0][2] + tables.Q[0][3]
    assert bareiss_rank(np.array(vecs)) == dim == 21


def test_point_pencils_span_v0_v1():
    # the q^n pencil vectors are independent and killed by E_2 and E_3
    rel = relation_matrix(AG32)
    tables = line_scheme(3, 2)
    ems = idempotents_scaled(rel, tables.Q, tables.size)
    vecs = []
    for p in AG32.points:
        chi = point_pencil(AG32, p, 1).chi().astype(np.int64)
        for j in (2, 3):
            assert not (ems[j][0] @ chi).any()
        vecs.append(chi)
    assert bareiss_rank(np.array(vecs)) == 8  # = 1 + Q[0][1]


def test_type_ii_spread_vectors_span_v0_v3():
    rel = relation_matrix(AG32)
    tables = line_scheme(3, 2)
    ems = idempotents_scaled(rel, tables.Q, tables.size)
    vecs = []
    for s in all_type_II_spreads(AG32, 1):
        chi = spread_kset(AG32, s).chi().astype(np.int64)
        for j in (1, 2):
            assert not (ems[j][0] @ chi).any()
        vecs.append(chi)
    assert len(vecs) == 7  # (q^n-1)/(q-1)
    assert bareiss_rank(np.array(vecs)) == 7
