import random
from fractions import Fraction

import numpy as np
import pytest

from clag import exact
from clag.clsets import is_cameron_liebler, point_pencil
from clag.classify import _Tableau
from clag.geometry import DimensionOutOfRange, SizeGuard, ambient
from clag.incidence import (IncidenceMatrix, LengthMismatch, NotADesign,
                            build_incidence, certificate_to_json, meets)
from clag.spreads import all_type_II_spreads, restrict_to_affine, spread_type_I


def test_shapes_and_column_sums():
    A = build_incidence(ambient(3, 2, "affine"), 1)
    assert A.shape == (8, 28)
    assert set(A.matrix.sum(axis=0).tolist()) == {2}  # q^k points per line
    P = build_incidence(ambient(3, 2, "projective"), 1)
    assert P.shape == (15, 35)
    assert set(P.matrix.sum(axis=0).tolist()) == {3}  # (q^2-1)/(q-1)


def test_projective_block_structure():
    # affine rows/cols first, zero top-right, one-lower incidence bottom-right
    P = build_incidence(ambient(3, 2, "projective"), 1).matrix
    A = build_incidence(ambient(3, 2, "affine"), 1).matrix
    assert np.array_equal(P[:8, :28], A)
    assert not P[:8, 28:].any()
    P2 = build_incidence(ambient(2, 2, "projective"), 1).matrix
    assert np.array_equal(P[8:, 28:], P2)


def test_incidence_has_full_row_rank():
    # rank() reads the row count off the design; elimination checks it
    for n, q, mode, k in [(3, 2, "affine", 1), (3, 2, "projective", 1),
                          (3, 3, "affine", 1), (4, 2, "affine", 2)]:
        A = build_incidence(ambient(n, q, mode), k)
        assert exact.bareiss_rank(A.matrix) == A.rank() == A.shape[0]


def test_kernel_dimension():
    A = build_incidence(ambient(3, 2, "affine"), 1)
    kern = A.kernel_basis()
    assert kern.shape[0] == 20  # 28 - 8
    assert not (A.matrix.astype(np.int64) @ kern.T).any()


def test_membership_trivial_cases():
    A = build_incidence(ambient(3, 2, "affine"), 1)
    ok, cert = A.row_space_membership([0] * 28)
    assert ok and all(c == 0 for c in cert)
    row = A.matrix[3].tolist()
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
    vec = (A.matrix[0] + A.matrix[5]).tolist()
    ok, cert = A.row_space_membership(vec)
    assert ok and A.verify_certificate(cert, vec)


def test_membership_consistent_with_kernel_on_random_vectors():
    A = build_incidence(ambient(3, 2, "affine"), 1)
    rng = random.Random(31)
    from clag.exact import solve_left
    for _ in range(60):
        vec = [rng.randrange(2) for _ in range(28)]
        closed = A.in_row_space(vec)
        via_solve = solve_left(A.matrix.tolist(), vec) is not None
        assert closed == via_solve


def test_spread_difference_lies_in_kernel():
    space = ambient(3, 2, "affine")
    A = build_incidence(space, 1)
    spreads = all_type_II_spreads(space, 1)
    aff_type_I = restrict_to_affine(spread_type_I(3, 2, 1))
    spreads = spreads + [aff_type_I]
    for s1 in spreads:
        for s2 in spreads:
            diff = np.zeros(28, dtype=np.int64)
            diff[list(s1.member_indices())] += 1
            diff[list(s2.member_indices())] -= 1
            assert not (A.matrix.astype(np.int64) @ diff).any()


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
    space = ambient(3, 2, "affine")
    pencil = point_pencil(space, space.points[0], 1)
    assert is_cameron_liebler(pencil)[0]
    monkeypatch.setenv("CLAG_SIZE_GUARD", "10")
    message = "^8 x 28 incidence exceeds guard 10$"
    for query in (lambda: build_incidence(space, 1),
                  lambda: is_cameron_liebler(pencil),
                  lambda: space.incidence(1)):
        with pytest.raises(SizeGuard, match=message):
            query()


def test_one_incidence_buffer_per_space_and_k():
    # the Boolean matrix answers incidence questions; the one read-only
    # int64 matrix serves the design, membership and the search's tableau
    for space, k in ((ambient(3, 2, "affine"), 1),
                     (ambient(3, 3, "projective"), 1),
                     (ambient(4, 2, "affine"), 2)):
        inc = build_incidence(space, k)
        assert build_incidence(space, k) is inc
        assert inc.matrix.dtype == np.int64
        assert not inc.matrix.flags.writeable
        assert np.array_equal(inc.matrix, space.incidence(k).T)
        inc.design()
        assert build_incidence(space, k).matrix is inc.matrix
        assert _Tableau.start(inc.matrix).dirs.a is inc.matrix
        mine = inc.matrix.copy()  # a caller's writable matrix stays writable
        assert _Tableau.start(mine).dirs.a is not mine
        assert mine.flags.writeable


def test_certificate_export_format():
    space = ambient(3, 2, "affine")
    A = build_incidence(space, 1)
    ok, cert = A.row_space_membership(A.matrix[0].tolist())
    doc = certificate_to_json(space, cert)
    assert doc["1:0:0:0"] == "1/1"
    assert len(doc) == 8


def oracle_membership(A, vec):
    """The kernel-basis route: verdict from the rational kernel, then the
    certificate from a Fraction elimination."""
    kern = A.kernel_basis()
    if kern.shape[0] and exact.int_matvec(kern, np.asarray(vec)).any():
        return False, None
    return True, exact.solve_left(A.matrix.tolist(), [int(v) for v in vec])


@pytest.mark.parametrize("n,q,mode,k", [
    (3, 2, "affine", 1), (3, 3, "affine", 1), (3, 4, "affine", 1),
    (3, 3, "projective", 1), (4, 2, "affine", 2)])
def test_design_route_matches_kernel_route(n, q, mode, k):
    A = build_incidence(ambient(n, q, mode), k)
    m = A.matrix.astype(np.int64)
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


def test_design_parameters_are_counted():
    for (n, q, mode, k), rl in {(3, 2, "affine", 1): (7, 1),
                                (3, 3, "projective", 1): (13, 1),
                                (4, 2, "affine", 2): (35, 7)}.items():
        assert build_incidence(ambient(n, q, mode), k).design() == rl


@pytest.mark.parametrize("rows", [
    [[1, 1, 0], [0, 1, 1], [0, 0, 1]],   # unequal point degrees
    [[1, 1, 0, 0], [1, 0, 1, 0], [0, 0, 1, 1]],  # unequal pair counts
    [[1, 1], [1, 1]],                    # r = lambda: rank 1
])
def test_non_design_matrix_is_refused(rows):
    A = IncidenceMatrix(ambient(3, 2, "affine"), 1,
                        np.array(rows, dtype=np.int8))
    vec = [0] * len(rows[0])
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

    monkeypatch.setattr(exact, "solve_left", refuse)
    monkeypatch.setattr(exact, "row_echelon_rational", refuse)
    monkeypatch.setattr(IncidenceMatrix, "kernel_basis", refuse)
    l = point_pencil(space, space.points[5], 1)
    ok, cert = is_cameron_liebler(l)
    assert ok
    assert cert == [Fraction(int(i == 5)) for i in range(space.num_points)]


@pytest.mark.parametrize("n,q,mode,k", [(3, 2, "affine", 1),
                                        (3, 2, "projective", 1),
                                        (3, 3, "affine", 1),
                                        (4, 2, "affine", 2),
                                        (3, 3, "affine", 2)])
def test_meets_matches_shared_point_counts(n, q, mode, k):
    space = ambient(n, q, mode)
    m = space.incidence(k).T.astype(np.int64)
    rng = random.Random(n * 100 + q * 10 + k)
    for cols in (list(range(m.shape[1])),
                 sorted(rng.sample(range(m.shape[1]), 7)), []):
        shared = m.T @ m[:, cols]  # the integer product, as the oracle
        got = meets(space, k, cols)
        assert got.dtype == bool
        assert np.array_equal(got, shared > 0)
