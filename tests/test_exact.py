import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from clag import exact
from clag.classify import search_cl_ksets
from clag.geometry import ambient
from clag.incidence import IncidenceMatrix
from clag.scheme import scheme_report

import oracle


def frac_rank(matrix):
    """Independent oracle: rank by plain rational elimination."""
    rref, pivots = oracle.row_echelon_rational(matrix)
    return len(pivots)


def test_bareiss_rank_known():
    assert oracle.bareiss_rank([[1, 0], [0, 1]]) == 2
    assert oracle.bareiss_rank([[1, 2], [2, 4]]) == 1
    assert oracle.bareiss_rank([[0, 0], [0, 0]]) == 0
    assert oracle.bareiss_rank([[2, 3, 5], [7, 11, 13]]) == 2


def test_bareiss_matches_rational_elimination():
    rng = random.Random(11)
    for _ in range(40):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        m = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]
        assert oracle.bareiss_rank(m) == frac_rank(m)


def test_nullspace_is_exact_kernel():
    rng = random.Random(5)
    for _ in range(25):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 8)
        m = [[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)]
        basis = exact.nullspace_int(m)
        assert len(basis) == cols - oracle.bareiss_rank(m)
        for z in basis:
            for row in m:
                assert sum(a * b for a, b in zip(row, z)) == 0


def test_solve_left_certificate_exact():
    m = [[1, 0, 1, 1], [0, 1, 1, 0]]
    target = [2, 3, 5, 2]  # 2*row0 + 3*row1
    y = oracle.solve_left(m, target)
    assert y == [Fraction(2), Fraction(3)]
    assert oracle.solve_left(m, [1, 0, 0, 0]) is None


def test_solve_left_rational_solution():
    m = [[2, 0], [0, 3]]
    y = oracle.solve_left(m, [1, 1])
    assert y == [Fraction(1, 2), Fraction(1, 3)]


def independent_rows(rng, scale):
    """A random integer matrix of full row rank, by the oracle's rank,
    with entries below `scale` in size."""
    while True:
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 8)
        m = [[rng.randrange(-scale, scale + 1) for _ in range(cols)]
             for _ in range(rows)]
        if oracle.bareiss_rank(m) == rows:
            return m


def expected_elimination(m, j):
    """The step as `eliminate` documents it, on lists of Python ints."""
    r = next(i for i, row in enumerate(m) if row[j])
    c, out = m[r][j], [row[:] for row in m]
    for s, row in enumerate(m):
        if s != r and row[j]:
            new = [c * v - row[j] * w for v, w in zip(row, m[r])]
            g = 0
            for v in new:
                g = gcd(g, v)
            out[s] = [v // g for v in new]
    out[r] = out[-1]
    return r, c, out[:-1]


@pytest.mark.parametrize("guard", [None, 8])
def test_eliminate_matches_the_oracle(monkeypatch, guard):
    # a guard of 8 sends every step with an entry past 1 to Python ints
    if guard is not None:
        monkeypatch.setattr(exact, "INT64_GUARD", guard)
    rng = random.Random(23)
    for scale in [3] * 40 + [3**25] * 10:
        m = independent_rows(rng, scale)
        j = rng.choice([c for c in range(len(m[0])) if any(r[c] for r in m)])
        a = np.array(m, dtype=np.int64 if scale < 2**31 else object)
        before = a.copy()
        r, c, out = exact.eliminate(a, j, int(abs(a).max()))
        assert np.array_equal(a, before)  # a is not changed
        assert (r, c, out.tolist()) == expected_elimination(m, j)
        big = guard is not None and max(map(abs, before.ravel())) > 1
        assert (out.dtype == object) == (big or scale > 2**31)
        # out spans the row space of m cut with column j = 0
        rows = out.tolist()
        assert not any(row[j] for row in rows)
        assert oracle.bareiss_rank(rows) == len(rows) == len(m) - 1
        assert oracle.bareiss_rank(m + rows) == len(m)


def test_eliminate_one_row_leaves_none():
    r, c, out = exact.eliminate(np.array([[0, 3, 6]]), 1, 6)
    assert (r, c, out.shape) == (0, 3, (0, 3))


def same_span(a, b):
    rref = oracle.row_echelon_rational
    return rref(a)[0] == rref(b)[0]


@pytest.mark.parametrize("guard", [None, 8])
def test_nullspace_matches_the_oracle(monkeypatch, guard):
    if guard is not None:
        monkeypatch.setattr(exact, "INT64_GUARD", guard)
    rng = random.Random(41)
    for scale in [3] * 40 + [2**40] * 5:
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 9)
        m = [[rng.randrange(-scale, scale + 1) for _ in range(cols)]
             for _ in range(rows)]
        basis, ref = exact.nullspace_int(m), oracle.nullspace(m)
        assert len(basis) == len(ref)
        assert same_span(basis, ref)
        for z in basis:
            assert all(type(v) is int for v in z)
            assert next(v for v in z if v) > 0
            assert not any(sum(a * b for a, b in zip(row, z)) for row in m)
            g = 0
            for v in z:
                g = gcd(g, v)
            assert g == 1


def test_nullspace_of_empty_zero_and_full_rank_matrices():
    assert exact.nullspace_int([]) == [] == oracle.nullspace([])
    assert exact.nullspace_int([[], []]) == []
    zero = [[0, 0, 0], [0, 0, 0]]
    assert exact.nullspace_int(zero) == oracle.nullspace(zero) == [
        [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert exact.nullspace_int([[2, 1], [1, 1]]) == []
    assert exact.nullspace_int([[2, 1, 0], [1, 1, 0], [0, 0, 3]]) == []
    assert exact.nullspace_int([[1, 1]]) == [[1, -1]] == oracle.nullspace(
        [[1, 1]])


def test_only_kernel_basis_eliminates_over_the_integers(monkeypatch):
    # the search's tableau eliminates over GF(P) and the brute-force
    # scheme reads P off its product table: neither makes a call
    calls = []
    step = exact.eliminate

    def counting(*args):
        calls.append(args[1])
        return step(*args)

    monkeypatch.setattr(exact, "eliminate", counting)
    assert search_cl_ksets(3, 2, 1, 1)["solution_count"] == 8
    assert scheme_report(3, 2, brute_force=True)["brute_force"]["diff"] == []
    assert scheme_report(3, 2, "affine_hyperplanes",
                         brute_force=True)["brute_force"]["diff"] == []
    assert calls == []
    space = ambient(3, 2, "affine")
    kern = IncidenceMatrix(space, 1, space.point_lists(1)).kernel_basis()
    assert kern.shape == (20, 28)
    assert calls
