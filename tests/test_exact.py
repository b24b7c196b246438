import random
from fractions import Fraction

from clag import exact


def frac_rank(matrix):
    """Independent oracle: rank by plain rational elimination."""
    rref, pivots = exact.row_echelon_rational(matrix)
    return len(pivots)


def test_bareiss_rank_known():
    assert exact.bareiss_rank([[1, 0], [0, 1]]) == 2
    assert exact.bareiss_rank([[1, 2], [2, 4]]) == 1
    assert exact.bareiss_rank([[0, 0], [0, 0]]) == 0
    assert exact.bareiss_rank([[2, 3, 5], [7, 11, 13]]) == 2


def test_bareiss_matches_rational_elimination():
    rng = random.Random(11)
    for _ in range(40):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        m = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]
        assert exact.bareiss_rank(m) == frac_rank(m)


def test_nullspace_is_exact_kernel():
    rng = random.Random(5)
    for _ in range(25):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 8)
        m = [[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)]
        basis = exact.nullspace_int(m)
        assert len(basis) == cols - exact.bareiss_rank(m)
        for z in basis:
            for row in m:
                assert sum(a * b for a, b in zip(row, z)) == 0


def test_solve_left_certificate_exact():
    m = [[1, 0, 1, 1], [0, 1, 1, 0]]
    target = [2, 3, 5, 2]  # 2*row0 + 3*row1
    y = exact.solve_left(m, target)
    assert y == [Fraction(2), Fraction(3)]
    assert exact.solve_left(m, [1, 0, 0, 0]) is None


def test_solve_left_rational_solution():
    m = [[2, 0], [0, 3]]
    y = exact.solve_left(m, [1, 1])
    assert y == [Fraction(1, 2), Fraction(1, 3)]
