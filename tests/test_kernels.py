"""Every numpy kernel must agree bit for bit with its plain-Python
reference loop in `oracle`."""

import random
from functools import cache

import numpy as np
import pytest

from clag import _kernels
from clag.galois import make_field
from clag.geometry import ambient
from clag.scheme import relation_matrix

import oracle


def _random_gf_matrix(rng, field, rows, cols):
    return np.array([[rng.randrange(field.q) for _ in range(cols)]
                     for _ in range(rows)], dtype=np.int64)


@pytest.mark.parametrize("q,h", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_rref_paths_agree(q, h):
    f = make_field(q, h)
    rng = random.Random(17)
    for _ in range(30):
        m = _random_gf_matrix(rng, f, rng.randrange(1, 5), rng.randrange(1, 7))
        a = m.copy()
        rk_np = _kernels.gf_rref(a, f.add_table, f.mul_table,
                                 f.neg_table, f.inv_table)
        b = m.copy()
        rk = oracle.gf_rref(b, f.add_table, f.mul_table, f.neg_table,
                            f.inv_table)
        assert rk_np == rk
        assert np.array_equal(a, b)


def test_rref_is_canonical_idempotent():
    f = make_field(3, 1)
    rng = random.Random(3)
    for _ in range(20):
        m = _random_gf_matrix(rng, f, 3, 5)
        a = m.copy()
        rank = _kernels.gf_rref(a, f.add_table, f.mul_table,
                                f.neg_table, f.inv_table)
        b = a.copy()
        rank2 = _kernels.gf_rref(b, f.add_table, f.mul_table,
                                 f.neg_table, f.inv_table)
        assert rank == rank2 and np.array_equal(a, b)


def test_combinations_paths_agree():
    f = make_field(2, 2)
    rng = random.Random(9)
    coeffs = _random_gf_matrix(rng, f, 11, 3)
    basis = _random_gf_matrix(rng, f, 3, 6)
    out_np = _kernels.gf_combinations(coeffs, basis, f.add_table, f.mul_table)
    assert np.array_equal(out_np, oracle.gf_combinations(
        coeffs, basis, f.add_table, f.mul_table))
    # spot-check one combination by hand
    i = 4
    acc = np.zeros(6, dtype=np.int64)
    for t in range(3):
        for j in range(6):
            acc[j] = oracle.gf_add(f, int(acc[j]), oracle.gf_mul(
                f, int(coeffs[i, t]), int(basis[t, j])))
    assert np.array_equal(out_np[i], acc)


def test_combinations_on_a_stack_of_bases():
    f = make_field(3, 1)
    rng = random.Random(4)
    coeffs = _random_gf_matrix(rng, f, 7, 2)
    bases = [_random_gf_matrix(rng, f, 2, 5) for _ in range(4)]
    out = _kernels.gf_combinations(coeffs, np.array(bases), f.add_table,
                                   f.mul_table)
    for got, basis in zip(out, bases):
        assert np.array_equal(got, oracle.gf_combinations(
            coeffs, basis, f.add_table, f.mul_table))


def test_triple_counts_paths_agree():
    rel = relation_matrix(ambient(3, 2, "affine"))
    ok_np, p_np = _kernels.triple_counts(rel, 3)
    assert ok_np
    ok, p = oracle.triple_counts(np.ascontiguousarray(rel), 3)
    assert ok and np.array_equal(p_np, p)



def _geometry_covers(space, kind):
    """The clique covers a geometry gives by hand: the pencils at
    infinity for the parallel relation and, for lines, the point pencils
    for meeting in a point."""
    if kind == "affine_lines":
        return {1: space.point_pencils(1),
                2: np.stack(space.infinity_pencils(1)[1])}
    return {1: np.stack(space.infinity_pencils(space.n - 1)[1])}


@cache
def _reference(n, q, kind):
    rel = relation_matrix(ambient(n, q, "affine"), kind)
    return oracle.triple_counts(rel, int(rel.max()))


GEOMETRIES = [(n, q, kind) for n, q in [(3, 2), (3, 3), (4, 2)]
              for kind in ("affine_lines", "affine_hyperplanes")]


@pytest.mark.parametrize("n,q,kind", GEOMETRIES)
def test_triple_counts_from_covers_match_reference(n, q, kind):
    space = ambient(n, q, "affine")
    rel = relation_matrix(space, kind)
    ok, p = _kernels.triple_counts(rel, int(rel.max()),
                                   _geometry_covers(space, kind))
    ok_ref, p_ref = _reference(n, q, kind)
    assert ok and ok_ref and np.array_equal(p, p_ref)


def _swap_one_member(cover):
    # exchange one member of the first clique with a member of another
    # clique that does not already hold it: every element still occurs
    # equally often
    bad = np.array(cover)
    a = bad[0, 0]
    row, col = next((r, c) for r in range(1, len(bad)) if a not in bad[r]
                    for c in range(bad.shape[1]) if bad[r, c] not in bad[0])
    bad[0, 0], bad[row, col] = bad[row, col], a
    return bad


def _bad_covers(space, kind, d):
    # relation 1's cover spoilt in each way, beside the others' good ones
    covers = _geometry_covers(space, kind)
    cover = covers[1]
    rest = {i: c for i, c in covers.items() if i != 1}
    yield "swapped member", {**rest, 1: _swap_one_member(cover)}
    yield "wrong relation", {**rest, d: cover}
    # the relation with the most cells is derived from sum_l A_l = J
    # when all are covered, so only the check on every cell sees this
    yield "wrong cover of the derived relation", {**covers, d: cover}
    yield "unequal occurrences", {**rest, 1: cover[1:]}
    yield "not an integer array", {**rest, 1: cover.astype(float)}
    yield "one-dimensional", {**rest, 1: cover.ravel()}
    yield "element out of range", {**rest, 1: cover + 1}
    yield "relation out of range", {**covers, 7: cover}


@pytest.mark.parametrize("n,q,kind", GEOMETRIES)
def test_triple_counts_refuse_wrong_covers_without_raising(n, q, kind):
    space = ambient(n, q, "affine")
    rel = relation_matrix(space, kind)
    d = int(rel.max())
    p_ref = _kernels.triple_counts(rel, d)[1]
    for what, covers in _bad_covers(space, kind, d):
        ok, p = _kernels.triple_counts(rel, d, covers)
        assert not ok, what
        # p is read from rel alone, at the first pair of each relation
        assert np.array_equal(p, p_ref), what


def test_triple_counts_check_a_cover_on_every_cell():
    # rows 0 and 1 are equal, so D = 2^(b rel) is singular: the clique
    # {0, 1} gives M^T M - I = J - I != A_1, yet the same A_1 D
    rel = np.array([[0, 1], [0, 1]], dtype=np.int8)
    assert _kernels.triple_counts(rel, 1)[0]
    assert not _kernels.triple_counts(rel, 1, {1: np.array([[0, 1]])})[0]


@pytest.mark.parametrize("kind", ["affine_lines", "affine_hyperplanes"])
def test_triple_counts_from_covers_reject_perturbed_relations(kind):
    space = ambient(3, 3, "affine")
    rel = relation_matrix(space, kind).copy()
    d = int(rel.max())
    covers = _geometry_covers(space, kind)
    assert _kernels.triple_counts(rel, d, covers)[0]
    # swap one symmetric pair of relation 1 with one of relation d
    a, b = map(int, np.argwhere(rel == 1)[0])
    c, e = map(int, np.argwhere(rel == d)[0])
    rel[a, b] = rel[b, a] = d
    rel[c, e] = rel[e, c] = 1
    ok, p = _kernels.triple_counts(rel, d, covers)
    ok_ref, p_ref = oracle.triple_counts(rel, d)
    assert not ok and not ok_ref and np.array_equal(p, p_ref)


def _random_relation(rng, x, d, symmetric, zero_diagonal):
    rel = rng.integers(0, d + 1, size=(x, x))
    if symmetric:
        rel = np.triu(rel) + np.triu(rel, 1).T
    if zero_diagonal:
        np.fill_diagonal(rel, 0)
    return rel.astype(np.int8)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("zero_diagonal", [True, False])
def test_triple_counts_match_reference_on_random_relations(d, symmetric,
                                                           zero_diagonal):
    rng = np.random.default_rng(100 * d + 10 * symmetric + zero_diagonal)
    for trial in range(25):
        rel = _random_relation(rng, int(rng.integers(2, 12)), d, symmetric,
                               zero_diagonal)
        if trial % 5 == 0:
            rel[rel == d] = 0  # relation d is empty
        ok_np, p_np = _kernels.triple_counts(rel, d)
        ok, p = oracle.triple_counts(rel, d)
        assert ok_np == ok
        # both read p at the first pair of each relation in row-major order
        assert np.array_equal(p_np, p)


def test_triple_counts_on_schemes_with_identity_and_largest_relation():
    # constant p on genuine schemes: a relation equal to I, and the
    # largest relation, are both present and derived without a pass
    for kind in ("affine_lines", "affine_hyperplanes"):
        rel = relation_matrix(ambient(3, 3, "affine"), kind)
        ok_np, p_np = _kernels.triple_counts(rel, int(rel.max()))
        ok, p = _reference(3, 3, kind)
        assert ok_np and ok and np.array_equal(p_np, p)


def test_triple_counts_reject_perturbed_line_relation():
    rel = relation_matrix(ambient(3, 3, "affine")).copy()
    assert _kernels.triple_counts(rel, 3)[0]
    # swap one symmetric pair of relation 1 with one of relation 3
    a, b = map(int, np.argwhere(rel == 1)[0])
    c, e = map(int, np.argwhere(rel == 3)[0])
    rel[a, b] = rel[b, a] = 3
    rel[c, e] = rel[e, c] = 1
    ok_np, _ = _kernels.triple_counts(rel, 3)
    ok, _ = oracle.triple_counts(rel, 3)
    assert not ok_np and not ok


def _cyclic_scheme(x, labels):
    # the thin scheme of Z_x: (a, c) is in relation labels[(c - a) % x]
    steps = (np.arange(x)[None, :] - np.arange(x)[:, None]) % x
    return np.asarray(labels, dtype=np.int8)[steps]


@pytest.mark.parametrize("d", [12, 13])
def test_triple_counts_match_reference_across_digit_groups(d):
    # 8 <= |X| <= 15 gives 4-bit digits, so 13 relations fill one 52-bit
    # group and a 14th starts a second
    assert 13 * 4 <= 53 < 14 * 4
    rng = np.random.default_rng(d)
    for trial in range(4):
        rel = _random_relation(rng, int(rng.integers(8, 13)), d,
                               symmetric=bool(trial % 2),
                               zero_diagonal=trial < 2)
        ok_np, p_np = _kernels.triple_counts(rel, d)
        ok, p = oracle.triple_counts(rel, d)
        assert ok_np == ok and np.array_equal(p_np, p)
    # on 14 points: the thin scheme, constant in both groups, and with
    # one cell of relation 13 swapped with one of relation 12; for d = 12,
    # I merged with the step 13, which is not a scheme
    labels = rng.permutation(14)[:d + 1] if d == 13 else np.arange(14) % 13
    rel = _cyclic_scheme(14, labels)
    ok_np, p_np = _kernels.triple_counts(rel, d)
    ok, p = oracle.triple_counts(rel, d)
    assert ok_np == ok and np.array_equal(p_np, p)
    assert ok_np == (d == 13)
    if d == 13:
        a, b = map(int, np.argwhere(rel == 13)[0])
        c, e = map(int, np.argwhere(rel == 12)[1])
        rel[a, b], rel[c, e] = 12, 13
        ok_np, p_np = _kernels.triple_counts(rel, d)
        ok, p = oracle.triple_counts(rel, d)
        assert not ok_np and not ok and np.array_equal(p_np, p)


def test_triple_counts_with_largest_relation_tied_at_a_lower_index():
    rng = np.random.default_rng(7)
    for counts in ([10, 20, 14, 20], [18, 10, 18, 18], [22, 21, 21, 0]):
        cells = np.repeat(np.arange(4), counts)
        for _ in range(5):
            rel = rng.permutation(cells).reshape(8, 8).astype(np.int8)
            ok_np, p_np = _kernels.triple_counts(rel, 3)
            ok, p = oracle.triple_counts(rel, 3)
            assert ok_np == ok and np.array_equal(p_np, p)
    # AG(3,2) lines: relations 1 and 3 both have 336 of the 784 pairs
    rel = relation_matrix(ambient(3, 2, "affine"))
    assert np.count_nonzero(rel == 1) == np.count_nonzero(rel == 3) == 336
    assert _kernels.triple_counts(rel, 3)[0]


def test_triple_counts_without_an_identity_class():
    # (a, c) -> (a + c) % x: every relation is a permutation, none is I
    x = 9
    rel = ((np.arange(x)[:, None] + np.arange(x)[None, :]) % x).astype(np.int8)
    ok_np, p_np = _kernels.triple_counts(rel, x - 1)
    ok, p = oracle.triple_counts(rel, x - 1)
    assert not ok and ok_np == ok and np.array_equal(p_np, p)
    # Z_9 with I labelled last, and with I merged into the class of +-1
    for labels in (np.roll(np.arange(x), 1), [0, 0, 1, 2, 3, 3, 2, 1, 0]):
        rel = _cyclic_scheme(x, labels)
        d = int(rel.max())
        ok_np, p_np = _kernels.triple_counts(rel, d)
        ok, p = oracle.triple_counts(rel, d)
        assert ok_np == ok and np.array_equal(p_np, p)
