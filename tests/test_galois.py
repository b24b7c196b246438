import pytest

from clag.galois import (DegreeOutOfRange, DivisionByZero, NotPrime,
                         embedding, expansion_table, field_for_order,
                         make_field)

SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                (11, 1), (13, 1), (2, 4)]


@pytest.mark.parametrize("p,h", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, h):
    f = make_field(p, h)
    q = f.q
    assert q <= 16
    for a in range(q):
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in range(q):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in range(q):
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("p,h", SMALL_FIELDS)
def test_frobenius(p, h):
    f = make_field(p, h)
    for a in range(f.q):
        for b in range(f.q):
            lhs = f.pow(f.add(a, b), p) if f.add(a, b) else 0
            rhs = f.add(f.pow(a, p) if a else 0, f.pow(b, p) if b else 0)
            assert lhs == rhs


def test_gf2_characteristic():
    f = make_field(2, 1)
    assert f.add(1, 1) == 0


def test_gf3_arithmetic():
    f = make_field(3, 1)
    assert f.mul(2, 2) == 1


def test_gf4_modulus_and_inverses():
    f = make_field(2, 2)
    # least irreducible of degree 2 over GF(2) is x^2 + x + 1
    assert f.modulus == (1, 1, 1)
    # the two non-identity units are mutual inverses
    assert f.mul(2, 3) == 1
    assert f.inv(2) == 3 and f.inv(3) == 2
    # multiplicative group has order 3
    for a in (1, 2, 3):
        assert f.pow(a, 3) == 1


def test_gf5_inverse():
    assert make_field(5).inv(2) == 3


def test_division_by_zero():
    f = make_field(5)
    with pytest.raises(DivisionByZero):
        f.inv(0)


def test_not_prime():
    with pytest.raises(NotPrime):
        make_field(6)
    with pytest.raises(NotPrime):
        field_for_order(12)


def test_degree_out_of_range():
    with pytest.raises(DegreeOutOfRange):
        make_field(2, 17)
    with pytest.raises(DegreeOutOfRange):
        make_field(2, 0)
    with pytest.raises(DegreeOutOfRange):
        field_for_order(521)  # geometry needs dense tables, q <= 512
    with pytest.raises(DegreeOutOfRange):
        field_for_order(1024)


def test_field_for_order():
    assert field_for_order(8).h == 3
    assert field_for_order(9).p == 3
    assert field_for_order(7).q == 7


def test_embedding_is_homomorphism():
    f4 = make_field(2, 2)
    f16 = make_field(2, 4)
    emb = embedding(f4, f16)
    assert emb[0] == 0 and emb[1] == 1
    for a in range(4):
        for b in range(4):
            assert emb[f4.add(a, b)] == f16.add(int(emb[a]), int(emb[b]))
            assert emb[f4.mul(a, b)] == f16.mul(int(emb[a]), int(emb[b]))


def test_embedding_prime_field_is_identity():
    f2 = make_field(2, 1)
    f8 = make_field(2, 3)
    emb = embedding(f2, f8)
    assert list(emb) == [0, 1]


@pytest.mark.parametrize("p,h", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 9)])
def test_dense_tables_match_polynomial_arithmetic(p, h):
    # the tables come from exp/log; _mul_poly multiplies polynomials
    f = make_field(p, h)
    q = f.q
    assert (f.mul_table == f.mul_table.T).all()
    for a in range(q):
        for b in range(a, q):
            assert f.mul_table[a, b] == f._mul_poly(a, b)
        assert f.neg_table[a] == f._encode([-x for x in f._digits(a)])
        if a:
            assert f._mul_poly(a, int(f.inv_table[a])) == 1
    assert f.inv_table[0] == 0


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_scalar_operations_match_dense_tables(q):
    # the scalar methods take the digit and exp/log paths, never the tables
    f = field_for_order(q)
    for a in range(q):
        assert f.neg(a) == f.neg_table[a]
        for b in range(q):
            assert f.add(a, b) == f.add_table[a, b]
            assert f.mul(a, b) == f.mul_table[a, b]
        if a:
            assert f.inv(a) == f.inv_table[a]
    with pytest.raises(DivisionByZero):
        f.inv(0)


def test_gf2_exp_log_and_generator():
    f = make_field(2, 1)
    assert f.generator == 1
    assert f.exp.tolist() == [1]
    assert f.log.tolist() == [0, 0]


def test_large_field_without_dense_tables():
    # q = 1024 exceeds the dense-table bound; arithmetic falls back to
    # digit addition and exp/log multiplication
    f = make_field(2, 10)
    assert f.add_table is None and f.mul_table is None
    rng = __import__("random").Random(77)
    for _ in range(200):
        a, b = rng.randrange(f.q), rng.randrange(f.q)
        c = rng.randrange(f.q)
        assert f.mul(a, b) == f.mul(b, a) == f._mul_poly(a, b)
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        if a:
            assert f.mul(a, f.inv(a)) == 1
            assert f.div(f.mul(a, b), a) == b
    assert f.pow(f.generator, f.q - 1) == 1


def test_expansion_table_round_trip():
    f3 = make_field(3, 1)
    f9 = make_field(3, 2)
    tab = expansion_table(f3, f9)
    emb = embedding(f3, f9)
    g = f9.p
    for e in range(9):
        c0, c1 = (int(v) for v in tab[e])
        rebuilt = f9.add(int(emb[c0]), f9.mul(int(emb[c1]), g))
        assert rebuilt == e
