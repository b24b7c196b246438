import hashlib

import numpy as np
import pytest

from clag import galois
from clag.galois import (DegreeOutOfRange, NotPrime, TABLE_MAX, _irreducible,
                         _times_x, field_for_order, make_field)

import oracle

SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                (11, 1), (13, 1), (2, 4)]


@pytest.mark.parametrize("p,h", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, h):
    f = make_field(p, h)
    add, mul, neg, inv = f.add_table, f.mul_table, f.neg_table, f.inv_table
    e = np.arange(f.q)
    assert f.q <= 16
    assert (add[e, 0] == e).all() and (mul[e, 1] == e).all()
    assert (add[e, neg] == 0).all()
    assert (mul[e[1:], inv[1:]] == 1).all()
    assert (add == add.T).all() and (mul == mul.T).all()
    a, b, c = np.ix_(e, e, e)
    assert (add[add[a, b], c] == add[a, add[b, c]]).all()
    assert (mul[mul[a, b], c] == mul[a, mul[b, c]]).all()
    assert (mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]).all()


@pytest.mark.parametrize("p,h", SMALL_FIELDS)
def test_frobenius(p, h):
    f = make_field(p, h)
    e = np.arange(f.q)
    frob = e  # a -> a^p by the multiplication table
    for _ in range(p - 1):
        frob = f.mul_table[frob, e]
    assert frob.tolist() == [oracle.gf_pow(f, a, p) for a in range(f.q)]
    assert (frob[f.add_table] == f.add_table[frob[:, None], frob]).all()


def test_gf2_characteristic():
    assert make_field(2, 1).add_table[1, 1] == 0


def test_gf3_arithmetic():
    assert make_field(3, 1).mul_table[2, 2] == 1


def test_gf4_modulus_and_inverses():
    f = make_field(2, 2)
    # least irreducible of degree 2 over GF(2) is x^2 + x + 1
    assert f.modulus == (1, 1, 1)
    # the two non-identity units are mutual inverses
    assert f.mul_table[2, 3] == 1
    assert f.inv_table[2] == 3 and f.inv_table[3] == 2
    # multiplicative group has order 3
    for a in (1, 2, 3):
        assert f.mul_table[f.mul_table[a, a], a] == 1


def test_gf5_inverse():
    assert make_field(5).inv_table[2] == 3


def test_division_by_zero():
    # 0 has no inverse: the reference refuses it, the table holds 0
    f = make_field(5)
    with pytest.raises(ZeroDivisionError):
        oracle.gf_inv(f, 0)
    assert f.inv_table[0] == 0


def test_not_prime():
    with pytest.raises(NotPrime):
        make_field(6)
    with pytest.raises(NotPrime):
        field_for_order(12)


def test_degree_out_of_range():
    with pytest.raises(DegreeOutOfRange):
        make_field(2, 17)
    with pytest.raises(DegreeOutOfRange):
        make_field(2, 10)  # every field is a table field, q <= 512
    with pytest.raises(DegreeOutOfRange):
        make_field(2, 0)
    with pytest.raises(DegreeOutOfRange):
        field_for_order(521)
    with pytest.raises(DegreeOutOfRange):
        field_for_order(1024)


def test_field_for_order():
    assert field_for_order(8).h == 3
    assert field_for_order(9).p == 3
    assert field_for_order(7).q == 7


def test_no_field_modulus_moves(monkeypatch):
    # every element code, and so every canonical subspace, depends on
    # the modulus; the fields are built outside the shared cache and
    # dropped one by one, so their tables are never all held at once
    monkeypatch.setattr(galois, "_CACHE", {})
    checked = 0
    for p in filter(galois._is_prime, range(2, TABLE_MAX + 1)):
        for h in range(1, 10):
            if p**h > TABLE_MAX:
                break
            assert (field_for_order(p**h).modulus
                    == oracle.irreducible_mod_p(p, h)), (p, h)
            galois._CACHE.clear()
            checked += 1
    assert checked == 117  # 97 primes and 20 higher powers up to 512


def test_irreducible_over_an_extension_field():
    # x^2 + x + w, w the generator of GF(4), is the least irreducible of
    # degree 2 over GF(4): every x^2 + c has the root sqrt(c),
    # x^2 + x = x(x + 1), and x^2 + x + 1 = (x - w)(x - w^2)
    assert _irreducible(field_for_order(4), 2) == (2, 1, 1)
    assert _irreducible(field_for_order(7), 1) == (0, 1)


@pytest.mark.parametrize("p,h", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 9)])
def test_dense_tables_match_polynomial_arithmetic(p, h):
    # the reference multiplies digit polynomials mod the modulus
    f = make_field(p, h)
    q = f.q
    assert (f.mul_table == f.mul_table.T).all()
    for a in range(q):
        for b in range(a, q):
            assert f.mul_table[a, b] == oracle.gf_mul(f, a, b)
        assert f.neg_table[a] == oracle.gf_neg(f, a)
        if a:
            assert oracle.gf_mul(f, a, int(f.inv_table[a])) == 1
    assert f.inv_table[0] == 0


def test_no_field_table_moves(monkeypatch):
    # one digest over the four tables of every field of order <= 512,
    # in the order of test_no_field_modulus_moves
    monkeypatch.setattr(galois, "_CACHE", {})
    digest = hashlib.sha256()
    for p in filter(galois._is_prime, range(2, TABLE_MAX + 1)):
        for h in range(1, 10):
            if p**h > TABLE_MAX:
                break
            f = field_for_order(p**h)
            for table in (f.add_table, f.neg_table, f.mul_table, f.inv_table):
                digest.update(table.astype(np.int64).tobytes())
            galois._CACHE.clear()
    assert digest.hexdigest() == ("bae375e8be548456760a2493e4bb4d7d"
                                  "2185b3bf087de7a95f3dc6908f1d5b3e")


@pytest.mark.parametrize("q", [4, 8, 9])
@pytest.mark.parametrize("t", [2, 3])
def test_times_x_reduces_by_the_modulus(q, t):
    field = field_for_order(q)
    f = _irreducible(field, t)
    # every vector of GF(q)^t, as a stack of shape (q, q^(t-1), t)
    codes = np.arange(q**t)
    v = (codes[:, None] // q ** np.arange(t) % q).reshape(q, -1, t)
    got = _times_x(field, f, v)
    assert got.shape == v.shape
    rows = zip(v.reshape(-1, t).tolist(), got.reshape(-1, t).tolist())
    for row, out in rows:
        assert out == oracle.poly_mod(field, [0] + row, f)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_scalar_operations_match_dense_tables(q):
    # the reference takes the digit and polynomial paths, never the tables
    f = field_for_order(q)
    for a in range(q):
        assert oracle.gf_neg(f, a) == f.neg_table[a]
        for b in range(q):
            assert oracle.gf_add(f, a, b) == f.add_table[a, b]
            assert oracle.gf_mul(f, a, b) == f.mul_table[a, b]
            if b:
                assert f.mul_table[oracle.gf_div(f, a, b), b] == a
        if a:
            assert oracle.gf_inv(f, a) == f.inv_table[a]
            assert oracle.gf_pow(f, a, q - 1) == 1
