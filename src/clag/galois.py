"""Exact arithmetic in GF(q) for prime powers q = p^h of at most 512.

Elements are encoded as integers 0..q-1: the base-p digits of the code,
little-endian, are the coefficients of a polynomial in x, and GF(p^h) is
GF(p)[x]/(modulus).  Every field is a table field: addition, negation,
multiplication and inversion are the dense tables `add_table`,
`neg_table`, `mul_table` and `inv_table`, built once, and every caller
indexes them.  Addition and negation act digit by digit.  The
multiplication table is a b = sum_i b_i (a x^i), each a x^i read by
`_times_x` (the companion matrix of the modulus, on GF(p)'s tables),
and 1/a is the column of the 1 in row a of that table.

One rule fixes every polynomial modulus: the least monic irreducible of
degree t over a table field GF(q), "least" meaning the smallest code
c_0 + c_1 q + ... + c_{t-1} q^(t-1) of its non-leading coefficients,
found by `_irreducible` (trial division on the tables).  Over GF(p) it
is the modulus of GF(p^h); over GF(q) it is the modulus f of
GF(q^t) = GF(q)[x]/(f), from which type I spreads are built by field
reduction with the same `_times_x`.  Fixing the modulus this way keeps
element encodings, and hence every canonical subspace form downstream,
reproducible.

Fields are immutable after construction and safe to share.
"""

from __future__ import annotations

import numpy as np

TABLE_MAX = 512

__all__ = ["FiniteField", "make_field", "field_for_order", "NotPrime",
           "DegreeOutOfRange"]


class NotPrime(ValueError):
    pass


class DegreeOutOfRange(ValueError):
    pass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _monic(q: int, t: int):
    """Every monic polynomial of degree t over GF(q), coefficient codes
    from degree 0 up, in the order of the code of the other
    coefficients."""
    for code in range(q**t):
        yield [code // q**i % q for i in range(t)] + [1]


def _divides(field: FiniteField, g: np.ndarray, f: list[int]) -> bool:
    """True iff the monic g divides f, by long division on the tables."""
    rem = np.array(f)
    d = len(g) - 1
    for i in range(len(f) - 1, d - 1, -1):
        rem[i - d:i + 1] = field.add_table[
            rem[i - d:i + 1], field.neg_table[field.mul_table[rem[i], g]]]
    return not rem[:d].any()


def _irreducible(field: FiniteField, t: int) -> tuple[int, ...]:
    """The least monic irreducible of degree t over `field`: the first
    candidate that no monic polynomial of degree 1..t//2 divides."""
    divisors = [np.array(g) for d in range(1, t // 2 + 1)
                for g in _monic(field.q, d)]
    return next(tuple(f) for f in _monic(field.q, t)
                if not any(_divides(field, g, f) for g in divisors))


def _times_x(field: FiniteField, f, v: np.ndarray) -> np.ndarray:
    """v C, C the companion matrix of the monic f over `field`: the
    coefficient vectors v (last axis) of elements of field[x]/(f), each
    times x."""
    shifted = np.roll(v, 1, axis=-1)
    shifted[..., 0] = 0
    # x^t = -(f_0 + f_1 x + ... + f_(t-1) x^(t-1))
    return field.add_table[shifted, field.mul_table[
        v[..., -1:], field.neg_table[np.array(f[:-1])]]]


class FiniteField:
    """Arithmetic tables for GF(p^h), p^h <= TABLE_MAX, with dense
    integer element codes."""

    def __init__(self, p: int, h: int):
        if not _is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if h < 1 or p**h > TABLE_MAX:
            raise DegreeOutOfRange(f"order {p}^{h} outside supported range")
        self.p = p
        self.h = h
        self.q = p**h
        self.modulus = (0, 1) if h == 1 else _irreducible(make_field(p), h)
        self._build_tables()

    def _build_tables(self):
        q, p = self.q, self.p
        powers = p ** np.arange(self.h)
        dig = np.arange(q)[:, None] // powers % p
        # one digit at a time: no (q, q, h) temporary
        self.add_table = np.zeros((q, q), dtype=np.int64)
        for col, w in zip(dig.T, powers):
            self.add_table += (col[:, None] + col) % p * w
        self.neg_table = (-dig % p) @ powers
        # a b = sum_i b_i (a x^i), a x^i by the companion matrix of the
        # modulus; column c p^i + r (r < p^i) is column r plus c (a x^i)
        scaled = (np.arange(p)[:, None, None] * dig % p) @ powers
        vec, mul = dig, np.zeros((q, 1), dtype=np.int64)
        for i in range(self.h):
            if i:
                vec = _times_x(make_field(p), self.modulus, vec)
            term = scaled[:, vec @ powers].T[:, :, None]
            mul = self.add_table[term, mul[:, None, :]].reshape(q, -1)
        self.mul_table = mul
        # row a of the table holds 1 in the column of 1/a alone
        self.inv_table = np.concatenate(([0], np.nonzero(mul == 1)[1]))

    def __repr__(self):
        return f"GF({self.q})" if self.h == 1 else f"GF({self.p}^{self.h})"

    def __eq__(self, other):
        return isinstance(other, FiniteField) and (self.p, self.h) == (other.p, other.h)

    def __hash__(self):
        return hash((self.p, self.h))


_CACHE: dict[tuple[int, int], FiniteField] = {}


def make_field(p: int, h: int = 1) -> FiniteField:
    key = (p, h)
    if key not in _CACHE:
        _CACHE[key] = FiniteField(p, h)
    return _CACHE[key]


def field_for_order(q: int) -> FiniteField:
    """The field of order q, a prime power of at most TABLE_MAX; a
    larger q is refused before it is factored."""
    if q < 2:
        raise DegreeOutOfRange(f"no field of order {q}")
    if q > TABLE_MAX:
        raise DegreeOutOfRange(f"order {q} exceeds {TABLE_MAX}")
    p = 2
    while p * p <= q:
        if q % p == 0:
            h = next(h for h in range(1, q) if p**h >= q)
            if p**h != q:
                raise NotPrime(f"{q} is not a prime power")
            return make_field(p, h)
        p += 1
    return make_field(q, 1)
