"""Exact arithmetic in GF(q) for prime powers q = p^h of at most 512.

Elements are encoded as integers 0..q-1: the base-p digits of the code,
little-endian, are the coefficients of a polynomial in the canonical
generator.  Every field is a table field: addition, negation,
multiplication and inversion are the dense tables `add_table`,
`neg_table`, `mul_table` and `inv_table`, built once from the field's
exp/log tables, and every caller indexes them.

One rule fixes every polynomial modulus: the least monic irreducible of
degree t over a table field GF(q), "least" meaning the smallest code
c_0 + c_1 q + ... + c_{t-1} q^(t-1) of its non-leading coefficients,
found by `_irreducible` (trial division on the tables).  Over GF(p) it
is the modulus of GF(p^h); over GF(q) it is the modulus f of
GF(q^t) = GF(q)[x]/(f), from which type I spreads are built by field
reduction.  Fixing the modulus this way keeps element encodings, and
hence every canonical subspace form downstream, reproducible.

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

    def _digits(self, a: int) -> list[int]:
        return [(a // self.p**i) % self.p for i in range(self.h)]

    def _encode(self, digits) -> int:
        return sum(int(d) % self.p * self.p**i for i, d in enumerate(digits))

    def _mul_poly(self, a: int, b: int) -> int:
        p, h = self.p, self.h
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * h - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        # reduce modulo the defining polynomial
        for i in range(len(prod) - 1, h - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(h):
                    prod[i - h + j] = (prod[i - h + j] - c * self.modulus[j]) % p
        return self._encode(prod[:h])

    def _build_tables(self):
        self._build_log()
        q, p = self.q, self.p
        powers = p ** np.arange(self.h)
        dig = np.arange(q)[:, None] // powers % p
        self.add_table = ((dig[:, None, :] + dig[None, :, :]) % p) @ powers
        self.neg_table = (-dig % p) @ powers
        # a b = g^(log a + log b) and 1/a = g^(-log a) for nonzero a, b
        log = self.log
        mul = self.exp[(log[:, None] + log[None, :]) % (q - 1)]
        mul[0, :] = 0
        mul[:, 0] = 0
        self.mul_table = mul
        inv = self.exp[-log % (q - 1)]
        inv[0] = 0
        self.inv_table = inv

    def _build_log(self):
        # exp/log tables for the multiplicative group, the source of the
        # multiplication and inversion tables.  Candidate 1 is primitive
        # only in GF(2), where exp = [1] and log = [0, 0].
        q = self.q
        for g in range(1, q):
            exp = [1]
            x = 1
            for _ in range(q - 1):
                x = self._mul_poly(x, g)
                exp.append(x)
                if x == 1:
                    break
            if len(exp) == q and exp[-1] == 1:
                self.exp = np.array(exp[:-1], dtype=np.int64)
                log = np.zeros(q, dtype=np.int64)
                for e, v in enumerate(exp[:-1]):
                    log[v] = e
                self.log = log
                self.generator = g
                return
        raise AssertionError("no primitive element found")

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
            h = 0
            m = q
            while m % p == 0:
                m //= p
                h += 1
            if m != 1:
                raise NotPrime(f"{q} is not a prime power")
            return make_field(p, h)
        p += 1
    return make_field(q, 1)
