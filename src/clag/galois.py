"""Exact arithmetic in GF(q) for prime powers q = p^h.

Elements are encoded as integers 0..q-1: the base-p digits of the code,
little-endian, are the coefficients of a polynomial in the canonical
generator.  The reduction modulus for h > 1 is the lexicographically
least monic irreducible of degree h over GF(p), "least" meaning the
smallest integer encoding sum(c_i * p^i) of its non-leading
coefficients.  Fixing the modulus this way keeps element encodings, and
hence every canonical subspace form downstream, reproducible.

Fields are immutable after construction and safe to share; all
operations are pure.
"""

from __future__ import annotations

import numpy as np

MAX_ORDER = 2**16
TABLE_MAX = 512

__all__ = ["FiniteField", "make_field", "field_for_order", "embedding",
           "expansion_table", "NotPrime", "DegreeOutOfRange", "DivisionByZero"]


class NotPrime(ValueError):
    pass


class DegreeOutOfRange(ValueError):
    pass


class DivisionByZero(ZeroDivisionError):
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


def _poly_divmod(num: list[int], den: list[int], p: int):
    num = list(num)
    dd = len(den) - 1
    inv_lead = pow(den[-1], p - 2, p)
    quot = [0] * max(len(num) - dd, 0)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] * inv_lead % p
        if c:
            quot[i - dd] = c
            for j, dv in enumerate(den):
                num[i - dd + j] = (num[i - dd + j] - c * dv) % p
    while num and num[-1] == 0:
        num.pop()
    return quot, num


def _irreducible(p: int, h: int) -> tuple[int, ...]:
    """Least monic irreducible of degree h over GF(p), by trial division."""
    if h == 1:
        return (0, 1)
    # All monic polynomials of degree 1..h//2, reused for every candidate.
    divisors = []
    for d in range(1, h // 2 + 1):
        for code in range(p**d):
            digits = [(code // p**i) % p for i in range(d)]
            divisors.append(digits + [1])
    for code in range(p**h):
        cand = [(code // p**i) % p for i in range(h)] + [1]
        if cand[0] == 0:
            continue
        for div in divisors:
            _, rem = _poly_divmod(cand, div, p)
            if not rem:
                break
        else:
            return tuple(cand)
    raise AssertionError("no irreducible polynomial found")


class FiniteField:
    """Arithmetic tables for GF(p^h) with dense integer element codes."""

    def __init__(self, p: int, h: int):
        if not _is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if h < 1 or p**h > MAX_ORDER:
            raise DegreeOutOfRange(f"order {p}^{h} outside supported range")
        self.p = p
        self.h = h
        self.q = p**h
        self.modulus = _irreducible(p, h)
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
        if q > TABLE_MAX:
            self.add_table = None
            self.mul_table = None
            self.neg_table = None
            self.inv_table = None
            return
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
        # exp/log tables for the multiplicative group: the source of the
        # dense tables and of the scalar exp/log path.  Candidate 1 is
        # primitive only in GF(2), where exp = [1] and log = [0, 0].
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

    # ---- scalar operations -------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._encode([(x + y) % self.p
                             for x, y in zip(self._digits(a), self._digits(b))])

    def neg(self, a: int) -> int:
        return self._encode([(-d) % self.p for d in self._digits(a)])

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.exp[(int(self.log[a]) + int(self.log[b])) % (self.q - 1)])

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of 0")
        return int(self.exp[(-int(self.log[a])) % (self.q - 1)])

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e == 0:
            return 1
        if a == 0:
            return 0
        return int(self.exp[(int(self.log[a]) * e) % (self.q - 1)])

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
    """The field of order q, a prime power of at most TABLE_MAX.

    This is the field of a geometry: subspace operations index its dense
    tables, so larger orders are refused here.  make_field still builds
    larger fields (scalar arithmetic only), such as the extension field
    of a field-reduction spread."""
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


def embedding(sub: FiniteField, big: FiniteField) -> np.ndarray:
    """Field embedding GF(p^h) -> GF(p^{hm}) as a code-translation array.

    Maps the canonical generator of `sub` to the least root of its
    modulus inside `big`, so the embedding is deterministic.
    """
    if sub.p != big.p or big.h % sub.h != 0:
        raise DegreeOutOfRange(f"{sub} does not embed in {big}")
    if sub.h == 1:
        return np.arange(sub.q, dtype=np.int64)
    root = None
    for cand in range(big.q):
        acc = 0
        power = 1
        for coef in sub.modulus:
            if coef:
                acc = big.add(acc, big.mul(coef, power))
            power = big.mul(power, cand)
        if acc == 0:
            root = cand
            break
    if root is None:
        raise AssertionError("modulus has no root in the extension")
    emb = np.zeros(sub.q, dtype=np.int64)
    for a in range(sub.q):
        acc = 0
        power = 1
        for d in sub._digits(a):
            if d:
                acc = big.add(acc, big.mul(d, power))
            power = big.mul(power, root)
        emb[a] = acc
    return emb


def expansion_table(sub: FiniteField, big: FiniteField) -> np.ndarray:
    """Coordinates of every element of `big` over the image of `sub`,
    with respect to the basis 1, g, g^2, ... (g the canonical generator
    of `big`).  Shape (big.q, m) with entries encoded in `sub`."""
    m = big.h // sub.h
    emb = embedding(sub, big)
    g = big.p if big.h > 1 else 1  # code of the generator x
    basis = [1]
    for _ in range(m - 1):
        basis.append(big.mul(basis[-1], g))
    table = np.full((big.q, m), -1, dtype=np.int64)
    # enumerate all coordinate tuples; the map is a bijection
    coords = [0] * m
    for _ in range(sub.q**m):
        acc = 0
        for j in range(m):
            if coords[j]:
                acc = big.add(acc, big.mul(int(emb[coords[j]]), basis[j]))
        table[acc] = coords
        for j in range(m):
            coords[j] += 1
            if coords[j] < sub.q:
                break
            coords[j] = 0
    if (table < 0).any():
        raise AssertionError("expansion basis failed to span")
    return table
