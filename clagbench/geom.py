"""A small line geometry of AG(3, q) and PG(3, q), written for the
benchmark so that it can prove verdicts and check certificates without
clag's linear algebra.

Field elements use clag's codes: for a prime q the residues, for q = 4
the polynomial a0 + a1*t over GF(2) coded as a0 + 2*a1, reduced modulo
t^2 + t + 1.  Points are normalized homogeneous 4-tuples (first nonzero
coordinate 1), affine points have x0 = 1, and a line is reported by its
reduced row echelon basis, the form clag's k-set files use.
"""

from __future__ import annotations

import itertools


class Field:
    """GF(q) for a prime q or q = 4, by addition and multiplication tables."""

    def __init__(self, q: int):
        self.q = q
        if q == 4:
            def mul(a, b):
                # carry-less product, then t^2 = t + 1
                prod = 0
                for i in range(2):
                    if (b >> i) & 1:
                        prod ^= a << i
                if prod & 4:
                    prod ^= 0b111
                return prod
            self.add = [[a ^ b for b in range(q)] for a in range(q)]
            self.mul = [[mul(a, b) for b in range(q)] for a in range(q)]
        elif q >= 2 and all(q % d for d in range(2, q)):
            self.add = [[(a + b) % q for b in range(q)] for a in range(q)]
            self.mul = [[(a * b) % q for b in range(q)] for a in range(q)]
        else:
            raise ValueError(f"field of order {q} is not supported here")
        self.neg = [next(b for b in range(q) if self.add[a][b] == 0)
                    for a in range(q)]
        self.inv = [None] + [next(b for b in range(q) if self.mul[a][b] == 1)
                             for a in range(1, q)]

    def axpy(self, a: int, x, y):
        """a*x + y coordinatewise."""
        return tuple(self.add[self.mul[a][u]][v] for u, v in zip(x, y))

    def scale(self, a: int, x):
        return tuple(self.mul[a][u] for u in x)


def _canonical_key(rows):
    """Affine objects first (leading pivot in column 0), as clag orders them."""
    return next(i for i, u in enumerate(rows[0]) if u), rows


def normalize(field: Field, v) -> tuple[int, ...]:
    lead = next(u for u in v if u)
    return field.scale(field.inv[lead], v)


def rref(field: Field, rows) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon basis of the span of `rows`."""
    rows = [tuple(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        rows[rank] = field.scale(field.inv[rows[rank][col]], rows[rank])
        for i, r in enumerate(rows):
            if i != rank and r[col]:
                rows[i] = field.axpy(field.neg[r[col]], rows[rank], r)
        rank += 1
    return tuple(rows[:rank])


class Geometry:
    """The lines of AG(3, q) (mode "affine") or PG(3, q) ("projective")."""

    def __init__(self, q: int, mode: str):
        self.q = q
        self.mode = mode
        self.field = Field(q)
        f = self.field
        pg_points = sorted({normalize(f, v) for v in
                            itertools.product(range(q), repeat=4) if any(v)},
                           key=lambda p: _canonical_key((p,)))
        lines = {}
        for a, b in itertools.combinations(pg_points, 2):
            pts = frozenset([a] + [normalize(f, f.axpy(c, a, b))
                                   for c in range(q)])
            lines.setdefault(pts, None)
        if mode == "affine":
            self.points = [p for p in pg_points if p[0] == 1]
            lines = [pts for pts in lines if any(p[0] for p in pts)]
        elif mode == "projective":
            self.points = pg_points
            lines = list(lines)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        keep = set(self.points)
        entries = sorted(((rref(f, sorted(pts)[:2]), pts) for pts in lines),
                         key=lambda e: _canonical_key(e[0]))
        # each line as its point set within this geometry
        self.lines = [frozenset(pts & keep) for _, pts in entries]
        self.basis = {l: b for l, (b, _) in zip(self.lines, entries)}
        self.direction = {}
        if mode == "affine":
            for l, (_, pts) in zip(self.lines, entries):
                self.direction[l] = next(u for u in pts if u[0] == 0)

    def through(self, point) -> list[frozenset]:
        return [l for l in self.lines if point in l]

    def in_plane(self, normal) -> list[frozenset]:
        """Lines whose every point is orthogonal to the dual vector."""
        f = self.field

        def on(p):
            acc = 0
            for u, v in zip(normal, p):
                acc = f.add[acc][f.mul[u][v]]
            return acc == 0
        return [l for l in self.lines if all(on(p) for p in l)]

    def to_kset(self, members) -> dict:
        """clag k-set file for a set of lines."""
        return {"n": 3, "q": self.q, "k": 1, "mode": self.mode,
                "members": [[list(r) for r in self.basis[l]]
                            for l in sorted(members, key=self.lines.index)]}


# ---------------------------------------------------------------------------
# counting conditions every Cameron-Liebler line set satisfies
# ---------------------------------------------------------------------------

def affine_class_witness(geo: Geometry, members) -> dict | None:
    """A parallel class that does not carry exactly x members, where
    x = |L| / (q^2 + q + 1); None when every class carries x."""
    q = geo.q
    per_class = {}
    for l in geo.lines:
        per_class.setdefault(geo.direction[l], 0)
    for l in members:
        per_class[geo.direction[l]] += 1
    x, rem = divmod(len(members), q * q + q + 1)
    for d, count in sorted(per_class.items()):
        if rem or count != x:
            return {"direction": list(d), "count": count,
                    "x": f"{len(members)}/{q * q + q + 1}"}
    return None


def projective_skew_witness(geo: Geometry, members) -> dict | None:
    """A line l whose number of skew members differs from
    (x - chi(l)) q^2 with x = |L| / (q^2 + q + 1); None when none does."""
    q = geo.q
    members = set(members)
    size = len(members)
    for l in geo.lines:
        chi = 1 if l in members else 0
        skew = sum(1 for m in members if not (l & m))
        # (x - chi) q^2 with x = size / (q^2 + q + 1), denominator cleared
        lines_per_point = q * q + q + 1
        if skew * lines_per_point != (size - chi * lines_per_point) * q * q:
            return {"line": [list(r) for r in geo.basis[l]], "skew": skew,
                    "x": f"{size}/{lines_per_point}"}
    return None
