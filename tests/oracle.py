"""Reference implementations for the tests.

`gf_add`, `gf_neg`, `gf_mul`, `gf_inv`, `gf_div` and `gf_pow` are
scalar GF(q) arithmetic that reads no table of `clag.galois`: addition
and negation digit by digit, products by `_mul_poly` (the digit
polynomials multiplied and reduced modulo the field's modulus with
integers mod p), powers by repeated products and 1/a as a^(q-2).
`poly_mod` reduces a polynomial over GF(q) modulo a monic one by long
division on those scalars, the reference for `galois._times_x`.
`irreducible_mod_p` is the former search for the modulus of GF(p^h),
trial division by `_poly_divmod` with integers mod p; every field's
modulus must equal it.

`enumerate_rref_matrices` is the former enumeration of the reduced
echelon matrices, one tuple of rows at a time, and `canonical_bases`
the former canonical order read off it: every matrix as a `Subspace`,
sorted on `Subspace.key`; `AmbientSpace.bases(k)` and
`infinite_index(d).bases` must equal it.

`infinite_part` is a subspace's part at infinity: for an affine one,
the echelon rows below the first; the tests alone read it.

`point_pencil_members` is the members of `clsets.point_pencil` by its
former route: the k-spaces whose row of `point_lists(k)` holds the
point, one scan of the whole array per point.

`gf_rref`, `gf_combinations` and `triple_counts` are plain-Python
loops that the numpy kernels of `clag._kernels` must match bit for bit.

`point_sets` is `AmbientSpace.point_sets` by its former route, the
reference for `_kernels.gf_point_blocks` and the closed-form index:
every normalised coefficient row times each basis by
`_kernels.gf_combinations`, each point looked up in a dict on the
closure's `points`, the points outside the space dropped.

`dense_incidence` is M itself, the dense int64 points x k-spaces
matrix, filled in Python from `space_point_indices`.

`contains` decides containment independent of point sets: small lies
inside big iff adding its rows to big's does not grow the row space,
decided by GF(q) row reduction (`span` goes through `_kernels.gf_rref`);
the verdicts of the last 2^16 pairs asked are kept.

`State` and `assign` are the search's former state and assignment, so
that the references below share neither with the search: `assign` sets
one space (one already set must keep its value), counts and refuses a
pencil past its bounds, checks p[j] = val where j is forced and else
eliminates j from T by `_Directions.eliminated` with
p <- p - (p[j] - val) R mod P, and cascades a pencil that becomes full
or exact.

`combination_children` is the reference for `_Search._children`: one
clone per `itertools.combinations` choice of a pencil's unknown
members, each replaying the pencil's assignments one `assign` at a
time from the start.

`BuildEveryChildSearch` is the search without decided children: every
child of a value branch is a clone given its value by `assign`, the
children of a block step are those of `combination_children`, every
child is scanned on its own by the former sequential scan, and every
leaf re-sums its pencils.  The scan visits a state's unknown forced
columns in index order, re-reading the tableau after each assignment
through `assign`; after a cascade changes T it goes on with the
columns past the one just read, and passes again from the start while
a pass changed T.

`OneArrayTableau` is the search's former tableau: one integer array
holds T with p as its last row, and every assignment eliminates the
whole array, T included.

`random_affine_collineation` and `transport_type_III` map a type III
spread by an affine collineation, transporting its construction data
and rebuilding it with `spread_type_III`.

`member_spread_type_III` is `spread_type_III` by its former route:
the members as `Subspace` objects, put in canonical order by
`_sorted_members` and validated by `is_spread`, which recomputes every
member's points.  `mask_taus` and `mask_type_III_indices` decide
type III membership by GF(q) row reduction alone, with no point list
read: the (k-1)-spaces at infinity inside pi by `contains`, and the
members of each affine hyperplane h_i through pi as the k-spaces inside
h_i (by `contains`) among those through tau_i (`spaces_through`).

`drawn_type_III_spreads` is the type III family of
`spreads.type_III_keys` by its former route: pi drawn from
`infinite_subspaces(n-2)` and the choices from its `mask_taus`, as
`Subspace` objects, with the former repeat and stop rules; the
exhaustive list in product order when no count is given.  Each spread
is built by `spread_type_III`.

`keyed_type_III_spreads` builds the type III spreads named by rows of
a `spreads.type_III_keys` array through the public `spread_type_III`:
pi is `infinite_subspaces(n-2)[p]` and the choices its `mask_taus` at
the key's positions.  `parallel_classes` is every type II spread, by
`spread_type_II` over the (k-1)-spaces at infinity in canonical order.
`spread_counts` is |L meet S| for each spread S, read from the spread's
`member_indices()`, the counts that `clsets.check_spread_intersections`
takes.

`spaces_through` lists the affine k-spaces that contain a subspace at
infinity: each k-space's part at infinity is found by `meet` with the
hyperplane x0 = 0, and each such part is tested by `contains`.

`subspace_kset_from_json` is `kset_from_json` by its former route:
every member through `subspace_from_json`, none looked up first.

`project_through_infinite_subspace` is the projection by its former
route: per call, the canonical complement is searched again (the first
affine subspace with no `meet` with the axis), pi's points are mapped
to the target's one by one, and each member through the axis
(`spaces_through`) is cut with pi and looked up on its own.  It keeps
the former argument checks, which accept a projective set as if it were
affine.

`row_echelon_rational`, `bareiss_rank`, `nullspace` and `solve_left`
are plain-Python eliminations over `Fraction`s and Python ints, the
references for `clag.exact`: none of them calls `exact.eliminate`.

`meet` is the exact intersection of two subspaces by GF(q) elimination,
and `classify_line_pair` the relation of two lines read from it: the
references for the point-list gathers that answer every meet question
in the library.

`line_intersection_matrices`, `line_dual_eigenmatrix`,
`hyperplane_intersection_matrices` and `hyperplane_dual_eigenmatrix`
are the intersection matrices B_i[l, j] = p_ij^l and the dual
eigenvalue matrices Q typed in n and q, the references for the tables
that `clag.scheme` derives from the closed eigenvalue matrix P."""

import functools
import itertools
import random
from fractions import Fraction
from math import gcd

import numpy as np

from clag import _kernels, classify, exact
from clag.classify import _ENDGAME_DIM, _Contradiction, _Search
from clag.clsets import (DimensionViolation, KSet, NotSkew,
                         kset_from_subspaces)
from clag.geometry import (AmbientMismatch, AmbientSpace, Subspace, _int,
                           ambient, apply_matrix, make_subspace, span,
                           subspace_from_json)
from clag.spreads import (AllEqual, BadChoices, GeometryMismatch,
                          NotAtInfinity, Spread, _sorted_members,
                          is_spread, spread_type_II, spread_type_III)


def infinite_part(s: Subspace) -> Subspace | None:
    if not s.is_affine():
        return s
    if len(s.rows) == 1:
        return None
    return Subspace(s.n, s.q, s.rows[1:])


def enumerate_rref_matrices(ncols: int, nrows: int, q: int):
    for pivots in itertools.combinations(range(ncols), nrows):
        cells = [(i, j) for i, pc in enumerate(pivots)
                 for j in range(pc + 1, ncols) if j not in pivots]
        base = [[0] * ncols for _ in range(nrows)]
        for i, pc in enumerate(pivots):
            base[i][pc] = 1
        for values in itertools.product(range(q), repeat=len(cells)):
            for (i, j), v in zip(cells, values):
                base[i][j] = v
            yield tuple(tuple(r) for r in base)


def canonical_bases(n: int, q: int, nrows: int,
                    at_infinity: bool = False) -> np.ndarray:
    """The (nrows-1)-spaces of PG(n, q), or with at_infinity those of
    the hyperplane x0 = 0, as an int64 (count, nrows, n+1) array."""
    pad = (0,) if at_infinity else ()
    subs = sorted((Subspace(n, q, tuple(pad + r for r in rows))
                   for rows in enumerate_rref_matrices(n + 1 - len(pad),
                                                       nrows, q)),
                  key=Subspace.key)
    return np.array([s.rows for s in subs], dtype=np.int64).reshape(
        len(subs), nrows, n + 1)


def point_pencil_members(space: AmbientSpace, point: int, k: int) -> set:
    return set(np.flatnonzero(
        (space.point_lists(k) == point).any(axis=1)).tolist())


def dense_incidence(space: AmbientSpace, k: int) -> np.ndarray:
    pts = space.space_point_indices(k)
    m = np.zeros((space.num_points, len(pts)), dtype=np.int64)
    for j, points in enumerate(pts):
        for p in points:
            m[p, j] = 1
    return m


@functools.lru_cache(maxsize=2**16)
def contains(big: Subspace, small: Subspace) -> bool:
    return span(big, small) == big


class State:
    __slots__ = ("values", "ones", "unknown", "dirs", "p")

    def __init__(self, values, ones, unknown, dirs, p):
        self.values = values
        self.ones = ones
        self.unknown = unknown
        self.dirs = dirs
        self.p = p


def clone(state) -> State:
    return State(state.values[:], state.ones[:], state.unknown[:],
                 state.dirs, state.p)


def assign(search, state, j, val):
    if state.values[j] != -1:
        if state.values[j] != val:
            raise _Contradiction
        return
    state.values[j] = val
    pid = search.per_space[j]
    state.unknown[pid] -= 1
    state.ones[pid] += val
    ones, unknown = state.ones[pid], state.unknown[pid]
    if ones > search.x or ones + unknown < search.x:
        search.stats.pruned_by_pencil_counts += 1
        raise _Contradiction
    if state.dirs.forced[j]:
        if state.p[j] != val:
            raise _Contradiction
    else:
        row, state.dirs = state.dirs.eliminated(j)
        e = int(state.p[j]) - val
        if e:
            state.p = (state.p - e * row) % classify._PRIME
    if unknown and ones == search.x:
        for t in search.pencils[pid]:
            if state.values[t] == -1:
                assign(search, state, t, 0)
    elif unknown and ones + unknown == search.x:
        for t in search.pencils[pid]:
            if state.values[t] == -1:
                assign(search, state, t, 1)


def combination_children(search, state, pid) -> list:
    undecided = [t for t in search.pencils[pid] if state.values[t] == -1]
    need = search.x - state.ones[pid]
    children = []
    for chosen in itertools.combinations(undecided, need):
        chosen = set(chosen)
        child = clone(state)
        try:
            for t in undecided:
                assign(search, child, t, 1 if t in chosen else 0)
        except _Contradiction:
            continue
        children.append(child)
    return children


class BuildEveryChildSearch(_Search):
    def run(self):
        v = len(self.per_space)
        self._dfs(State([-1] * v, [0] * len(self.pencils),
                        [len(p) for p in self.pencils], self.root,
                        np.zeros(v, dtype=np.int64)))
        self.solutions.sort()

    def _scan_forced(self, state):
        values = state.values
        changed = True
        while changed:
            changed = False
            dirs = state.dirs
            todo, i = [j for j in dirs.fresh if values[j] == -1], 0
            while i < len(todo):
                j = todo[i]
                i += 1
                if values[j] != -1:  # set by a pencil cascade
                    continue
                val = state.p.item(j)
                if val > 1:
                    self.stats.pruned_by_elimination += 1
                    raise _Contradiction
                assign(self, state, j, val)
                self.stats.forced += 1
                if state.dirs is not dirs:
                    changed = True
                    dirs = state.dirs
                    todo, i = [t for t in dirs.fresh
                               if t > j and values[t] == -1], 0

    def _dfs(self, state):
        self.stats.nodes += 1
        try:
            self._scan_forced(state)
        except _Contradiction:
            return
        nxt = next((pid for pid, left in enumerate(state.unknown) if left),
                   None)
        if nxt is None:
            chi = np.array(state.values, dtype=np.int64)
            if all(int(chi[members].sum()) == self.x
                   for members in self.pencils):
                self._leaf(state.values)
            return
        if state.dirs.dim <= _ENDGAME_DIM:
            self.stats.endgame_nodes += 1
            j = next(t for t in self.pencils[nxt] if state.values[t] == -1)
            for val in (0, 1):
                child = clone(state)
                try:
                    assign(self, child, j, val)
                except _Contradiction:
                    continue
                self._dfs(child)
            return
        for child in combination_children(self, state, nxt):
            self._dfs(child)


class OneArrayTableau:
    __slots__ = ("a", "den")

    def __init__(self, a: np.ndarray, den: int):
        self.a = a
        self.den = den

    @classmethod
    def start(cls, matrix: np.ndarray) -> "OneArrayTableau":
        a = np.zeros((matrix.shape[0] + 1, matrix.shape[1]), dtype=np.int64)
        a[:-1] = matrix
        return cls(a, 1)

    @property
    def t(self) -> np.ndarray:
        return self.a[:-1]

    @property
    def p(self) -> np.ndarray:
        return self.a[-1]

    def assigned(self, j: int, val: int) -> "OneArrayTableau":
        a, den = self.a, self.den
        if not a[:-1, j].any():
            if a[-1, j] != val * den:
                raise _Contradiction
            return self
        m = int(abs(a).max())
        if m * (2 * m + (abs(val) + 1) * den) >= exact.INT64_GUARD:
            a = a.astype(object)
        col = a[:, j].copy()
        col[-1] -= val * den
        nz = col.nonzero()[0]
        r, rows = nz[0], nz[1:]
        c = col[r]
        upd = c * a[rows] - col[rows, None] * a[r]
        g = np.gcd.reduce(upd, axis=1)
        if col[-1]:
            den = int(den * c)
            gp = gcd(int(g[-1]), den)
            g[-1] = -gp if den < 0 else gp
            den //= int(g[-1])
        upd //= g[:, None]
        out = a.copy()
        out[rows] = upd
        out[r] = out[-2]
        out[-2] = out[-1]
        out = out[:-1]
        return OneArrayTableau(out, den)


def _digits(f, a: int) -> list[int]:
    return [(a // f.p**i) % f.p for i in range(f.h)]


def _encode(f, digits) -> int:
    return sum(int(d) % f.p * f.p**i for i, d in enumerate(digits))


def _mul_poly(f, a: int, b: int) -> int:
    """a b: the product of the digit polynomials, reduced modulo the
    field's modulus by long division, with integers mod p."""
    p, h = f.p, f.h
    db = _digits(f, b)
    prod = [0] * (2 * h - 1)
    for i, x in enumerate(_digits(f, a)):
        if x:
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % p
    for i in range(len(prod) - 1, h - 1, -1):
        c = prod[i]
        if c:
            for j in range(h):
                prod[i - h + j] = (prod[i - h + j] - c * f.modulus[j]) % p
    return _encode(f, prod[:h])


def gf_add(f, a: int, b: int) -> int:
    return _encode(f, [x + y for x, y in zip(_digits(f, a), _digits(f, b))])


def gf_neg(f, a: int) -> int:
    return _encode(f, [-d for d in _digits(f, a)])


def gf_mul(f, a: int, b: int) -> int:
    return _mul_poly(f, a, b)


def gf_pow(f, a: int, e: int) -> int:
    out = 1
    for _ in range(e):
        out = _mul_poly(f, out, a)
    return out


def gf_inv(f, a: int) -> int:
    """a^(q-2), the inverse of a nonzero a in the group of order q-1."""
    if a == 0:
        raise ZeroDivisionError("inverse of 0")
    return gf_pow(f, a, f.q - 2)


def gf_div(f, a: int, b: int) -> int:
    return gf_mul(f, a, gf_inv(f, b))


def poly_mod(field, num: list[int], f) -> list[int]:
    """num mod the monic f, both coefficient lists over `field` from
    degree 0 up, by long division with the scalar references."""
    num, d = list(num), len(f) - 1
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        for j, fj in enumerate(f):
            num[i - d + j] = gf_add(field, num[i - d + j],
                                    gf_neg(field, gf_mul(field, c, fj)))
    return num[:d]


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


def irreducible_mod_p(p: int, h: int) -> tuple[int, ...]:
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


def gf_rref(m, add, mul, neg, inv):
    rows, cols = m.shape
    rank = 0
    for col in range(cols):
        piv = -1
        for r in range(rank, rows):
            if m[r, col] != 0:
                piv = r
                break
        if piv < 0:
            continue
        if piv != rank:
            for c in range(cols):
                t = m[rank, c]
                m[rank, c] = m[piv, c]
                m[piv, c] = t
        pv = m[rank, col]
        if pv != 1:
            ipv = inv[pv]
            for c in range(col, cols):
                m[rank, c] = mul[m[rank, c], ipv]
        for r in range(rows):
            f = m[r, col]
            if r != rank and f != 0:
                for c in range(col, cols):
                    m[r, c] = add[m[r, c], neg[mul[f, m[rank, c]]]]
        rank += 1
        if rank == rows:
            break
    return rank


def gf_combinations(coeffs, basis, add, mul):
    n, r = coeffs.shape
    cols = basis.shape[1]
    out = np.zeros((n, cols), dtype=np.int64)
    for i in range(n):
        for t in range(r):
            c = coeffs[i, t]
            if c != 0:
                for j in range(cols):
                    out[i, j] = add[out[i, j], mul[c, basis[t, j]]]
    return out


def coordinate_index(space: AmbientSpace) -> dict:
    """Normalised coordinates -> index, read off the enumeration of the
    0-spaces, apart from the library's closed form."""
    return {s.rows[0]: i for i, s in enumerate(space.spaces(0))}


def point_sets(space: AmbientSpace, subs) -> np.ndarray:
    field, index = space.field, coordinate_index(space.closure)
    coeffs = np.array([m[0] for m in enumerate_rref_matrices(
        len(subs[0].rows), 1, space.q)], dtype=np.int64)
    rows = [sorted(i for i in (index[tuple(p)] for p in
                               _kernels.gf_combinations(
                                   coeffs, np.array(s.rows, dtype=np.int64),
                                   field.add_table, field.mul_table).tolist())
                   if i < space.num_points) for s in subs]
    return np.array(rows, dtype=np.int64).reshape(len(subs), -1)


def triple_counts(rel, d):
    x = rel.shape[0]
    p = np.zeros((d + 1, d + 1, d + 1), dtype=np.int64)
    seen = np.zeros(d + 1, dtype=np.int64)
    ok = True
    cnt = np.zeros((d + 1, d + 1), dtype=np.int64)
    for a in range(x):
        for b in range(x):
            for i in range(d + 1):
                for j in range(d + 1):
                    cnt[i, j] = 0
            for z in range(x):
                cnt[rel[a, z], rel[z, b]] += 1
            l = rel[a, b]
            if seen[l] == 0:
                seen[l] = 1
                for i in range(d + 1):
                    for j in range(d + 1):
                        p[i, j, l] = cnt[i, j]
            else:
                for i in range(d + 1):
                    for j in range(d + 1):
                        if p[i, j, l] != cnt[i, j]:
                            ok = False
    return ok, p


def random_affine_collineation(space: AmbientSpace, rng: random.Random):
    """A random element of the affine group as an (n+1)x(n+1) matrix
    acting on row vectors: fixes x0 = 0 and is invertible."""
    f = space.field
    n, q = space.n, space.q
    while True:
        mat = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        work = np.array(mat, dtype=np.int64)
        rank = _kernels.gf_rref(work, f.add_table, f.mul_table,
                                f.neg_table, f.inv_table)
        if rank == n:
            break
    translation = [rng.randrange(q) for _ in range(n)]
    full = [[1] + translation]
    for i in range(n):
        full.append([0] + mat[i])
    return full


def transport_type_III(s: Spread, matrix) -> Spread:
    """Image of a type III spread under an affine collineation, by
    transporting its construction data and rebuilding."""
    n, q = s.space.n, s.space.q
    pi = make_subspace(n, q, s.data["pi"])
    hyps = [make_subspace(n, q, h) for h in s.data["hyperplanes"]]
    choices = [make_subspace(n, q, c) for c in s.data["choices"]]
    pi2 = apply_matrix(pi, matrix)
    mapped = {apply_matrix(h, matrix).rows: apply_matrix(c, matrix)
              for h, c in zip(hyps, choices)}
    # the images are the hyperplanes through pi2; affine hyperplanes
    # are in canonical order when their rows are
    return spread_type_III(s.space, pi2, [mapped[h] for h in sorted(mapped)])


def mask_taus(space: AmbientSpace, pi: Subspace, k: int) -> list[Subspace]:
    return [t for t in space.infinite_subspaces(k - 1) if contains(pi, t)]


def _mask_hyperplanes(space: AmbientSpace, pi: Subspace) -> list[Subspace]:
    return [h for h in space.spaces(space.n - 1) if contains(h, pi)]


@functools.lru_cache(maxsize=None)
def _parts_at_infinity(space: AmbientSpace, k: int) -> dict:
    """Rows of each part at infinity -> the affine k-spaces with it."""
    at_infinity = make_subspace(space.n, space.q,
                                np.eye(space.n + 1, dtype=np.int64)[1:])
    parts = {}
    for j, s in enumerate(space.spaces(k)):
        parts.setdefault(meet(s, at_infinity).rows, []).append(j)
    return parts


def spaces_through(space: AmbientSpace, k: int, axis: Subspace) -> frozenset:
    """Indices of the affine k-spaces containing the axis at infinity."""
    return frozenset(j for rows, js in _parts_at_infinity(space, k).items()
                     if contains(Subspace(space.n, space.q, rows), axis)
                     for j in js)


def mask_type_III_indices(space: AmbientSpace, pi: Subspace,
                          choices) -> tuple[int, ...]:
    k = choices[0].dim + 1
    spaces = space.spaces(k)
    return tuple(sorted(
        j for h, tau in zip(_mask_hyperplanes(space, pi), choices)
        for j in spaces_through(space, k, tau) if contains(h, spaces[j])))


def member_spread_type_III(space: AmbientSpace, pi: Subspace, choices) -> Spread:
    if space.mode != "affine":
        raise GeometryMismatch("type III spreads live in the affine space")
    if pi.is_affine() or pi.dim != space.n - 2:
        raise NotAtInfinity("pi must be an (n-2)-space at infinity")
    choices = list(choices)
    hyps = _mask_hyperplanes(space, pi)
    if len(choices) != len(hyps):
        raise BadChoices(f"need {len(hyps)} choices, got {len(choices)}")
    dims = {t.dim for t in choices}
    if len(dims) != 1:
        raise BadChoices("choices of mixed dimension")
    k = dims.pop() + 1
    inside_pi = {t.rows for t in mask_taus(space, pi, k)}
    if any(t.rows not in inside_pi for t in choices):
        raise BadChoices("every tau_i must lie inside pi")
    distinct = len(set(t.rows for t in choices))
    if distinct == 1:
        raise AllEqual("all tau_i equal degenerates to a type II spread")
    spaces = space.spaces(k)
    members = [spaces[j] for j in mask_type_III_indices(space, pi, choices)]
    tag = "III+" if k == 1 and distinct == len(choices) else "III"
    spread = Spread(space, k, _sorted_members(members), tag, {
        "pi": pi.to_json(),
        "hyperplanes": [h.to_json() for h in hyps],
        "choices": [t.to_json() for t in choices],
    })
    ok, reason = is_spread(spread.members, space, k)
    if not ok:
        raise BadChoices(f"choices do not produce a spread: {reason}")
    return spread


def drawn_type_III_spreads(space: AmbientSpace, k: int, count=None,
                           seed=None) -> list[Spread]:
    pis = space.infinite_subspaces(space.n - 2)
    if count is None:
        return [spread_type_III(space, pi, combo) for pi in pis
                for combo in itertools.product(mask_taus(space, pi, k),
                                               repeat=space.q)
                if len({t.rows for t in combo}) > 1]
    rng = random.Random(seed)
    taus = len(mask_taus(space, pis[0], k)) if pis else 0  # per pi
    out, seen, attempts = [], set(), 0
    while (len(out) < count and attempts < 50 * count
           and len(seen) < len(pis) * (taus ** space.q - taus)):
        attempts += 1
        pi = rng.choice(pis)
        combo = [rng.choice(mask_taus(space, pi, k)) for _ in range(space.q)]
        if len({t.rows for t in combo}) == 1:
            continue
        key = (pi.rows, tuple(t.rows for t in combo))
        if key in seen:
            continue
        seen.add(key)
        out.append(spread_type_III(space, pi, combo))
    return out


def keyed_type_III_spreads(space: AmbientSpace, k: int, keys) -> list[Spread]:
    pis = space.infinite_subspaces(space.n - 2)
    taus = {}
    spreads = []
    for p, *c in np.asarray(keys).tolist():
        if p not in taus:
            taus[p] = mask_taus(space, pis[p], k)
        spreads.append(spread_type_III(space, pis[p], [taus[p][i] for i in c]))
    return spreads


def parallel_classes(space: AmbientSpace, k: int) -> list[Spread]:
    return [spread_type_II(space, axis)
            for axis in space.infinite_subspaces(k - 1)]


def spread_counts(l: KSet, spreads) -> list[int]:
    return [len(l.members.intersection(s.member_indices())) for s in spreads]


def subspace_kset_from_json(doc: dict) -> KSet:
    space = ambient(_int(doc["n"]), _int(doc["q"]), doc["mode"])
    k = _int(doc["k"])
    subs = [subspace_from_json(space.n, space.q, rows)
            for rows in doc["members"]]
    for s in subs:
        if s.dim != k:
            raise DimensionViolation("member of wrong dimension")
    l = kset_from_subspaces(space, k, subs)
    if l.size != len(subs):
        raise ValueError("a member is listed twice")
    return l


def project_through_infinite_subspace(l: KSet, axis: Subspace,
                                      pi: Subspace | None = None) -> KSet:
    space = l.space
    i = axis.dim
    if axis.is_affine():
        raise NotSkew("axis must lie at infinity")
    if not (0 <= i <= l.k - 2) or space.n < l.k + 2:
        raise DimensionViolation("need 0 <= i <= k-2 and n >= k+2")
    if pi is None:
        dim = space.n - axis.dim - 1
        pi = next((s for s in space.closure.spaces(dim)
                   if meet(s, axis) is None), None)
        if pi is None or not pi.is_affine():
            raise NotSkew("no affine complement found")
    if pi.dim != space.n - i - 1:
        raise DimensionViolation("pi must have dimension n-i-1")
    if not pi.is_affine():
        raise NotSkew("pi must carry an affine part")
    if meet(pi, axis) is not None:
        raise NotSkew("pi must be skew to the axis")
    d = l.k - i - 1
    target = ambient(pi.dim, space.q, "affine")
    pivots = [next(c for c, v in enumerate(row) if v) for row in pi.rows]
    points = [s.rows[0] for s in space.spaces(0)]
    index = coordinate_index(target)
    local = {p: index[tuple(points[p][c] for c in pivots)]
             for p in space.point_indices_of(pi).tolist()
             if p < space.q**space.n}
    by_points = {tuple(pts): j
                 for j, pts in enumerate(target.point_lists(d).tolist())}
    through = spaces_through(space, l.k, axis)
    members = [j for j in sorted(l.members) if j in through]
    image = set()
    for pts in space.point_lists(l.k)[members].tolist():
        cut = tuple(sorted(local[p] for p in pts if p in local))
        if len(cut) != space.q ** d:
            raise DimensionViolation("projection lost dimension")
        image.add(by_points[cut])
    return KSet(target, d, frozenset(image))


def row_echelon_rational(matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals.

    Returns (rref_rows, pivot_columns); zero rows are dropped.
    """
    m = [[Fraction(v) for v in row] for row in matrix]
    if not m:
        return [], []
    rows, cols = len(m), len(m[0])
    pivots: list[int] = []
    rank = 0
    for col in range(cols):
        pivot_row = None
        for r in range(rank, rows):
            if m[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(rows):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        pivots.append(col)
        rank += 1
        if rank == rows:
            break
    return m[:rank], pivots


def bareiss_rank(matrix) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination."""
    m = [[int(v) for v in row] for row in matrix]
    if not m:
        return 0
    rows, cols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(cols):
        pivot_row = None
        for r in range(rank, rows):
            if m[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        piv = m[rank][col]
        for r in range(rank + 1, rows):
            mrc = m[r][col]
            row_r = m[r]
            row_p = m[rank]
            for c in range(col, cols):
                row_r[c] = (piv * row_r[c] - mrc * row_p[c]) // prev
        prev = piv
        rank += 1
        if rank == rows:
            break
    return rank


def primitive(vec: list[Fraction]) -> list[int]:
    """The integer multiple of vec whose entries have gcd 1 and whose
    first nonzero entry is positive."""
    den = 1
    for v in vec:
        den = den * v.denominator // gcd(den, v.denominator)
    ints = [int(v * den) for v in vec]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    for v in ints:
        if v != 0:
            if v < 0:
                ints = [-w for w in ints]
            break
    return ints


def nullspace(matrix) -> list[list[int]]:
    """Primitive integer basis of {z : M z = 0}, one vector per free
    column of the rational RREF."""
    rref, pivots = row_echelon_rational(matrix)
    if not rref:
        cols = len(matrix[0]) if len(matrix) else 0
        return [[1 if i == j else 0 for i in range(cols)] for j in range(cols)]
    cols = len(rref[0])
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * cols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rref[r][free]
        basis.append(primitive(vec))
    return basis


def solve_left(matrix, target) -> list[Fraction] | None:
    """Exact rational y with y^T M = target, or None if target is not in
    the row space of M.  When M has full row rank the solution is unique."""
    rows = len(matrix)
    if rows == 0:
        return [] if all(v == 0 for v in target) else None
    cols = len(matrix[0])
    if len(target) != cols:
        raise ValueError("target length does not match column count")
    # Solve M^T y = target by elimination on the augmented transpose.
    aug = [[Fraction(matrix[r][c]) for r in range(rows)] + [Fraction(target[c])]
           for c in range(cols)]
    rref, pivots = row_echelon_rational(aug)
    y = [Fraction(0)] * rows
    for r, pc in enumerate(pivots):
        if pc == rows:  # pivot in the augmented column: inconsistent
            return None
        y[pc] = rref[r][rows]
    # The elimination may have dropped dependent equations; verify the
    # candidate once so every returned certificate is sound.
    for c in range(cols):
        acc = Fraction(0)
        for r in range(rows):
            if y[r]:
                acc += y[r] * matrix[r][c]
        if acc != target[c]:
            return None
    return y


def meet(a: Subspace, b: Subspace) -> Subspace | None:
    """Exact intersection; None when the subspaces are disjoint.  The
    rows of the reduced [a; b | I] whose left block vanishes are a basis
    of the left kernel {lam : lam_a a + lam_b b = 0}, and the vectors
    lam_a a span the intersection."""
    if (a.n, a.q) != (b.n, b.q):
        raise AmbientMismatch("meet of subspaces of different spaces")
    field = a.field
    gens = np.array(a.rows + b.rows, dtype=np.int64)
    aug = np.hstack([gens, np.eye(len(gens), dtype=np.int64)])
    _kernels.gf_rref(aug, field.add_table, field.mul_table,
                     field.neg_table, field.inv_table)
    width = a.n + 1
    kernel = aug[~aug[:, :width].any(axis=1), width:width + len(a.rows)]
    if not len(kernel):
        return None
    return make_subspace(a.n, a.q, _kernels.gf_combinations(
        kernel, gens[:len(a.rows)], field.add_table, field.mul_table))


def classify_line_pair(space: AmbientSpace, a: Subspace, b: Subspace) -> int:
    """0 identity, 1 affine meet, 2 meet at infinity, 3 disjoint."""
    if (a.n, a.q) != (space.n, space.q) or (b.n, b.q) != (space.n, space.q):
        raise AmbientMismatch("lines of a different geometry")
    if a.rows == b.rows:
        return 0
    cut = meet(a, b)
    if cut is None:
        return 3
    return 1 if cut.is_affine() else 2


def line_intersection_matrices(n: int, q: int) -> list[np.ndarray]:
    m = (q**n - 1) // (q - 1)

    def frac(num):
        assert num % (q - 1) == 0
        return num // (q - 1)

    p0 = np.eye(4, dtype=np.int64)
    p1 = np.array([
        [0, q * (m - 1), 0, 0],
        [1, (q - 1) ** 2 + m - 2, q - 1, (q - 1) * (m - 1 - q)],
        [0, q * q, 0, q * (m - 1 - q)],
        [0, q * q, q, q * (m - 2 - q)],
    ], dtype=np.int64)
    p2 = np.array([
        [0, 0, q ** (n - 1) - 1, 0],
        [0, q - 1, 0, q ** (n - 1) - q],
        [1, 0, q ** (n - 1) - 2, 0],
        [0, q, 0, q ** (n - 1) - 1 - q],
    ], dtype=np.int64)
    p3 = np.array([
        [0, 0, 0,
         frac(q**2 - (q + 1) * q**n + q ** (2 * n - 1))],
        [0, q**n - q**2, q ** (n - 1) - q,
         frac(q**3 + q**2 - (2 * q**2 + q - 1) * q ** (n - 1) - q
              + q ** (2 * n - 1))],
        [0, frac(q ** (n + 1) - q**3), 0,
         frac(q**3 + q**2 - (2 * q + 1) * q**n + q ** (2 * n - 1))],
        [1, frac(q ** (n + 1) - q**3 - q**2 + q), q ** (n - 1) - q - 1,
         frac(q**3 + 3 * q**2 - (2 * q**2 + 2 * q - 1) * q ** (n - 1)
              - 2 * q + q ** (2 * n - 1))],
    ], dtype=np.int64)
    return [p0, p1, p2, p3]


def line_dual_eigenmatrix(n: int, q: int) -> list[list[Fraction]]:
    a = (q**2 + 1) * q**n - q**2 - q ** (2 * n)
    return [
        [Fraction(1), Fraction(q**n - 1),
         Fraction(-a, q**2 - q), Fraction(q**n - q, q - 1)],
        [Fraction(1), Fraction(a, q**2 - q ** (n + 1)),
         Fraction(-a, q**2 - q ** (n + 1)), Fraction(-1)],
        [Fraction(1), Fraction(q - q ** (n + 1), q**n - q),
         Fraction(a, (q - 1) * q**n - q**2 + q), Fraction(q**n - q, q - 1)],
        [Fraction(1), Fraction(q - q ** (n + 1), q**n - q),
         Fraction(q ** (n + 1) - q, q**n - q), Fraction(-1)],
    ]


def hyperplane_intersection_matrices(n: int, q: int) -> list[np.ndarray]:
    m = (q**n - 1) // (q - 1)
    p0 = np.eye(3, dtype=np.int64)
    p1 = np.array([
        [0, q - 1, 0],
        [1, q - 2, 0],
        [0, 0, q - 1],
    ], dtype=np.int64)
    p2 = np.array([
        [0, 0, (m - 1) * q],
        [0, 0, (m - 1) * q],
        [1, q - 1, (m - 2) * q],
    ], dtype=np.int64)
    return [p0, p1, p2]


def hyperplane_dual_eigenmatrix(n: int, q: int) -> list[list[Fraction]]:
    m = (q**n - 1) // (q - 1)
    return [
        [Fraction(1), Fraction(m - 1), Fraction(q**n - 1)],
        [Fraction(1), Fraction(m - 1), Fraction(-(q**n - 1), q - 1)],
        [Fraction(1), Fraction(-1), Fraction(0)],
    ]
