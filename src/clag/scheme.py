"""The 3-class association scheme of affine lines and the 2-class
scheme of affine hyperplanes: relations, intersection matrices,
eigenvalue matrix P, dual Q, idempotents and inner distributions.

P exists twice: a closed form in n and q, and a brute-force version
computed from the geometry by exact integer counting.  The closed Q and
intersection matrices follow from the closed P by the Bose-Mesner
identities (k_i = P_0i, m_r = |X| / sum_i P_ri^2/k_i, Q_ir = m_r P_ri/k_i,
p_ij^l = sum_r m_r P_ri P_rj P_rl / (|X| k_l)), which must give integral
m_r and p_ij^l; brute force counts the intersection matrices too.  Brute
force is ground truth; the closed forms are fixtures under test, and a
discrepancy is adjudicated and reported with both values rather than
silently patched.  All spectral data is handled through exact rational
projectors, never floating-point eigensolvers.

The brute force reads one relation matrix, `relation_matrix`: for each
pair of k-spaces, code = 2 [they share an affine point] + [same space
at infinity], taken from one "do they meet" gather over the point
lists (`incidence.meets`) and the pencils at infinity and mapped to a
relation by one table per kind.
Counting its triples once gives the product table p with
A_i A_j = sum_l p_ij^l A_l on every pair; the intersection matrices, P
and the Bose-Mesner checks all come from it.  All (d+1)^2 products are
compared on every pair, packed as digits: with b = bit_length(|X|) and
D = 2^(b rel), row a of the float64 product A_i D holds every
(A_i A_j)[a, c] as its base-2^b digit j, without carries.  Every term
is a non-negative integer and every partial sum stays below 2^53 (the
relations are split into digit groups of at most 53 bits), so float64
is exact.  No relation takes a dense product: A_0 = I gives D, the
relation with the most pairs (disjoint lines, e.g. 420 of 496 in
AG(5,2); affinely meeting hyperplanes) follows from sum_l A_l = J, and
the others are covered by cliques the geometry stores, A_i = M^T M - m I
(parallel k-spaces by the pencils at infinity, m = 1; lines meeting in
a point by the point pencils, m = q), so A_i D is a gather of clique
sums.
Through p, each Bose-Mesner identity among
N_j = sum_a lut_j[a] A_a is an integer combination of the A_l, whose
supports are disjoint and non-empty, so it holds exactly iff its
coefficients agree: no |X|^2 work.  The rows of P are the characters
of that algebra, read off p too: the tuples of integer eigenvalues of
the intersection matrices B_i that multiply as the A_i do.

Line relations: 0 identity, 1 meet in an affine point, 2 meet at
infinity (parallel), 3 disjoint in the projective closure.  Hyperplane
relations: 0 identity, 1 disjoint (parallel), 2 affine meet; two
hyperplanes with different spaces at infinity always meet.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, NamedTuple

import numpy as np

from . import _kernels
from .clsets import KSet
from .galois import field_for_order
from .geometry import (AmbientMismatch, AmbientSpace, DimensionOutOfRange,
                       ambient, check_size, entry_guard)
from .incidence import meets

__all__ = [
    "SchemeTables", "EmptySet", "AmbientMismatch", "relation_matrix",
    "intersection_matrices_bruteforce", "eigenmatrix_closed", "line_scheme",
    "hyperplane_eigenmatrix_closed", "hyperplane_scheme",
    "hyperplane_adjudication", "eigenmatrix_bruteforce", "align_rows_to",
    "idempotents_scaled", "verify_bose_mesner", "scheme_axioms_bruteforce",
    "inner_distribution", "u_dot_q", "eigenspace_profile",
    "scheme_report",
]


class EmptySet(ValueError):
    pass


@dataclass
class SchemeTables:
    """Exact scheme data.  P has integer entries; Q is rational."""

    kind: str           # "affine_lines" | "affine_hyperplanes"
    n: int
    q: int
    d: int
    size: int
    p_matrices: list    # intersection matrices, integer numpy arrays
    P: np.ndarray       # eigenvalue matrix, int64
    Q: list             # dual eigenvalue matrix, rows of Fractions

    @property
    def valencies(self) -> list[int]:
        return [int(v) for v in self.P[0]]

    @property
    def multiplicities(self) -> list[Fraction]:
        return list(self.Q[0])

    def check_orthogonality(self) -> bool:
        """P Q = |X| I, exactly: sum_i P_ri lut_c[i] = den_c [r = c] on
        the integer columns of `_idempotent_luts`."""
        rows = self.P.tolist()
        return all(sum(a * b for a, b in zip(row, lut)) == den * (r == c)
                   for c, (lut, den) in enumerate(_idempotent_luts(self.Q,
                                                                   self.size))
                   for r, row in enumerate(rows))


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------

def relation_matrix(space: AmbientSpace, kind: str = "affine_lines",
                    members=None) -> np.ndarray:
    """Relation index of every ordered pair of the kind's k-spaces, or
    of the given members in their order, read from whether the pair
    shares an affine point and whether it has the same space at
    infinity."""
    spec = _kind(kind)
    k = spec.k(space.n)
    cols = slice(None) if members is None else list(members)
    _, _, per_space = space.infinity_pencils(k)
    inf = per_space[cols]
    x = len(inf)
    check_size("{0}^2 relation matrix exceeds guard {cap}", x, x)
    met = meets(space, k, cols, rows=cols)
    rel = np.array(spec.codes, dtype=np.int8)[2 * met + (inf[:, None] == inf)]
    if (rel < 0).any():
        raise AssertionError(f"{kind}: a pair that cannot occur")
    return rel


# ---------------------------------------------------------------------------
# closed forms: P typed in n and q, the rest derived from it
# ---------------------------------------------------------------------------

def _int64(rows, what: str) -> np.ndarray:
    """rows as an int64 array; DimensionOutOfRange when an entry does
    not fit."""
    if any(not -2**63 <= v < 2**63 for row in rows for v in row):
        raise DimensionOutOfRange(f"an entry of {what} exceeds int64")
    return np.array(rows, dtype=np.int64)


def eigenmatrix_closed(n: int, q: int) -> np.ndarray:
    """Eigenvalue matrix P of the affine-line scheme (rows: eigenspaces
    V0..V3; columns: relations)."""
    if n < 3:
        raise DimensionOutOfRange("the line scheme needs n >= 3")

    def frac(num):
        assert num % (q - 1) == 0
        return num // (q - 1)

    return _int64([
        [1, frac(q ** (n + 1) - q**2), q ** (n - 1) - 1,
         frac(q**2 - (q + 1) * q**n + q ** (2 * n - 1))],
        [1, frac(q**n - q**2), -1, frac(q**2 - q**n)],
        [1, -q, -1, q],
        [1, -q, q ** (n - 1) - 1, q - q ** (n - 1)],
    ], f"P of AG({n},{q}) lines")


def hyperplane_eigenmatrix_closed(n: int, q: int) -> np.ndarray:
    """Adopted eigenvalue matrix of the hyperplane scheme.

    The scheme is complete multipartite: (q^n-1)/(q-1) parallel classes
    of q hyperplanes each.  The meet valency is |X| - 1 - (q-1) =
    (q^(n+1)-q^2)/(q-1) and the meet eigenvalue on the class-constant
    space is -q.  The naive variants (q^(n+1)-1)/(q-1) (a point count
    of the projective closure) and -1 fail both scheme identities; see
    hyperplane_adjudication, which settles the entries by brute force.
    """
    if n < 2:
        raise DimensionOutOfRange("the hyperplane scheme needs n >= 2")
    m = (q**n - 1) // (q - 1)
    return _int64([
        [1, q - 1, q * (m - 1)],
        [1, q - 1, -q],
        [1, -1, 0],
    ], f"P of AG({n},{q}) hyperplanes")


def _tables_from_eigenmatrix(kind: str, n: int, q: int,
                             P: np.ndarray) -> SchemeTables:
    """The scheme tables that P fixes, by the Bose-Mesner identities in
    exact integers and Fractions (rows r: eigenspaces, columns i:
    relations): k_i = P_0i, |X| = sum_i k_i, m_r = |X| / sum_i P_ri^2/k_i,
    Q_ir = m_r P_ri / k_i and B_i[l, j] = p_ij^l =
    sum_r m_r P_ri P_rj P_rl / (|X| k_l).  Raises AssertionError unless
    every m_r is a positive integer, every p_ij^l a non-negative integer
    and P Q = |X| I, i.e. the rows of P are orthogonal with weights 1/k_i."""
    rows = P.tolist()
    idx = range(len(rows))
    k = rows[0]
    size = sum(k)
    scale = lcm(*k)
    norms = [sum(v * v * (scale // kv) for v, kv in zip(row, k))
             for row in rows]  # scale * sum_i P_ri^2 / k_i
    if any(w <= 0 or size * scale % w for w in norms):
        raise AssertionError(f"{kind} P: |X| = {size} over the row norms "
                             f"{norms} / {scale} are not positive integers")
    mult = [size * scale // w for w in norms]
    Q = [[Fraction(mult[r] * rows[r][i], k[i]) for r in idx] for i in idx]

    def p(i, j, l):
        num = sum(mult[r] * rows[r][i] * rows[r][j] * rows[r][l] for r in idx)
        val, rem = divmod(num, size * k[l])
        if rem or val < 0:
            raise AssertionError(f"{kind} P: p_{i}{j}^{l} = "
                                 f"{Fraction(num, size * k[l])}")
        return val

    mats = [_int64([[p(i, j, l) for j in idx] for l in idx],
                   f"B_{i} of AG({n},{q}) {kind}") for i in idx]
    tables = SchemeTables(kind, n, q, len(rows) - 1, size, mats, P, Q)
    if not tables.check_orthogonality():
        raise AssertionError(f"P Q != |X| I for the {kind} closed form")
    return tables


def line_scheme(n: int, q: int) -> SchemeTables:
    return _tables_from_eigenmatrix("affine_lines", n, q,
                                    eigenmatrix_closed(n, q))


def hyperplane_scheme(n: int, q: int) -> SchemeTables:
    return _tables_from_eigenmatrix("affine_hyperplanes", n, q,
                                    hyperplane_eigenmatrix_closed(n, q))


class _Kind(NamedTuple):
    """k(n): the members' dimension in AG(n, q); codes[c]: the relation
    of read code c = 2 [the pair shares an affine point] + [same space
    at infinity], -1 for a pair that cannot occur; closed(n, q): the
    closed-form tables."""

    k: Callable[[int], int]
    codes: tuple
    closed: Callable[[int, int], SchemeTables]


_KINDS = {
    "affine_lines": _Kind(lambda n: 1, (3, 2, 1, 0), line_scheme),
    "affine_hyperplanes": _Kind(lambda n: n - 1, (-1, 1, 2, 0),
                                hyperplane_scheme),
}


def _kind(kind: str) -> _Kind:
    if kind not in _KINDS:
        raise ValueError(f"unknown scheme kind {kind!r}")
    return _KINDS[kind]


def hyperplane_adjudication(n: int, q: int,
                            brute_P: np.ndarray | None) -> dict:
    """Entry-by-entry adjudication of the contested hyperplane P
    entries: each candidate is checked against the valency row sum,
    orthogonality P Q = |X| I, and (when available) the brute-force
    eigenvalue matrix, which is authoritative."""
    m = (q**n - 1) // (q - 1)
    adopted = hyperplane_scheme(n, q)
    report = {"entries": [], "brute_force_available": brute_P is not None}
    candidates = {
        (0, 2): {"adopted": q * (m - 1),
                 "variant": (q ** (n + 1) - 1) // (q - 1)},
        (1, 2): {"adopted": -q, "variant": -1},
    }
    for (row, col), pair in candidates.items():
        entry = {"entry": f"P[{row}][{col}]"}
        for name, value in pair.items():
            P = adopted.P.copy()
            P[row][col] = value
            rowsum_ok = int(P[0].sum()) == adopted.size
            tables = SchemeTables("affine_hyperplanes", n, q, 2,
                                  adopted.size, [], P, adopted.Q)
            verdict = {"value": int(value),
                       "valency_row_sum": rowsum_ok,
                       "orthogonality": tables.check_orthogonality()}
            if brute_P is not None:
                verdict["matches_brute_force"] = \
                    int(brute_P[row][col]) == int(value)
            entry[name] = verdict
        report["entries"].append(entry)
    return report


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------

def scheme_axioms_bruteforce(rel: np.ndarray, d: int,
                             covers=None) -> tuple[bool, np.ndarray]:
    """Partition/identity/symmetry plus constancy of every p_ij^l over
    every pair, exhaustively.  Returns (ok, p[i,j,l]); p is zero when
    some entry is not a relation number 0..d.  `covers` maps relations
    to clique covers, checked and used as in `_kernels.triple_counts`."""
    if not ((rel >= 0) & (rel <= d)).all():
        return False, np.zeros((d + 1, d + 1, d + 1), dtype=np.int64)
    ok = bool((np.diag(rel) == 0).all())
    ok = ok and bool((rel == rel.T).all())
    off = rel[~np.eye(rel.shape[0], dtype=bool)]
    ok = ok and bool((off > 0).all())
    const, p = _kernels.triple_counts(np.ascontiguousarray(rel), d,
                                      covers)
    return ok and bool(const), p


def _product_table(space: AmbientSpace, kind: str) -> np.ndarray:
    """p[i,j,l] from one relation matrix; raises if the axioms fail.
    The parallel relation is covered by the pencils at infinity (m = 1),
    and for lines, which share at most one point, the relation of
    meeting in a point by the point pencils (m = q)."""
    spec = _kind(kind)
    k = spec.k(space.n)
    rel = relation_matrix(space, kind)
    covers = {spec.codes[1]: space.infinity_pencils(k)[1]}
    if k == 1:
        covers[spec.codes[2]] = space.point_pencils(1)
    ok, p = scheme_axioms_bruteforce(rel, max(spec.codes), covers)
    if not ok:
        raise AssertionError("scheme axioms fail by brute force")
    return p


def _intersection_matrices(p: np.ndarray) -> list[np.ndarray]:
    """B_i[l, j] = p_ij^l, read off the product table."""
    return [p[i].T.copy() for i in range(p.shape[0])]


def intersection_matrices_bruteforce(space: AmbientSpace,
                                     kind: str = "affine_lines") -> list[np.ndarray]:
    """Intersection matrices recomputed by exhaustive triple counting."""
    return _intersection_matrices(_product_table(space, kind))


# -- exact small-matrix spectral helpers ------------------------------------

def _charpoly(mat) -> list[int]:
    """Monic characteristic polynomial det(xI - M) of an integer matrix,
    coefficients by the Faddeev-LeVerrier recursion in Python ints: its
    divisions are exact, since every coefficient is an integer."""
    size = len(mat)
    m = [[int(v) for v in row] for row in mat]
    coeffs = [1]
    a = [row[:] for row in m]
    for k in range(1, size + 1):
        c, rem = divmod(-sum(a[i][i] for i in range(size)), k)
        assert rem == 0
        coeffs.append(c)
        if k == size:
            break
        for i in range(size):
            a[i][i] += c
        a = [[sum(m[i][t] * a[t][j] for t in range(size))
              for j in range(size)] for i in range(size)]
    return coeffs  # x^size + coeffs[1] x^(size-1) + ... + coeffs[size]


def _horner(coeffs, lam: int) -> int:
    val = 0
    for c in coeffs:
        val = val * lam + c
    return val


def eigenmatrix_bruteforce(mats: list[np.ndarray]) -> np.ndarray:
    """P from the intersection matrices of a passing scheme_axioms_bruteforce,
    valency row first: its rows are the characters of the Bose-Mesner
    algebra, the tuples theta with theta_0 = 1 and theta_i theta_j =
    sum_l p_ij^l theta_l for every i, j (p_ij^l = B_i[l, j]).

    Each theta_i is an eigenvalue of B_i, and in P an integer with
    |theta_i| <= k_i: so B_i's integer roots in [-k_i, k_i] are found
    once and every tuple of them is tried, exactly.  A commutative
    algebra of dimension d+1 has at most d+1 characters; fewer than d+1
    integer ones leave P without an integer row, and raise."""
    d = len(mats) - 1
    b = [m.tolist() for m in mats]
    valencies = [1] + [b[j][0][j] for j in range(1, d + 1)]
    roots = [[lam for lam in range(-k, k + 1) if _horner(coeffs, lam) == 0]
             for k, coeffs in zip(valencies[1:], map(_charpoly, b[1:]))]
    idx = range(d + 1)
    rows = [row for row in ([1, *t] for t in itertools.product(*roots))
            if all(row[i] * row[j] == sum(b[i][l][j] * row[l] for l in idx)
                   for i in idx for j in idx)]
    if len(rows) != d + 1:
        raise AssertionError(f"{len(rows)} integer characters, not {d + 1}")
    rows.sort(key=lambda r: (r != valencies, [-v for v in r[1:]]))
    return np.array(rows, dtype=np.int64)


def align_rows_to(reference: np.ndarray, candidate: np.ndarray) -> np.ndarray:
    """Reorder candidate rows to match the reference row order (exact
    matches first, then nearest by entry-wise disagreement)."""
    cand = [list(map(int, row)) for row in candidate]
    used = [False] * len(cand)
    ordered = []
    for ref in reference:
        ref = list(map(int, ref))
        best, best_score = None, None
        for i, row in enumerate(cand):
            if used[i]:
                continue
            score = sum(1 for a, b in zip(ref, row) if a != b)
            if best_score is None or score < best_score:
                best, best_score = i, score
        used[best] = True
        ordered.append(cand[best])
    return np.array(ordered, dtype=np.int64)


def _idempotent_luts(q_matrix, size: int) -> list[tuple[list[int], int]]:
    """(lut_j, den_j) with E_j = sum_a lut_j[a] A_a / den_j, where
    lut_j[a] = den_j * Q_aj / |X|."""
    cols = [[Fraction(v) for v in col] for col in zip(*q_matrix)]
    dens = [lcm(*[f.denominator for f in col]) for col in cols]
    return [([int(f * den) for f in col], size * den)
            for col, den in zip(cols, dens)]


def idempotents_scaled(rel: np.ndarray, q_matrix, size: int):
    """E_j as integer matrices with denominators: E_j = N_j / den_j,
    where N_j[cell in relation i] = den_j * Q_ij / |X|."""
    return [(np.array(lut, dtype=np.int64)[rel], den)
            for lut, den in _idempotent_luts(q_matrix, size)]


def verify_bose_mesner(p: np.ndarray, tables: SchemeTables) -> dict:
    """Exact verification of E_i E_j = delta_ij E_i, sum E_i = I and
    A_j = sum_i P_ij E_i for the tables' P and Q, on the coefficients of
    the present relations (p_0l^l = 1), with |X| = sum_l p_ll^0.
    Precondition: p[i,j,l] is from a passing scheme_axioms_bruteforce."""
    idx = range(tables.d + 1)
    pt = p.tolist()
    present = [l for l in idx if pt[0][l][l] == 1]
    size = sum(pt[l][l][0] for l in idx)
    ems = _idempotent_luts(tables.Q, size)
    big = lcm(*[den for _, den in ems])

    def product(u, v):  # (sum_a u_a A_a)(sum_b v_b A_b), per present A_l
        return [sum(u[a] * v[b] * pt[a][b][l] for a in idx for b in idx)
                for l in present]

    def combination(coef):  # big * sum_i coef[i] E_i, per present A_l
        return [sum(c * u[l] * (big // den) for c, (u, den) in zip(coef, ems))
                for l in present]

    def adjacency(j):  # big * A_j, per present A_l
        return [big if l == j else 0 for l in present]

    return {"idempotency": all(  # N_i N_j = delta_ij den_i N_i
                product(ui, uj) == [di * ui[l] * (i == j) for l in present]
                for i, (ui, di) in enumerate(ems) for j, (uj, _) in enumerate(ems)),
            "resolution_of_identity": combination([1] * len(ems)) == adjacency(0),
            "adjacency_expansion": all(
                combination([int(tables.P[i][j]) for i in idx]) == adjacency(j)
                for j in idx),
            "traces": [Fraction(size * u[0], den) for u, den in ems]}


# ---------------------------------------------------------------------------
# inner distributions and eigenspace membership
# ---------------------------------------------------------------------------

def inner_distribution(l: KSet, kind: str | None = None) -> list[Fraction]:
    """u_i = |R_i meet (L x L)| / |L|, counted on the members' relation
    matrix alone."""
    if l.size == 0:
        raise EmptySet("inner distribution of the empty set")
    kind = kind or _kind_of(l)
    spec = _kind(kind)
    if l.k != spec.k(l.space.n):
        raise DimensionOutOfRange(f"{kind} of AG({l.space.n},{l.space.q}) "
                                  f"are not {l.k}-spaces")
    rel = relation_matrix(l.space, kind, sorted(l.members))
    counts = np.bincount(rel.ravel(), minlength=max(spec.codes) + 1)
    return [Fraction(int(c), l.size) for c in counts]


def _kind_of(l: KSet) -> str:
    return "affine_lines" if l.k == 1 else "affine_hyperplanes"


def u_dot_q(l: KSet, tables: SchemeTables | None = None) -> list[Fraction]:
    if tables is None:
        tables = _kind(_kind_of(l)).closed(l.space.n, l.space.q)
    u = inner_distribution(l, tables.kind)
    return [sum(u[i] * tables.Q[i][j] for i in range(tables.d + 1))
            for j in range(tables.d + 1)]


def eigenspace_profile(l: KSet, tables: SchemeTables | None = None) -> set[int]:
    """Indices j with a nonzero projection onto eigenspace V_j."""
    return {j for j, v in enumerate(u_dot_q(l, tables)) if v != 0}


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _matrix_to_strings(mat) -> list[list[str]]:
    out = []
    for row in np.asarray(mat, dtype=object):
        out.append([str(Fraction(v)) for v in row])
    return out


def scheme_report(n: int, q: int, kind: str = "affine_lines",
                  brute_force: bool = False) -> dict:
    """JSON-able scheme report: sizes, valencies, dimensions, all
    matrices as exact rational strings, and the brute-force diff."""
    field_for_order(q)  # the closed forms hold only where GF(q) exists
    tables = _kind(kind).closed(n, q)
    report = {
        "kind": kind, "n": n, "q": q, "size": tables.size,
        "valencies": tables.valencies,
        "eigenspace_dimensions": [str(v) for v in tables.multiplicities],
        "P": _matrix_to_strings(tables.P),
        "Q": [[str(v) for v in row] for row in tables.Q],
        "intersection_matrices": [_matrix_to_strings(m)
                                  for m in tables.p_matrices],
        "orthogonality": tables.check_orthogonality(),
        "brute_force": None,
    }
    brute_P = None
    if brute_force:
        space = ambient(n, q, "affine")
        x = tables.size
        cap = entry_guard()
        if x * x > cap:
            report["brute_force"] = {"skipped": f"size guard ({x}^2 > {cap})"}
        else:
            p = _product_table(space, kind)
            brute_mats = _intersection_matrices(p)
            brute_P = align_rows_to(tables.P, eigenmatrix_bruteforce(brute_mats))
            diffs = []
            for i, (closed, brute) in enumerate(zip(tables.p_matrices, brute_mats)):
                if not np.array_equal(closed, brute):
                    diffs.append({"matrix": f"intersection_{i}",
                                  "closed": _matrix_to_strings(closed),
                                  "brute": _matrix_to_strings(brute)})
            if not np.array_equal(tables.P, brute_P):
                diffs.append({"matrix": "P",
                              "closed": _matrix_to_strings(tables.P),
                              "brute": _matrix_to_strings(brute_P)})
            bm = verify_bose_mesner(p, tables)
            report["brute_force"] = {
                "axioms": True,  # _product_table raises otherwise
                "intersection_matrices": [_matrix_to_strings(mm)
                                          for mm in brute_mats],
                "P": _matrix_to_strings(brute_P),
                "bose_mesner": {key: bm[key] for key in
                                ("idempotency", "resolution_of_identity",
                                 "adjacency_expansion")},
                "projector_traces": [str(t) for t in bm["traces"]],
                "diff": diffs,
            }
    if kind == "affine_hyperplanes":
        report["adjudication"] = hyperplane_adjudication(n, q, brute_P)
    return report
