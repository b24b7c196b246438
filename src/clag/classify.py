"""Exhaustive desk-scale classification searches with machine-checkable
certificates.

The k-set search enumerates every 0/1 vector of the required weight in
the row space of the affine incidence matrix.  It backtracks over the
pencils of (k-1)-spaces at infinity (each must carry exactly x members,
a sound, necessary constraint: spread differences lie in the kernel)
and propagates forced values by elimination modulo a prime; every
surviving candidate still passes the definitional row-space test as a
final, independent filter.  All pruning rules are necessary conditions,
so the enumeration is complete.

A 0/1 vector chi is in the row space iff chi = y M for some rational y
on the points, where M is the point x k-space incidence matrix with
columns m_j.  M is a 2-design, M M^T = (r - lambda) I + lambda J, so
det(M M^T) = (r - lambda)^(v-1) r q^k, with r the k-spaces through a
point, is a unit mod every prime P > r other than the characteristic.
For such a P, y = chi M^T (M M^T)^-1 has no P in any denominator, so
every Cameron-Liebler chi is y M reduced mod P.  The search keeps the
assigned equations m_j . y = v over GF(P), P = `_PRIME`: every true
solution below a node solves them mod P, so a forced value outside
{0, 1}, or an inconsistent system, still proves that none lies there,
and a coincidence mod P can only miss a prune.

The assigned equations are kept as a tableau T = N M and a particular
solution p = y0 M, both int64 residues mod P: the rows of N are a basis
of {z : m_i . z = 0 for every assigned i} and y0 solves every assigned
equation, so every solution gives space j the value p[j] plus a
combination of column j of T.  Hence space j is forced iff column j of
T is zero, its forced value is p[j], and the number of rows of T is the
dimension left.  Assigning j eliminates column j from T with one pivot
row R scaled to R[j] = 1 by one modular inverse, and p <- p - e R with
e = p[j] - v.

T depends only on which spaces were assigned, and in what order, not
on their values.  So T, its list of forced spaces and a memo of the
eliminations made from it are one read-only `_Directions` shared by every
state that reaches it, and an assignment reuses T's elimination and
forms a new p alone.  Every search state is a `_Siblings`: a lone state
owns its values, pencil counts and p, which `_Search._assign` updates,
and siblings share all but p and the spaces their choices set.  The
forced-value scan runs at every node and reads only T's forced columns
that were not its own pivots, so it costs little where nothing is
forced.

Every choice of a branching pencil assigns the pencil's unknown members
in the same order, so all of them meet the same chain of T's, and
along it every check and every update coefficient is a linear form in
the node's p at those members and in the choice's bits.  One plan per
(T, unknown members, count) walks the chain once and keeps each form as
its part on p and its part on the bits summed over each choice, and one
product per node gives every choice's checks and coefficients alpha.
One block step makes every child of the node from it: the choices
whose checks vanish survive, each with p' = p + alpha @ R, the children
of assigning the members one by one.

A child is decided by its whole forced scan before it is built.  The
children of one block step share T, the set of unknown spaces and the
pencil counts, so their scans read the same columns, T's unknown fresh
ones: one product reads every child's p there, and `_Search._scan` runs
each child's scan on those reads alone, in index order, keeping its
pencil counts and the spaces it sets beside it.  A child pruned by
elimination, or whose cascade meets a forced column holding the other
value, is counted and never becomes a search state; a survivor is built
once, with its scan's assignments, and branches.  With nothing to read
the siblings take their next branching together, a block step by one
product of their stacked p[u] with the plan's forms.  In the endgame
the children of a value branch on j share T' = T with j eliminated and
its pivot row R, and their scans read only the columns that eliminating
j forced, where child v holds
p[t] - (p[j] - v) R[t] mod P, scalars of its parent's p computed only
as far as its scan gets.  The exception is a value after which j's
pencil has x ones or needs all its unknown members: that cascade
assigns more before the scan, so its children are built and assigned.
A scan whose cascade would eliminate a column of T hands that read to
`_Search._assign`: its child is built with the reads before it and
scanned on as a state, as the root and the cascades' children are.

Pencil bounds are checked only where they can fail: a value branch
tries a value without reading it, and is the one place that prunes by
pencil counts.  A read, or an assignment that a scan hands on, never
breaks a bound (see `_Search._scan`).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import asdict, dataclass
from math import comb

import numpy as np

from .clsets import (KSet, are_cameron_liebler, complement,
                     kset_from_indices, kset_from_json, point_pencil,
                     project_through_infinite_subspace)
from .geometry import (AmbientSpace, DimensionOutOfRange, _int, _read_only,
                       _subspaces, ambient, capped_count, check_size,
                       count_text, entry_guard, gaussian_binomial)
from .incidence import _dense_rows, build_incidence

__all__ = ["ScaleExceeded", "SearchStats", "search_cl_ksets",
           "classify_hyperplane_cl",
           "verify_hyperplane_spread_classification",
           "cross_check_projection", "verify_certificate"]

DEFAULT_SPACE_CAP = 130
# what a certificate's "pruning_rules" lists, and all it may list; the
# elimination rule is the rational one reduced mod `_PRIME`, which prunes
# no true solution (see the module docstring), so the text stays that of
# the certificates already written
PRUNING_RULES = ("pencil-at-infinity counts (type II spread intersections "
                 "must equal x)",
                 "exact rational forced-value elimination",
                 "final row-space membership filter")
# the largest prime below 2^25: residues stay below P, so a product sums
# at most (m + 1) P^2 < 2^63 over the m = q^(n-k) members of a pencil
# while m < 2^13; past that the dense T alone has over 2^28 entries
_PRIME = 33_554_393
_ENDGAME_DIM = 6         # switch to value branching when this few remain
# how `_Search._scan` ends a scan, unless at a read it hands to `_assign`
_SURVIVED, _CONTRADICTION = "survived", "contradiction"
_ELIMINATION = "elimination"


class ScaleExceeded(RuntimeError):
    pass


@dataclass
class SearchStats:
    """The search's counters, named and ordered as in the certificate."""
    nodes: int = 0
    forced: int = 0
    pruned_by_pencil_counts: int = 0
    pruned_by_elimination: int = 0
    endgame_nodes: int = 0
    solutions: int = 0


class _Contradiction(Exception):
    pass


class _Directions:
    """T mod P, read-only, with its number of rows, its forced (zero)
    columns, the sorted list of those that are not pivots of the
    eliminations that made T, a memo of the eliminations already made
    from it and the pencil plans that start from it.  A T made from its
    parent by eliminating a pivot with row R also keeps what a value
    branch on the pivot reads: the columns it forced (`new`), `reads`,
    those and then the pivot, and R at `reads`."""

    __slots__ = ("a", "dim", "forced", "fresh", "new", "reads", "row_reads",
                 "memo", "plans")

    def __init__(self, a: np.ndarray, parent: "_Directions | None" = None,
                 pivot: int = -1, row: np.ndarray | None = None):
        self.a = _read_only(a)
        self.dim = a.shape[0]
        forced = ~a.any(axis=0)
        self.forced = forced.tolist()
        self.fresh = np.flatnonzero(forced).tolist()
        if parent is not None:  # T is the parent's T with pivot eliminated
            self.new = [j for j in self.fresh
                        if not parent.forced[j] and j != pivot]
            self.fresh = sorted(parent.fresh + self.new)
            self.reads = np.array(self.new + [pivot])
            self.row_reads = row[self.reads].tolist()
        self.memo: dict[int, tuple[np.ndarray, _Directions]] = {}
        self.plans: dict[tuple[tuple[int, ...], int], _Plan] = {}

    def eliminated(self, j: int) -> "tuple[np.ndarray, _Directions]":
        """(R, T') for column j: the pivot row r is the first with
        T[r, j] != 0, R = T[r] / T[r, j] mod P, T[s] <- T[s] - T[s, j] R
        mod P for every other row, and row r takes the last row's place
        while the last row is dropped.  Each changed row is a nonzero
        multiple mod P of the rational elimination's."""
        hit = self.memo.get(j)
        if hit is None:
            a = self.a
            col = a[:, j]
            nz = col.nonzero()[0]
            r, rows = nz[0], nz[1:]
            pivot = a[r] * pow(int(col[r]), -1, _PRIME) % _PRIME
            out = a.copy()
            out[rows] = (a[rows] - col[rows, None] * pivot) % _PRIME
            out[r] = out[-1]
            hit = self.memo[j] = (pivot,
                                  _Directions(out[:-1], self, j, pivot))
        return hit


class _Plan:
    """Every child of a branching pencil at once, for one T, the
    pencil's unknown members u_1 .. u_m and the number `need` of them
    that get value 1.

    Each choice v of `itertools.combinations` assigns u_1 .. u_m in this
    order, as `_Search._assign` does, cascades included, so every choice
    meets the same chain of T's: u_i is either forced in the current T
    or eliminated from it by `_Directions.eliminated`.  With
    e_i = p_{i-1}[u_i] - v_i mod P:
    - a forced u_i needs e_i = 0;
    - an eliminated u_i, with pivot row R_i, makes p_i = p_{i-1} - e_i R_i.
    So every e_i, and every alpha_i = -e_i, is a linear form mod P in
    p[u] of the node and v, the same for every choice.  One walk of the
    chain builds these forms, a check per forced member and an alpha per
    eliminated one, and splits each in two: its part on p[u] is a column
    of `forms`, m x m, and minus its part on v, summed over each
    choice's picks, a column of its targets, m of them; the `nchecks`
    checks come first.  So a choice survives iff p[u] @ forms equals its
    targets on the checks mod P, and then its alphas are
    p[u] @ forms - targets and p' = p + alpha @ R mod P is the p of
    `_Search._assign`.  `passing` maps the targets on the checks to
    the choices that have them, in order, as their bits v with their
    targets on the alphas, so one lookup finds a node's surviving
    choices."""

    __slots__ = ("forms", "passing", "nchecks", "rows", "dirs")

    def __init__(self, dirs: _Directions, unknown: tuple[int, ...],
                 need: int):
        m = len(unknown)
        # targets holds (choices) x m entries
        check_size("{0} choices of {1} pencil members x {1} forms exceed "
                   "guard {cap}", comb(m, need), m)
        picks = np.array(list(itertools.combinations(range(m), need)),
                         dtype=np.intp)
        choices = np.zeros((len(picks), m), dtype=np.int64)
        choices[np.arange(len(picks))[:, None], picks] = 1
        choices = choices.tolist()
        # column l of pu is p[u_l] as a form in (p[u], v)
        pu = np.eye(2 * m, m, dtype=np.int64)
        checks, alphas, rows = [], [], []
        for i, u in enumerate(unknown):
            e = pu[:, i].copy()
            e[m + i] -= 1
            if dirs.forced[u]:
                checks.append(e % _PRIME)
                continue
            row, dirs = dirs.eliminated(u)
            later = row[list(unknown[i + 1:])]
            pu[:, i + 1:] = (pu[:, i + 1:] - e[:, None] * later) % _PRIME
            alphas.append(-e % _PRIME)
            rows.append(row)
        forms = np.stack(checks + alphas, axis=1)
        self.dirs, self.nchecks = dirs, len(checks)
        self.forms = forms[:m]
        targets = -forms[m:][picks].sum(axis=1) % _PRIME
        passing: dict[tuple[int, ...], list[int]] = {}
        for v, key in enumerate(targets[:, :self.nchecks].tolist()):
            passing.setdefault(tuple(key), []).append(v)
        self.passing = {key: ([choices[v] for v in picked],
                              targets[picked, self.nchecks:])
                        for key, picked in passing.items()}
        self.rows = (np.stack(rows) if rows else
                     np.zeros((0, dirs.a.shape[1]), dtype=np.int64))


@dataclass(slots=True, eq=False)
class _Siblings:
    """Search states that share T, the set of unknown spaces and the
    pencil counts, and differ only in p and in the values of the spaces
    `members`: a lone state, `_Siblings(values, ones, unknown, dirs, p)`,
    or the children of one block step.  State i has `values` with
    `members` set to bits[i], and p = `p` when `alphas` is None (a lone
    state), else p + alphas[i] @ rows mod P, formed only where it is
    read; p holds int64 residues in [0, P).  `values` gives every member
    a value, so it shows which spaces every sibling leaves unknown.

    A lone state owns its lists: `_Search._assign` writes them and
    replaces dirs and p by new ones, never writing into an array.  Lists
    that siblings share are never written."""

    values: list[int]
    ones: list[int]
    unknown: list[int]
    dirs: _Directions
    p: np.ndarray
    members: tuple[int, ...] = ()
    bits: list | tuple = ((),)
    alphas: np.ndarray | None = None
    rows: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.bits)

    def columns(self, cols) -> np.ndarray:
        """Every sibling's p at cols, a row per sibling."""
        cols = np.asarray(cols)  # indexes a 2-d array faster than a list
        if self.alphas is None:
            return self.p[cols][None]
        return (self.p[cols] + self.alphas @ self.rows[:, cols]) % _PRIME

    def p_of(self, i: int) -> np.ndarray:
        if self.alphas is None:
            return self.p
        return (self.p + self.alphas[i] @ self.rows) % _PRIME

    def values_of(self, i: int) -> list[int]:
        values = self.values[:]
        for t, val in zip(self.members, self.bits[i]):
            values[t] = val
        return values

    def state(self, i: int) -> _Siblings:
        """Sibling i as a lone state of its own."""
        return _Siblings(self.values_of(i), self.ones[:], self.unknown[:],
                         self.dirs, self.p_of(i))


class _Search:
    """Backtracking enumeration of the 0/1 vectors in the row space with
    exactly x members in every pencil at infinity."""

    def __init__(self, space: AmbientSpace, k: int, x: int, stats: SearchStats):
        # the rank argument of the module docstring needs P > r and P
        # other than the characteristic
        r = gaussian_binomial(space.n, k, space.q)
        if _PRIME <= r or space.q % _PRIME == 0:
            raise ScaleExceeded(f"the search's prime {_PRIME} must exceed the "
                                f"{r} k-spaces through a point and differ "
                                f"from the characteristic")
        self.x = x
        self.stats = stats
        _, pencil_members, per_space = space.infinity_pencils(k)
        self.pencils = pencil_members.tolist()
        self.per_space = [int(v) for v in per_space]
        self.incidence = build_incidence(space, k)
        # T of the root, a copy of M, which `_Directions` locks against
        # writes; an F-order copy measured no faster
        self.root = _Directions(_dense_rows(space, k).T.astype(np.int64,
                                                                order="C"))
        self.solutions: list[tuple[int, ...]] = []
        self.plans_built = 0
        self.states_built = 0

    # -- assignment and propagation ----------------------------------------

    def _assign(self, state, j, val):
        """Assigns val to the unknown space j of the lone state and
        cascades a pencil that becomes full or exact.  A forced j must
        hold val in p, else _Contradiction; otherwise T is eliminated by
        `_Directions.eliminated` and, with its pivot row R,
        p <- p - e R mod P with e = p[j] - val, unless e = 0.  No pencil
        bound is checked: no caller's assignment takes j's pencil out of
        ones <= x <= ones + unknown (see `_scan`), and a cascade fills
        its pencil exactly."""
        state.values[j] = val
        pid = self.per_space[j]
        state.unknown[pid] -= 1
        state.ones[pid] += val
        dirs, p = state.dirs, state.p
        if dirs.forced[j]:
            if p.item(j) != val:
                raise _Contradiction
        else:
            row, state.dirs = dirs.eliminated(j)
            e = p.item(j) - val
            if e:
                state.p = (p - e * row) % _PRIME
        ones, unknown = state.ones[pid], state.unknown[pid]
        if unknown and ones == self.x:
            for t in self.pencils[pid]:
                if state.values[t] == -1:
                    self._assign(state, t, 0)
        elif unknown and ones + unknown == self.x:
            for t in self.pencils[pid]:
                if state.values[t] == -1:
                    self._assign(state, t, 1)

    def _scan(self, values, todo, ones, unknown, first, children, r=None,
              val=0):
        """The forced scans of children that share T, the spaces set in
        `values` and `first`, the pencil counts ones and unknown, and
        the columns todo that each scan reads, in index order, without
        building its child.  `children` holds pairs (i, base): child i's
        p at todo[k] is base[k], or with r, (base[k] - e r[k]) mod P with
        e = base[-1] - val, read only as far as the scan gets.  Counts
        every read and every prune by elimination, and yields (i, exit,
        done, ones, unknown) for each child whose scan ends in neither a
        prune nor a contradiction, a cascade onto a forced column holding
        the other value, which `_assign` raises uncounted.  done, ones
        and unknown are those of the child, copied at its scan's first
        assignment, and exit is `_SURVIVED` or the read j whose pencil's
        cascade only `_assign` can make: one that meets a column outside
        todo, unforced, so that T changes, or forced but not read here,
        with j and what follows it unapplied.

        No read can break a pencil bound, so none is checked: before a
        scan every pencil with unknown members has ones < x < ones +
        unknown, since a cascade fills every pencil that reaches x ones
        or needs all its unknown members, and a read keeps this or
        cascades.  At x = 0 every value is 0, p and so every read
        included, and where x is a pencil's size every value is 1."""
        x, per_space, pencils = self.x, self.per_space, self.pencils
        stats, e, rr, pos = self.stats, 0, r, None
        for i, base in children:
            if r is None:
                rr = base
            else:
                e = base[-1] - val
            done, counts, left, reads, exit = (first, ones, unknown, 0,
                                               _SURVIVED)
            for j, b, c in zip(todo, base, rr):
                if j in done:  # set by a pencil cascade
                    continue
                v = (b - e * c) % _PRIME
                if v > 1:
                    exit = _ELIMINATION
                    break
                pid = per_space[j]
                ones_p, left_p = counts[pid] + v, left[pid] - 1
                cascade = ()
                if left_p and (ones_p == x or ones_p + left_p == x):
                    fill = int(ones_p < x)
                    cascade = [t for t in pencils[pid]
                               if t != j and values[t] == -1 and t not in done]
                    if pos is None:
                        pos = {t: k for k, t in enumerate(todo)}
                    for t in cascade:  # in the order `_assign` takes them
                        k = pos.get(t)
                        if k is None:
                            exit = j
                            break
                        if (base[k] - e * rr[k]) % _PRIME != fill:
                            exit = _CONTRADICTION
                            break
                    if exit is not _SURVIVED:
                        break
                    ones_p += fill * len(cascade)
                    left_p -= len(cascade)
                if not reads:
                    done, counts, left = dict(done), counts[:], left[:]
                done[j] = v
                for t in cascade:
                    done[t] = fill
                counts[pid], left[pid] = ones_p, left_p
                reads += 1
            stats.forced += reads
            if exit is _ELIMINATION:
                stats.pruned_by_elimination += 1
            elif exit is not _CONTRADICTION:
                yield i, exit, done, counts, left

    def _scan_forced(self, state, j=-1):
        """`_scan` on state's own p, applied to state, after first
        making the read j, if any, that a scan handed on.  A read handed
        on ends one scan: `_assign` makes it, and the scan resumes past
        it, on the new T if its cascade changed T; a pass that changed T
        is followed by a pass from the start, where the new T's forced
        columns may lie (with T unchanged a pass leaves no forced column
        unknown).  A T's pivots are assigned in every state that reaches
        it, so only its other forced columns (`fresh`) that are unknown
        are read."""
        values = state.values
        changed, after = False, -1
        while True:
            if j >= 0:
                dirs = state.dirs
                self._assign(state, j, state.p.item(j))
                self.stats.forced += 1
                changed |= state.dirs is not dirs
                after = j
            todo = [t for t in state.dirs.fresh
                    if t > after and values[t] == -1]
            scanned = next(self._scan(
                values, todo, state.ones, state.unknown, {},
                [(0, state.p[todo].tolist())]), None)
            if scanned is None:
                raise _Contradiction
            _, exit, done, state.ones, state.unknown = scanned
            for t, val in done.items():
                values[t] = val
            if exit is not _SURVIVED:
                j = exit
            elif changed:
                changed, after, j = False, -1, -1
            else:
                return

    # -- main recursion ----------------------------------------------------
    #
    # A node is counted when it is decided, and scanned before or as it
    # is built: a child only once its scan survives (`_decide`).
    # Siblings whose scan would read nothing are counted together and
    # branch together.

    def run(self):
        v = len(self.per_space)
        self.stats.nodes += 1
        self._dfs(_Siblings([-1] * v, [0] * len(self.pencils),
                            [len(p) for p in self.pencils], self.root,
                            np.zeros(v, dtype=np.int64)))
        self.solutions.sort()

    def _dfs(self, state, j=-1):
        """Scans a counted node, after the read j of `_scan_forced`, and
        branches."""
        try:
            self._scan_forced(state, j)
        except _Contradiction:
            return
        self._branch(state)

    def _visit(self, sibs):
        """Counts and scans the unscanned children of one block step.
        They share T, their unknown spaces and pencil counts, so they
        share `todo`, T's unknown fresh columns, and one product reads
        every sibling's p there for `_decide`.  With no todo no scan
        reads anything and the siblings branch together."""
        todo = [t for t in sibs.dirs.fresh if sibs.values[t] == -1]
        if not todo:
            self.stats.nodes += len(sibs)
            self._branch(sibs)
            return
        self._decide(sibs, sibs.dirs, todo, sibs.columns(todo).tolist(),
                     sibs.ones, sibs.unknown)

    def _decide(self, sibs, dirs, todo, cols, ones, unknown, j=-1, val=0):
        """Counts a child of each sibling and decides it by its whole
        forced scan before it is built.  The children have T = dirs, the
        unknown fresh columns `todo` and the pencil counts ones and
        unknown, and cols holds each one's p at todo.  With j, the child
        is the sibling with j set to val, T' = dirs, its p is
        p - (p[j] - val) R mod P with R the pivot row, and cols holds
        the sibling's p at `dirs.reads`.  A pruned child is never built;
        a survivor is built once with its scan's assignments and
        branches; a child whose scan hands a read to `_assign` is built
        with the reads before it, and `_dfs` scans it on."""
        first, row, r = {}, None, None
        if j >= 0:
            first, row = {j: val}, sibs.dirs.eliminated(j)[0]
            r = dirs.row_reads
        self.stats.nodes += len(cols)
        for i, exit, done, counts, left in self._scan(
                sibs.values, todo, ones, unknown, first, enumerate(cols), r,
                val):
            values = sibs.values_of(i)
            for t, v in done.items():
                values[t] = v
            p = sibs.p_of(i)
            if row is not None and p.item(j) != val:
                p = (p - (p.item(j) - val) * row) % _PRIME
            self.states_built += 1
            state = _Siblings(values, counts[:], left[:], dirs, p)
            if exit is _SURVIVED:
                self._branch(state)
            else:
                self._dfs(state, exit)

    def _branch(self, sibs):
        """The common next branching of scanned siblings: every one a
        leaf, a value branch in the endgame, or a block step."""
        nxt = next(itertools.compress(itertools.count(), sibs.unknown), None)
        if nxt is None:
            # every pencil keeps ones <= x <= ones + unknown (`_scan`)
            assert sibs.ones == [self.x] * len(sibs.ones)
            for i in range(len(sibs)):
                self._leaf(sibs.values_of(i))
        elif sibs.dirs.dim <= _ENDGAME_DIM:
            self.stats.endgame_nodes += len(sibs)
            self._value_branch(sibs, nxt)
        else:
            for _, kids in self._children(sibs, nxt):
                self._visit(kids)

    def _value_branch(self, sibs, pid):
        """Both values of the first unknown member j of pencil pid, for
        every sibling.  A value that breaks the pencil's bounds prunes
        every sibling, the search's one prune by pencil counts.  Unless
        the pencil is pruned or cascades, the children of a value share
        T' = T with j eliminated, its pivot row R and their unknown fresh
        columns, T'.new, the columns that eliminating j forced: a scanned
        sibling has every fresh column of T assigned.  One product reads
        every sibling's p there and at j, and `_decide` decides each
        child from those reads; a cascade's children are built and
        assigned."""
        shared = sibs.values
        j = next(t for t in self.pencils[pid] if shared[t] == -1)
        left = sibs.unknown[pid] - 1
        dirs = None
        for val in (0, 1):
            ones = sibs.ones[pid] + val
            if ones > self.x or ones + left < self.x:
                self.stats.pruned_by_pencil_counts += len(sibs)
                continue
            if left and (ones == self.x or ones + left == self.x):
                for i in range(len(sibs)):  # a cascade: build and assign
                    child = sibs.state(i)
                    self.states_built += 1
                    try:
                        self._assign(child, j, val)
                    except _Contradiction:
                        continue
                    self.stats.nodes += 1
                    self._dfs(child)
                continue
            if dirs is None:
                dirs = sibs.dirs.eliminated(j)[1]
                cols = sibs.columns(dirs.reads).tolist()
            counts, unknown = sibs.ones[:], sibs.unknown[:]
            counts[pid], unknown[pid] = ones, left
            self._decide(sibs, dirs, dirs.new, cols, counts, unknown, j, val)

    def _children(self, sibs, pid):
        """Per sibling i with any, (i, its children): the states that
        complete pencil pid with exactly x members, in the order of
        `itertools.combinations` over its unknown members, each as if
        those members were assigned in pencil order.  One block step of
        the `_Plan` kept on T for (unknown, need) serves every sibling:
        one product of the stacked p[u] with `forms` gives every
        sibling's checks, which pick its surviving choices from
        `passing`, and their alphas give its children's p."""
        unknown = tuple(t for t in self.pencils[pid] if sibs.values[t] == -1)
        need = self.x - sibs.ones[pid]
        dirs = sibs.dirs
        key = (unknown, need)
        plan = dirs.plans.get(key)
        if plan is None:
            plan = dirs.plans[key] = _Plan(dirs, unknown, need)
            self.plans_built += 1
        nchecks = plan.nchecks
        base = sibs.columns(list(unknown)) @ plan.forms % _PRIME
        ones = sibs.ones[:]
        ones[pid] = self.x
        left = sibs.unknown[:]
        left[pid] = 0
        for i, checks in enumerate(base[:, :nchecks].tolist()):
            hit = plan.passing.get(tuple(checks))
            if hit is None:
                continue
            bits, tails = hit
            alphas = (base[i, nchecks:] - tails) % _PRIME
            values = sibs.values_of(i)
            for t, val in zip(unknown, bits[0]):
                values[t] = val
            yield i, _Siblings(values, ones, left, plan.dirs, sibs.p_of(i),
                               unknown, bits, alphas, plan.rows)

    def _leaf(self, values):
        chi = np.array(values, dtype=np.int64)
        assert (chi >= 0).all()
        if not self.incidence.in_row_space(chi):
            return  # final definitional filter
        self.solutions.append(tuple(int(i) for i in np.nonzero(chi)[0]))
        self.stats.solutions += 1


def search_cl_ksets(n: int, q: int, k: int, x: int,
                    cap: int | None = None, seed: int = 0,
                    timing: bool = False) -> dict:
    """Complete classification certificate for the Cameron-Liebler
    k-sets of AG(n, q) with parameter x.  With `timing`, the search
    rate `nodes_per_s`, the number of pencil plans built and the number
    of children built as search states follow `wall_clock_s`; like it
    they describe the run, not the classification."""
    if not 1 <= k <= n - 1:
        raise DimensionOutOfRange(f"k={k} outside 1..{n - 1}")
    space = ambient(n, q, "affine")
    limit = cap if cap is not None else DEFAULT_SPACE_CAP
    # closed form, nothing built past the cap: q^(n-k) [n k]_q is at
    # least q^((k+1)(n-k))
    total = capped_count(lambda: space._num_spaces(k), q, (k + 1) * (n - k),
                         limit)
    if total > limit:
        raise ScaleExceeded(f"{count_text(total)} k-spaces exceed the cap "
                            f"{limit}")
    bases = space.bases(k)
    start = time.monotonic()
    max_x = q ** (n - k)
    complemented = False
    solutions: list[tuple[int, ...]] = []
    stats = SearchStats()
    plans_built = states_built = 0
    if 0 <= x <= max_x:
        search_x = x
        if x > max_x - x:
            complemented = True
            search_x = max_x - x
        search = _Search(space, k, search_x, stats)
        search.run()
        plans_built, states_built = search.plans_built, search.states_built
        found = search.solutions
        if complemented:
            allidx = frozenset(range(total))
            found = sorted(tuple(sorted(allidx - frozenset(s))) for s in found)
        solutions = found
    wall = time.monotonic() - start
    cert = {
        "problem": {"n": n, "q": q, "k": k, "x": x, "mode": "affine"},
        "space_count": total,
        "expected_weight": x * gaussian_binomial(n, k, q),
        "complement_symmetry_used": complemented,
        "pruning_rules": list(PRUNING_RULES),
        "solution_count": len(solutions),
        "solutions": [{"indices": list(s),
                       "members": bases[list(s)].tolist()}
                      for s in solutions],
        "stats": asdict(stats),
        "seed": seed,
    }
    cert["wall_clock_s"] = round(wall, 3)
    if timing:
        cert["nodes_per_s"] = round(stats.nodes / wall) if wall > 0 else 0
        cert["plans_built"] = plans_built
        cert["states_built"] = states_built
    return cert


def verify_certificate(cert: dict) -> bool:
    """Standalone re-verification: every listed solution passes the
    definitional test and the count matches the claim.  Each solution's
    members are read by `clsets.kset_from_json`, as a k-set file is, and
    must match its `indices`; every solution is then decided in one
    `clsets.are_cameron_liebler` call.  A malformed certificate is
    rejected, not raised on: one with a member `kset_from_json` refuses,
    one that lists a solution twice, or one that `search_cl_ksets` never
    writes: a mode other than affine, a k outside 1..n-1, a bool where
    an int is meant, a `space_count`, `expected_weight` or
    `complement_symmetry_used` other than its closed form, or
    `pruning_rules` other than `PRUNING_RULES`.  A well-formed
    certificate too large for `entry_guard()` raises SizeGuard, not
    False: reading its first solution enumerates the closure's k-spaces
    and deciding the solutions reads their point lists, both guarded.
    A certificate with no solutions is decided on its header alone."""
    try:
        prob = cert["problem"]
        if prob["mode"] != "affine":
            return False
        n, q, k, x = (_int(prob[key]) for key in ("n", "q", "k", "x"))
        space = ambient(n, q, "affine")
        # q^(n-k) >= 2^bits, space_count = q^(n-k) [n k]_q is at least
        # q^((k+1)(n-k)) and expected_weight = x [n k]_q at least
        # x q^(k(n-k)): a shorter claim is refused before the closed
        # forms are formed, which took 0.2 s for the planes of
        # AG(10^6, 3) on a 2-core host
        bits = (n - k) * (q.bit_length() - 1)
        if (not 1 <= k <= n - 1
                or _int(cert["space_count"]).bit_length() <= (k + 1) * bits
                or x > 0 and _int(cert["expected_weight"]).bit_length()
                <= k * bits):
            return False
        g, top = gaussian_binomial(n, k, q), q ** (n - k)
        if (_int(cert["space_count"]) != top * g
                or _int(cert["expected_weight"]) != x * g
                or cert["complement_symmetry_used"]
                is not (0 <= x <= top and x > top - x)
                or cert["pruning_rules"] != list(PRUNING_RULES)):
            return False
        claimed = [(sorted(map(_int, sol["indices"])),
                    kset_from_json({**prob, "members": sol["members"]}))
                   for sol in cert["solutions"]]
        if (len(claimed) != _int(cert["solution_count"])
                or len({tuple(i) for i, _ in claimed}) != len(claimed)):
            return False
    except (KeyError, TypeError, ValueError):
        return False
    ksets = [l for _, l in claimed]
    return (all(sorted(l.members) == i and l.x == x for i, l in claimed)
            and all(are_cameron_liebler(space, k, ksets)))


# ---------------------------------------------------------------------------
# hyperplane sets
# ---------------------------------------------------------------------------

def classify_hyperplane_cl(n: int, q: int) -> dict:
    """Classification of Cameron-Liebler hyperplane sets.

    Two independent routes: (a) an exact structure proof (the kernel of
    the incidence matrix is spanned by parallel-class differences, so
    the Cameron-Liebler sets are exactly the per-class x-selections,
    C(q, x)^c of them for each x); (b) the complete pencil search of
    `search_cl_ksets` for each x, on min(x, q - x) by complement, whose
    counts are cross-checked against (a) and whose every set is checked
    to hold x members of each parallel class.  (b) is skipped when (a)'s
    total count times |X| exceeds `entry_guard()`.

    That last check, `every_solution_selects_x_per_class`, re-reads what
    the search already enforces before a set reaches `_Search._leaf`:
    every pencil at infinity holds exactly y of its members (the
    search's proved pencil rule).  So it cannot read False on a working
    search; it cross-checks the leaves, not the pencil rule, and the
    classification rests on the counts of (a) and (b).
    """
    space = ambient(n, q, "affine")
    k = n - 1
    inc = build_incidence(space, k)
    total = inc.shape[1]
    rank = inc.rank()
    _, pencil_members, per_space = space.infinity_pencils(k)
    n_classes = len(pencil_members)
    # (a) the kernel is spanned by differences of parallel classes
    kern_dim = total - rank
    if kern_dim != n_classes - 1:
        raise AssertionError("kernel dimension does not match class count")
    # row i - 1 is class 0 minus class i
    diff_mat = ((per_space == 0).astype(np.int64)
                - (per_space == np.arange(1, n_classes)[:, None]))
    in_kernel = not inc._point_sums(diff_mat.T).any()
    if not in_kernel:
        raise AssertionError("class differences are not in the kernel")
    counts = {x: comb(q, x) ** n_classes for x in range(q + 1)}
    report = {
        "n": n, "q": q, "hyperplanes": total,
        "classes_at_infinity": n_classes,
        "structure_proof": {
            "incidence_rank": rank,
            "kernel_dim": kern_dim,
            "class_differences_span_kernel": bool(in_kernel),
        },
        "counts_per_x": {str(x): counts[x] for x in sorted(counts)},
        "total": sum(counts.values()),
        "exhaustive": None,
    }
    cap = entry_guard()
    if report["total"] * total > cap:
        report["exhaustive"] = {"skipped": f"size guard ({report['total']} "
                                           f"sets x {total} > {cap})"}
        return report
    found, structure_ok = {}, True
    for y in range(q // 2 + 1):  # complements select q - y per class
        search = _Search(space, k, y, SearchStats())
        search.run()
        sols = search.solutions
        found[y] = found[q - y] = len(sols)
        which = np.repeat(np.arange(len(sols)), [len(s) for s in sols])
        members = per_space[[j for s in sols for j in s]]
        per_class = np.bincount(which * n_classes + members,
                                minlength=len(sols) * n_classes)
        structure_ok = structure_ok and bool((per_class == y).all())
    report["exhaustive"] = {
        "counts_per_x": {str(x): found[x] for x in sorted(found)},
        "matches_structure_counts": found == counts,
        "every_solution_selects_x_per_class": structure_ok,
    }
    return report


def verify_hyperplane_spread_classification(n: int, q: int) -> dict:
    """Exhaustively find every (n-1)-spread of AG(n, q) by partition
    backtracking and confirm each is a parallel class (type II)."""
    space = ambient(n, q, "affine")
    k = n - 1
    point_sets = [frozenset(p) for p in space.point_lists(k).tolist()]
    _, _, per_space = space.infinity_pencils(k)
    all_points = frozenset(range(space.num_points))
    spreads: list[tuple[int, ...]] = []

    def extend(chosen: list[int], covered: frozenset):
        # the member containing the least uncovered point is unique per
        # spread, so each spread is produced exactly once
        if covered == all_points:
            spreads.append(tuple(sorted(chosen)))
            return
        nxt = min(all_points - covered)
        for j in range(len(point_sets)):
            if nxt in point_sets[j] and not (point_sets[j] & covered):
                extend(chosen + [j], covered | point_sets[j])

    extend([], frozenset())
    unique = sorted(set(spreads))
    all_type_ii = all(len({int(per_space[j]) for j in s}) == 1 for s in unique)
    expected = (q**n - 1) // (q - 1)
    return {"n": n, "q": q, "spread_count": len(unique),
            "expected": expected,
            "count_matches": len(unique) == expected,
            "all_type_II": all_type_ii,
            "spreads": [list(s) for s in unique]}


# ---------------------------------------------------------------------------
# projection cross-check
# ---------------------------------------------------------------------------

def cross_check_projection(n: int, q: int, k: int) -> dict:
    """Project every catalogued Cameron-Liebler k-set through each
    admissible (k-2)-space at infinity and confirm the image is a
    Cameron-Liebler line class of the same parameter.  The catalogue
    and the images are each tested in one membership call."""
    if n < k + 2:
        raise ScaleExceeded("projection cross-check needs n >= k+2")
    space = ambient(n, q, "affine")
    catalog: list[tuple[str, KSet]] = []
    for p in space.points:
        catalog.append((f"pencil@{':'.join(map(str, p))}",
                        point_pencil(space, p, k)))
    catalog.append(("empty", kset_from_indices(space, k, [])))
    catalog.append(("complement_of_pencil",
                    complement(point_pencil(space, space.points[0], k))))
    verdicts = are_cameron_liebler(space, k, [l for _, l in catalog])
    for (name, _), ok in zip(catalog, verdicts):
        if not ok:
            raise AssertionError(f"catalog set {name} is not Cameron-Liebler")
    axes = _subspaces(n, q, space.infinite_index(k - 2).bases)
    pairs = [(name, l, axis) for name, l in catalog for axis in axes]
    images = [project_through_infinite_subspace(l, axis)
              for _, l, axis in pairs]
    # every image is a line set of AG(n-k+1, q)
    verdicts = are_cameron_liebler(ambient(n - k + 1, q, "affine"), 1,
                                   images)
    results = [{"set": name, "axis": axis.to_json(), "image_is_cl": img_ok,
                "same_parameter": img.x == l.x}
               for (name, l, axis), img, img_ok in zip(pairs, images, verdicts)]
    all_ok = all(r["image_is_cl"] and r["same_parameter"] for r in results)
    return {"n": n, "q": q, "k": k, "projections": len(results),
            "all_images_cl_with_same_x": all_ok,
            "details": results}
