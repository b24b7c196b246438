import hashlib
import inspect
import itertools
import json
import random
import sys
from collections import Counter
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest

from clag import classify, cli, exact
from clag.classify import (ScaleExceeded, SearchStats, _Contradiction,
                           _ENDGAME_DIM, _Search, _Siblings,
                           classify_hyperplane_cl, cross_check_projection,
                           search_cl_ksets, verify_certificate,
                           verify_hyperplane_spread_classification)
from clag.clsets import (complement, is_cameron_liebler, kset_from_indices,
                         point_pencil)
from clag.geometry import AmbientSpace, SizeGuard, ambient, gaussian_binomial
from clag.incidence import build_incidence
from oracle import (BuildEveryChildSearch, OneArrayTableau, bareiss_rank,
                    combination_children, dense_incidence, solve_left)


def found_sets(cert):
    return sorted(tuple(s["indices"]) for s in cert["solutions"])


def test_search_ag32_x0():
    cert = search_cl_ksets(3, 2, 1, 0)
    assert cert["solution_count"] == 1
    assert cert["solutions"][0]["indices"] == []


def test_search_ag32_x1_finds_exactly_the_pencils():
    cert = search_cl_ksets(3, 2, 1, 1)
    space = ambient(3, 2, "affine")
    pencils = sorted(tuple(sorted(point_pencil(space, p, 1).members))
                     for p in space.points)
    assert cert["solution_count"] == 8
    assert found_sets(cert) == pencils


def test_search_ag32_x2_nonexistence():
    cert = search_cl_ksets(3, 2, 1, 2)
    assert cert["solution_count"] == 0
    assert cert["stats"]["nodes"] > 0
    assert "pruning_rules" in cert


def test_search_complement_symmetry():
    space = ambient(3, 2, "affine")
    cert = search_cl_ksets(3, 2, 1, 3)
    assert cert["complement_symmetry_used"]
    complements = sorted(
        tuple(sorted(complement(point_pencil(space, p, 1)).members))
        for p in space.points)
    assert found_sets(cert) == complements
    assert search_cl_ksets(3, 2, 1, 4)["solution_count"] == 1


def test_search_out_of_parameter_range():
    assert search_cl_ksets(3, 2, 1, 5)["solution_count"] == 0
    assert search_cl_ksets(3, 2, 1, -1)["solution_count"] == 0


def test_search_injected_solutions_rediscovered():
    # completeness double-check: known solutions are always in the output
    space = ambient(3, 2, "affine")
    x1 = found_sets(search_cl_ksets(3, 2, 1, 1))
    for p in space.points:
        assert tuple(sorted(point_pencil(space, p, 1).members)) in x1
    x4 = found_sets(search_cl_ksets(3, 2, 1, 4))
    assert tuple(range(28)) in x4


def test_search_certificates_reverify():
    for x in (0, 1, 3):
        cert = search_cl_ksets(3, 2, 1, x)
        assert verify_certificate(cert)
    # a corrupted certificate fails verification
    cert = search_cl_ksets(3, 2, 1, 1)
    cert["solutions"][0]["indices"][0] = 27
    assert not verify_certificate(cert)


def malformed(cert, where):
    """The AG(3,2) x=1 certificate with one defect planted at `where`."""
    bad = json.loads(json.dumps(cert))
    sol = bad["solutions"][0]
    if where == "plane":
        sol["members"][0] = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    elif where == "code":
        sol["members"][0][0][-1] = 5
    elif where == "code_past_int64":
        sol["members"][0][0][-1] = 2**63
    elif where == "indices":
        del sol["indices"]
    elif where == "swapped":
        sol["members"][0] = sol["members"][0][::-1]
    elif where == "repeated_solution":
        bad["solutions"].append(sol)
        bad["solution_count"] += 1
    elif where == "repeated_member":
        sol["members"].append(sol["members"][0])
        sol["indices"].append(sol["indices"][0])
    elif where.startswith("k="):
        # search_cl_ksets writes only 1 <= k <= n-1; k=0 lists a point
        bad["problem"]["k"] = int(where[2])
        if where == "k=0 point":
            bad["solutions"] = [{"indices": [0],
                                 "members": [[[1, 0, 0, 0]]]}]
        else:
            bad["solutions"] = []
        bad["solution_count"] = len(bad["solutions"])
    # fields search_cl_ksets writes in closed form, and ints given as
    # bools, which compare equal to 0 and 1
    elif where == "space_count":
        bad["space_count"] = 29  # 28 lines
    elif where == "expected_weight":
        bad["expected_weight"] = 3  # x [3 1]_2 = 7
    elif where == "complement_symmetry_used":
        bad["complement_symmetry_used"] = True  # x = 1 is not past 8 - 1
    elif where == "mode":
        bad["problem"]["mode"] = "projective"
    elif where in ("k_bool", "x_bool"):
        bad["problem"][where[0]] = True
    elif where == "index_bool":
        sol = next(s for s in bad["solutions"] if 1 in s["indices"])
        sol["indices"][sol["indices"].index(1)] = True
    elif where == "member_bool":
        sol["members"][0][0][0] = True  # an affine member's leading 1
    elif where == "member_float":
        sol["members"][0][1][0] = 0.0  # a direction row's leading 0
    elif where == "pruning_rules":
        bad["pruning_rules"] = []
    elif where == "pruning_rules_missing":
        del bad["pruning_rules"]
    return bad


@pytest.mark.parametrize("where", ["plane", "code", "code_past_int64",
                                   "indices", "swapped",
                                   "repeated_solution", "repeated_member",
                                   "k=0 point", "k=0", "k=3",
                                   "space_count", "expected_weight",
                                   "complement_symmetry_used", "mode",
                                   "k_bool", "x_bool", "index_bool",
                                   "member_bool", "member_float",
                                   "pruning_rules", "pruning_rules_missing"])
def test_malformed_certificate_is_rejected(where):
    cert = search_cl_ksets(3, 2, 1, 1)
    assert verify_certificate(cert)
    assert verify_certificate(malformed(cert, where)) is False


def test_certificate_past_the_size_guard_raises(monkeypatch):
    # a well-formed header for AG(12,3) lines at x = 1: its first solution
    # would be read from the 52,955,405,230 lines of PG(12,3)
    monkeypatch.delenv("CLAG_SIZE_GUARD", raising=False)
    g = gaussian_binomial(12, 1, 3)
    cert = {"problem": {"n": 12, "q": 3, "k": 1, "x": 1, "mode": "affine"},
            "space_count": 3**11 * g, "expected_weight": g,
            "complement_symmetry_used": False,
            "pruning_rules": list(classify.PRUNING_RULES),
            "solution_count": 1,
            "solutions": [{"indices": [0], "members": [
                [[1] + [0] * 12, [0] * 12 + [1]]]}]}
    with pytest.raises(SizeGuard,
                       match=r"^52955405230 1-spaces of PG\(12,3\)"):
        verify_certificate(cert)
    # no solutions: the header alone decides
    cert.update(solution_count=0, solutions=[])
    assert verify_certificate(cert)


def test_oversized_header_is_rejected_before_its_closed_forms(monkeypatch):
    # an AG(10^6, 3) lines header with the AG(3,2) claims: space_count
    # must be at least 3^(2 (10^6 - 1)), so it is refused on its bit
    # length, before [10^6 1]_3 or 3^(10^6 - 1) is formed
    cert = search_cl_ksets(3, 2, 1, 1)
    cert.update(solution_count=0, solutions=[])
    cert["problem"]["n"] = 10**6

    def refuse(*args):
        raise AssertionError("a closed form was formed")
    monkeypatch.setattr(classify, "gaussian_binomial", refuse)
    assert verify_certificate(cert) is False
    # a space_count long enough, but an expected_weight below 3^(10^6 - 1)
    cert["space_count"] = 1 << 2 * 10**6
    assert verify_certificate(cert) is False


def test_search_is_deterministic():
    a = search_cl_ksets(3, 2, 1, 1)
    b = search_cl_ksets(3, 2, 1, 1)
    a.pop("wall_clock_s"), b.pop("wall_clock_s")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def without_wall_clock(cert):
    cert = dict(cert)
    cert.pop("wall_clock_s")
    return json.dumps(cert, sort_keys=True)


def test_search_certificates_are_pinned():
    # SHA-256 of the whole certificates, wall clock aside, of AG(3,3)
    # lines at x = 1 (the 27 pencils) and x = 2 (none): any change to
    # their bytes, the pruning rules' text included, moves them
    pinned = {
        1: "25a34295d7cdd95ef7e8abe16869c4961aca20ec340d2e026f1e7e33aa2a415d",
        2: "ebe09c76274b49d3ef4f52594c63409b7eebea10de78e04c45772cf0e4c090e8"}
    for x, digest in pinned.items():
        text = without_wall_clock(search_cl_ksets(3, 3, 1, x))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("n,q,k,x,stats", [
    (3, 3, 1, 2, (8488, 11473, 0, 4665, 3024, 0)),
    (3, 3, 1, 1, (325, 1235, 0, 72, 189, 27)),
    (4, 2, 1, 1, (89, 865, 0, 8, 56, 16)),
    (3, 4, 1, 1, (1801, 7833, 0, 24, 288, 64)),
    (5, 2, 1, 2, (3585, 85080, 0, 935, 1384, 0)),
    (3, 3, 1, 3, (80080, 70341, 0, 48813, 27678, 0)),
    (4, 3, 1, 1, (937, 39236, 0, 18, 405, 81)),
    (5, 2, 2, 1, (345, 19264, 0, 96, 112, 32)),
    (5, 2, 3, 2, (349, 576, 0, 194, 0, 0)),
    # pencil-count prunes, where a value branch's children are built
    (3, 3, 1, 0, (7, 7, 3, 0, 3, 1)),
    (5, 2, 3, 4, (17, 139, 4, 0, 4, 1)),
    # no endgame: every child is decided in a block step
    (4, 3, 2, 2, (22501, 26622, 0, 19872, 0, 0))])
def test_search_statistics_are_pinned(n, q, k, x, stats):
    # any change to the order of forced-value scans or of a pencil's
    # choices moves these counts
    cap = len(ambient(n, q, "affine").spaces(k))
    assert search_cl_ksets(n, q, k, x, cap=cap)["stats"] == asdict(
        SearchStats(*stats))


REFERENCE_SEARCHES = [
    *((3, 2, 1, x) for x in range(5)), *((3, 3, 1, x) for x in range(4)),
    (4, 2, 2, 1), (4, 2, 2, 2), (5, 2, 3, 2), (5, 2, 3, 4), (3, 4, 1, 1)]


@pytest.mark.parametrize("n,q,k,x", REFERENCE_SEARCHES)
def test_search_matches_build_every_child_reference(n, q, k, x):
    # deciding children by their whole forced scan before they are built,
    # and branching siblings together, changes no counter and no solution
    space = ambient(n, q, "affine")
    got, want = SearchStats(), SearchStats()
    search = _Search(space, k, x, got)
    search.run()
    reference = BuildEveryChildSearch(space, k, x, want)
    reference.run()
    assert got == want
    assert search.solutions == reference.solutions


class _ExitCountingSearch(_Search):
    """A search that counts how each child's scan in `_scan` ends.  The
    scan counts its prunes itself and yields only the other children,
    so each call is run to its end before its children are handed back;
    a child neither pruned nor yielded ended in a contradiction."""

    def __init__(self, *args):
        super().__init__(*args)
        self.exits = Counter()

    def _scan(self, values, todo, ones, unknown, first, children, *rest):
        children = list(children)
        elim = self.stats.pruned_by_elimination
        out = list(super()._scan(values, todo, ones, unknown, first,
                                 children, *rest))
        elim = self.stats.pruned_by_elimination - elim
        self.exits["elimination"] += elim
        self.exits["contradiction"] += len(children) - len(out) - elim
        for _, exit, *_ in out:
            self.exits["survived" if exit is classify._SURVIVED
                       else "handed to _assign"] += 1
        yield from out


def test_every_scan_exit_is_taken():
    # over the reference rows, some child's scan is pruned by
    # elimination, ends in a cascade contradiction, hands a T-changing
    # cascade to `_assign`, and survives; counting them changes no
    # counter
    exits = Counter()
    for n, q, k, x in REFERENCE_SEARCHES:
        space = ambient(n, q, "affine")
        got, want = SearchStats(), SearchStats()
        search = _ExitCountingSearch(space, k, x, got)
        search.run()
        _Search(space, k, x, want).run()
        assert got == want
        exits += search.exits
    assert set(exits) == {"elimination", "contradiction",
                          "handed to _assign", "survived"}
    assert min(exits.values()) > 0


class _BoundCheckingSearch(_Search):
    """A search that re-checks the pencil bounds
    ones <= x <= ones + unknown, which neither `_scan` nor `_assign`
    checks, at every `_assign` and at every read of a scan: a trace on
    `_scan` reads the counts ones_p and left_p that the read forms."""

    def __init__(self, *args):
        super().__init__(*args)
        self.checked = Counter()

    def _bound(self, where, ones, unknown):
        assert ones <= self.x <= ones + unknown, where
        self.checked[where] += 1

    def _assign(self, state, j, val):
        pid = self.per_space[j]
        self._bound("_assign", state.ones[pid] + val, state.unknown[pid] - 1)
        super()._assign(state, j, val)

    def run(self):
        code = _Search._scan.__code__
        lines, start = inspect.getsourcelines(_Search._scan)
        read = start + next(i for i, text in enumerate(lines)
                            if text.strip() == "cascade = ()")

        def at_read(frame, event, arg):
            if event == "line" and frame.f_lineno == read:
                self._bound("_scan", frame.f_locals["ones_p"],
                            frame.f_locals["left_p"])
            return at_read

        before = sys.gettrace()
        sys.settrace(lambda frame, event, arg:
                     at_read if frame.f_code is code else None)
        try:
            super().run()
        finally:
            sys.settrace(before)


def test_no_read_or_assignment_breaks_a_pencil_bound():
    # the invariant that lets `_scan` and `_assign` skip the bounds: a
    # scanned state's pencil with unknown members has ones < x < ones +
    # unknown, so only `_value_branch`, which tries a value unread, can
    # break one.  AG(3,3) x = 0 is among the reference rows; AG(4,2)
    # planes x = 4 adds a search where every value is 1
    checked = Counter()
    for n, q, k, x in REFERENCE_SEARCHES + [(4, 2, 2, 4)]:
        space = ambient(n, q, "affine")
        got, want = SearchStats(), SearchStats()
        search = _BoundCheckingSearch(space, k, x, got)
        search.run()
        _Search(space, k, x, want).run()
        assert got == want
        checked += search.checked
    assert checked["_scan"] > 0 and checked["_assign"] > 0


def test_children_are_built_only_when_their_scan_survives():
    # on AG(3,3) lines x = 2 most children are decided without a search
    # state: `states_built` is far below the nodes
    cert = search_cl_ksets(3, 3, 1, 2, timing=True)
    assert 0 < 5 * cert["states_built"] < cert["stats"]["nodes"]


class _CheckedSearch(_Search):
    """A search that, at every branching node, checks the pencil
    children of every sibling against the one-clone-per-combination
    reference, which assigns the same residues mod P one member at a
    time; children decided later are checked as well as built ones."""

    checked = 0

    def _children(self, sibs, pid):
        assert sibs.dirs.dim > _ENDGAME_DIM
        got = dict(super()._children(sibs, pid))
        for i in range(len(sibs)):
            want = combination_children(self, sibs.state(i), pid)
            kids = got.get(i)
            assert len(want) == (0 if kids is None else len(kids))
            for r, b in enumerate(want):
                a = kids.state(r)
                assert (a.values, a.ones, a.unknown) == (b.values, b.ones, b.unknown)
                assert a.dirs is b.dirs
                assert np.array_equal(a.p, b.p)
                assert a.p.dtype == b.p.dtype == np.int64
            self.checked += 1
        return got.items()


@pytest.mark.parametrize("n,q,k,x", [(3, 2, 1, 2), (3, 3, 1, 1), (4, 2, 2, 2),
                                     (3, 4, 1, 1), (5, 2, 1, 2), (4, 3, 1, 1)])
def test_pencil_children_match_combination_loop(n, q, k, x):
    space = ambient(n, q, "affine")
    plain, checked = SearchStats(), SearchStats()
    search = _CheckedSearch(space, k, x, checked)
    search.run()
    reference = _Search(space, k, x, plain)
    reference.run()
    assert search.checked > 0
    assert checked == plain
    assert search.solutions == reference.solutions


RESIDUE_SEARCHES = [(3, 3, 1, 2, 130), (3, 4, 1, 1, 400), (4, 2, 2, 2, 150)]


def assert_residues(a):
    assert a.dtype == np.int64
    assert a.min(initial=0) >= 0 and a.max(initial=0) < classify._PRIME


@pytest.mark.parametrize("n,q,k,x,cap", RESIDUE_SEARCHES)
def test_tableau_entries_are_residues_mod_p(n, q, k, x, cap, monkeypatch):
    # every T and p that an assignment makes, and every p of siblings
    # that a block step makes or that branch together, holds int64
    # residues in [0, P)
    expected = without_wall_clock(search_cl_ksets(n, q, k, x, cap=cap))
    seen = {"tableaux": 0}
    assign, children, branch = (_Search._assign, _Search._children,
                                _Search._branch)

    def check(dirs, p):
        assert_residues(dirs.a)
        assert_residues(p)
        seen["tableaux"] += 1

    def checked_assign(self, state, j, val):
        assign(self, state, j, val)
        check(state.dirs, state.p)

    def check_siblings(sibs):
        for i in range(len(sibs)):
            check(sibs.dirs, sibs.p_of(i))

    def checked_children(self, sibs, pid):
        for i, kids in children(self, sibs, pid):
            assert_residues(kids.alphas)
            check_siblings(kids)
            yield i, kids

    def checked_branch(self, sibs):
        check_siblings(sibs)
        branch(self, sibs)

    monkeypatch.setattr(_Search, "_assign", checked_assign)
    monkeypatch.setattr(_Search, "_children", checked_children)
    monkeypatch.setattr(_Search, "_branch", checked_branch)
    assert without_wall_clock(search_cl_ksets(n, q, k, x, cap=cap)) == expected
    assert seen["tableaux"] > 0


def least_admissible_prime(n, q, k):
    """The least prime above r = [n choose k]_q, the k-spaces through an
    affine point; it is never the characteristic, which is at most q."""
    r = gaussian_binomial(n, k, q)
    return next(p for p in itertools.count(r + 1)
                if all(p % d for d in range(2, p)))


@pytest.mark.parametrize("n,q,k,prime", [(3, 2, 1, 11), (3, 3, 1, 17),
                                         (4, 2, 2, 37)])
def test_least_admissible_prime_finds_the_same_solutions(n, q, k, prime,
                                                         monkeypatch):
    # coincidences mod a small P only change how much is pruned, so the
    # counters may move but the solutions may not
    assert least_admissible_prime(n, q, k) == prime
    cap = len(ambient(n, q, "affine").spaces(k))
    xs = (1, 2)
    expected = [search_cl_ksets(n, q, k, x, cap=cap) for x in xs]
    monkeypatch.setattr(classify, "_PRIME", prime)
    for x, want in zip(xs, expected):
        got = search_cl_ksets(n, q, k, x, cap=cap)
        assert got["solutions"] == want["solutions"]
        assert verify_certificate(got)


@pytest.mark.parametrize("prime", [13, 7, 3])
def test_inadmissible_prime_is_refused(prime, monkeypatch, capsys):
    # AG(3,3) lines: r = 13 lines through a point, and 3 is the
    # characteristic
    monkeypatch.setattr(classify, "_PRIME", prime)
    with pytest.raises(ScaleExceeded, match=f"prime {prime} must exceed"):
        search_cl_ksets(3, 3, 1, 1)
    assert cli.main(["search", "--n", "3", "--q", "3", "--x", "1"]) == 2
    assert f"prime {prime} must exceed the 13" in capsys.readouterr().err


def test_pencil_plans_are_built_once_per_directions_and_key(monkeypatch):
    built = []

    class Recording(classify._Plan):
        __slots__ = ()

        def __init__(self, dirs, unknown, need):
            built.append((dirs, unknown, need))
            super().__init__(dirs, unknown, need)

    monkeypatch.setattr(classify, "_Plan", Recording)
    search = _Search(ambient(3, 3, "affine"), 1, 2, SearchStats())
    search.run()
    distinct = [b for i, b in enumerate(built)
                if not any(b[0] is c[0] and b[1:] == c[1:]
                           for c in built[:i])]
    assert len(distinct) == len(built) == search.plans_built == 3


def test_pencil_plan_size_guard(monkeypatch):
    # AG(3,4): the 64 x 336 incidence has 21,504 entries; a plan holds
    # (choices) x (members) entries, so the root plan for x = 8 has
    # C(16, 8) x 16 = 205,920, for x = 1 16 x 16 = 256
    monkeypatch.setenv("CLAG_SIZE_GUARD", "100000")
    assert search_cl_ksets(3, 4, 1, 1, cap=400)["solution_count"] == 64
    with pytest.raises(SizeGuard):
        search_cl_ksets(3, 4, 1, 8, cap=400)


def assigned_value(rows, values, col):
    """Value of col . y forced by the equations rows[i] . y = values[i],
    or None when col is not in their span."""
    if bareiss_rank(rows + [col]) > bareiss_rank(rows):
        return None
    coeffs = solve_left(rows, col) if rows else []
    return sum((c * v for c, v in zip(coeffs, values)), Fraction(0))


def residue(value: Fraction) -> int:
    """value mod P; its denominator is a unit mod P."""
    p = classify._PRIME
    return value.numerator * pow(value.denominator, -1, p) % p


def assert_row_multiples(t, ref):
    """Each row of t is a nonzero multiple mod P of the row of the
    integer matrix ref."""
    p = classify._PRIME
    ref = np.array([[int(v) % p for v in row] for row in ref],
                   dtype=np.int64).reshape(t.shape)
    lead = (ref != 0).argmax(axis=1)
    rows = np.arange(len(t))
    assert ref[rows, lead].all()
    scale = np.array([int(a) * pow(int(b), -1, p) % p for a, b in
                      zip(t[rows, lead], ref[rows, lead])], dtype=np.int64)
    assert scale.all()
    assert np.array_equal(scale[:, None] * ref % p, t)


ASSIGNMENT_SEQUENCES = [(3, 3, 1, 1), (3, 3, 1, 2), (4, 2, 2, 1), (4, 2, 2, 2)]


def assignment_sequence(n, q, k, seed):
    """The incidence matrix, a seeded order of its columns and a 0/1
    value per column: odd seeds follow a pencil, so every forced value
    is consistent; even seeds use random bits, which soon contradict
    the forced values."""
    space = ambient(n, q, "affine")
    m = dense_incidence(space, k)
    rng = random.Random(seed)
    if seed % 2:
        target = point_pencil(space, rng.choice(space.points), k).chi()
    else:
        target = [rng.randrange(2) for _ in range(m.shape[1])]
    order = list(range(m.shape[1]))
    rng.shuffle(order)
    return m, order, [int(v) for v in target], rng


def uncascaded(n, q, k):
    """A search on the k-spaces of AG(n, q) whose x exceeds every
    pencil's size, so that `_assign` never cascades, and its root."""
    search = _Search(ambient(n, q, "affine"), k, q ** (n - k) + 1,
                     SearchStats())
    v = len(search.per_space)
    return search, _Siblings([-1] * v, [0] * len(search.pencils),
                             [len(p) for p in search.pencils], search.root,
                             np.zeros(v, dtype=np.int64))


def assigned(search, state, j, val):
    """A copy of the lone state with val assigned to j by `_assign`."""
    child = state.state(0)
    search._assign(child, j, val)
    return child


@pytest.mark.parametrize("n,q,k,seed", ASSIGNMENT_SEQUENCES)
def test_tableau_matches_exact_elimination(n, q, k, seed):
    m, order, target, rng = assignment_sequence(n, q, k, seed)
    cols = m.T.tolist()
    search, state = uncascaded(n, q, k)
    assert np.array_equal(state.dirs.a, m)
    rows, values, pivots = [], [], set()
    for j in order:
        val = target[j]
        forced = assigned_value(rows, values, cols[j])
        if forced is not None and forced != val:
            with pytest.raises(_Contradiction):
                assigned(search, state, j, val)
            continue
        state = assigned(search, state, j, val)
        if forced is None:
            rows.append(cols[j])
            values.append(val)
            pivots.add(j)
        dirs = state.dirs
        assert dirs.dim == m.shape[0] - len(rows)
        zero = np.flatnonzero(~dirs.a.any(axis=0)).tolist()
        assert dirs.fresh == [i for i in zero if i not in pivots]
        for i in [j] + rng.sample(range(len(cols)), 3):
            want = assigned_value(rows, values, cols[i])
            assert (not dirs.a[:, i].any()) == (want is not None)
            if want is not None:
                assert int(state.p[i]) == residue(want)
        if not dirs.dim:
            break
    assert not state.dirs.dim


@pytest.mark.parametrize("guard", [None, 2**5])
@pytest.mark.parametrize("n,q,k,seed", ASSIGNMENT_SEQUENCES)
def test_tableau_matches_one_array_tableau(n, q, k, seed, guard,
                                           monkeypatch):
    # the rational reference, which widens to Python ints past a lowered
    # guard, reduced mod P: each row of T a nonzero multiple of its row,
    # and p its p / den
    if guard is not None:
        monkeypatch.setattr(exact, "INT64_GUARD", guard)
    m, order, target, _ = assignment_sequence(n, q, k, seed)
    (search, state), ref = uncascaded(n, q, k), OneArrayTableau.start(m)
    widened = set()
    for j in order:
        try:
            ref = ref.assigned(j, target[j])
        except _Contradiction:
            with pytest.raises(_Contradiction):
                assigned(search, state, j, target[j])
            continue
        state = assigned(search, state, j, target[j])
        assert_residues(state.dirs.a)
        assert_residues(state.p)
        assert_row_multiples(state.dirs.a, ref.t)
        assert state.p.tolist() == [residue(Fraction(int(v), ref.den))
                                    for v in ref.p]
        widened |= {name for name, a in (("t", ref.t), ("p", ref.p))
                    if a.dtype == object}
    assert not state.dirs.dim
    assert widened == (set() if guard is None else {"t", "p"})


def test_tableau_children_share_their_directions():
    search, state = uncascaded(3, 2, 1)
    zero, one = assigned(search, state, 5, 0), assigned(search, state, 5, 1)
    assert zero.dirs is one.dirs
    assert not zero.p.any() and one.p.any()
    for a in (state.dirs.a, zero.dirs.a):
        with pytest.raises(ValueError):
            a[0, 0] = 7


def reference_enumeration(n, q):
    """The exhaustive hyperplane report from one in_row_space call per
    Boolean vector."""
    space = ambient(n, q, "affine")
    inc = build_incidence(space, n - 1)
    _, members, _ = space.infinity_pencils(n - 1)
    total = inc.shape[1]
    g = gaussian_binomial(n, n - 1, q)
    found = {x: 0 for x in range(q + 1)}
    structure_ok = True
    for bits in range(2**total):
        chi = np.array([(bits >> t) & 1 for t in range(total)])
        if not inc.in_row_space(chi):
            continue
        weight = int(chi.sum())
        if weight % g:
            structure_ok = False
            continue
        x = weight // g
        found[x] = found.get(x, 0) + 1
        if any(int(chi[list(cls)].sum()) != x for cls in members):
            structure_ok = False
    return found, structure_ok


@pytest.mark.parametrize("n,q", [(3, 2), (2, 3)])
def test_hyperplane_enumeration_matches_per_vector_membership(n, q):
    found, structure_ok = reference_enumeration(n, q)
    ex = classify_hyperplane_cl(n, q)["exhaustive"]
    assert ex["counts_per_x"] == {str(x): found[x] for x in sorted(found)}
    assert ex["every_solution_selects_x_per_class"] == structure_ok


def test_search_scale_guard():
    with pytest.raises(ScaleExceeded):
        search_cl_ksets(4, 3, 1, 1)
    with pytest.raises(ScaleExceeded):
        search_cl_ksets(4, 2, 2, 1)  # 140 planes over the default cap


def test_search_cap_is_checked_before_enumeration(monkeypatch):
    # AG(6,5) has 12,714,681 lines in its closure; none may be built
    def refuse(self, k):
        raise AssertionError("k-spaces enumerated")

    monkeypatch.setattr(AmbientSpace, "spaces", refuse)
    with pytest.raises(ScaleExceeded):
        search_cl_ksets(6, 5, 1, 1)


def test_size_guard_env_leaves_search_cap(monkeypatch):
    # CLAG_SIZE_GUARD counts matrix entries, not k-spaces
    monkeypatch.setenv("CLAG_SIZE_GUARD", str(10**7))
    with pytest.raises(ScaleExceeded):
        search_cl_ksets(4, 2, 2, 1)


def test_search_k2_on_ag42():
    cert = search_cl_ksets(4, 2, 2, 1, cap=150)
    space = ambient(4, 2, "affine")
    pencils = sorted(tuple(sorted(point_pencil(space, p, 2).members))
                     for p in space.points)
    assert cert["solution_count"] == 16
    assert found_sets(cert) == pencils
    assert search_cl_ksets(4, 2, 2, 2, cap=150)["solution_count"] == 0


def test_hyperplane_classification_ag32():
    rep = classify_hyperplane_cl(3, 2)
    assert rep["counts_per_x"] == {"0": 1, "1": 128, "2": 1}
    ex = rep["exhaustive"]
    assert ex["matches_structure_counts"]
    assert ex["every_solution_selects_x_per_class"]
    assert rep["structure_proof"]["class_differences_span_kernel"]


def test_search_and_hyperplane_enumeration_build_no_kernel(monkeypatch):
    from clag import exact
    from clag.incidence import IncidenceMatrix

    def refuse(*args, **kwargs):
        raise AssertionError("rational kernel requested")

    monkeypatch.setattr(IncidenceMatrix, "kernel_basis", refuse)
    monkeypatch.setattr(exact, "nullspace_int", refuse)
    assert search_cl_ksets(3, 2, 1, 1)["solution_count"] == 8
    rep = classify_hyperplane_cl(3, 2)
    assert rep["exhaustive"]["counts_per_x"] == {"0": 1, "1": 128, "2": 1}


def test_hyperplane_classification_ag24_through_the_search():
    # 2^20 Boolean vectors: the pencil search counts every x instead
    ex = classify_hyperplane_cl(2, 4)["exhaustive"]
    assert ex == {"counts_per_x": {"0": 1, "1": 1024, "2": 7776,
                                   "3": 1024, "4": 1},
                  "matches_structure_counts": True,
                  "every_solution_selects_x_per_class": True}


def test_hyperplane_search_is_skipped_past_the_size_guard(monkeypatch):
    # AG(2,3): 164 sets x 12 lines = 1,968 entries
    monkeypatch.setenv("CLAG_SIZE_GUARD", "1967")
    rep = classify_hyperplane_cl(2, 3)
    assert rep["exhaustive"] == {
        "skipped": "size guard (164 sets x 12 > 1967)"}
    assert rep["counts_per_x"] == {"0": 1, "1": 81, "2": 81, "3": 1}
    monkeypatch.setenv("CLAG_SIZE_GUARD", "1968")
    assert classify_hyperplane_cl(2, 3)["exhaustive"][
        "matches_structure_counts"]


def test_hyperplane_classification_ag33_count_check():
    rep = classify_hyperplane_cl(3, 3)
    assert rep["counts_per_x"]["1"] == 3**13
    assert rep["counts_per_x"]["2"] == 3**13
    assert rep["structure_proof"]["incidence_rank"] == 27
    assert "skipped" in rep["exhaustive"]


def test_hyperplane_selection_vectors_are_cl():
    # sample the structure route directly: any per-class selection is CL
    import random
    rng = random.Random(2024)
    space = ambient(3, 3, "affine")
    _, members, _ = space.infinity_pencils(2)
    for _ in range(10):
        chosen = [int(rng.choice(list(m))) for m in members]
        l = kset_from_indices(space, 2, chosen)
        assert l.x == 1
        assert is_cameron_liebler(l)[0]


def test_hyperplane_spread_classification():
    rep = verify_hyperplane_spread_classification(3, 2)
    assert rep["spread_count"] == 7 and rep["all_type_II"]
    rep = verify_hyperplane_spread_classification(3, 3)
    assert rep["spread_count"] == 13 and rep["all_type_II"]
    rep = verify_hyperplane_spread_classification(2, 2)
    assert rep["spread_count"] == 3 and rep["all_type_II"]


def test_projection_cross_check():
    rep = cross_check_projection(4, 2, 2)
    assert rep["all_images_cl_with_same_x"]
    # 18 catalogued sets times 15 infinite points
    assert rep["projections"] == 18 * 15
