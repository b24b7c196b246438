"""Acceptance suite: one test per criterion, each printing a pass/fail
line.  Run with `pytest tests/test_acceptance.py -v -s`.

Every comparison is exact (tolerance zero); the stated runtime budgets
are asserted as hard bounds.
"""

import time
import numpy as np

from clag.classify import (classify_hyperplane_cl, search_cl_ksets,
                           verify_hyperplane_spread_classification)
from clag.clsets import (complement, empty_kset, full_kset,
                         is_cameron_liebler, kset_from_indices,
                         check_line_disjointness, check_pg_disjointness,
                         count_through_infinite_subspace,
                         pg_hyperplane_set, point_pencil,
                         project_through_infinite_subspace)
from clag.geometry import ambient, gaussian_binomial
from clag.incidence import build_incidence
from clag.scheme import (align_rows_to, eigenmatrix_bruteforce, eigenspace_profile,
                         hyperplane_adjudication,
                         hyperplane_eigenmatrix_closed,
                         idempotents_scaled, inner_distribution,
                         intersection_matrices_bruteforce, relation_matrix,
                         line_scheme, scheme_axioms_bruteforce,
                         scheme_report, verify_bose_mesner)
from clag.spreads import type_III_keys
from oracle import bareiss_rank, keyed_type_III_spreads, parallel_classes

GEOMETRIES = [(3, 2), (3, 3), (4, 2)]


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}  {detail}", flush=True)
    assert ok, f"criterion {criterion} failed: {detail}"


def spread_kset(space, spread):
    return kset_from_indices(space, spread.k, spread.member_indices())


def test_criterion_01_intersection_matrices():
    for n, q in GEOMETRIES:
        start = time.monotonic()
        space = ambient(n, q, "affine")
        rel = relation_matrix(space)
        axioms_ok, _ = scheme_axioms_bruteforce(rel, 3)
        brute = intersection_matrices_bruteforce(space)
        closed = line_scheme(n, q).p_matrices
        match = all(np.array_equal(b, c) for b, c in zip(brute, closed))
        elapsed = time.monotonic() - start
        report("1", axioms_ok and match and elapsed < 10,
               f"AG({n},{q}): axioms={axioms_ok} matrices_match={match} "
               f"time={elapsed:.1f}s (< 10 s)")


def test_criterion_01_ag43_line_scheme_brute_force():
    # 1080 lines: every triple count of the 3-class scheme, by brute force
    start = time.monotonic()
    brute = scheme_report(4, 3, brute_force=True)["brute_force"]
    elapsed = time.monotonic() - start
    bm_ok = all(brute["bose_mesner"].values())
    report("1", brute["diff"] == [] and bm_ok and elapsed < 5,
           f"AG(4,3) lines: diff={brute['diff']} bose_mesner={bm_ok} "
           f"time={elapsed:.1f}s (< 5 s)")


def test_criterion_02_eigenvalue_matrices():
    start = time.monotonic()
    ok_all = True
    details = []
    for n, q in GEOMETRIES:
        space = ambient(n, q, "affine")
        axioms_ok, p = scheme_axioms_bruteforce(relation_matrix(space), 3)
        tables = line_scheme(n, q)
        res = verify_bose_mesner(p, tables)
        ok = (axioms_ok and res["idempotency"]
              and res["resolution_of_identity"] and res["adjacency_expansion"])
        ok_all = ok_all and ok
        details.append(f"AG({n},{q})={ok}")
    grid_ok = all(line_scheme(n, q).check_orthogonality()
                  for n in range(3, 7) for q in (2, 3, 4, 5, 7, 8))
    elapsed = time.monotonic() - start
    report("2", ok_all and grid_ok and elapsed < 30,
           f"{' '.join(details)} PQ_grid={grid_ok} time={elapsed:.1f}s (< 30 s)")


def test_criterion_03_eigenspace_dimensions():
    dims = [int(v) for v in line_scheme(3, 2).Q[0]]
    space = ambient(3, 2, "affine")
    axioms_ok, p = scheme_axioms_bruteforce(relation_matrix(space), 3)
    traces = verify_bose_mesner(p, line_scheme(3, 2))["traces"]
    ok = (axioms_ok and dims == [1, 7, 14, 6] and sum(dims) == 28
          and [int(t) for t in traces] == dims)
    report("3", ok, f"dims={dims} traces={[str(t) for t in traces]}")


def test_criterion_04_point_pencils_basis():
    start = time.monotonic()
    for n, q in [(3, 2), (3, 3)]:
        space = ambient(n, q, "affine")
        rel = relation_matrix(space)
        tables = line_scheme(n, q)
        ems = idempotents_scaled(rel, tables.Q, tables.size)
        vecs = []
        killed = True
        for p in space.points:
            chi = point_pencil(space, p, 1).chi().astype(np.int64)
            for j in (2, 3):
                if (ems[j][0] @ chi).any():
                    killed = False
            vecs.append(chi)
        rank = bareiss_rank(np.array(vecs))
        elapsed = time.monotonic() - start
        report("4", killed and rank == q**n and elapsed < 10,
               f"AG({n},{q}): rank={rank}=q^n, E2/E3 projections zero, "
               f"time={elapsed:.1f}s (< 10 s)")


def test_criterion_05_spread_vectors():
    for n, q in [(3, 2), (3, 3)]:
        space = ambient(n, q, "affine")
        tables = line_scheme(n, q)
        type_ii = parallel_classes(space, 1)
        count_ok = len(type_ii) == (q**n - 1) // (q - 1)
        vecs = []
        profiles_ok = True
        for s in type_ii:
            l = spread_kset(space, s)
            profiles_ok = profiles_ok and eigenspace_profile(l, tables) == {0, 3}
            vecs.append(l.chi().astype(np.int64))
        rank = bareiss_rank(np.array(vecs))
        plus = next(s for s in keyed_type_III_spreads(
            space, 1, type_III_keys(space, 1)) if s.type_tag == "III+")
        lp = spread_kset(space, plus)
        u = inner_distribution(lp, "affine_lines")
        u_ok = u == [1, 0, q ** (n - 2) - 1, q ** (n - 1) - q ** (n - 2)]
        prof = eigenspace_profile(lp, tables)
        report("5", count_ok and profiles_ok and rank == len(type_ii)
               and u_ok and prof == {0, 2, 3},
               f"AG({n},{q}): typeII count={len(type_ii)} rank={rank} "
               f"profile {{0,3}}; III+ u={[str(v) for v in u]} profile={prof}")


def test_criterion_06_spread_equivalence():
    space = ambient(3, 2, "affine")
    spreads = parallel_classes(space, 1) + keyed_type_III_spreads(
        space, 1, type_III_keys(space, 1))
    spread_mat = np.zeros((len(spreads), 28), dtype=np.int64)
    for i, s in enumerate(spreads):
        spread_mat[i, list(s.member_indices())] = 1
    kern = build_incidence(space, 1).kernel_basis()
    rng = np.random.default_rng(20240808)
    vectors = rng.integers(0, 2, size=(10_000, 28), dtype=np.int64)
    extra = [point_pencil(space, p, 1).chi() for p in space.points]
    extra += [complement(point_pencil(space, p, 1)).chi() for p in space.points]
    extra += [empty_kset(space, 1).chi(), full_kset(space, 1).chi()]
    for x in (0, 1, 2, 3, 4):
        for sol in search_cl_ksets(3, 2, 1, x)["solutions"]:
            chi = np.zeros(28, dtype=np.int64)
            chi[sol["indices"]] = 1
            extra.append(chi)
    vectors = np.vstack([vectors, np.array(extra, dtype=np.int64)])
    counts = vectors @ spread_mat.T
    constant = counts.min(axis=1) == counts.max(axis=1)
    member = ~ (vectors @ kern.T).any(axis=1)
    disagreements = int((constant != member).sum())
    report("6", disagreements == 0,
           f"{vectors.shape[0]} vectors ({len(spreads)} spreads): "
           f"{disagreements} disagreements")


def test_criterion_07_x1_classification():
    for n, q in [(3, 2), (3, 3)]:
        start = time.monotonic()
        cert = search_cl_ksets(n, q, 1, 1)
        elapsed = time.monotonic() - start
        space = ambient(n, q, "affine")
        pencils = sorted(tuple(sorted(point_pencil(space, p, 1).members))
                         for p in space.points)
        found = sorted(tuple(s["indices"]) for s in cert["solutions"])
        ok = cert["solution_count"] == q**n and found == pencils
        report("7", ok and elapsed < 300,
               f"AG({n},{q}) x=1: {cert['solution_count']} solutions, all "
               f"point-pencils, time={elapsed:.1f}s (< 5 min)")


def test_criterion_08_x2_nonexistence():
    for n, q in [(3, 2), (3, 3)]:
        start = time.monotonic()
        cert = search_cl_ksets(n, q, 1, 2)
        elapsed = time.monotonic() - start
        report("8", cert["solution_count"] == 0 and elapsed < 1800,
               f"AG({n},{q}) x=2: {cert['solution_count']} solutions "
               f"(nodes={cert['stats']['nodes']}), time={elapsed:.1f}s (< 30 min)")


def test_criterion_09_hyperplane_classification():
    start = time.monotonic()
    rep = classify_hyperplane_cl(3, 2)
    counts_ok = rep["counts_per_x"] == {"0": 1, "1": 128, "2": 1}
    ex = rep["exhaustive"]
    exhaustive_ok = (ex["matches_structure_counts"]
                     and ex["every_solution_selects_x_per_class"])
    spreads = verify_hyperplane_spread_classification(3, 2)
    spreads_ok = spreads["count_matches"] and spreads["all_type_II"]
    elapsed = time.monotonic() - start
    report("9", counts_ok and exhaustive_ok and spreads_ok and elapsed < 300,
           f"counts {rep['counts_per_x']} = C(2,x)^7; spreads: "
           f"{spreads['spread_count']} all type II; time={elapsed:.1f}s (< 5 min)")


def test_criterion_10_hyperplane_matrix_adjudication():
    for n, q in [(3, 2), (3, 3)]:
        space = ambient(n, q, "affine")
        adopted = hyperplane_eigenmatrix_closed(n, q)
        mats = intersection_matrices_bruteforce(space, "affine_hyperplanes")
        brute = align_rows_to(adopted, eigenmatrix_bruteforce(mats))
        rep = hyperplane_adjudication(n, q, brute)
        entry = next(e for e in rep["entries"] if e["entry"] == "P[0][2]")
        ok = (entry["adopted"]["matches_brute_force"]
              and entry["adopted"]["valency_row_sum"]
              and entry["adopted"]["orthogonality"]
              and not entry["variant"]["matches_brute_force"])
        other = next(e for e in rep["entries"] if e["entry"] == "P[1][2]")
        ok = ok and other["adopted"]["matches_brute_force"]
        report("10", ok,
               f"AG({n},{q}): P[0][2] -> {entry['adopted']['value']} "
               f"(variant {entry['variant']['value']} rejected); row-sum and "
               f"orthogonality hold for the adopted matrix")


def test_criterion_11_projection_transfer():
    space = ambient(4, 2, "affine")
    target = ambient(3, 2, "affine")
    cert = search_cl_ksets(4, 2, 2, 1, cap=150)
    found = [kset_from_indices(space, 2, s["indices"])
             for s in cert["solutions"]]
    cert2 = search_cl_ksets(4, 2, 2, 2, cap=150)
    catalog = found + [empty_kset(space, 2), full_kset(space, 2)]
    catalog += [complement(l) for l in found[:4]]
    axes = space.infinite_subspaces(0)
    all_ok = True
    checked = 0
    for l in catalog:
        assert is_cameron_liebler(l)[0]
        for axis in axes:
            img = project_through_infinite_subspace(l, axis)
            ok, _ = is_cameron_liebler(img)
            all_ok = all_ok and ok and img.x == l.x and img.space == target
            checked += 1
    report("11", all_ok and cert["solution_count"] == 16
           and cert2["solution_count"] == 0,
           f"{cert['solution_count']} CL 2-sets found (x=1), x=2 none; "
           f"{checked} projections all CL with unchanged parameter")


def test_criterion_12_formula_spot_checks():
    ok_all = True
    details = []
    for q in (2, 3):
        ag = ambient(3, q, "affine")
        pen = point_pencil(ag, ag.points[0], 1)
        com = complement(pen)
        # counting through subspaces at infinity (i = -1 for lines)
        for l in (pen, com, empty_kset(ag, 1)):
            expected = l.x * gaussian_binomial(3, 1, q)
            ok_all = ok_all and count_through_infinite_subspace(l, None) == expected
        # affine line disjointness counts against the closed formula
        for l in (pen, com, empty_kset(ag, 1), full_kset(ag, 1)):
            ok_all = ok_all and check_line_disjointness(l).passed
        pg = ambient(3, q, "projective")
        ppen = point_pencil(pg, pg.points[0], 1)
        hset = pg_hyperplane_set(pg, pg.spaces(2)[0], 1)
        for l in (ppen, hset, empty_kset(pg, 1)):
            ok_all = ok_all and check_pg_disjointness(l).passed
        details.append(f"q={q} ok")
    # infinite-subspace counts with i = 0 on AG(4,2) 2-sets
    ag42 = ambient(4, 2, "affine")
    pen2 = point_pencil(ag42, ag42.points[0], 2)
    for axis in ag42.infinite_subspaces(0):
        ok_all = ok_all and \
            count_through_infinite_subspace(pen2, axis) == gaussian_binomial(3, 1, 2)
    report("12", ok_all, "; ".join(details) + "; AG(4,2) i=0 counts ok")
