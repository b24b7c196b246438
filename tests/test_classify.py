import json

import pytest

from clag.classify import (ScaleExceeded, classify_hyperplane_cl,
                           cross_check_projection, search_cl_ksets,
                           verify_certificate,
                           verify_hyperplane_spread_classification)
from clag.clsets import complement, is_cameron_liebler, kset_from_indices, point_pencil
from clag.geometry import ambient


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


def test_search_is_deterministic():
    a = search_cl_ksets(3, 2, 1, 1)
    b = search_cl_ksets(3, 2, 1, 1)
    a.pop("wall_clock_s"), b.pop("wall_clock_s")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_search_scale_guard():
    with pytest.raises(ScaleExceeded):
        search_cl_ksets(4, 3, 1, 1)
    with pytest.raises(ScaleExceeded):
        search_cl_ksets(4, 2, 2, 1)  # 140 planes over the default cap


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
    monkeypatch.setattr(exact, "row_echelon_rational", refuse)
    assert search_cl_ksets(3, 2, 1, 1)["solution_count"] == 8
    rep = classify_hyperplane_cl(3, 2)
    assert rep["exhaustive"]["counts_per_x"] == {"0": 1, "1": 128, "2": 1}


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
