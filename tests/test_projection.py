import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import oracle
from clag import cli, geometry, incidence
from clag.classify import cross_check_projection
from clag.clsets import (DimensionViolation, NotSkew, canonical_complement,
                         complement, empty_kset, kset_from_indices,
                         kset_to_json, point_pencil,
                         project_through_infinite_subspace)
from clag.geometry import ambient, span
from clag.incidence import IncidenceMatrix, build_incidence

CLAG_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

# recorded with the former per-member route: sha256 of
# json.dumps(cross_check_projection(4, 2, 2), sort_keys=True)
CROSS_CHECK_422_SHA256 = \
    "d6af341157792d0c8ff564a14c5d8162f34b74b6f847da6d5b00a4bb6f1a63bf"
# and of the `clag project --out` file of the AG(4,2) plane pencil of
# point (1,0,1,0,1), read from "pencil.json", per axis
PROJECT_SHA256 = {
    "0:0:0:0:1":
        "ddeb5324767fc385f934ef065a9c4d39af79a9bea9e53ab36722135ff0b5e698",
    "0:0:1:1:0":
        "65219129c7fc5fa6a4bcedacede632fdae64a26dc4167066bf4514249c7eee5e",
}


@pytest.fixture
def fresh(monkeypatch):
    # cold caches, so every memo key below was made by this test
    monkeypatch.setattr(geometry, "_AMBIENT_CACHE", {})


def _first_and_last_complement(space, axis):
    """The first and the last affine (n-i-1)-space skew to the axis, in
    canonical order, found by row reduction: pi is skew iff adding the
    axis to it spans the whole space."""
    dim = space.n - axis.dim - 1
    skew = (s for s in space.closure.spaces(dim) if s.is_affine()
            and span(s, axis).dim == space.n)
    last = (s for s in reversed(space.closure.spaces(dim)) if s.is_affine()
            and span(s, axis).dim == space.n)
    return next(skew), next(last)


def _catalog(space, k):
    total = len(space.spaces(k))
    sets = [point_pencil(space, space.points[0], k),
            point_pencil(space, space.points[-1], k),
            complement(point_pencil(space, space.points[0], k)),
            empty_kset(space, k)]
    for seed in range(3):
        rng = np.random.default_rng(seed)
        sets.append(kset_from_indices(
            space, k, np.flatnonzero(rng.random(total) < 0.5)))
    return sets


def _map_keys(space):
    return {key for key in space._memo if key[0] == "projection_map"}


@pytest.mark.parametrize("n,q,k", [(4, 2, 2), (5, 2, 2), (5, 2, 3)])
def test_projection_matches_the_former_route(fresh, n, q, k):
    space = ambient(n, q, "affine")
    sets = _catalog(space, k)
    used = set()
    for axis in space.infinite_subspaces(k - 2):
        pis = _first_and_last_complement(space, axis)
        assert canonical_complement(space, axis) == pis[0]
        assert pis[0] != pis[1]
        for pi in pis:
            used.add((k, axis.rows, pi.rows))
            for l in sets:
                want = oracle.project_through_infinite_subspace(l, axis, pi)
                got = project_through_infinite_subspace(l, axis, pi)
                assert (got.space, got.k, got.members) == \
                    (want.space, want.k, want.members)
        # pi left out is the canonical complement, as before
        for l in sets[:2]:
            assert project_through_infinite_subspace(l, axis).members == \
                oracle.project_through_infinite_subspace(l, axis).members
    assert _map_keys(space) == {("projection_map",) + key for key in used}


def test_one_read_only_map_per_axis_and_pi(fresh):
    space = ambient(4, 2, "affine")
    pen = point_pencil(space, space.points[3], 2)
    axes = space.infinite_subspaces(0)
    for _ in range(2):
        for axis in axes:
            project_through_infinite_subspace(pen, axis)
            project_through_infinite_subspace(
                pen, axis, _first_and_last_complement(space, axis)[1])
    keys = _map_keys(space)
    assert len(keys) == 2 * len(axes)
    for key in keys:
        table = space._memo[key]
        assert table.dtype == np.int64 and not table.flags.writeable
        assert table.shape == (len(space.spaces(2)),)
        # -1 exactly off the k-spaces through the axis
        axis = geometry.Subspace(4, 2, key[2])
        assert (table >= 0).tolist() == [oracle.contains(s, axis)
                                         for s in space.spaces(2)]
    assert len({key for key in space._memo
                if key[0] == "canonical_complement"}) == len(axes)


def test_non_skew_pi_is_refused_on_every_call(fresh):
    space = ambient(4, 2, "affine")
    pen = point_pencil(space, space.points[0], 2)
    axis = space.infinite_subspaces(0)[0]
    bad_pi = next(s for s in space.closure.spaces(3)
                  if s.is_affine() and oracle.contains(s, axis))
    for _ in range(2):
        with pytest.raises(NotSkew, match="^pi must be skew to the axis$"):
            project_through_infinite_subspace(pen, axis, bad_pi)
    assert not _map_keys(space)


def test_projective_sets_are_refused(tmp_path):
    pg = ambient(4, 2, "projective")
    pen = point_pencil(pg, pg.points[0], 2)
    with pytest.raises(DimensionViolation,
                       match="^projection starts from an affine set$"):
        project_through_infinite_subspace(pen, pg.infinite_subspaces(0)[0])
    setfile = tmp_path / "pg.json"
    setfile.write_text(json.dumps(kset_to_json(pen)))
    out = tmp_path / "img.json"
    env = dict(os.environ, PYTHONPATH=CLAG_PATH)
    r = subprocess.run([sys.executable, "-m", "clag.cli", "project",
                        "--set", str(setfile), "--axis", "0:0:0:0:1",
                        "--out", str(out)],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 2
    assert r.stderr == ("projection not admissible: "
                        "projection starts from an affine set\n")
    assert not out.exists()


def test_cross_check_bytes_are_pinned(fresh):
    for _ in range(2):  # cold, then from the memo
        rep = cross_check_projection(4, 2, 2)
        digest = hashlib.sha256(
            json.dumps(rep, sort_keys=True).encode()).hexdigest()
        assert digest == CROSS_CHECK_422_SHA256


def test_project_command_bytes_are_pinned(fresh, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    space = ambient(4, 2, "affine")
    (tmp_path / "pencil.json").write_text(json.dumps(kset_to_json(
        point_pencil(space, (1, 0, 1, 0, 1), 2))))
    for axis, want in PROJECT_SHA256.items():
        for _ in range(2):  # the second run reads the memoised map
            assert cli.main(["project", "--set", "pencil.json", "--axis",
                             axis, "--out", "img.json"]) == 0
            got = hashlib.sha256((tmp_path / "img.json").read_bytes())
            assert got.hexdigest() == want
    assert len(_map_keys(space)) == len(PROJECT_SHA256)


def test_cross_check_makes_two_membership_calls(fresh, monkeypatch):
    calls = []
    solve = IncidenceMatrix._solve

    def counted(self, vecs):
        calls.append(((self.space.n, self.k), len(vecs)))
        return solve(self, vecs)
    monkeypatch.setattr(IncidenceMatrix, "_solve", counted)
    assert cross_check_projection(4, 2, 2)["all_images_cl_with_same_x"]
    # the 16 pencils, the empty set and a pencil's complement; then their
    # 18 x 15 images
    assert calls == [((4, 2), 18), ((3, 1), 270)]


def test_first_failing_catalogue_set_is_named(fresh, monkeypatch):
    rows = IncidenceMatrix.rows_in_row_space

    def refuse_some(self, vecs):
        member = rows(self, vecs).copy()
        member[[2, 5]] = False
        return member
    monkeypatch.setattr(IncidenceMatrix, "rows_in_row_space", refuse_some)
    space = ambient(4, 2, "affine")
    name = ":".join(map(str, space.points[2]))
    with pytest.raises(AssertionError,
                       match=f"^catalog set pencil@{name} is not "
                             "Cameron-Liebler$"):
        cross_check_projection(4, 2, 2)


def test_membership_blocks_agree(monkeypatch):
    space = ambient(3, 2, "affine")
    inc = build_incidence(space, 1)
    rng = np.random.default_rng(1)
    vecs = [point_pencil(space, p, 1).chi() for p in space.points]
    vecs += list(rng.integers(0, 2, size=(9, len(space.spaces(1)))))
    vecs = np.array(vecs)
    whole = inc.rows_in_row_space(vecs)
    assert whole[:8].all() and len(whole) == 17
    # 2 rows per block, then one row per block
    for entries in (2 * inc.points.size, 1):
        monkeypatch.setattr(incidence, "MEMBERSHIP_BLOCK_ENTRIES", entries)
        assert (inc.rows_in_row_space(vecs) == whole).all()
    assert inc.rows_in_row_space(vecs[:0]).shape == (0,)
    assert [inc.in_row_space(v) for v in vecs] == whole.tolist()
