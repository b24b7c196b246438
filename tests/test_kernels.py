"""Every kernel path must agree bit for bit with the numpy path: the
plain-Python reference loops always, the numba build when it is
available (unless CLAG_NO_NUMBA disables it)."""

import os
import random
import subprocess
import sys

import numpy as np
import pytest

from clag import _kernels
from clag.galois import make_field
from clag.geometry import ambient
from clag.scheme import line_relation_matrix

NUMBA = _kernels.USING_NUMBA


def _other_paths(name):
    """The plain-Python reference loop, plus the numba build if active."""
    paths = [getattr(_kernels, f"_{name}_py")]
    if NUMBA:
        paths.append(getattr(_kernels, f"{name}_numba"))
    return paths


def _random_gf_matrix(rng, field, rows, cols):
    return np.array([[rng.randrange(field.q) for _ in range(cols)]
                     for _ in range(rows)], dtype=np.int64)


@pytest.mark.parametrize("q,h", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_rref_paths_agree(q, h):
    f = make_field(q, h)
    rng = random.Random(17)
    for _ in range(30):
        m = _random_gf_matrix(rng, f, rng.randrange(1, 5), rng.randrange(1, 7))
        a = m.copy()
        rk_np = _kernels.gf_rref_numpy(a, f.add_table, f.mul_table,
                                       f.neg_table, f.inv_table)
        for path in _other_paths("gf_rref"):
            b = m.copy()
            rk = path(b, f.add_table, f.mul_table, f.neg_table, f.inv_table)
            assert rk_np == rk
            assert np.array_equal(a, b)


def test_rref_is_canonical_idempotent():
    f = make_field(3, 1)
    rng = random.Random(3)
    for _ in range(20):
        m = _random_gf_matrix(rng, f, 3, 5)
        a = m.copy()
        rank = _kernels.gf_rref(a, f.add_table, f.mul_table,
                                f.neg_table, f.inv_table)
        b = a.copy()
        rank2 = _kernels.gf_rref(b, f.add_table, f.mul_table,
                                 f.neg_table, f.inv_table)
        assert rank == rank2 and np.array_equal(a, b)


def test_combinations_paths_agree():
    f = make_field(2, 2)
    rng = random.Random(9)
    coeffs = _random_gf_matrix(rng, f, 11, 3)
    basis = _random_gf_matrix(rng, f, 3, 6)
    out_np = _kernels.gf_combinations_numpy(coeffs, basis,
                                            f.add_table, f.mul_table)
    for path in _other_paths("gf_combinations"):
        assert np.array_equal(out_np, path(coeffs, basis,
                                           f.add_table, f.mul_table))
    # spot-check one combination by hand
    i = 4
    acc = np.zeros(6, dtype=np.int64)
    for t in range(3):
        for j in range(6):
            acc[j] = f.add(int(acc[j]), f.mul(int(coeffs[i, t]), int(basis[t, j])))
    assert np.array_equal(out_np[i], acc)


def test_pair_counts_paths_agree():
    space = ambient(3, 2, "affine")
    pts = np.array(space.space_point_indices(1), dtype=np.int64)
    _, _, infs = space.infinity_pencils(1)
    subset = np.array([0, 3, 7, 11, 19, 25], dtype=np.int64)
    out_np = _kernels.pair_counts_numpy(pts[subset], infs[subset])
    for path in _other_paths("pair_counts"):
        assert tuple(out_np) == tuple(path(pts[subset], infs[subset]))
    assert sum(out_np) == len(subset) * (len(subset) - 1)


def test_triple_counts_paths_agree():
    rel = line_relation_matrix(ambient(3, 2, "affine"))
    ok_np, p_np = _kernels.triple_counts_numpy(rel, 3)
    assert ok_np
    for path in _other_paths("triple_counts"):
        ok, p = path(np.ascontiguousarray(rel), 3)
        assert ok and np.array_equal(p_np, p)


def test_env_flag_selects_numpy_path():
    code = ("import clag._kernels as k; "
            "print(k.USING_NUMBA, k.gf_rref is k.gf_rref_numpy)")
    env = dict(os.environ, CLAG_NO_NUMBA="1")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.stdout.split() == ["False", "True"]
