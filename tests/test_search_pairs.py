import argparse
import importlib.util
import os

import pytest

from clag.classify import DEFAULT_SPACE_CAP
from clag.geometry import ambient

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "search_pairs.py")


def _tool():
    spec = importlib.util.spec_from_file_location("search_pairs", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_rows_are_parsed_with_an_optional_cap():
    tool = _tool()
    assert tool.parse_row("3,2,1,1") == (3, 2, 1, 1, None)
    assert tool.parse_row("4,3,1,2,1080") == (4, 3, 1, 2, 1080)
    with pytest.raises(argparse.ArgumentTypeError):
        tool.parse_row("3,2,1")


def test_every_standard_row_fits_its_cap():
    rows = _tool().STANDARD_ROWS
    assert len(set(rows)) == len(rows) == 17
    for n, q, k, x, cap in rows:
        count = ambient(n, q, "affine")._num_spaces(k)
        assert count <= (DEFAULT_SPACE_CAP if cap is None else cap)
        assert 0 <= x <= q ** (n - k)


def test_no_row_runs_the_standard_rows(monkeypatch, capsys):
    tool = _tool()
    seen = []

    def fake_run(root, row):
        seen.append(row)
        return {"seconds": 1.0, "nodes": 7, "plans_built": 2,
                "states_built": 5, "sha256": "same",
                "keys": {"stats": "same"}}

    monkeypatch.setattr(tool, "run_once", fake_run)
    assert tool.main(["a", "b", "--pairs", "1"]) == 0
    assert seen[::2] == list(tool.STANDARD_ROWS)
    assert "; plans_built 2/2, states_built 5/5; " in capsys.readouterr().out


def test_the_repository_against_itself(capsys):
    tool = _tool()
    assert tool.main([ROOT, ROOT, "--row", "3,2,1,1", "--row", "3,2,1,2",
                      "--pairs", "2"]) == 0
    out = capsys.readouterr().out
    assert "pair 1 (change first)" in out
    for x, nodes, states in ((1, 35, 40), (2, 95, 38)):
        line = next(line for line in out.splitlines()
                    if line.startswith(f"AG(3,2) k=1 x={x} "))
        assert (f"{nodes} nodes, certificates same; plans_built 1/1, "
                f"states_built {states}/{states}; ") in line
        assert "/2  ratio" in line


def test_differing_certificates_exit_1(monkeypatch, capsys):
    tool = _tool()

    def fake_run(root, row):
        return {"seconds": 1.0, "nodes": 7, "plans_built": 2,
                "states_built": len(root), "sha256": root,
                "keys": {"solutions": "same", "stats": root}}

    monkeypatch.setattr(tool, "run_once", fake_run)
    assert tool.main(["a", "b", "--row", "3,2,1,1", "--pairs", "1"]) == 1
    captured = capsys.readouterr()
    assert "certificates DIFFER in stats; " in captured.out
    assert "a certificate differs" in captured.err
    assert tool.main(["a", "a", "--row", "3,2,1,1", "--pairs", "1"]) == 0


def test_differing_built_counts_are_printed_not_failed(monkeypatch, capsys):
    # a perf change may rightly build more or fewer plans and states
    tool = _tool()

    def fake_run(root, row):
        return {"seconds": 1.0, "nodes": 7, "plans_built": len(root),
                "states_built": 3 * len(root), "sha256": "same",
                "keys": {"stats": "same"}}

    monkeypatch.setattr(tool, "run_once", fake_run)
    assert tool.main(["a", "bb", "--row", "3,2,1,1", "--pairs", "1"]) == 0
    assert ("certificates same; plans_built 1/2, states_built 3/6; "
            in capsys.readouterr().out)
