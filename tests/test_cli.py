import hashlib
import importlib
import json
import os
import subprocess
import sys

import pytest

import clag
from clag import cli, spreads
from clag.classify import search_cl_ksets, verify_certificate
from clag.clsets import (kset_from_indices, kset_from_json, kset_to_json,
                         point_pencil)
from clag.geometry import ambient

# the child imports the same clag as these tests, installed or not
CLAG_PATH = os.path.dirname(os.path.dirname(os.path.abspath(clag.__file__)))


def run_cli(*argv, env=None, timeout=None):
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (CLAG_PATH, full_env.get("PYTHONPATH")) if p)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "clag.cli", *argv],
                          capture_output=True, text=True, env=full_env,
                          timeout=timeout)


def test_scheme_command(tmp_path):
    out = tmp_path / "scheme.json"
    r = run_cli("scheme", "--n", "3", "--q", "2", "--brute-force",
                "--out", str(out))
    assert r.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["P"][0] == ["1", "12", "3", "12"]
    assert doc["brute_force"]["diff"] == []
    assert doc["seed"] == 0


def test_scheme_hyperplanes_adjudication(tmp_path):
    out = tmp_path / "hyp.json"
    r = run_cli("scheme", "--n", "3", "--q", "2", "--hyperplanes",
                "--brute-force", "--out", str(out))
    assert r.returncode == 0
    doc = json.loads(out.read_text())
    entries = {e["entry"]: e for e in doc["adjudication"]["entries"]}
    assert entries["P[0][2]"]["adopted"]["matches_brute_force"]
    assert entries["P[0][2]"]["variant"]["valency_row_sum"] is False
    assert entries["P[1][2]"]["adopted"]["orthogonality"]


def test_scheme_table_format():
    r = run_cli("scheme", "--n", "3", "--q", "2", "--format", "table")
    assert r.returncode == 0
    assert "P =" in r.stdout and "Q =" in r.stdout
    assert "12" in r.stdout


def test_scheme_table_format_prints_only_the_tables(tmp_path):
    r = run_cli("scheme", "--n", "3", "--q", "2", "--format", "table")
    assert r.returncode == 0
    # a title, then P and Q, each a label and 4 rows
    assert len(r.stdout.splitlines()) == 11
    with pytest.raises(json.JSONDecodeError):
        json.loads(r.stdout)
    outs = {}
    for fmt in ("table", "json"):
        outs[fmt] = tmp_path / f"{fmt}.json"
        written = run_cli("scheme", "--n", "3", "--q", "2", "--format", fmt,
                          "--out", str(outs[fmt]))
        assert written.returncode == 0
    assert written.stdout == f"wrote {outs['json']}\n"
    assert outs["table"].read_bytes() == outs["json"].read_bytes()


def test_scheme_guard_path(tmp_path):
    r = run_cli("scheme", "--n", "5", "--q", "4", "--brute-force",
                "--out", str(tmp_path / "big.json"))
    assert r.returncode == 0
    doc = json.loads((tmp_path / "big.json").read_text())
    assert "skipped" in doc["brute_force"]


def test_scheme_unsupported_field_exits_2():
    # GF(6) does not exist; GF(521) exceeds the dense-table bound
    for extra in (["--q", "6"], ["--q", "521", "--hyperplanes"],
                  ["--q", "6", "--brute-force"],
                  ["--q", "521", "--hyperplanes", "--brute-force"]):
        r = run_cli("scheme", "--n", "3", *extra)
        assert r.returncode == 2
        assert "unsupported field" in r.stderr
        assert "Traceback" not in r.stderr


def test_search_command(tmp_path):
    out = tmp_path / "cert.json"
    r = run_cli("search", "--n", "3", "--q", "2", "--k", "1", "--x", "1",
                "--out", str(out))
    assert r.returncode == 0
    cert = json.loads(out.read_text())
    assert cert["solution_count"] == 8


def test_search_nonexistence(tmp_path):
    out = tmp_path / "cert2.json"
    r = run_cli("search", "--n", "3", "--q", "2", "--x", "2",
                "--out", str(out))
    assert r.returncode == 0
    assert json.loads(out.read_text())["solution_count"] == 0


def test_search_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("search", "--n", "3", "--q", "2", "--x", "1", "--out", str(a))
    run_cli("search", "--n", "3", "--q", "2", "--x", "1", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_search_over_the_cap_exits_2_without_enumerating(monkeypatch, capsys):
    from clag.cli import main
    from clag.geometry import AmbientSpace

    def refuse(self, k):
        raise AssertionError("k-spaces enumerated")

    monkeypatch.setattr(AmbientSpace, "spaces", refuse)
    assert main(["search", "--n", "6", "--q", "5", "--x", "1"]) == 2
    assert "scale exceeded" in capsys.readouterr().err


def test_search_timing_is_opt_in():
    # SHA-256 of the certificates as printed before `--timing` reported
    # the search rate and the plans and states built
    pinned = {
        ("2", "1"): "49e71a0221c429de42dc232ccac26d7b"
                    "9201d6ea9f2e6a38ea06c0d6cfb7648f",
        ("3", "2"): "f5b84235a9b9bc8ac95867a7ab1506cc"
                    "146066c0856a850caf48ef8e50d7e9cf"}
    for (q, x), digest in pinned.items():
        plain = run_cli("search", "--n", "3", "--q", q, "--x", x)
        assert plain.returncode == 0
        assert hashlib.sha256(plain.stdout.encode()).hexdigest() == digest
        timed = run_cli("search", "--n", "3", "--q", q, "--x", x, "--timing")
        doc = json.loads(timed.stdout)
        assert list(doc)[-4:] == ["wall_clock_s", "nodes_per_s",
                                  "plans_built", "states_built"]
        assert doc["nodes_per_s"] > 0 and doc["plans_built"] > 0
        assert doc["states_built"] > 0
        for key in ("wall_clock_s", "nodes_per_s", "plans_built",
                    "states_built"):
            doc.pop(key)
        assert json.dumps(doc, indent=2) + "\n" == plain.stdout


def test_search_certificates_are_pinned(capsys):
    # SHA-256 of the printed certificates of a k = 2 search (AG(4,2)
    # planes) and a nonexistence search (AG(5,2) lines): any change to
    # the search's eliminations, its order or its counters moves them
    pinned = {
        ("--n", "4", "--q", "2", "--k", "2", "--x", "1", "--cap", "200"):
            "9497858ebc0b670b82337c2902d7519a35e27848afbe1cfb0b222e69698e5c2e",
        ("--n", "5", "--q", "2", "--x", "2", "--cap", "600"):
            "4e22aff862a4cff9cb15448e414316eb5bf92bace765639fb9e926cff1ba5214"}
    for argv, digest in pinned.items():
        assert cli.main(["search", *argv]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_type_I_spreads_are_pinned(capsys):
    # SHA-256 of printed type I spreads over prime fields and GF(4) with
    # k = 1: any change to the modulus rule of f or to the members that
    # field reduction builds from it moves them
    pinned = {
        (3, 2, 1): "56cf4a482d44bca775b033f69f429431a5acb1e9140aa29606b171130d0e497f",
        (3, 3, 1): "b22bd7cf58d7f1462f9646552bc080bef03fb033613a2d2f57d88ecaf5da128c",
        (3, 4, 1): "dfbbfc703a3d3bca19284c36c7609eb0b3386ac6c74465366e77f2abd6af336d",
        (3, 5, 1): "7afe991059e95bb47024a4ee91a0499d3dba8713d0ebab4f0277b7e68d916d1d",
        (3, 7, 1): "8958cfc64c5c70878250b8530c9ddecb0e1dd508ddfab00063f14d8ba80d2ec5",
        (3, 11, 1): "dc140385448fa3c0f2bdf93236580fee4d38a9c462fc36bd10996cf2f406d57e",
        (3, 23, 1): "756c55a6c8e58d1ef128f92e8ac22dc5458dd7bf42b761e7355968ee5e4123c7",
        (5, 2, 1): "1dc80883c54f08ef00150fd8a004f784cbf80ad6732d54b512a9f52047cca7cf",
        (5, 2, 2): "ac0bfeea9a2ed9cf039839f8ef87aaa66426df8559a0e1702540863c8e044301",
        (5, 4, 1): "451edfec56276241e1c0b8b7112ccd5a0245ec881f228ad52f712f2198bc8ddd",
        (7, 2, 1): "ba00c7b68d48440e5d2be2f384beb8f87a644fe28b04abdb6965b2c126a90275",
        (7, 3, 3): "9a95378e4da968069f5c05165da43cb46dae7766e4e84e5debd265fae6416f88"}
    for (n, q, k), digest in pinned.items():
        argv = ["--n", str(n), "--q", str(q), "--k", str(k)]
        assert cli.main(["spread", "--type", "1", *argv]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (n, q, k)


def test_type_I_spread_past_the_size_guard_exits_2_first(monkeypatch,
                                                         capsys):
    # is_spread would read all 585 points of PG(3,8): the guard refuses
    # them before f is sought or any member is built
    def unreachable(*args):
        raise AssertionError("type I spread built past the size guard")
    monkeypatch.setattr(spreads, "_irreducible", unreachable)
    monkeypatch.setattr(spreads, "normalized_points", unreachable)
    monkeypatch.setenv("CLAG_SIZE_GUARD", "50")
    assert cli.main(["spread", "--type", "1", "--n", "3", "--q", "8"]) == 2
    assert capsys.readouterr().err == (
        "size guard: 585 points of PG(3,8) exceed guard 50\n")


def test_verify_pencil(tmp_path):
    space = ambient(3, 2, "affine")
    pen = point_pencil(space, (1, 0, 0, 0), 1)
    setfile = tmp_path / "pencil.json"
    setfile.write_text(json.dumps(kset_to_json(pen)))
    out = tmp_path / "verdict.json"
    r = run_cli("verify", "--set", str(setfile), "--all-checks",
                "--out", str(out))
    assert r.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["is_cameron_liebler"] and doc["x"] == "1"
    statuses = {name: c["status"] for name, c in doc["checks"].items()}
    assert all(s == "pass" for s in statuses.values())
    assert "certificate" in doc["checks"]["definitional"]


def test_verify_single_line_fails(tmp_path):
    space = ambient(3, 2, "affine")
    setfile = tmp_path / "one.json"
    setfile.write_text(json.dumps(kset_to_json(kset_from_indices(space, 1, [0]))))
    r = run_cli("verify", "--set", str(setfile))
    assert r.returncode == 1
    doc = json.loads(r.stdout)
    assert doc["checks"]["integrality"]["status"] == "fail"
    assert doc["checks"]["definitional"]["status"] == "fail"


def test_verify_empty_set(tmp_path):
    space = ambient(3, 2, "affine")
    setfile = tmp_path / "empty.json"
    setfile.write_text(json.dumps(kset_to_json(kset_from_indices(space, 1, []))))
    r = run_cli("verify", "--set", str(setfile))
    assert r.returncode == 0
    assert json.loads(r.stdout)["x"] == "0"


def test_verify_malformed_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = run_cli("verify", "--set", str(bad))
    assert r.returncode == 2
    assert "malformed" in r.stderr


@pytest.mark.parametrize("basis", [
    # the line of AG(3,2) through (1,0,0,0) and (1,1,0,0), by a basis
    # that spans it but is not its reduced echelon form
    [[1, 1, 0, 0], [1, 0, 0, 0]],
    # 2 is no element of GF(2)
    [[1, 0, 0, 0], [0, 2, 0, 0]],
    # a row that is no array
    [5],
    # the first member again: a point pencil listed with 8 entries
    [[1, 0, 0, 0], [0, 0, 0, 1]],
    # 2^63 is no element of GF(2), and no int64 holds it
    [[1, 0, 0, 0], [0, 2**63, 0, 0]],
])
def test_verify_rejects_malformed_basis(tmp_path, basis):
    # the 7 lines of AG(3,2) through the origin, then the bad entry
    pencil = [[[1, 0, 0, 0], [0, a, b, c]]
              for a, b, c in [(0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0),
                              (1, 0, 1), (1, 1, 0), (1, 1, 1)]]
    bad = tmp_path / "bad_basis.json"
    bad.write_text(json.dumps({"n": 3, "q": 2, "k": 1, "mode": "affine",
                               "members": pencil + [basis]}))
    r = run_cli("verify", "--set", str(bad))
    assert r.returncode == 2
    assert "malformed k-set file" in r.stderr
    assert "Traceback" not in r.stderr


def test_spread_command(tmp_path):
    out = tmp_path / "spread.json"
    r = run_cli("spread", "--type", "2", "--n", "3", "--q", "2",
                "--at-infinity", "0:0:0:1", "--out", str(out))
    assert r.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["size"] == 4 and doc["verified"] and doc["type"] == "II"


def test_spread_type1_and_type3(tmp_path):
    r = run_cli("spread", "--type", "1", "--n", "3", "--q", "2", "--affine",
                "--out", str(tmp_path / "s1.json"))
    assert r.returncode == 0
    assert json.loads((tmp_path / "s1.json").read_text())["size"] == 4
    r = run_cli("spread", "--type", "3", "--n", "3", "--q", "2",
                "--pi", "0:1:0:0;0:0:1:0",
                "--choices", "0:1:0:0|0:0:1:0",
                "--out", str(tmp_path / "s3.json"))
    assert r.returncode == 0
    doc = json.loads((tmp_path / "s3.json").read_text())
    assert doc["size"] == 4 and doc["type"] == "III+"


def test_spread_usage_errors():
    assert run_cli("spread", "--type", "2", "--n", "3", "--q", "2").returncode == 2
    r = run_cli("spread", "--type", "1", "--n", "4", "--q", "2")
    assert r.returncode == 2  # divisibility violated
    r = run_cli("spread", "--type", "2", "--n", "3", "--q", "2",
                "--at-infinity", "0:0:0:5")
    assert r.returncode == 2  # 5 is no element of GF(2)
    assert "Traceback" not in r.stderr


def test_project_command(tmp_path):
    space = ambient(4, 2, "affine")
    pen = point_pencil(space, (1, 0, 0, 0, 0), 2)
    setfile = tmp_path / "pen2.json"
    setfile.write_text(json.dumps(kset_to_json(pen)))
    out = tmp_path / "img.json"
    r = run_cli("project", "--set", str(setfile), "--axis", "0:0:0:0:1",
                "--out", str(out))
    assert r.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["x"] == "1" and doc["is_cameron_liebler"]
    assert doc["same_parameter"]


def test_project_rejects_codes_past_int64(tmp_path):
    space = ambient(4, 2, "affine")
    doc = kset_to_json(point_pencil(space, (1, 0, 0, 0, 0), 2))
    good = tmp_path / "pen2.json"
    good.write_text(json.dumps(doc))
    doc["members"][0][1][1] = 2**63
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "img.json"
    for setfile, axis, name in ((bad, "0:0:0:0:1", f"k-set file {bad}"),
                                (good, f"0:0:0:0:{2**63}", "input")):
        r = run_cli("project", "--set", str(setfile), "--axis", axis,
                    "--out", str(out))
        assert r.returncode == 2
        assert r.stderr == (f"malformed {name}: "
                            "basis entries must be field codes 0..1\n")
        assert not out.exists()


@pytest.mark.parametrize("n,q,extra", [(10, 9, []), (19, 9, ["--hyperplanes"])])
def test_scheme_tables_past_int64_exit_2(capsys, n, q, extra):
    # the largest AG(n, 9) whose P and intersection matrices fit in
    # int64 runs; one dimension more is an unsupported dimension
    assert cli.main(["scheme", "--n", str(n), "--q", str(q), *extra]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == n and doc["orthogonality"]
    assert cli.main(["scheme", "--n", str(n + 1), "--q", str(q), *extra]) == 2
    assert capsys.readouterr().err.startswith("unsupported dimension: ")


@pytest.mark.parametrize("argv", [
    ["search", "--n", "3", "--q", "2", "--k", "0", "--x", "1"],
    ["search", "--n", "3", "--q", "2", "--k", "3", "--x", "1"],
    ["verify", "--set", "{point_set}"],
    ["scheme", "--n", "2", "--q", "2"],
    ["scheme", "--hyperplanes", "--n", "1", "--q", "2"],
    ["spread", "--type", "1", "--n", "3", "--q", "2", "--k", "0"],
    # --k disagreeing with the axis or the choices
    ["spread", "--type", "2", "--n", "3", "--q", "2", "--k", "2",
     "--at-infinity", "0:1:0:0"],
    ["spread", "--type", "3", "--n", "3", "--q", "2", "--k", "2",
     "--pi", "0:1:0:0;0:0:1:0", "--choices", "0:1:0:0|0:0:1:0"],
])
def test_unsupported_dimension_exits_2(tmp_path, argv):
    # a k = 0 set: one point of AG(3,2)
    point_set = tmp_path / "point.json"
    point_set.write_text(json.dumps({"n": 3, "q": 2, "k": 0, "mode": "affine",
                                     "members": [[[1, 0, 0, 0]]]}))
    r = run_cli(*(a.format(point_set=point_set) for a in argv))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr


def test_usage_error_exit_code():
    assert run_cli("search", "--n", "3").returncode == 2
    assert run_cli().returncode == 2


def test_size_guard_env(tmp_path):
    # the guard counts matrix entries: 27 x 117 incidence entries > 50
    r = run_cli("search", "--n", "3", "--q", "3", "--x", "0",
                env={"CLAG_SIZE_GUARD": "50"})
    assert r.returncode == 2
    assert "size guard" in r.stderr
    r = run_cli("search", "--n", "3", "--q", "3", "--x", "0", "--cap", "50")
    assert r.returncode == 2
    assert "scale exceeded" in r.stderr


@pytest.mark.parametrize("value,argv", [
    ("abc", ["search", "--n", "3", "--q", "2", "--x", "1"]),
    ("1e6", ["scheme", "--n", "3", "--q", "2", "--brute-force"]),
    ("-5", ["verify"])])
def test_malformed_size_guard_exits_2(tmp_path, value, argv):
    # exit 1 is verify's "not Cameron-Liebler": a bad setting must not
    # end in a traceback that reads as that verdict
    if argv == ["verify"]:
        setfile = tmp_path / "set.json"
        setfile.write_text(json.dumps(kset_to_json(
            point_pencil(ambient(3, 2, "affine"), (1, 0, 0, 0), 1))))
        argv = ["verify", "--set", str(setfile)]
    r = run_cli(*argv, env={"CLAG_SIZE_GUARD": value})
    assert r.returncode == 2
    assert r.stderr == (f"size guard: CLAG_SIZE_GUARD={value!r} is not a "
                        "non-negative decimal integer\n")


@pytest.mark.parametrize("argv", [
    # 2^99999 (2^100000 - 1) lines: past the 4,300 digits str() prints
    ["--n", "100000", "--q", "2", "--x", "1"],
    # [3000, 2999]_2 took 24 s when computed over 2999 factors
    ["--n", "3000", "--q", "2", "--k", "2999", "--x", "0"],
    # closed forms of 10^8 bits and more: refused from q^((k+1)(n-k))
    # rather than formed, which ran past 20 s and past 60 s
    ["--n", "100000000", "--q", "2", "--k", "2", "--x", "1"],
    ["--n", "100000000", "--q", "3", "--k", "1", "--x", "1"]])
def test_search_far_past_the_cap_exits_2_at_once(argv):
    r = run_cli("search", *argv, timeout=10)
    assert r.returncode == 2
    assert r.stderr.startswith("scale exceeded: at least 2^")


def test_kset_files_past_the_enumeration_guard_exit_2(tmp_path):
    # PG(12,3) has 52,955,405,230 lines; enumerating them for the index
    # of AG(12,3) lines ran until the process was killed
    setfile = tmp_path / "set.json"
    setfile.write_text(json.dumps({"n": 12, "q": 3, "k": 1, "mode": "affine",
                                   "members": [[[1] + [0] * 12,
                                                [0] * 12 + [1]]]}))
    for argv in (["verify"], ["project", "--axis", ":".join("0" * 12 + "1")]):
        r = run_cli(*argv, "--set", str(setfile), timeout=10,
                    env={"CLAG_SIZE_GUARD": ""})
        assert r.returncode == 2
        assert r.stderr == ("size guard: 52955405230 1-spaces of PG(12,3) "
                            "exceed guard 10000000\n")
    # a header alone: [3 10^7 + 1, 2]_2 took 22 s to form before the
    # guard refused it, and is now refused from 2^(2 (3 10^7 - 1))
    setfile.write_text(json.dumps({"n": 3 * 10**7, "q": 2, "k": 1,
                                   "mode": "affine", "members": []}))
    r = run_cli("verify", "--set", str(setfile), timeout=10,
                env={"CLAG_SIZE_GUARD": ""})
    assert r.returncode == 2
    assert r.stderr == ("size guard: at least 2^59999998 1-spaces of "
                        "PG(30000000,2) exceed guard 10000000\n")


def test_size_guard_env_covers_spread_incidences():
    # type III reads the AG(3,2) point lists of the planes (14 x 4) and
    # of the lines (28 x 2), 56 entries each
    r = run_cli("spread", "--type", "3", "--n", "3", "--q", "2",
                "--pi", "0:1:0:0;0:0:1:0", "--choices", "0:1:0:0|0:0:1:0",
                env={"CLAG_SIZE_GUARD": "50"})
    assert r.returncode == 2
    assert "size guard" in r.stderr


def test_one_parser_serves_every_command_of_a_process(tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lines.json").write_text(json.dumps(kset_to_json(
        point_pencil(ambient(3, 2, "affine"), (1, 0, 0, 0), 1))))
    (tmp_path / "planes.json").write_text(json.dumps(kset_to_json(
        point_pencil(ambient(4, 2, "affine"), (1, 0, 0, 0, 0), 2))))
    commands = [
        ["verify", "--set", "lines.json", "--all-checks"],
        ["search", "--n", "3", "--q", "2", "--x", "1", "--seed", "7"],
        ["scheme", "--n", "3", "--q", "2", "--format", "table"],
        ["spread", "--type", "3", "--n", "3", "--q", "2",
         "--pi", "0:1:0:0;0:0:1:0", "--choices", "0:1:0:0|0:0:1:0"],
        ["project", "--set", "planes.json", "--axis", "0:0:0:0:1"],
        ["verify", "--set", "lines.json"],
    ]
    fresh = []
    for argv in commands:
        r = run_cli(*argv)
        fresh.append((r.returncode, r.stdout))
    ran = []
    real = cli.cmd_verify

    def traced(args):
        ran.append(args.set)
        return real(args)

    for order in (commands, commands[::-1]):
        for argv in order:
            assert (cli.main(argv), capsys.readouterr().out) \
                == fresh[commands.index(argv)]
        with pytest.raises(SystemExit) as usage:
            cli.main(["search", "--n", "3", "--seed", "x"])
        assert usage.value.code == 2
        capsys.readouterr()
        # the parser is built by now; a rebound cmd_verify still runs
        monkeypatch.setattr(cli, "cmd_verify", traced)
    assert ran == ["lines.json", "lines.json"]


# SHA-256 of `clag verify --all-checks` reports, recorded from the
# former containment-mask route of the type III spreads
@pytest.mark.parametrize("name,code,digest", [
    # 63 type III spreads: all of them
    ("ag32_pencil", 0,
     "39b4ed526664aeaad86b826f1be9a6cfb4bb267e0e6e8620f6cfb8bb1c3b9e67"),
    # 832 type III spreads: a sample of 60
    ("ag33_pencil", 0,
     "d98f580b1aad853af869856038515c4e55d6a99378589f2ba9ee0d23946e6a5d"),
    # the type II counts, read in the details, differ from x
    ("ag33_perturbed", 1,
     "be31f104ba36dd619b134dfa2788ce8c74d6fea93502c6da606e8a378de9306b"),
    ("pg33_star", 0,
     "75b46dd97b22b3bcb8dd99f80149146eb66562a8974e3cfedbc280271a6ab91c"),
    # recorded from the former route of Spread objects, type II and III
    # spreads built one by one and each counted from its member indices
    ("ag34_perturbed", 1,
     "fd102efd30dec7b0375fff8c6c26e4a4f0b5353c9a68166e555366addb57f61e"),
    ("ag42_pencil", 0,
     "b855d8fa0616b35335ccf8e412a6fd5e5bdab8695b47395af3f17f470a6a5620"),
    # every type III spread, some of them missed by the set
    ("ag32_perturbed", 1,
     "93414f4a20617e622f7d8876bcfecc5bdac03b23d0aceb29c1e32a37e0ba2003"),
])
def test_verify_all_checks_reports_stay_byte_identical(tmp_path, monkeypatch,
                                                       capsys, name, code,
                                                       digest):
    n, q = int(name[2]), int(name[3])
    space = ambient(n, q, "projective" if name.startswith("pg") else "affine")
    l = point_pencil(space, (1,) + (0,) * n, 1)
    if name.endswith("perturbed"):
        # the pencil, its first line swapped for the first line outside it
        outside = min(set(range(len(space.spaces(1)))) - l.members)
        l = kset_from_indices(space, 1, sorted(l.members)[1:] + [outside])
    monkeypatch.chdir(tmp_path)
    (tmp_path / "set.json").write_text(json.dumps(kset_to_json(l)))
    assert cli.main(["verify", "--set", "set.json", "--all-checks"]) == code
    report = capsys.readouterr().out
    assert hashlib.sha256(report.encode()).hexdigest() == digest


def test_seed_recorded(tmp_path):
    out = tmp_path / "c.json"
    run_cli("search", "--n", "3", "--q", "2", "--x", "0", "--seed", "42",
            "--out", str(out))
    assert json.loads(out.read_text())["seed"] == 42


# the 7 lines of AG(3,2) through the origin, then one more entry
_PENCIL = [[[1, 0, 0, 0], [0, a, b, c]]
           for a, b, c in [(0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0),
                           (1, 0, 1), (1, 1, 0), (1, 1, 1)]]


@pytest.mark.parametrize("header", [
    {"n": 3.7}, {"k": 1.9}, {"k": True}, {"q": 2.5}, {"n": "3"}])
def test_kset_file_headers_must_be_ints(tmp_path, capsys, header):
    # each of these once read as n = 3, k = 1, q = 2, and the pencil verified
    setfile = tmp_path / "set.json"
    setfile.write_text(json.dumps({"n": 3, "q": 2, "k": 1, "mode": "affine",
                                   "members": _PENCIL, **header}))
    assert cli.main(["verify", "--set", str(setfile)]) == 2
    assert capsys.readouterr().err.startswith(
        f"malformed k-set file {setfile}: ")
    assert cli.main(["project", "--set", str(setfile),
                     "--axis", "0:0:0:1"]) == 2
    assert capsys.readouterr().err.startswith(
        f"malformed k-set file {setfile}: ")


@pytest.mark.parametrize("row,col,value", [
    (1, 2, False), (1, 2, 0.0), (0, 0, True), (0, 0, 1.0)])
def test_kset_member_coordinates_must_be_ints(tmp_path, capsys, row, col,
                                              value):
    # False == 0 and 1.0 == 1, so each of these once found its member
    # among the canonical lines and the AG(3,3) pencil verified
    space = ambient(3, 3, "affine")
    doc = kset_to_json(point_pencil(space, (1, 0, 0, 0), 1))
    assert doc["members"][5][row][col] == value
    doc["members"][5][row][col] = value
    with pytest.raises(TypeError):
        kset_from_json(doc)
    setfile = tmp_path / "set.json"
    setfile.write_text(json.dumps(doc))
    for argv in (["verify"], ["project", "--axis", "0:0:0:1"]):
        assert cli.main([*argv, "--set", str(setfile)]) == 2
        assert capsys.readouterr().err.startswith(
            f"malformed k-set file {setfile}: ")


@pytest.mark.parametrize("extra", [
    [[1, 1, 0, 0], [1, 0, 0, 0]],                  # not reduced echelon
    [[1, 0, 0, 0], [0, 2, 0, 0]],                  # 2 is no element of GF(2)
    [[1, 0, 0, 1]],                                # a point
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],    # a plane
    [[0, 1, 0, 0], [0, 0, 1, 0]],                  # a line at infinity
    [[1, 0, 0, 0], [0, 0, 0, 1]],                  # the first member again
    [[1.5, 0, 0, 0], [0, 0, 0, 1]],                # a fractional entry
    [[1, 0, 0, 1.0], [0, 1, 0, 0]],                # an integral float
    [[True, False, False, True], [0, 1, 0, 0]],    # booleans
    [["1", "0", "0", "0"], ["0", "1", "0", "0"]],  # strings
    "1000",                                        # a string member
    [[[1], 0, 0, 0], [0, 1, 0, 0]],                # a nested entry
    [5],                                           # a row that is no array
    {"rows": 1},
    None,
])
def test_kset_files_are_refused_as_by_the_subspace_route(tmp_path, capsys, extra):
    from clag.clsets import kset_from_json
    from oracle import subspace_kset_from_json
    doc = {"n": 3, "q": 2, "k": 1, "mode": "affine",
           "members": _PENCIL + [extra]}
    outcome = []
    for load in (kset_from_json, subspace_kset_from_json):
        try:
            outcome.append(("loaded", load(doc).members))
        except Exception as exc:  # the two routes must fail alike
            outcome.append((type(exc), str(exc)))
    assert outcome[0] == outcome[1]
    setfile = tmp_path / "set.json"
    setfile.write_text(json.dumps(doc))
    code = cli.main(["verify", "--set", str(setfile)])
    err = capsys.readouterr().err
    if outcome[1][0] == "loaded":
        assert code in (0, 1) and err == ""
    else:
        assert code == 2
        assert err == f"malformed k-set file {setfile}: {outcome[1][1]}\n"


@pytest.mark.parametrize("mutation", ["true", "1.0", "twice", "plane",
                                      "not echelon"])
def test_kset_files_and_certificates_refuse_the_same_members(
        tmp_path, capsys, mutation):
    # a certificate's solutions are read as k-set files are
    cert = search_cl_ksets(3, 2, 1, 1)
    sol = cert["solutions"][0]
    members, indices = sol["members"], sol["indices"]
    bad = json.loads(json.dumps(members))
    if mutation == "true":
        bad[0][0][0] = True
    elif mutation == "1.0":
        bad[0][0][0] = 1.0
    elif mutation == "twice":
        bad.append(bad[0])
        indices = sorted(indices + indices[:1])
    elif mutation == "plane":
        bad[0] = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    else:
        bad[0] = bad[0][::-1]
    setfile = tmp_path / "set.json"
    for rows, code, verdict in ((members, 0, True), (bad, 2, False)):
        setfile.write_text(json.dumps({"n": 3, "q": 2, "k": 1,
                                       "mode": "affine", "members": rows}))
        assert cli.main(["verify", "--set", str(setfile)]) == code
        sol["members"] = rows
        if rows is bad:
            sol["indices"] = indices
        assert verify_certificate(cert) is verdict
    assert capsys.readouterr().err.startswith(
        f"malformed k-set file {setfile}: ")


def test_verify_all_checks_report_is_pinned(tmp_path, monkeypatch, capsys):
    # SHA-256 of the report on the AG(3,4) pencil of the origin, recorded
    # when its 60 sampled type III spreads were built one spread at a
    # time from sorted Subspace members; they are now counted from the
    # part table, and the second run reads the keys and the table from
    # the memo: it neither draws nor checks the parts again
    space = ambient(3, 4, "affine")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pencil.json").write_text(
        json.dumps(kset_to_json(point_pencil(space, (1, 0, 0, 0), 1))))
    digest = "b54799ea4de3df042b9a18c816973e44f93cbc35996b5664f561e015d278a84c"
    for run in range(2):
        assert cli.main(["verify", "--set", "pencil.json", "--all-checks"]) == 0
        report = capsys.readouterr().out
        assert hashlib.sha256(report.encode()).hexdigest() == digest
        assert json.loads(report)["checks"]["spread_intersections_type_III"] \
            == {"status": "pass", "spreads": 60, "mode": "sampled"}
        monkeypatch.setattr(spreads.random, "Random", None)
        monkeypatch.setattr(spreads, "_parts_are_spreads", None)


@pytest.mark.parametrize("n,q,k", [(3, 2, 1), (3, 4, 1), (4, 2, 1),
                                   (5, 2, 2)])
def test_verify_all_checks_builds_no_spread(tmp_path, monkeypatch, capsys,
                                            n, q, k):
    # every spread count is read from the member set's tables: exhaustive
    # and sampled type III, type II and the switching pair
    def refuse(*args, **kwargs):
        raise AssertionError("a Spread was built")
    monkeypatch.setattr(spreads.Spread, "__init__", refuse)
    space = ambient(n, q, "affine")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "set.json").write_text(json.dumps(kset_to_json(
        point_pencil(space, (1,) + (0,) * n, k))))
    assert cli.main(["verify", "--set", "set.json", "--all-checks"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks["switching_invariance"]["status"] == "pass"
    assert checks["spread_intersections_type_II"]["status"] == "pass"
    assert ("spread_intersections_type_III" in checks) is (k == 1)


def test_verify_all_checks_runs_the_traced_spread_checks(tmp_path,
                                                         monkeypatch, capsys):
    # the benchmark's per-layer spans name the checks `verify` runs: the
    # type II and type III spread checks and the switching check
    bench = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "clagbench")
    monkeypatch.syspath_prepend(bench)
    tracer = importlib.import_module("tracer")
    space = ambient(3, 2, "affine")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "set.json").write_text(json.dumps(kset_to_json(
        point_pencil(space, (1, 0, 0, 0), 1))))
    with tracer.Tracer() as traced:
        assert cli.main(["verify", "--set", "set.json", "--all-checks"]) == 0
    capsys.readouterr()
    names = [span[0] for span in traced.spans]
    assert names.count("clsets.check_spread_intersections") == 2
    assert names.count("clsets.check_switching_invariance") == 1


def test_workload_paths_build_no_subspace_lists(tmp_path, monkeypatch,
                                                capsys):
    # the benchmark's commands read the bases arrays and their lookups:
    # no space they touch builds the Subspace lists of spaces(k) or
    # infinite_subspaces(d)
    from clag import geometry
    from clag.classify import cross_check_projection
    from clag.scheme import scheme_report
    files = {}
    for space in (ambient(3, 4, "affine"), ambient(3, 3, "projective")):
        star = point_pencil(space, (1, 0, 0, 0), 1)
        # a rejected set: its report lists disjointness mismatches
        moved = sorted(star.members)[1:] + [max(star.members) + 1]
        for name, l, code in (("star", star, 0), ("moved", kset_from_indices(
                space, 1, moved), 1)):
            path = tmp_path / f"{space.mode}_{name}.json"
            path.write_text(json.dumps(kset_to_json(l)))
            files[path] = code
    monkeypatch.setattr(geometry, "_AMBIENT_CACHE", {})
    scheme_report(5, 2, brute_force=True)
    scheme_report(5, 3, "affine_hyperplanes", True)
    for x in (1, 2):
        search_cl_ksets(3, 3, 1, x)
    for path, code in files.items():
        assert cli.main(["verify", "--set", str(path), "--all-checks"]) == code
    assert capsys.readouterr().out.count('"mismatches": [\n') == 2
    assert cross_check_projection(4, 2, 2)["all_images_cl_with_same_x"]
    touched = geometry._AMBIENT_CACHE.values()
    assert {str(s) for s in touched} >= {"AG(5,2)", "AG(5,3)", "AG(3,3)",
                                         "AG(3,4)", "PG(3,3)", "AG(4,2)"}
    assert not [(s, key) for s in touched for key in s._memo
                if key[0] in ("spaces", "infinite_subspaces")]
