"""The benchmark's workloads: whole clag operations, in run order.

Each operation is a dict the worker runs in order:

* ``kind: "cli"`` -- ``clag.cli.main(argv)``, writing ``<name>.json``;
* ``kind: "project"`` -- ``classify.cross_check_projection(*args)``,
  the one operation that is not a command, its result dumped to
  ``<name>.json``.

``group`` says which figure the operation feeds: ``main`` the
end-to-end ``main_op_s``, ``side`` the printed figures of the workload's
lighter operations, None only ``wall_s``.  ``expect`` says what the
correctness gate requires of its artifact, and ``seeded`` whether the
artifact depends on the seed (only the verify inputs do).  The
``smoke`` scale runs the same operations on AG(3, 2)-sized inputs.
"""

from __future__ import annotations

import gen

WORKLOADS = ("search", "scheme", "verify")


def _search(n, q, x, solutions, group):
    return {"name": f"search_ag{n}{q}_x{x}", "kind": "cli",
            "argv": ["search", "--n", str(n), "--q", str(q), "--x", str(x)],
            "group": group, "seeded": False,
            "expect": {"kind": "search", "solutions": solutions}}


def _scheme(n, q, hyperplanes, group):
    kind = "hyp" if hyperplanes else "lines"
    argv = (["scheme", "--n", str(n), "--q", str(q)]
            + (["--hyperplanes"] if hyperplanes else []) + ["--brute-force"])
    return {"name": f"scheme_ag{n}{q}_{kind}", "kind": "cli", "argv": argv,
            "group": group, "seeded": False, "expect": {"kind": "scheme"}}


def _verify(entry):
    return {"name": f"verify_{entry['name']}", "kind": "cli",
            "argv": ["verify", "--set", f"{entry['name']}.kset.json",
                     "--all-checks"],
            "group": "main" if entry["expect"] else "side", "seeded": True,
            "input": entry["kset"],
            "expect": {"kind": "verify", "cl": entry["expect"],
                       "proof": entry["proof"]}}


def build(workload: str, seed: int, scale: str = "full") -> list[dict]:
    """The operations of one workload for a seed."""
    smoke = scale == "smoke"
    if scale not in ("full", "smoke"):
        raise ValueError(f"unknown scale {scale!r}")
    if workload == "search":
        # x=2 proves nonexistence (the forced-value elimination does the
        # work); x=1 finds the q^3 point-pencils.
        q = 2 if smoke else 3
        ops = [_search(3, q, 2, 0, "main"), _search(3, q, 1, q ** 3, "side")]
    elif workload == "scheme":
        # the 3-class line scheme, then the 2-class hyperplane path with
        # its adjudication; larger sizes take minutes per command
        sizes = [(3, 2), (3, 2), (3, 3)] if smoke else [(5, 2), (5, 3), (4, 4)]
        ops = [_scheme(*sizes[0], False, "main"),
               _scheme(*sizes[1], True, "side"),
               _scheme(*sizes[2], True, "side")]
    elif workload == "verify":
        entries = gen.verify_inputs(seed, *((2, 2) if smoke else (4, 3)))
        ops = [_verify(e) for e in entries]
        if not smoke:
            ops.append({"name": "project_ag42_k2", "kind": "project",
                        "args": [4, 2, 2], "group": None, "seeded": False,
                        "expect": {"kind": "project"}})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for op in ops:
        if op["kind"] == "cli":
            op["argv"] = op["argv"] + ["--out", f"{op['name']}.json"]
    return ops
