"""Alternating parent/change runs of classification searches.

    python3 tools/search_pairs.py PARENT_DIR CHANGE_DIR \\
        [--row n,q,k,x[,cap] ...] --pairs N

Each run is one ``search_cl_ksets(n, q, k, x, cap=cap, timing=True)``
in a fresh interpreter that imports ``clag`` from the checkout's
``src``, timed around that call alone (the default cap when a row gives
none).  With no ``--row``, the rows are ``STANDARD_ROWS``, the searches
on which a change to the search must give the same certificates.  Pair
i runs the parent first when i is even and the change first when i is
odd, as ``tools/bench_pairs.py`` does.  For each row prints the time of
every pair, then each side's ``plans_built`` and ``states_built``
(parent/change), each side's median with its quartiles, in how many
pairs the change read lower and the ratio of the medians.  Exits 1 when
a certificate without its run fields (``wall_clock_s``, ``nodes_per_s``,
``plans_built``, ``states_built``) differs between the sides; the row's
line then names the top-level keys whose values differ.  A change to
the search may rightly move how many plans and states it builds, so a
difference there is printed, not failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pairs import summarize  # noqa: E402

_SEARCH = """\
import hashlib, json, sys, time
from clag.classify import search_cl_ksets
n, q, k, x, cap = json.loads(sys.argv[1])
start = time.perf_counter()
cert = search_cl_ksets(n, q, k, x, cap=cap, timing=True)
seconds = time.perf_counter() - start
built = {key: cert.pop(key) for key in ("plans_built", "states_built")}
cert.pop("wall_clock_s"), cert.pop("nodes_per_s")
def digest(value):
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()
print(json.dumps({"seconds": seconds, "nodes": cert["stats"]["nodes"],
                  **built, "sha256": digest(cert),
                  "keys": {key: digest(v) for key, v in cert.items()}}))
"""


# (n, q, k, x, cap): AG(3,2) and AG(3,3) lines, AG(3,4) lines, AG(4,2)
# lines and planes, AG(5,2) lines, AG(4,3) lines and planes; each cap
# admits its row's k-spaces, None meaning the default cap
STANDARD_ROWS = (
    (3, 2, 1, 1, None), (3, 2, 1, 2, None),
    *((3, 3, 1, x, None) for x in range(5)),
    (3, 4, 1, 1, 400), (3, 4, 1, 2, 400),
    (4, 2, 1, 1, None), (4, 2, 2, 1, 140), (4, 2, 2, 2, 140),
    (5, 2, 1, 2, 496),
    (4, 3, 1, 1, 1080), (4, 3, 1, 2, 1080),
    (4, 3, 2, 2, 1170), (4, 3, 2, 3, 1170))


def parse_row(text: str) -> tuple:
    """(n, q, k, x, cap) from ``n,q,k,x[,cap]``; cap is None if absent."""
    parts = [int(v) for v in text.split(",")]
    if len(parts) not in (4, 5):
        raise argparse.ArgumentTypeError(f"row {text!r} is not n,q,k,x[,cap]")
    return tuple(parts) if len(parts) == 5 else (*parts, None)


def run_once(root: str, row: tuple) -> dict:
    """One search of checkout `root` in a fresh interpreter: its seconds,
    its node count, ``plans_built``, ``states_built``, the SHA-256 of its
    certificate without the run fields and that of each of its top-level
    values."""
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    r = subprocess.run([sys.executable, "-c", _SEARCH, json.dumps(row)],
                       cwd=root, capture_output=True, text=True, env=env)
    if r.returncode:
        lines = r.stderr.strip().splitlines() or [f"exit {r.returncode}"]
        raise SystemExit(f"search {row} in {root}: {lines[-1]}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def compare_row(sides: dict, row: tuple, pairs: int) -> bool:
    """Runs and prints `pairs` alternating pairs of one row; True when
    every run gave the same certificate."""
    n, q, k, x, cap = row
    runs = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], row))
        print(f"  pair {i} ({order[0]} first): "
              f"{runs['parent'][-1]['seconds']:.3f}/"
              f"{runs['change'][-1]['seconds']:.3f} s", flush=True)
    every = runs["parent"] + runs["change"]
    digests = {run["sha256"] for run in every}
    differ = sorted({key for run in every for key in run["keys"]
                     if len({r["keys"].get(key) for r in every}) > 1})
    s = summarize(*([{"seconds": run["seconds"]} for run in runs[side]]
                    for side in ("parent", "change")))["seconds"]
    (p1, pm, p3), (c1, cm, c3) = s["parent"], s["change"]
    built = ", ".join(f"{key} {runs['parent'][0][key]}/"
                      f"{runs['change'][0][key]}"
                      for key in ("plans_built", "states_built"))
    print(f"AG({n},{q}) k={k} x={x} cap={cap}: "
          f"{runs['change'][0]['nodes']} nodes, certificates "
          f"{'same' if len(digests) == 1 else 'DIFFER'}"
          f"{' in ' + ', '.join(differ) if differ else ''}; {built}; "
          f"parent {pm:.3f} s [{p1:.3f}, {p3:.3f}]  "
          f"change {cm:.3f} s [{c1:.3f}, {c3:.3f}]  "
          f"change lower {s['lower']}/{s['pairs']}  ratio {s['ratio']:.3f}",
          flush=True)
    return len(digests) == 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--row", type=parse_row, action="append")
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent, "change": args.change}
    same = [compare_row(sides, row, args.pairs)
            for row in args.row or STANDARD_ROWS]
    if not all(same):
        print("a certificate differs between the sides", file=sys.stderr)
    return 0 if all(same) else 1


if __name__ == "__main__":
    sys.exit(main())
