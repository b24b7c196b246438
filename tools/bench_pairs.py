"""Alternating parent/change runs of the clagbench benchmark.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        --pairs N [--seed S] [--seconds T] [--ops]

Runs ``clagbench/run.py`` of each checkout, from its own root, N times
on each side.  Pair i runs the parent first when i is even and the
change first when i is odd, so neither side always meets the host in
the same state, and every run starts from an empty bytecode cache.
Prints every end-to-end metric of each pair, and the workload's named
figures beside them (for ``verify``: ``accept_ms``, ``reject_ms``,
``project_s``), read from the lines the run prints; then per figure and
side the median and quartiles, in how many pairs the change read lower,
and the ratio of the change's median to the parent's.  With ``--ops``,
the same summary follows for every operation of the workload, of the
median scaled seconds of the operation in each run, read from the run
record the run stored under its checkout's ``.bench_out/runs/``: it
shows which operations a change in the whole-run figures comes from.
Exits 1 when a run reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(parent: list[dict], change: list[dict]) -> dict:
    """Per metric, each side's quartiles, how many of the pairs
    (parent[i], change[i]) the change read lower (ties count for
    neither side) and the change/parent ratio of the medians."""
    out = {}
    for name in parent[0]:
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        qp, qc = quartiles(p), quartiles(c)
        out[name] = {"parent": qp, "change": qc,
                     "lower": sum(b < a for a, b in zip(p, c)),
                     "pairs": len(p),
                     "ratio": qc[1] / qp[1]}
    return out


def named_figures(stdout: str) -> dict:
    """The named figures of a run's output: the ``name value unit``
    lines between its ``#`` header and its ``wall_clock_s`` line."""
    lines = stdout.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("#"))
    out = {}
    for line in lines[start + 1:]:
        name, value = line.split()[:2]
        if name == "wall_clock_s":
            return out
        out[name] = float(value)
    raise ValueError("no wall_clock_s line after the header")


def op_medians(record: dict) -> dict:
    """Per operation of a stored run record, in run order, the median
    of its scaled seconds over the run's repetitions."""
    return {op["name"]: statistics.median(op["seconds"])
            for op in record["ops"]}


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in checkout `root`: the metric values of its
    last output line followed by its named figures, whether it read
    correct, and the `op_medians` of the run record it stored, the one
    new file of ``.bench_out/runs/`` (none: no medians).  Each run
    writes and reads its bytecode under a fresh empty
    PYTHONPYCACHEPREFIX, so a stale __pycache__ in either checkout
    cannot favour one side.  PYTHONDONTWRITEBYTECODE is dropped for the
    run: with it, the empty prefix would make every worker compile
    numpy from source (setup_s 0.51 s against 0.12 s on `verify`)."""
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    runs = os.path.join(root, ".bench_out", "runs")
    before = set(os.listdir(runs)) if os.path.isdir(runs) else set()
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        r = subprocess.run(
            [sys.executable, os.path.join("clagbench", "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds)],
            cwd=root, capture_output=True, text=True, check=True,
            env={**env, "PYTHONPYCACHEPREFIX": cache})
    doc = json.loads(r.stdout.strip().splitlines()[-1])
    metrics = {k: m["value"] for k, m in doc["metrics"].items()}
    ops = {}
    for name in set(os.listdir(runs) if os.path.isdir(runs) else ()) - before:
        with open(os.path.join(runs, name)) as fh:
            ops = op_medians(json.load(fh))
    return {"correct": doc["correct"], "ops": ops,
            "metrics": {**metrics, **named_figures(r.stdout)}}


def print_summary(parent: list[dict], change: list[dict]) -> None:
    """One line per figure of `summarize`, names padded to one width."""
    summary = summarize(parent, change)
    width = max([14, *map(len, summary)])
    for name, s in summary.items():
        (p1, pm, p3), (c1, cm, c3) = s["parent"], s["change"]
        print(f"  {name:{width}s} parent {pm:.4f} [{p1:.4f}, {p3:.4f}]  "
              f"change {cm:.4f} [{c1:.4f}, {c3:.4f}]  "
              f"change lower {s['lower']}/{s['pairs']}  "
              f"ratio {s['ratio']:.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--ops", action="store_true",
                        help="also summarise each operation's seconds")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    ops = {"parent": [], "change": []}
    correct = True
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            res = run_once(sides[side], args.workload, args.seed, args.seconds)
            correct &= res["correct"]
            runs[side].append(res["metrics"])
            ops[side].append(res["ops"])
        print(f"pair {i} ({order[0]} first): " + "  ".join(
            f"{name} {runs['parent'][-1][name]:.4f}/{val:.4f}"
            for name, val in runs["change"][-1].items()), flush=True)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"pairs={args.pairs}; parent/change median [q1, q3]")
    print_summary(runs["parent"], runs["change"])
    if args.ops:
        print("# per operation: median scaled seconds of each run")
        print_summary(ops["parent"], ops["change"])
    if not correct:
        print("a run read correct: false", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
