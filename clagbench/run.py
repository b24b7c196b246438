"""Whole-command benchmark of clag.

    python3 clagbench/run.py --workload {search,scheme,verify} \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Every repetition is a fresh Python
worker that imports clag from ``src/`` and runs the workload's
operations in order, one after another (a closed loop with one client).
Repetitions run one at a time until the next one would end after
``--seconds``; there is always at least one.  After the timing stops,
the correctness gate checks every artifact.

Every time is scaled to a reference CPU speed (see speed.py): the
host's speed changes from second to second, and wall-clock times would
measure that more than the program.  With ``--trace 0`` the
end-to-end metrics of BENCHMARK.json are medians over the
repetitions.  With ``--trace 1`` untraced and traced
repetitions alternate, the per-layer metrics come from the traced ones,
and ``trace.overhead_s`` is the traced minus the untraced ``wall_s``.
Every metric is printed by name with its unit, the last line of output
is one JSON object, and each run is stored with its environment under
``.bench_out/runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# the gate imports clag in this process, after the timing stops
sys.path[:0] = [HERE, SRC]

import speed  # noqa: E402
import workloads  # noqa: E402
from gate import Gate  # noqa: E402

OUT = os.path.join(ROOT, ".bench_out")
DEFAULT_SEED = 0
PROBES_PER_REP = 4        # import-only workers before each untraced
                          # repetition, so set-up samples span the run,
TAIL_PROBES = 24          # and at most this many in the time left after
                          # the last repetition
WORKER_TIMEOUT_S = 170

# Named figures of each workload's groups: (group, statistic), the
# statistic taken per repetition over the group's operations: their sum
# in seconds, or their median in milliseconds.  Printed alongside the
# metrics, not part of the result line.
NAMED = {
    "search": {"search_empty_s": ("main", "total"),
               "search_found_s": ("side", "total")},
    "scheme": {"lines_s": ("main", "total"),
               "hyperplanes_s": ("side", "total")},
    "verify": {"accept_ms": ("main", "median"),
               "reject_ms": ("side", "median"),
               "project_s": ("project", "total")},
}


class WorkerFailed(RuntimeError):
    pass


def _spawn(spec: dict, workdir: str) -> dict:
    """Run one worker to completion; its JSON result."""
    spec_path = os.path.join(workdir, "spec.json")
    spec["result"] = os.path.join(workdir, "result.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    with open(os.path.join(workdir, "worker.log"), "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path,
             repr(spawned)], env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            rc = proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"worker exceeded {WORKER_TIMEOUT_S} s")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if rc != 0:
        with open(os.path.join(workdir, "worker.log")) as fh:
            raise WorkerFailed(f"worker exited {rc}: {fh.read()[-2000:]}")
    with open(spec["result"]) as fh:
        return json.load(fh)


def _setup_probe(run_dir: str) -> dict:
    workdir = os.path.join(run_dir, "probe")
    os.makedirs(workdir, exist_ok=True)
    return _spawn({"src": SRC, "setup_only": True}, workdir)


def _repetition(run_dir: str, index: int, ops: list, traced: bool,
                run_id: str) -> tuple[dict, str]:
    workdir = os.path.join(run_dir, f"rep{index:02d}")
    os.makedirs(workdir)
    for op in ops:
        if "input" in op:
            with open(os.path.join(workdir, op["argv"][2]), "w") as fh:
                json.dump(op["input"], fh)
    spec = {"src": SRC, "workdir": workdir, "trace": traced,
            "run_id": f"{run_id}/rep{index:02d}",
            "spans": os.path.join(run_dir, f"spans-rep{index:02d}.json.gz"),
            "ops": [{k: op[k] for k in ("name", "kind", "argv", "args")
                     if k in op} for op in ops]}
    return _spawn(spec, workdir), workdir


def _median(values):
    return statistics.median(values) if values else 0.0


def _group_seconds(ops, outcomes, group, stat) -> float:
    """Total or median seconds per operation of a group in one
    repetition; operations without a group form one of their kind."""
    times = [o["seconds"] for op, o in zip(ops, outcomes)
             if (op["group"] or op["kind"]) == group]
    if not times:
        return 0.0
    return statistics.median(times) if stat == "median" else sum(times)


def _search_counters(ops, workdir) -> dict:
    """The search's own counters, summed over the search operations."""
    keys = ("nodes", "forced", "pruned_by_elimination",
            "pruned_by_pencil_counts")
    total = dict.fromkeys(keys, 0)
    for op in ops:
        if op["expect"]["kind"] != "search":
            continue
        path = os.path.join(workdir, f"{op['name']}.json")
        if not os.path.exists(path):  # the gate reports the failure
            continue
        with open(path) as fh:
            stats = json.load(fh)["stats"]
        for key in keys:
            total[key] += stats[key]
    return total


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full") -> dict:
    """Run, gate and summarise one workload; the stored run record."""
    ops = workloads.build(workload, seed, scale)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    run_id = f"{workload}-seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}"
    run_dir = os.path.join(OUT, "work", run_id)
    os.makedirs(run_dir)
    digests = None
    if scale == "full":
        with open(os.path.join(HERE, "digests.json")) as fh:
            digests = json.load(fh)
    affinity = os.sched_getaffinity(0)
    sampler = speed.Sampler(os.path.join(run_dir, "probes.json"))
    try:
        # the workers and the speed sampler share one core, so that the
        # sampler times the core the work runs on
        cpu = max(affinity)
        os.sched_setaffinity(0, {cpu})
        sampler.start()
        _setup_probe(run_dir)  # warms the bytecode cache; not counted
        setups = []
        pattern = (False, True) if trace else (False,)
        reps = []
        start = time.monotonic()
        longest = 0.0
        while True:
            for traced in pattern:
                t0 = time.monotonic()
                if not trace:
                    setups += [_setup_probe(run_dir)
                               for _ in range(PROBES_PER_REP)]
                result, workdir = _repetition(run_dir, len(reps), ops,
                                              traced, run_id)
                longest = max(longest, time.monotonic() - t0)
                reps.append({"traced": traced, "result": result,
                             "workdir": workdir})
            if time.monotonic() - start + longest * len(pattern) > seconds:
                break
        for _ in range(0 if trace else TAIL_PROBES):
            if time.monotonic() - start + max(
                    w["imported"] - w["spawned"] for w in setups) > seconds:
                break
            setups.append(_setup_probe(run_dir))
        measured_s = time.monotonic() - start
        probes = sampler.stop()
        record = _summarise(workload, seed, trace, scale, ops, reps, setups,
                            Gate(digests, seed == DEFAULT_SEED), measured_s,
                            probes)
        record["run_id"] = run_id
        record["env"].update(nproc=len(affinity), cpu=cpu)
    finally:
        sampler.kill()
        os.sched_setaffinity(0, affinity)
        # repetition directories go; spans files stay with the run
        for name in os.listdir(run_dir):
            path = os.path.join(run_dir, name)
            if os.path.isdir(path):
                shutil.rmtree(path)
    os.makedirs(os.path.join(OUT, "runs"), exist_ok=True)
    with open(os.path.join(OUT, "runs", f"{run_id}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def _summarise(workload, seed, trace, scale, ops, reps, setups, gate,
               measured_s, probes) -> dict:
    failures, digests, violations = [], {}, []
    attempted = 0
    ends, durations = probes
    for rep in reps:
        for o in rep["result"]["ops"]:
            o["seconds"] = speed.scaled(ends, durations, o["start"], o["end"])
            o["wall_clock_s"] = o["end"] - o["start"]
    for i, rep in enumerate(reps):
        for op, outcome in zip(ops, rep["result"]["ops"]):
            attempted += 1
            errs, d = gate.check(op, outcome, os.path.join(
                rep["workdir"], f"{op['name']}.json"))
            if errs:
                failures.append({"rep": i, "op": op["name"], "errors": errs})
            digests[op["name"]] = d
        violations += rep["result"].get("tree_violations", [])
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    setups = setups + [r["result"] for r in untraced]
    setup_s = [speed.scaled(ends, durations, w["spawned"], w["imported"])
               for w in setups]

    def wall(rep, key="seconds"):
        return sum(o[key] for o in rep["result"]["ops"])

    def group(name, stat):
        return _median([_group_seconds(ops, r["result"]["ops"], name, stat)
                        for r in untraced])

    record = {
        "workload": workload, "seed": seed, "trace": bool(trace),
        "scale": scale, "seconds_measured": measured_s,
        "env": reps[0]["result"]["env"],
        "repetitions": len(untraced), "traced_repetitions": len(traced),
        "attempted": attempted, "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "failures": failures[:50], "trace_violations": violations[:50],
        "digests": digests,
        "probes": len(durations), "median_probe_s": _median(durations),
        "wall_clock_s": _median([wall(r, "wall_clock_s") for r in untraced]),
        "ops": [{"name": op["name"], "group": op["group"],
                 "seconds": [r["result"]["ops"][i]["seconds"]
                             for r in untraced],
                 "wall_clock_s": [r["result"]["ops"][i]["wall_clock_s"]
                                  for r in untraced]}
                for i, op in enumerate(ops)],
        "end_to_end": {
            "setup_s": _median(setup_s),
            "wall_s": _median([wall(r) for r in untraced]),
            "peak_rss_mib": _median([r["result"]["peak_rss_mib"]
                                     for r in untraced]),
            "main_op_s": group("main", "total"),
        },
        "named": {name: (1000 if stat == "median" else 1) * group(g, stat)
                  for name, (g, stat) in NAMED[workload].items()},
        "setup_samples": setup_s,
        "setup_wall_clock_samples": [w["imported"] - w["spawned"]
                                     for w in setups],
    }
    if trace:
        record["per_layer"] = _per_layer(ops, untraced, traced, wall)
    return record


def _per_layer(ops, untraced, traced, wall) -> dict:
    names = set().union(*(r["result"]["layers"] for r in traced))
    layers = {name: _median([r["result"]["layers"].get(name, 0)
                             for r in traced]) for name in names}
    cl = "clsets.is_cameron_liebler"
    layers[f"{cl}.accept_ratio"] = _median(
        [r["result"]["layers"].get(f"{cl}.accepted", 0)
         / max(1, r["result"]["layers"].get(f"{cl}.calls", 0))
         for r in traced])
    counters = _search_counters(ops, untraced[0]["workdir"])
    for key, val in counters.items():
        layers[f"classify.{key}"] = val
    search_s = _median([sum(o["seconds"] for op, o in
                            zip(ops, r["result"]["ops"])
                            if op["expect"]["kind"] == "search")
                        for r in untraced])
    layers["classify.nodes_per_s"] = (counters["nodes"] / search_s
                                      if search_s else 0.0)
    layers["trace.overhead_s"] = (_median([wall(r) for r in traced])
                                  - _median([wall(r) for r in untraced]))
    layers["trace.spans"] = _median([r["result"]["span_count"]
                                     for r in traced])
    return dict(sorted(layers.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that a running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "clag", "__init__.py")):
        print(f"no clag sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": record[kind].get(m["name"], 0),
                           "unit": m["unit"]} for m in spec[kind]}
    env = ", ".join(f"{k}={v}" for k, v in record["env"].items())
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={record['repetitions']}"
          f"+{record['traced_repetitions']} traced; {env}")
    for name, value in record["named"].items():
        print(f"  {name:40s} {value:14.4f} {name.rsplit('_', 1)[1]}")
    print(f"  {'wall_clock_s (unscaled wall_s)':40s} "
          f"{record['wall_clock_s']:14.4f} s")
    print(f"  {'error_rate':40s} {record['error_rate']:14.4f} "
          f"({record['failed']}/{record['attempted']})")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.4f} {m['unit']}")
    for f in record["failures"][:10]:
        print(f"  FAILED rep {f['rep']} {f['op']}: {'; '.join(f['errors'])}")
    for problem in record["trace_violations"][:10]:
        print(f"  SPAN TREE: {problem}")
    correct = record["failed"] == 0 and not record["trace_violations"]
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
