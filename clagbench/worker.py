"""One benchmark repetition in a fresh interpreter.

    python3 worker.py SPEC_JSON SPAWN_TIME

SPAWN_TIME is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is shared by all processes on Linux), so the
set-up time runs from spawn until ``import clag`` returns.  The worker
then runs the operations in order in this process, each timed on its
own, with clag's caches starting cold, and writes a JSON result with
the start and end of each (the parent scales them to the reference
speed of speed.py).  With tracing on, spans are recorded around clag's
public functions and written out after the last operation.
"""

import contextlib
import gzip
import io
import json
import os
import resource
import sys
import time
import traceback


def _env(clag_kernels) -> dict:
    import numpy
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "using_numba": bool(clag_kernels.USING_NUMBA),
        "CLAG_NO_NUMBA": os.environ.get("CLAG_NO_NUMBA"),
        "CLAG_SIZE_GUARD": os.environ.get("CLAG_SIZE_GUARD"),
    }


def _run_op(op, cli, classify) -> dict:
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    start = time.monotonic()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op["kind"] == "cli":
                rc = cli.main(op["argv"])
            else:
                doc = classify.cross_check_projection(*op["args"])
                rc = 0
    except Exception:  # an operation failing is a result, not a crash
        error = traceback.format_exc(limit=4)
    end = time.monotonic()
    if op["kind"] == "project" and error is None:
        with open(f"{op['name']}.json", "w") as fh:
            fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return {"name": op["name"], "start": start, "end": end, "rc": rc,
            "error": error, "stderr": err.getvalue()[-2000:]}


def main(spec_path: str, spawn_time: float) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    import clag  # from spec["src"], which the parent put on PYTHONPATH
    imported = time.monotonic()
    if not os.path.abspath(clag.__file__).startswith(spec["src"] + os.sep):
        print(f"imported clag from {clag.__file__}, not from {spec['src']}",
              file=sys.stderr)
        return 2
    result = {"spawned": spawn_time, "imported": imported}
    if not spec.get("setup_only"):
        from clag import _kernels, classify, cli
        result["env"] = _env(_kernels)
        os.chdir(spec["workdir"])
        tracer = None
        if spec["trace"]:
            from tracer import Tracer  # beside this script, on sys.path
            tracer = Tracer(run_id=spec["run_id"])
            tracer.install()
        try:
            result["ops"] = [_run_op(op, cli, classify) for op in spec["ops"]]
        finally:
            if tracer is not None:
                tracer.uninstall()
        result["peak_rss_mib"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            from tracer import aggregate, check_tree, self_times
            spans = tracer.spans
            result["layers"] = aggregate(spans, tracer.counts)
            result["tree_violations"] = check_tree(spans, self_times(spans))[:20]
            result["span_count"] = len(spans)
            with gzip.open(spec["spans"], "wt") as fh:
                json.dump({"fields": ["name", "start", "end", "parent",
                                      "run_id"], "spans": spans}, fh)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
