"""Record the artifact digests the correctness gate compares against.

    python3 clagbench/record_digests.py

Runs one repetition of every workload at the default seed and writes
``digests.json``.  It refuses when any check other than the digest
comparison fails, so only artifacts that pass the gate are recorded.
Re-record only for a change that is meant to alter an artifact.
"""

import json
import os
import sys

import run


def main() -> int:
    digests = {}
    for workload in run.workloads.WORKLOADS:
        record = run.run_workload(workload, run.DEFAULT_SEED, 0, False)
        for failure in record["failures"]:
            other = [e for e in failure["errors"]
                     if "digest" not in e]
            if other:
                print(f"{workload}: {failure['op']}: {other}", file=sys.stderr)
                return 1
        digests.update(record["digests"])
    with open(os.path.join(run.HERE, "digests.json"), "w") as fh:
        json.dump(dict(sorted(digests.items())), fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
