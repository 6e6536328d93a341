"""Record the per-op output digests of every workload at the default seed.

    python3 perfbench/record_digests.py

Runs the first ``digest_ops`` ops of each workload (whole rounds, through
the same code as a benchmark run) and writes ``perfbench/digests.json``.
Benchmark runs at the default seed then count an op whose output digest
differs from the record as failed.  Re-record only when a change to the
library is meant to change its outputs, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys

from harness import DEFAULT_SEED, DIGEST_FILE, SRC, fold, run_pass


def main():
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    record = {"seed": DEFAULT_SEED, "workloads": {}}
    for name, w in WORKLOADS.items():
        res = run_pass(w, w.setup(DEFAULT_SEED), DEFAULT_SEED, seconds=0,
                       min_ops=w.digest_ops)
        if res.failures:
            raise SystemExit(f"{name}: ops failed, nothing recorded: {res.failures[:3]}")
        ops = res.digests[:w.digest_ops]
        record["workloads"][name] = {"ops": ops, "digest": fold(ops)}
        print(f"{name}: {fold(ops)}")
    with open(DIGEST_FILE, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(DIGEST_FILE)}")


if __name__ == "__main__":
    main()
