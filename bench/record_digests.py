"""Rewrite bench/digests.json: the per-op digests of the canonical output
for seed 0, over the first blocks of every workload.

    python3 bench/record_digests.py

Run it only at a commit whose output is known to be right; the benchmark
then fails any op whose output differs.  It refuses to record while any
op fails other than as a listed known defect."""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import worker  # noqa: E402

BLOCKS = {"classify-mix": 12, "sequence-long": 8, "cli-wide": 3}


def main():
    worker.import_torusfix()
    out = {"seed": worker.DEFAULT_SEED, "workloads": {}}
    for workload, blocks in BLOCKS.items():
        runner = worker.Runner(workload, worker.DEFAULT_SEED)
        runner.stored = {}
        for k in range(blocks):
            runner.run_block(k, runner.corpus.block(workload, worker.DEFAULT_SEED, k))
        bad = [r for r in runner.records if r[4] != "ok" and not r[6]]
        if bad:
            raise SystemExit(f"{workload}: refusing to record, failures {bad}")
        out["workloads"][workload] = runner.digests
        print(f"{workload}: {len(runner.records)} ops in {blocks} blocks")
    with open(worker.DIGESTS, "w") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
