"""torusfix benchmark: one workload per call, in fresh processes.

    python3 bench/run.py --workload classify-mix --seed 0 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 runs the workload's
trace blocks twice, untraced and traced, and prints the per-module
metrics and the tracing overhead.  The last line of standard output is
one JSON object; the exit code is 0 only if every op was right or failed
as one of the listed known defects.  See bench/NOTES.md."""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("classify-mix", "sequence-long", "cli-wide")
PROBES = 7
# Op times are reported at the speed where worker.reference_ms() takes this
# long: each run scales them by REFERENCE_MS / (median reference sample).
REFERENCE_MS = 10.0
DEADLINE_S = 170.0
TAIL_LADDER = (99.9, 99.5, 99, 95, 90, 75, 50)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # Every cold start compiles torusfix from source, and nothing is written.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    # Keep the interpreter's default 4300-digit int/str limit in force.
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    return env


def worker(args, mode, started, env):
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode]
    left = DEADLINE_S - (time.monotonic() - started)
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=left)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def setup_seconds(args, env):
    """(scaled, unscaled) median wall time of fresh interpreters that import
    torusfix and run the workload's first op.  The first start warms the
    file cache and is not counted; reference samples taken in this process
    between the starts give the scale."""
    from worker import reference_ms

    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--mode", "probe"]
    times, reference = [], [reference_ms()]
    for k in range(PROBES + 1):
        # No timeout here: subprocess then polls the child every 50 ms,
        # which would quantize the measurement.  The probe's first op runs
        # under its own time limit.
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed")
        if k:
            times.append(time.perf_counter() - t0)
        reference.append(reference_ms())
    raw = statistics.median(times)
    return raw * REFERENCE_MS / statistics.median(reference), raw


def percentile(sorted_values, pct):
    pos = (len(sorted_values) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(min_samples):
    """Highest ladder percentile with at least ten samples beyond it in the
    smallest run the workload can make, so it does not move with speed."""
    return next((p for p in TAIL_LADDER if min_samples * (100 - p) / 100 >= 10), 50)


def classify_failures(records):
    """(counts by reason, known failures seen, unlisted failures)."""
    reasons = {"wrong": 0, "error": 0, "timeout": 0}
    known, unlisted = {}, []
    for block, index, label, secs, status, detail, listed in records:
        if status == "ok":
            continue
        reasons[status] += 1
        if listed:
            known[label] = known.get(label, 0) + 1
        else:
            unlisted.append(f"{label} (block {block}, op {index}): {status} {detail or ''}")
    return reasons, known, unlisted


def report(result, metrics, lines, unlisted_elsewhere=()):
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    records = result["records"]
    failed = sum(1 for r in records if r[4] != "ok")
    reasons, known, unlisted = classify_failures(records)
    unlisted += list(unlisted_elsewhere)
    n = len(records)
    print(f"failed_frac {failed / n:.6g} (wrong {reasons['wrong'] / n:.6g}, "
          f"error {reasons['error'] / n:.6g}, timeout {reasons['timeout'] / n:.6g})")
    for label, count in sorted(known.items()):
        print(f"known failure: {label} x{count}")
    for item in unlisted:
        print(f"UNLISTED FAILURE: {item}")
    print(json.dumps({
        "correct": not unlisted,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not unlisted else 1


def scaled_times(result):
    """(factor, op times at reference speed).  A timed-out op took its
    wall-clock limit whatever the machine's speed, so it is not scaled."""
    factor = REFERENCE_MS / statistics.median(result["reference_ms"])
    return factor, [r[3] if r[4] == "timeout" else r[3] * factor for r in result["records"]]


def end_to_end(args, started, env):
    setup, setup_raw = setup_seconds(args, env)
    result = worker(args, "measure", started, env)
    records = result["records"]
    factor, times = scaled_times(result)
    times.sort()
    raw = sorted(r[3] for r in records)
    n = len(times)
    tail = tail_percentile(result["block_ops"] * result["min_blocks"])
    ok = sum(1 for r in records if r[4] == "ok")
    comp = result["composition"]
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": (n / sum(times), "1/s"),
        "op_ms_p50": (1000 * percentile(times, 50), "ms"),
        "op_ms_tail": (1000 * percentile(times, tail), "ms"),
        "ok_frac": (ok / n, "frac"),
        "peak_rss_mb": (result["rss_mb"], "MB"),
    }
    lines = [
        f"workload {args.workload} seed {args.seed}: {n} ops in {result['blocks']} blocks, "
        f"{sum(raw):.2f} s of op time",
        "composition: " + ", ".join(f"{k} {v}" for k, v in sorted(comp["verdicts"].items()))
        + f"; max coefficient bits {comp['max_coeff_bits']}; "
        f"max fix-value bits {comp['max_fix_bits']}",
        f"op_ms_tail is p{tail:g} over {n} samples; setup_s is the median of {PROBES} cold starts",
        f"op times scaled by {factor:.4f} = {REFERENCE_MS} ms / median of "
        f"{len(result['reference_ms'])} reference samples; unscaled: "
        f"ops_per_s {n / sum(raw):.6g}, op_ms_p50 {1000 * percentile(raw, 50):.6g}, "
        f"op_ms_tail {1000 * percentile(raw, tail):.6g}, setup_s {setup_raw:.6g}",
    ]
    return report(result, metrics, lines)


def per_layer(args, started, env):
    plain = worker(args, "fixed", started, env)
    traced = worker(args, "traced", started, env)
    plain_s = sum(scaled_times(plain)[1])
    traced_s = sum(scaled_times(traced)[1])
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    metrics["trace.overhead_ms"] = (1000 * (traced_s - plain_s), "ms")
    metrics["trace.overhead_pct"] = (100 * (traced_s - plain_s) / plain_s, "%")
    lines = [
        f"workload {args.workload} seed {args.seed}: traced run of {traced['blocks']} blocks, "
        f"{len(traced['records'])} ops, {traced_s:.2f} s traced vs {plain_s:.2f} s untraced",
    ] + [f"absent at this commit: {name}" for name in traced["absent"]]
    _, _, unlisted = classify_failures(plain["records"])
    return report(traced, metrics, lines, [f"{item} (untraced run)" for item in unlisted])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    started = time.monotonic()
    env = child_env()
    try:
        if args.trace:
            return per_layer(args, started, env)
        return end_to_end(args, started, env)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
