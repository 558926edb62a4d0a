"""One workload in one fresh, single-threaded process: a closed loop with
one caller that runs each op under a per-call time limit, times it, and
then (outside the timed region) digests and checks its output.

Modes:
  probe    import torusfix and run the workload's first op (set-up time)
  measure  run whole blocks until --seconds of op time and the workload's
           minimum block count are reached
  fixed    run the workload's trace blocks, untraced
  traced   run the same blocks with the per-module tracer installed

The last line of standard output is one JSON object for run.py."""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
DIGESTS = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 0
# A reference sample is taken before the first op and whenever this much
# op time has passed since the last one.
REFERENCE_EVERY_S = 0.5


class OpTimeout(BaseException):
    """Raised by SIGALRM when an op exceeds its time limit; a BaseException
    so the library's and the CLI's handlers cannot swallow it."""


class Deadline:
    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            raise OpTimeout()

    def call(self, op):
        """(status, seconds, result or error text)."""
        t0 = time.perf_counter()
        try:
            try:
                self.armed = True
                signal.setitimer(signal.ITIMER_REAL, op.limit)
                t0 = time.perf_counter()
                result = op.run()
                secs = time.perf_counter() - t0
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                self.armed = False
        except OpTimeout:
            return "timeout", time.perf_counter() - t0, None
        except Exception as exc:  # an op must not raise: record and go on
            secs = time.perf_counter() - t0
            return "error", secs, f"{type(exc).__name__}: {str(exc)[:200]}"
        return "ok", secs, result


def reference_ms() -> float:
    """Milliseconds for a fixed pure-Python load of Fraction and big-integer
    arithmetic that never touches torusfix, with the collector off.  It
    tracks the speed of the machine while the workload runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        x, acc, big, mod = Fraction(1, 3), 0, 3 ** 2000, 10 ** 300
        for k in range(1, 600):
            x = (x * Fraction(k, k + 1) + Fraction(1, k)) / 2
            acc ^= (big * (k + 7)) % (mod + k)
        return 1000 * (time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()


def import_torusfix():
    """torusfix must come from this checkout's src/, not from anywhere else."""
    try:
        import torusfix
    except ImportError as exc:
        raise SystemExit(f"cannot import torusfix from {SRC}: {exc}")

    if os.path.dirname(os.path.abspath(torusfix.__file__)) != os.path.join(SRC, "torusfix"):
        raise SystemExit(f"torusfix imported from {torusfix.__file__}, not {SRC}")


class Runner:
    """Runs blocks of one workload.  Each block is timed op by op, then
    digested and checked, and its ops are dropped, so memory held by the
    benchmark stays the same however many blocks a run makes."""

    def __init__(self, workload, seed, tracer=None):
        import oracles  # noqa: F401  (loaded before timing: its memory is a constant)
        from corpus import Corpus

        self.workload, self.seed, self.tracer = workload, seed, tracer
        self.corpus = Corpus()
        self.deadline = Deadline()
        self.stored = {}
        if seed == DEFAULT_SEED and os.path.exists(DIGESTS):
            with open(DIGESTS) as fh:
                self.stored = json.load(fh)["workloads"].get(workload, {})
        self.records = []  # [block, index, label, seconds, status, detail, listed]
        self.reference = [reference_ms()]
        self.since_reference = 0.0
        self.digests = {}  # block -> digest per op, for record_digests.py
        self.verdicts, self.coeff_bits, self.fix_bits = {}, 0, 0

    def run_block(self, index, ops):
        from corpus import KNOWN_FAILURES
        from ops import WRONG, digest

        stored = self.stored.get(str(index), [])
        produced = self.digests.setdefault(str(index), [])
        done = []
        for i, op in enumerate(ops):
            if self.since_reference >= REFERENCE_EVERY_S:
                self.reference.append(reference_ms())
                self.since_reference = 0.0
            status, secs, result = self.deadline.call(op)
            self.since_reference += secs
            if self.tracer is not None:
                self.tracer.reset_stack()
            rec = [index, i, op.label, secs, status, result if status == "error" else None, False]
            self.records.append(rec)
            if status != "ok":
                produced.append(None)
                continue
            canon, payload = op.finish(result)
            del result
            mark = None if canon is None else digest(canon)
            produced.append(mark)
            if mark is not None and i < len(stored) and stored[i] is not None and stored[i] != mark:
                rec[4], rec[5] = WRONG, "output differs from the stored seed-0 digest"
            done.append((op, payload, rec))
        for op, payload, rec in done:
            if rec[4] == "ok":
                problem = op.check(payload)
                if problem is not None:
                    rec[4], rec[5] = problem
            self.fix_bits = max(self.fix_bits, op.fix_bits(payload))
            if op.roots is not None:
                verdict = op.oracle_report()["verdict"]
                self.verdicts[verdict] = self.verdicts.get(verdict, 0) + 1
                self.coeff_bits = max(self.coeff_bits, max(abs(c).bit_length() for c in op.int_poly()))
        for rec in self.records[-len(ops):]:
            rec[6] = rec[4] != "ok" and KNOWN_FAILURES.get(rec[2]) == rec[4]

    def measure(self, seconds, min_blocks):
        """Whole blocks until both the op time and the block count suffice."""
        spent, index = 0.0, 0
        while index < min_blocks or spent < seconds:
            ops = self.corpus.block(self.workload, self.seed, index)
            self.run_block(index, ops)
            spent += sum(r[3] for r in self.records[-len(ops):])
            index += 1
        return index

    def composition(self):
        return {"verdicts": self.verdicts, "max_coeff_bits": self.coeff_bits,
                "max_fix_bits": self.fix_bits}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("probe", "measure", "fixed", "traced"), required=True)
    args = ap.parse_args(argv)
    import_torusfix()

    if args.mode == "probe":
        from corpus import first_op

        status = Deadline().call(first_op(args.workload))[0]
        return 0 if status == "ok" else 1

    from corpus import MIN_BLOCKS, TRACE_BLOCKS

    tracer = None
    if args.mode == "traced":
        from spans import Tracer

        tracer = Tracer()
    runner = Runner(args.workload, args.seed, tracer)
    if args.mode == "measure":
        blocks = runner.measure(args.seconds, MIN_BLOCKS[args.workload])
    else:
        blocks = TRACE_BLOCKS[args.workload]
        prepared = [runner.corpus.block(args.workload, args.seed, k) for k in range(blocks)]
        if tracer is not None:
            tracer.install()
        for k, ops in enumerate(prepared):
            runner.run_block(k, ops)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    block_ops = sum(1 for r in runner.records if r[0] == 0)
    out = {
        "blocks": blocks,
        "min_blocks": MIN_BLOCKS[args.workload],
        "block_ops": block_ops,
        "records": runner.records,
        "rss_mb": rss_mb,
        "reference_ms": runner.reference + [reference_ms()],
        "composition": runner.composition(),
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["absent"] = tracer.absent
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
