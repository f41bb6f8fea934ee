#!/usr/bin/env python3
"""Benchmark for robustsysid.

    python3 benchmark/run.py --workload {insulin,phase,cli,certify} \
        --seed N --seconds S --trace {0,1}

Runs from the root of a checkout and uses the package under its src/. One
process, one BLAS thread, the program's default of one worker thread. Set-up
(a fresh interpreter importing robustsysid, plus building the workload's
inputs) is repeated SETUP_REPEATS times and its median reported. One warm-up
op is run and discarded; then whole rounds of the workload's ops run until
the measured time is closest to --seconds. Every output is checked apart from
the program; an op that hits the known estimator fault counts as failed, any
other wrong output fails the run (exit code 1).

Times are CPU seconds of the processes doing the work (this process and
the children it waited for), scaled to a nominal machine speed. The program
is single-threaded and never waits, so on an idle dedicated machine its CPU
time is its wall time; on a shared VM the wall time also counts the time
the hypervisor gives the CPU to others. A fixed numpy kernel that uses no
robustsysid code (``reference_kernel``) runs after each set-up and after
each op, about once per second of work, and every CPU time is scaled by
REF_NOMINAL_S over the median kernel time of the run, which cancels most of
the machine's own speed swings. The process and its children are held on
one CPU, so the kernel runs where the work does. The raw wall-clock figures
go to standard error.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a separate traced run. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3
REF_NOMINAL_S = 0.13    # reference_kernel's usual time on the README's machine
WORKLOAD_NAMES = ("insulin", "phase", "cli", "certify")

# One BLAS thread for this process and every child; must precede numpy's import.
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def reference_kernel() -> float:
    """CPU seconds taken by a fixed loop of small numpy operations (the same
    mix as the program's fits) on fixed data. It shares no code with
    robustsysid, so a change to the program cannot move it."""
    import numpy as np

    rng = np.random.default_rng(12345)
    Z = rng.standard_normal((200, 3))
    Y = rng.standard_normal((200, 3))
    theta = np.zeros((3, 3))
    t0 = time.process_time()
    for k in range(6000):
        R = Y - Z @ theta
        norms = np.sqrt(np.einsum("ij,ij->i", R, R))
        G = R / np.maximum(norms, 1e-300)[:, None]
        theta += 1e-3 / math.sqrt(k + 1) * (Z.T @ G)
    return time.process_time() - t0


def cpu_seconds() -> float:
    """CPU time of this process and of the children it has waited for."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


class Clock:
    """CPU and wall time of one timed section."""

    def __enter__(self):
        self.cpu, self.wall = cpu_seconds(), time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.cpu = cpu_seconds() - self.cpu
        self.wall = time.perf_counter() - self.wall


class Scaler:
    """Samples the machine's speed with reference_kernel after each timed
    section, about once per second of it (one to four samples); ``factor``
    turns CPU times into times at REF_NOMINAL_S kernel speed."""

    def __init__(self):
        self.kernel = []

    def sample(self, clock: Clock) -> Clock:
        for _ in range(min(4, max(1, round(clock.wall)))):
            self.kernel.append(reference_kernel())
        return clock

    def factor(self) -> float:
        return REF_NOMINAL_S / statistics.median(self.kernel)


def time_setup(wl) -> Clock:
    with Clock() as clock:
        subprocess.run([sys.executable, "-c", "import robustsysid"],
                       check=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
        wl.build()
    return clock


def run_one(wl, op, tracer=None):
    """Time one op and check it: (Clock, output, failed)."""
    wl.before(op)
    with Clock() as clock:
        try:
            out = wl.run(op, tracer)
        except Exception:  # the program raised: a failed op, not a wrong result
            traceback.print_exc(file=sys.stderr)
            out = None
    if out is None:
        return clock, None, True
    return clock, out, wl.check(op, out)


def measure(wl, order, seconds: float, trace: bool, scaler: Scaler) -> dict:
    import tracing

    run_one(wl, order[0])  # warm-up, discarded
    untraced = scaler.sample(run_one(wl, order[0])[0]) if trace else None
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
    clocks, failed = [], 0
    try:
        while True:
            round_start = sum(c.wall for c in clocks)
            outs = {}
            for op in order:
                if tracer is not None:
                    tracer.op = len(clocks)
                clock, out, hit = run_one(wl, op, tracer)
                clocks.append(scaler.sample(clock))
                failed += hit
                outs[op] = out
            if all(out is not None for out in outs.values()):
                wl.check_round(outs)
            busy = sum(c.wall for c in clocks)
            if busy + (busy - round_start) / 2 >= seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"clocks": clocks, "failed": failed, "tracer": tracer,
            "untraced": untraced}


def end_to_end(setup_s: float, times: list, children: bool) -> dict:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0  # Linux: KiB
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": len(times) / sum(times), "unit": "op/s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(times), "unit": "ms"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "robustsysid" / "__init__.py").is_file():
        print(f"error: no robustsysid sources under {SRC}", file=sys.stderr)
        return 2
    # One CPU for this process and its children, so that the kernel samples
    # the speed of the CPU the work runs on (vCPUs of a shared host differ).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import numpy as np
    import robustsysid

    pkg = Path(robustsysid.__file__).resolve().parent
    if pkg != (SRC / "robustsysid").resolve():
        print(f"error: imported robustsysid from {robustsysid.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads
    from checks import WrongResult

    rng = np.random.default_rng(args.seed)
    work_dir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](ROOT, work_dir, rng)
    correct, metrics, attempted, failed = True, {}, 0, 0
    try:
        scaler = Scaler()
        setups = [scaler.sample(time_setup(wl)) for _ in range(SETUP_REPEATS)]
        wl.prepare_checks()
        ops = wl.ops()
        order = [ops[i] for i in rng.permutation(len(ops))]
        res = measure(wl, order, args.seconds, bool(args.trace), scaler)
        clocks = res["clocks"]
        attempted, failed = len(clocks), res["failed"]
        factor = scaler.factor()
        setup_s = factor * statistics.median(c.cpu for c in setups)
        times = [factor * c.cpu for c in clocks]
        print(f"wall: setup_s {statistics.median(c.wall for c in setups):.4f}, "
              f"op_p50_ms {1e3 * statistics.median(c.wall for c in clocks):.1f}"
              f" over {attempted} ops, {sum(c.wall for c in clocks):.2f} s; "
              f"speed factor {factor:.4f} from {len(scaler.kernel)} kernel "
              "samples", file=sys.stderr)
        if args.trace:
            overhead = 100.0 * (clocks[0].cpu / res["untraced"].cpu - 1.0)
            metrics = tracing.layer_metrics(res["tracer"].totals(), attempted,
                                            overhead)
            OUT.mkdir(parents=True, exist_ok=True)
            spans = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            spans.write_text(json.dumps(res["tracer"].export()))
            print(f"spans: {spans}", file=sys.stderr)
        else:
            metrics = end_to_end(setup_s, times,
                                 children=args.workload == "cli")
    except WrongResult as exc:
        correct = False
        print(f"WRONG RESULT: {exc}", file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
