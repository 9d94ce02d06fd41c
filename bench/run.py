#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of timescatter.

    python3 bench/run.py --workload sweep-grid --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --self-test

One process, one client, closed loop: each operation starts when the one
before it has finished and been checked.  With ``--trace 0`` the last
line of stdout is a JSON object with the end-to-end metrics
(``throughput``, ``peak_rss_mb``, ``setup_s``); with ``--trace 1`` it
holds the per-layer metrics of a traced run instead.  A fuller record of
each run goes to ``bench/results/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

if not (SRC / "timescatter" / "__init__.py").is_file():
    sys.stderr.write(f"bench: no timescatter sources under {SRC}\n")
    raise SystemExit(2)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import timescatter  # noqa: E402
from timescatter.errors import TimescatterError  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, CliFailure  # noqa: E402

SETUP_SAMPLES = 25  # fresh-process imports per run, spread over the run
SETUP_CODE = "import timescatter, timescatter.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
FAILURE_TYPES = (TimescatterError, CliFailure)
REF_EVERY = 0.25  # seconds of operation time per reference sample
REF_NOMINAL = 0.022  # reference_seconds() at this machine's usual speed


def fresh_setup():
    """Seconds from spawning a fresh interpreter until timescatter and its CLI are imported."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_CODE], stdout=subprocess.PIPE, env=env, cwd=ROOT
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
    if line != b"ready\n" or child.returncode != 0:
        raise RuntimeError(f"setup process failed (exit {child.returncode})")
    return elapsed


def reference_seconds():
    """Time of a fixed mix of small-array numpy, interpreter and JSON work.

    The machine's speed drifts by 10-20% over seconds to minutes; this mix
    drifts with it, so rates are reported relative to it (see README).
    """
    y = np.zeros(6, dtype=complex)
    stages = np.ones((7, 6), dtype=complex)
    weights = np.ones(3)
    block = 1j * np.eye(3)
    records = [{"a": i * 0.1, "b": [1.5, 2.5], "c": "x"} for i in range(1500)]
    start = time.perf_counter()
    for _ in range(650):
        y = y + 0.1 * (weights @ stages[:3]).sum()
        out = np.empty(6, dtype=complex)
        out[:3] = block @ y[3:]
        out[3:] = block @ y[:3]
        float(np.max(np.abs(out)))
    total = 0
    for i in range(60000):
        total += i * i % 7
    json.loads(json.dumps(records))
    return time.perf_counter() - start


class Run:
    """Counts, times and check results of one measured run."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.units = 0.0
        self.seconds = {False: 0.0, True: 0.0}  # op time, untraced / traced
        self.op_times = []
        self.problems = []
        self.errors = Counter()
        self.traced_ops = 0
        self.references = [reference_seconds()]
        self._op_clock = 0.0

    def _sample_reference(self):
        """One reference sample per REF_EVERY seconds of operation time."""
        while len(self.references) <= self._op_clock / REF_EVERY:
            self.references.append(reference_seconds())

    def execute(self, op, traced=False):
        op.prepare()
        if traced:
            self.tracer.install()
            self.tracer.op_id = self.attempted
        error = None
        start = time.perf_counter()
        try:
            result = op.run()
        except FAILURE_TYPES as exc:
            error = exc
        elapsed = time.perf_counter() - start
        if traced:
            self.tracer.uninstall()
            self.traced_ops += 1
        self.attempted += 1
        self.seconds[traced] += elapsed
        self.op_times.append(elapsed)
        self._op_clock += elapsed
        self._sample_reference()
        if error is not None:
            self.failed += 1
            self.errors[f"{op.label}: {type(error).__name__}"] += 1
            if not (op.known_fault and isinstance(error, op.known_fault)):
                self.problems.append(f"{op.label}: unexpected failure {type(error).__name__}: {error}")
            return
        self.units += op.units
        if traced and op.output is not None:
            self.tracer.count("cli_ops")
            self.tracer.count("output_bytes", Path(op.output).stat().st_size)
        self.problems.extend(f"{op.label}: {p}" for p in op.check(result)[:5])


def measure(workload, seconds, tracer):
    """Run whole rounds for about ``seconds`` of wall time, sampling set-up between operations.

    A round is not started when it would be expected to end more than half
    a round past the deadline, so a run lasts ``seconds`` give or take half
    a round.
    """
    run = Run(tracer)
    setups = []
    start = time.perf_counter()

    def take_due_setups():
        due = 1 + int((time.perf_counter() - start) / seconds * (SETUP_SAMPLES - 1))
        while len(setups) < min(due, SETUP_SAMPLES):
            setups.append(fresh_setup())

    index = 0
    round_seconds = 0.0
    while not index or time.perf_counter() - start + 0.5 * round_seconds < seconds:
        round_start = time.perf_counter()
        ops = workload.round(index)
        for traced in (False, True) if tracer else (False,):
            for op in ops:
                take_due_setups()
                run.execute(op, traced)
        round_seconds = time.perf_counter() - round_start
        index += 1
    while len(setups) < SETUP_SAMPLES:
        setups.append(fresh_setup())
    return run, setups, index


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="one checked operation per workload, then exit")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")

    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=BENCH) as tmp:
        workload = WORKLOADS[args.workload](args.seed, Path(tmp))
        tracer = tracing.Tracer() if args.trace else None
        run, setups, rounds = measure(workload, args.seconds, tracer)

    correct = not run.problems
    # Machine slowdown in this run: > 1 when the reference ran slower than nominal.
    slowdown = statistics.mean(run.references) / REF_NOMINAL
    raw = {"throughput": run.units / run.seconds[False], "setup_s": statistics.median(setups)}
    if tracer is None:
        metrics = {
            "throughput": {"value": raw["throughput"] * slowdown, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "setup_s": {"value": raw["setup_s"] / slowdown, "unit": "s"},
        }
    else:
        overhead = 100.0 * (run.seconds[True] / run.seconds[False] - 1.0)
        metrics = tracing.per_layer(tracer, run.traced_ops, overhead)
        tracer.write(RESULTS / f"{tag}.spans.jsonl")

    record = {
        "workload": args.workload,
        "unit_of_work": workload.unit,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": rounds,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": dict(run.errors),
        "problems": run.problems[:20],
        "op_seconds": {"total": run.seconds[False] + run.seconds[True], "quartiles": quartiles(run.op_times)},
        "setup_s": setups,
        "reference_s": {"samples": len(run.references), "mean": statistics.mean(run.references),
                        "quartiles": quartiles(run.references)},
        "slowdown": slowdown,
        "raw": raw,
        "metrics": metrics,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "timescatter": timescatter.__version__,
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for problem in run.problems[:10]:
        sys.stderr.write(f"bench: check failed: {problem}\n")
    for name, metric in metrics.items():
        sys.stderr.write(f"bench: {args.workload} {name} = {metric['value']:.6g} {metric['unit']}\n")
    sys.stderr.write(f"bench: {args.workload} attempted {run.attempted}, failed {run.failed} {dict(run.errors)}\n")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


def self_test():
    """Run each workload's first operation, traced and checked; exit 1 if any fails."""
    ok = True
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=BENCH) as tmp:
        for name, cls in WORKLOADS.items():
            run = Run(tracing.Tracer())
            op = cls(0, Path(tmp)).round(0)[0]
            start = time.perf_counter()
            run.execute(op, traced=True)
            tracing.per_layer(run.tracer, run.traced_ops, 0.0)
            passed = run.failed == 0 and not run.problems
            ok = ok and passed
            status = "ok" if passed else f"FAILED {run.problems or dict(run.errors)}"
            print(f"self-test {name} ({op.label}): {status} in {time.perf_counter() - start:.2f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
