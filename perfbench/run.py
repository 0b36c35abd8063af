"""Benchmark of trotterion's three costs: certify, ramp and lattice.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. Each run measures one workload in fresh
processes. It starts SETUP_SAMPLES worker processes that only set up
(import, inputs, warm-ups) and then the measured worker, times each from
its start to its READY line, and reports the median as setup_s. The
measured worker runs whole passes for --seconds and checks its outputs.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1. The line
before it records the machine facts and the seed. --smoke runs one
operation of each kind, once. The exit code is 0 when a result was
printed, 1 when a worker failed and 2 when the checkout has no package.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("certify", "ramp", "lattice")
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170.0


class WorkerFailed(Exception):
    pass


def start_worker(args, extra: list[str], deadline: float) -> tuple[float, subprocess.Popen]:
    """Start a worker; return its set-up time (start to READY) and the process."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    begin = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - begin
    if line.strip() != "READY":
        finish(proc, deadline)
        raise WorkerFailed(f"worker did not get ready (exit {proc.returncode})")
    return ready, proc


def finish(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for a worker to end and return the rest of its standard output."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed("worker timed out")
    return out


def end_to_end(report: dict, setup: list[float]) -> dict:
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "pass_s": {"value": statistics.fmean(report["pass_s"]), "unit": "s"},
        "op_s.p50": {"value": statistics.median(report["op_s"]), "unit": "s"},
        "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(report: dict) -> dict:
    import tracer

    units = tracer.metric_units()
    return {name: {"value": report["layers"][name], "unit": unit} for name, unit in units.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="one operation of each kind, one pass, one set-up sample")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "trotterion" / "__init__.py").is_file():
        print(f"error: no trotterion package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + WORKER_TIMEOUT_S
    smoke = ["--smoke"] if args.smoke else []
    setup: list[float] = []
    try:
        if not args.trace and not args.smoke:
            for _ in range(SETUP_SAMPLES - 1):
                ready, proc = start_worker(args, ["--setup-only"], deadline)
                finish(proc, deadline)
                if proc.returncode != 0:
                    raise WorkerFailed(f"set-up worker exited {proc.returncode}")
                setup.append(ready)
        ready, proc = start_worker(args, smoke, deadline)
        setup.append(ready)
        out = finish(proc, deadline)
        if proc.returncode != 0 or not out.strip():
            raise WorkerFailed(f"measured worker exited {proc.returncode}")
        report = json.loads(out.strip().splitlines()[-1])
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for problem in report["problems"] + report["errors"]:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    metrics = per_layer(report) if args.trace else end_to_end(report, setup)
    print(json.dumps({"machine": report["machine"], "inputs": report["inputs"],
                      "pass_s": report["pass_s"], "untraced_pass_s": report.get("plain_pass_s")}))
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
