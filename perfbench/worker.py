"""One measured process of the benchmark; run.py starts it.

The worker sets up (imports the package from the checkout's `src/`,
builds the workload's inputs from the seed, runs one untimed warm-up of
each operation kind) and prints `READY`. With --setup-only it then exits.
Otherwise it runs whole passes of the workload until --seconds have gone
by, checks the outputs, and prints one JSON line with the raw timings.
With --trace 1 it runs one untraced pass, installs the tracer and runs
traced passes, and reports the per-layer figures instead.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = HERE / ".work"
THREAD_VARS = ("TROTTERION_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")


def machine_facts(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }


class Runner:
    """Runs operations, timing each and keeping the CLI's stderr quiet."""

    def __init__(self, cli):
        self.cli = cli
        self.errors: list[str] = []

    def run(self, op) -> tuple[bool, float, object]:
        """(succeeded, seconds, output) of one operation."""
        sink = io.StringIO()
        with redirect_stderr(sink):
            start = time.perf_counter()
            try:
                if op.argv is not None:
                    ok, value = self.cli.main(op.argv) == 0, None
                else:
                    ok, value = True, op.call()
            except Exception:
                ok, value = False, None
                sink.write(traceback.format_exc())
            seconds = time.perf_counter() - start
        if not ok:
            self.errors.append(f"{op.name}: {sink.getvalue().strip()[-300:]}")
        elif op.argv is not None:
            value = op.out.read_text(encoding="utf-8")
        return ok, seconds, value

    def run_argv(self, argv: list[str]) -> None:
        """Run one more command for a check; its failure fails the check."""
        import checks

        with redirect_stderr(io.StringIO()) as sink:
            rc = self.cli.main(argv)
        if rc != 0:
            raise checks.CheckFailed(f"{' '.join(argv[:2])} exited {rc}: {sink.getvalue().strip()}")


def same_output(a, b) -> bool:
    if isinstance(a, str) or a is None:
        return a == b
    import numpy

    return all(numpy.array_equal(getattr(a, k), getattr(b, k)) for k in ("order1", "order2", "order3"))


def run_passes(workload, runner: Runner, start: float, seconds: float, single: bool) -> dict:
    """Run whole passes until the next one would end after start + seconds.

    At least one pass runs; with `single` exactly one.
    """
    pass_s, op_s = [], []
    attempted = failed = 0
    first: dict | None = None
    nondeterministic: list[str] = []
    while True:
        outputs = {}
        begin = time.perf_counter()
        for op in workload.ops:
            ok, took, value = runner.run(op)
            attempted += 1
            if ok:
                op_s.append(took)
                outputs[op.name] = value
            else:
                failed += 1
        pass_s.append(time.perf_counter() - begin)
        if first is None:
            first = outputs
        else:
            nondeterministic += [name for name, value in outputs.items()
                                 if name in first and not same_output(first[name], value)]
        if single or time.perf_counter() + statistics.median(pass_s) > start + seconds:
            break
    return {"pass_s": pass_s, "op_s": op_s, "attempted": attempted, "failed": failed,
            "outputs": first, "nondeterministic": sorted(set(nondeterministic))}


def check_outputs(workload, runner: Runner, outputs: dict) -> list[str]:
    import checks

    names = {op.name for op in workload.ops}
    if set(outputs) != names:
        return []  # failed operations have no output; `failed` counts them
    try:
        workload.check(outputs, runner.run_argv)
    except checks.CheckFailed as exc:
        return [str(exc)]
    return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import trotterion
    import trotterion.cli

    import workloads

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        runner = Runner(trotterion.cli)
        workload = workloads.WORKLOADS[args.workload](args.seed, work, args.smoke, trotterion)
        for op in workload.warmups:
            ok, _, _ = runner.run(op)
            if not ok:
                print(f"warm-up failed: {runner.errors[-1]}", file=sys.stderr)
                return 1
        print("READY", flush=True)
        if args.setup_only:
            return 0

        report = {"machine": machine_facts(args.workload, args.seed), "inputs": workload.inputs}
        start = time.perf_counter()
        if args.trace:
            import tracer

            plain = run_passes(workload, runner, start, 0.0, True)
            layer_tracer = tracer.Tracer()
            layer_tracer.install()
            try:
                traced = run_passes(workload, runner, start, args.seconds, args.smoke)
            finally:
                layer_tracer.uninstall()
            passes = len(traced["pass_s"])
            layers = layer_tracer.metrics(passes)
            layers["trace.overhead_s"] = (sum(traced["pass_s"]) / passes) - plain["pass_s"][0]
            report["layers"] = layers
            report["plain_pass_s"] = plain["pass_s"][0]
            result = traced
            for key in ("attempted", "failed"):
                result[key] += plain[key]
            result["nondeterministic"] += [
                name for name, value in traced["outputs"].items()
                if name in plain["outputs"] and not same_output(plain["outputs"][name], value)]
            outputs = plain["outputs"]
        else:
            result = run_passes(workload, runner, start, args.seconds, args.smoke)
            outputs = result["outputs"]
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = check_outputs(workload, runner, outputs)
        problems += [f"{name}: output differs between passes" for name in result["nondeterministic"]]
        report.update({
            "correct": not problems,
            "problems": problems,
            "errors": runner.errors[:10],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "pass_s": result["pass_s"],
            "op_s": result["op_s"],
        })
        print(json.dumps(report), flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
