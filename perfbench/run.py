"""wrdpm benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload fit-1500 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from its ``src/``.
The op list is a fixed function of --workload, --seed and --seconds: each
workload runs ``round(seconds / nominal op cost)`` ops (at least two) on
inputs drawn from the seed. Every op's outputs are checked.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the same
op list untraced and then traced (span wrappers installed around every
public wrdpm function, see tracing.py) and prints the per-layer metrics,
with ``trace.overhead_s`` the traced minus the untraced wall time.

The line before the last is a JSON report (environment, per-op times and
digests, work counts, quality); the last line is the result object.
``--smoke`` shrinks every input to n=30 for the benchmark's own tests.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS reads these when it loads, so they are set before numpy is imported.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback

import numpy as np
import scipy

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, data_digest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 3  # before and again after the ops, so one slow spell does not set the median
SETUP_CODE = f"import sys; sys.path.insert(0, {SRC!r}); import wrdpm, wrdpm.cli"


def metric_units():
    """Unit of every metric, as BENCHMARK.json declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def import_library():
    """Import wrdpm from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "wrdpm", "__init__.py")):
        sys.exit(f"perfbench: no wrdpm sources under {SRC}")
    sys.path.insert(0, SRC)
    import wrdpm.cli

    if not os.path.abspath(wrdpm.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: wrdpm imported from {wrdpm.cli.__file__}, not {SRC}")
    return wrdpm.cli


def setup_probes():
    """Times for fresh interpreters to import wrdpm and wrdpm.cli."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def run_ops(cli, workload, inputs, seeds, out_root):
    """Run the op list; return per-op records and the summed op time."""
    records = []
    for i, (inp, seed) in enumerate(zip(inputs, seeds)):
        out = os.path.join(out_root, f"op{i}")
        error = None
        t0 = time.perf_counter()
        try:
            for argv in workload.commands(inp, out, seed):
                code = cli.main(argv)
                if code != 0:
                    error = f"`wrdpm {argv[0]}` exited {code}"
                    break
        except Exception:
            error = traceback.format_exc()
        seconds = time.perf_counter() - t0
        quality, digest = None, None
        if error is None:
            try:
                quality = workload.check(inp, out)
                digest = data_digest(out)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            print(f"op {i} failed: {error}", file=sys.stderr)
        records.append({"seconds": seconds, "error": error, "quality": quality,
                        "digest": digest})
        shutil.rmtree(out, ignore_errors=True)
    return records, sum(r["seconds"] for r in records)


def op_tail(times):
    """Highest percentile with at least 10 ops beyond it; None below 20 ops."""
    n = len(times)
    if n < 20:
        return None
    rank = n - 10  # ops at or below the reported value
    return {"percentile": 100.0 * rank / n, "count": n,
            "value": sorted(times)[rank - 1]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload; choose from {', '.join(WORKLOADS)}")
    cli = import_library()
    workload = WORKLOADS[args.workload](args.smoke)
    env = environment()
    setup = [] if args.trace else setup_probes()

    work = os.path.join(WORK, f"{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        count = workload.op_count(args.seconds)
        inputs = [workload.make_input(i, args.seed, os.path.join(work, f"input{i}.edgelist"))
                  for i in range(count)]
        seeds = [1000 * args.seed + i for i in range(count)]
        records, wall = run_ops(cli, workload, inputs, seeds, os.path.join(work, "plain"))
        passes = [records]
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced, traced_wall = run_ops(cli, workload, inputs, seeds,
                                              os.path.join(work, "traced"))
            finally:
                tracer.uninstall()
            passes.append(traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(p) for p in passes)
    failed = sum(r["error"] is not None for p in passes for r in p)
    digests = [r["digest"] for r in records]
    same_outputs = all([r["digest"] for r in p] == digests for p in passes)
    quality = workload.quality([r["quality"] for r in records]) if not failed else {}
    correct = failed == 0 and same_outputs and workload.quality_ok(quality)
    times = [r["seconds"] for r in records]

    if args.trace:
        metrics = layer_metrics(tracer.spans)
        metrics["trace.overhead_s"] = traced_wall - wall
    else:
        metrics = {
            "setup_s": statistics.median(setup + setup_probes()),
            "wall_s": wall,
            "op_p50_s": statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": 1.0 - failed / attempted,
        }
    units = metric_units()
    metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    env["loadavg_1m_end"] = os.getloadavg()[0]
    report = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "smoke": args.smoke, "env": env, "ops": len(records),
        "op_seconds": times, "op_tail_s": op_tail(times),
        "fail_ratio": failed / attempted, "quality": quality,
        "digests": digests, "traced_outputs_match": same_outputs,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
