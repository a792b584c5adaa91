"""Run one prunekit benchmark workload and print its metrics.

    python3 bench/run.py --workload prune_rc_wide --seed 1 --seconds 55 --trace 0

Run from the repository root; prunekit is imported from ./src. The run sets
the workload up from the seed, trains the baseline of a prune workload once,
then repeats rounds of one more set-up and one operation for about
``--seconds``, and checks the outputs of every operation. ``setup_s`` and
``wall_s`` are medians over the run.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it holds the per-module metrics, taken from
traced operations that alternate with untraced ones. Earlier lines record the
environment and the checks. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
# One BLAS thread: the operations are dominated by Python overhead on small
# matrices, and a second thread on a shared two-core box adds more noise
# than speed. The count never exceeds nproc.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_prunekit():
    """Import prunekit from this checkout's src/, never from site-packages."""
    src = ROOT / "src"
    if not (src / "prunekit" / "__init__.py").is_file():
        raise SystemExit(f"bench: no prunekit sources under {src}")
    sys.path.insert(0, str(src))
    import prunekit
    if Path(prunekit.__file__).resolve().parent != src / "prunekit":
        raise SystemExit(f"bench: imported prunekit from {prunekit.__file__}, not {src}")
    return prunekit


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
    }


def run_op(workload, state, out_dir, tracer, reference):
    """One timed operation and its checks. Returns (wall, outcome, checks);
    an operation that raises fails with the single check ``completed``."""
    try:
        if tracer is not None:
            tracer.install()
        try:
            t0 = perf_counter()
            out = workload.run(state, out_dir)
            wall = perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        checks = workload.check(state, out)
    except Exception:
        traceback.print_exc()
        return None, None, {"completed": False}
    checks["outputs_identical_across_repeats"] = (
        reference is None or (out.model_bytes, out.report_text) == reference)
    return wall, out, checks


def timed_setup(workload, seed, samples):
    t0 = perf_counter()
    inputs = workload.setup(seed)
    samples.append(perf_counter() - t0)
    return inputs


def measure(workload, state, seed, seconds, make_tracer, results):
    """Repeat the operation for about ``seconds``. Each round sets the workload
    up once more, so that set-up samples span the run as operations do, then
    runs one untraced operation and, in traced mode, one traced operation."""
    modes = (None, "traced") if make_tracer else (None,)
    reference = None
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as out_dir:
        start = perf_counter()
        rounds = 0
        while True:
            for _ in range(SETUP_REPEATS):
                timed_setup(workload, seed, results["setup_s"])
            for mode in modes:
                tracer = make_tracer() if mode else None
                wall, out, checks = run_op(workload, state, out_dir, tracer, reference)
                results["attempted"] += 1
                bad = sorted(k for k, ok in checks.items() if not ok)
                if bad:
                    results["failed_checks"].append(bad)
                if out is None:
                    continue
                if reference is None:
                    reference = (out.model_bytes, out.report_text)
                    results["test_error"] = out.test_error
                results["traced_op_wall_s" if mode else "op_wall_s"].append(wall)
                if tracer is not None:
                    results["per_op"].append(tracer.op_metrics(wall, state["conv_layers"]))
                    results["steps"].extend(tracer.step_s)
            rounds += 1
            elapsed = perf_counter() - start
            if elapsed + elapsed / rounds > seconds:
                return


def percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    pk = import_prunekit()
    import numpy as np

    from tracer import Tracer
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    results = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "setup_s": [], "op_wall_s": [], "traced_op_wall_s": [],
               "attempted": 0, "failed_checks": [], "test_error": None,
               "per_op": [], "steps": []}

    for _ in range(SETUP_REPEATS):
        inputs = timed_setup(workload, args.seed, results["setup_s"])
    t0 = perf_counter()
    state = workload.prepare(inputs, args.seed)
    results["prepare_s"] = perf_counter() - t0
    measure(workload, state, args.seed, args.seconds,
            (lambda: Tracer(pk)) if args.trace else None, results)
    if not results["op_wall_s"]:
        raise SystemExit("bench: no operation completed")
    per_op, steps = results.pop("per_op"), results.pop("steps")
    failed, attempted = results["failed_checks"], results["attempted"]
    print(json.dumps({"env": environment(np)}))
    print(json.dumps({"run": results}))

    if args.trace:
        if not per_op:
            raise SystemExit("bench: no traced operation completed")
        tracer = Tracer(pk)
        tracer.install()
        try:
            workload.setup(args.seed)
        finally:
            tracer.uninstall()
        metrics = {k: statistics.median(op[k] for op in per_op) for k in per_op[0]}
        metrics.update({
            "data.synth_dataset.s": tracer.summary()["total"]["data.synth_dataset"],
            "pruner.step_ms.p50": 1e3 * percentile(steps, 0.5),
            "pruner.step_ms.p90": 1e3 * percentile(steps, 0.9),
            "pruner.step_ms.n": len(steps),
            "metrics.test_error": results["test_error"],
            "trace.overhead_s": (statistics.median(results["traced_op_wall_s"])
                                 - statistics.median(results["op_wall_s"])),
        })
        if metrics["trace.coverage"] < 0.95:
            print(f"warning: the traced phases cover {metrics['trace.coverage']:.3f} "
                  f"of the traced operation's wall time, less than 0.95")
        wanted = spec["per_layer"]
    else:
        metrics = {
            "setup_s": statistics.median(results["setup_s"]),
            "wall_s": statistics.median(results["op_wall_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": (attempted - len(failed)) / attempted,
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"bench: metrics not measured: {missing}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
