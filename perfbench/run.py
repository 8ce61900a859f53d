"""Benchmark of lowdisc: the CLI pipeline gen -> verify -> discrepancy and
``lowdisc reproduce all``, run through ``lowdisc.cli.main``.

    python3 perfbench/run.py --workload pipeline-exact --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports lowdisc from ./src and writes
only under ./.bench_tmp (removed on exit) and ./.bench_out (trace files).
Each pass over the workload's fixed job list runs in a fresh single-threaded
process (worker.py); passes repeat until --seconds have elapsed, at least
one.  With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics.  With --trace 1 the benchmark runs one traced and one
untraced pass, checks that their artifacts are byte-identical, and reports
the per-layer metrics instead.  The lines before it give every metric by
name and unit, with sample counts, and the operations that failed.  See
NOTES.md for the workloads and the metrics.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:  # before numpy is first imported; children inherit
    os.environ[_var] = "1"

import argparse
import filecmp
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
PASS_TIMEOUT_S = 170
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def timing_summary(values: list[float]) -> str:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.6g} (n={n}"
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")
            text += f", p{p:g} {cut[round(p * 10) - 1]:.6g}"
            break
    else:
        text += ", too few samples for a percentile beyond the median"
    return text + ")"


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def measure_setup(workload, seed: int) -> tuple[list[float], list]:
    """Import lowdisc.cli in a fresh interpreter, then build the seeded
    inputs; repeated, since every CLI invocation pays the import."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # no timeout: with one, wait() polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", "import lowdisc.cli"], env=child_env(), cwd=ROOT, check=True)
        jobs = workload.inputs(seed)
        times.append(time.perf_counter() - start)
    return times, jobs


def one_pass(workload, seed: int, pass_dir: Path, trace_file: str) -> dict:
    """Run worker.py for one pass in a fresh pass_dir and return its result."""
    from workloads import Op

    shutil.rmtree(pass_dir, ignore_errors=True)
    pass_dir.mkdir()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload.name, str(seed), trace_file],
        cwd=pass_dir, env=child_env(), stdout=subprocess.PIPE, text=True,
        check=True, timeout=PASS_TIMEOUT_S,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["ops"] = [Op(**op) for op in result["ops"]]
    return result


def check_pass(workload, refs, result: dict, pass_dir: Path, first: dict | None) -> None:
    """Attach problems to a pass's operations; `first` is an earlier pass
    whose artifacts this one must repeat."""
    from workloads import check_pipeline, check_reproduce, tree_digests

    if workload.jobs:
        result["digests"] = tree_digests(pass_dir)
        check_pipeline(result["ops"], refs, result["digests"], first and first["digests"])
    else:
        check_reproduce(result["ops"], first and first["ops"])


def run_passes(workload, seed, refs, pass_dir: Path, seconds: float) -> list[dict]:
    """Untraced, checked passes until `seconds` have elapsed."""
    results = []
    begin = time.perf_counter()
    while not results or time.perf_counter() - begin < seconds:
        result = one_pass(workload, seed, pass_dir, "-")
        check_pass(workload, refs, result, pass_dir, results[0] if results else None)
        results.append(result)
    return results


def differences(workload, untraced: dict, traced: dict, untraced_dir: Path, traced_dir: Path) -> list[str]:
    """Artifacts that are not byte-identical between two passes."""
    if not workload.jobs:  # reproduce writes no files; compare its output
        def strip(ops):  # elapsed times differ by design
            return [
                {k: v for k, v in op.payload.items() if k != "elapsed_seconds"}
                if isinstance(op.payload, dict) else None
                for op in ops
            ]
        return [] if strip(untraced["ops"]) == strip(traced["ops"]) else ["reproduce output"]
    names = {
        str(p.relative_to(d)) for d in (untraced_dir, traced_dir) for p in d.rglob("*") if p.is_file()
    }
    return sorted(
        name for name in names
        if not (untraced_dir / name).is_file()
        or not (traced_dir / name).is_file()
        or not filecmp.cmp(untraced_dir / name, traced_dir / name, shallow=False)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lowdisc" / "cli.py").is_file():
        print(f"lowdisc sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lowdisc.cli

    if Path(lowdisc.cli.__file__).resolve().parent != SRC / "lowdisc":
        print(f"imported lowdisc from {lowdisc.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracing import LAYER_METRICS
    from workloads import MISSING, WORKLOADS, WRONG, references

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))

    setup_times, jobs = measure_setup(workload, args.seed)
    start = time.perf_counter()
    refs = references(jobs)
    reference_s = time.perf_counter() - start

    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=ROOT / ".bench_tmp"))
    try:
        if args.trace:
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            trace_file = out_dir / f"trace-{workload.name}-seed{args.seed}.json"
            traced = one_pass(workload, args.seed, work / "traced", str(trace_file))
            check_pass(workload, refs, traced, work / "traced", None)
            artifact_bytes = sum(p.stat().st_size for p in (work / "traced").rglob("*") if p.is_file())
            results = run_passes(workload, args.seed, refs, work / "pass", 0)
            differs = differences(workload, results[0], traced, work / "pass", work / "traced")
            results.append(traced)
        else:
            results = run_passes(workload, args.seed, refs, work / "pass", args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for result in results for op in result["ops"]]
    problems = [p for op in ops for p in op.problems]
    failed = sum(1 for op in ops if op.problems)
    correct = not any(kind == WRONG for kind, _ in problems)

    print(f"setup_s {timing_summary(setup_times)} s; samples "
          + " ".join(f"{t:.3f}" for t in setup_times) + f"; references built in {reference_s:.3f} s")
    for command in ("gen", "verify", "discrepancy"):
        per_pass = [sum(op.seconds for op in r["ops"] if op.command == command) for r in results]
        calls = [op.seconds for op in ops if op.command == command]
        if calls:
            print(f"{command}_s {timing_summary(per_pass)} s per pass; per call {timing_summary(calls)} s")
    print(f"failed_frac {failed / len(ops):.6g} fraction ({failed} of {len(ops)} operations)")
    for kind in (MISSING, WRONG):
        for text in sorted(set(t for k, t in problems if k == kind)):
            print(f"{kind}: {text}")

    if args.trace:
        if differs:
            correct = False
            print("traced artifacts differ from untraced: " + ", ".join(differs))
        metrics = dict(traced["layers"])
        metrics["cli.artifact_bytes"] = float(artifact_bytes)
        metrics["trace.overhead_s"] = traced["pass_s"] - results[0]["pass_s"]
        rows = [op.payload for op in results[0]["ops"] if op.command == "criterion"]
        metrics["acceptance.budget_headroom_min"] = min(
            ((r["budget_seconds"] - r["elapsed_seconds"]) / r["budget_seconds"] for r in rows),
            default=1.0,
        )
        print(f"pass_s untraced {results[0]['pass_s']:.6g} s, traced {traced['pass_s']:.6g} s")
        print(f"peak_rss_mb untraced {results[0]['peak_rss_mb']:.6g} MB, traced {traced['peak_rss_mb']:.6g} MB")
        for name, (unit, label) in LAYER_METRICS.items():
            print(f"{name} {metrics[name]:.6g} {unit} ({label})")
        spans = json.loads(trace_file.read_text())["spans"]
        trace_file.write_text(json.dumps({
            "environment": env,
            "labels": {name: label for name, (_, label) in LAYER_METRICS.items()},
            "metrics": metrics,
            "spans": spans,
        }))
        print(f"spans written to {trace_file.relative_to(ROOT)}")
        result_metrics = {
            name: {"value": metrics[name], "unit": unit} for name, (unit, _) in LAYER_METRICS.items()
        }
    else:
        pass_times = [r["pass_s"] for r in results]
        rss = [r["peak_rss_mb"] for r in results]
        print(f"pass_s {timing_summary(pass_times)} s; passes " + " ".join(f"{t:.3f}" for t in pass_times))
        print(f"peak_rss_mb {timing_summary(rss)} MB")
        result_metrics = {
            "pass_s": {"value": statistics.median(pass_times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        }
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
