#!/usr/bin/env python3
"""Benchmark of the dlqw engines, end to end and layer by layer.

Run from the root of a source checkout (the program is imported from
``src/``, never from an installed copy):

    python3 benchmarks/run.py --workload grid-noise --seed 3 --seconds 50 --trace 0
    python3 benchmarks/run.py --seconds 50      # every workload, untraced then traced

With ``--workload`` the benchmark generates that workload's configs from the
seed, repeats the workload's runs in this process for ``--seconds`` and
prints, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics (``wall_s``, ``setup_s``, ``peak_rss_mb``); ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
metrics.  Without ``--workload`` every workload runs in a fresh process of
its own, and the metrics of all of them are printed as one table.

See ``benchmarks/README.md`` for the workloads, the metrics and baselines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
SETUP_PROBES = 9
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402  (standard library only; safe before numpy)


class BenchError(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


def limit_blas_threads() -> int:
    """Set every BLAS thread variable; must run before numpy is imported.

    One thread unless the environment asks for more, and never more than
    nproc: the workloads gain nothing from a second BLAS thread, and a
    single busy core keeps the timings off the scheduler of a shared host.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        raw = os.environ.get(var, "")
        want = int(raw) if raw.isdigit() and int(raw) > 0 else 1
        os.environ[var] = str(min(want, nproc))
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def import_program():
    """Import dlqw from this checkout's src/ and nowhere else."""
    if not (SRC / "dlqw" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'dlqw'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import dlqw

    if Path(dlqw.__file__).resolve().parent != (SRC / "dlqw").resolve():
        raise BenchError(f"imported dlqw from {dlqw.__file__}, not from {SRC}")
    return dlqw


def provenance(seed: int, blas_threads: int) -> dict:
    import numpy as np

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    try:
        git = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT, text=True,
            capture_output=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        describe = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        describe = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_name, "blas_threads": blas_threads, "seed": seed,
        "git_describe": describe,
    }


def setup_probe(workload: str, seed: int) -> None:
    """What a run must do before its first scenario: import, generate, parse.

    Prints the system-wide monotonic clock when the set-up is done.
    """
    dlqw = import_program()
    for _, text in workloads.generate(workload, seed):
        dlqw.config.parse_config(text)
    print(time.clock_gettime(time.CLOCK_MONOTONIC))


def measure_setup(workload: str, seed: int) -> float:
    """Median time from spawning a fresh process until it has set the workload up.

    The end is the clock the child prints when its set-up is done.  Timing
    until the parent sees the child exit would add the child's shutdown, and
    a wait with a timeout polls, which rounds every probe up to the poll
    interval.
    """
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", workload,
                               "--seed", str(seed), "--setup-probe"],
                              stdout=subprocess.PIPE, text=True, check=True, timeout=120)
        times.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(times)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 blas_threads: int) -> dict:
    import_program()
    setup_s = None if trace else measure_setup(workload, seed)
    import numpy as np

    import harness
    from tracer import Tracer

    generated = workloads.generate(workload, seed)
    reference = None
    if seed == workloads.DEFAULT_SEED:
        path = harness.reference_path(workload)
        if not path.is_file():
            raise BenchError(f"missing reference {path}")
        with np.load(path) as data:
            reference = dict(data)
    print("provenance " + json.dumps(provenance(seed, blas_threads)), flush=True)

    out_root = OUT_ROOT / f"{workload}-{seed}-{os.getpid()}"
    bench = harness.Workload(generated, out_root, reference)
    plain, traced, layers = [], [], []
    try:
        start = time.perf_counter()
        if trace:
            # peak_mb only: tracemalloc slows the timings too much to keep them
            with Tracer(harness.LAYERS, memory=True) as memory:
                bench.repeat()
        while True:
            t0 = time.perf_counter()
            plain.append(bench.repeat())
            if trace:
                with Tracer(harness.LAYERS) as tracer:
                    traced.append(bench.repeat())
                layers.append(harness.layer_values(tracer.stats, memory.stats))
                layers[-1]["runner.bytes_written"] = float(traced[-1].bytes_written)
            spent = time.perf_counter() - t0
            if time.perf_counter() - start + spent > seconds:
                break
    finally:
        harness.clear(out_root)

    plain_walls = [r.wall_s for r in plain]
    wall_s = statistics.median(plain_walls)
    if trace:
        units = harness.per_layer_units()
        values = {name: statistics.median([v[name] for v in layers]) for name in layers[0]}
        values["process.cpu_s"] = statistics.median([r.cpu_s for r in plain])
        values["process.trace_overhead_s"] = (
            statistics.median([r.wall_s for r in traced]) - wall_s)
    else:
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        values = {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
    print(f"{workload} seed {seed}: {len(plain)} repetitions of {len(generated)} runs"
          + (f" (+{len(traced)} traced)" if trace else "")
          + f", wall_s min/median/max {min(plain_walls):.3f}/{wall_s:.3f}/{max(plain_walls):.3f}"
          + f"; fail_frac = {bench.failed}/{bench.attempted}")
    for i, (name, _) in enumerate(generated):
        print(f"  run {name:40s} {statistics.median(r.runs[i].wall_s for r in plain):14.6g} s")
    for name, unit in units.items():
        print(f"  {name:44s} {values[name]:14.6g} {unit}")
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def run_all(seed: int, seconds: float) -> dict:
    """Every workload in a fresh process, untraced then traced; one combined table."""
    results: dict[str, dict[int, dict]] = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", workload, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise BenchError(f"{workload} --trace {trace} exited {proc.returncode}")
            if trace == 0:
                print(lines[0])  # provenance
            results.setdefault(workload, {})[trace] = json.loads(lines[-1])

    names = list(workloads.WORKLOADS)
    print(f"{'metric':44s} {'unit':6s} " + " ".join(f"{w:>14s}" for w in names))

    def row(label: str, unit: str, cells: list[str]) -> None:
        print(f"{label:44s} {unit:6s} " + " ".join(f"{c:>14s}" for c in cells))

    row("fail_frac", "1", [f"{results[w][0]['failed']}/{results[w][0]['attempted']}"
                           for w in names])
    combined = {}
    for trace in (0, 1):
        for metric, entry in results[names[0]][trace]["metrics"].items():
            row(metric, entry["unit"],
                [f"{results[w][trace]['metrics'][metric]['value']:.6g}" for w in names])
            for w in names:
                combined[f"{w}.{metric}"] = results[w][trace]["metrics"][metric]
    every = [r for by_trace in results.values() for r in by_trace.values()]
    return {
        "correct": all(r["correct"] for r in every),
        "attempted": sum(r["attempted"] for r in every),
        "failed": sum(r["failed"] for r in every),
        "metrics": combined,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # a terminated run still removes its output directory (finally blocks run)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    blas_threads = limit_blas_threads()
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        if args.workload is None:
            result = run_all(args.seed, args.seconds)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  blas_threads)
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
