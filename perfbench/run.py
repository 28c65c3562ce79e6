"""contris benchmark: end-to-end metrics, correctness gates and a traced run.

Run from the repository root; every workload runs in its own process:

    python3 perfbench/run.py --workload analytic_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` times passes with tracing off and reports the end-to-end
metrics.  ``--trace 1`` runs each pass twice on the same inputs, untraced and
traced (alternating which goes first), reports the per-layer metrics of the
traced pass and the tracing overhead, and gates on the two passes' outputs
being bit-for-bit equal.  Passes repeat while another one fits in
``--seconds`` of pass time.  On analytic_sweep, ``wall_s`` and
``points_per_s`` are taken at a nominal host speed: each system point is
scaled by a reference kernel timed around it (``speed.py``); the raw pass
times are printed beside them.  ``wall_s`` is the median over passes.
``setup_s`` is the median over fresh interpreters, each scaled to nominal
speed by a bare interpreter importing numpy timed around it.  Per-layer
figures are medians over the traced passes.  The last line
of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` count the correctness gates, ``metrics`` maps names to
``{"value", "unit"}``.

BLAS threads are set to the process's CPU count through the per-process
environment, before numpy loads.  contris is imported from ``src/`` next to
this directory, and nothing else: without it the benchmark exits with 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"

WORKLOADS = ("analytic_sweep", "mc_oracle", "cli_validate")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 11

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("gate_pass_rate", "ratio"),
    ("points_per_s", "1/s"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload's inputs and exit (what setup_s times)")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_contris() -> bool:
    """Import contris from this checkout's src/ only; False when it is absent."""
    if not (SRC / "contris" / "__init__.py").is_file():
        print(f"perfbench: no contris sources under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import contris
    if not Path(contris.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: contris imported from {contris.__file__}, not {SRC}",
              file=sys.stderr)
        return False
    return True


def machine_block(threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": threads,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def time_setup(args) -> tuple[list[float], list[float]]:
    """Set-up times, at nominal host speed and raw, of fresh interpreters
    importing contris and building the workload's inputs."""
    import speed

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    return speed.scaled_commands(cmd, SETUP_PROBES)


def timed_pass(workload, inputs):
    start = time.perf_counter()
    outputs = workload.run_pass(inputs)
    return time.perf_counter() - start, outputs


def more_passes(walls, seconds: float) -> bool:
    """Start another pass only while one more of average length fits."""
    return not walls or sum(walls) + statistics.fmean(walls) <= seconds


def run_untraced(args, workload, state, gates) -> dict:
    import speed

    setup, setup_raw = time_setup(args)
    reps = workload.REFERENCE_REPS
    if reps:
        speed.reference(10 * reps)  # warm-up, untimed
    raw, passes, points = [], [], 0
    while more_passes(raw, args.seconds):
        inputs = workload.inputs(state, len(raw))
        if reps:
            walls, refs, outputs = speed.measured_pass(workload.units(inputs), reps)
            raw.append(sum(walls))
            passes.append(speed.scaled(walls, refs))
        else:
            wall, outputs = timed_pass(workload, inputs)
            raw.append(wall)
            passes.append(wall)
        workload.check_pass(inputs, outputs, gates)
        points += len(outputs)
    print(f"# setup raw s {json.dumps(setup_raw)}")
    print(f"# pass raw wall_s {json.dumps(raw)}")
    if reps:
        print(f"# pass wall_s at nominal speed {json.dumps(passes)}")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(passes),
        "peak_rss_mb": peak_kib / 1024.0,
        "gate_pass_rate": 1.0 - gates.failed / gates.attempted,
        "points_per_s": points / sum(passes),
    }


def run_traced(args, workload, state, gates) -> dict:
    import layers
    import workloads
    from tracer import Tracer

    tracer = Tracer(layers.TARGETS)
    untraced, traced, samples = [], [], []
    while more_passes([u + t for u, t in zip(untraced, traced)], args.seconds):
        index = len(traced)
        inputs = workload.inputs(state, index)
        outputs = {}
        for use_trace in ((False, True) if index % 2 == 0 else (True, False)):
            if use_trace:
                tracer.reset()
            with tracer if use_trace else contextlib.nullcontext():
                wall, outputs[use_trace] = timed_pass(workload, inputs)
            (traced if use_trace else untraced).append(wall)
        samples.append(layers.layer_values(tracer.stats))
        gates.check("traced_output_identical",
                    lambda: workloads.same(outputs[False], outputs[True]))
        workload.check_pass(inputs, outputs[True], gates)
    metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.traced_wall_s"] = statistics.median(traced)
    metrics["trace.overhead_frac"] = (
        metrics["trace.traced_wall_s"] / metrics["trace.untraced_wall_s"] - 1.0)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    if not import_contris():
        return 2
    import workloads

    workload = workloads.make(args.workload, WORK_DIR)
    state = workload.setup(args.seed)
    if args.setup_only:
        return 0

    gates = workloads.Gates()
    workload.run_gates(state, gates)
    if args.trace:
        import layers
        units = {name: unit for name, unit, _ in layers.per_layer_metrics()}
        values = run_traced(args, workload, state, gates)
    else:
        units = dict(END_TO_END)
        values = run_untraced(args, workload, state, gates)

    print(f"# machine {json.dumps(machine_block(threads))}")
    for name, value in values.items():
        print(f"{args.workload} {name} = {value!r} {units[name]}")
    print(f"{args.workload} error_rate = {gates.failed}/{gates.attempted}")
    if not args.trace and args.workload == "mc_oracle":
        rate = values["points_per_s"] * workloads.McOracle.REPLICATES
        print(f"{args.workload} replicates_per_s = {rate!r} 1/s")
    for failure in gates.failures:
        print(f"# gate failed: {failure}")
    print(json.dumps({
        "correct": gates.failed == 0,
        "attempted": gates.attempted,
        "failed": gates.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
