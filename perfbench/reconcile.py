"""Compare one traced run per workload with ROADMAP.md's hand-measured Baseline.

    python3 perfbench/reconcile.py [--seed 1] [--seconds 30]

Runs ``run.py --trace 1`` on each workload, derives the Baseline table's
per-call figures from the per-layer metrics and prints each row with both
numbers.  A row is marked ``differs`` when the traced figure falls outside
the Baseline range widened by a third on either side; Baseline figures were
taken by hand on a shared machine, so they carry that much noise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# (row, workload, baseline low s, baseline high s, figure from the metrics)
ROWS = (
    ("moment_m2_iso per sweep point", "analytic_sweep", 0.370, 0.430,
     lambda m: m["analytic.moment_m2_iso.s"] / m["analytic.moment_m2_iso.calls"]),
    ("link_terms per call", "analytic_sweep", 0.016, 0.016,
     lambda m: m["analytic.link_terms.s"] / m["analytic.link_terms.calls"]),
    ("outage_probability per 1e4 thresholds (2.4 s per 1e5)", "analytic_sweep", 0.24, 0.24,
     lambda m: m["analytic.outage_probability.s"]
     / (m["analytic.outage_probability.points"] / 1e4)),
    ("moment_m2_quad4 square + 20:1 (1.3 s + 6.2 s)", "cli_validate", 7.5, 7.5,
     lambda m: m["analytic.moment_m2_quad4.s"]),
    ("covariance build per call, 49x49", "mc_oracle", 3.9, 3.9,
     lambda m: m["mcsim.build_surface_covariance.s"]
     / m["mcsim.build_surface_covariance.calls"]),
    ("run_replicates 49x49 n=2e4 per call", "mc_oracle", 8.6, 8.6,
     lambda m: m["mcsim.run_replicates.s"] / m["mcsim.run_replicates.calls"]),
    ("replicate loop (run_replicates self time) per call", "mc_oracle", 4.65, 4.65,
     lambda m: m["mcsim.run_replicates.self_s"] / m["mcsim.run_replicates.calls"]),
)
SLACK = 4.0 / 3.0


def traced_metrics(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        check=True, capture_output=True, text=True, timeout=900)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    metrics = {w: traced_metrics(w, args.seed, args.seconds)
               for w in dict.fromkeys(row[1] for row in ROWS)}
    for label, workload, low, high, figure in ROWS:
        value = figure(metrics[workload])
        verdict = "matches" if low / SLACK <= value <= high * SLACK else "differs"
        baseline = f"{low:.3g} s" if low == high else f"{low:.3g}-{high:.3g} s"
        print(f"{verdict:8s} {label}: baseline {baseline}, traced {value:.3g} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
