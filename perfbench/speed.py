"""A host-speed reference for analytic_sweep's end-to-end times.

On a shared virtual machine the speed a process gets moves by up to 1.8x,
over stretches from under a second to tens of seconds, with no steal time
(CPU time moves with wall time).  A 30-second run then mostly measures which
stretch it fell in.  So analytic_sweep times a fixed reference kernel, which
calls nothing of contris, before its first system point of a pass and after
each point, and scales each point's wall time by ``NOMINAL_S`` over the mean
of the two reference times around it.  A slower host stretches both the
point and the reference; a change to contris moves only the point.

The kernel is a Python loop stepping a series over a small numpy array, like
the 2F1 series and the scalar P(a, x) loop that analytic_sweep spends its
time in.  mc_oracle and cli_validate report raw wall time: their units of
work last 5-9 s and go to BLAS and large arrays, and in ten runs each,
scaling by this kernel (or by a matrix product on the BLAS threads) left
their spread as wide as the raw one or wider.

``setup_s`` is scaled the same way, by a bare interpreter that imports numpy
timed before and after each fresh interpreter that sets up a workload: the
kernel moved two to three times as much as set-up did with the host, the
bare interpreter as much (0.82 correlated), and medians of 11 set-ups moved
16% raw and 4% scaled over a few minutes.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np

# About the kernel's wall time on an Intel Xeon VM with 2 vCPUs at its
# fastest speed level; scaled times are seconds at that speed.
NOMINAL_S = 0.0003
# The same for a fresh interpreter that imports numpy.
NOMINAL_INTERPRETER_S = 0.11
INTERPRETER = (sys.executable, "-c", "import numpy")

_SERIES = np.linspace(0.05, 0.95, 512)


def kernel() -> float:
    term = np.ones_like(_SERIES)
    total = np.zeros_like(_SERIES)
    acc = 0.0
    for k in range(150):
        term = term * _SERIES * ((k + 0.5) / (k + 1.0))
        total += term
        acc += math.sqrt(k + 1.0)
    return float(total.sum() + acc)


def reference(reps: int, clock=time.perf_counter) -> float:
    """Wall time of ``reps`` kernel calls, divided by ``reps``."""
    start = clock()
    for _ in range(reps):
        kernel()
    return (clock() - start) / reps


def time_command(cmd) -> float:
    """Wall time of running ``cmd`` to its end."""
    start = time.perf_counter()
    # no timeout: Popen.wait polls every 50 ms when given one
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def scaled_each(unit_walls, refs, nominal=NOMINAL_S) -> list[float]:
    """Unit times at nominal speed; ``refs`` brackets the units."""
    assert len(refs) == len(unit_walls) + 1
    return [wall * nominal / (0.5 * (before + after))
            for wall, before, after in zip(unit_walls, refs, refs[1:])]


def scaled(unit_walls, refs) -> float:
    """Sum of unit times at nominal speed."""
    return sum(scaled_each(unit_walls, refs))


def scaled_commands(cmd, count: int) -> tuple[list[float], list[float]]:
    """``count`` runs of ``cmd``, each scaled by ``INTERPRETER`` runs around
    it; (scaled, raw) wall times."""
    time_command(INTERPRETER)  # warm-up, untimed
    refs, walls = [time_command(INTERPRETER)], []
    for _ in range(count):
        walls.append(time_command(cmd))
        refs.append(time_command(INTERPRETER))
    return scaled_each(walls, refs, NOMINAL_INTERPRETER_S), walls


def measured_pass(units, reps: int, clock=time.perf_counter):
    """Run ``units`` with a reference between each; (walls, refs, outputs)."""
    refs = [reference(reps, clock)]
    walls, outputs = [], []
    for unit in units:
        start = clock()
        outputs.append(unit())
        walls.append(clock() - start)
        refs.append(reference(reps, clock))
    return walls, refs, outputs
