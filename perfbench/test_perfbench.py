"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from contris import analytic, cli, mcsim, specfun, sysmodel  # noqa: E402
from tracer import Target, Tracer  # noqa: E402


def test_wrappers_reach_every_binding_site_and_restore():
    originals = (specfun.bessel_j0, specfun.gauss_2f1_half, mcsim.run_replicates,
                 mcsim.sample_field, sysmodel.IsotropicCorrelation.__dict__["rho"])
    with Tracer(layers.TARGETS):
        assert sysmodel.bessel_j0.__wrapped__ is originals[0]
        assert specfun.bessel_j0.__wrapped__ is originals[0]
        assert analytic.gauss_2f1_half.__wrapped__ is originals[1]
        assert cli.run_replicates.__wrapped__ is originals[2]
        assert cli.sample_field.__wrapped__ is originals[3]
        assert sysmodel.IsotropicCorrelation.rho.__wrapped__ is originals[4]
    assert (sysmodel.bessel_j0, analytic.gauss_2f1_half, cli.run_replicates,
            cli.sample_field, sysmodel.IsotropicCorrelation.__dict__["rho"]) == originals
    assert specfun.bessel_j0 is originals[0]


def _fake_package():
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    exec("def inner(x):\n    return x + 1\n"
         "def outer(x):\n    return inner(x) * 2\n"
         "def broken():\n    raise ValueError('boom')\n", vars(mod))
    return pkg, mod


def test_self_time_excludes_wrapped_children(monkeypatch):
    pkg, mod = _fake_package()
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.mod", mod)
    # outer starts at 0, inner runs from 1 to 3, outer ends at 6
    ticks = iter([0.0, 1.0, 3.0, 6.0])
    targets = [Target("fakepkg.mod", "outer"), Target("fakepkg.mod", "inner")]
    with Tracer(targets, package="fakepkg", clock=lambda: next(ticks)) as tracer:
        assert mod.outer(1) == 4
    outer, inner = tracer.stats["fakepkg.mod.outer"], tracer.stats["fakepkg.mod.inner"]
    assert (outer.calls, outer.s, outer.self_s) == (1, 6.0, 4.0)
    assert (inner.calls, inner.s, inner.self_s) == (1, 2.0, 2.0)


def test_raising_call_keeps_the_stack_balanced(monkeypatch):
    pkg, mod = _fake_package()
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.mod", mod)
    tracer = Tracer([Target("fakepkg.mod", "broken")], package="fakepkg")
    with tracer:
        with pytest.raises(ValueError):
            mod.broken()
        assert tracer._stack == []
    assert tracer.stats["fakepkg.mod.broken"].calls == 1


def test_raising_gate_counts_as_failed():
    gates = workloads.Gates()
    assert gates.check("ok", lambda: True)
    assert not gates.check("false", lambda: False)
    assert not gates.check("raises", lambda: 1 / 0)
    assert (gates.attempted, gates.failed) == (3, 2)
    assert gates.failures[1].startswith("raises: ZeroDivisionError")


def test_traced_outputs_equal_untraced_bit_for_bit():
    base = cli.default_system()
    system = workloads._system(base, workloads._geometry(0.1, 20.0),
                               sysmodel.CorrelationKind.JAKES, 0.7)
    grid = mcsim.make_grid(system.geometry, 8, 8)

    def chain():
        terms = analytic.link_terms(system)
        m1 = analytic.moment_m1(system.geometry, terms.beta_ur)
        m2 = analytic.moment_m2_iso(system.geometry, system.correlation, terms.beta_ur)
        mu1 = analytic.mean_snr(system, m1, m2)
        mu2 = analytic.second_moment_snr(system, analytic.YMoments.from_first_two(m1, m2))
        outage = analytic.outage_probability(
            analytic.gamma_fit(mu1, mu2), mu1 * np.linspace(0.5, 1.5, 50))
        batch = mcsim.run_replicates(system, grid, 300, 11)
        return m2, mu1, mu2, outage, batch.y_samples, batch.snr_samples

    plain = chain()
    with Tracer(layers.TARGETS) as tracer:
        traced = chain()
    assert workloads.same(plain, traced)
    values = layers.layer_values(tracer.stats)
    assert values["analytic.link_terms.calls"] == 3
    assert values["analytic.link_terms.distinct_fraction"] == pytest.approx(1 / 3)
    assert values["quadrature.adaptive_gauss_kronrod.nodes"] % 15 == 0
    assert values["mcsim.run_replicates.replicates"] == 300
    assert values["mcsim.build_surface_covariance.grid_points"] == 64
    assert values["specfun.reg_lower_gamma.calls"] == 50
    assert values["analytic.moment_m2_quad4.calls"] == 0
    run_replicates = tracer.stats["mcsim.run_replicates"]
    assert 0.0 < run_replicates.self_s < run_replicates.s


def test_same_is_exact():
    a = (1.0, np.array([0.1, 0.2]))
    assert workloads.same(a, (1.0, np.array([0.1, 0.2])))
    assert not workloads.same(a, (1.0, np.array([0.1, math.nextafter(0.2, 1.0)])))


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        layers.per_layer_metrics()


def test_exits_nonzero_without_contris_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "mc_oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_scaled_times_use_the_references_around_each_unit():
    import speed

    # the host slows to half speed during the second unit, so that unit is
    # scaled by the mean of the references before and after it
    refs = [speed.NOMINAL_S, speed.NOMINAL_S, 2 * speed.NOMINAL_S]
    assert speed.scaled([1.0, 4.0], refs) == pytest.approx(1.0 + 4.0 / 1.5)
    assert speed.scaled_each([0.5], [0.2, 0.3], nominal=0.1) == pytest.approx([0.2])
    ticks = iter(range(100))
    walls, refs, outputs = speed.measured_pass(
        [lambda: "a", lambda: "b"], reps=2, clock=lambda: float(next(ticks)))
    assert outputs == ["a", "b"]
    assert walls == [1.0, 1.0] and refs == [0.5, 0.5, 0.5]
