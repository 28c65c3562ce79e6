"""The benchmark's workloads.

Each workload turns the benchmark seed into contris inputs (``setup`` and
``inputs``), splits one pass through contris's public functions into units of
work (``units``: one system point, one Monte Carlo batch, one command) and
checks the pass's outputs with gates (``check_pass``,
``run_gates``).  Workloads call contris through module attributes
(``analytic.link_terms``), never through names bound at import, so the
tracer's wrappers see every call.

* ``analytic_sweep``: the analytic chain over seed-drawn system points, no
  Monte Carlo.  Time goes to ``specfun`` (the 2F1 series, the scalar P(a,x)
  loop behind the outage CDF), ``quadrature`` and ``link_terms``.
* ``mc_oracle``: ``run_replicates`` on the 49x49 grid that resolves the
  correlation at 0.4 m2 and kappa = 1, for both correlation models and the
  fig5 A/B/C layouts.  Time goes to the covariance build and the replicate
  loop; A/B/C share one unit factor, the two models cannot.
* ``cli_validate``: ``contris.cli.main(["--config", ..., "--validate"])`` on
  the default square surface and on a 20:1 surface of the same area, as a
  user runs it.  Its inputs do not depend on the seed: the command keeps the
  config's default Monte Carlo seed, because its 3-sigma checks fail by
  design on about one seed in 370.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json
import math
import traceback
from pathlib import Path

import numpy as np

from contris import analytic, cli, mcsim, sysmodel
from contris.sysmodel import CorrelationKind

HERE = Path(__file__).resolve().parent


class Gates:
    """Correctness gates of one run; a gate that raises counts as failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, name: str, predicate) -> bool:
        self.attempted += 1
        try:
            passed = bool(predicate())
            note = "" if passed else "returned false"
        except Exception:  # a raising gate is a failed gate, not a crash
            passed = False
            note = traceback.format_exc(limit=3).strip().splitlines()[-1]
        if not passed:
            self.failures.append(f"{name}: {note}")
        return passed


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _gamma_round_trip(fit, mu1: float, mu2: float) -> float:
    return max(_rel(fit.mean, mu1), _rel(fit.variance, mu2 - mu1 * mu1))


def _geometry(area: float, aspect: float) -> sysmodel.SurfaceGeometry:
    width = math.sqrt(aspect * area)
    return sysmodel.SurfaceGeometry(width_m=width, height_m=area / width)


def _system(base, geometry=None, kind=None, kappa=None, layout=None):
    """``base`` with the surface, both correlation models or the layout changed."""
    corr = {}
    if kind is not None:
        corr["kind"] = kind
    if kappa is not None:
        corr["kappa"] = kappa
    changes = {}
    if geometry is not None:
        changes["geometry"] = geometry
    if corr:
        changes["correlation"] = dataclasses.replace(base.correlation, **corr)
        changes["bs_correlation"] = dataclasses.replace(base.bs_correlation, **corr)
    if layout is not None:
        d_y, d_rb, d_x = layout
        changes["link"] = dataclasses.replace(base.link, d_y_m=d_y, d_rb_m=d_rb, d_x_m=d_x)
    return dataclasses.replace(base, **changes)


def same(a, b) -> bool:
    """Exact equality of nested outputs, arrays compared element by element."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    return a == b


class Workload:
    name = ""
    # Reference kernel calls timed between units to scale wall_s to nominal
    # host speed (speed.py), or 0 to report raw wall time.
    REFERENCE_REPS = 0

    def setup(self, seed: int):
        """Build everything the passes need; this is what setup_s times."""
        raise NotImplementedError

    def inputs(self, state, index: int):
        """Inputs of pass ``index``; built outside the timed region."""
        return state

    def units(self, inputs):
        """Zero-argument callables, one per system point; each returns its output."""
        raise NotImplementedError

    def run_pass(self, inputs):
        """One pass: every unit in order; returns their outputs."""
        return [unit() for unit in self.units(inputs)]

    def check_pass(self, inputs, outputs, gates: Gates) -> None:
        pass

    def run_gates(self, state, gates: Gates) -> None:
        """Once-per-run gates, outside every timed pass."""


class AnalyticSweep(Workload):
    name = "analytic_sweep"
    ASPECTS = (1.0, 20.0)
    KINDS = (CorrelationKind.SINC, CorrelationKind.JAKES)
    # per (aspect, model): kappa and area each cut into this many equal strata
    # and paired as a Latin hypercube, so every pass covers both ranges alike
    STRATA = 2
    AREA_RANGE = (0.1, 0.4)
    # Below kappa = 0.02 nearly every quadrature node has rho^2 close to 1
    # and one point costs up to six typical ones (2.3 s against 0.4 s for
    # sinc at 20:1 and kappa = 3e-4), which would make a pass's cost swing
    # with the seed.  The z -> 1 stall still shows at every point (r -> 0).
    KAPPA_RANGE = (0.02, 1.0)
    THRESHOLDS = 10_000
    # about 2% of a 0.4 s point: the references sample the host's speed
    # every 0.4 s, and the chain, like the kernel, is Python-loop bound
    REFERENCE_REPS = 20
    SENTINEL_REL = 1e-6
    # m2 bounds hold exactly; the slack covers the 1e-8 quadrature tolerance
    BOUND_SLACK = 1e-8

    def setup(self, seed):
        base = cli.default_system()
        sentinels = json.loads((HERE / "reference_m2.json").read_text())["points"]
        state = {"seed": seed, "base": base, "sentinels": [
            (sysmodel.SurfaceGeometry(p["width_m"], p["height_m"]),
             sysmodel.IsotropicCorrelation(CorrelationKind(p["kind"]), p["kappa"],
                                           p["wavelength_m"]),
             p["beta_ur"], p["m2_ref"])
            for p in sentinels]}
        self.inputs(state, 0)
        return state

    def inputs(self, state, index):
        """Stratified draw over the kappa and area ranges."""
        rng = np.random.default_rng([state["seed"], index])
        (lo_k, hi_k), (lo_a, hi_a) = self.KAPPA_RANGE, self.AREA_RANGE
        n = self.STRATA
        points = []
        for aspect in self.ASPECTS:
            for kind in self.KINDS:
                for j, k in enumerate(rng.permutation(n)):
                    kappa = lo_k + (hi_k - lo_k) * (j + rng.random()) / n
                    area = lo_a + (hi_a - lo_a) * (k + rng.random()) / n
                    points.append(_system(state["base"], _geometry(area, aspect),
                                          kind, kappa))
        return points

    def units(self, systems):
        return [functools.partial(self.chain, system) for system in systems]

    def chain(self, system):
        terms = analytic.link_terms(system)
        m1 = analytic.moment_m1(system.geometry, terms.beta_ur)
        m2 = analytic.moment_m2_iso(system.geometry, system.correlation, terms.beta_ur)
        moments = analytic.YMoments.from_first_two(m1, m2)
        mu1 = analytic.mean_snr(system, m1, m2)
        mu2 = analytic.second_moment_snr(system, moments)
        fit = analytic.gamma_fit(mu1, mu2)
        thresholds = mu1 * np.logspace(-1.0, 1.0, self.THRESHOLDS)
        outage = analytic.outage_probability(fit, thresholds)
        return (terms.beta_ur, m1, m2, mu1, mu2, fit.alpha_g, fit.beta_g,
                outage, analytic.se_bound(mu1),
                analytic.dominant_error_term(mu1, mu2),
                analytic.cv_squared(mu1, mu2))

    def check_pass(self, systems, outputs, gates):
        for i, (system, out) in enumerate(zip(systems, outputs)):
            beta_ur, m1, m2, mu1, mu2, alpha_g, beta_g, outage = out[:8]
            area = system.geometry.area_m2
            gates.check(f"m2_bounds[{i}]", lambda: (
                m1 * m1 * (1.0 - self.BOUND_SLACK) <= m2
                <= beta_ur * area * area * (1.0 + self.BOUND_SLACK)))
            gates.check(f"gamma_round_trip[{i}]", lambda: _gamma_round_trip(
                analytic.GammaFit(alpha_g, beta_g), mu1, mu2) <= 1e-12)
            gates.check(f"outage_monotone_unit[{i}]", lambda: (
                np.all(np.isfinite(outage)) and outage.min() >= 0.0
                and outage.max() <= 1.0 and np.all(np.diff(outage) >= 0.0)))

    def run_gates(self, state, gates):
        for i, (geom, model, beta_ur, ref) in enumerate(state["sentinels"]):
            gates.check(f"sentinel_m2[{i}]", lambda: _rel(
                analytic.moment_m2_iso(geom, model, beta_ur), ref) <= self.SENTINEL_REL)


class McOracle(Workload):
    name = "mc_oracle"
    REPLICATES = 20_000
    Z_LIMIT = 4.0

    def setup(self, seed):
        base = cli.default_system()
        systems = [_system(base, kind=CorrelationKind.JAKES)]
        systems += [_system(base, kind=CorrelationKind.SINC, layout=cli.SETUPS[name])
                    for name in ("A", "B", "C")]
        grid = mcsim.suggest_grid(base.geometry, base.correlation)
        m1 = [analytic.moment_m1(s.geometry, sysmodel.derive_gains(s).beta_ur)
              for s in systems]
        return {"seed": seed, "systems": systems, "grid": grid, "m1": m1,
                "small": (systems[0], mcsim.make_grid(base.geometry, 8, 8))}

    def inputs(self, state, index):
        seeds = np.random.SeedSequence([state["seed"], index]).generate_state(
            len(state["systems"]), np.uint32)
        return {**state, "mc_seeds": [int(s) for s in seeds]}

    def units(self, inputs):
        return [functools.partial(self.batch, system, inputs["grid"], seed)
                for system, seed in zip(inputs["systems"], inputs["mc_seeds"])]

    def batch(self, system, grid, seed):
        batch = mcsim.run_replicates(system, grid, self.REPLICATES, seed)
        return batch.y_samples, batch.snr_samples

    def check_pass(self, inputs, outputs, gates):
        for i, ((y, _), m1) in enumerate(zip(outputs, inputs["m1"])):
            gates.check(f"mean_y_z[{i}]", lambda: (
                abs(y.mean() - m1) / (y.std(ddof=1) / math.sqrt(y.size)) <= self.Z_LIMIT))

    def run_gates(self, state, gates):
        system, grid = state["small"]

        def rerun_identical():
            a = mcsim.run_replicates(system, grid, 512, state["seed"])
            b = mcsim.run_replicates(system, grid, 512, state["seed"])
            return (np.array_equal(a.y_samples, b.y_samples)
                    and np.array_equal(a.snr_samples, b.snr_samples))

        gates.check("rerun_identity", rerun_identical)


class CliValidate(Workload):
    name = "cli_validate"
    ASPECTS = (("square", 1.0), ("wide", 20.0))

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir

    def setup(self, seed):
        self.work_dir.mkdir(parents=True, exist_ok=True)
        area = cli.default_system().geometry.area_m2
        paths = []
        for label, aspect in self.ASPECTS:
            geom = _geometry(area, aspect)
            document = {} if aspect == 1.0 else {"system": {"geometry": {
                "width_m": geom.width_m, "height_m": geom.height_m}}}
            cli.load_config(document)
            path = self.work_dir / f"validate_{label}.json"
            path.write_text(json.dumps(document))
            paths.append(str(path))
        return paths

    def units(self, paths):
        return [functools.partial(self.validate, path) for path in paths]

    @staticmethod
    def validate(path):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["--config", path, "--validate"])
        return code, buf.getvalue()

    def check_pass(self, paths, outputs, gates):
        for (label, _), (code, text) in zip(self.ASPECTS, outputs):
            lines = text.splitlines()
            gates.check(f"validate_{label}_all_pass", lambda: (
                code == 0 and lines and all(line.startswith("[PASS]") for line in lines)))


def make(name: str, work_dir: Path) -> Workload:
    if name == CliValidate.name:
        return CliValidate(work_dir)
    return {AnalyticSweep.name: AnalyticSweep, McOracle.name: McOracle}[name]()

