"""Batch front-end: load a JSON config, run the analytic and Monte Carlo
pipelines for a named scenario, and emit CSV with a provenance header.

Config schema (all keys optional; defaults reproduce the reference desk
setup, 5.8 GHz carrier, 8x4 half-wavelength array, indoor path-loss
exponents)::

    {
      "system": {
        "geometry": {"width_m": 0.6325, "height_m": 0.6325},
        "carrier_hz": 5.8e9,
        "correlation": {"kind": "jakes", "kappa": 1.0},
        "bs_correlation": {"kind": "jakes", "kappa": 1.0},
        "link": {"c0_db": -30.0, "d0_m": 1.0,
                 "alpha_d": 6.0, "alpha_rb": 1.7, "alpha_ur": 1.7,
                 "d_rb_m": 5.0, "d_x_m": 30.0, "d_y_m": 1.0},
        "array": {"m_x": 8, "m_z": 4, "spacing_wavelengths": 0.5,
                  "theta_a_rad": 1.5707963267948966,
                  "phi_a_rad": 0.7853981633974483},
        "transmit_snr_db": 120.0
      },
      "grid": {"nx": 32, "ny": 32},
      "replicates": 10000,
      "seed": 20260810,
      "sweep": {"areas_m2": [0.1, 0.2, 0.3, 0.4],
                "kappas": [0.0, 0.1, 0.5, 1.0],
                "aspects": [1.0, 20.0],
                "thresholds_db": [20.0, 20.5, "...", 40.0],
                "setups": ["A", "B", "C"]},
      "output_path": null
    }

``output_path`` has no default (null): a scenario run needs it, or ``--out``.
``setups`` names fig5's layout presets A, B and C (``SETUPS``); ``"custom"``
keeps the configured ``link`` distances instead.

Every default is stated once, in ``default_system()``, ``default_sweep()``
and the field defaults of :class:`ExperimentConfig`.  One walk over the
dataclass tree, ``_merge``, reads a document and replaces only the fields it
gives; ``config_to_dict`` writes a config back as such a document.  Each
value takes the type of the default it replaces (a finite float, an
integral int or a string; a list's entries take the type of the default
list's), and gain-like fields accept either a linear key or a ``_db`` twin.
Any malformed document raises :class:`ConfigError`.

Each scenario is a spec in ``_SCENARIOS``: its sweep axes, outermost first,
any values held fixed, the Monte Carlo seed salt, its columns and a row
function.  One loop runs a spec over the product of its axes:

* ``fig2``   mean SNR vs surface area, analytic vs Monte Carlo, both models
* ``fig3``   spectral-efficiency bound vs simulated mean rate over kappa/area
* ``fig4``   outage CDF, gamma approximation vs empirical, per area/aspect/model
* ``fig5``   channel-hardening CV^2 per layout setup, area and kappa
* ``table1`` bound vs dominant-error-term summary over kappa

A model axis sets the kind of both correlation models and a kappa axis both
kappas, so a configured ``bs_correlation`` keeps only what the scenario does
not sweep: (sinc, 0.3) runs as (sinc, kappa) in fig3 and as (jakes, 0.3) at
a Jakes model point.

Exit codes: 0 success, 1 validation failure or I/O error (``io error:`` on
stderr, such as an unwritable ``--out``), 2 configuration error (a malformed
config, or a configured model outside the library's domain or the
floating-point range).
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import functools
import hashlib
import itertools
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import __version__
from .analytic import (
    cv_squared,
    dominant_error_term,
    gamma_fit,
    moment_m1,
    moment_m2_iso,
    moment_m2_quad4,
    outage_probability,
    rect_distance_pdf,
    se_bound,
    snr_moments,
)
from .errors import ConfigError, ContrisError, DomainError
from .mcsim import (
    EmpiricalCdf,
    GridSpec,
    Oracle,
    run_replicates,
    sample_field,
)
from .quadrature import QuadratureSpec, adaptive_gauss_kronrod
from .sysmodel import (
    BsArrayConfig,
    CorrelationKind,
    IsotropicCorrelation,
    LinkBudget,
    SurfaceGeometry,
    SystemConfig,
    derive_gains,
)

SPEED_OF_LIGHT = 299792458.0
DEFAULT_CARRIER_HZ = 5.8e9

# layout presets {d_y, d_rb, d_x} in meters
SETUPS = {
    "A": (1.0, 40.0, 27.0),
    "B": (1.0, 40.0, 53.0),
    "C": (1.0, 5.0, 27.0),
}


@dataclass(frozen=True)
class SweepSpec:
    areas_m2: tuple = ()
    kappas: tuple = ()
    aspects: tuple = ()
    thresholds_db: tuple = ()
    setups: tuple = ()

    def __post_init__(self):
        if not any((self.areas_m2, self.kappas, self.aspects,
                    self.thresholds_db, self.setups)):
            raise ConfigError("sweep must define at least one parameter list")
        if not all(math.isfinite(v) for v in
                   self.areas_m2 + self.kappas + self.aspects + self.thresholds_db):
            raise ConfigError("sweep values must be finite")
        if not all(v > 0.0 for v in self.areas_m2 + self.aspects):
            raise ConfigError("sweep areas and aspects must be positive")
        if not all(v >= 0.0 for v in self.kappas):
            raise ConfigError("sweep kappas must be >= 0")
        for db in self.thresholds_db:
            _db_to_linear(db)  # rejects a threshold past the float range
        for name in self.setups:
            if name not in SETUPS and name != "custom":
                raise ConfigError(f"unknown setup {name!r}; expected A/B/C/custom")


def default_system() -> SystemConfig:
    wavelength = SPEED_OF_LIGHT / DEFAULT_CARRIER_HZ
    return SystemConfig(
        geometry=SurfaceGeometry(width_m=math.sqrt(0.4), height_m=math.sqrt(0.4)),
        correlation=IsotropicCorrelation(CorrelationKind.JAKES, 1.0, wavelength),
        bs_correlation=IsotropicCorrelation(CorrelationKind.JAKES, 1.0, wavelength),
        link=LinkBudget(),
        array=BsArrayConfig(),
        transmit_snr=1e12,
    )


def default_sweep() -> SweepSpec:
    return SweepSpec(
        areas_m2=(0.1, 0.2, 0.3, 0.4),
        kappas=(0.0, 0.1, 0.5, 1.0),
        aspects=(1.0, 20.0),
        thresholds_db=tuple(20.0 + 0.5 * i for i in range(41)),
        setups=("A", "B", "C"),
    )


@dataclass(frozen=True)
class ExperimentConfig:
    system: SystemConfig = dataclasses.field(default_factory=default_system)
    grid: GridSpec = GridSpec(32, 32)  # applied to each sweep geometry
    replicates: int = 10000
    seed: int = 20260810
    sweep: SweepSpec = dataclasses.field(default_factory=default_sweep)
    output_path: str | None = None

    def __post_init__(self):
        if not isinstance(self.grid, GridSpec):
            raise ConfigError(f"grid must be a GridSpec, got {self.grid!r}")
        if not (isinstance(self.replicates, numbers.Integral) and self.replicates >= 2):
            raise ConfigError("replicates must be an integer >= 2, for a standard error")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ConfigError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class ResultTable:
    columns: tuple
    rows: tuple
    provenance: dict


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    threshold: float
    passed: bool
    note: str = ""


# --------------------------------------------------------------------------
# config loading
# --------------------------------------------------------------------------

# fields that a document may also give in decibels, as <name>_db
_GAINS = {"c0", "transmit_snr"}


def _db_to_linear(db: float) -> float:
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise ConfigError(f"{db} dB is out of range") from None


def _section(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(value).__name__}")
    return value


def _value(value, like, where: str):
    """``value`` as the type of ``like``: a string (also where ``like`` is
    None), an integral int or a finite float."""
    if like is None or isinstance(like, str):
        if not isinstance(value, str):
            raise ConfigError(f"{where} must be a string, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if isinstance(like, int):
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{where} must be an integer, got {value!r}")
        return int(value)
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return value


def _merge(obj, doc, where: str | None = None):
    """``obj`` with the fields that ``doc`` gives replaced; ``where`` is the
    section's path, None at the top level.

    Nested dataclasses merge section by section, enums parse from their
    value, a tuple takes a JSON list whose entries are typed like the
    default's first entry, and every other field goes through :func:`_value`.
    """
    label = where or "top level"
    section = _section(doc, label)
    # the wavelength comes from system.carrier_hz or system.wavelength_m
    names = {f.name for f in dataclasses.fields(obj)} - {"wavelength_m"}
    extra = set(section) - names - {f"{name}_db" for name in names & _GAINS}
    if extra:
        raise ConfigError(f"unknown keys {sorted(extra)} in {label}")
    changes = {}
    for key, value in section.items():
        at = f"{where}.{key}" if where else key
        name = key.removesuffix("_db") if key.removesuffix("_db") in _GAINS else key
        if name in changes:
            raise ConfigError(f"give either {name} or {name}_db, not both")
        current = getattr(obj, name)
        if dataclasses.is_dataclass(current):
            changes[name] = _merge(current, value, at)
        elif isinstance(current, enum.Enum):
            try:
                changes[name] = type(current)(str(value).lower())
            except ValueError:
                choices = [member.value for member in type(current)]
                raise ConfigError(f"{at} must be one of {choices}, got {value!r}") from None
        elif isinstance(current, tuple):
            if not isinstance(value, list):
                raise ConfigError(f"{at} must be a JSON list")
            changes[name] = tuple(_value(v, current[0], f"{at}[{i}]")
                                  for i, v in enumerate(value))
        else:
            number = _value(value, current, at)
            changes[name] = number if name == key else _db_to_linear(number)
    try:
        return dataclasses.replace(obj, **changes)
    except DomainError as exc:
        raise ConfigError(f"{label}: {exc}") from None


def _wavelength(sys_doc: dict) -> float:
    """The wavelength given by ``carrier_hz`` or ``wavelength_m``, popped
    from the system section."""
    if "carrier_hz" in sys_doc and "wavelength_m" in sys_doc:
        raise ConfigError("give either carrier_hz or wavelength_m, not both")
    if "wavelength_m" in sys_doc:
        wavelength = _value(sys_doc.pop("wavelength_m"), 1.0, "system.wavelength_m")
    else:
        carrier = _value(sys_doc.pop("carrier_hz", DEFAULT_CARRIER_HZ), DEFAULT_CARRIER_HZ,
                         "system.carrier_hz")
        if not carrier > 0.0:
            raise ConfigError("system.carrier_hz must be positive")
        wavelength = SPEED_OF_LIGHT / carrier
    if not 0.0 < wavelength < math.inf:
        raise ConfigError("the wavelength must be positive and finite")
    return wavelength


def load_config(document: dict | None) -> ExperimentConfig:
    """Build an experiment config from a parsed JSON document.

    Starts from the defaults and replaces only what the document gives;
    raises :class:`ConfigError` on any malformed document.
    """
    doc = dict(_section({} if document is None else document, "config"))
    sys_doc = dict(_section(doc.get("system", {}), "system"))
    wavelength = _wavelength(sys_doc)
    if "correlation" in sys_doc:
        # the array's correlation follows the surface's unless given
        sys_doc.setdefault("bs_correlation", sys_doc["correlation"])
    if doc.get("output_path") is None:  # null keeps the default
        doc.pop("output_path", None)
    base = ExperimentConfig(
        system=_with_correlation(default_system(), wavelength_m=wavelength))
    return _merge(base, {**doc, "system": sys_doc})


def config_to_dict(value):
    """A config as the JSON document that :func:`load_config` reads back.

    Walks the dataclass tree and writes enums by value; the wavelength that
    both correlation models carry goes once to ``system.wavelength_m``.
    """
    if isinstance(value, enum.Enum):
        return value.value
    if not dataclasses.is_dataclass(value):
        return value
    doc = {f.name: config_to_dict(getattr(value, f.name))
           for f in dataclasses.fields(value)}
    if isinstance(value, SystemConfig):
        doc["wavelength_m"] = doc["correlation"].pop("wavelength_m")
        del doc["bs_correlation"]["wavelength_m"]
    return doc


def config_hash(cfg: ExperimentConfig) -> str:
    doc = config_to_dict(cfg)
    doc.pop("output_path", None)  # the destination does not shape the numbers
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# --------------------------------------------------------------------------
# scenarios
# --------------------------------------------------------------------------

def _with_correlation(system: SystemConfig, **changes) -> SystemConfig:
    """``system`` with ``changes`` applied to both correlation models."""
    return dataclasses.replace(
        system,
        correlation=dataclasses.replace(system.correlation, **changes),
        bs_correlation=dataclasses.replace(system.bs_correlation, **changes))


def _point(system: SystemConfig, area=None, aspect=1.0, model=None, kappa=None,
           setup=None) -> SystemConfig:
    """``system`` at one sweep point; an axis left at None keeps its
    configured value, as does the ``custom`` setup."""
    if area is not None:
        width = math.sqrt(aspect * area)
        system = dataclasses.replace(
            system, geometry=SurfaceGeometry(width_m=width, height_m=area / width))
    if model is not None:
        system = _with_correlation(system, kind=model)
    if kappa is not None:
        system = _with_correlation(system, kappa=kappa)
    if setup not in (None, "custom"):
        d_y, d_rb, d_x = SETUPS[setup]
        system = dataclasses.replace(system, link=dataclasses.replace(
            system.link, d_y_m=d_y, d_rb_m=d_rb, d_x_m=d_x))
    return system


def _point_seed(master: int, salt: int, index: int) -> int:
    return int(np.random.SeedSequence((master, salt, index)).generate_state(1, np.uint64)[0])


# The Monte Carlo columns move by roundoff with the BLAS library and its
# thread count, so the provenance records both.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _blas() -> str:
    """Name and version of the BLAS numpy was built against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no such config
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"


def _provenance(cfg: ExperimentConfig) -> dict:
    return {"config_sha256": config_hash(cfg), "seed": cfg.seed, "version": __version__,
            "numpy": np.__version__, "blas": _blas(),
            **{var: os.environ.get(var, "unset") for var in _BLAS_THREAD_VARS},
            "grid": f"{cfg.grid.nx}x{cfg.grid.ny}", "replicates": cfg.replicates}


def _fig2_rows(cfg, point, snr, batch):
    s = batch.summaries()
    return [(point["area"], point["model"].value, snr.mu1, s.mean_snr, s.se_mean_snr)]


def _fig3_rows(cfg, point, snr, batch):
    return [(point["kappa"], point["area"], se_bound(snr.mu1),
             batch.summaries().mean_se_bits, dominant_error_term(snr.mu1, snr.mu2))]


def _fig4_rows(cfg, point, snr, batch):
    # one array call each; tolist() keeps the cells Python floats
    x = [_db_to_linear(t_db) for t_db in cfg.sweep.thresholds_db]
    gamma = outage_probability(gamma_fit(snr.mu1, snr.mu2), x).tolist()
    empirical = EmpiricalCdf(batch.snr_samples)(x).tolist()
    return [(point["area"], point["aspect"], point["model"].value, t_db, g, e)
            for t_db, g, e in zip(cfg.sweep.thresholds_db, gamma, empirical)]


def _fig5_rows(cfg, point, snr, batch):
    s = batch.summaries()
    return [(point["area"], point["kappa"], point["setup"],
             cv_squared(snr.mu1, snr.mu2), s.var_snr / s.mean_snr ** 2)]


def _table1_rows(cfg, point, snr, batch):
    seb, det = se_bound(snr.mu1), dominant_error_term(snr.mu1, snr.mu2)
    return [(point["kappa"], seb, det, 100.0 * det / seb)]


@dataclass(frozen=True)
class _Scenario:
    """One result table: a row function over the product of sweep axes."""

    axes: tuple              # point axes, outermost first
    columns: tuple
    rows: Callable           # (cfg, point, SnrMoments, batch or None) -> rows
    salt: int | None = None  # Monte Carlo seed salt; None draws no batch
    fixed: tuple = ()        # (axis, value) pairs held at every point
    lists: tuple = ()        # further sweep lists the rows read


# the sweep list behind each point axis; the model axis runs over both models
_AXIS_SWEEPS = {"area": "areas_m2", "aspect": "aspects", "kappa": "kappas",
                "setup": "setups"}
_MODELS = (CorrelationKind.SINC, CorrelationKind.JAKES)

_SCENARIOS = {
    "fig2": _Scenario(
        axes=("area", "model"), salt=2, rows=_fig2_rows,
        columns=("area", "model", "mu1_analytic", "mean_snr_mc", "se_mc")),
    "fig3": _Scenario(
        axes=("kappa", "area"), salt=3, rows=_fig3_rows,
        columns=("kappa", "area", "se_bound", "mean_se_mc", "det")),
    "fig4": _Scenario(
        axes=("area", "aspect", "model"), lists=("thresholds_db",), salt=4,
        rows=_fig4_rows,
        columns=("area", "aspect", "model", "snr_threshold_db",
                 "outage_gamma", "outage_empirical")),
    # setup innermost: the layouts of one (area, kappa) share a surface factor
    "fig5": _Scenario(
        axes=("area", "kappa", "setup"), fixed=(("model", CorrelationKind.SINC),),
        salt=5, rows=_fig5_rows,
        columns=("area", "kappa", "setup", "cv2_analytic", "cv2_mc")),
    "table1": _Scenario(
        axes=("kappa",), rows=_table1_rows,
        columns=("kappa", "seb", "det", "det_over_seb_pct")),
}

SCENARIOS = tuple(_SCENARIOS)


def run_scenario(name: str, cfg: ExperimentConfig) -> ResultTable:
    """Produce the data table for one named scenario."""
    if name not in _SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}; expected one of {SCENARIOS}")
    spec = _SCENARIOS[name]
    sweeps = [_AXIS_SWEEPS[axis] for axis in spec.axes if axis != "model"]
    for key in sweeps + list(spec.lists):
        if not getattr(cfg.sweep, key):
            raise ConfigError(f"scenario {name} requires a {key} sweep")
    axes = [_MODELS if axis == "model" else getattr(cfg.sweep, _AXIS_SWEEPS[axis])
            for axis in spec.axes]
    rows = []
    for index, values in enumerate(itertools.product(*axes)):
        point = {**dict(spec.fixed), **dict(zip(spec.axes, values))}
        system = _point(cfg.system, **point)
        batch = None
        if spec.salt is not None:
            batch = run_replicates(system, cfg.grid, cfg.replicates,
                                   _point_seed(cfg.seed, spec.salt, index))
        rows += spec.rows(cfg, point, snr_moments(system), batch)
    return ResultTable(columns=spec.columns, rows=tuple(rows),
                       provenance=_provenance(cfg))


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

def validate(cfg: ExperimentConfig) -> tuple[CheckResult, ...]:
    """Run the cross-oracle consistency checks on the configured system."""
    checks = []
    system = cfg.system
    geom = system.geometry

    def record(name, fn, threshold, note=""):
        try:
            measured = float(fn())
            passed = measured <= threshold
        except ContrisError as exc:
            measured = float("nan")
            passed = False
            note = f"{type(exc).__name__}: {exc}"
        checks.append(CheckResult(name=name, measured=measured,
                                  threshold=threshold, passed=passed, note=note))

    gains = derive_gains(system)
    m1 = moment_m1(geom, gains.beta_ur)

    def m2_cross():
        iso = moment_m2_iso(geom, system.correlation, gains.beta_ur)
        brute = moment_m2_quad4(geom, system.correlation, gains.beta_ur)
        return abs(iso - brute) / brute

    record("m2_iso_vs_quad4_rel", m2_cross, 1e-4)

    def fs_norm():
        total, _ = adaptive_gauss_kronrod(
            lambda r: rect_distance_pdf(geom, r),
            [0.0, *geom.canonical()[::-1], geom.diagonal_m],
            QuadratureSpec(rel_tol=1e-12))
        return abs(total - 1.0)

    record("distance_pdf_normalization", fs_norm, 1e-10)

    n_small = min(cfg.replicates, 20000)
    oracle = Oracle.build(system, cfg.grid)
    batch = oracle.batch(n_small, _point_seed(cfg.seed, 0, 0))
    summary = batch.summaries()

    record("mean_y_exactness_z",
           lambda: abs(summary.mean_y - m1) / summary.se_mean_y, 3.0,
           note=f"n={n_small}")

    # computed once, by the first check that succeeds in computing it
    snr = functools.cache(lambda: snr_moments(system))

    def jensen_slack():
        # bound minus empirical mean rate, in 3-standard-error units below 0
        return (summary.mean_se_bits - 3.0 * summary.se_mean_se_bits
                - se_bound(snr().mu1))

    record("jensen_dominance_slack", jensen_slack, 0.0)

    def gamma_round_trip():
        mu1, mu2 = snr().mu1, snr().mu2
        fit = gamma_fit(mu1, mu2)
        return max(abs(fit.mean - mu1) / mu1,
                   abs(fit.variance - (mu2 - mu1 ** 2)) / (mu2 - mu1 ** 2))

    record("gamma_fit_round_trip_rel", gamma_round_trip, 1e-12)

    def snr_identity():
        # the batch's first block, redrawn through the batch's own factors and
        # scored by the expansion in Y, against the norm form of the same
        # draws under their optimal phases
        coeffs, h_d = oracle.draw_block(batch.seed, 0)
        k = min(batch.n, h_d.shape[1])
        fields, h_d = sample_field(oracle.sampler, coeffs)[:, :k], h_d[:, :k]
        norm = oracle.snr_under(fields, h_d, oracle.optimal_phases(fields, h_d))
        return np.max(np.abs(batch.snr_samples[:k] - norm) / norm)

    record("snr_expansion_identity_rel", snr_identity, 1e-10)

    return tuple(checks)


# --------------------------------------------------------------------------
# output
# --------------------------------------------------------------------------

def emit(table: ResultTable, path: str) -> None:
    """Write the table as CSV with '#'-prefixed provenance comments."""
    lines = [f"# {key}={value}" for key, value in table.provenance.items()]
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(map(str, row)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def _parse_grid(text: str) -> GridSpec:
    try:
        nx, ny = text.lower().split("x")
        return GridSpec(int(nx), int(ny))
    except ValueError:
        raise ConfigError(f"grid must look like 32x32, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contris",
        description="Continuous-surface link statistics: analytic engine, "
                    "Monte Carlo validation and scenario tables.")
    parser.add_argument("--config", help="path to a JSON config document")
    parser.add_argument("--scenario", choices=SCENARIOS,
                        help="named result table to produce")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--replicates", type=int, help="override replicate count")
    parser.add_argument("--grid", help="override grid, e.g. 64x64")
    parser.add_argument("--out", help="output CSV path")
    parser.add_argument("--validate", action="store_true",
                        help="run the cross-oracle validation checks and exit")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        document = None
        if args.config:
            try:
                with open(args.config, encoding="utf-8") as fh:
                    document = json.load(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}")
            except ValueError as exc:  # also bad UTF-8 and over-long integers
                raise ConfigError(f"config is not valid JSON: {exc}")
        cfg = load_config(document)
        overrides = {"seed": args.seed, "replicates": args.replicates, "output_path": args.out,
                     "grid": None if args.grid is None else _parse_grid(args.grid)}
        cfg = dataclasses.replace(cfg, **{key: value for key, value in overrides.items()
                                          if value is not None})

        if args.validate:
            checks = validate(cfg)
            for check in checks:
                status = "PASS" if check.passed else "FAIL"
                note = f"  ({check.note})" if check.note else ""
                print(f"[{status}] {check.name}: measured {check.measured:.3e}"
                      f" vs threshold {check.threshold:.3e}{note}")
            return 0 if all(check.passed for check in checks) else 1

        if not args.scenario:
            raise ConfigError("--scenario is required unless --validate is given")
        if not cfg.output_path:
            raise ConfigError("an output path is required (--out or output_path)")
        table = run_scenario(args.scenario, cfg)
        emit(table, cfg.output_path)
        print(f"wrote {len(table.rows)} rows to {cfg.output_path}")
        return 0
    except (ContrisError, ArithmeticError) as exc:
        # every library error names a malformed config or a configured model
        # outside the library's domain; so does a number out of float range
        reason = "" if isinstance(exc, ContrisError) else "out of floating-point range: "
        print(f"config error: {reason}{exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
