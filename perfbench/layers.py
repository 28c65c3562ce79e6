"""Which contris functions the traced run wraps, and the per-layer metrics.

Metric names are ``<module>.<function>.<measure>``.  ``calls``, ``points``
(array elements taken in), ``s`` (inclusive seconds) and ``self_s``
(inclusive minus wrapped callees) come from every wrapper; the other
measures are recorded by the ``observe``/``prepare`` hooks below.  Each
metric is reported on every workload, zero where the workload never calls
the function.
"""

from __future__ import annotations

import numpy as np

from tracer import Target


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _points(index, name):
    return lambda args, kwargs: int(np.size(_arg(args, kwargs, index, name)))


def _count_nodes(stat, args, kwargs):
    """Hand adaptive_gauss_kronrod an integrand that counts its nodes."""
    integrand = _arg(args, kwargs, 0, "f")
    stat.extra.setdefault("nodes", 0)

    def counted(x):
        stat.extra["nodes"] += np.size(x)
        return integrand(x)

    if args:
        return (counted, *args[1:]), kwargs
    return args, {**kwargs, "f": counted}


def _max_n(stat, args, kwargs, result):
    n = np.shape(_arg(args, kwargs, 0, "matrix"))[0]
    stat.extra["max_n"] = max(stat.extra.get("max_n", 0), n)


def _distinct_system(stat, args, kwargs, result):
    stat.keys.add(_arg(args, kwargs, 0, "cfg"))


def _covariance(stat, args, kwargs, result):
    geom = _arg(args, kwargs, 0, "geom")
    grid = _arg(args, kwargs, 1, "grid")
    model = _arg(args, kwargs, 2, "model")
    # beta_ur only scales the factor, so it is not part of the key
    stat.keys.add((geom, grid, model))
    stat.extra["grid_points"] = max(stat.extra.get("grid_points", 0), grid.n_points)
    stat.extra["rank"] = max(stat.extra.get("rank", 0), result.rank)


def _replicates(stat, args, kwargs, result):
    stat.extra["replicates"] = stat.extra.get("replicates", 0) + result.n


TARGETS = (
    Target("contris.specfun", "gauss_2f1_half", points=_points(0, "z")),
    Target("contris.specfun", "bessel_j0", points=_points(0, "x")),
    Target("contris.specfun", "sinc_norm", points=_points(0, "x")),
    Target("contris.specfun", "reg_lower_gamma"),
    Target("contris.quadrature", "adaptive_gauss_kronrod", prepare=_count_nodes),
    Target("contris.sysmodel:IsotropicCorrelation", "rho", points=_points(0, "r_m")),
    Target("contris.sysmodel", "clipped_eigh", observe=_max_n),
    Target("contris.sysmodel", "bs_correlation_matrix"),
    Target("contris.analytic", "link_terms", observe=_distinct_system),
    Target("contris.analytic", "moment_m2_iso"),
    Target("contris.analytic", "moment_m2_quad4"),
    Target("contris.analytic", "outage_probability", points=_points(1, "x")),
    Target("contris.mcsim", "build_surface_covariance", observe=_covariance),
    Target("contris.mcsim", "run_replicates", observe=_replicates),
    Target("contris.mcsim", "sample_field"),
    Target("contris.mcsim", "sample_direct_channel"),
    Target("contris.mcsim", "compute_Y"),
    Target("contris.cli", "load_config"),
    Target("contris.cli", "validate"),
)

# (function label, measures); every measure below is one per-layer metric
MEASURES = (
    ("specfun.gauss_2f1_half", ("calls", "points", "s")),
    ("specfun.bessel_j0", ("points", "s")),
    ("specfun.sinc_norm", ("points", "s")),
    ("specfun.reg_lower_gamma", ("calls", "s")),
    ("quadrature.adaptive_gauss_kronrod", ("calls", "nodes", "self_s")),
    ("sysmodel.IsotropicCorrelation.rho", ("points", "s")),
    ("sysmodel.clipped_eigh", ("calls", "max_n", "s")),
    ("sysmodel.bs_correlation_matrix", ("calls", "s")),
    ("analytic.link_terms", ("calls", "s", "distinct_fraction")),
    ("analytic.moment_m2_iso", ("calls", "s", "self_s")),
    ("analytic.moment_m2_quad4", ("calls", "s", "self_s")),
    ("analytic.outage_probability", ("points", "s")),
    ("mcsim.build_surface_covariance",
     ("calls", "s", "grid_points", "rank", "distinct_fraction")),
    ("mcsim.run_replicates", ("calls", "replicates", "s", "self_s")),
    ("mcsim.sample_field", ("calls", "s")),
    ("mcsim.sample_direct_channel", ("calls", "s")),
    ("mcsim.compute_Y", ("calls", "s")),
    ("cli.load_config", ("s",)),
    ("cli.validate", ("s",)),
)

_UNITS = {"s": ("s", "lower"), "self_s": ("s", "lower"),
          "distinct_fraction": ("ratio", "higher"), "replicates": ("count", "higher")}

# whole-pass figures of the traced run: the tracing overhead against the
# untraced pass on the same inputs
OVERHEAD = (
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def per_layer_metrics():
    """[(name, unit, better)] for every per-layer metric, in report order."""
    out = []
    for label, measures in MEASURES:
        for measure in measures:
            unit, better = _UNITS.get(measure, ("count", "lower"))
            out.append((f"{label}.{measure}", unit, better))
    return out + list(OVERHEAD)


def layer_values(stats) -> dict:
    """Per-layer metric values from one traced pass's statistics."""
    values = {}
    for label, measures in MEASURES:
        stat = stats[label]
        for measure in measures:
            value = stat.extra[measure] if measure in stat.extra else getattr(stat, measure, 0)
            values[f"{label}.{measure}"] = value
    return values
