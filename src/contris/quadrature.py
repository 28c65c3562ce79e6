"""Adaptive Gauss-Kronrod quadrature.

The 7-15 Gauss-Kronrod pair is applied per segment; whenever the summed
error estimate misses the tolerance, the segments carrying more than their
share of the budget are bisected.  Integrands must be vectorized: every
refinement round evaluates all new nodes in a single call, which keeps the
per-call overhead of the array kernels in the moment integrals (the
hypergeometric kernel and the correlation models) off the node count.

Interior derivative kinks go in as breakpoints; one run refines all the
intervals between them against one error budget, as QUADPACK's QAGP does.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, QuadratureFailure

__all__ = [
    "QuadratureSpec",
    "adaptive_gauss_kronrod",
]


# segments the rule may split one whole integral into before it gives up
_MAX_SEGMENTS = 4096


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for the 1-D adaptive rule, and ``nodes_4d``, the nodes
    per axis of the oracle's tensor rule (``analytic.moment_m2_quad4``)."""

    rel_tol: float = 1e-8
    nodes_4d: int = 32

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise DomainError("rel_tol must lie in (0, 1); 1 or more bounds nothing")
        if not (isinstance(self.nodes_4d, numbers.Integral) and self.nodes_4d >= 8):
            raise DomainError("nodes_4d must be an integer >= 8")


# 7-point Gauss / 15-point Kronrod pair on [-1, 1] (QUADPACK constants).
_XGK_POS = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK_POS = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.concatenate([-_XGK_POS[:7], _XGK_POS[7:][::-1], _XGK_POS[6::-1]])
_W_KRONROD = np.concatenate([_WGK_POS[:7], _WGK_POS[7:][::-1], _WGK_POS[6::-1]])
_W_GAUSS = np.zeros(15)
_W_GAUSS[[1, 13]] = _WG[0]
_W_GAUSS[[3, 11]] = _WG[1]
_W_GAUSS[[5, 9]] = _WG[2]
_W_GAUSS[7] = _WG[3]


def _eval_segments(f, lo: np.ndarray, hi: np.ndarray):
    """Kronrod and Gauss estimates plus error for a batch of segments."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _NODES[None, :]
    vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    kron = half * (vals @ _W_KRONROD)
    gauss = half * (vals @ _W_GAUSS)
    return kron, np.abs(kron - gauss)


def adaptive_gauss_kronrod(
    f: Callable[[np.ndarray], np.ndarray],
    breakpoints: Sequence[float],
    spec: QuadratureSpec = QuadratureSpec(),
) -> tuple[float, float]:
    """Integrate a vectorized integrand from the first breakpoint to the last.

    The rule starts from the non-empty intervals between consecutive
    breakpoints (duplicate or inverted ones are skipped) and refines them all
    against one target, ``spec.rel_tol * |total|``, so an interval holding a
    tiny share of the integral is not asked for more than roundoff allows.
    Returns ``(value, error_estimate)``; raises :class:`QuadratureFailure`
    when the target cannot be met within ``_MAX_SEGMENTS`` segments.
    """
    edges = np.asarray(breakpoints, dtype=float)
    keep = edges[1:] > edges[:-1]
    if not keep.any():
        return 0.0, 0.0

    seg_lo = edges[:-1][keep]
    seg_hi = edges[1:][keep]
    est, err = _eval_segments(f, seg_lo, seg_hi)

    while True:
        total = est.sum()
        target = spec.rel_tol * abs(total)
        total_err = err.sum()
        if total_err <= target:
            return float(total), float(total_err)
        if seg_lo.size >= _MAX_SEGMENTS:
            raise QuadratureFailure(
                f"tolerance {target:.3e} unreachable within {_MAX_SEGMENTS} "
                f"segments (error estimate {total_err:.3e})",
                estimate=float(total), error=float(total_err))

        # bisect every segment holding more than its share of the budget;
        # the worst segment always qualifies, so progress is guaranteed
        threshold = target / (2.0 * seg_lo.size)
        split = err > threshold
        if not split.any():
            split[np.argmax(err)] = True
        mids = 0.5 * (seg_lo[split] + seg_hi[split])
        new_lo = np.concatenate([seg_lo[split], mids])
        new_hi = np.concatenate([mids, seg_hi[split]])
        new_est, new_err = _eval_segments(f, new_lo, new_hi)

        seg_lo = np.concatenate([seg_lo[~split], new_lo])
        seg_hi = np.concatenate([seg_hi[~split], new_hi])
        est = np.concatenate([est[~split], new_est])
        err = np.concatenate([err[~split], new_err])
