"""Monte Carlo oracle for the optimally phased surface.

The continuous surface is discretized at cell centers, the correlated
complex Gaussian field is drawn through an eigenfactor of the grid
covariance, and each replicate applies the SNR-optimal phase design, so
that the per-draw SNR reduces to a function of the aggregate amplitude Y,
the direct channel and the arrival steering vector.  No symbol-level
waveform is ever materialized.  The grid covariance depends only on the
cell offsets, and the grid's reflections split it into four independent
blocks, which are built and factorized separately.  The replicate loop
sums Y from the four blocks' parts of the field over a few mirror rows at
a time and never builds the field on the whole grid.

Every sample is drawn by :meth:`Oracle.draw_block`, one fixed block of
256 replicates at a time, and every per-draw function takes column blocks.

Determinism contract: block b draws from its own stream seeded by
(master seed, b), so results are a pure function of (seed, config, grid,
n) and the first k samples of a longer run equal a shorter run's.  Reruns
are bit-identical at a fixed BLAS thread count; another thread count moves
the samples by roundoff.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import CovarianceRepairFailure, DomainError
from .sysmodel import (
    IsotropicCorrelation,
    SurfaceGeometry,
    SystemConfig,
    clip_spectrum,
    derive_gains,
    bs_correlation_matrix,
    steering_vector,
)

__all__ = [
    "GridSpec",
    "FieldSampler",
    "ReplicateBatch",
    "BatchSummary",
    "EmpiricalCdf",
    "make_grid",
    "suggest_grid",
    "surface_blocks",
    "build_surface_covariance",
    "sample_field",
    "compute_Y",
    "sample_direct_channel",
    "direct_factor",
    "optimal_phase_profile",
    "optimal_snr_sample",
    "snr_under_profile",
    "Oracle",
    "run_replicates",
]

_SQRT_HALF = 1.0 / math.sqrt(2.0)

# eigenvalues below this fraction of the largest carry only roundoff noise;
# dropping them keeps the factor rank small without moving the covariance
# beyond the 1e-10 reconstruction contract
_RANK_TRUNCATION = 1e-13

_CLIPPED_MASS_LIMIT = 1e-6

# field values that FieldSampler.abs_sums unfolds at a time, 0.5 MB
_CHUNK = 1 << 16

# suggest_grid keeps cells below this fraction of the correlation period per
# axis, with this many cells per axis at least and at most
_CELL_FRACTION = 0.25
_MIN_SIDE = 8
_MAX_SIDE = 256


@dataclass(frozen=True)
class GridSpec:
    """Cell-centered discretization of the surface."""

    nx: int
    ny: int
    cell_area: float

    def __post_init__(self):
        if not all(isinstance(n, numbers.Integral) and n >= 2 for n in (self.nx, self.ny)):
            raise DomainError("grid point counts must be integers >= 2")
        if not 0.0 < self.cell_area < math.inf:
            raise DomainError("cell_area must be positive and finite")

    @property
    def n_points(self) -> int:
        return self.nx * self.ny


def make_grid(geom: SurfaceGeometry, nx: int, ny: int) -> GridSpec:
    """Grid of nx * ny cells covering the surface."""
    return GridSpec(nx=nx, ny=ny, cell_area=geom.area_m2 / (nx * ny))


def suggest_grid(geom: SurfaceGeometry, model: IsotropicCorrelation) -> GridSpec:
    """Grid whose cells resolve the correlation length of the field.

    Cells are kept below a quarter of the effective correlation period
    (wavelength / kappa) per axis, with 8 to 256 cells per axis.  Perfect
    correlation needs no resolution, so kappa = 0 returns the minimum grid.
    """
    def side(length: float) -> int:
        if model.kappa <= 0.0:
            return _MIN_SIDE
        target = _CELL_FRACTION * model.wavelength_m / model.kappa
        return min(max(_MIN_SIDE, math.ceil(length / target)), _MAX_SIDE)

    return make_grid(geom, side(geom.width_m), side(geom.height_m))


# The grid's reflection in each axis splits the cells of that axis into an
# even half with basis (e_r + e_{n-1-r}) / sqrt 2 per representative cell
# r < n / 2, plus e_c for the centre cell c = (n - 1) / 2 when n is odd, and
# an odd half with basis (e_r - e_{n-1-r}) / sqrt 2.  The four (x, y) parity
# blocks, even first, in the order FieldSampler.blocks keeps them:
_PARITIES = ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))


def _half_scale(n: int, sign: float) -> np.ndarray:
    """Entry scale of each representative cell of one parity half of an
    n-cell axis: 1, or sqrt(1/2) for the centre cell.  The cell's basis
    vector has magnitude sqrt(1/2) / scale on each cell it covers."""
    r = np.arange((n + 1) // 2 if sign > 0 else n // 2)
    return np.where(2 * r == n - 1, _SQRT_HALF, 1.0)


def surface_blocks(
    geom: SurfaceGeometry, grid: GridSpec, model: IsotropicCorrelation,
) -> tuple:
    """The four diagonal blocks of the grid correlation in the reflection
    basis, (x, y) parities (even, even), (even, odd), (odd, even), (odd, odd).

    ``rho`` is evaluated once per cell offset.  For a correlation f of the
    offsets, the 1-D entry between representatives r and t of the half of
    sign s is scale_r scale_t (f(|r - t|) + s f(n - 1 - r - t)): each block
    is Toeplitz plus Hankel in each axis, gathered from the offset table.
    Rows are x-major over the representative cells.
    """
    nx, ny = grid.nx, grid.ny
    table = np.asarray(model.rho(np.hypot(np.arange(nx)[:, None] * (geom.width_m / nx),
                                          np.arange(ny)[None, :] * (geom.height_m / ny))),
                       dtype=float)
    table[0, 0] = 1.0

    def offsets(n, size):
        r = np.arange(size)
        return np.abs(r[:, None] - r[None, :]), (n - 1) - r[:, None] - r[None, :]

    blocks = []
    for sx, sy in _PARITIES:
        scale_x, scale_y = _half_scale(nx, sx), _half_scale(ny, sy)
        direct_x, mirror_x = offsets(nx, scale_x.size)
        direct_y, mirror_y = offsets(ny, scale_y.size)
        folded = table[direct_x] + sx * table[mirror_x]
        r = np.arange(scale_x.size)[:, None, None, None]
        t = r.reshape(1, 1, -1, 1)
        block = (folded[r, t, direct_y[None, :, None, :]]
                 + sy * folded[r, t, mirror_y[None, :, None, :]])
        scale = np.outer(scale_x, scale_y).ravel()
        blocks.append(block.reshape(scale.size, scale.size) * np.outer(scale, scale))
    return tuple(blocks)


@dataclass(frozen=True)
class FieldSampler:
    """Factorized covariance of the surface field on a grid.

    ``blocks`` holds one real factor per block of :func:`surface_blocks`,
    in its order.  Block k's factor maps its coefficients to the field's
    parity part k at the representative cells (the lower quarter of the
    grid), with the basis weights and the unit row-power scaling in its
    rows.  :meth:`apply` unfolds the four parts onto the whole grid, and
    :meth:`abs_sums` sums the field's magnitude over the grid chunk by
    chunk without building it.  The dense factor ``apply(np.eye(rank))``
    satisfies factor @ factor^T ~= beta_ur * Sigma with exact per-point
    marginal variance beta_ur.
    """

    blocks: tuple
    grid: GridSpec
    clipped_mass: float

    @property
    def rank(self) -> int:
        return sum(block.shape[1] for block in self.blocks)

    def _parts(self, coeffs: np.ndarray) -> list:
        """The four parity parts, (x rows, y rows, k) each, for real
        coefficient columns (rank, k); rows follow the blocks in order."""
        ny, hy = self.grid.ny, self.grid.ny // 2
        parts, start = [], 0
        for block, (_, sy) in zip(self.blocks, _PARITIES):
            stop = start + block.shape[1]
            rows_y = ny - hy if sy > 0 else hy
            parts.append((block @ coeffs[start:stop]).reshape(-1, rows_y, coeffs.shape[1]))
            start = stop
        return parts

    def apply(self, coeffs: np.ndarray) -> np.ndarray:
        """Fields on the grid, (n_points, k), for real coefficient columns
        (rank, k); rows follow the blocks in order."""
        field = np.empty((self.grid.nx, self.grid.ny, coeffs.shape[1]))
        return _unfold(*self._parts(coeffs), field).reshape(self.grid.n_points, -1)

    def abs_sums(self, coeffs: np.ndarray) -> np.ndarray:
        """Y = cell_area * sum over the grid of |field|, (k / 2,), for the
        complex fields of :meth:`Oracle.draw_block`'s coefficient columns
        (rank, k): real parts first, imaginary ones last, scaled by
        sqrt(1/2).

        The field is unfolded a few lower-half x rows and their mirror rows
        at a time, about _CHUNK values whatever the number of columns, and
        only their magnitudes are kept.
        """
        ee, eo, oe, oo = self._parts(coeffs)
        ny, k = self.grid.ny, coeffs.shape[1]
        half = k // 2
        step = max(1, _CHUNK // (2 * ny * k))
        out = np.empty((2 * step, ny, k))
        magnitude = np.empty((2 * step * ny, half))
        total = np.zeros(half)
        for lo in range(0, ee.shape[0], step):
            rows = slice(lo, lo + step)
            cells = ee[rows].shape[0] + oe[rows].shape[0]
            field = _unfold(ee[rows], eo[rows], oe[rows], oo[rows], out[:cells]).reshape(-1, k)
            field *= field
            power = np.add(field[:, :half], field[:, half:], out=magnitude[:field.shape[0]])
            total += np.sqrt(power, out=power).sum(axis=0)
        return (self.grid.cell_area * _SQRT_HALF) * total


def _unfold(ee, eo, oe, oo, out):
    """The field at a run of lower-half x rows and at their mirror rows,
    from the four parity parts of those rows, (x rows, y rows, k) each.

    A mirror quartet of cells holds (ee +- eo) +- (oe +- oo), and a cell on
    a centre line only its even terms.  ``out`` takes the rows of ``ee``
    and then the mirror rows of ``oe`` in reverse order, so for the whole
    lower half it is the whole grid.
    """
    ny, hy, mx = out.shape[1], eo.shape[1], oe.shape[0]
    odd_x = np.empty((mx,) + out.shape[1:])
    # unfold y within each x half, then x: a pair of mirror cells holds
    # even + odd and even - odd, a centre cell its even part alone
    for dst, even, odd_y in ((out[:ee.shape[0]], ee, eo), (odd_x, oe, oo)):
        np.subtract(even[:, :hy], odd_y, out=dst[:, ny - hy:][:, ::-1])
        np.add(even[:, :hy], odd_y, out=dst[:, :hy])
        dst[:, hy:ny - hy] = even[:, hy:]
    np.subtract(out[:mx], odd_x, out=out[out.shape[0] - mx:][::-1])
    out[:mx] += odd_x
    return out


def _fix_signs(eigvecs: np.ndarray) -> None:
    """Flip eigenvector columns in place so each has a positive projection
    on the ramp 1, 2, ..., n.

    LAPACK leaves the sign of an eigenvector to the implementation, and
    OpenBLAS picks other signs at another thread count, which would change
    every sample drawn through the flipped columns.  The ramp decides the
    sign only where the projection stands well clear of roundoff.  That
    holds for the parity blocks of the surface, which carry no mirror
    symmetry: their kept columns project at 1e-10 of the ramp's norm or
    more on every grid tested.  It fails for a matrix with a mirror
    symmetry in two axes, such as R_d: its eigenvectors that are odd in
    both axes are orthogonal to every affine function of the flat index, so
    :func:`direct_factor` uses a factor that carries no signs.
    """
    ramp = np.arange(1.0, eigvecs.shape[0] + 1.0)
    eigvecs *= np.where(ramp @ eigvecs < 0.0, -1.0, 1.0)


def _unit_factors(blocks, weights) -> tuple[list, list, float]:
    """Real factors F_k with F_k F_k^T ~= block_k for the diagonal blocks
    of one correlation matrix, scaled so that every point has unit power;
    the kept eigenvectors V_k of each block, F_k's column space; and the
    clipped mass.

    ``weights[k]`` holds the weight of block k's basis vector on each point
    its rows cover, one entry per row, shaped as the leading corner of
    ``weights[0]`` that those points fill.  A point's power is
    sum_k weights[k]^2 * (row power of F_k) over the blocks that cover it.
    The clipped-mass limit, the rejection ratio and the rank truncation are
    judged on the union of the block spectra, as for the whole matrix.
    Each eigenvector's sign is fixed by :func:`_fix_signs`.
    """
    spectra = [np.linalg.eigh(0.5 * (block + block.T)) for block in blocks]
    for _, eigvecs in spectra:
        _fix_signs(eigvecs)
    eigvals, clipped_mass = clip_spectrum(np.concatenate([w for w, _ in spectra]))
    if clipped_mass > _CLIPPED_MASS_LIMIT:
        raise CovarianceRepairFailure(
            f"clipped eigenvalue mass {clipped_mass:.3e} exceeds "
            f"{_CLIPPED_MASS_LIMIT:.0e}")
    keep = eigvals > _RANK_TRUNCATION * eigvals.max()
    corners = [tuple(map(slice, weight.shape)) for weight in weights]
    factors, bases, start = [], [], 0
    power = np.zeros(weights[0].shape)
    for (_, eigvecs), weight, corner in zip(spectra, weights, corners):
        stop = start + eigvecs.shape[1]
        # eigh sorts each spectrum ascending, so the dropped columns lead
        kept = slice(np.count_nonzero(~keep[start:stop]), None)
        bases.append(eigvecs[:, kept])
        factors.append(bases[-1] * np.sqrt(eigvals[start:stop][kept]))
        power[corner] += weight ** 2 * (factors[-1] ** 2).sum(axis=1).reshape(weight.shape)
        start = stop
    if np.any(power <= 0.0):
        raise CovarianceRepairFailure("a grid point lost all covariance mass")
    unit = 1.0 / np.sqrt(power)
    for factor, weight, corner in zip(factors, weights, corners):
        factor *= (weight * unit[corner]).reshape(-1, 1)
    return factors, bases, clipped_mass


def build_surface_covariance(
    geom: SurfaceGeometry,
    grid: GridSpec,
    model: IsotropicCorrelation,
    beta_ur: float,
) -> FieldSampler:
    """Correlation of the grid points, repaired and factorized per block.

    The blocks are those of :func:`surface_blocks`.  A point's row power is
    the same at its four mirror images, so the unit row-power scaling and
    sqrt(beta_ur) go into the rows of the block factors, with the weight of
    each row's basis vector on the grid.
    """
    if not 0.0 < beta_ur < math.inf:
        raise DomainError("beta_ur must be positive and finite")
    weights = [0.5 / np.outer(_half_scale(grid.nx, sx), _half_scale(grid.ny, sy))
               for sx, sy in _PARITIES]
    factors, _, clipped_mass = _unit_factors(surface_blocks(geom, grid, model), weights)
    for factor in factors:
        factor *= math.sqrt(beta_ur)
    return FieldSampler(blocks=tuple(factors), grid=grid, clipped_mass=clipped_mass)


def direct_factor(r_d: np.ndarray, beta_d: float) -> np.ndarray:
    """Real factor D with D D^T = beta_d R_d / 2, the covariance of each
    component of the direct channel CN(0, beta_d R_d): the (M, M) map from
    :meth:`Oracle.draw_block`'s unit normals to either component.

    D = F V^T for the unit-power factor F of R_d and its kept eigenvectors
    V, so an eigenvector's sign cancels in D, and so does any rotation
    within an exactly degenerate eigenspace.  R_d's mirror symmetries leave
    the signs of some columns of :func:`_fix_signs` to roundoff, and a
    square array has degenerate eigenvalue pairs; D depends on neither.
    """
    (factor,), (basis,), _ = _unit_factors([r_d], [np.ones(r_d.shape[0])])
    return math.sqrt(0.5 * beta_d) * (factor @ basis.T)


def sample_field(sampler: FieldSampler, coeffs: np.ndarray) -> np.ndarray:
    """Complex fields on the grid, (n_points, k), for the coefficient
    columns (rank, 2k) of :meth:`Oracle.draw_block`; marginals
    CN(0, beta_ur)."""
    re, im = np.split(sampler.apply(_SQRT_HALF * coeffs), 2, axis=1)
    return re + 1j * im


def compute_Y(fields: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Riemann sums of the field magnitudes over the surface, (k,) for
    fields (n_points, k)."""
    if np.ndim(fields) != 2 or fields.shape[0] != grid.n_points:
        raise DomainError("fields must have one row per grid point")
    return grid.cell_area * np.abs(fields).sum(axis=0)


def sample_direct_channel(factor: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Direct channels, (M, k), from normal columns (M, 2k) through a
    :func:`direct_factor`: channel j takes its real part from column j and
    its imaginary part from column k + j."""
    h = factor @ normals
    k = normals.shape[1] // 2
    return h[:, :k] + 1j * h[:, k:]


def optimal_phase_profile(
    fields: np.ndarray, h_d: np.ndarray, a_b: np.ndarray,
) -> np.ndarray:
    """SNR-maximizing unit-modulus phases, (n_points, k), for fields
    (n_points, k) and direct channels (M, k): cancel each field's phase and
    align with its direct channel's projection on the steering vector.

    An exactly zero projection, a probability-zero event, aligns with 1.
    """
    proj = a_b.conj() @ h_d
    magnitude = np.abs(proj)
    omega = np.divide(proj, magnitude, out=np.ones_like(proj), where=magnitude > 0.0)
    return omega * np.exp(-1j * np.angle(fields))


def optimal_snr_sample(h_d: np.ndarray, y, a_b: np.ndarray, cfg: SystemConfig):
    """Post-design SNR in expanded form: gamma (||h_d||^2 + M beta_rb Y^2
    + 2 sqrt(beta_rb) Y |a^H h_d|).

    Scores one draw, h_d of shape (M,) with a scalar Y, or a block of
    draws, the columns of h_d with an array of as many Y values.  Equals
    :func:`snr_under_profile` under :func:`optimal_phase_profile` up to
    roundoff.
    """
    if np.min(y) < 0.0:
        raise DomainError("Y must be >= 0")
    beta_rb = derive_gains(cfg).beta_rb
    hd_power = (h_d.real ** 2 + h_d.imag ** 2).sum(axis=0)
    proj_mag = np.abs(a_b.conj() @ h_d)
    return cfg.transmit_snr * (
        hd_power + a_b.size * beta_rb * y * y + 2.0 * math.sqrt(beta_rb) * y * proj_mag)


def snr_under_profile(
    fields: np.ndarray,
    h_d: np.ndarray,
    a_b: np.ndarray,
    phases: np.ndarray,
    cfg: SystemConfig,
    grid: GridSpec,
) -> np.ndarray:
    """SNR under unit-modulus reflection phases, (k,), for the columns of
    fields (n_points, k), direct channels (M, k) and phases (n_points, k);
    a single column of fields and channels broadcasts against k phases."""
    beta_rb = derive_gains(cfg).beta_rb
    reflected = grid.cell_area * (phases * fields).sum(axis=0)
    h = h_d + math.sqrt(beta_rb) * np.outer(a_b, reflected)
    return cfg.transmit_snr * (h.real ** 2 + h.imag ** 2).sum(axis=0)


@dataclass(frozen=True)
class BatchSummary:
    mean_snr: float
    se_mean_snr: float
    var_snr: float
    mean_y: float
    se_mean_y: float
    var_y: float
    mean_se_bits: float
    se_mean_se_bits: float


@dataclass(frozen=True)
class ReplicateBatch:
    """Monte Carlo samples of (Y, SNR) with their master seed."""

    n: int
    snr_samples: np.ndarray
    y_samples: np.ndarray
    seed: int

    def __post_init__(self):
        if self.n != self.snr_samples.size or self.n != self.y_samples.size:
            raise DomainError("sample arrays must have length n")
        if not (np.all(np.isfinite(self.snr_samples))
                and np.all(np.isfinite(self.y_samples))):
            raise DomainError("samples must be finite")
        if self.snr_samples.min(initial=0.0) < 0.0 or self.y_samples.min(initial=0.0) < 0.0:
            raise DomainError("samples must be nonnegative")

    def se_samples(self) -> np.ndarray:
        """Per-replicate spectral efficiency log2(1 + SNR)."""
        return np.log2(1.0 + self.snr_samples)

    def summaries(self) -> BatchSummary:
        """Estimator summaries, recomputed from the stored samples."""
        if self.n < 2:
            raise DomainError("a standard error needs two replicates at least")
        snr = self.snr_samples
        y = self.y_samples
        se = self.se_samples()
        sqrt_n = math.sqrt(self.n)
        return BatchSummary(
            mean_snr=float(snr.mean()),
            se_mean_snr=float(snr.std(ddof=1) / sqrt_n),
            var_snr=float(snr.var(ddof=1)),
            mean_y=float(y.mean()),
            se_mean_y=float(y.std(ddof=1) / sqrt_n),
            var_y=float(y.var(ddof=1)),
            mean_se_bits=float(se.mean()),
            se_mean_se_bits=float(se.std(ddof=1) / sqrt_n),
        )


# Replicates are drawn and scored in fixed blocks, each drawn in full, also
# past n, and run through identically shaped BLAS calls, so a replicate's
# value depends only on its index: reruns agree bit for bit and prefixes
# agree across n.
_BLOCK = 256


@dataclass(frozen=True)
class Oracle:
    """The Monte Carlo oracle of one system on one grid: its surface
    sampler, array :func:`direct_factor` and steering vector, built once.

    Block b of the batch with a master seed, replicates 256 b to 256 b +
    255, is ``draw_block(seed, b)``, always drawn in full, so a batch is a
    pure function of (seed, cfg, grid, n) and the first k samples of a
    longer run equal a shorter run's.  Reruns are bit-identical at a fixed
    BLAS thread count; another thread count moves them by roundoff.
    """

    cfg: SystemConfig
    sampler: FieldSampler
    direct: np.ndarray
    a_b: np.ndarray

    @classmethod
    def build(cls, cfg: SystemConfig, grid: GridSpec) -> Oracle:
        """Check that ``grid`` covers the surface; factor both correlations."""
        area = cfg.geometry.area_m2
        if abs(grid.cell_area * grid.n_points - area) > 1e-9 * area:
            raise DomainError("grid does not cover the configured surface")
        gains = derive_gains(cfg)
        return cls(
            cfg=cfg,
            sampler=build_surface_covariance(cfg.geometry, grid, cfg.correlation,
                                             gains.beta_ur),
            direct=direct_factor(bs_correlation_matrix(cfg.array, cfg.bs_correlation),
                                 gains.beta_d),
            a_b=steering_vector(cfg.array))

    def draw_block(self, seed: int, index: int) -> tuple[np.ndarray, np.ndarray]:
        """Replicate block ``index`` of the batch with master ``seed``: its
        field coefficients, (rank, 512), and its direct channels, (M, 256).

        The block's normals are one C-order draw from the stream seeded by
        (seed, index).  Rows are the field coefficients, then the direct
        ones, so the field rows do not depend on M; columns are the real
        parts of the block's 256 replicates, then their imaginary parts.
        The normals have unit variance and a unit complex draw 1/2 per
        component, so the maps from them scale by sqrt(1/2):
        :meth:`FieldSampler.abs_sums` gives the block's Y and
        :func:`sample_field` its fields.
        """
        rank = self.sampler.rank
        z = np.random.default_rng(np.random.SeedSequence((seed, index))).standard_normal(
            (rank + self.direct.shape[1], 2 * _BLOCK))
        return z[:rank], sample_direct_channel(self.direct, z[rank:])

    def batch(self, n: int, seed: int) -> ReplicateBatch:
        """The first n replicates of the batch with master ``seed``, scored.

        Y is summed by :meth:`FieldSampler.abs_sums` from the parity parts
        of the field, in a fixed order of chunks, so it equals the Riemann
        sum of :func:`sample_field`'s fields to roundoff, not bit for bit.
        """
        if not (isinstance(n, numbers.Integral) and n >= 1):
            raise DomainError("n must be an integer >= 1")
        if not (isinstance(seed, numbers.Integral) and seed >= 0):
            raise DomainError("seed must be a nonnegative integer")
        padded = -(-n // _BLOCK) * _BLOCK
        y = np.empty(padded)
        snr = np.empty(padded)
        for index, start in enumerate(range(0, padded, _BLOCK)):
            coeffs, h_d = self.draw_block(seed, index)
            rows = slice(start, start + _BLOCK)
            y[rows] = self.sampler.abs_sums(coeffs)
            snr[rows] = optimal_snr_sample(h_d, y[rows], self.a_b, self.cfg)
        return ReplicateBatch(n=n, snr_samples=snr[:n], y_samples=y[:n], seed=seed)


def run_replicates(cfg: SystemConfig, grid: GridSpec, n: int, seed: int) -> ReplicateBatch:
    """Draw n independent (field, direct channel) pairs and score them:
    ``Oracle.build(cfg, grid).batch(n, seed)``."""
    return Oracle.build(cfg, grid).batch(n, seed)


class EmpiricalCdf:
    """Right-continuous empirical CDF of a sample."""

    def __init__(self, samples: np.ndarray):
        if samples.size == 0:
            raise DomainError("empirical CDF needs at least one sample")
        self.sorted = np.sort(np.asarray(samples, dtype=float))
        self.n = self.sorted.size

    def __call__(self, x):
        idx = np.searchsorted(self.sorted, np.asarray(x, dtype=float), side="right")
        out = idx / self.n
        return float(out) if np.ndim(x) == 0 else out

    def ks_distance(self, cdf) -> float:
        """Kolmogorov-Smirnov distance to a continuous CDF callable."""
        ref = np.asarray(cdf(self.sorted), dtype=float)
        steps = np.arange(1, self.n + 1) / self.n
        return float(max(np.max(steps - ref), np.max(ref - (steps - 1.0 / self.n))))

