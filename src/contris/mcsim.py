"""Monte Carlo oracle for the optimally phased surface.

The continuous surface is discretized at cell centers, the correlated
complex Gaussian field is drawn through an eigenfactor of the grid
covariance, and each replicate applies the SNR-optimal phase design, so
that the per-draw SNR reduces to a function of the aggregate amplitude Y,
the direct channel and the arrival steering vector.  No symbol-level
waveform is ever materialized.  The grid covariance depends only on the
cell offsets, and the grid's reflections split the field into four
independent parity parts, the half-sums (h(r) +- h(n - 1 - r)) / 2 along
each axis, whose covariance blocks are built and factorized separately.
The replicate loop sums Y from the four parts over a few mirror rows at a
time and never builds the field on the whole grid.

The unit-power surface factor depends only on (geometry, grid, model):
beta_ur scales it, so the last one built is kept read-only, and the next
call with the same key reuses it; sqrt(beta_ur) is applied where the factor
is used.  Its rank is cut by tail mass: the smallest eigenvalues whose sum
is at most 1e-12 of the spectrum's total are dropped.

Every sample is drawn by :meth:`Oracle.draw_block`, one fixed block of
256 replicates at a time, and scored by the same oracle: :meth:`Oracle.snr`
from Y, or :meth:`Oracle.snr_under` phases such as
:meth:`Oracle.optimal_phases`.  Every per-draw function takes column blocks.

Determinism contract: in block b, parity block k of the field draws from
its own substream seeded by (master seed, b, k) and the direct channel
from (master seed, b, 4), so results are a pure function of (seed, config,
grid, n) and the first k samples of a longer run equal a shorter run's.
Each block's factor columns run in descending eigenvalue order, so a rank
change only adds or drops a trailing column with its own normals, and
moves the samples by about sqrt(lambda_cut), not by a redraw.  Reruns are
bit-identical at a fixed BLAS thread count; another thread count moves
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
    clipped_eigh,
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
    "Oracle",
    "run_replicates",
]

_SQRT_HALF = 1.0 / math.sqrt(2.0)

# the smallest eigenvalues whose sum is at most this fraction of the
# spectrum's total carry only roundoff noise; dropping them keeps the factor
# rank small without moving the covariance beyond the 1e-10 reconstruction
# contract
_TAIL_MASS = 1e-12

_SNR_OVERFLOW = "transmit_snr times the path gains leaves the floating-point range"

# field values that FieldSampler.abs_sums unfolds at a time, 0.5 MB
_CHUNK = 1 << 16

# suggest_grid keeps cells below this fraction of the correlation period per
# axis, with this many cells per axis at least and at most; GridSpec admits no
# more than _MAX_SIDE (a 256x256 grid's factor blocks take about 9 GB)
_CELL_FRACTION = 0.25
_MIN_SIDE = 8
_MAX_SIDE = 256


@dataclass(frozen=True)
class GridSpec:
    """Cell-centered discretization of a surface into nx x ny equal cells."""

    nx: int
    ny: int

    def __post_init__(self):
        if not all(isinstance(n, numbers.Integral) and 2 <= n <= _MAX_SIDE
                   for n in (self.nx, self.ny)):
            raise DomainError(f"grid point counts must be integers in [2, {_MAX_SIDE}]")
        # a numpy integer would multiply in its own, possibly narrow, dtype
        object.__setattr__(self, "nx", int(self.nx))
        object.__setattr__(self, "ny", int(self.ny))

    @property
    def n_points(self) -> int:
        return self.nx * self.ny

    def cell_area(self, geom: SurfaceGeometry) -> float:
        """Area of one cell of this grid on ``geom``."""
        return geom.area_m2 / self.n_points


def make_grid(geom: SurfaceGeometry, nx: int, ny: int) -> GridSpec:
    # kept for the callers in perfbench/
    return GridSpec(nx, ny)


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

    return GridSpec(side(geom.width_m), side(geom.height_m))


# The grid's reflection in each axis splits a field h on an n-cell axis into
# even and odd parts, held at the representative cells r < n / 2 (and the
# centre cell c = (n - 1) / 2 of the even part, when n is odd) as half-sums
# (h(r) +- h(n - 1 - r)) / 2, so h(c) itself.  The four (x, y) parity parts,
# even first, in the order FieldSampler.blocks keeps them:
_PARITIES = ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))


def _half(n: int, sign: float) -> int:
    """Representative cells of the part of sign ``sign`` on an n-cell axis."""
    return (n + 1) // 2 if sign > 0 else n // 2


def surface_blocks(
    geom: SurfaceGeometry, grid: GridSpec, model: IsotropicCorrelation,
) -> tuple:
    """The covariances of the grid correlation's four parity parts, (x, y)
    parities (even, even), (even, odd), (odd, even), (odd, odd), which are
    mutually independent.

    ``rho`` is evaluated once per cell offset.  For a correlation f of the
    offsets, the 1-D covariance of the half-sums of sign s at representative
    cells r and t is (f(|r - t|) + s f(n - 1 - r - t)) / 2, the centre cell
    included: each block is Toeplitz plus Hankel in each axis, gathered from
    the offset table.  Rows are x-major over the representative cells.
    """
    nx, ny = grid.nx, grid.ny
    table = np.asarray(model.rho(np.hypot(np.arange(nx)[:, None] * (geom.width_m / nx),
                                          np.arange(ny)[None, :] * (geom.height_m / ny))),
                       dtype=float)
    table[0, 0] = 1.0

    def offsets(n, sign):
        r = np.arange(_half(n, sign))
        return np.abs(r[:, None] - r[None, :]), (n - 1) - r[:, None] - r[None, :]

    blocks = []
    for sx, sy in _PARITIES:
        direct_x, mirror_x = offsets(nx, sx)
        direct_y, mirror_y = offsets(ny, sy)
        folded = table[direct_x] + sx * table[mirror_x]
        r = np.arange(direct_x.shape[0])[:, None, None, None]
        t = r.reshape(1, 1, -1, 1)
        block = (folded[r, t, direct_y[None, :, None, :]]
                 + sy * folded[r, t, mirror_y[None, :, None, :]])
        blocks.append(0.25 * block.reshape(direct_x.shape[0] * direct_y.shape[0], -1))
    return tuple(blocks)


@dataclass(frozen=True)
class FieldSampler:
    """Factorized covariance of the surface field on a grid.

    ``blocks`` holds one real unit-power factor per block of
    :func:`surface_blocks`, in its order, read-only and shared with the
    next sampler of the same (geometry, grid, model).  Block k's factor maps
    its coefficients to the field's half-sum parity part k at the
    representative cells (the lower quarter of the grid), with the unit
    row-power scaling in its rows and its columns by descending eigenvalue.
    :meth:`apply` unfolds the four parts onto the whole grid, and
    :meth:`abs_sums` sums the field's magnitude over the grid chunk by
    chunk without building it; both scale by sqrt(beta_ur).  The dense
    factor ``apply(np.eye(rank))`` satisfies factor @ factor^T ~= beta_ur *
    Sigma with exact per-point marginal variance beta_ur.  ``cell_area`` is
    the area of one grid cell on the sampled surface, each point's weight in Y.
    """

    blocks: tuple
    grid: GridSpec
    cell_area: float
    clipped_mass: float
    beta_ur: float

    @property
    def rank(self) -> int:
        return sum(block.shape[1] for block in self.blocks)

    def _parts(self, coeffs: np.ndarray) -> list:
        """The four parity parts at unit power, (x rows, y rows, k) each,
        for real coefficient columns (rank, k); rows follow the blocks."""
        parts, start = [], 0
        for block, (_, sy) in zip(self.blocks, _PARITIES):
            stop = start + block.shape[1]
            rows_y = _half(self.grid.ny, sy)
            parts.append((block @ coeffs[start:stop]).reshape(-1, rows_y, coeffs.shape[1]))
            start = stop
        return parts

    def apply(self, coeffs: np.ndarray) -> np.ndarray:
        """Fields on the grid, (n_points, k), for real coefficient columns
        (rank, k); rows follow the blocks in order."""
        field = np.empty((self.grid.nx, self.grid.ny, coeffs.shape[1]))
        parts = self._parts(math.sqrt(self.beta_ur) * coeffs)
        return _unfold(*parts, field).reshape(self.grid.n_points, -1)

    def abs_sums(self, coeffs: np.ndarray) -> np.ndarray:
        """Y = cell_area * sum over the grid of |field|, (k / 2,), for the
        complex fields of :meth:`Oracle.draw_block`'s coefficient columns
        (rank, k): real parts first, imaginary ones last, scaled by
        sqrt(1/2).

        The field is unfolded a few lower-half x rows and their mirror rows
        at a time, about _CHUNK values whatever the number of columns, and
        only their magnitudes are kept; sqrt(beta_ur) scales the sums.
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
        return (self.cell_area * _SQRT_HALF * math.sqrt(self.beta_ur)) * total


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
    symmetry: their kept columns project at 1e-8 of the ramp's norm or more
    on every grid tested (sinc 32x32: 1.3e-8; sinc 33x33, with centre
    lines: 2.0e-8).  R_d's mirror symmetries defeat the ramp, so
    :func:`direct_factor` uses a factor that carries no signs.
    """
    ramp = np.arange(1.0, eigvecs.shape[0] + 1.0)
    eigvecs *= np.where(ramp @ eigvecs < 0.0, -1.0, 1.0)


def _unit_factors(eigvals, bases, shapes) -> tuple[list, list]:
    """Real factors F_k of the covariances of independent parts whose sum
    is the field, scaled so that every point has unit power, and the kept
    eigenvectors V_k of each block, F_k's column space.

    ``eigvals`` is the clipped union of the block spectra, each ascending
    as ``eigh`` returns it, and ``bases[k]`` holds block k's eigenvectors.
    Block k's rows are the points of the leading corner ``shapes[k]`` of
    the array ``shapes[0]``, in C order.  A point's power is the sum of
    the row powers of F_k over the blocks that cover it.
    The rank cut is judged on the union, as for the whole matrix: the
    smallest eigenvalues whose sum is at most _TAIL_MASS of the total are
    dropped.  Each block's kept columns run in descending eigenvalue order,
    so a cut moved by one eigenvalue adds or drops a trailing column.
    """
    # eigh sorts each spectrum ascending, and a stable sort of the union keeps
    # that order among ties, so each block's dropped columns lead
    order = np.argsort(eigvals, kind="stable")
    tail = np.cumsum(eigvals[order])
    drop = np.zeros(eigvals.size, dtype=bool)
    drop[order[:np.count_nonzero(tail <= _TAIL_MASS * tail[-1])]] = True
    corners = [tuple(map(slice, shape)) for shape in shapes]
    factors, kept, start = [], [], 0
    power = np.zeros(shapes[0])
    for eigvecs, shape, corner in zip(bases, shapes, corners):
        stop = start + eigvecs.shape[1]
        dropped = np.count_nonzero(drop[start:stop])
        kept.append(eigvecs[:, dropped:][:, ::-1])
        factors.append(kept[-1] * np.sqrt(eigvals[start:stop][dropped:][::-1]))
        power[corner] += (factors[-1] ** 2).sum(axis=1).reshape(shape)
        start = stop
    if np.any(power <= 0.0):
        raise CovarianceRepairFailure("a grid point lost all covariance mass")
    unit = 1.0 / np.sqrt(power)
    for factor, corner in zip(factors, corners):
        factor *= unit[corner].reshape(-1, 1)
    return factors, kept


# the unit factors of the last (geometry, grid, model) built, by that key
_last_surface: dict = {}


def _unit_surface(geom: SurfaceGeometry, grid: GridSpec,
                  model: IsotropicCorrelation) -> tuple[tuple, float]:
    """The read-only unit-power block factors of the grid correlation and
    their clipped mass.  Only the last (geometry, grid, model) is kept:
    consecutive systems that differ only in their link budget share it, and
    the previous factor is freed before another is built.  Eigenvector
    signs follow :func:`_fix_signs`; the block spectra are clipped as one."""
    key = (geom, grid, model)
    if key not in _last_surface:
        _last_surface.clear()
        shapes = [(_half(grid.nx, sx), _half(grid.ny, sy)) for sx, sy in _PARITIES]
        spectra = [np.linalg.eigh(block) for block in surface_blocks(geom, grid, model)]
        for _, eigvecs in spectra:
            _fix_signs(eigvecs)
        eigvals, clipped_mass = clip_spectrum(np.concatenate([w for w, _ in spectra]))
        factors, _ = _unit_factors(eigvals, [v for _, v in spectra], shapes)
        for factor in factors:
            factor.flags.writeable = False
        _last_surface[key] = (tuple(factors), clipped_mass)
    return _last_surface[key]


def build_surface_covariance(
    geom: SurfaceGeometry,
    grid: GridSpec,
    model: IsotropicCorrelation,
    beta_ur: float,
) -> FieldSampler:
    """Correlation of the grid points, clipped and factorized per block.

    The blocks are those of :func:`surface_blocks`.  A point's power, the
    sum of its parity parts' powers, is the same at its four mirror images,
    so the unit row-power scaling goes into the rows of the block factors.
    A call with the (geometry, grid, model) of the previous one shares its
    unit factors; the sampler applies sqrt(beta_ur).
    """
    if not 0.0 < beta_ur < math.inf:
        raise DomainError("beta_ur must be positive and finite")
    blocks, clipped_mass = _unit_surface(geom, grid, model)
    return FieldSampler(blocks=blocks, grid=grid, cell_area=grid.cell_area(geom),
                        clipped_mass=clipped_mass, beta_ur=beta_ur)


def direct_factor(r_d: np.ndarray, beta_d: float) -> np.ndarray:
    """Real factor D with D D^T = beta_d R_d / 2, the covariance of each
    component of the direct channel CN(0, beta_d R_d): the (M, M) map from
    :meth:`Oracle.draw_block`'s unit normals to either component.

    R_d is eigendecomposed once, by :func:`clipped_eigh`, and D = F V^T for
    the unit-power factor F of its clipped spectrum and its kept
    eigenvectors V.  So an eigenvector's sign cancels in D, and so does any
    rotation within an exactly degenerate eigenspace: R_d's mirror
    symmetries leave some signs to roundoff, and a square array has
    degenerate eigenvalue pairs, but D depends on neither.
    """
    eigvals, eigvecs, _ = clipped_eigh(r_d)
    (factor,), (basis,) = _unit_factors(eigvals, [eigvecs], [r_d.shape[:1]])
    return math.sqrt(0.5 * beta_d) * (factor @ basis.T)


def sample_field(sampler: FieldSampler, coeffs: np.ndarray) -> np.ndarray:
    """Complex fields on the grid, (n_points, k), for the coefficient
    columns (rank, 2k) of :meth:`Oracle.draw_block`; marginals
    CN(0, beta_ur)."""
    re, im = np.split(sampler.apply(_SQRT_HALF * coeffs), 2, axis=1)
    return re + 1j * im


def compute_Y(fields: np.ndarray, sampler: FieldSampler) -> np.ndarray:
    """Riemann sums of the field magnitudes over the sampler's surface, (k,)
    for fields (n_points, k)."""
    _check_fields(fields, sampler)
    return sampler.cell_area * np.abs(fields).sum(axis=0)


def _check_fields(fields: np.ndarray, sampler: FieldSampler) -> None:
    if np.ndim(fields) != 2 or fields.shape[0] != sampler.grid.n_points:
        raise DomainError("fields must have one row per grid point")


def sample_direct_channel(factor: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Direct channels, (M, k), from normal columns (M, 2k) through a
    :func:`direct_factor`: channel j takes its real part from column j and
    its imaginary part from column k + j."""
    h = factor @ normals
    k = normals.shape[1] // 2
    return h[:, :k] + 1j * h[:, k:]


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
        # n squares of deviations below the largest sample sum to a finite variance
        if snr.max() > math.sqrt(np.finfo(float).max / self.n):
            raise DomainError(
                f"{_SNR_OVERFLOW}: SNR samples up to {snr.max():.3e} overflow their variance")
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
    sampler, array :func:`direct_factor`, steering vector and gain beta_rb,
    built once.  It scores its own draws: :meth:`snr` by the expansion in
    Y, :meth:`snr_under` by the norm form under phases such as
    :meth:`optimal_phases`.

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
    beta_rb: float

    @classmethod
    def build(cls, cfg: SystemConfig, grid: GridSpec) -> Oracle:
        """Factor both correlations of ``cfg``, the surface's on ``grid``."""
        gains = derive_gains(cfg)
        return cls(
            cfg=cfg,
            sampler=build_surface_covariance(cfg.geometry, grid, cfg.correlation,
                                             gains.beta_ur),
            direct=direct_factor(bs_correlation_matrix(cfg.array, cfg.bs_correlation),
                                 gains.beta_d),
            a_b=steering_vector(cfg.array),
            beta_rb=gains.beta_rb)

    def draw_block(self, seed: int, index: int) -> tuple[np.ndarray, np.ndarray]:
        """Replicate block ``index`` of the batch with master ``seed``: its
        field coefficients, (rank, 512), and its direct channels, (M, 256).

        The block's normals fill one (rank + M, 512) array: the rows of
        parity block k are a C-order draw from the substream seeded by
        (seed, index, k), and the direct rows one from (seed, index, 4).
        So the field rows do not depend on M, and a parity block that keeps
        one more column draws one more trailing row and moves no other
        normal.  Columns are the real parts of the block's 256 replicates,
        then their imaginary parts.  The normals have unit variance and a
        unit complex draw 1/2 per component, so the maps from them scale by
        sqrt(1/2): :meth:`FieldSampler.abs_sums` gives the block's Y and
        :func:`sample_field` its fields.
        """
        sizes = [block.shape[1] for block in self.sampler.blocks] + [self.direct.shape[1]]
        z = np.empty((sum(sizes), 2 * _BLOCK))
        for k, rows in enumerate(np.split(z, np.cumsum(sizes)[:-1])):
            np.random.default_rng(np.random.SeedSequence((seed, index, k))).standard_normal(
                out=rows)
        rank = self.sampler.rank
        return z[:rank], sample_direct_channel(self.direct, z[rank:])

    def batch(self, n: int, seed: int) -> ReplicateBatch:
        """The first n replicates of the batch with master ``seed``, scored.

        Y is summed by :meth:`FieldSampler.abs_sums` from the parity parts
        of the field, in a fixed order of chunks, so it equals the Riemann
        sum of :func:`sample_field`'s fields to roundoff, not bit for bit.
        An SNR past the floating-point range raises :class:`DomainError`.
        """
        _check_batch(n, seed)
        n = int(n)  # a numpy integer would overflow in the padding below
        padded = -(-n // _BLOCK) * _BLOCK
        y = np.empty(padded)
        snr = np.empty(padded)
        for index, start in enumerate(range(0, padded, _BLOCK)):
            coeffs, h_d = self.draw_block(seed, index)
            rows = slice(start, start + _BLOCK)
            y[rows] = self.sampler.abs_sums(coeffs)
            with np.errstate(over="ignore"):
                snr[rows] = self.snr(h_d, y[rows])
        if not np.all(np.isfinite(snr)):
            raise DomainError(f"{_SNR_OVERFLOW}: an SNR sample overflows")
        return ReplicateBatch(n=n, snr_samples=snr[:n], y_samples=y[:n], seed=seed)

    def snr(self, h_d: np.ndarray, y):
        """Post-design SNR in expanded form: gamma (||h_d||^2 + M beta_rb Y^2
        + 2 sqrt(beta_rb) Y |a^H h_d|).

        Scores one draw, h_d of shape (M,) with a scalar Y, or a block of
        draws, the columns of h_d with an array of as many Y values.  Equals
        :meth:`snr_under` under :meth:`optimal_phases` up to roundoff.
        """
        if not np.all(y >= 0.0):  # also NaN
            raise DomainError("Y must be >= 0")
        hd_power = (h_d.real ** 2 + h_d.imag ** 2).sum(axis=0)
        proj_mag = np.abs(self.a_b.conj() @ h_d)
        return self.cfg.transmit_snr * (
            hd_power + self.a_b.size * self.beta_rb * y * y
            + 2.0 * math.sqrt(self.beta_rb) * y * proj_mag)

    def optimal_phases(self, fields: np.ndarray, h_d: np.ndarray) -> np.ndarray:
        """SNR-maximizing unit-modulus phases, (n_points, k), for fields
        (n_points, k) and direct channels (M, k): cancel each field's phase
        and align with its direct channel's projection on the steering
        vector.

        An exactly zero projection, a probability-zero event, aligns with 1.
        """
        proj = self.a_b.conj() @ h_d
        magnitude = np.abs(proj)
        omega = np.divide(proj, magnitude, out=np.ones_like(proj), where=magnitude > 0.0)
        return omega * np.exp(-1j * np.angle(fields))

    def snr_under(self, fields: np.ndarray, h_d: np.ndarray,
                  phases: np.ndarray) -> np.ndarray:
        """SNR under unit-modulus reflection phases, (k,), for the columns of
        fields (n_points, k) on this oracle's grid, direct channels (M, k)
        and phases (n_points, k); a single column of fields and channels
        broadcasts against k phases."""
        _check_fields(fields, self.sampler)
        reflected = self.sampler.cell_area * (phases * fields).sum(axis=0)
        h = h_d + math.sqrt(self.beta_rb) * np.outer(self.a_b, reflected)
        return self.cfg.transmit_snr * (h.real ** 2 + h.imag ** 2).sum(axis=0)


def _check_batch(n, seed) -> None:
    """Reject a replicate count or master seed that is not a usable integer;
    the count is at most what numpy can index."""
    most = np.iinfo(np.intp).max
    if not (isinstance(n, numbers.Integral) and 1 <= n <= most):
        raise DomainError(f"the replicate count must be an integer in [1, {most}]")
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise DomainError("seed must be a nonnegative integer")


def run_replicates(cfg: SystemConfig, grid: GridSpec, n: int, seed: int) -> ReplicateBatch:
    """Draw n independent (field, direct channel) pairs and score them:
    ``Oracle.build(cfg, grid).batch(n, seed)``, with n and seed checked
    before any factor is built."""
    _check_batch(n, seed)
    return Oracle.build(cfg, grid).batch(n, seed)


class EmpiricalCdf:
    """Right-continuous empirical CDF of a sample."""

    def __init__(self, samples: np.ndarray):
        self.sorted = np.sort(np.asarray(samples, dtype=float))
        self.n = self.sorted.size
        if self.n == 0 or np.isnan(self.sorted[-1]):  # NaN sorts last
            raise DomainError("empirical CDF needs at least one sample, and no NaN")

    def __call__(self, x):
        """P(sample <= x), vectorized in x; NaN raises :class:`DomainError`."""
        arr = np.asarray(x, dtype=float)
        if np.isnan(arr).any():
            raise DomainError("the empirical CDF is undefined at NaN")
        out = np.searchsorted(self.sorted, arr, side="right") / self.n
        return float(out) if np.ndim(x) == 0 else out

    def ks_distance(self, cdf) -> float:
        """Kolmogorov-Smirnov distance to a continuous CDF callable."""
        ref = np.asarray(cdf(self.sorted), dtype=float)
        steps = np.arange(1, self.n + 1) / self.n
        return float(max(np.max(steps - ref), np.max(ref - (steps - 1.0 / self.n))))

