import dataclasses
import math

import numpy as np
import pytest

from contris import mcsim
from contris.analytic import moment_m1, moment_m2_grid, moment_m2_iso
from contris.errors import CovarianceRepairFailure, DomainError
from contris.mcsim import (
    EmpiricalCdf,
    GridSpec,
    Oracle,
    ReplicateBatch,
    build_surface_covariance,
    compute_Y,
    direct_factor,
    run_replicates,
    sample_direct_channel,
    sample_field,
    suggest_grid,
    surface_blocks,
)
from contris.specfun import gauss_2f1_half
from contris.sysmodel import (
    BsArrayConfig,
    CorrelationKind,
    IsotropicCorrelation,
    SurfaceGeometry,
    bs_correlation_matrix,
    derive_gains,
    steering_vector,
)

from conftest import BETA_UR, WAVELENGTH, jakes, sinc_model


def small_geom():
    return SurfaceGeometry(math.sqrt(0.2), math.sqrt(0.2))


def dense_correlation(geom, grid, model):
    """Correlation of every pair of grid points, from the distances of the
    cell centres, x-major."""
    x = np.repeat((np.arange(grid.nx) + 0.5) * geom.width_m / grid.nx, grid.ny)
    y = np.tile((np.arange(grid.ny) + 0.5) * geom.height_m / grid.ny, grid.nx)
    dist = np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :])
    corr = model.rho(dist)
    np.fill_diagonal(corr, 1.0)
    return corr


def offset_table_m2(geom, model, beta_ur, nx, ny):
    """Exact E[Y^2] of the grid Riemann sum: cell_area^2 times the sum of
    E|h_p||h_q| = (pi beta_ur / 4) 2F1(-1/2, -1/2; 1; rho^2) over all cell
    pairs, gathered from the offset table with the multiplicity of each
    offset (i, j), (nx - |i|)(ny - |j|) per sign."""
    i, j = np.arange(nx)[:, None], np.arange(ny)[None, :]
    rho = model.rho(np.hypot(i * (geom.width_m / nx), j * (geom.height_m / ny)))
    kernel = 0.25 * math.pi * beta_ur * gauss_2f1_half(np.clip(rho * rho, 0.0, 1.0))
    kernel[0, 0] = beta_ur
    pairs = (nx - i) * (ny - j) * np.where(i > 0, 2, 1) * np.where(j > 0, 2, 1)
    return (geom.area_m2 / (nx * ny)) ** 2 * float((pairs * kernel).sum())


def half_sums(n, sign):
    """The map from a field on an n-cell axis to its even (sign 1) or odd
    (sign -1) half-sum part at the representative cells: row r holds 1/2 at
    r and sign/2 at n - 1 - r, so the centre row of the even part holds 1
    at the centre."""
    rows = (n + 1) // 2 if sign > 0 else n // 2
    out = np.zeros((rows, n))
    for r in range(rows):
        out[r, r] += 0.5
        out[r, n - 1 - r] += 0.5 * sign
    return out


PARITIES = ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))


def field_draws(oracle, n, seed):
    """The fields of the first n replicates of the batch with master seed
    ``seed``, (n_points, n), drawn block by block."""
    blocks = [sample_field(oracle.sampler, oracle.draw_block(seed, index)[0])
              for index in range(-(-n // 256))]
    return np.hstack(blocks)[:, :n]


class TestGrid:
    def test_cell_area(self):
        geom = SurfaceGeometry(2.0, 1.0)
        grid = GridSpec(8, 4)
        assert grid.cell_area(geom) == 2.0 / 32.0
        assert grid.n_points == 32
        sampler = build_surface_covariance(geom, grid, jakes(0.0), BETA_UR)
        assert sampler.cell_area == grid.cell_area(geom)

    def test_minimum_size(self):
        with pytest.raises(DomainError):
            GridSpec(1, 4)

    @pytest.mark.parametrize("nx,ny,width", [
        (2.5, 3, 0.1), (3.0, 3, 0.1), (3, 4.0, 0.1), (3, 3, math.inf), (3, 3, math.nan)])
    def test_non_integral_counts_and_non_finite_area_rejected(self, nx, ny, width):
        # a grid holds only its sides; a non-finite surface is rejected by
        # its geometry before a cell area is taken
        with pytest.raises(DomainError):
            GridSpec(nx, ny).cell_area(SurfaceGeometry(width, 1.0))

    def test_side_at_most_max_side(self):
        # constructs the spec only; a 256x256 grid's factors would take ~9 GB
        assert GridSpec(256, 2).n_points == 512
        for nx in (257, 99999999999999999999):
            with pytest.raises(DomainError):
                GridSpec(nx, 2)

    def test_numpy_integer_counts_accepted(self):
        assert GridSpec(np.int64(3), np.int32(4)).n_points == 12

    @pytest.mark.parametrize("side", [np.int8(100), np.uint8(255), np.int16(256)],
                             ids=["int8", "uint8", "int16"])
    def test_numpy_integer_counts_multiply_exactly(self, side):
        # the product leaves the sides' own dtype; a warning fails the test
        grid = GridSpec(side, side)
        assert grid.n_points == int(side) ** 2
        assert grid.cell_area(SurfaceGeometry(1.0, 1.0)) == 1.0 / int(side) ** 2

    def test_suggest_grid_resolves_correlation(self):
        geom = SurfaceGeometry(2.0, 0.1)
        grid = suggest_grid(geom, jakes(1.0))
        assert grid.nx / 2.0 >= 1.0 / (0.3 * WAVELENGTH)  # cells under 0.3 wavelengths
        assert grid.ny >= 8
        assert suggest_grid(geom, jakes(0.0)).nx == 8

    @pytest.mark.parametrize("nx,ny", [(2, 2), (7, 5), (8, 8), (43, 3), (49, 49)])
    @pytest.mark.parametrize("model", [jakes(0.0), jakes(1.0), sinc_model(0.5)],
                             ids=["jakes0", "jakes1", "sinc05"])
    def test_grid_moment_equals_offset_table(self, nx, ny, model):
        geom = SurfaceGeometry(0.7, 0.3)
        m2 = moment_m2_grid(geom, model, BETA_UR, GridSpec(nx, ny))
        assert m2 == pytest.approx(offset_table_m2(geom, model, BETA_UR, nx, ny), rel=1e-14)
        if nx * ny <= 64:
            # the same sum over every ordered pair of cells, without offsets
            corr = dense_correlation(geom, GridSpec(nx, ny), model)
            kernel = 0.25 * math.pi * BETA_UR * gauss_2f1_half(np.clip(corr * corr, 0.0, 1.0))
            assert m2 == pytest.approx((geom.area_m2 / (nx * ny)) ** 2 * kernel.sum(),
                                       rel=1e-13)

    @pytest.mark.parametrize("nx,ny,beta_ur", [
        (0, 3, BETA_UR), (3, 2.0, BETA_UR), (3, 3, 0.0), (3, 3, math.nan)])
    def test_grid_moment_domain(self, nx, ny, beta_ur):
        # the sides follow GridSpec's rule, applied as the grid is built
        with pytest.raises(DomainError):
            moment_m2_grid(small_geom(), jakes(1.0), beta_ur, GridSpec(nx, ny))


class TestSurfaceCovariance:
    def test_perfect_correlation_rank_one(self, rng):
        sampler = build_surface_covariance(small_geom(), GridSpec(4, 4),
                                           jakes(0.0), BETA_UR)
        assert sampler.rank == 1
        fields = sample_field(sampler, rng.standard_normal((1, 6)))
        assert fields.shape == (16, 3)
        assert np.allclose(fields, fields[0])

    def test_marginal_variance_exact(self):
        geom = small_geom()
        sampler = build_surface_covariance(geom, GridSpec(8, 8), jakes(), BETA_UR)
        factor = sampler.apply(np.eye(sampler.rank))
        diag = (factor * factor).sum(axis=1)
        assert np.max(np.abs(diag - BETA_UR)) <= 1e-12 * BETA_UR

    def test_reconstruction_and_clipped_mass(self):
        # odd sides put a centre row or column in the even parts
        geom = small_geom()
        for grid in (GridSpec(16, 16), GridSpec(15, 9), GridSpec(7, 7)):
            sampler = build_surface_covariance(geom, grid, jakes(), BETA_UR)
            assert sampler.clipped_mass < 1e-9
            cov = BETA_UR * dense_correlation(geom, grid, jakes())
            factor = sampler.apply(np.eye(sampler.rank))
            recon = factor @ factor.T
            assert np.max(np.abs(recon - cov)) <= 1e-10 * BETA_UR, grid

    def test_cached_blocks_reject_writes(self):
        geom = small_geom()
        sampler = build_surface_covariance(geom, GridSpec(8, 8), jakes(), BETA_UR)
        for block in sampler.blocks:
            with pytest.raises(ValueError):
                block[0, 0] = 1.0
            with pytest.raises(ValueError):
                block *= 2.0

    def test_layouts_share_one_unit_factor(self, paper_system, monkeypatch):
        # beta_ur only scales the unit factor, so the fig5 layouts of one
        # (geometry, grid, model) build it once and draw Y in the ratio of
        # their sqrt(beta_ur)
        from contris.cli import SETUPS

        calls = []
        blocks = mcsim.surface_blocks
        monkeypatch.setattr(mcsim, "surface_blocks", lambda *args: calls.append(args)
                            or blocks(*args))
        grid = GridSpec(16, 16)
        systems = [dataclasses.replace(paper_system, link=dataclasses.replace(
            paper_system.link, d_y_m=d_y, d_rb_m=d_rb, d_x_m=d_x))
            for d_y, d_rb, d_x in (SETUPS[name] for name in "ABC")]
        ys = [Oracle.build(system, grid).batch(300, 6).y_samples for system in systems]
        assert len(calls) == 1
        betas = [derive_gains(system).beta_ur for system in systems]
        assert len(set(betas)) > 1
        for y, beta in zip(ys[1:], betas[1:]):
            ratio = math.sqrt(beta / betas[0])
            assert np.max(np.abs(y / ys[0] / ratio - 1.0)) <= 1e-15

    def test_only_the_last_unit_factor_is_kept(self, monkeypatch):
        # a key is shared only with the next call, so a sweep that returns
        # to an earlier key builds it again and holds one factor at a time
        calls = []
        blocks = mcsim.surface_blocks
        monkeypatch.setattr(mcsim, "surface_blocks", lambda *args: calls.append(args)
                            or blocks(*args))
        geom = small_geom()
        grid = GridSpec(8, 8)
        sinc = sinc_model()
        for model in (jakes(), sinc, sinc, jakes()):
            build_surface_covariance(geom, grid, model, BETA_UR)
        assert len(calls) == 3
        assert len(mcsim._last_surface) == 1

    def test_rank_cut_moves_samples_by_sqrt_lambda(self, paper_system, monkeypatch):
        # each parity block's columns run by descending eigenvalue and draw
        # from their own substream, so keeping one more eigenvalue lambda
        # adds one trailing column with its own normals: Y and the SNR move
        # by about sqrt(lambda) relative, not by a redraw.  The sinc 32x32
        # surface has eigenvalue clusters near the default cut.
        system = dataclasses.replace(paper_system, correlation=dataclasses.replace(
            paper_system.correlation, kind=CorrelationKind.SINC))
        grid = GridSpec(32, 32)
        # the union spectrum as _unit_factors computes and orders it
        spectrum = np.maximum(np.concatenate([
            np.linalg.eigh(0.5 * (block + block.T))[0]
            for block in surface_blocks(system.geometry, grid, system.correlation)]), 0.0)
        spectrum = spectrum[np.argsort(spectrum, kind="stable")]
        tail = np.cumsum(spectrum) / spectrum.sum()
        j = np.count_nonzero(tail <= mcsim._TAIL_MASS)
        runs = []
        for dropped in (j, j + 1):
            monkeypatch.setattr(mcsim, "_TAIL_MASS", 0.5 * (tail[dropped - 1] + tail[dropped]))
            mcsim._last_surface.clear()
            oracle = Oracle.build(system, grid)
            runs.append((oracle.sampler.rank, oracle.batch(512, 9)))
        (rank_k1, more), (rank_k, fewer) = runs
        assert rank_k1 == rank_k + 1 == spectrum.size - j
        bound = math.sqrt(spectrum[j])
        for name in ("y_samples", "snr_samples"):
            a, b = getattr(more, name), getattr(fewer, name)
            assert 0.0 < np.max(np.abs(a - b) / b) <= bound, name

    @pytest.mark.parametrize("kind", list(CorrelationKind))
    @pytest.mark.parametrize("nx,ny", [(7, 7), (8, 8), (8, 5), (5, 6), (2, 2)])
    def test_blocks_match_dense_reflection_basis(self, kind, nx, ny):
        # the rows of the dense half-sum maps P_k are a basis of each parity
        # part; block k is the covariance P_k Sigma P_k^T of part k
        geom = SurfaceGeometry(0.5, 0.3)
        grid = GridSpec(nx, ny)
        model = IsotropicCorrelation(kind, 1.0, WAVELENGTH)
        corr = dense_correlation(geom, grid, model)
        maps = [np.kron(half_sums(nx, sx), half_sums(ny, sy)) for sx, sy in PARITIES]
        blocks = surface_blocks(geom, grid, model)
        for p_j, block in zip(maps, blocks):
            assert np.max(np.abs(block - p_j @ corr @ p_j.T)) <= 1e-12
            # the reflections commute with the correlation: the parts are
            # uncorrelated
            for p_k in maps:
                if p_k is not p_j:
                    assert np.max(np.abs(p_j @ corr @ p_k.T)) <= 1e-12
        # the stacked maps are an orthogonal matrix scaled by 1/2 per row,
        # or by 1/sqrt 2 or 1 on a centre line: a congruence, so each block
        # eigenvalue lies between 1/4 and 1 of its dense one (Ostrowski)
        dense = np.linalg.eigvalsh(corr)
        union = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))
        tol = 1e-12 * dense[-1]
        if nx % 2 == ny % 2 == 0:
            assert np.max(np.abs(union - 0.25 * dense)) <= tol
        else:
            assert np.all(union >= np.minimum(dense, 0.25 * dense) - tol)
            assert np.all(union <= np.maximum(dense, 0.25 * dense) + tol)
        perfect = IsotropicCorrelation(kind, 0.0, WAVELENGTH)
        assert build_surface_covariance(geom, grid, perfect, BETA_UR).rank == 1

    def test_field_statistics(self, paper_system):
        geom = small_geom()
        oracle = Oracle.build(dataclasses.replace(paper_system, geometry=geom),
                              GridSpec(8, 8))
        n = 20000
        draws = field_draws(oracle, n, 5)
        power = np.abs(draws[0]) ** 2
        se = power.std(ddof=1) / math.sqrt(n)
        assert abs(power.mean() - BETA_UR) < 3.0 * se
        mean_se = np.abs(draws.mean(axis=1)).max()
        assert mean_se < 3.0 * math.sqrt(BETA_UR / n) + 1e-12


class TestComputeY:
    @staticmethod
    def _sampler(geom):
        return build_surface_covariance(geom, GridSpec(4, 4), jakes(0.0), BETA_UR)

    def test_unit_field(self):
        geom = SurfaceGeometry(2.0, 1.5)
        y = compute_Y(np.ones((16, 3), dtype=complex), self._sampler(geom))
        assert y == pytest.approx([geom.area_m2] * 3, rel=1e-14)

    def test_zero_field(self):
        sampler = self._sampler(SurfaceGeometry(1.0, 1.0))
        assert np.array_equal(compute_Y(np.zeros((16, 2), dtype=complex), sampler), [0.0, 0.0])

    def test_dimension_mismatch(self):
        sampler = self._sampler(SurfaceGeometry(1.0, 1.0))
        for shape in ((15, 1), (16,)):
            with pytest.raises(DomainError):
                compute_Y(np.zeros(shape, dtype=complex), sampler)

    def test_mean_matches_closed_form_any_grid(self, paper_system, batches):
        gains = derive_gains(paper_system)
        m1 = moment_m1(paper_system.geometry, gains.beta_ur)
        batch = batches(paper_system, 8, 8, 4000)
        s = batch.summaries()
        assert abs(s.mean_y - m1) < 3.0 * s.se_mean_y


class TestDirectChannel:
    def test_covariance_statistics(self):
        arr = BsArrayConfig(m_x=4, m_z=2)
        r_d = bs_correlation_matrix(arr, jakes())
        a_b = steering_vector(arr)
        beta_d = 2.5e-12
        n = 30000
        factor = direct_factor(r_d, beta_d)
        normals = np.random.default_rng(11).standard_normal((factor.shape[1], 2 * n))
        draws = sample_direct_channel(factor, normals).T
        power = (np.abs(draws) ** 2).sum(axis=1)
        se = power.std(ddof=1) / math.sqrt(n)
        assert abs(power.mean() - arr.m * beta_d) < 3.0 * se
        # projection magnitude matches the Rayleigh mean
        proj = np.abs(draws @ a_b.conj())
        quad = float(np.real(np.vdot(a_b, r_d @ a_b)))
        expect = 0.5 * math.sqrt(math.pi * beta_d * quad)
        se_proj = proj.std(ddof=1) / math.sqrt(n)
        assert abs(proj.mean() - expect) < 3.0 * se_proj

    def test_factor_does_not_depend_on_eigenvector_signs(self, monkeypatch):
        r_d = bs_correlation_matrix(BsArrayConfig(), jakes())
        factor = direct_factor(r_d, 2.0)
        assert np.max(np.abs(factor @ factor.T - r_d)) < 1e-12
        clipped_eigh = mcsim.clipped_eigh

        def flip_every_other(matrix):
            eigvals, eigvecs, mass = clipped_eigh(matrix)
            eigvecs[:, ::2] *= -1.0
            return eigvals, eigvecs, mass

        monkeypatch.setattr(mcsim, "clipped_eigh", flip_every_other)
        assert np.array_equal(direct_factor(r_d, 2.0), factor)

    def test_indefinite_matrix_rejected(self):
        # eigenvalues 3 and -1
        with pytest.raises(CovarianceRepairFailure):
            direct_factor(np.array([[1.0, 2.0], [2.0, 1.0]]), 1.0)
        # eigenvalues 1 and ten of -5e-7: each passes the ratio rule, but
        # together they clip 5e-6 of the mass
        basis = np.linalg.qr(np.random.default_rng(2).standard_normal((11, 11)))[0]
        r = (basis * np.array([1.0] + [-5e-7] * 10)) @ basis.T
        with pytest.raises(CovarianceRepairFailure, match="clipped eigenvalue mass"):
            direct_factor(r, 1.0)

    @pytest.mark.parametrize("array", [
        BsArrayConfig(),
        BsArrayConfig(m_x=16, m_z=8, spacing_wavelengths=0.25),
        BsArrayConfig(m_x=12, m_z=12),
    ], ids=["default", "16x8-quarter-wavelength", "12x12"])
    def test_roundoff_in_correlation_moves_channels_by_roundoff(self, array):
        # R_d's mirror symmetries make some of its eigenvectors orthogonal to
        # any sign ramp, and a square array has degenerate eigenvalue pairs,
        # so a factor that kept the eigenvectors' signs moved these channels
        # by 0.5 to 1.2 relative.  The factor's square root moves by about
        # delta / sqrt(lambda) at the smallest kept eigenvalue lambda, 1e-10
        # relative at most on these arrays.
        r_d = bs_correlation_matrix(array, jakes())
        factor = direct_factor(r_d, 1.0)
        normals = np.random.default_rng(1).standard_normal((factor.shape[1], 512))
        channels = sample_direct_channel(factor, normals)
        for seed in range(3):
            noise = np.random.default_rng(seed).uniform(-2e-15, 2e-15, r_d.shape)
            moved = sample_direct_channel(
                direct_factor(r_d + 0.5 * (noise + noise.T), 1.0), normals)
            assert np.linalg.norm(moved - channels) <= 1e-8 * np.linalg.norm(channels)

    def test_identity_correlation_off_diagonal(self):
        n = 20000
        normals = np.random.default_rng(3).standard_normal((3, 2 * n))
        draws = sample_direct_channel(direct_factor(np.eye(3), 1.0), normals).T
        cov = draws.T.conj() @ draws / n
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 3.0 / math.sqrt(n)


class TestPhaseProfile:
    @staticmethod
    def _draw(system):
        # the 256 fields and direct channels of one replicate block
        geom = small_geom()
        oracle = Oracle.build(dataclasses.replace(system, geometry=geom),
                              GridSpec(6, 6))
        coeffs, h_d = oracle.draw_block(1234, 0)
        return oracle, sample_field(oracle.sampler, coeffs), h_d

    def test_unit_modulus_and_cancellation(self, paper_system):
        oracle, fields, h_d = self._draw(paper_system)
        phases = oracle.optimal_phases(fields, h_d)
        assert phases.shape == fields.shape
        assert np.max(np.abs(np.abs(phases) - 1.0)) < 1e-12
        proj = oracle.a_b.conj() @ h_d
        aligned = phases * fields / np.abs(fields)
        assert np.max(np.abs(aligned - proj / np.abs(proj))) < 1e-9

    def test_degenerate_projection_aligns_with_one(self, paper_system):
        oracle, fields, _ = self._draw(paper_system)
        phases = oracle.optimal_phases(fields, np.zeros((oracle.a_b.size, fields.shape[1])))
        assert np.max(np.abs(phases * fields / np.abs(fields) - 1.0)) < 1e-9

    def test_optimal_profile_reaches_expanded_snr(self, paper_system):
        oracle, fields, h_d = self._draw(paper_system)
        via_profile = oracle.snr_under(fields, h_d, oracle.optimal_phases(fields, h_d))
        expanded = oracle.snr(h_d, compute_Y(fields, oracle.sampler))
        assert np.max(np.abs(via_profile - expanded) / expanded) <= 1e-10

    def test_dominates_random_profiles(self, paper_system, rng):
        oracle, fields, h_d = self._draw(paper_system)
        best = oracle.snr_under(fields, h_d, oracle.optimal_phases(fields, h_d))
        for j in range(8):
            random_phases = np.exp(2j * math.pi * rng.uniform(
                size=(oracle.sampler.grid.n_points, 20)))
            snr = oracle.snr_under(fields[:, j:j + 1], h_d[:, j:j + 1], random_phases)
            assert np.all(snr <= best[j])


@pytest.fixture()
def small_oracle(paper_system):
    """The default system on a 4x4 grid, to score hand-made draws."""
    return Oracle.build(paper_system, GridSpec(4, 4))


class TestSnrSample:
    def test_no_surface_contribution(self, paper_system, small_oracle, rng):
        h_d = (rng.standard_normal(32) + 1j * rng.standard_normal(32)) * 1e-6
        expect = paper_system.transmit_snr * float(np.real(np.vdot(h_d, h_d)))
        assert small_oracle.snr(h_d, 0.0) == pytest.approx(expect)

    def test_surface_only(self, paper_system, small_oracle):
        h_d = np.zeros(32, dtype=complex)
        beta_rb = derive_gains(paper_system).beta_rb
        assert small_oracle.beta_rb == beta_rb
        y = 3.2e-4
        expect = paper_system.transmit_snr * 32 * beta_rb * y * y
        assert small_oracle.snr(h_d, y) == pytest.approx(expect)

    def test_expansion_equals_norm_form(self, small_oracle, rng):
        # the norm form is the SNR under the optimal profile of some field
        h_d = (rng.standard_normal((32, 50)) + 1j * rng.standard_normal((32, 50))) * 1e-6
        fields = (rng.standard_normal((16, 50)) + 1j * rng.standard_normal((16, 50))) * 1e-3
        expanded = small_oracle.snr(h_d, compute_Y(fields, small_oracle.sampler))
        phases = small_oracle.optimal_phases(fields, h_d)
        norm = small_oracle.snr_under(fields, h_d, phases)
        assert np.all(np.abs(expanded - norm) <= 1e-10 * expanded)

    def test_block_matches_single_draws(self, small_oracle, rng):
        h_d = (rng.standard_normal((32, 5)) + 1j * rng.standard_normal((32, 5))) * 1e-6
        y = rng.uniform(0.0, 1e-3, 5)
        block = small_oracle.snr(h_d, y)
        assert block.shape == (5,)
        for j in range(5):
            assert block[j] == pytest.approx(small_oracle.snr(h_d[:, j], y[j]), rel=1e-14)

    def test_norm_form_rejects_fields_of_another_grid(self, paper_system, rng):
        # 16 rows are the fields of a 4x4 grid, not of this 8x8 one: weighting
        # them by this grid's cell area A/64 would shrink their reflection 4x
        oracle = Oracle.build(paper_system, GridSpec(8, 8))
        h_d = (rng.standard_normal((32, 3)) + 1j * rng.standard_normal((32, 3))) * 1e-6
        fields = (rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))) * 1e-3
        with pytest.raises(DomainError, match="one row per grid point"):
            oracle.snr_under(fields, h_d, np.ones((16, 3)))


class TestRunReplicates:
    def test_deterministic_rerun(self, paper_system):
        grid = GridSpec(8, 8)
        a = run_replicates(paper_system, grid, 100, 42)
        b = run_replicates(paper_system, grid, 100, 42)
        assert np.array_equal(a.snr_samples, b.snr_samples)
        assert np.array_equal(a.y_samples, b.y_samples)

    @pytest.mark.parametrize("kind", [CorrelationKind.JAKES, CorrelationKind.SINC])
    def test_thread_count_moves_samples_only_by_roundoff(self, tmp_path, kind):
        # OpenBLAS returns other eigenvector signs at another thread count
        # on the default square grid; with the signs fixed, the batches
        # still differ, but only by roundoff.  The sinc 32x32 spectrum has
        # eigenvalue clusters near the rank cut; the 33x33 grid puts a centre
        # row and column in the even parts.
        import contris
        import os
        import subprocess
        import sys

        script = ("import dataclasses, sys, numpy as np\n"
                  "from contris import cli, mcsim\n"
                  "from contris.sysmodel import CorrelationKind\n"
                  "s = cli.default_system()\n"
                  "s = dataclasses.replace(s, correlation=dataclasses.replace(\n"
                  "    s.correlation, kind=CorrelationKind(sys.argv[2])))\n"
                  "np.save(sys.argv[1], np.concatenate([mcsim.run_replicates(\n"
                  "    s, mcsim.GridSpec(n, n), 600, 3).y_samples for n in (32, 33)]))\n")
        package_root = os.path.dirname(os.path.dirname(contris.__file__))
        batches = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [package_root, os.environ.get("PYTHONPATH")])))
            out = tmp_path / f"y{threads}.npy"
            subprocess.run([sys.executable, "-c", script, str(out), kind.value],
                           env=env, check=True, timeout=300)
            batches.append(np.load(out))
        assert np.allclose(batches[0], batches[1], rtol=1e-6, atol=0.0)

    def test_batches_cache_keys_by_the_whole_system(self, batches, paper_system):
        # two systems that differ only in their wavelength draw other fields
        def at(wavelength):
            return dataclasses.replace(
                paper_system,
                correlation=dataclasses.replace(paper_system.correlation,
                                                wavelength_m=wavelength),
                bs_correlation=dataclasses.replace(paper_system.bs_correlation,
                                                   wavelength_m=wavelength))

        a, b = (batches(at(wavelength), 4, 4, 64) for wavelength in (WAVELENGTH, 0.1))
        assert not np.array_equal(a.y_samples, b.y_samples)

    # the count pads to a whole block of 256, past either dtype
    @pytest.mark.parametrize("n", [np.int8(100), np.uint8(200)], ids=["int8", "uint8"])
    def test_numpy_integer_count(self, paper_system, n):
        a = run_replicates(paper_system, GridSpec(4, 4), n, 42)
        b = run_replicates(paper_system, GridSpec(4, 4), int(n), 42)
        assert np.array_equal(a.snr_samples, b.snr_samples)
        assert np.array_equal(a.y_samples, b.y_samples)

    def test_prefix_stability_within_block(self, paper_system):
        grid = GridSpec(8, 8)
        short = run_replicates(paper_system, grid, 40, 42)
        long = run_replicates(paper_system, grid, 90, 42)
        assert np.array_equal(short.snr_samples, long.snr_samples[:40])

    # the replicate loop draws and scores fixed blocks of 256
    @pytest.mark.parametrize("n_short,n_long",
                             [(300, 520), (255, 257), (256, 513), (1, 512)])
    def test_prefix_stability_across_blocks(self, paper_system, n_short, n_long):
        grid = GridSpec(8, 8)
        short = run_replicates(paper_system, grid, n_short, 42)
        long = run_replicates(paper_system, grid, n_long, 42)
        assert np.array_equal(short.snr_samples, long.snr_samples[:n_short])
        assert np.array_equal(short.y_samples, long.y_samples[:n_short])

    def test_sinc_at_overflowing_kappa(self, paper_system):
        # 2 kappa r / lambda overflows; sinc takes its limit 0 there, so the
        # surface covariance is the identity
        system = dataclasses.replace(paper_system, correlation=sinc_model(1e307))
        batch = run_replicates(system, GridSpec(8, 8), 256, 5)
        assert np.all(np.isfinite(batch.y_samples))
        assert np.all(np.isfinite(batch.snr_samples))

    def test_seed_changes_samples(self, paper_system):
        grid = GridSpec(8, 8)
        a = run_replicates(paper_system, grid, 50, 1)
        b = run_replicates(paper_system, grid, 50, 2)
        assert not np.array_equal(a.snr_samples, b.snr_samples)

    @pytest.mark.parametrize("n,seed", [(10.5, 0), (10.0, 0), (0, 0), (10, 1.5), (10, -1)])
    def test_non_integral_or_out_of_range_n_and_seed_rejected(self, paper_system, n, seed,
                                                              monkeypatch):
        # rejected before any factor is built
        calls = []
        monkeypatch.setattr(mcsim, "surface_blocks", lambda *args: calls.append(args))
        grid = GridSpec(4, 4)
        with pytest.raises(DomainError):
            run_replicates(paper_system, grid, n, seed)
        assert calls == []

    @pytest.mark.parametrize("budget", ["default", "one row"])
    @pytest.mark.parametrize("kind", list(CorrelationKind))
    @pytest.mark.parametrize("nx,ny", [(2, 2), (7, 7), (8, 8), (8, 5), (5, 6), (43, 3)])
    def test_y_equals_the_unfolded_field(self, paper_system, kind, nx, ny, budget,
                                         monkeypatch):
        # Y is summed from the parity parts chunk by chunk; it must equal the
        # Riemann sum of the unfolded field on the same normals.  43x3 puts
        # the centre x row alone in the last chunk of the default budget;
        # a budget of one value gives every quarter x row its own chunk.
        if budget == "one row":
            monkeypatch.setattr(mcsim, "_CHUNK", 1)
        system = dataclasses.replace(
            paper_system, correlation=dataclasses.replace(paper_system.correlation, kind=kind))
        grid = GridSpec(nx, ny)
        n, seed = 300, 8
        oracle = Oracle.build(system, grid)
        y = oracle.batch(n, seed).y_samples
        expect = compute_Y(field_draws(oracle, n, seed), oracle.sampler)
        assert np.max(np.abs(y - expect) / expect) <= 1e-13

    def test_block_field_rows_do_not_depend_on_the_array(self, paper_system):
        # a block's normals are one C-order draw whose field rows lead, and a
        # C-order normal draw is a row prefix of a taller one
        grid = GridSpec(8, 8)
        single = dataclasses.replace(paper_system, array=BsArrayConfig(m_x=1, m_z=1))
        coeffs, h_d = Oracle.build(paper_system, grid).draw_block(42, 3)
        alone, h_one = Oracle.build(single, grid).draw_block(42, 3)
        assert h_d.shape == (32, 256) and h_one.shape == (1, 256)
        assert np.array_equal(coeffs, alone)

    def test_replicate_loop_never_builds_the_field(self, paper_system):
        # the (n_points, 512) field of a 49x49 block alone is 9.6 MB, and the
        # unfolded loop peaked at 42 MB; the chunked one needs 28 MB
        import tracemalloc

        system = dataclasses.replace(
            paper_system,
            correlation=dataclasses.replace(paper_system.correlation, kind=CorrelationKind.SINC))
        grid = GridSpec(49, 49)
        run_replicates(system, grid, 512, 1)
        tracemalloc.start()
        try:
            run_replicates(system, grid, 512, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20, peak / 2 ** 20

    def test_summaries_need_two_replicates(self, paper_system):
        batch = run_replicates(paper_system, GridSpec(4, 4), 1, 0)
        with pytest.raises(DomainError):
            batch.summaries()

    @pytest.mark.parametrize("y", [
        np.ones(2), np.array([1.0, math.nan, 2.0]), np.array([1.0, -1.0, 2.0]),
    ], ids=["length_mismatch", "nan", "negative"])
    def test_batch_rejects_malformed_samples(self, y):
        with pytest.raises(DomainError):
            ReplicateBatch(n=3, snr_samples=np.ones(3), y_samples=y, seed=0)

    def test_summaries_recomputable(self, paper_system, batches):
        batch = batches(paper_system, 8, 8, 4000)
        first = batch.summaries()
        second = batch.summaries()
        assert first == second
        assert first.mean_snr == batch.snr_samples.mean()

    def test_variance_grid_convergence(self, paper_system, batches):
        # Var[Y] is grid-sensitive (unlike the mean).  Each grid's Monte
        # Carlo variance must match that grid's exact variance, and the
        # exact grid variances must walk toward the closed form.
        geom = paper_system.geometry
        beta_ur = derive_gains(paper_system).beta_ur
        m1 = moment_m1(geom, beta_ur)
        target = moment_m2_iso(geom, paper_system.correlation, beta_ur) - m1 ** 2
        sides = (8, 16, 32, 64)
        exact = [moment_m2_grid(geom, paper_system.correlation, beta_ur, GridSpec(side, side))
                 - m1 ** 2 for side in sides]
        gaps = [abs(v - target) for v in exact]
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3]
        assert gaps[3] < 1e-3 * target
        n = 10 ** 4
        for side, var_exact in zip(sides, exact):
            y = batches(paper_system, side, side, n).y_samples
            var = y.var(ddof=1)
            # standard error of a variance estimate, from the fourth moment
            m4 = np.mean((y - y.mean()) ** 4)
            se = math.sqrt((m4 - var * var * (n - 3) / (n - 1)) / n)
            assert abs(var - var_exact) < 4.0 * se, (side, (var - var_exact) / se)


class TestEmpiricalCdf:
    def test_extremes(self):
        cdf = EmpiricalCdf(np.array([1.0, 2.0, 3.0]))
        assert cdf(0.5) == 0.0
        assert cdf(3.0) == 1.0
        assert cdf(10.0) == 1.0

    def test_median_odd_n(self):
        n = 101
        samples = np.arange(1.0, n + 1.0)
        cdf = EmpiricalCdf(samples)
        assert cdf(np.median(samples)) == pytest.approx((n + 1) / (2 * n))

    def test_ks_distance_exact_uniform(self):
        # uniform order statistics at i/(n+1) against the uniform CDF
        n = 9
        samples = np.arange(1.0, n + 1.0) / (n + 1.0)
        cdf = EmpiricalCdf(samples)
        dist = cdf.ks_distance(lambda x: np.clip(x, 0.0, 1.0))
        assert dist == pytest.approx(1.0 / (n + 1.0), abs=1e-12)


@pytest.mark.parametrize("call", [
    lambda system: build_surface_covariance(
        small_geom(), GridSpec(4, 4), jakes(), math.inf),
    lambda system: Oracle.build(system, GridSpec(4, 4)).snr(
        np.zeros((32, 2), dtype=complex), np.array([1e-4, -1e-4])),
    lambda system: Oracle.build(system, GridSpec(4, 4)).snr(
        np.zeros((32, 2), dtype=complex), np.array([1e-4, math.nan])),
    lambda system: EmpiricalCdf(np.array([1.0, math.nan, 2.0])),
    lambda system: EmpiricalCdf(np.array([1.0, 2.0]))(math.nan),
], ids=["beta_ur_inf", "block_with_negative_y", "block_with_nan_y", "ecdf_nan",
        "ecdf_at_nan"])
def test_out_of_domain_inputs_rejected(paper_system, call):
    with pytest.raises(DomainError):
        call(paper_system)
