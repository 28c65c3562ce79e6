import dataclasses
import math

import numpy as np
import pytest

from contris import mcsim
from contris.analytic import moment_m1, moment_m2_grid, moment_m2_iso
from contris.errors import DomainError
from contris.mcsim import (
    EmpiricalCdf,
    GridSpec,
    Oracle,
    build_surface_covariance,
    compute_Y,
    direct_factor,
    make_grid,
    optimal_phase_profile,
    optimal_snr_sample,
    run_replicates,
    sample_direct_channel,
    sample_field,
    snr_under_profile,
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

WAVELENGTH = 299792458.0 / 5.8e9
BETA_UR = 4.196737608386484e-06


def jakes(kappa=1.0):
    return IsotropicCorrelation(CorrelationKind.JAKES, kappa, WAVELENGTH)


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


def reflection_basis(n, sign):
    """Orthonormal basis of the even (sign 1) or odd (sign -1) half of an
    n-cell axis under its reflection; the centre cell joins the even half."""
    cols = []
    for r in range(n // 2):
        col = np.zeros(n)
        col[r], col[n - 1 - r] = 1.0, sign
        cols.append(col / math.sqrt(2.0))
    if n % 2 and sign > 0:
        cols.append(np.eye(n)[n // 2])
    return np.array(cols).T


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
        grid = make_grid(geom, 8, 4)
        assert grid.cell_area == pytest.approx(2.0 / 32.0)
        assert grid.n_points == 32

    def test_minimum_size(self):
        with pytest.raises(DomainError):
            make_grid(SurfaceGeometry(1.0, 1.0), 1, 4)

    @pytest.mark.parametrize("nx,ny,cell_area", [
        (2.5, 3, 0.1), (3.0, 3, 0.1), (3, 4.0, 0.1), (3, 3, math.inf), (3, 3, math.nan)])
    def test_non_integral_counts_and_non_finite_area_rejected(self, nx, ny, cell_area):
        with pytest.raises(DomainError):
            GridSpec(nx=nx, ny=ny, cell_area=cell_area)

    def test_numpy_integer_counts_accepted(self):
        assert GridSpec(nx=np.int64(3), ny=np.int32(4), cell_area=0.1).n_points == 12

    def test_suggest_grid_resolves_correlation(self):
        geom = SurfaceGeometry(2.0, 0.1)
        grid = suggest_grid(geom, jakes(1.0))
        assert grid.nx / 2.0 >= 1.0 / (0.3 * WAVELENGTH)  # cells under 0.3 wavelengths
        assert grid.ny >= 8
        assert suggest_grid(geom, jakes(0.0)).nx == 8

    @pytest.mark.parametrize("nx,ny", [(2, 2), (7, 5), (8, 8), (43, 3), (49, 49)])
    @pytest.mark.parametrize("model", [jakes(0.0), jakes(1.0),
                                       IsotropicCorrelation(CorrelationKind.SINC, 0.5,
                                                            WAVELENGTH)],
                             ids=["jakes0", "jakes1", "sinc05"])
    def test_grid_moment_equals_offset_table(self, nx, ny, model):
        geom = SurfaceGeometry(0.7, 0.3)
        m2 = moment_m2_grid(geom, model, BETA_UR, nx, ny)
        assert m2 == pytest.approx(offset_table_m2(geom, model, BETA_UR, nx, ny), rel=1e-14)
        if nx * ny <= 64:
            # the same sum over every ordered pair of cells, without offsets
            corr = dense_correlation(geom, make_grid(geom, nx, ny), model)
            kernel = 0.25 * math.pi * BETA_UR * gauss_2f1_half(np.clip(corr * corr, 0.0, 1.0))
            assert m2 == pytest.approx((geom.area_m2 / (nx * ny)) ** 2 * kernel.sum(),
                                       rel=1e-13)

    @pytest.mark.parametrize("nx,ny,beta_ur", [
        (0, 3, BETA_UR), (3, 2.0, BETA_UR), (3, 3, 0.0), (3, 3, math.nan)])
    def test_grid_moment_domain(self, nx, ny, beta_ur):
        with pytest.raises(DomainError):
            moment_m2_grid(small_geom(), jakes(1.0), beta_ur, nx, ny)


class TestSurfaceCovariance:
    def test_perfect_correlation_rank_one(self, rng):
        sampler = build_surface_covariance(small_geom(), make_grid(small_geom(), 4, 4),
                                           jakes(0.0), BETA_UR)
        assert sampler.rank == 1
        fields = sample_field(sampler, rng.standard_normal((1, 6)))
        assert fields.shape == (16, 3)
        assert np.allclose(fields, fields[0])

    def test_marginal_variance_exact(self):
        geom = small_geom()
        sampler = build_surface_covariance(geom, make_grid(geom, 8, 8), jakes(), BETA_UR)
        factor = sampler.apply(np.eye(sampler.rank))
        diag = (factor * factor).sum(axis=1)
        assert np.max(np.abs(diag - BETA_UR)) <= 1e-12 * BETA_UR

    def test_reconstruction_and_clipped_mass(self):
        geom = small_geom()
        grid = make_grid(geom, 16, 16)
        sampler = build_surface_covariance(geom, grid, jakes(), BETA_UR)
        assert sampler.clipped_mass < 1e-9
        cov = BETA_UR * dense_correlation(geom, grid, jakes())
        factor = sampler.apply(np.eye(sampler.rank))
        recon = factor @ factor.T
        assert np.max(np.abs(recon - cov)) <= 1e-10 * BETA_UR

    @pytest.mark.parametrize("kind", list(CorrelationKind))
    @pytest.mark.parametrize("nx,ny", [(7, 7), (8, 8), (8, 5), (5, 6), (2, 2)])
    def test_blocks_match_dense_reflection_basis(self, kind, nx, ny):
        geom = SurfaceGeometry(0.5, 0.3)
        grid = make_grid(geom, nx, ny)
        model = IsotropicCorrelation(kind, 1.0, WAVELENGTH)
        corr = dense_correlation(geom, grid, model)
        bases = [np.kron(reflection_basis(nx, sx), reflection_basis(ny, sy))
                 for sx, sy in PARITIES]
        blocks = surface_blocks(geom, grid, model)
        for basis, block in zip(bases, blocks):
            assert np.max(np.abs(block - basis.T @ corr @ basis)) <= 1e-12
        # the reflections commute with the correlation: nothing off the blocks
        full = np.hstack(bases)
        rotated = full.T @ corr @ full
        start = 0
        for basis in bases:
            stop = start + basis.shape[1]
            rotated[start:stop, start:stop] = 0.0
            start = stop
        assert np.max(np.abs(rotated)) <= 1e-12
        dense = np.linalg.eigvalsh(corr)
        union = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))
        assert np.max(np.abs(union - dense)) <= 1e-12 * dense[-1]
        perfect = IsotropicCorrelation(kind, 0.0, WAVELENGTH)
        assert build_surface_covariance(geom, grid, perfect, BETA_UR).rank == 1

    def test_field_statistics(self, paper_system):
        geom = small_geom()
        oracle = Oracle.build(dataclasses.replace(paper_system, geometry=geom),
                              make_grid(geom, 8, 8))
        n = 20000
        draws = field_draws(oracle, n, 5)
        power = np.abs(draws[0]) ** 2
        se = power.std(ddof=1) / math.sqrt(n)
        assert abs(power.mean() - BETA_UR) < 3.0 * se
        mean_se = np.abs(draws.mean(axis=1)).max()
        assert mean_se < 3.0 * math.sqrt(BETA_UR / n) + 1e-12


class TestComputeY:
    def test_unit_field(self):
        geom = SurfaceGeometry(2.0, 1.5)
        grid = make_grid(geom, 4, 4)
        fields = np.ones((grid.n_points, 3), dtype=complex)
        assert compute_Y(fields, grid) == pytest.approx([geom.area_m2] * 3, rel=1e-14)

    def test_zero_field(self):
        grid = make_grid(SurfaceGeometry(1.0, 1.0), 4, 4)
        assert np.array_equal(compute_Y(np.zeros((16, 2), dtype=complex), grid), [0.0, 0.0])

    def test_dimension_mismatch(self):
        grid = make_grid(SurfaceGeometry(1.0, 1.0), 4, 4)
        for shape in ((15, 1), (16,)):
            with pytest.raises(DomainError):
                compute_Y(np.zeros(shape, dtype=complex), grid)

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
        fix_signs = mcsim._fix_signs

        def flip_every_other(eigvecs):
            fix_signs(eigvecs)
            eigvecs[:, ::2] *= -1.0

        monkeypatch.setattr(mcsim, "_fix_signs", flip_every_other)
        assert np.array_equal(direct_factor(r_d, 2.0), factor)

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
        # delta / sqrt(lambda) at the smallest kept eigenvalue lambda, 1e-9
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
                              make_grid(geom, 6, 6))
        coeffs, h_d = oracle.draw_block(1234, 0)
        return oracle, sample_field(oracle.sampler, coeffs), h_d, oracle.a_b

    def test_unit_modulus_and_cancellation(self, paper_system):
        _, fields, h_d, a_b = self._draw(paper_system)
        phases = optimal_phase_profile(fields, h_d, a_b)
        assert phases.shape == fields.shape
        assert np.max(np.abs(np.abs(phases) - 1.0)) < 1e-12
        proj = a_b.conj() @ h_d
        aligned = phases * fields / np.abs(fields)
        assert np.max(np.abs(aligned - proj / np.abs(proj))) < 1e-9

    def test_degenerate_projection_aligns_with_one(self, paper_system):
        _, fields, _, a_b = self._draw(paper_system)
        phases = optimal_phase_profile(fields, np.zeros((a_b.size, fields.shape[1])), a_b)
        assert np.max(np.abs(phases * fields / np.abs(fields) - 1.0)) < 1e-9

    def test_optimal_profile_reaches_expanded_snr(self, paper_system):
        oracle, fields, h_d, a_b = self._draw(paper_system)
        system, grid = oracle.cfg, oracle.sampler.grid
        phases = optimal_phase_profile(fields, h_d, a_b)
        via_profile = snr_under_profile(fields, h_d, a_b, phases, system, grid)
        expanded = optimal_snr_sample(h_d, compute_Y(fields, grid), a_b, system)
        assert np.max(np.abs(via_profile - expanded) / expanded) <= 1e-10

    def test_dominates_random_profiles(self, paper_system, rng):
        oracle, fields, h_d, a_b = self._draw(paper_system)
        system, grid = oracle.cfg, oracle.sampler.grid
        best = snr_under_profile(fields, h_d, a_b, optimal_phase_profile(fields, h_d, a_b),
                                 system, grid)
        for j in range(8):
            random_phases = np.exp(2j * math.pi * rng.uniform(size=(grid.n_points, 20)))
            snr = snr_under_profile(fields[:, j:j + 1], h_d[:, j:j + 1], a_b, random_phases,
                                    system, grid)
            assert np.all(snr <= best[j])


class TestSnrSample:
    def test_no_surface_contribution(self, paper_system, rng):
        a_b = steering_vector(paper_system.array)
        h_d = (rng.standard_normal(32) + 1j * rng.standard_normal(32)) * 1e-6
        expect = paper_system.transmit_snr * float(np.real(np.vdot(h_d, h_d)))
        assert optimal_snr_sample(h_d, 0.0, a_b, paper_system) == pytest.approx(expect)

    def test_surface_only(self, paper_system):
        a_b = steering_vector(paper_system.array)
        h_d = np.zeros(32, dtype=complex)
        beta_rb = derive_gains(paper_system).beta_rb
        y = 3.2e-4
        expect = paper_system.transmit_snr * 32 * beta_rb * y * y
        assert optimal_snr_sample(h_d, y, a_b, paper_system) == pytest.approx(expect)

    def test_expansion_equals_norm_form(self, paper_system, rng):
        # the norm form is the SNR under the optimal profile of some field
        a_b = steering_vector(paper_system.array)
        grid = make_grid(paper_system.geometry, 4, 4)
        h_d = (rng.standard_normal((32, 50)) + 1j * rng.standard_normal((32, 50))) * 1e-6
        fields = (rng.standard_normal((16, 50)) + 1j * rng.standard_normal((16, 50))) * 1e-3
        expanded = optimal_snr_sample(h_d, compute_Y(fields, grid), a_b, paper_system)
        phases = optimal_phase_profile(fields, h_d, a_b)
        norm = snr_under_profile(fields, h_d, a_b, phases, paper_system, grid)
        assert np.all(np.abs(expanded - norm) <= 1e-10 * expanded)

    def test_block_matches_single_draws(self, paper_system, rng):
        a_b = steering_vector(paper_system.array)
        h_d = (rng.standard_normal((32, 5)) + 1j * rng.standard_normal((32, 5))) * 1e-6
        y = rng.uniform(0.0, 1e-3, 5)
        block = optimal_snr_sample(h_d, y, a_b, paper_system)
        assert block.shape == (5,)
        for j in range(5):
            assert block[j] == pytest.approx(
                optimal_snr_sample(h_d[:, j], y[j], a_b, paper_system), rel=1e-14)


class TestRunReplicates:
    def test_deterministic_rerun(self, paper_system):
        grid = make_grid(paper_system.geometry, 8, 8)
        a = run_replicates(paper_system, grid, 100, 42)
        b = run_replicates(paper_system, grid, 100, 42)
        assert np.array_equal(a.snr_samples, b.snr_samples)
        assert np.array_equal(a.y_samples, b.y_samples)

    def test_thread_count_moves_samples_only_by_roundoff(self, tmp_path):
        # OpenBLAS returns other eigenvector signs at another thread count
        # on the default square grid; with the signs fixed, the batches
        # still differ, but only by roundoff
        import contris
        import os
        import subprocess
        import sys

        script = ("import sys, numpy as np\n"
                  "from contris import cli, mcsim\n"
                  "s = cli.default_system()\n"
                  "grid = mcsim.make_grid(s.geometry, 32, 32)\n"
                  "np.save(sys.argv[1], mcsim.run_replicates(s, grid, 600, 3).y_samples)\n")
        package_root = os.path.dirname(os.path.dirname(contris.__file__))
        batches = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [package_root, os.environ.get("PYTHONPATH")])))
            out = tmp_path / f"y{threads}.npy"
            subprocess.run([sys.executable, "-c", script, str(out)],
                           env=env, check=True, timeout=300)
            batches.append(np.load(out))
        assert np.allclose(batches[0], batches[1], rtol=1e-6, atol=0.0)

    def test_prefix_stability_within_block(self, paper_system):
        grid = make_grid(paper_system.geometry, 8, 8)
        short = run_replicates(paper_system, grid, 40, 42)
        long = run_replicates(paper_system, grid, 90, 42)
        assert np.array_equal(short.snr_samples, long.snr_samples[:40])

    # the replicate loop draws and scores fixed blocks of 256
    @pytest.mark.parametrize("n_short,n_long",
                             [(300, 520), (255, 257), (256, 513), (1, 512)])
    def test_prefix_stability_across_blocks(self, paper_system, n_short, n_long):
        grid = make_grid(paper_system.geometry, 8, 8)
        short = run_replicates(paper_system, grid, n_short, 42)
        long = run_replicates(paper_system, grid, n_long, 42)
        assert np.array_equal(short.snr_samples, long.snr_samples[:n_short])
        assert np.array_equal(short.y_samples, long.y_samples[:n_short])

    def test_seed_changes_samples(self, paper_system):
        grid = make_grid(paper_system.geometry, 8, 8)
        a = run_replicates(paper_system, grid, 50, 1)
        b = run_replicates(paper_system, grid, 50, 2)
        assert not np.array_equal(a.snr_samples, b.snr_samples)

    def test_grid_geometry_mismatch(self, paper_system):
        foreign = make_grid(SurfaceGeometry(1.0, 1.0), 8, 8)
        with pytest.raises(DomainError):
            run_replicates(paper_system, foreign, 10, 0)

    @pytest.mark.parametrize("n,seed", [(10.5, 0), (10.0, 0), (0, 0), (10, 1.5), (10, -1)])
    def test_non_integral_or_out_of_range_n_and_seed_rejected(self, paper_system, n, seed):
        grid = make_grid(paper_system.geometry, 4, 4)
        with pytest.raises(DomainError):
            run_replicates(paper_system, grid, n, seed)

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
        grid = make_grid(system.geometry, nx, ny)
        n, seed = 300, 8
        oracle = Oracle.build(system, grid)
        y = oracle.batch(n, seed).y_samples
        expect = compute_Y(field_draws(oracle, n, seed), grid)
        assert np.max(np.abs(y - expect) / expect) <= 1e-13

    def test_block_field_rows_do_not_depend_on_the_array(self, paper_system):
        # a block's normals are one C-order draw whose field rows lead, and a
        # C-order normal draw is a row prefix of a taller one
        grid = make_grid(paper_system.geometry, 8, 8)
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
        grid = make_grid(system.geometry, 49, 49)
        run_replicates(system, grid, 512, 1)
        tracemalloc.start()
        try:
            run_replicates(system, grid, 512, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20, peak / 2 ** 20

    def test_summaries_need_two_replicates(self, paper_system):
        batch = run_replicates(paper_system, make_grid(paper_system.geometry, 4, 4), 1, 0)
        with pytest.raises(DomainError):
            batch.summaries()

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
        exact = [moment_m2_grid(geom, paper_system.correlation, beta_ur, side, side) - m1 ** 2
                 for side in sides]
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
        small_geom(), make_grid(small_geom(), 4, 4), jakes(), math.inf),
    lambda system: optimal_snr_sample(
        np.zeros((32, 2), dtype=complex), np.array([1e-4, -1e-4]),
        steering_vector(system.array), system),
], ids=["beta_ur_inf", "block_with_negative_y"])
def test_out_of_domain_inputs_rejected(paper_system, call):
    with pytest.raises(DomainError):
        call(paper_system)
