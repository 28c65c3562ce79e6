import dataclasses
import functools
import itertools
import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contris import cli, mcsim
from contris.cli import (
    ExperimentConfig,
    ResultTable,
    SweepSpec,
    config_hash,
    config_to_dict,
    default_sweep,
    default_system,
    emit,
    load_config,
    run_scenario,
    validate,
)
from contris.analytic import gamma_fit, outage_probability, snr_moments
from contris.errors import ConfigError, QuadratureFailure
from contris.mcsim import EmpiricalCdf, GridSpec, run_replicates
from contris.sysmodel import CorrelationKind, LinkBudget


# well formed, but their Monte Carlo SNR leaves the floating-point range
SNR_OVERFLOW_DOCUMENTS = [
    {"system": {"transmit_snr": 1e300}},
    {"system": {"link": {"c0": 1e300}}},
]

# malformed documents: each must give exit 2 and a message, never a traceback
BAD_DOCUMENTS = [
    {"system": {"geometry": 5}},
    {"system": {"geometry": {"width_m": "abc"}}},
    {"system": {"geometry": {"width_m": -1}}},
    {"system": {"transmit_snr_db": 1e6}},
    [{"seed": 1}],
    {"system": {"correlation": {"kappa": math.nan}}},
    {"replicates": 1.5},
    {"system": {"geometry": {"width_m": math.inf}}},
    {"grid": {"nx": 2.7}},
    {"system": {"array": {"m_x": 0.5}}},
    {"sweep": [1]},
    {"sweep": {"areas_m2": "ab"}},
    {"sweep": {"areas_m2": [-0.1]}},
    # well formed, but the terminal sits on the surface: fails at run time
    {"system": {"link": {"d_rb_m": 30.0, "d_x_m": 30.0, "d_y_m": 0.0}}},
    # well formed, but the model leaves the floating-point range at run time
    {"system": {"link": {"d_x_m": 1e-200, "d_y_m": 0.0}}},
    *SNR_OVERFLOW_DOCUMENTS,
    {"system": {"transmit_snr": 1e-300}},
    {"system": {"geometry": {"width_m": 1e-150, "height_m": 1e-150}}},
    # a threshold past the float range, rejected at load: table1 reads none
    {"sweep": {"thresholds_db": [4000.0]}},
]

_GEOMETRY = dict.fromkeys(["width_m", "height_m"])
_CORRELATION = dict.fromkeys(["kind", "kappa"])
# every key of the documented schema; None marks a leaf
SCHEMA = {
    "system": {
        "geometry": _GEOMETRY, "carrier_hz": None, "wavelength_m": None,
        "correlation": _CORRELATION, "bs_correlation": _CORRELATION,
        "link": dict.fromkeys(["c0", "c0_db", "d0_m", "alpha_d", "alpha_rb",
                               "alpha_ur", "d_rb_m", "d_x_m", "d_y_m"]),
        "array": dict.fromkeys(["m_x", "m_z", "spacing_wavelengths",
                                "theta_a_rad", "phi_a_rad"]),
        "transmit_snr": None, "transmit_snr_db": None,
    },
    "grid": dict.fromkeys(["nx", "ny"]),
    "replicates": None,
    "seed": None,
    "sweep": dict.fromkeys(["areas_m2", "kappas", "aspects", "thresholds_db", "setups"]),
    "output_path": None,
}

JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.floats(0.01, 100.0) | st.integers(-3, 64)
                | st.sampled_from(["sinc", "JAKES", "A", "custom", "x.csv", ""]))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids,
                                                              max_size=3),
    max_leaves=8)


def shaped(schema):
    """JSON documents keyed like ``schema``, with arbitrary JSON anywhere."""
    if schema is None:
        return JSON_VALUES
    return JSON_VALUES | st.fixed_dictionaries(
        {}, optional={key: shaped(sub) for key, sub in schema.items()})


# a document that sets a field of every section
FULL_DOCUMENT = {
    "system": {
        "geometry": {"width_m": 0.5, "height_m": 0.2}, "carrier_hz": 2.4e9,
        "correlation": {"kind": "sinc", "kappa": 0.5},
        "bs_correlation": {"kind": "JAKES", "kappa": 2.0},
        "link": {"c0_db": -20.0, "d0_m": 2.0, "alpha_d": 3.0, "alpha_rb": 2.0,
                 "alpha_ur": 2.2, "d_rb_m": 10.0, "d_x_m": 12.0, "d_y_m": 2.0},
        "array": {"m_x": 4, "m_z": 2.0, "spacing_wavelengths": 0.4,
                  "theta_a_rad": 1.2, "phi_a_rad": -0.3},
        "transmit_snr_db": 100.0,
    },
    "grid": {"nx": 16, "ny": 8},
    "replicates": 500,
    "seed": 5,
    "sweep": {"areas_m2": [0.2], "kappas": [0.5, 2], "aspects": [3.0],
              "thresholds_db": [10.0, 15.5], "setups": ["C", "custom"]},
    "output_path": "out.csv",
}

# a sweep document whose lists are all given and all empty
EMPTY_SWEEP = dict.fromkeys((f.name for f in dataclasses.fields(SweepSpec)), [])


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(system=default_system(), grid=GridSpec(8, 8), replicates=150,
                seed=99, sweep=default_sweep(), output_path=None)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestLoadConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg.grid == GridSpec(32, 32)
        assert cfg.replicates == 10000
        assert cfg.system.array.m == 32
        assert cfg.system.correlation.kind is CorrelationKind.JAKES
        assert cfg.system.correlation.wavelength_m == pytest.approx(
            299792458.0 / 5.8e9)

    def test_db_conversion(self):
        cfg = load_config({
            "system": {"link": {"c0_db": -30.0}, "transmit_snr_db": 100.0}})
        assert cfg.system.link.c0 == pytest.approx(1e-3)
        assert cfg.system.transmit_snr == pytest.approx(1e10)

    def test_conflicting_gain_keys(self):
        with pytest.raises(ConfigError):
            load_config({"system": {"transmit_snr": 1.0, "transmit_snr_db": 0.0}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            load_config({"system": {"geometry": {"width": 1.0}}})
        with pytest.raises(ConfigError):
            load_config({"extra": 1})

    def test_wavelength_override(self):
        cfg = load_config({"system": {"wavelength_m": 0.1}})
        assert cfg.system.correlation.wavelength_m == 0.1
        with pytest.raises(ConfigError):
            load_config({"system": {"wavelength_m": 0.1, "carrier_hz": 1e9}})

    def test_bs_correlation_follows_surface_by_default(self):
        cfg = load_config({"system": {"correlation": {"kind": "sinc", "kappa": 0.5}}})
        assert cfg.system.bs_correlation.kind is CorrelationKind.SINC
        assert cfg.system.bs_correlation.kappa == 0.5

    def test_sweep_validation(self):
        with pytest.raises(ConfigError):
            load_config({"sweep": EMPTY_SWEEP})
        with pytest.raises(ConfigError):
            load_config({"sweep": {"setups": ["D"]}})
        for lists in ({"kappas": (math.inf,)}, {"areas_m2": (math.inf,)},
                      {"thresholds_db": (math.nan,)}):
            with pytest.raises(ConfigError, match="finite"):
                SweepSpec(**lists)
        # a threshold needs a linear value: 10^(4000/10) overflows
        SweepSpec(thresholds_db=(3080.0, -4000.0))
        with pytest.raises(ConfigError, match="4000.0 dB is out of range"):
            SweepSpec(thresholds_db=(20.0, 4000.0))

    def test_document_replaces_only_given_fields(self):
        assert load_config({}) == ExperimentConfig()
        cfg = load_config({"system": {"link": {"d_x_m": 20}, "array": {"m_x": 4.0}}})
        assert cfg.system.link == dataclasses.replace(LinkBudget(), d_x_m=20.0)
        assert cfg.system.array.m_x == 4 and isinstance(cfg.system.array.m_x, int)
        assert cfg.system.geometry == default_system().geometry
        assert load_config({"sweep": {}}).sweep == default_sweep()
        sweep = load_config({"sweep": {"areas_m2": [0.2]}}).sweep
        assert sweep == dataclasses.replace(default_sweep(), areas_m2=(0.2,))

    @pytest.mark.parametrize("overrides", [
        {"replicates": 1.5}, {"replicates": 0}, {"seed": 2.0}, {"seed": -1},
        {"grid": (8, 8)}, {"grid": {"nx": 8, "ny": 8}}, {"replicates": 1}, {"grid": None},
    ])
    def test_experiment_config_domain(self, overrides):
        with pytest.raises(ConfigError):
            tiny_config(**overrides)

    @given(shaped(SCHEMA))
    @settings(max_examples=300, deadline=None)
    def test_fuzz_returns_config_or_config_error(self, document):
        try:
            cfg = load_config(document)
        except ConfigError:
            return
        assert isinstance(cfg, ExperimentConfig)

    def test_hash_stable_and_sensitive(self):
        a = load_config(None)
        b = load_config(None)
        assert config_hash(a) == config_hash(b)
        c = load_config({"seed": 7})
        assert config_hash(a) != config_hash(c)

    def test_default_hash_frozen(self):
        # every CSV header carries this hash of the default config
        assert config_hash(load_config(None)) == (
            "b0eeb847febe75ec74ba418e06e6aa7d75c5279980297de3f92525cec94e0f52")

    @pytest.mark.parametrize("document", [None, FULL_DOCUMENT], ids=["default", "full"])
    def test_written_config_reads_back(self, document):
        cfg = load_config(document)
        assert load_config(json.loads(json.dumps(config_to_dict(cfg)))) == cfg

    def test_every_leaf_reaches_the_hash(self):
        doc = json.loads(json.dumps(config_to_dict(load_config(None))))
        base = config_hash(load_config(doc))

        def leaves(node, path=()):
            if isinstance(node, (dict, list)):
                for key, child in (node.items() if isinstance(node, dict)
                                   else enumerate(node)):
                    yield from leaves(child, path + (key,))
            else:
                yield path, node

        for path, value in leaves(doc):
            if path == ("output_path",):  # the destination does not shape the numbers
                continue
            edited = json.loads(json.dumps(doc))
            *parents, last = path
            section = functools.reduce(lambda node, key: node[key], parents, edited)
            if isinstance(value, str):
                section[last] = {"jakes": "sinc"}.get(value, "custom")
            else:
                section[last] = value + 1
            assert config_hash(load_config(edited)) != base, path
        edited = dict(doc, output_path="elsewhere.csv")
        assert config_hash(load_config(edited)) == base


class TestEmit(object):
    def _table(self):
        return ResultTable(columns=("a", "b"), rows=((1, 2.5), (3, 0.125)),
                           provenance={"config_sha256": "ff", "seed": 1,
                                       "version": "0.1.0"})

    def test_round_trip(self, tmp_path):
        path = tmp_path / "out.csv"
        emit(self._table(), str(path))
        text = path.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "# config_sha256=ff"
        assert lines[3] == "a,b"
        assert lines[4] == "1,2.5"

    def test_byte_identical_rerun(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(self._table(), str(p1))
        emit(self._table(), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_numpy_scalar_cells(self, tmp_path):
        table = ResultTable(columns=("a", "b"), rows=((np.float64(0.1), np.int64(3)),),
                            provenance={"seed": 0})
        path = tmp_path / "np.csv"
        emit(table, str(path))
        assert path.read_text() == "# seed=0\na,b\n0.1,3\n"

    def test_empty_table(self, tmp_path):
        table = ResultTable(columns=("x",), rows=(),
                            provenance={"seed": 0})
        path = tmp_path / "empty.csv"
        emit(table, str(path))
        assert path.read_text() == "# seed=0\nx\n"


class TestScenarios:
    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            run_scenario("fig9", tiny_config())

    def test_missing_sweep(self):
        cfg = tiny_config(sweep=SweepSpec(kappas=(1.0,)))
        with pytest.raises(ConfigError):
            run_scenario("fig2", cfg)

    def test_table1_ordering(self):
        cfg = tiny_config(sweep=SweepSpec(kappas=(0.0, 0.1, 0.5, 1.0)))
        table = run_scenario("table1", cfg)
        assert table.columns == ("kappa", "seb", "det", "det_over_seb_pct")
        ratios = [row[3] for row in table.rows]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))

    def test_fig2_structure_and_zero_area_limit(self):
        cfg = tiny_config(sweep=SweepSpec(areas_m2=(1e-8, 0.1)))
        table = run_scenario("fig2", cfg)
        assert [row[:2] for row in table.rows] == [
            (1e-8, "sinc"), (1e-8, "jakes"), (0.1, "sinc"), (0.1, "jakes")]
        terms_gamma_m_beta = (cfg.system.transmit_snr * 32
                              * 1.3671797810418105e-12)
        for row in table.rows[:2]:
            assert row[2] == pytest.approx(terms_gamma_m_beta, rel=1e-3)

    def test_fig3_bound_dominates(self):
        # at kappa = 1 the bound sits only 0.017 bits above the 8x8 grid's
        # mean rate, 1.4 standard errors of a 400-replicate mean; 10^4
        # replicates put it 7 standard errors above
        cfg = tiny_config(replicates=10 ** 4,
                          sweep=SweepSpec(kappas=(0.5, 1.0), areas_m2=(0.1,)))
        table = run_scenario("fig3", cfg)
        assert table.columns == ("kappa", "area", "se_bound", "mean_se_mc", "det")
        for row in table.rows:
            assert row[2] >= row[3]

    def test_fig4_structure(self):
        cfg = tiny_config(replicates=400, sweep=SweepSpec(
            areas_m2=(0.1,), aspects=(1.0,), thresholds_db=(20.0, 25.0, 30.0)))
        table = run_scenario("fig4", cfg)
        assert len(table.rows) == 6  # 2 models x 3 thresholds
        for row in table.rows:
            assert 0.0 <= row[4] <= 1.0
            assert 0.0 <= row[5] <= 1.0

    def test_fig4_rows_equal_scalar_calls(self):
        thresholds = tuple(20.0 + 2.5 * i for i in range(9))
        cfg = tiny_config(replicates=400, sweep=SweepSpec(
            areas_m2=(0.1,), aspects=(1.0, 20.0), thresholds_db=thresholds))
        table = run_scenario("fig4", cfg)
        expected = []
        points = itertools.product((1.0, 20.0), (CorrelationKind.SINC, CorrelationKind.JAKES))
        for index, (aspect, model) in enumerate(points):
            system = cli._point(cfg.system, area=0.1, aspect=aspect, model=model)
            snr = snr_moments(system)
            fit = gamma_fit(snr.mu1, snr.mu2)
            batch = run_replicates(system, GridSpec(8, 8), 400,
                                   cli._point_seed(cfg.seed, 4, index))
            ecdf = EmpiricalCdf(batch.snr_samples)
            for t_db in thresholds:
                x = 10.0 ** (t_db / 10.0)
                expected.append((0.1, aspect, model.value, t_db,
                                 outage_probability(fit, x), ecdf(x)))
        assert table.rows == tuple(expected)
        assert len({row[5] for row in table.rows}) > 2  # the ECDF is not flat here
        # a leaked numpy scalar would print as np.float64(...) in the CSV
        assert all(type(cell) is float for row in table.rows for cell in row[3:])

    def test_fig5_structure(self):
        cfg = tiny_config(replicates=400, sweep=SweepSpec(
            setups=("A", "B"), areas_m2=(0.1,), kappas=(1.0,)))
        table = run_scenario("fig5", cfg)
        assert table.columns == ("area", "kappa", "setup", "cv2_analytic", "cv2_mc")
        assert [row[2] for row in table.rows] == ["A", "B"]
        # the longer direct path of setup B hardens the channel more
        assert table.rows[1][3] < table.rows[0][3]

    def test_fig5_builds_one_unit_factor_per_key(self, monkeypatch):
        # the A/B/C layouts of one (geometry, grid, model) share its unit
        # surface factor: 48 points, 16 keys
        calls = []
        blocks = mcsim.surface_blocks
        monkeypatch.setattr(mcsim, "surface_blocks", lambda *args: calls.append(args)
                            or blocks(*args))
        cfg = tiny_config(replicates=2, sweep=default_sweep())
        table = run_scenario("fig5", cfg)
        assert len(table.rows) == 48
        assert len(calls) == 16

    def test_swept_axes_set_both_correlation_models(self):
        # a configured bs_correlation keeps only what the scenario does not
        # sweep: the model axis sets both kinds, the kappa axis both kappas
        system = dataclasses.replace(default_system(), bs_correlation=dataclasses.replace(
            default_system().bs_correlation, kind=CorrelationKind.SINC, kappa=0.3))
        at_kappa = cli._point(system, kappa=0.5, area=0.1)
        assert (at_kappa.bs_correlation.kind, at_kappa.bs_correlation.kappa) == (
            CorrelationKind.SINC, 0.5)
        assert at_kappa.correlation.kappa == 0.5
        at_model = cli._point(system, area=0.1, model=CorrelationKind.JAKES)
        assert (at_model.bs_correlation.kind, at_model.bs_correlation.kappa) == (
            CorrelationKind.JAKES, 0.3)

    def test_reproducible_rows(self):
        cfg = tiny_config(sweep=SweepSpec(areas_m2=(0.1,)))
        a = run_scenario("fig2", cfg)
        b = run_scenario("fig2", cfg)
        assert a.rows == b.rows


class TestValidate:
    def test_default_passes(self):
        # the default square, and a 50:1 strip of its area: the strip's last
        # distance-density interval holds a tiny share of the m2 integral,
        # which a per-interval tolerance cannot resolve
        for aspect in (1.0, 50.0):
            system = cli._point(default_system(), area=0.4, aspect=aspect)
            checks = validate(tiny_config(system=system, replicates=400))
            assert all(c.passed for c in checks), aspect
            names = {c.name for c in checks}
            assert {"m2_iso_vs_quad4_rel", "distance_pdf_normalization",
                    "mean_y_exactness_z", "jensen_dominance_slack",
                    "gamma_fit_round_trip_rel", "snr_expansion_identity_rel"} <= names
            for check in checks:
                json.dumps(dataclasses.asdict(check))

    @pytest.mark.parametrize("sides", [(10.0, 0.04), (100.0, 0.004)],
                             ids=["250to1", "25000to1"])
    def test_thin_strip_passes(self, tmp_path, capsys, sides):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"system": {"geometry": {"width_m": sides[0], "height_m": sides[1]}}}))
        code = cli.main(["--config", str(path), "--validate", "--grid", "8x8",
                         "--replicates", "400"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert len(lines) == 6 and all(line.startswith("[PASS]") for line in lines)

    def test_identity_check_reads_the_replicate_loop(self, monkeypatch):
        # the check compares the batch's own SNR samples with the norm form,
        # so a 1e-8 error in the loop's scoring must fail it
        score = mcsim.Oracle.snr
        monkeypatch.setattr(mcsim.Oracle, "snr",
                            lambda self, *args: score(self, *args) * (1.0 + 1e-8))
        checks = {c.name: c for c in validate(tiny_config(replicates=400))}
        identity = checks["snr_expansion_identity_rel"]
        assert not identity.passed
        assert identity.measured == pytest.approx(1e-8, rel=1e-3)
        assert checks["mean_y_exactness_z"].passed

    def test_direct_correlation_factored_once(self, monkeypatch):
        # the oracle eigendecomposes R_d once, from the model matrix, and
        # the surface blocks without clipped_eigh
        calls = []
        clipped_eigh = mcsim.clipped_eigh
        monkeypatch.setattr(mcsim, "clipped_eigh", lambda matrix: (
            calls.append(matrix.shape), clipped_eigh(matrix))[1])
        assert all(c.passed for c in validate(tiny_config(replicates=400)))
        assert calls == [(32, 32)]

    def test_batch_and_identity_check_share_one_factor(self, monkeypatch):
        # validate factors the surface once, and its batch is bit for bit
        # the batch run_replicates draws
        cfg = tiny_config(replicates=400)
        builds, batches = [], []
        build, batch_of = mcsim.build_surface_covariance, mcsim.Oracle.batch

        def recorded(oracle, n, seed):
            batches.append((oracle, batch_of(oracle, n, seed)))
            return batches[-1][1]

        monkeypatch.setattr(mcsim, "build_surface_covariance",
                            lambda *args: builds.append(args) or build(*args))
        monkeypatch.setattr(mcsim.Oracle, "batch", recorded)
        assert all(c.passed for c in validate(cfg))
        assert len(builds) == 1
        (oracle, batch), = batches
        system, grid = oracle.cfg, oracle.sampler.grid
        assert system == cfg.system and grid == cfg.grid
        monkeypatch.undo()
        expect = run_replicates(system, grid, batch.n, batch.seed)
        assert np.array_equal(batch.y_samples, expect.y_samples)
        assert np.array_equal(batch.snr_samples, expect.snr_samples)

    def test_corrupted_tolerance_surfaces_quadrature_failure(self, monkeypatch):
        def unreachable(*args):
            raise QuadratureFailure("tolerance unreachable")

        monkeypatch.setattr(cli, "moment_m2_iso", unreachable)
        checks = validate(tiny_config(replicates=400))
        failed = {c.name: c for c in checks if not c.passed}
        assert "m2_iso_vs_quad4_rel" in failed
        assert "QuadratureFailure" in failed["m2_iso_vs_quad4_rel"].note


class TestMain:
    def test_scenario_run(self, tmp_path):
        config = {"grid": {"nx": 8, "ny": 8}, "replicates": 150,
                  "sweep": {"kappas": [0.5, 1.0]}, "seed": 3}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "t.csv"
        code = cli.main(["--config", str(cfg_path), "--scenario", "table1",
                         "--out", str(out)])
        assert code == 0
        body = out.read_text()
        assert body.startswith("# config_sha256=")
        assert "kappa,seb,det,det_over_seb_pct" in body

    def test_rerun_csv_identical_with_provenance(self, tmp_path, monkeypatch):
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"grid": {"nx": 8, "ny": 6}, "replicates": 150,
                                        "sweep": {"areas_m2": [0.1]}, "seed": 3}))
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in outs:
            assert cli.main(["--config", str(cfg_path), "--scenario", "fig2",
                             "--out", str(out)]) == 0
        first, second = (out.read_bytes() for out in outs)
        assert first == second
        header = dict(line[2:].split("=", 1) for line in first.decode().splitlines()
                      if line.startswith("# "))
        assert header["numpy"] == np.__version__
        assert header["blas"] and header["blas"] != "unknown"
        assert header["OPENBLAS_NUM_THREADS"] == os.environ.get("OPENBLAS_NUM_THREADS", "unset")
        assert header["OMP_NUM_THREADS"] == "unset"
        assert header["grid"] == "8x6" and header["replicates"] == "150"

    def test_overrides_change_hash(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = {"grid": {"nx": 8, "ny": 8}, "replicates": 100,
               "sweep": {"kappas": [1.0]}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert cli.main(["--config", str(p), "--scenario", "table1",
                         "--out", str(out1)]) == 0
        assert cli.main(["--config", str(p), "--scenario", "table1",
                         "--seed", "5", "--out", str(out2)]) == 0
        assert out1.read_text() != out2.read_text()

    def test_invisible_steering_vector_exits_0(self, tmp_path):
        # at kappa = 0 R_d is all ones, and this arrival makes sum(a) = 0,
        # so a^H R a is 0 up to roundoff of either sign
        array = {"m_x": 8, "m_z": 4, "spacing_wavelengths": 1.0,
                 "theta_a_rad": 1.0471975511965976, "phi_a_rad": 1.5795229733034795}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"system": {"array": array}}))
        for scenario in (["table1"], ["fig3", "--grid", "8x8", "--replicates", "200"]):
            assert cli.main(["--config", str(cfg_path), "--scenario", *scenario,
                             "--out", str(tmp_path / "out.csv")]) == 0

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sweep": EMPTY_SWEEP}))
        assert cli.main(["--config", str(bad), "--scenario", "table1",
                         "--out", "x.csv"]) == 2
        assert cli.main(["--scenario", "table1"]) == 2  # no output path
        assert cli.main([]) == 2  # no scenario
        assert cli.main(["--validate", "--replicates", "1"]) == 2  # no standard error
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("document", BAD_DOCUMENTS)
    def test_malformed_config_exits_2_with_message(self, tmp_path, capsys, document):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        code = cli.main(["--config", str(path), "--scenario", "table1",
                         "--out", str(tmp_path / "t.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err and "Traceback" not in err

    @pytest.mark.parametrize("document", SNR_OVERFLOW_DOCUMENTS)
    def test_snr_overflow_under_validate_exits_2(self, tmp_path, capsys, document):
        # a numpy overflow warning raises here, and main does not catch it
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["--config", str(path), "--validate", "--grid", "8x8",
                             "--replicates", "200"])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err and "transmit_snr" in err and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["jakes", "sinc"])
    def test_overflowing_kappa_prints_every_check(self, tmp_path, capsys, kind):
        # kappa r / lambda overflows: both kernels take their limit 0 and the
        # node count its cap, so every check runs and prints its line
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"system": {"correlation": {"kind": kind, "kappa": 1e307}}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["--config", str(path), "--validate", "--grid", "8x8",
                             "--replicates", "400"])
        out, err = capsys.readouterr()
        assert code == 1
        assert len(out.splitlines()) == 6 and "Traceback" not in err

    @pytest.mark.parametrize("key", ["correlation", "bs_correlation"])
    @pytest.mark.parametrize("kind, kappa", [("sinc", 1e308), ("jakes", 3e307)],
                             ids=["sinc", "jakes"])
    def test_overflowing_kernel_scale_exits_2(self, tmp_path, capsys, key, kind, kappa):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"system": {key: {"kind": kind, "kappa": kappa}}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["--config", str(path), "--validate", "--grid", "8x8",
                             "--replicates", "400"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("config error") and "kappa" in err and "Traceback" not in err

    # sizes numpy cannot index, a grid side below 2, and surfaces whose area
    # leaves (0, inf) although each side is positive and finite: each is
    # rejected before anything is allocated
    @pytest.mark.parametrize("args,document", [
        (["--validate", "--grid", "99999999999999999999x2"], None),
        (["--validate"], {"grid": {"nx": 1e20}}),
        (["--validate"], {"system": {"array": {"m_x": 1e20}}}),
        (["--scenario", "fig2", "--replicates", "99999999999999999999"], None),
        (["--validate", "--grid", "1x8"], None),
        (["--validate"], {"grid": {"nx": 1}}),
        (["--validate"], {"system": {"geometry": {"width_m": 1e-200, "height_m": 1e-200}}}),
        (["--validate"], {"system": {"geometry": {"width_m": 1e200, "height_m": 1e200}}}),
    ], ids=["grid_flag", "grid_config", "antennas", "replicates", "grid_flag_1x8",
            "grid_config_nx_1", "zero_area", "infinite_area"])
    def test_unindexable_sizes_exit_2(self, tmp_path, capsys, args, document):
        out = tmp_path / "x.csv"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(document or {}))
        assert cli.main(["--config", str(path), *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("text", [b"{\"seed\": 1", b"\xff\xfe{}", b"[" + b"9" * 5000 + b"]"])
    def test_unreadable_json_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        assert cli.main(["--config", str(path), "--validate"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file(self):
        assert cli.main(["--config", "/nonexistent.json", "--scenario",
                         "table1", "--out", "x.csv"]) == 2

    def test_validation_failure_exit_code(self, monkeypatch):
        from contris.cli import CheckResult
        monkeypatch.setattr(cli, "validate", lambda cfg: (
            CheckResult("x", 1.0, 0.5, False),))
        assert cli.main(["--validate"]) == 1

    def test_validate_exit_ok(self, tmp_path):
        cfg = {"grid": {"nx": 8, "ny": 8}, "replicates": 200}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert cli.main(["--config", str(p), "--validate"]) == 0

    def test_byte_identical_csv(self, tmp_path):
        cfg = {"grid": {"nx": 8, "ny": 8}, "replicates": 120,
               "sweep": {"areas_m2": [0.1]}, "seed": 11}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert cli.main(["--config", str(p), "--scenario", "fig2",
                         "--out", str(out1)]) == 0
        assert cli.main(["--config", str(p), "--scenario", "fig2",
                         "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_grid_override_parsing(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"replicates": 100, "sweep": {"kappas": [1.0]}}))
        out = tmp_path / "g.csv"
        assert cli.main(["--config", str(p), "--scenario", "table1",
                         "--grid", "8x8", "--out", str(out)]) == 0
        assert cli.main(["--config", str(p), "--scenario", "table1",
                         "--grid", "bogus", "--out", str(out)]) == 2
