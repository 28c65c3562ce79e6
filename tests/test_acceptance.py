"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the measured quantity.

The heavy Monte Carlo batches are shared through the session-scoped
``batches`` fixture, so criteria reusing a configuration do not resample.
Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import dataclasses
import math

import numpy as np
import pytest

from contris.analytic import (
    YMoments,
    cv_squared,
    dominant_error_term,
    gamma_fit,
    link_terms,
    moment_m1,
    moment_m2_iso,
    moment_m2_quad4,
    outage_probability,
    rect_distance_pdf,
    se_bound,
    snr_moments,
)
from contris.cli import _point, default_system
from contris.mcsim import EmpiricalCdf, GridSpec, Oracle, sample_field, suggest_grid
from contris.quadrature import QuadratureSpec, adaptive_gauss_kronrod
from contris.sysmodel import (
    CorrelationKind,
    IsotropicCorrelation,
    SurfaceGeometry,
    derive_gains,
)

from conftest import MASTER_SEED, WAVELENGTH, ZeroCorrelation

UNIT_SQUARE_MEAN_SEPARATION = 0.52140543316472067833


def _report(num: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_moment_oracle_equivalence():
    beta_ur = derive_gains(_point(default_system(), area=0.2,
                                  model=CorrelationKind.JAKES)).beta_ur
    worst = 0.0
    worst_case = ""
    for aspect in (1.0, 2.0, 20.0, 50.0):
        geom = _point(default_system(), area=0.2, aspect=aspect).geometry
        for kind in (CorrelationKind.SINC, CorrelationKind.JAKES):
            for kappa in (0.1, 0.5, 1.0):
                model = IsotropicCorrelation(kind, kappa, WAVELENGTH)
                iso = moment_m2_iso(geom, model, beta_ur)
                brute = moment_m2_quad4(geom, model, beta_ur)
                rel = abs(iso - brute) / brute
                if rel > worst:
                    worst, worst_case = rel, f"aspect {aspect}:1 {kind.value} k={kappa}"
    _report(1, worst < 1e-4,
            f"worst |m2_iso - m2_quad4|/m2 = {worst:.2e} ({worst_case}), tol 1e-4")


def test_criterion_2_closed_form_corners():
    system = _point(default_system(), area=0.2, model=CorrelationKind.JAKES)
    geom = system.geometry
    beta_ur = derive_gains(system).beta_ur
    frozen = IsotropicCorrelation(CorrelationKind.JAKES, 0.0, WAVELENGTH)
    exact = beta_ur * geom.area_m2 ** 2
    rel_iso = abs(moment_m2_iso(geom, frozen, beta_ur) - exact) / exact
    rel_quad = abs(moment_m2_quad4(geom, frozen, beta_ur) - exact) / exact
    m1 = moment_m1(geom, beta_ur)
    rel_zero = abs(moment_m2_iso(geom, ZeroCorrelation(), beta_ur) - m1 ** 2) / m1 ** 2
    ok = max(rel_iso, rel_quad, rel_zero) < 1e-8
    _report(2, ok, "perfect correlation rel err (iso, 4-D) = "
            f"({rel_iso:.2e}, {rel_quad:.2e}); zero-correlation vs m1^2 = "
            f"{rel_zero:.2e}; tol 1e-8")


def test_criterion_3_mean_y_exactness(batches):
    system = _point(default_system(), area=0.4, model=CorrelationKind.JAKES)
    m1 = moment_m1(system.geometry, derive_gains(system).beta_ur)
    zs = []
    for side in (16, 64):
        s = batches(system, side, side, 10 ** 4).summaries()
        zs.append(abs(s.mean_y - m1) / s.se_mean_y)
    ok = all(z < 3.0 for z in zs)
    _report(3, ok, f"|mean(Y) - closed form| in SE units: 16x16 -> {zs[0]:.2f}, "
            f"64x64 -> {zs[1]:.2f}; tol 3")


def test_criterion_4_mean_snr_and_area_scaling(batches):
    areas = (0.1, 0.2, 0.3, 0.4)
    worst_z = 0.0
    slopes = {}
    for kind in (CorrelationKind.SINC, CorrelationKind.JAKES):
        mu1s = []
        for area in areas:
            system = _point(default_system(), area=area, model=kind)
            mu1 = snr_moments(system).mu1
            mu1s.append(mu1)
            s = batches(system, 64, 64, 10 ** 4).summaries()
            worst_z = max(worst_z, abs(s.mean_snr - mu1) / s.se_mean_snr)
        terms = link_terms(system)
        floor = terms.gamma * terms.m * terms.beta_d
        upper = [(a, m) for a, m in zip(areas, mu1s) if a >= 0.5 * (areas[0] + areas[-1])]
        slope = np.polyfit(np.log([a for a, _ in upper]),
                           np.log([m - floor for _, m in upper]), 1)[0]
        slopes[kind.value] = slope
    ok = worst_z < 3.0 and all(1.8 <= s <= 2.05 for s in slopes.values())
    _report(4, ok, f"worst z = {worst_z:.2f} (tol 3); upper-half log-log slopes "
            f"{ {k: round(v, 3) for k, v in slopes.items()} } in [1.8, 2.05]")


def test_criterion_5_jensen_bound_and_det_ordering(batches):
    kappas = (0.0, 0.1, 0.5, 1.0)
    ratios = []
    jensen_ok = True
    detail_parts = []
    for kappa in kappas:
        system = _point(default_system(), area=0.4, model=CorrelationKind.JAKES,
                        kappa=kappa)
        mu1, mu2 = dataclasses.astuple(snr_moments(system))
        seb = se_bound(mu1)
        det = dominant_error_term(mu1, mu2)
        ratios.append(det / seb)
        s = batches(system, 64, 64, 10 ** 4).summaries()
        jensen_ok &= seb >= s.mean_se_bits - 3.0 * s.se_mean_se_bits
        detail_parts.append(f"k={kappa}: {100 * det / seb:.3f}%")
    decreasing = all(b < a for a, b in zip(ratios, ratios[1:]))
    final_small = ratios[-1] < 0.01
    _report(5, jensen_ok and decreasing and final_small,
            "bound >= MC mean rate (3 SE) on all kappas; DET/SEB "
            + ", ".join(detail_parts) + "; strictly decreasing, < 1% at k=1")


def test_criterion_6_outage_approximation(batches):
    n = 10 ** 5
    worst_ks = 0.0
    worst_case = ""
    cv2_emp = {}
    for area in (0.3, 0.4):
        for aspect in (1.0, 20.0):
            for kind in (CorrelationKind.SINC, CorrelationKind.JAKES):
                system = _point(default_system(), area=area, aspect=aspect, model=kind)
                grid = suggest_grid(system.geometry, system.correlation)
                batch = batches(system, grid.nx, grid.ny, n)
                mu1, mu2 = dataclasses.astuple(snr_moments(system))
                fit = gamma_fit(mu1, mu2)
                ks = EmpiricalCdf(batch.snr_samples).ks_distance(
                    lambda xs: outage_probability(fit, xs))
                if ks > worst_ks:
                    worst_ks, worst_case = ks, f"A={area} {aspect}:1 {kind.value}"
                s = batch.summaries()
                cv2_emp[(area, aspect, kind)] = s.var_snr / s.mean_snr ** 2
    narrower = all(
        cv2_emp[(area, 20.0, CorrelationKind.JAKES)]
        < cv2_emp[(area, 1.0, CorrelationKind.JAKES)]
        for area in (0.3, 0.4))
    _report(6, worst_ks < 0.03 and narrower,
            f"worst KS distance = {worst_ks:.4f} ({worst_case}), tol 0.03; "
            "20:1 aspect narrower than 1:1 under Jakes at both areas: "
            f"{narrower}")


def test_criterion_7_channel_hardening(batches):
    areas = (0.1, 0.2, 0.3, 0.4)
    kappas = (0.25, 0.5, 1.0)
    cv2 = {}
    for setup in ("A", "B", "C"):
        for area in areas:
            for kappa in kappas:
                system = _point(default_system(), area=area,
                                model=CorrelationKind.SINC, kappa=kappa, setup=setup)
                mu1, mu2 = dataclasses.astuple(snr_moments(system))
                cv2[(setup, area, kappa)] = cv_squared(mu1, mu2)
    monotone_area = all(
        cv2[(s, a2, k)] <= cv2[(s, a1, k)] + 1e-15
        for s in "ABC" for k in kappas
        for a1, a2 in zip(areas, areas[1:]))
    monotone_kappa = all(
        cv2[(s, a, k2)] <= cv2[(s, a, k1)] + 1e-15
        for s in "ABC" for a in areas
        for k1, k2 in zip(kappas, kappas[1:]))
    b_below_a = all(
        cv2[("B", a, k)] < cv2[("A", a, k)]
        for a in areas for k in (0.5, 1.0))

    worst_rel = 0.0
    for area in (0.2, 0.3, 0.4):
        system = _point(default_system(), area=area, model=CorrelationKind.SINC,
                        kappa=1.0, setup="A")
        grid = suggest_grid(system.geometry, system.correlation)
        s = batches(system, grid.nx, grid.ny, 10 ** 4).summaries()
        mc = s.var_snr / s.mean_snr ** 2
        worst_rel = max(worst_rel, abs(mc - cv2[("A", area, 1.0)]) / cv2[("A", area, 1.0)])

    ok = monotone_area and monotone_kappa and b_below_a and worst_rel < 0.15
    _report(7, ok, f"CV^2 nonincreasing in area: {monotone_area}, in kappa: "
            f"{monotone_kappa}; setup B below A: {b_below_a}; worst MC/analytic "
            f"relative gap = {worst_rel:.3f} (tol 0.15)")


def test_criterion_8_per_sample_identity_and_dominance():
    system = _point(default_system(), area=0.2, model=CorrelationKind.JAKES)
    grid = GridSpec(16, 16)
    oracle = Oracle.build(system, grid)

    def draws(seed, index):
        coeffs, h_d = oracle.draw_block(seed, index)
        fields = sample_field(oracle.sampler, coeffs)
        return fields, h_d, oracle.snr_under(fields, h_d, oracle.optimal_phases(fields, h_d))

    # the replicate loop's expansion in Y against the norm form of its draws
    n = 10 ** 4
    expanded = oracle.batch(n, MASTER_SEED).snr_samples
    norm = np.concatenate([draws(MASTER_SEED, index)[2]
                           for index in range(-(-n // 256))])[:n]
    worst_rel = float(np.max(np.abs(expanded - norm) / norm))
    identity_ok = worst_rel <= 1e-10

    violations = 0
    rng = np.random.default_rng(MASTER_SEED + 1)
    fields, h_d, best = draws(MASTER_SEED + 2, 0)
    for j in range(100):
        phases = np.exp(2j * math.pi * rng.uniform(size=(grid.n_points, 100)))
        snr = oracle.snr_under(fields[:, j:j + 1], h_d[:, j:j + 1], phases)
        violations += int(np.sum(snr > best[j]))
    _report(8, identity_ok and violations == 0,
            f"worst expansion/norm-form relative gap = {worst_rel:.2e} "
            f"(tol 1e-10) over 1e4 draws; dominance violations = {violations} "
            "over 100x100 random profiles")


def test_criterion_9_moment_recursion_exactness():
    worst = 0.0
    for k in (0.5, 1.0, 2.0, 7.0):
        for theta in (0.1, 1.0, 10.0):
            m1 = k * theta
            m2 = k * (k + 1.0) * theta ** 2
            ym = YMoments(m1, m2)
            exact3 = k * (k + 1) * (k + 2) * theta ** 3
            exact4 = k * (k + 1) * (k + 2) * (k + 3) * theta ** 4
            worst = max(worst, abs(ym.m3 - exact3) / exact3,
                        abs(ym.m4 - exact4) / exact4)
    _report(9, worst < 1e-12,
            f"worst gamma-moment recursion relative error = {worst:.2e}, tol 1e-12")


def test_criterion_10_distance_density_plumbing():
    rng = np.random.default_rng(MASTER_SEED)
    worst_norm = 0.0
    spec = QuadratureSpec(rel_tol=1e-12)
    for _ in range(20):
        width = float(rng.uniform(0.1, 3.0))
        aspect = float(rng.uniform(1.0, 50.0))
        geom = SurfaceGeometry(width, width / aspect)
        w, h = geom.canonical()
        total, _ = adaptive_gauss_kronrod(lambda r: rect_distance_pdf(geom, r),
                                          [0.0, h, w, geom.diagonal_m], spec)
        worst_norm = max(worst_norm, abs(total - 1.0))

    # 1e7 uniform point pairs in the unit square
    total = 0.0
    total_sq = 0.0
    n = 10 ** 7
    done = 0
    while done < n:
        m = min(10 ** 6, n - done)
        pts = rng.uniform(size=(m, 4))
        d = np.hypot(pts[:, 0] - pts[:, 2], pts[:, 1] - pts[:, 3])
        total += d.sum()
        total_sq += (d * d).sum()
        done += m
    mc_mean = total / n
    sd = math.sqrt(total_sq / n - mc_mean ** 2)
    z = abs(UNIT_SQUARE_MEAN_SEPARATION - mc_mean) / (sd / math.sqrt(n))

    ok = worst_norm < 1e-10 and z < 3.0
    _report(10, ok, f"worst normalization defect over 20 rectangles = "
            f"{worst_norm:.2e} (tol 1e-10); unit-square mean separation vs "
            f"1e7-pair MC: z = {z:.2f} (tol 3)")
