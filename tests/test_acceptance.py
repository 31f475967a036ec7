"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints one `ACCEPTANCE <n> ... PASS/FAIL` line (visible with
`pytest -s` or in captured output on failure).  Random draws use the
criterion number as seed, fixed up front.
"""

import math
import time
from functools import partial

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from bridge_reference import integrate, noncross_affine
from slepian_bcp import (AffinePiece, BridgeSpec, GaussianVectorSpec,
                         Partition, PiecewiseAffineBoundary, ProcessParams,
                         SimConfig, approximate, bcp_montecarlo,
                         bcp_quadrature, conditional_density,
                         constant_boundary, convergence_study,
                         covariance_matrix, empirical_bcp,
                         empirical_covariance, fdd_density,
                         hitting_density_double, noncross_constant,
                         pair_density, affine_boundary)
from slepian_bcp.numerics import gauss_legendre_on


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _random_bridge(rng, slope_range=(-2.0, 2.0), gap=(0.05, 2.0)):
    q = rng.uniform(0.3, 3.0)
    d = q * rng.uniform(1.05, 2.0)
    h = rng.uniform(0.05, 1.0) * (d - q)
    t_i = rng.uniform(q, d - h)
    b = rng.uniform(-0.5, 2.0)
    a = rng.uniform(*slope_range)
    x_i = b - rng.uniform(*gap)
    x_i1 = b + a * h - rng.uniform(*gap)
    return BridgeSpec(ProcessParams(q, d), t_i, t_i + h, x_i, x_i1), b, a


def test_criterion_01_zero_slope_reduction():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        spec, b, _ = _random_bridge(rng, slope_range=(0.0, 0.0),
                                    gap=(0.02, 2.5))
        diff = abs(noncross_affine(spec, b, 0.0) - noncross_constant(spec, b))
        worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    _report(1, "a=0 reduction", worst <= 1e-8 and elapsed < 10.0,
            f"worst |diff|={worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_hitting_density_identity():
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        spec, b, a = _random_bridge(rng)
        total = integrate(partial(hitting_density_double, spec, b, a),
                          spec.t_i, spec.t_i1, 1e-8)
        gap = abs(noncross_affine(spec, b, a) + total - 1.0)
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    _report(2, "hitting-density identity", worst <= 1e-6 and elapsed < 30.0,
            f"worst |gap|={worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_brownian_bridge_coincidence():
    rng = np.random.default_rng(3)
    q = 2.0
    worst = 0.0
    for _ in range(100):
        d = q * rng.uniform(1.05, 2.0)
        h = rng.uniform(0.05, 1.0) * (d - q)
        t_i = rng.uniform(q, d - h)
        b = rng.uniform(-0.5, 2.0)
        x_i = b - rng.uniform(0.0, 2.0)
        x_i1 = b - rng.uniform(0.0, 2.0)
        spec = BridgeSpec(ProcessParams(q, d), t_i, t_i + h, x_i, x_i1)
        brownian = 1.0 - math.exp(-2.0 * (b - x_i) * (b - x_i1)
                                  / (2.0 * h / q))
        worst = max(worst, abs(noncross_constant(spec, b) - brownian))
    _report(3, "Brownian-bridge coincidence at q=2", worst <= 1e-12,
            f"worst |diff|={worst:.2e}")


def test_criterion_04_partition_invariance():
    params = ProcessParams(1.0, 2.0)
    bnd = constant_boundary(params, 1.0)
    start = time.perf_counter()
    q1 = bcp_quadrature(bnd, Partition.from_boundary(bnd), tol=1e-7)
    q3 = bcp_quadrature(bnd, Partition.equidistant(params, 3), tol=1e-7)
    quad_gap = abs(q1.value - q3.value)
    m2 = bcp_montecarlo(bnd, Partition.equidistant(params, 2),
                        n_paths=1_000_000, seed=4)
    m8 = bcp_montecarlo(bnd, Partition.equidistant(params, 8),
                        n_paths=1_000_000, seed=40)
    mc_gap = abs(m2.value - m8.value)
    mc_bound = 3.0 * math.hypot(m2.error, m8.error)
    elapsed = time.perf_counter() - start
    _report(4, "partition invariance",
            quad_gap <= 5e-4 and mc_gap <= mc_bound and elapsed < 120.0,
            f"quad gap={quad_gap:.2e}, mc gap={mc_gap:.2e} "
            f"(bound {mc_bound:.2e}), {elapsed:.1f}s")


def test_criterion_05_cross_method_agreement():
    params = ProcessParams(1.0, 2.0)
    boundaries = [
        constant_boundary(params, 1.0),
        affine_boundary(params, 0.5, 1.0),
        PiecewiseAffineBoundary(params, (AffinePiece(1.0, 1.5, 1.0, -0.6),
                                         AffinePiece(1.5, 2.0, 0.7, 0.4))),
    ]
    start = time.perf_counter()
    details = []
    ok = True
    for i, bnd in enumerate(boundaries):
        quad = bcp_quadrature(bnd, tol=1e-6)
        mc = bcp_montecarlo(bnd, n_paths=1_000_000, seed=5 + i)
        gap = abs(quad.value - mc.value)
        bound = 3.0 * mc.error + quad.error
        ok = ok and gap <= bound
        details.append(f"gap={gap:.2e}/bound={bound:.2e}")
    elapsed = time.perf_counter() - start
    _report(5, "quadrature vs Monte Carlo",
            ok and elapsed < 180.0, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_06_path_simulation_oracle():
    params = ProcessParams(1.0, 2.0)
    bnd = constant_boundary(params, 1.0)
    analytic = bcp_quadrature(bnd, tol=1e-8).value
    start = time.perf_counter()
    est1 = empirical_bcp(SimConfig(params, 1e-3, 100_000, 6), bnd)
    est2 = empirical_bcp(SimConfig(params, 5e-4, 100_000, 6), bnd)
    elapsed = time.perf_counter() - start
    dev1 = abs(est1.value - analytic)
    dev2 = abs(est2.value - analytic)
    # both estimates are unbiased, so each must agree with quadrature
    # within its own sampling error; refinement is tested on the node-wise
    # check (test_oracle.py::test_nodes_deficit_decays_like_sqrt_step)
    agree = dev1 <= 4.0 * est1.error and dev2 <= 4.0 * est2.error
    _report(6, "path-simulation oracle",
            dev1 <= 0.01 and agree and elapsed < 300.0,
            f"|dev| at 1e-3: {dev1:.4f} (se {est1.error:.1e}), at 5e-4: "
            f"{dev2:.4f} (se {est2.error:.1e}), {elapsed:.0f}s")


def test_criterion_07_density_suite():
    params = ProcessParams(1.0, 2.0)
    rng = np.random.default_rng(7)
    start = time.perf_counter()

    # pair density integrates to 1 over [-8, 8]^2
    nodes, weights = gauss_legendre_on(-8.0, 8.0, 160)
    grid = np.array([[pair_density(params, 1.0, 1.5, x0, xi)
                      for xi in nodes] for x0 in nodes])
    total = float(weights @ grid @ weights)
    norm_ok = abs(total - 1.0) <= 1e-6

    # joint density vs multivariate-normal oracle
    fdd_ok = True
    for m in (2, 3, 4):
        for _ in range(40):
            q = rng.uniform(0.3, 2.5)
            d = q * rng.uniform(1.1, 2.0)
            pp = ProcessParams(q, d)
            times = np.sort(rng.uniform(q, d, size=m))
            while np.min(np.diff(times)) < 1e-3:
                times = np.sort(rng.uniform(q, d, size=m))
            x = rng.normal(size=m) * 1.5
            ours = fdd_density(GaussianVectorSpec(pp, tuple(times)), x)
            ref = multivariate_normal(
                mean=np.zeros(m), cov=covariance_matrix(pp, times)).pdf(x)
            fdd_ok = fdd_ok and abs(ours - ref) <= 1e-10 * ref

    # conditional x pair reproduces the joint density
    chain_ok = True
    for _ in range(100):
        ti, ti1 = np.sort(rng.uniform(1.001, 2.0, size=2))
        if ti1 - ti < 1e-3:
            continue
        x0, xi, xi1 = rng.normal(size=3) * 1.5
        lhs = (conditional_density(params, 1.0, ti, ti1, x0, xi, xi1)
               * pair_density(params, 1.0, ti1, x0, xi1))
        rhs = fdd_density(GaussianVectorSpec(params, (1.0, ti, ti1)),
                          [x0, xi, xi1])
        chain_ok = chain_ok and abs(lhs - rhs) <= 1e-10 * rhs

    elapsed = time.perf_counter() - start
    _report(7, "density suite",
            norm_ok and fdd_ok and chain_ok and elapsed < 60.0,
            f"pair norm dev={abs(total - 1.0):.1e}, fdd_ok={fdd_ok}, "
            f"chain_ok={chain_ok}, {elapsed:.1f}s")


def test_criterion_08_empirical_covariance():
    params = ProcessParams(1.0, 2.0)
    cfg = SimConfig(params, 5e-3, 100_000, 8)
    lags, est, se = empirical_covariance(cfg, n_lags=20)
    target = np.clip(1.0 - lags / params.q, 0.0, None)
    dev = np.abs(est - target)
    ok = bool(np.all(dev <= 3.0 * se)) and len(lags) == 20
    _report(8, "empirical covariance at 20 lags", ok,
            f"max |dev|/se={np.max(dev / se):.2f}")


def test_criterion_09_monotonicity():
    params = ProcessParams(1.0, 2.0)
    rng = np.random.default_rng(9)
    ok = True
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(1, 5))
        knots = np.linspace(1.0, 2.0, n + 1)
        low_vals = rng.uniform(-0.5, 2.0, size=n + 1)
        lift = rng.uniform(0.0, 1.0, size=n + 1)
        pieces_lo, pieces_hi = [], []
        for i in range(n):
            slope_lo = (low_vals[i + 1] - low_vals[i]) / (knots[i + 1]
                                                          - knots[i])
            hi0, hi1 = low_vals[i] + lift[i], low_vals[i + 1] + lift[i + 1]
            slope_hi = (hi1 - hi0) / (knots[i + 1] - knots[i])
            pieces_lo.append(AffinePiece(knots[i], knots[i + 1],
                                         low_vals[i], slope_lo))
            pieces_hi.append(AffinePiece(knots[i], knots[i + 1], hi0,
                                         slope_hi))
        g_lo = PiecewiseAffineBoundary(params, tuple(pieces_lo))
        g_hi = PiecewiseAffineBoundary(params, tuple(pieces_hi))
        p_lo = bcp_quadrature(g_lo, tol=1e-7).value
        p_hi = bcp_quadrature(g_hi, tol=1e-7).value
        worst = min(worst, p_lo - p_hi)
        ok = ok and p_lo >= p_hi - 2e-7
        if trial < 10:
            m_lo = bcp_montecarlo(g_lo, n_paths=20_000, seed=900 + trial)
            m_hi = bcp_montecarlo(g_hi, n_paths=20_000, seed=900 + trial)
            ok = ok and m_lo.value >= m_hi.value
    _report(9, "boundary monotonicity", ok,
            f"worst quad margin={worst:.2e}")


def test_criterion_10_approximation_convergence():
    params = ProcessParams(1.0, 2.0)
    start = time.perf_counter()
    rows = convergence_study(lambda t: t * t, params, [2, 4, 8, 16, 32],
                             method="mc", n_paths=1_000_000, seed=10)
    elapsed = time.perf_counter() - start
    values = [r.estimate.value for r in rows]
    diffs = [r.diff_prev for r in rows[1:]]
    ses = [r.diff_se for r in rows[1:]]
    increasing = all(d > 0 for d in diffs)
    resolved = all(abs(d) > 5.0 * s for d, s in zip(diffs, ses))
    # shrink factor >= 2 from 8 pieces onward: (4->8)/(8->16) and
    # (8->16)/(16->32)
    shrink = (diffs[1] >= 2.0 * diffs[2]) and (diffs[2] >= 2.0 * diffs[3])
    _report(10, "approximation convergence",
            increasing and resolved and shrink and elapsed < 300.0,
            f"values={[f'{v:.5f}' for v in values]}, "
            f"diffs={[f'{d:.2e}' for d in diffs]}, {elapsed:.0f}s")
