"""Tests for the path-simulation oracle."""

import io
import math
import warnings

import numpy as np
import pytest

from slepian_bcp import engine, oracle
from slepian_bcp import (AffinePiece, BridgeSpec, DomainError,
                         PiecewiseAffineBoundary, ProcessParams, SimConfig,
                         affine_boundary, bcp_quadrature, constant_boundary,
                         covariance_matrix, dump_paths, empirical_bcp,
                         empirical_bridge_noncross, empirical_covariance,
                         gaussian_stream, noncross_affine_product,
                         noncross_constant, simulate_paths)

PARAMS = ProcessParams(1.0, 2.0)


def _collect(cfg):
    blocks = [w for _, w in simulate_paths(cfg)]
    times = next(iter(simulate_paths(cfg)))[0]
    return times, np.concatenate(blocks, axis=0)


def _pair_samples(z):
    """One sample per antithetic pair of a block's payoffs, written out:
    rows i and c + i (c = ceil(p/2)) averaged, then an odd block's
    unpaired row c - 1."""
    half = len(z) // 2
    cols = len(z) - half
    return np.concatenate([(z[:half] + z[cols:]) * 0.5, z[half:cols]])


def _reference_window(params, step, n_paths, seed):
    """W from k + 1 standard normals per path, written out: W-steps
    sqrt(2 step/q) Z_j, W at q = sqrt(1 - k step/(2q)) Z_0 minus half their
    sum, then a running sum.  Block j of the even number
    _PATH_BLOCK_ELEMS // (k + 1) rounded down of paths (the last block
    fewer) draws its first ceil(p/2) paths from `gaussian_stream(seed, j)`
    and mirrors the first floor(p/2) of them into its other rows."""
    k = round((params.d - params.q) / step)
    rows = oracle._PATH_BLOCK_ELEMS // (k + 1) // 2 * 2
    blocks = []
    for j, start in enumerate(range(0, n_paths, rows)):
        p = min(rows, n_paths - start)
        z = gaussian_stream(seed, j).normals(
            (p - p // 2) * (k + 1)).reshape(-1, k + 1)
        dw = math.sqrt(2.0 * step / params.q) * z[:, 1:]
        w0 = (math.sqrt(1.0 - 0.5 * k * step / params.q) * z[:, 0]
              - 0.5 * dw.sum(axis=1))
        w = np.cumsum(np.column_stack([w0, dw]), axis=1)
        blocks += [w, -w[:p // 2]]
    return np.concatenate(blocks)


class TestSimConfig:
    def test_rejects_nondividing_step(self):
        with pytest.raises(DomainError):
            SimConfig(PARAMS, 0.3, 100, 0)

    def test_rejects_coarse_step(self):
        with pytest.raises(DomainError):
            SimConfig(PARAMS, 0.2, 100, 0)

    def test_accepts_valid(self):
        cfg = SimConfig(PARAMS, 0.05, 100, 0)
        assert cfg.n_steps == 20


class TestSimulatePaths:
    def test_reproducible_and_blocked_consistently(self):
        cfg = SimConfig(PARAMS, 0.02, 3_000, 42)
        _, a = _collect(cfg)
        _, b = _collect(cfg)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (3_000, cfg.n_steps + 1)

    def test_marginal_variance_is_unit(self):
        n = 100_000
        cfg = SimConfig(PARAMS, 0.02, n, 1)
        _, w = _collect(cfg)
        for col in (0, 17, 50):
            var = w[:, col].var(ddof=1)
            assert abs(var - 1.0) <= 3.0 / math.sqrt(2.0 * n)

    def test_correlation_at_half_window_lag(self):
        n = 100_000
        cfg = SimConfig(PARAMS, 0.025, n, 2)
        _, w = _collect(cfg)
        k = round(0.5 / 0.025)
        corr = np.corrcoef(w[:, 0], w[:, k])[0, 1]
        assert abs(corr - 0.5) <= 4.0 / math.sqrt(n)

    def test_correlation_vanishes_at_window_lag(self):
        n = 100_000
        cfg = SimConfig(PARAMS, 0.025, n, 3)
        _, w = _collect(cfg)
        corr = np.corrcoef(w[:, 0], w[:, -1])[0, 1]
        assert abs(corr) <= 4.0 / math.sqrt(n)

    @pytest.mark.parametrize("q, d", [(0.7, 1.2), (0.73, 1.23)],
                             ids=["ratio_14_rounded", "fractional_ratio"])
    def test_fractional_window_grid(self, q, d):
        # q/step = 13.999999999999998 rounds to 14; 14.6 is a true fraction,
        # which the construction does not need to be an integer
        params = ProcessParams(q, d)
        cfg = SimConfig(params, 0.05, 20_000, 4)
        times, w = _collect(cfg)
        assert times[0] == pytest.approx(q)
        assert times[-1] == pytest.approx(d)
        var = w[:, 5].var(ddof=1)
        assert abs(var - 1.0) <= 3.0 / math.sqrt(2.0 * 20_000)

    @pytest.mark.parametrize("params, step, n_paths", [
        (PARAMS, 1e-2, 500),
        # q/step = 14 within rounding, so this is an integer-ratio grid too
        (ProcessParams(0.7, 1.2), 0.05, 500),
        (ProcessParams(0.73, 1.23), 0.05, 500),
        # 701 paths of 1001 nodes are three blocks of 260, the last one
        # partial and odd
        (PARAMS, 1e-3, 701),
    ], ids=["integer_ratio", "ratio_14_rounded", "fractional_ratio",
            "three_blocks"])
    def test_matches_index_array_window_bit_for_bit(self, params, step,
                                                    n_paths):
        # the blocked, in-place, mirrored construction against its
        # written-out form
        cfg = SimConfig(params, step, n_paths, 31)
        _, w = _collect(cfg)
        np.testing.assert_array_equal(
            w, _reference_window(params, step, n_paths, 31))

    def test_blocks_hold_mirrored_pairs(self):
        # 523 paths of 1001 nodes: blocks of 260, 260 and an odd 3, whose
        # row 1 has no partner
        cfg = SimConfig(PARAMS, 1e-3, 523, 37)
        sizes = []
        for _, w in simulate_paths(cfg):
            half = len(w) // 2
            assert np.array_equal(w[len(w) - half:], np.negative(w[:half]))
            sizes.append(len(w))
        assert sizes == [260, 260, 3]

    @pytest.mark.parametrize("width", [11, 101, 1001, 2001, 1 << 17])
    def test_every_block_but_the_last_is_even(self, width):
        sizes = [p for _, p in oracle._path_blocks(10_001, width)]
        assert sum(sizes) == 10_001
        assert all(p >= 2 and p % 2 == 0 for p in sizes[:-1])


class TestEmpiricalBcp:
    @pytest.mark.parametrize("n_paths", [1, 3])
    def test_unpaired_path_is_a_sample_of_its_own(self, n_paths):
        # one path is one sample; three are a pair (rows 0 and 2) and the
        # unpaired row 1, so the estimate is the mean of two samples
        cfg = SimConfig(PARAMS, 0.01, n_paths, 41)
        bnd = constant_boundary(PARAMS, 1.0)
        times, w = _collect(cfg)
        p = oracle._bridge_crossing(
            w, *oracle._step_limits(bnd, times, cfg.grid_step),
            PARAMS.q / cfg.grid_step)
        est = empirical_bcp(cfg, bnd)
        assert est.n_samples == n_paths
        if n_paths == 1:
            assert est.value == p[0] and est.error == 0.0
            return
        np.testing.assert_array_equal(w[2], -w[0])
        pair, alone = (p[0] + p[2]) * 0.5, p[1]
        assert pair != alone
        assert est.value == (pair + alone) / 2
        assert est.error == pytest.approx(abs(pair - alone) / 2, rel=1e-12)

    def test_boundary_below(self):
        cfg = SimConfig(PARAMS, 0.01, 5_000, 5)
        est = empirical_bcp(cfg, constant_boundary(PARAMS, -10.0))
        assert est.value == 1.0

    def test_boundary_above(self):
        cfg = SimConfig(PARAMS, 0.01, 20_000, 6)
        est = empirical_bcp(cfg, constant_boundary(PARAMS, 10.0))
        assert est.value <= 3.0 / 20_000

    def test_reproducible(self):
        cfg = SimConfig(PARAMS, 0.01, 10_000, 7)
        bnd = constant_boundary(PARAMS, 1.0)
        assert empirical_bcp(cfg, bnd) == empirical_bcp(cfg, bnd)

    def test_grid_subsampling_can_only_lose_crossings(self):
        # checking the same paths on every other node is a coarser grid:
        # crossing counts are pathwise dominated
        cfg = SimConfig(PARAMS, 0.005, 20_000, 8)
        g = 1.0
        fine = coarse = 0
        for _, w in simulate_paths(cfg):
            fine += int(np.any(w > g, axis=1).sum())
            coarse += int(np.any(w[:, ::2] > g, axis=1).sum())
        assert fine >= coarse
        assert fine > coarse  # strictly, at this resolution

    def test_same_seed_boundary_monotonicity_is_exact(self):
        cfg = SimConfig(PARAMS, 0.01, 20_000, 9)
        lo = empirical_bcp(cfg, constant_boundary(PARAMS, 0.9))
        hi = empirical_bcp(cfg, constant_boundary(PARAMS, 1.2))
        assert lo.value >= hi.value


class TestBridgeCorrection:
    def test_nodes_mode_is_the_nodewise_fraction(self):
        cfg = SimConfig(PARAMS, 0.01, 5_000, 15)
        bnd = affine_boundary(PARAMS, 0.9, 0.2)
        count = 0
        samples = []
        for times, w in simulate_paths(cfg):
            hit = np.any(w > bnd.evaluate(times), axis=1)
            count += int(hit.sum())
            samples.append(_pair_samples(hit.astype(float)))
        samples = np.concatenate(samples)
        # 5000 paths are two even blocks: 2500 pairs, all paths counted
        assert len(samples) == cfg.n_paths // 2
        est = empirical_bcp(cfg, bnd, crossing="nodes")
        assert est.value == count / cfg.n_paths
        # the sample standard error of the pair means of the 0/1 payoffs
        assert est.error == pytest.approx(
            samples.std(ddof=1) / math.sqrt(len(samples)), rel=1e-12)

    def test_nodes_deficit_decays_like_sqrt_step(self):
        # the node-wise check misses crossings between nodes; its deficit
        # against the continuous-time probability shrinks under refinement,
        # by a factor sqrt(4) = 2 when the step is quartered
        bnd = constant_boundary(PARAMS, 1.0)
        analytic = bcp_quadrature(bnd, tol=1e-8).value
        coarse = empirical_bcp(SimConfig(PARAMS, 0.02, 40_000, 21), bnd,
                               crossing="nodes")
        fine = empirical_bcp(SimConfig(PARAMS, 0.005, 40_000, 22), bnd,
                             crossing="nodes")
        d_coarse = analytic - coarse.value
        d_fine = analytic - fine.value
        assert d_coarse - d_fine > 4.0 * math.hypot(coarse.error, fine.error)
        assert abs(d_coarse - 2.0 * d_fine) <= 4.0 * math.hypot(
            coarse.error, 2.0 * fine.error)

    def test_bridge_dominates_nodes(self):
        cfg = SimConfig(PARAMS, 0.01, 10_000, 16)
        bnd = constant_boundary(PARAMS, 1.0)
        nodes = empirical_bcp(cfg, bnd, crossing="nodes")
        bridge = empirical_bcp(cfg, bnd)
        assert bridge.value >= nodes.value
        # at this step the node-wise deficit is many standard errors
        assert bridge.value - nodes.value > 5.0 * bridge.error

    @pytest.mark.parametrize("bnd", [
        constant_boundary(PARAMS, 1.0),
        affine_boundary(PARAMS, 0.8, 0.5),
        # jump at a grid node, knot value below both one-sided limits
        PiecewiseAffineBoundary(PARAMS, (AffinePiece(1.0, 1.5, 1.2, 0.0),
                                         AffinePiece(1.5, 2.0, 1.3, -0.4)),
                                knot_values=(0.9,)),
    ], ids=["constant", "affine", "jump"])
    def test_matches_quadrature_at_coarse_step(self, bnd):
        cfg = SimConfig(PARAMS, 0.01, 40_000, 17)
        analytic = bcp_quadrature(bnd, tol=1e-8).value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = empirical_bcp(cfg, bnd)
        assert abs(est.value - analytic) <= 4.0 * est.error

    def test_matches_dense_formula_with_one_sided_limits(self):
        # jump at the grid node t = 1.5 with a knot value below both limits:
        # each step takes g from its own piece, the node check the knot value
        bnd = PiecewiseAffineBoundary(PARAMS, (
            AffinePiece(1.0, 1.5, 1.2, 0.0),
            AffinePiece(1.5, 2.0, 1.3, -0.4)), knot_values=(0.6,))
        cfg = SimConfig(PARAMS, 0.05, 3_000, 20)
        probs = []
        for times, w in simulate_paths(cfg):
            mid = 0.5 * (times[:-1] + times[1:])
            g_lo = np.where(mid < 1.5, 1.2, 1.3 - 0.4 * (times[:-1] - 1.5))
            g_hi = np.where(mid < 1.5, 1.2, 1.3 - 0.4 * (times[1:] - 1.5))
            g = np.where(np.isclose(times, 1.5), 0.6, bnd.evaluate(times))
            x = np.maximum((g_lo - w[:, :-1]) * (g_hi - w[:, 1:]), 0.0)
            stay = np.prod(1.0 - np.exp(-PARAMS.q * x / cfg.grid_step),
                           axis=1)
            probs.append(_pair_samples(
                np.where(np.any(w > g, axis=1), 1.0, 1.0 - stay)))
        probs = np.concatenate(probs)
        est = empirical_bcp(cfg, bnd)
        assert est.value == pytest.approx(probs.mean(), rel=1e-12)
        assert est.error == pytest.approx(
            probs.std(ddof=1) / math.sqrt(len(probs)), rel=1e-9)

    def test_knot_inside_step_warns(self):
        bnd = PiecewiseAffineBoundary(PARAMS, (
            AffinePiece(1.0, 1.2345, 1.0, 0.0),
            AffinePiece(1.2345, 2.0, 1.1, 0.0)))
        cfg = SimConfig(PARAMS, 0.01, 500, 18)
        with pytest.warns(RuntimeWarning, match="1.2345") as record:
            empirical_bcp(cfg, bnd)
        assert len(record) == 1

    def test_rejects_unknown_crossing(self):
        cfg = SimConfig(PARAMS, 0.01, 100, 19)
        with pytest.raises(DomainError):
            empirical_bcp(cfg, constant_boundary(PARAMS, 1.0),
                          crossing="midpoints")


class TestEmpiricalCovariance:
    def test_matches_triangular_covariance(self):
        cfg = SimConfig(PARAMS, 0.01, 30_000, 10)
        lags, est, se = empirical_covariance(cfg, n_lags=20)
        target = np.clip(1.0 - lags / PARAMS.q, 0.0, None)
        assert len(lags) == 20
        assert np.all(np.abs(est - target) <= 3.0 * se)

    @pytest.mark.parametrize("q, d, step, seed", [
        (1.0, 2.0, 0.01, 24),
        (1.0, 1.05, 1e-3, 25),
        (0.73, 1.23, 0.05, 26),
    ], ids=["full_window", "short_horizon", "fractional_ratio"])
    def test_interior_pairs_match_covariance_matrix(self, q, d, step, seed):
        # every node pair among five spread over [q, d], variances included:
        # W at q carries the Z_0 term, every later node adds W-steps to it
        params = ProcessParams(q, d)
        cfg = SimConfig(params, step, 40_000, seed)
        times, w = _collect(cfg)
        idx = np.round(np.linspace(0, cfg.n_steps, 5)).astype(int)
        target = covariance_matrix(params, times[idx])
        for a in range(5):
            for b in range(a, 5):
                prod = w[:, idx[a]] * w[:, idx[b]]
                se = prod.std(ddof=1) / math.sqrt(len(prod))
                assert abs(prod.mean() - target[a, b]) <= 4.0 * se, (a, b)


class TestEmpiricalBridgeNoncross:
    def test_constant_boundary_matches_closed_form(self):
        spec = BridgeSpec(PARAMS, 1.0, 1.5, 0.0, 0.0)
        b, step = 1.0, 2e-3
        analytic = noncross_constant(spec, b)
        est = empirical_bridge_noncross(spec, b, 0.0, n_paths=40_000,
                                        grid_step=step, seed=11)
        assert abs(est.value - analytic) <= 3.0 * est.error

    @pytest.mark.parametrize("t_i, t_i1, x_i, x_i1, b, a, step", [
        (1.0, 1.5, 0.0, 0.0, 1.0, 0.0, 0.01),
        (1.2, 1.7, 0.3, 0.5, 0.9, 0.6, 0.01),
        (1.0, 1.8, 0.0, 0.1, 1.0, -0.5, 0.02),
        (1.3, 1.35, 0.5, 0.4, 0.8, -1.0, 0.005),
        # h = 0.06 on a fractional q/step, pins near a rising boundary
        (1.9, 1.96, 0.5, 0.55, 0.7, 0.5, 0.003),
    ], ids=["constant", "rising", "falling", "short", "short_late"])
    def test_matches_exact_product_at_coarse_step(self, t_i, t_i1, x_i, x_i1,
                                                  b, a, step):
        # the crossings between nodes are accounted for exactly, so even a
        # coarse grid has no bias left for a two-sided bound to see
        spec = BridgeSpec(PARAMS, t_i, t_i1, x_i, x_i1)
        exact = noncross_affine_product(PARAMS.q, spec.h, b, a, x_i, x_i1)
        est = empirical_bridge_noncross(spec, b, a, n_paths=20_000,
                                        grid_step=step, seed=23)
        assert abs(est.value - exact) <= 4.0 * est.error

    def test_pins_on_boundary_give_zero(self):
        spec = BridgeSpec(PARAMS, 1.0, 1.5, 1.0, 0.0)
        est = empirical_bridge_noncross(spec, 1.0, 0.0, n_paths=100, seed=12)
        assert est.value == 0.0 and est.error == 0.0

    @pytest.mark.parametrize("x_i", [0.0, 1.0], ids=["below", "on"])
    def test_rejects_no_paths(self, x_i):
        # before the early return for a pin on the boundary, too
        spec = BridgeSpec(PARAMS, 1.0, 1.5, x_i, 0.0)
        with pytest.raises(DomainError, match="n_paths"):
            empirical_bridge_noncross(spec, 1.0, 0.0, n_paths=0)

    def test_rejects_nondividing_grid(self):
        spec = BridgeSpec(PARAMS, 1.0, 1.5, 0.0, 0.0)
        with pytest.raises(DomainError):
            empirical_bridge_noncross(spec, 1.0, 0.0, n_paths=100,
                                      grid_step=0.21, seed=0)


class TestPooledBlocks:
    def test_estimates_do_not_depend_on_the_cpu_count(self, monkeypatch):
        # three blocks of up to 2594 paths (101 nodes each), run serially
        # at one CPU and on a pool at three: every estimator must give the
        # same bits, and the same bits as pairing `simulate_paths` blocks
        pools = []

        class RecordingPool(engine.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(kwargs["max_workers"])

        monkeypatch.setattr(engine, "ThreadPoolExecutor", RecordingPool)
        step = 0.01
        cfg = SimConfig(PARAMS, step, 6_000, 27)
        bnd = affine_boundary(PARAMS, 0.9, 0.2)
        # pins at q and d, so the bridge runs on cfg's grid and blocks
        spec = BridgeSpec(PARAMS, 1.0, 2.0, 0.0, 0.1)
        b, a = 1.0, -0.5

        def estimates():
            return (empirical_bcp(cfg, bnd),
                    empirical_bcp(cfg, bnd, crossing="nodes"),
                    empirical_covariance(cfg, n_lags=5),
                    empirical_bridge_noncross(spec, b, a, n_paths=6_000,
                                              grid_step=step, seed=27))

        runs = {}
        for count in (1, 3):
            monkeypatch.setattr(oracle, "_cpu_count", lambda: count)
            runs[count] = estimates()
        assert pools == [3, 3, 3, 3]

        blocks = [w for _, w in simulate_paths(cfg)]
        assert len(blocks) == 3
        times = next(simulate_paths(cfg))[0]
        scale = PARAMS.q / step
        limits = oracle._step_limits(bnd, times, step)
        lag_idx = np.unique(np.round(np.linspace(1, cfg.n_steps, 5)).astype(
            int))
        sigma = covariance_matrix(PARAMS, times)
        pin_idx = [0, len(times) - 1]
        gain = sigma[:, pin_idx] @ np.linalg.inv(sigma[np.ix_(pin_idx,
                                                              pin_idx)])
        line = (b + a * (times - 1.0), np.empty(0, dtype=int), np.empty(0),
                np.empty(0))

        def pinned(w):
            w = w + (np.array([0.0, 0.1])[None, :] - w[:, pin_idx]) @ gain.T
            return oracle._bridge_crossing(w, *line, scale)[:, None]

        def serial(payoff):
            return engine._moments(_pair_samples(payoff(w.copy()))
                                   for w in blocks)

        bridge = serial(lambda w: oracle._bridge_crossing(
            w, *limits, scale)[:, None])
        nodes = serial(lambda w: np.any(
            w > bnd.evaluate(times), axis=1).astype(float)[:, None])
        cov = serial(lambda w: w[:, [0]] * w[:, lag_idx])
        pin = serial(pinned)
        for est_b, est_n, (lags, c_mean, c_se), est_p in runs.values():
            assert (est_b.value, est_b.error) == (bridge[0][0], bridge[1][0])
            assert (est_n.value, est_n.error) == (nodes[0][0], nodes[1][0])
            np.testing.assert_array_equal(lags, lag_idx * step)
            np.testing.assert_array_equal(c_mean, cov[0])
            np.testing.assert_array_equal(c_se, cov[1])
            assert (est_p.value, est_p.error) == (1.0 - pin[0][0], pin[1][0])


class TestDumpPaths:
    def test_format(self):
        cfg = SimConfig(PARAMS, 0.05, 37, 13)
        buf = io.StringIO()
        written = dump_paths(cfg, buf)
        lines = buf.getvalue().strip().split("\n")
        assert written == 37
        assert len(lines) == 38
        header = lines[0].split(",")
        assert header[0] == "t"
        assert len(header) == cfg.n_steps + 2
        row = lines[1].split(",")
        assert row[0] == "0"
        float(row[5])  # values parse back

    def test_max_paths(self):
        cfg = SimConfig(PARAMS, 0.05, 1_000, 14)
        buf = io.StringIO()
        assert dump_paths(cfg, buf, max_paths=10) == 10
