"""Tests for the crossing-probability engines."""

import math

import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from slepian_bcp import (AffinePiece, DomainError, Estimate,
                         GaussianVectorSpec, Partition,
                         PiecewiseAffineBoundary, ProcessParams,
                         QuadratureNonConvergenceError, affine_boundary,
                         approximate, bcp_montecarlo, bcp_quadrature,
                         cholesky, constant_boundary, convergence_study,
                         covariance_matrix, fdd_density, gaussian_stream,
                         noncross_affine_product, bcp_integrand)
from slepian_bcp import engine

PARAMS = ProcessParams(1.0, 2.0)

# Crossing probabilities for (q, d) = (1, 2) on the minimal partition,
# frozen from high-precision nested quadrature of the two-dimensional
# representation (the skeleton variables decorrelate at lag q, so the
# joint density is a product of standard normals).
CROSS_CONST_1 = 0.55426964756375817       # g = 1
CROSS_AFFINE = 0.59372048268812056        # g(t) = 0.5 + (t - q)

TWO_PIECE = PiecewiseAffineBoundary(
    PARAMS, (AffinePiece(1.0, 1.5, 1.0, -0.6), AffinePiece(1.5, 2.0, 0.7, 0.4)))


class TestPartition:
    def test_equidistant(self):
        part = Partition.equidistant(PARAMS, 4)
        np.testing.assert_allclose(part.times, [1.0, 1.25, 1.5, 1.75, 2.0])
        assert part.n == 4

    def test_from_boundary(self):
        part = Partition.from_boundary(TWO_PIECE)
        assert part.times == (1.0, 1.5, 2.0)

    def test_rejects_bad_endpoints(self):
        with pytest.raises(DomainError):
            Partition(PARAMS, (1.1, 2.0))
        with pytest.raises(DomainError):
            Partition(PARAMS, (1.0, 1.9))

    def test_rejects_non_monotone(self):
        with pytest.raises(DomainError):
            Partition(PARAMS, (1.0, 1.5, 1.5, 2.0))


class TestEstimate:
    def test_validates_probability(self):
        with pytest.raises(ValueError):
            Estimate(value=1.2, error=0.0, method="quadrature")
        with pytest.raises(ValueError):
            Estimate(value=0.5, error=-1.0, method="montecarlo")
        with pytest.raises(ValueError):
            Estimate(value=0.5, error=0.0, method="magic")


class TestBcpIntegrand:
    def test_factorization_matches_joint_density(self):
        # the integrand is the joint density times the bridge factors, both
        # as `fdd_density` states it and as the Gaussian with the process
        # covariance gives it
        rng = np.random.default_rng(31)
        part = Partition.equidistant(PARAMS, 2)
        spec = GaussianVectorSpec(PARAMS, part.times)
        bnd = constant_boundary(PARAMS, 1.0)
        gauss = multivariate_normal(cov=covariance_matrix(PARAMS, part.times))
        for _ in range(100):
            x = rng.normal(size=3) * 1.5
            ours = bcp_integrand(part, bnd, x)
            factors = 1.0
            for i, (lo, hi) in enumerate(zip(part.times, part.times[1:])):
                b, a = bnd.local_affine(lo, hi)
                factors *= noncross_affine_product(PARAMS.q, hi - lo, b, a,
                                                   x[i], x[i + 1])
            ref = fdd_density(spec, x) * factors
            if ref > 0:
                assert abs(ours - ref) <= 1e-10 * ref
            indep = gauss.pdf(x) * factors
            if indep > 0:
                assert abs(ours - indep) <= 1e-10 * indep

    def test_far_boundary_reduces_to_density(self):
        part = Partition.equidistant(PARAMS, 3)
        bnd = constant_boundary(PARAMS, 1e3)
        spec = GaussianVectorSpec(PARAMS, part.times)
        x = np.array([0.3, -0.1, 0.4, 0.0])
        assert bcp_integrand(part, bnd, x) == pytest.approx(
            fdd_density(spec, x), rel=1e-12)

    def test_vanishes_on_boundary(self):
        part = Partition.equidistant(PARAMS, 2)
        bnd = constant_boundary(PARAMS, 1.0)
        assert bcp_integrand(part, bnd, [0.0, 1.0, 0.0]) == 0.0

    def test_rejects_bad_input(self):
        part = Partition.equidistant(PARAMS, 2)
        bnd = constant_boundary(PARAMS, 1.0)
        with pytest.raises(DomainError):
            bcp_integrand(part, bnd, [0.0, 0.0])
        with pytest.raises(DomainError):
            bcp_integrand(part, bnd, [0.0, math.nan, 0.0])


class TestBcpQuadrature:
    def test_far_boundary_above(self):
        est = bcp_quadrature(constant_boundary(PARAMS, 10.0), tol=1e-9)
        assert est.value <= 1e-8

    def test_far_boundary_below(self):
        est = bcp_quadrature(constant_boundary(PARAMS, -10.0), tol=1e-9)
        assert est.value >= 1.0 - 1e-8

    def test_frozen_constant_value(self):
        est = bcp_quadrature(constant_boundary(PARAMS, 1.0), tol=1e-8)
        assert est.value == pytest.approx(CROSS_CONST_1, abs=1e-8)
        assert est.error <= 1e-8

    def test_frozen_affine_value(self):
        est = bcp_quadrature(affine_boundary(PARAMS, 0.5, 1.0), tol=1e-8)
        assert est.value == pytest.approx(CROSS_AFFINE, abs=1e-8)

    def test_matches_independent_nested_quadrature(self):
        # n = 1 at (q, d) = (1, 2): skeleton variables are independent
        # standard normals, bridge factor from the constant closed form.
        def integrand(x1, x0):
            dens = math.exp(-(x0 * x0 + x1 * x1) / 2) / (2 * math.pi)
            return dens * -math.expm1(-(1 - x0) * (1 - x1))

        nocross, err = dblquad(integrand, -10, 1, -10, 1, epsabs=1e-11)
        assert 1.0 - nocross == pytest.approx(CROSS_CONST_1, abs=1e-9)
        est = bcp_quadrature(constant_boundary(PARAMS, 1.0), tol=1e-8)
        assert est.value == pytest.approx(1.0 - nocross, abs=1e-7)

    def test_partition_invariance(self):
        bnd = constant_boundary(PARAMS, 1.0)
        e1 = bcp_quadrature(bnd, Partition.from_boundary(bnd), tol=1e-7)
        e3 = bcp_quadrature(bnd, Partition.equidistant(PARAMS, 3), tol=1e-7)
        assert abs(e1.value - e3.value) <= 5e-4

    def test_rescaling_invariance(self):
        params = ProcessParams(0.5, 0.9)
        bnd = affine_boundary(params, 0.8, -0.5)
        canonical_params = ProcessParams(1.0, params.e)
        canonical = affine_boundary(canonical_params, 0.8,
                                    -0.5 * params.q)
        v1 = bcp_quadrature(bnd, tol=1e-8).value
        v2 = bcp_quadrature(canonical, tol=1e-8).value
        assert v1 == pytest.approx(v2, abs=1e-7)

    def test_eight_pieces_match_the_minimal_partition(self):
        bnd = constant_boundary(PARAMS, 1.0)
        minimal = bcp_quadrature(bnd, tol=1e-9)
        eight = bcp_quadrature(bnd, Partition.equidistant(PARAMS, 8),
                               tol=1e-9)
        assert eight.value == pytest.approx(minimal.value, abs=1e-8)

    @pytest.mark.parametrize("n", [1, 2])
    def test_nonconvergence_reports_last_level(self, n):
        # d = q + 1e-6: the (x_0, x_n) pair density is a ridge the ladder
        # cannot resolve, so the error must describe the last level
        params = ProcessParams(1.0, 1.0 + 1e-6)
        with pytest.raises(QuadratureNonConvergenceError) as info:
            bcp_quadrature(constant_boundary(params, 1.0),
                           Partition.equidistant(params, n), tol=1e-6)
        err = info.value
        assert math.isfinite(err.error_bound)
        assert err.error_bound > 0.5e-6
        assert err.evaluations == engine._QUAD_LEVELS[-1] ** (n + 1)

    def test_nonconvergence_value_is_the_unclamped_last_level(self):
        # the ridge at d = q + 1e-6 leaves the last level's integral above
        # 1; the error must say so instead of reporting crossing mass 0
        params = ProcessParams(1.0, 1.0 + 1e-6)
        bnd = constant_boundary(params, 1.0)
        part = Partition.from_boundary(bnd)
        with pytest.raises(QuadratureNonConvergenceError) as info:
            bcp_quadrature(bnd, part, tol=1e-6)
        last = engine._noncross_tensor_gl(
            params, part.times, [bnd.evaluate(t) for t in part.times],
            engine._local_pieces(bnd, part), engine._QUAD_LEVELS[-1])
        assert info.value.value == 1.0 - last

    def test_level_that_overflows_a_double_is_unresolved(self):
        # 512 pieces: the 16-node level's closing log-maximum exceeds
        # log(DBL_MAX), so e^max would raise OverflowError
        bnd = approximate(lambda t: 1.0, PARAMS, 512)
        part = Partition.from_boundary(bnd)
        assert engine._noncross_tensor_gl(
            PARAMS, part.times, bnd.evaluate(part.times).tolist(),
            engine._local_pieces(bnd, part), 16) == math.inf

    def test_ladder_of_unresolved_levels_does_not_converge(self,
                                                           monkeypatch):
        # two unresolved levels differ by inf - inf = nan, which must not
        # pass for convergence
        monkeypatch.setattr(engine, "_QUAD_LEVELS", (16, 16))
        with pytest.raises(QuadratureNonConvergenceError) as info:
            bcp_quadrature(approximate(lambda t: 1.0, PARAMS, 512))
        assert info.value.value == -math.inf

    def test_short_horizon_converges(self):
        params = ProcessParams(1.0, 1.001)
        bnd = constant_boundary(params, 1.0)
        one, two = (bcp_quadrature(bnd, Partition.equidistant(params, n),
                                   tol=1e-6) for n in (1, 2))
        assert one.value == pytest.approx(two.value, abs=1e-10)
        mc = bcp_montecarlo(bnd, n_paths=200_000, seed=13)
        assert abs(one.value - mc.value) <= 4.0 * mc.error

    def test_partition_must_contain_knots(self):
        part = Partition(PARAMS, (1.0, 1.4, 2.0))
        with pytest.raises(DomainError):
            bcp_quadrature(TWO_PIECE, part)

    def test_partition_time_within_knot_tol_of_a_knot(self):
        # 1e-10 is within 1e-12 (d - q) of the knot at 1500, so the
        # partition holds that knot for every check that matches times
        params = ProcessParams(1000.0, 2000.0)
        bnd = PiecewiseAffineBoundary(params, (
            AffinePiece(1000.0, 1500.0, 1.0, 2e-4),
            AffinePiece(1500.0, 2000.0, 1.1, -4e-4)))
        exact = bcp_quadrature(bnd, tol=1e-8)
        near = bcp_quadrature(
            bnd, Partition(params, (1000.0, 1500.0 + 1e-10, 2000.0)),
            tol=1e-8)
        assert near.value == pytest.approx(exact.value, abs=1e-14)

    def test_finer_partition_with_knots_included(self):
        base = bcp_quadrature(TWO_PIECE, tol=1e-7)
        finer = bcp_quadrature(TWO_PIECE, Partition.equidistant(PARAMS, 4),
                               tol=1e-7)
        assert base.value == pytest.approx(finer.value, abs=5e-6)


def _dense_noncross(partition, boundary, n_nodes):
    """Non-crossing integral on the engine's grid, each inner axis summed
    out of a dense N x N x N log-tensor by log-sum-exp."""
    times = partition.times
    q, n = partition.params.q, partition.n
    u = np.asarray(times) / q
    nodes, weights = engine._axis_rules(
        [boundary.evaluate(t) for t in times], n_nodes)
    pieces = engine._local_pieces(boundary, partition)

    def bridge_log(i):
        h, b, a = pieces[i]
        with np.errstate(divide="ignore"):
            return np.log(noncross_affine_product(
                q, h, b, a, nodes[i][:, None], nodes[i + 1][None, :]))

    log_v = bridge_log(0)
    for i in range(1, n):
        pref = (0.5 * math.log(u[i + 1] - 1.0) - math.log(2.0)
                - 0.5 * math.log(math.pi * (u[i + 1] - u[i]) * (u[i] - 1.0)))
        x0 = nodes[0][:, None, None]
        xi = nodes[i][None, :, None]
        xk = nodes[i + 1][None, None, :]
        log_m = (log_v[:, :, None] + np.log(weights[i])[None, :, None]
                 + pref + bridge_log(i)[None, :, :]
                 - 0.25 * ((xi - x0) ** 2 / (u[i] - 1.0)
                           + (xk - xi) ** 2 / (u[i + 1] - u[i])
                           - (xk - x0) ** 2 / (u[i + 1] - 1.0)))
        mx = np.max(log_m, axis=1)
        with np.errstate(invalid="ignore"):
            log_v = mx + np.log(np.sum(np.exp(log_m - mx[:, None, :]),
                                       axis=1))
        log_v = np.where(np.isfinite(mx), log_v, -np.inf)
    x0, xn = nodes[0][:, None], nodes[n][None, :]
    log_m = (log_v - math.log(2.0 * math.pi)
             - 0.5 * math.log((3.0 - u[n]) * (u[n] - 1.0))
             - 0.25 * ((x0 + xn) ** 2 / (3.0 - u[n])
                       + (x0 - xn) ** 2 / (u[n] - 1.0))
             + np.log(weights[0])[:, None] + np.log(weights[n])[None, :])
    mx = np.max(log_m)
    return float(math.exp(mx) * np.sum(np.exp(log_m - mx)))


def _kernel_case(case):
    if case == "skewed":
        bnd = constant_boundary(PARAMS, 1.0)
        return bnd, Partition(PARAMS, (1.0, 1.01, 1.5, 2.0))
    if case == "four_pieces":
        bnd = approximate(lambda t: t * t / 2.0, PARAMS, 4)
        return bnd, Partition.from_boundary(bnd)
    params = ProcessParams(1.0, 1.01)
    return constant_boundary(params, 0.5), Partition.equidistant(params, 3)


class TestContractionKernel:
    @staticmethod
    def _check_against_dense(case, n_nodes, latent):
        bnd, part = _kernel_case(case)
        assert part.n >= 3
        limits = [bnd.evaluate(t) for t in part.times]
        dcap = 2.0 - (part.params.d - part.params.q) / part.params.q
        grid = engine._latent_grid(limits, dcap, part.n, n_nodes)
        assert (grid is not None) == latent
        got = engine._noncross_tensor_gl(
            part.params, part.times, limits,
            engine._local_pieces(bnd, part), n_nodes)
        want = _dense_noncross(part, bnd, n_nodes)
        assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("case", ["skewed", "four_pieces", "short"])
    def test_matches_dense_log_sum_exp(self, case):
        self._check_against_dense(case, 24, latent=False)

    @pytest.mark.parametrize("case", ["skewed", "four_pieces", "short"])
    def test_latent_rows_match_dense_log_sum_exp(self, case):
        self._check_against_dense(case, 144, latent=True)

    def test_single_interval_always_takes_x0_rows(self):
        assert engine._latent_grid([1.0, 1.0], 1.0, 1, 10 ** 6) is None

    def test_latent_rows_form_the_kernel_in_column_panels(self, monkeypatch):
        # N = 576 spans three panels; every product factor stays N x 256
        widths = []
        real = engine.noncross_affine_product

        def spy(q, h, b, a, lo, hi):
            out = real(q, h, b, a, lo, hi)
            widths.append(np.shape(out))
            return out

        monkeypatch.setattr(engine, "noncross_affine_product", spy)
        bnd, part = _kernel_case("skewed")
        limits = [bnd.evaluate(t) for t in part.times]
        got = engine._noncross_tensor_gl(part.params, part.times, limits,
                                         engine._local_pieces(bnd, part), 576)
        assert widths == [(576, 256), (576, 256), (576, 64)] * part.n
        ref = bcp_quadrature(bnd, tol=1e-12).value
        assert abs((1.0 - got) - ref) <= 1e-13

    def test_skewed_partition_converges_to_the_minimal_value(self):
        # the first gap is 1% of a short span: the ladder needs more than
        # 832 nodes per axis, which latent rows make affordable
        params = ProcessParams(1.0, 1.02)
        bnd = constant_boundary(params, 1.0)
        skewed = bcp_quadrature(bnd, Partition(params,
                                               (1.0, 1.0002, 1.01, 1.02)),
                                tol=1e-8)
        minimal = bcp_quadrature(bnd, tol=1e-8)
        assert skewed.n_nodes > 832
        assert abs(skewed.value - minimal.value) <= 1e-12

    def test_log_matmul_scales_rows_and_columns(self):
        # entries far below exp's range, one empty row and one empty column
        rng = np.random.default_rng(15)
        p = rng.uniform(-1.0, 1.0, (5, 6)) - 2000.0
        k = rng.uniform(-1.0, 1.0, (6, 4)) + np.array([-1500.0, 0, 0, 900.0])
        p[2] = -np.inf
        k[:, 1] = -np.inf
        got = engine._log_matmul(p, k)
        want = logsumexp(p[:, :, None] + k[None, :, :], axis=1)
        finite = np.isfinite(want)
        assert np.array_equal(finite, np.isfinite(got))
        assert not finite[2].any() and not finite[:, 1].any()
        assert np.all(got[~finite] == -np.inf)
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-14)
        # column panels of k, contracted one at a time, give the same matrix
        panels = engine._log_matmul(p, iter((k[:, :1], k[:, 1:3], k[:, 3:])))
        np.testing.assert_allclose(panels, got, rtol=1e-15)

    def test_log_matmul_cut_matches_fsum(self):
        # entries over [-1500, 0]; the first three slots of each row of p
        # and column of k lie in [-3, 0], so every sum keeps a term above
        # e^-6; slot 3 straddles the e^-350 cut and slot 4 lies between
        # e^-40 and e^-5; row 1 of p and column 2 of k hold one maximum
        # with every other term more than 350 below it
        rng = np.random.default_rng(17)
        p = rng.uniform(-1500.0, 0.0, (6, 9))
        k = rng.uniform(-1500.0, 0.0, (9, 5))
        p[:, :3] = rng.uniform(-3.0, 0.0, (6, 3))
        k[:3] = rng.uniform(-3.0, 0.0, (3, 5))
        p[:, 3] = rng.uniform(-355.0, -345.0, 6)
        k[3] = rng.uniform(-3.0, 0.0, 5)
        p[:, 4] = rng.uniform(-3.0, 0.0, 6)
        k[4] = rng.uniform(-40.0, -5.0, 5)
        p[1] = np.concatenate(([0.0], rng.uniform(-1500.0, -351.0, 8)))
        k[:, 2] = np.concatenate(([0.0], rng.uniform(-1500.0, -351.0, 8)))
        got = engine._log_matmul(p, k)
        for r in range(6):
            for c in range(5):
                terms = [p[r, j] + k[j, c] for j in range(9)]
                mx = max(terms)
                want = mx + math.log(math.fsum(math.exp(t - mx)
                                               for t in terms))
                # a 1e-13 relative error of a sum is 1e-13 on its log
                assert abs(got[r, c] - want) <= 1e-13

    @pytest.mark.parametrize("n_nodes", [144, 576])
    def test_skewed_partition_contracts_without_underflow(self, n_nodes):
        # a 1% first gap of a 2% span puts most scaled exponents below
        # -708; none of them may reach exp or the matrix product
        params = ProcessParams(1.0, 1.02)
        bnd = constant_boundary(params, 1.0)
        part = Partition(params, (1.0, 1.0002, 1.01, 1.02))
        limits = [bnd.evaluate(t) for t in part.times]
        with np.errstate(under="raise"):
            got = engine._noncross_tensor_gl(
                params, part.times, limits, engine._local_pieces(bnd, part),
                n_nodes)
        assert 0.0 < got < 2.0


def _reference_factor(q, h, b, a, x_i, x_i1):
    """One piece's bridge factor, written as the per-piece kernel had it."""
    left = np.maximum(b - x_i, 0.0)
    left *= q / h
    out = np.empty(np.broadcast_shapes(x_i.shape, x_i1.shape))
    np.multiply(left, np.maximum(b + a * h - x_i1, 0.0), out=out)
    np.negative(out, out=out)
    np.expm1(out, out=out)
    np.negative(out, out=out)
    return out


def _reference_payoffs(xt, q, limits, pieces):
    """1 - knot indicators times bridge factors, one piece at a time."""
    z = np.all(xt <= limits[:, None], axis=0).astype(float)
    for i, (h, b, a) in enumerate(pieces):
        z *= _reference_factor(q, h, b, a, xt[i], xt[i + 1])
    return 1.0 - z


def _reference_skeleton_mc(partition, boundaries, n_paths, seed):
    """`engine._skeleton_mc` on one thread, with X and -X evaluated apart
    by `_reference_payoffs`."""
    q = partition.params.q
    per_bnd = [(b.evaluate(partition.times),
                engine._local_pieces(b, partition)) for b in boundaries]
    m = partition.n + 1
    lower = cholesky(covariance_matrix(partition.params, partition.times))

    def block(j, k):
        half = k // 2
        cols = k - half
        xt = lower @ gaussian_stream(seed, j).normals(cols * m).reshape(
            cols, m).T
        zs = []
        for limits, pieces in per_bnd:
            z = _reference_payoffs(xt, q, limits, pieces)
            z[:half] += _reference_payoffs(-xt[:, :half], q, limits, pieces)
            z[:half] *= 0.5
            zs.append(z)
        return np.stack(zs + [b - a for a, b in zip(zs, zs[1:])]).T

    return engine._moments(block(j, k) for j, k in
                           engine._blocks(n_paths, engine._MC_BLOCK))


def _assert_study_equals_the_reference(f, counts, n_paths, seed, workers):
    """Every value and error of a `convergence_study` of f, bit for bit
    against `_reference_skeleton_mc` on its union partition."""
    rows = convergence_study(f, PARAMS, counts, n_paths=n_paths, seed=seed,
                             workers=workers)
    boundaries = [approximate(f, PARAMS, c) for c in counts]
    part = engine._union_partition(PARAMS, [b.knots for b in boundaries])
    mean, se = _reference_skeleton_mc(part, boundaries, n_paths, seed)
    for i, row in enumerate(rows):
        assert row.estimate.value == min(1.0, max(0.0, float(mean[i])))
        assert row.estimate.error == float(se[i])
        if i:
            assert row.diff_prev == float(mean[len(counts) + i - 1])
            assert row.diff_se == float(se[len(counts) + i - 1])


def _knot_case(n, mode):
    """An n-piece approximant of 0.2 + 0.4 t^2 on a partition that adds
    the thirds of [q, d]; piecewise-constant ones jump at every knot."""
    bnd = approximate(lambda t: 0.2 + 0.4 * t * t, PARAMS, n, mode)
    part = engine._union_partition(
        PARAMS, [bnd.knots, Partition.equidistant(PARAMS, 3).times])
    return bnd, part


class TestPanelPayoffs:
    """The panel kernel against the per-piece formula with indicators."""

    @pytest.mark.parametrize("mode", ["interpolate", "piecewise_constant"])
    @pytest.mark.parametrize("n", [1, 2, 5, 63])
    def test_equal_the_indicator_formula_on_and_off_the_knots(self, n,
                                                               mode):
        bnd, part = _knot_case(n, mode)
        limits = bnd.evaluate(part.times)
        pieces = engine._local_pieces(bnd, part)
        ends = [b + a * h for h, b, a in pieces]
        m = part.n + 1
        x = np.random.default_rng(53).normal(size=(m, 400))
        x[0, 0::8] = limits[0]                  # on t_0
        x[-1, 1::8] = limits[-1]                # on t_n
        x[-1, 2::8] = ends[-1]                  # on the last piece's end
        j = m // 2                              # a jump knot if n > 1
        x[j, 3::8] = limits[j]
        x[j, 4::8] = max(ends[j - 1], pieces[j][1])
        x[j, 5::8] = np.nextafter(limits[j], np.inf)
        x[0, 6::8] = -limits[0]                 # -x on t_0
        if mode == "piecewise_constant" and n > 1:
            assert ends[j - 1] != pieces[j][1]
        cuts = engine._knot_cuts(limits, pieces)
        assert cuts == []
        got = engine._payoffs(np.hstack([x, -x]), PARAMS.q, pieces, cuts)
        want = np.concatenate([_reference_payoffs(x, PARAMS.q, limits, pieces),
                               _reference_payoffs(-x, PARAMS.q, limits,
                                                  pieces)])
        assert np.array_equal(got, want)
        assert 0.0 < want.min() and want.max() == 1.0

    def test_a_knot_value_below_both_limits_keeps_its_indicator(self):
        # the clamps stop at the one-sided limits (1.0), so a path between
        # the stored knot value 0.3 and 1.0 needs the knot's own check
        bnd = PiecewiseAffineBoundary(
            PARAMS, (AffinePiece(1.0, 1.5, 1.0, 0.0),
                     AffinePiece(1.5, 2.0, 1.0, 0.0)), knot_values=(0.3,))
        part = Partition.from_boundary(bnd)
        limits = bnd.evaluate(part.times)
        pieces = engine._local_pieces(bnd, part)
        cuts = engine._knot_cuts(limits, pieces)
        assert cuts == [(1, 0.3)]
        x = np.random.default_rng(59).normal(size=(3, 500))
        x[1, ::4] = 0.3
        x[1, 1::4] = 0.5
        want = _reference_payoffs(x, PARAMS.q, limits, pieces)
        assert np.array_equal(engine._payoffs(x, PARAMS.q, pieces, cuts),
                              want)
        assert not np.array_equal(engine._payoffs(x, PARAMS.q, pieces), want)
        mean, se = engine._skeleton_mc(part, [bnd], 3001, 19, 3)
        ref_mean, ref_se = _reference_skeleton_mc(part, [bnd], 3001, 19)
        assert np.array_equal(mean, ref_mean) and np.array_equal(se, ref_se)
        mc = bcp_montecarlo(bnd, n_paths=40_000, seed=19)
        quad = bcp_quadrature(bnd, tol=1e-8)
        assert abs(mc.value - quad.value) <= 4.0 * mc.error

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("n_paths", [1, 3, engine._MC_BLOCK + 1])
    @pytest.mark.parametrize("n", [1, 2, 5, 63])
    def test_skeleton_mc_equals_the_per_piece_reference(self, n, n_paths,
                                                        workers):
        bnd, part = _knot_case(n, "piecewise_constant" if n % 2 == 0
                               else "interpolate")
        got = engine._skeleton_mc(part, [bnd], n_paths, 23, workers)
        want = _reference_skeleton_mc(part, [bnd], n_paths, 23)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("workers", [1, 3])
    def test_three_boundary_study_equals_the_per_piece_reference(self,
                                                                 workers):
        _assert_study_equals_the_reference(
            lambda t: 0.5 + 0.3 * t * t, [2, 3, 5], 2 * engine._MC_BLOCK + 7,
            29, workers)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n_paths", [3, 1001, 262_144])
    def test_public_estimates_equal_the_written_out_pair_means(self, n_paths,
                                                               workers):
        # `engine._pair_means` against the reference's own pair formula,
        # through both public entry points: an odd path alone, an odd path
        # after 500 pairs, and sixteen full blocks
        bnd = affine_boundary(PARAMS, 0.9, 0.2)
        part = Partition.equidistant(PARAMS, 4)
        est = bcp_montecarlo(bnd, part, n_paths=n_paths, seed=5,
                             workers=workers)
        mean, se = _reference_skeleton_mc(part, [bnd], n_paths, 5)
        assert est.value == min(1.0, max(0.0, float(mean[0])))
        assert est.error == float(se[0])
        _assert_study_equals_the_reference(lambda t: t * t, [2, 4], n_paths,
                                           6, workers)


class TestBcpMontecarlo:
    def test_boundary_below_everything(self):
        est = bcp_montecarlo(constant_boundary(PARAMS, -10.0),
                             n_paths=10_000, seed=1)
        assert est.value == 1.0
        assert est.error == 0.0

    def test_agrees_with_quadrature(self):
        quad = bcp_quadrature(constant_boundary(PARAMS, 1.0), tol=1e-8)
        mc = bcp_montecarlo(constant_boundary(PARAMS, 1.0),
                            n_paths=200_000, seed=2)
        assert abs(mc.value - quad.value) <= 3.0 * mc.error

    def test_partition_refinement_leaves_estimand_unchanged(self):
        bnd = constant_boundary(PARAMS, 1.0)
        e2 = bcp_montecarlo(bnd, Partition.equidistant(PARAMS, 2),
                            n_paths=200_000, seed=3)
        e8 = bcp_montecarlo(bnd, Partition.equidistant(PARAMS, 8),
                            n_paths=200_000, seed=4)
        combined = math.hypot(e2.error, e8.error)
        assert abs(e2.value - e8.value) <= 3.0 * combined

    def test_reproducible(self):
        bnd = TWO_PIECE
        a = bcp_montecarlo(bnd, n_paths=50_000, seed=5)
        b = bcp_montecarlo(bnd, n_paths=50_000, seed=5)
        assert a == b

    def test_worker_count_does_not_change_result(self):
        bnd = TWO_PIECE
        n_paths = 3 * engine._MC_BLOCK + 1_000     # four blocks
        a = bcp_montecarlo(bnd, n_paths=n_paths, seed=6, workers=1)
        b = bcp_montecarlo(bnd, n_paths=n_paths, seed=6, workers=4)
        assert a.value == b.value and a.error == b.error

    def test_tiny_crossing_probability_has_a_standard_error(self):
        # crossing probability ~1e-11: a one-pass variance of non-crossing
        # payoffs near 1 cancels to 0; crossing payoffs do not
        g, n_paths, seed = 7.0, 100_000, 14
        est = bcp_montecarlo(constant_boundary(PARAMS, g), n_paths=n_paths,
                             seed=seed)
        lower = cholesky(covariance_matrix(PARAMS, (1.0, 2.0)))

        def payoff(x):
            return 1.0 - np.all(x <= g, axis=1) * noncross_affine_product(
                1.0, 1.0, g, 0.0, x[:, 0], x[:, 1])

        # block j of k paths: k/2 skeletons from stream j, each entering
        # as the mean of its payoff at x and at -x
        pair_means = []
        for j, start in enumerate(range(0, n_paths, engine._MC_BLOCK)):
            k = min(engine._MC_BLOCK, n_paths - start)
            assert k % 2 == 0
            x = gaussian_stream(seed, j).normals(k).reshape(k // 2, 2) \
                @ lower.T
            pair_means.append(0.5 * (payoff(x) + payoff(-x)))
        pair_means = np.concatenate(pair_means)
        assert len(pair_means) == n_paths // 2
        two_pass = np.std(pair_means, ddof=1) / math.sqrt(len(pair_means))
        assert 0.0 < est.value < 1e-9
        assert est.error > 0.0
        assert est.error == pytest.approx(two_pass, rel=1e-6)

    def test_path_major_payoffs_equal_the_row_wise_formula(self):
        # a jump at t = 1.5 (0.7 -> 0.9) and a finer partition than the
        # knots; the payoff reads knot rows of x.T instead of columns of x
        bnd = PiecewiseAffineBoundary(PARAMS, (
            AffinePiece(1.0, 1.5, 1.0, -0.6), AffinePiece(1.5, 2.0, 0.9, 0.4)))
        part = engine._union_partition(
            PARAMS, [bnd.knots, Partition.equidistant(PARAMS, 4).times])
        limits = bnd.evaluate(part.times)
        pieces = engine._local_pieces(bnd, part)
        x = np.random.default_rng(43).normal(size=(4000, part.n + 1))
        x[::7, 2] = limits[2]                   # paths on the jump knot
        z = np.all(x <= limits[None, :], axis=1).astype(float)
        for i, (h, b, a) in enumerate(pieces):
            z *= noncross_affine_product(PARAMS.q, h, b, a, x[:, i],
                                         x[:, i + 1])
        row_wise = 1.0 - z
        assert 0.0 < row_wise.min() and row_wise.max() == 1.0
        assert np.array_equal(engine._payoffs(x.T, PARAMS.q, pieces),
                              row_wise)

    @pytest.mark.parametrize("n_paths", [1, 3, engine._MC_BLOCK + 1])
    def test_odd_path_counts(self, n_paths):
        # the last block's odd path has no antithetic partner and enters
        # as a sample of its own
        one, two = (bcp_montecarlo(TWO_PIECE, n_paths=n_paths, seed=16,
                                   workers=w) for w in (1, 2))
        assert one == two
        assert 0.0 <= one.value <= 1.0
        assert math.isfinite(one.error)
        assert one.n_samples == n_paths
        if n_paths > engine._MC_BLOCK:
            return
        # one block: (n_paths + 1) // 2 skeletons, the last one unpaired
        part = Partition.from_boundary(TWO_PIECE)
        pieces = engine._local_pieces(TWO_PIECE, part)
        lower = cholesky(covariance_matrix(PARAMS, part.times))
        rows, m = (n_paths + 1) // 2, part.n + 1
        xt = lower @ gaussian_stream(16, 0).normals(rows * m).reshape(
            rows, m).T
        plus = engine._payoffs(xt, PARAMS.q, pieces)
        minus = engine._payoffs(-xt, PARAMS.q, pieces)
        pairs = n_paths // 2
        samples = np.append(0.5 * (plus + minus)[:pairs], plus[pairs:])
        assert len(samples) == pairs + 1
        assert one.value == pytest.approx(samples.mean(), abs=1e-15)
        if len(samples) > 1:
            assert one.error == pytest.approx(
                np.std(samples, ddof=1) / math.sqrt(len(samples)), rel=1e-9)

    def test_antithetic_pairs_halve_the_variance(self):
        # the payoff is monotone in the skeleton, so the pair payoffs are
        # negatively correlated: var(pair mean) = (var + cov) / 2
        bnd = approximate(lambda t: t * t, PARAMS, 4)
        part = Partition.from_boundary(bnd)
        pieces = engine._local_pieces(bnd, part)
        lower = cholesky(covariance_matrix(PARAMS, part.times))
        m, half = part.n + 1, engine._MC_BLOCK // 2
        xt = lower @ gaussian_stream(17, 0).normals(half * m).reshape(
            half, m).T
        plus = engine._payoffs(xt, PARAMS.q, pieces)
        minus = engine._payoffs(-xt, PARAMS.q, pieces)
        single = np.var(np.concatenate([plus, minus]), ddof=1)
        assert np.var(0.5 * (plus + minus), ddof=1) <= 0.5 * single

    def test_paired_seed_monotonicity_is_exact(self):
        g1 = constant_boundary(PARAMS, 0.8)
        g2 = constant_boundary(PARAMS, 1.1)
        part = Partition.equidistant(PARAMS, 3)
        p1 = bcp_montecarlo(g1, part, n_paths=20_000, seed=7)
        p2 = bcp_montecarlo(g2, part, n_paths=20_000, seed=7)
        assert p1.value >= p2.value

    def test_quadrature_monotonicity(self):
        p1 = bcp_quadrature(constant_boundary(PARAMS, 0.8), tol=1e-8)
        p2 = bcp_quadrature(constant_boundary(PARAMS, 1.1), tol=1e-8)
        assert p1.value >= p2.value - 2e-8


class TestConvergenceStudy:
    def test_quad_and_mc_agree(self):
        rows_q = convergence_study(lambda t: t * t, PARAMS, [2, 4],
                                   method="quad", tol=1e-7)
        rows_m = convergence_study(lambda t: t * t, PARAMS, [2, 4],
                                   method="mc", n_paths=200_000, seed=8)
        for rq, rm in zip(rows_q, rows_m):
            assert abs(rq.estimate.value - rm.estimate.value) \
                <= 3.0 * rm.estimate.error

    def test_coupled_differences_have_small_errors(self):
        rows = convergence_study(lambda t: t * t, PARAMS, [2, 4, 8],
                                 method="mc", n_paths=100_000, seed=9)
        assert rows[0].diff_prev is None
        for row in rows[1:]:
            assert row.diff_se < row.estimate.error / 5.0

    def test_workers_run_blocks_in_a_pool_without_changing_rows(
            self, monkeypatch):
        pools = []

        class RecordingPool(engine.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        monkeypatch.setattr(engine, "ThreadPoolExecutor", RecordingPool)
        kw = dict(method="mc", n_paths=2 * engine._MC_BLOCK + 500, seed=12)
        serial = convergence_study(lambda t: t * t, PARAMS, [2, 4], **kw,
                                   workers=1)
        assert not pools
        pooled = convergence_study(lambda t: t * t, PARAMS, [2, 4], **kw,
                                   workers=2)
        assert len(pools) == 1
        for a, b in zip(serial, pooled):
            assert a.estimate.value == b.estimate.value
            assert a.estimate.error == b.estimate.error
            assert a.diff_prev == b.diff_prev
            assert a.diff_se == b.diff_se

    def test_a_131072_path_study_runs_its_blocks_in_one_pool(
            self, monkeypatch):
        pools = []

        class RecordingPool(engine.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        monkeypatch.setattr(engine, "ThreadPoolExecutor", RecordingPool)
        rows = convergence_study(lambda t: t * t, PARAMS, [2, 4],
                                 method="mc", n_paths=131_072, seed=18,
                                 workers=2)
        assert len(pools) == 1
        assert all(r.estimate.n_samples == 131_072 for r in rows)

    def test_knots_equal_up_to_rounding(self):
        # np.linspace puts the knots at 1/3 and 2/3 of the span one ulp
        # lower for 9 pieces than for 3 and 15; each must count as one knot
        params = ProcessParams(1.4429814122259543, 2.6398270895049794)
        rows = convergence_study(lambda t: 1 + 0.1 * math.sin(3 * t), params,
                                 [3, 9, 15], n_paths=20_000)
        assert [r.n_pieces for r in rows] == [3, 9, 15]
        for row in rows[1:]:
            assert row.diff_se < row.estimate.error

    def test_union_partition_keeps_earlier_times(self):
        tol = 1e-12 * (PARAMS.d - PARAMS.q)
        part = engine._union_partition(
            PARAMS, [(1.0, 1.5, 2.0), (1.0, 1.5 + tol / 2, 1.75, 2.0)])
        assert part.times == (1.0, 1.5, 1.75, 2.0)

    def test_rejects_bad_counts(self):
        with pytest.raises(DomainError):
            convergence_study(lambda t: 1.0, PARAMS, [], method="mc")
