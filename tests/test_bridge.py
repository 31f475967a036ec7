"""Tests for bridge non-crossing probabilities and hitting densities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridge_reference import integrate, noncross_affine
from slepian_bcp import (BridgeSpec, DomainError, ProcessParams,
                         empirical_bridge_noncross, hitting_density_double,
                         hitting_density_single, noncross_affine_product,
                         noncross_constant)

PARAMS = ProcessParams(1.0, 2.0)


def _random_admissible(rng, a_range=(-2.0, 2.0), gap=(0.02, 2.5)):
    q = rng.uniform(0.3, 3.0)
    d = q * rng.uniform(1.05, 2.0)
    h = rng.uniform(0.05, 1.0) * (d - q)
    t_i = rng.uniform(q, d - h)
    b = rng.uniform(-0.5, 2.0)
    a = rng.uniform(*a_range)
    x_i = b - rng.uniform(*gap)
    x_i1 = b + a * h - rng.uniform(*gap)
    spec = BridgeSpec(ProcessParams(q, d), t_i, t_i + h, x_i, x_i1)
    return spec, b, a


class TestNoncrossConstant:
    def test_closed_form_value(self):
        spec = BridgeSpec(PARAMS, 1.0, 1.5, 0.0, 0.0)
        assert noncross_constant(spec, 1.0) == pytest.approx(
            1.0 - math.exp(-2.0), abs=1e-12)

    def test_pin_on_boundary_gives_zero(self):
        spec = BridgeSpec(PARAMS, 1.2, 1.7, 1.0, -0.3)
        assert noncross_constant(spec, 1.0) == 0.0

    def test_pin_above_boundary_rejected(self):
        spec = BridgeSpec(PARAMS, 1.2, 1.7, 1.1, 0.0)
        with pytest.raises(DomainError):
            noncross_constant(spec, 1.0)

    def test_brownian_bridge_form_any_q(self):
        # The closed form equals the Brownian-bridge expression under the
        # time change h -> 2h/q; at q = 2 the two intervals coincide.
        rng = np.random.default_rng(12)
        for _ in range(100):
            q = rng.uniform(0.3, 3.0)
            d = q * rng.uniform(1.05, 2.0)
            h = rng.uniform(0.05, 1.0) * (d - q)
            t_i = rng.uniform(q, d - h)
            b = rng.uniform(-0.5, 2.0)
            x_i = b - rng.uniform(0.0, 2.0)
            x_i1 = b - rng.uniform(0.0, 2.0)
            spec = BridgeSpec(ProcessParams(q, d), t_i, t_i + h, x_i, x_i1)
            bb = 1.0 - math.exp(-2.0 * (b - x_i) * (b - x_i1) / (2.0 * h / q))
            assert abs(noncross_constant(spec, b) - bb) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.01, 3.0), st.floats(0.0, 3.0), st.floats(0.0, 3.0))
    def test_bounds_and_monotonicity_in_b(self, b, gap_i, gap_i1):
        spec = BridgeSpec(PARAMS, 1.1, 1.6, b - gap_i, b - gap_i1)
        val = noncross_constant(spec, b)
        assert 0.0 <= val <= 1.0
        higher = noncross_constant(spec, b + 0.5)
        assert higher >= val

    def test_tends_to_one_as_b_grows(self):
        spec = BridgeSpec(PARAMS, 1.0, 1.8, 0.0, 0.0)
        assert noncross_constant(spec, 50.0) > 1.0 - 1e-12

    def test_shift_invariance(self):
        # depends on (t_i, t_i1) only through h
        a = BridgeSpec(PARAMS, 1.0, 1.4, 0.1, -0.2)
        b = BridgeSpec(PARAMS, 1.5, 1.9, 0.1, -0.2)
        assert noncross_constant(a, 0.9) == noncross_constant(b, 0.9)


class TestNoncrossAffine:
    def test_a0_reduces_to_constant(self):
        spec = BridgeSpec(PARAMS, 1.0, 1.5, 0.0, 0.0)
        assert noncross_affine(spec, 1.0, 0.0) == pytest.approx(
            1.0 - math.exp(-2.0), abs=1e-8)

    def test_a0_reduction_randomized(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            spec, b, _ = _random_admissible(rng, a_range=(0.0, 0.0))
            diff = abs(noncross_affine(spec, b, 0.0)
                       - noncross_constant(spec, b))
            assert diff <= 1e-8

    def test_monotone_in_slope(self):
        spec = BridgeSpec(PARAMS, 1.0, 1.6, 0.0, 0.0)
        values = [noncross_affine(spec, 1.0, a)
                  for a in (-1.0, -0.3, 0.0, 0.5, 2.0, 10.0, 50.0)]
        assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_monotone_in_intercept(self):
        spec = BridgeSpec(PARAMS, 1.0, 1.6, -0.2, 0.1)
        values = [noncross_affine(spec, b, -0.4)
                  for b in (0.5, 0.8, 1.2, 2.0, 4.0)]
        assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(values, values[1:]))

    def test_time_reversal_symmetry(self):
        # reversing the bridge and negating the slope leaves the value
        rng = np.random.default_rng(22)
        for _ in range(50):
            spec, b, a = _random_admissible(rng)
            rev = BridgeSpec(spec.params, spec.t_i, spec.t_i1,
                             spec.x_i1, spec.x_i)
            v1 = noncross_affine(spec, b, a)
            v2 = noncross_affine(rev, b + a * spec.h, -a)
            assert v1 == pytest.approx(v2, abs=5e-9)

    def test_degenerate_pin_returns_zero(self):
        spec = BridgeSpec(PARAMS, 1.0, 1.5, 1.0 - 1e-13, 0.0)
        assert noncross_affine(spec, 1.0, 0.3) == 0.0

    def test_pin_above_line_rejected(self):
        spec = BridgeSpec(PARAMS, 1.0, 1.5, 0.0, 0.4)
        with pytest.raises(DomainError):
            noncross_affine(spec, 1.0, -1.5)  # right end of line below x_i1

    def test_product_form_matches_quadrature(self):
        rng = np.random.default_rng(23)
        worst = 0.0
        for _ in range(300):
            spec, b, a = _random_admissible(rng)
            quad = noncross_affine(spec, b, a)
            prod = noncross_affine_product(spec.params.q, spec.h, b, a,
                                           spec.x_i, spec.x_i1)
            worst = max(worst, abs(quad - prod))
        assert worst <= 1e-8

    @pytest.mark.parametrize("gap", [1e-2, 1e-4, 1e-6])
    @pytest.mark.parametrize("a", [-1.0, 0.0, 2.0])
    def test_product_form_matches_quadrature_near_the_boundary(self, gap, a):
        # one pin or both within gap of the boundary; the reference is
        # tested down to gap 1e-6
        b, h = 1.0, 0.6
        for gap_l, gap_r in ((gap, gap), (gap, 0.7), (0.7, gap)):
            spec = BridgeSpec(PARAMS, 1.0, 1.0 + h, b - gap_l,
                              b + a * h - gap_r)
            prod = noncross_affine_product(1.0, h, b, a, spec.x_i, spec.x_i1)
            assert abs(noncross_affine(spec, b, a) - prod) <= 1e-8

    def test_product_form_vectorized(self):
        x = np.linspace(-2.0, 0.9, 7)
        vals = noncross_affine_product(1.0, 0.5, 1.0, 0.2, x, x[::-1])
        for j in range(7):
            spec = BridgeSpec(PARAMS, 1.0, 1.5, x[j], x[6 - j])
            assert vals[j] == pytest.approx(noncross_affine(spec, 1.0, 0.2),
                                            abs=1e-9)

    def test_product_form_equals_the_one_expression_form_bitwise(self):
        # the factor is built in one output array; every value must equal
        # the expression it replaced, for 1-D pins, broadcast quadrature
        # grids, pins above the boundary and scalars
        rng = np.random.default_rng(41)
        q, h, b, a = 0.9, 0.37, 0.8, -1.3
        lo, hi = rng.normal(size=(64, 1)), rng.normal(size=(1, 48))
        x_i, x_i1 = rng.normal(size=500), rng.normal(size=500)
        for u, v in ((x_i, x_i1), (lo, hi), (lo, hi[:, :5]), (0.1, -0.4),
                     (2.0, 0.0)):
            old = -np.expm1(-((q / h) * np.maximum(b - np.asarray(u), 0.0)
                              * np.maximum(b + a * h - np.asarray(v), 0.0)))
            new = noncross_affine_product(q, h, b, a, u, v)
            assert np.shape(new) == np.shape(old)
            assert np.array_equal(new, old)
        assert isinstance(noncross_affine_product(q, h, b, a, 0.1, -0.4),
                          float)

    def test_piece_arrays_broadcast_against_pin_rows_bitwise(self):
        # p pieces as (p, 1) columns against (p, k) pins, into a new array
        # or into `out`, equal p calls on scalar pieces bit for bit; pins on
        # or above a piece's end values clamp to 0 either way
        rng = np.random.default_rng(47)
        p, k, q = 5, 33, 0.9
        h = rng.uniform(0.05, 0.5, (p, 1))
        b = rng.normal(1.0, 0.3, (p, 1))
        a = rng.normal(0.0, 1.0, (p, 1))
        x_i, x_i1 = rng.normal(size=(p, k)), rng.normal(size=(p, k))
        x_i[:, 0] = b[:, 0]
        x_i1[:, 1] = (b + a * h)[:, 0]
        x_i[:, 2] = b[:, 0] + 1.0
        want = np.array([
            noncross_affine_product(q, float(h[r, 0]), float(b[r, 0]),
                                    float(a[r, 0]), x_i[r], x_i1[r])
            for r in range(p)])
        assert np.all(want[:, :3] == 0.0) and want.max() > 0.0
        assert np.array_equal(noncross_affine_product(q, h, b, a, x_i, x_i1),
                              want)
        out = np.full((p, k), np.nan)
        got = noncross_affine_product(q, h, b, a, x_i, x_i1, out=out)
        assert got is out and np.array_equal(out, want)
        assert isinstance(noncross_affine_product(q, float(h[0, 0]),
                                                  float(b[0, 0]),
                                                  float(a[0, 0]), 0.1, -0.4),
                          float)

    def test_matches_conditioned_path_simulation(self):
        # the path estimate accounts for crossings between grid nodes, so
        # it is unbiased and the bound is two-sided
        spec = BridgeSpec(PARAMS, 1.0, 1.8, 0.0, 0.1)
        b, a = 1.0, -0.5
        analytic = noncross_affine(spec, b, a)
        est = empirical_bridge_noncross(spec, b, a, n_paths=100_000,
                                        grid_step=1e-3, seed=17)
        assert abs(est.value - analytic) <= 3.0 * est.error


class TestHittingDensitySingle:
    def test_nonnegative_and_domain(self):
        assert hitting_density_single(PARAMS, 1.0, 0.0, 0.0, 1.5) > 0.0
        with pytest.raises(DomainError):
            hitting_density_single(PARAMS, 1.0, 0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            hitting_density_single(PARAMS, 1.0, 0.0, 1.2, 1.5)

    def test_concentrates_near_left_endpoint_for_adjacent_start(self):
        # starting 1e-3 below the boundary, nearly all hitting mass sits
        # in [q, q + 0.05]
        b, x1, delta = 1.0, 1.0 - 1e-3, 0.05

        def integrand(v):
            return 2.0 * v * hitting_density_single(PARAMS, b, 0.0, x1,
                                                    1.0 + v * v)

        mass = integrate(integrand, 0.0, math.sqrt(delta), 1e-6)
        assert mass >= 0.95

    def test_integral_matches_markov_decomposition(self):
        # 1 - integral of the hitting density equals the average of the
        # constant-boundary bridge probability over the right endpoint law.
        q, d, b, x1 = 1.0, 2.0, 1.0, 0.0
        e = d / q
        var = (e - 1.0) * (3.0 - e)
        mean = (2.0 - e) * x1

        def hit(v):
            return 2.0 * v * hitting_density_single(PARAMS, b, 0.0, x1,
                                                    q + v * v)

        total_hit = integrate(hit, 0.0, math.sqrt(d - q), 1e-9)

        def survive(y):
            dens = math.exp(-(y - mean) ** 2 / (2 * var)) \
                / math.sqrt(2 * math.pi * var)
            return dens * (-math.expm1(-q * (b - x1) * (b - y) / (d - q)))

        total_survive = integrate(survive, -12.0, b, 1e-9)
        assert total_hit + total_survive == pytest.approx(1.0, abs=1e-6)

    def test_integral_vs_path_simulation(self):
        # same quantity, checked against paths conditioned on the left pin
        q, d, b, x1 = 1.0, 2.0, 1.0, 0.0
        step, n_paths = 2e-3, 30_000

        def hit(v):
            return 2.0 * v * hitting_density_single(PARAMS, b, 0.0, x1,
                                                    q + v * v)

        crossing = integrate(hit, 0.0, math.sqrt(d - q), 1e-8)

        from slepian_bcp.numerics import gaussian_stream
        k = round((d - q) / step)
        m = round(q / step)
        b_len = m + k
        times = q + np.arange(k + 1) * step
        rho = np.clip(1.0 - (times - q) / q, 0.0, None)  # cov with W_q
        count = 0
        blocks = 10
        per = n_paths // blocks
        for j in range(blocks):
            eps = gaussian_stream(404, j).normals(per * b_len)
            eps = eps.reshape(per, b_len) * math.sqrt(step)
            bm = np.concatenate([np.zeros((per, 1)),
                                 np.cumsum(eps, axis=1)], axis=1)
            w = (bm[:, m:m + k + 1] - bm[:, 0:k + 1]) / math.sqrt(q)
            w += (x1 - w[:, [0]]) * rho[None, :]
            count += int(np.any(w[:, 1:] > b, axis=1).sum())
        est = count / n_paths
        se = math.sqrt(est * (1 - est) / n_paths)
        # grid only underestimates crossings
        assert crossing >= est - 3 * se
        assert crossing <= est + 2.0 * math.sqrt(step) + 3 * se

    def test_time_rescaling(self):
        # density transforms with a 1/q factor under u = t/q
        params = ProcessParams(2.0, 3.6)
        canonical = ProcessParams(1.0, 1.8)
        b, a, x1 = 0.8, -0.4, -0.2
        for t in (2.4, 3.0, 3.6):
            general = hitting_density_single(params, b, a, x1, t)
            scaled = hitting_density_single(canonical, b, a * params.q, x1,
                                            t / params.q) / params.q
            assert general == pytest.approx(scaled, rel=1e-12)


def _integrate_double_density(spec, b, a, tol=1e-8):
    return integrate(lambda t: hitting_density_double(spec, b, a, t),
                     spec.t_i, spec.t_i1, tol)


class TestHittingDensityDouble:
    def test_identity_with_noncross_affine(self):
        spec = BridgeSpec(PARAMS, 1.0, 1.7, 0.0, 0.2)
        b, a = 1.0, 0.3
        total = _integrate_double_density(spec, b, a)
        assert total + noncross_affine(spec, b, a) == pytest.approx(
            1.0, abs=1e-6)

    def test_a0_integral_reproduces_constant_closed_form(self):
        spec = BridgeSpec(PARAMS, 1.1, 1.9, -0.3, 0.4)
        b = 0.9
        total = _integrate_double_density(spec, b, 0.0)
        assert 1.0 - total == pytest.approx(noncross_constant(spec, b),
                                            abs=1e-7)

    def test_vanishes_at_right_endpoint(self):
        spec = BridgeSpec(PARAMS, 1.0, 1.7, 0.0, 0.2)
        val = hitting_density_double(spec, 1.0, 0.3, 1.7 - 1e-9)
        assert val < 1e-100

    def test_nonnegative(self):
        spec = BridgeSpec(PARAMS, 1.0, 1.7, 0.0, 0.2)
        for t in np.linspace(1.01, 1.69, 20):
            assert hitting_density_double(spec, 1.0, 0.3, float(t)) >= 0.0

    def test_domain_errors(self):
        spec = BridgeSpec(PARAMS, 1.0, 1.7, 0.0, 0.2)
        with pytest.raises(DomainError):
            hitting_density_double(spec, 1.0, 0.3, 1.0)
        with pytest.raises(DomainError):
            hitting_density_double(spec, -0.1, 0.0, 1.3)
