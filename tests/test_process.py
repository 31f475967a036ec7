"""Tests for process parameters, covariance and the Gaussian densities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad
from scipy.stats import multivariate_normal

from bridge_reference import integrate
from slepian_bcp import (DomainError, GaussianVectorSpec, ProcessParams,
                         cholesky, conditional_density, covariance,
                         covariance_matrix, fdd_density, pair_density,
                         rescale)
from slepian_bcp.process import conditional_log_density


class TestProcessParams:
    @pytest.mark.parametrize("q,d", [(1.0, 2.0), (0.5, 0.8), (2.0, 4.0),
                                     (3.0, 3.1)])
    def test_accepts_valid(self, q, d):
        params = ProcessParams(q, d)
        assert 1.0 < params.e <= 2.0

    @pytest.mark.parametrize("q,d", [(0.0, 1.0), (-1.0, 1.0), (1.0, 1.0),
                                     (1.0, 0.5), (1.0, 2.0001),
                                     (1.0, float("inf"))])
    def test_rejects_invalid(self, q, d):
        with pytest.raises(DomainError):
            ProcessParams(q, d)


class TestCovariance:
    def test_zero_lag_is_unit_variance(self):
        assert covariance(ProcessParams(1, 2), 1.3, 1.3) == 1.0

    def test_lag_equal_window_vanishes(self):
        assert covariance(ProcessParams(1, 2), 1.0, 2.0) == 0.0

    def test_half_window_lag(self):
        assert covariance(ProcessParams(1, 2), 1.0, 1.5) == 0.5

    def test_domain_error(self):
        with pytest.raises(DomainError):
            covariance(ProcessParams(1, 2), 0.9, 1.5)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1.0, 2.0), st.floats(1.0, 2.0))
    def test_symmetric_and_bounded(self, s, t):
        params = ProcessParams(1.0, 2.0)
        c = covariance(params, s, t)
        assert c == covariance(params, t, s)
        assert 0.0 <= c <= 1.0

    def test_unit_only_at_zero_lag(self):
        params = ProcessParams(1.0, 2.0)
        rng = np.random.default_rng(0)
        for _ in range(200):
            s, t = rng.uniform(1.0, 2.0, size=2)
            if abs(s - t) > 1e-9:
                assert covariance(params, s, t) < 1.0
            assert covariance(params, s, s) == 1.0

    def test_zero_only_at_window_lag(self):
        params = ProcessParams(2.0, 4.0)
        assert covariance(params, 2.0, 4.0) == 0.0
        assert covariance(params, 2.0, 3.999) > 0.0

    def test_matrix_positive_definite_on_random_partitions(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            q = rng.uniform(0.2, 3.0)
            d = q * rng.uniform(1.05, 2.0)
            m = rng.integers(2, 8)
            times = np.sort(rng.uniform(q, d, size=m))
            while np.min(np.diff(times)) < 1e-6:
                times = np.sort(rng.uniform(q, d, size=m))
            lower = cholesky(covariance_matrix(ProcessParams(q, d), times))
            assert np.all(np.diag(lower) > 0)


class TestRescale:
    @pytest.mark.parametrize("q,d,t,expected", [
        (2.0, 4.0, 2.0, (2.0, 1.0)),
        (2.0, 4.0, 4.0, (2.0, 2.0)),
        (0.5, 0.8, 0.6, (1.6, 1.2)),
    ])
    def test_examples(self, q, d, t, expected):
        e, u = rescale(ProcessParams(q, d), t)
        assert e == pytest.approx(expected[0], abs=1e-15)
        assert u == pytest.approx(expected[1], abs=1e-15)

    def test_range_and_invertibility(self):
        params = ProcessParams(0.7, 1.2)
        for t in np.linspace(0.7, 1.2, 17):
            e, u = rescale(params, t)
            assert 1.0 <= u <= e
            assert u * params.q == pytest.approx(t, rel=1e-15)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            rescale(ProcessParams(1, 2), 2.5)


class TestGaussianVectorSpec:
    def test_rejects_coincident_times(self):
        with pytest.raises(DomainError):
            GaussianVectorSpec(ProcessParams(1, 2), (1.0, 1.5, 1.5))

    def test_rejects_unsorted(self):
        with pytest.raises(DomainError):
            GaussianVectorSpec(ProcessParams(1, 2), (1.5, 1.2))

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            GaussianVectorSpec(ProcessParams(1, 2), (0.5, 1.5))


def _mvn_pdf(params, times, x):
    cov = covariance_matrix(params, times)
    return multivariate_normal(mean=np.zeros(len(times)), cov=cov).pdf(x)


class TestFddDensity:
    def test_m1_is_standard_normal(self):
        spec = GaussianVectorSpec(ProcessParams(1, 2), (1.4,))
        for x in (-2.0, 0.0, 0.7):
            expected = math.exp(-x * x / 2) / math.sqrt(2 * math.pi)
            assert fdd_density(spec, [x]) == pytest.approx(expected,
                                                           rel=1e-14)

    def test_m2_equals_pair_density(self):
        params = ProcessParams(1.0, 2.0)
        spec = GaussianVectorSpec(params, (1.0, 2.0))
        assert fdd_density(spec, [0.0, 0.0]) == pytest.approx(
            pair_density(params, 1.0, 2.0, 0.0, 0.0), rel=1e-14)

    def test_m2_equals_pair_density_randomized(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            q = rng.uniform(0.3, 2.5)
            d = q * rng.uniform(1.05, 2.0)
            params = ProcessParams(q, d)
            ti = rng.uniform(q * 1.001, d)
            x0, xi = rng.normal(size=2) * 2
            spec = GaussianVectorSpec(params, (q, ti))
            a = fdd_density(spec, [x0, xi])
            b = pair_density(params, q, ti, x0, xi)
            assert abs(a - b) <= 1e-12 * b

    def test_trivariate_matches_mvn_oracle(self):
        params = ProcessParams(1.0, 2.0)
        times = (1.0, 1.4, 1.8)
        spec = GaussianVectorSpec(params, times)
        x = [0.0, 0.0, 0.0]
        assert fdd_density(spec, x) == pytest.approx(
            _mvn_pdf(params, times, x), rel=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_matches_mvn_oracle_randomized(self, m):
        rng = np.random.default_rng(m)
        for _ in range(50):
            q = rng.uniform(0.3, 2.5)
            d = q * rng.uniform(1.1, 2.0)
            params = ProcessParams(q, d)
            times = np.sort(rng.uniform(q, d, size=m))
            while m > 1 and np.min(np.diff(times)) < 1e-3:
                times = np.sort(rng.uniform(q, d, size=m))
            x = rng.normal(size=m) * 1.5
            ours = fdd_density(GaussianVectorSpec(params, tuple(times)), x)
            ref = _mvn_pdf(params, times, x)
            assert abs(ours - ref) <= 1e-10 * ref

    def test_normalizes_m2(self):
        params = ProcessParams(1.0, 2.0)
        spec = GaussianVectorSpec(params, (1.0, 1.5))
        total, _ = dblquad(lambda x1, x0: fdd_density(spec, [x0, x1]),
                           -8.0, 8.0, -8.0, 8.0, epsabs=1e-7, epsrel=0.0)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_rescaling_consistency(self):
        # Density values are invariant under the canonical time change:
        # same values at u = t/q on the (1, e) process.
        rng = np.random.default_rng(5)
        for _ in range(50):
            q = rng.uniform(0.3, 2.5)
            d = q * rng.uniform(1.1, 2.0)
            params = ProcessParams(q, d)
            m = int(rng.integers(2, 5))
            times = np.sort(rng.uniform(q, d, size=m))
            while np.min(np.diff(times)) < 1e-3:
                times = np.sort(rng.uniform(q, d, size=m))
            x = rng.normal(size=m)
            general = fdd_density(GaussianVectorSpec(params, tuple(times)), x)
            canonical = fdd_density(
                GaussianVectorSpec(ProcessParams(1.0, params.e),
                                   tuple(times / q)), x)
            assert general == pytest.approx(canonical, rel=1e-12)


class TestPairDensity:
    def test_value_at_full_lag(self):
        # times (q, d) with e = 2 decorrelate; density at the origin is
        # that of two independent standard normals.
        assert pair_density(ProcessParams(1, 2), 1.0, 2.0, 0.0, 0.0) == \
            pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)

    def test_sign_symmetry(self):
        params = ProcessParams(1.0, 2.0)
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = rng.normal(size=2) * 2
            ti = rng.uniform(1.001, 2.0)
            assert pair_density(params, 1.0, ti, a, b) == pytest.approx(
                pair_density(params, 1.0, ti, -a, -b), rel=1e-14)

    def test_matches_bivariate_normal_at_half_lag(self):
        params = ProcessParams(1.0, 2.0)
        rng = np.random.default_rng(4)
        for _ in range(20):
            x0, xi = rng.normal(size=2)
            ours = pair_density(params, 1.0, 1.5, x0, xi)
            ref = _mvn_pdf(params, (1.0, 1.5), [x0, xi])
            assert ours == pytest.approx(ref, rel=1e-12)

    def test_rejects_wrong_anchor(self):
        with pytest.raises(DomainError):
            pair_density(ProcessParams(1, 2), 1.1, 1.5, 0.0, 0.0)
        with pytest.raises(DomainError):
            pair_density(ProcessParams(1, 2), 1.0, 1.0, 0.0, 0.0)


class TestConditionalDensity:
    def test_normalizes(self):
        params = ProcessParams(1.0, 2.0)
        total = integrate(
            lambda xi: conditional_density(params, 1.0, 1.4, 1.9, 0.3, xi,
                                           -0.2),
            -10.0, 10.0, 1e-9)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_bayes_factorization(self):
        # conditional(ti | t0, ti1) * pair(t0, ti1) == joint(t0, ti, ti1)
        rng = np.random.default_rng(6)
        for _ in range(100):
            q = rng.uniform(0.3, 2.5)
            d = q * rng.uniform(1.1, 2.0)
            params = ProcessParams(q, d)
            ti, ti1 = np.sort(rng.uniform(q * 1.001, d, size=2))
            if ti1 - ti < 1e-3:
                continue
            x0, xi, xi1 = rng.normal(size=3) * 1.5
            lhs = (conditional_density(params, q, ti, ti1, x0, xi, xi1)
                   * pair_density(params, q, ti1, x0, xi1))
            rhs = fdd_density(GaussianVectorSpec(params, (q, ti, ti1)),
                              [x0, xi, xi1])
            assert abs(lhs - rhs) <= 1e-10 * rhs

    def test_mode_at_quadratic_vertex(self):
        # The log-density is quadratic in xi; its argmax must match the
        # vertex -B/(2A) of that quadratic (the bridge mean).
        params = ProcessParams(1.0, 2.0)
        t0, ti, ti1 = 1.0, 1.5, 2.0
        x0, xi1 = 0.4, -0.3
        ui, ui1 = ti / params.q, ti1 / params.q
        a_coef = 1.0 / (ui - 1.0) + 1.0 / (ui1 - ui)
        b_coef = -2.0 * x0 / (ui - 1.0) - 2.0 * xi1 / (ui1 - ui)
        vertex = -b_coef / (2.0 * a_coef)
        grid = np.linspace(-3, 3, 20001)
        dens = [conditional_log_density(params, t0, ti, ti1, x0, v, xi1)
                for v in grid]
        numeric_mode = grid[int(np.argmax(dens))]
        assert numeric_mode == pytest.approx(vertex, abs=2e-3)
        assert min(x0, xi1) <= vertex <= max(x0, xi1)

    def test_rejects_bad_ordering(self):
        params = ProcessParams(1.0, 2.0)
        with pytest.raises(DomainError):
            conditional_density(params, 1.0, 1.9, 1.4, 0.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            conditional_density(params, 1.1, 1.4, 1.9, 0.0, 0.0, 0.0)
