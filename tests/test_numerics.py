"""Tests for the shared numerical kernels."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

import slepian_bcp
from slepian_bcp.numerics import gauss_legendre, gauss_legendre_on
from slepian_bcp import NotPositiveDefiniteError, cholesky, gaussian_stream


class TestGaussLegendre:
    def test_matches_leggauss(self):
        # numpy documents leggauss as tested to degree 100
        for n in range(1, 101):
            x, w = gauss_legendre(n)
            ref_x, ref_w = np.polynomial.legendre.leggauss(n)
            assert np.all(np.abs(x - ref_x)
                          <= 2 * np.spacing(np.abs(ref_x))), n
            np.testing.assert_allclose(w, ref_w, rtol=1e-11)
            assert np.all(np.diff(x) > 0)

    @pytest.mark.parametrize("n", [16, 832, 1664])
    def test_exact_on_monomials(self, n):
        # sum w x^k = int_{-1}^{1} x^k dx for every k <= 2n - 1
        x, w = gauss_legendre(n)
        for k in range(2 * n):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(w @ x ** k - exact) <= 1e-13 * 2.0 / (k + 1), k

    def test_mapped_rule_integrates_on_the_interval(self):
        x, w = gauss_legendre_on(-1.0, 2.0, 832)
        exact = (math.exp(6.0) - math.exp(-3.0)) / 3.0
        assert abs(w @ np.exp(3.0 * x) - exact) <= 4e-15 * exact

    def test_rejects_empty_rule(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)


class TestCholesky:
    def test_identity(self):
        np.testing.assert_allclose(cholesky(np.eye(3)), np.eye(3))

    def test_hand_computed_2x2(self):
        a = np.array([[1.0, 0.5], [0.5, 1.0]])
        expected = np.array([[1.0, 0.0], [0.5, math.sqrt(0.75)]])
        np.testing.assert_allclose(cholesky(a), expected, rtol=1e-15)

    def test_process_covariance_is_pd(self):
        from slepian_bcp import ProcessParams, covariance_matrix
        params = ProcessParams(1.0, 2.0)
        times = [1.0, 1.2, 1.45, 1.7, 2.0]
        lower = cholesky(covariance_matrix(params, times))
        assert np.all(np.diag(lower) > 0)

    def test_roundtrip_random_pd(self):
        rng = np.random.default_rng(7)
        for dim in range(1, 9):
            m = rng.normal(size=(dim, dim))
            a = m @ m.T + dim * np.eye(dim)
            lower = cholesky(a)
            np.testing.assert_allclose(lower @ lower.T, a,
                                       atol=1e-12 * np.linalg.norm(a))

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            cholesky(np.array([[1.0, 0.3], [0.0, 1.0]]))


class TestGaussianStream:
    def test_deterministic(self):
        a = gaussian_stream(123, 4).normals(1000)
        b = gaussian_stream(123, 4).normals(1000)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ_and_are_uncorrelated(self):
        a = gaussian_stream(123, 0).normals(100_000)
        b = gaussian_stream(123, 1).normals(100_000)
        assert not np.array_equal(a[:100], b[:100])
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 4.0 / math.sqrt(100_000)

    def test_index_determines_variate(self):
        stream = gaussian_stream(9, 2)
        first = stream.normals(10)
        second = stream.normals(10)
        both = gaussian_stream(9, 2).normals(20)
        np.testing.assert_array_equal(np.concatenate([first, second]), both)

    def test_out_receives_the_same_variates(self):
        stream = gaussian_stream(9, 2)
        buf = np.full((2, 12), np.nan)
        first = stream.normals(10, buf[0, :10])
        assert np.shares_memory(first, buf)
        stream.normals(10, buf[1, :10])
        np.testing.assert_array_equal(
            buf[:, :10].ravel(), gaussian_stream(9, 2).normals(20))
        assert np.isnan(buf[:, 10:]).all()
        with pytest.raises(ValueError):
            stream.normals(10, buf[0, :9])

    def test_sample_mean(self):
        x = gaussian_stream(5, 0).normals(1_000_000)
        assert abs(x.mean()) < 4.0 / math.sqrt(1_000_000)

    def test_kolmogorov_smirnov(self):
        x = gaussian_stream(11, 0).normals(100_000)
        result = stats.kstest(x, "norm")
        assert result.pvalue > 0.001

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            gaussian_stream(-1, 0)


def test_package_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is for tests alone
    src = os.path.dirname(os.path.dirname(slepian_bcp.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, slepian_bcp; print(sorted("
         "m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
