"""Quadrature against the exact single-piece crossing probability.

For one affine piece the factorization integrates in closed form.  With
h = d - q, rho = 1 - h/q (the correlation of W_q and W_d), s = sqrt(1 -
rho^2) and the boundary b at q and b' = b + a h at d, the bridge exponent's
bilinear term cancels the pair precision's off-diagonal, which leaves a
Gaussian in x_0 + x_1 and a tilt in x_0 - x_1:

    P(cross) = Q(b) + Q(b') - P(X > b, Y > b')
               + [phi(b) Phi((b' - rho b)/s) - phi(b') Phi((b - rho b')/s)]
                 / (q a),

X, Y standard normals with correlation rho.  For a = 0 the last term is
phi(b) [(1 - rho) b Phi(z) + s phi(z)], z = b sqrt((1 - rho)/(1 + rho))
(Slepian 1961, Ann. Math. Statist. 32).  The bivariate tail is
Q(b) Q(b') + (1/2 pi) int_0^{asin rho}
exp(-(b^2 - 2 b b' sin t + b'^2) / (2 cos^2 t)) dt.

By partition invariance the same value is the crossing probability on every
refinement of [q, d], so each equidistant partition tests the whole
quadrature chain against a noise-free number.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slepian_bcp import (Partition, ProcessParams, affine_boundary,
                         bcp_quadrature, constant_boundary)

_GL_T, _GL_W = np.polynomial.legendre.leggauss(96)


def _upper(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _pdf(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _bivariate_tail(b, bp, rho):
    """P(X > b, Y > b') for standard normals with correlation rho >= 0."""
    top = math.asin(rho)
    t = 0.5 * top * (_GL_T + 1.0)
    f = np.exp(-(b * b - 2.0 * b * bp * np.sin(t) + bp * bp)
               / (2.0 * np.cos(t) ** 2))
    return _upper(b) * _upper(bp) + 0.25 * top * float(_GL_W @ f) / math.pi


def single_piece_bcp(q, d, b, a):
    """Exact P(W_t > b + a (t - q) for some t in [q, d])."""
    r = (d - q) / q
    rho = 1.0 - r
    s = math.sqrt(r * (2.0 - r))
    bp = b + a * (d - q)
    base = _upper(b) + _upper(bp) - _bivariate_tail(b, bp, rho)
    if a == 0.0:
        z = b * math.sqrt(r / (2.0 - r))
        return base + _pdf(b) * (r * b * _cdf(z) + s * _pdf(z))
    return base + (_pdf(b) * _cdf((bp - rho * b) / s)
                   - _pdf(bp) * _cdf((b - rho * bp) / s)) / (q * a)


def _boundary(params, b, a):
    if a == 0.0:
        return constant_boundary(params, b)
    return affine_boundary(params, b, a)


# slopes near 0 would divide a cancelled difference by q a; a = 0 itself
# takes Slepian's form
_SLOPES = st.one_of(st.just(0.0), st.floats(0.05, 2.5),
                    st.floats(-2.5, -0.05))


class TestReference:
    @pytest.mark.parametrize("q, d, b, a", [
        (1.0, 2.0, 1.0, 0.0), (1.0, 1.5, 0.3, 0.0), (2.0, 3.7, -0.5, 0.0),
        (1.0, 2.0, 0.5, 1.0), (0.7, 1.2, 0.2, 2.5), (1.5, 2.9, 2.0, -1.3),
        (1.0, 1.01, 1.0, 3.0)])
    def test_minimal_partition_at_tight_tol(self, q, d, b, a):
        params = ProcessParams(q, d)
        est = bcp_quadrature(_boundary(params, b, a), tol=1e-12)
        assert abs(est.value - single_piece_bcp(q, d, b, a)) <= 1e-13

    @pytest.mark.parametrize("q, b, a", [(1.0, 1.0, 0.0), (0.5, -0.3, 0.0),
                                         (2.0, 2.0, 1.5), (1.0, 0.7, -2.0)])
    def test_short_horizon_limit(self, q, b, a):
        # rho -> 1: the crossing mass beyond P(W_q > b) is the expected
        # positive part of the increment over [q, d] at the boundary,
        # 2 phi(b) sqrt(h / (pi q)) to first order in sqrt(h)
        h = 1e-8 * q
        excess = single_piece_bcp(q, q + h, b, a) - _upper(b)
        assert excess / (2.0 * _pdf(b) * math.sqrt(h / (math.pi * q))) \
            == pytest.approx(1.0, abs=1e-3)

    def test_slope_zero_is_the_limit_of_small_slopes(self):
        # a higher boundary crosses less, and the a = 0 form sits between
        # its small-slope neighbours
        up, flat, down = (single_piece_bcp(1.0, 1.6, 0.8, a)
                          for a in (1e-3, 0.0, -1e-3))
        assert up < flat < down
        assert down - up <= 1e-3


@settings(max_examples=40, deadline=None)
@given(st.floats(0.5, 2.0), st.floats(0.02, 1.0), st.floats(-2.0, 3.5),
       _SLOPES, st.sampled_from([2, 3, 4, 8]))
def test_equidistant_refinements_match_closed_form(q, r, b, a, n):
    params = ProcessParams(q, q * (1.0 + r))
    est = bcp_quadrature(_boundary(params, b, a),
                         Partition.equidistant(params, n), tol=1e-12)
    assert abs(est.value - single_piece_bcp(q, params.d, b, a)) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(st.floats(0.5, 2.0), st.sampled_from([0.01, 0.001]),
       st.floats(-2.0, 3.5), _SLOPES, st.sampled_from([1, 2, 3]))
def test_short_horizons_match_closed_form(q, r, b, a, n):
    params = ProcessParams(q, q * (1.0 + r))
    est = bcp_quadrature(_boundary(params, b, a),
                         Partition.equidistant(params, n), tol=1e-8)
    assert abs(est.value - single_piece_bcp(q, params.d, b, a)) <= 1e-8
