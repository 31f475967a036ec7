"""Tests for piecewise-affine boundaries and the approximation machinery."""

import io
import json
import math

import numpy as np
import pytest

from slepian_bcp import (AffinePiece, DomainError, PiecewiseAffineBoundary,
                         ProcessParams, affine_boundary, approximate,
                         constant_boundary, dump_boundary, load_boundary)

PARAMS = ProcessParams(1.0, 2.0)


class TestEvaluate:
    def test_constant_piece(self):
        assert constant_boundary(PARAMS, 1.0).evaluate(1.7) == 1.0

    def test_affine_piece(self):
        bnd = affine_boundary(PARAMS, 0.0, 2.0)
        assert bnd.evaluate(1.25) == pytest.approx(0.5, abs=1e-15)

    def test_continuous_knot(self):
        pieces = (AffinePiece(1.0, 1.5, 1.0, 0.0),
                  AffinePiece(1.5, 2.0, 1.0, 0.0))
        bnd = PiecewiseAffineBoundary(PARAMS, pieces)
        assert bnd.evaluate(1.5) == 1.0

    def test_vectorized_matches_scalar(self):
        pieces = (AffinePiece(1.0, 1.4, 0.5, 1.0),
                  AffinePiece(1.4, 2.0, 0.9, -0.25))
        bnd = PiecewiseAffineBoundary(PARAMS, pieces)
        ts = np.linspace(1.0, 2.0, 23)
        vec = bnd.evaluate(ts)
        for t, v in zip(ts, vec):
            assert v == bnd.evaluate(float(t))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            constant_boundary(PARAMS, 1.0).evaluate(2.1)

    def test_callable(self):
        bnd = constant_boundary(PARAMS, 2.0)
        assert bnd(1.3) == 2.0

    def test_local_affine_from_just_below_a_knot(self):
        pieces = (AffinePiece(1.0, 1.5, 1.0, 0.0),
                  AffinePiece(1.5, 2.0, 0.5, 2.0))
        bnd = PiecewiseAffineBoundary(PARAMS, pieces)
        t_lo = math.nextafter(1.5, 0.0)
        b, a = bnd.local_affine(t_lo, 1.75)
        assert a == 2.0
        assert b == pytest.approx(0.5, abs=1e-15)
        with pytest.raises(DomainError):
            bnd.local_affine(1.25, 1.75)


class TestConstruction:
    def test_rejects_gap(self):
        pieces = (AffinePiece(1.0, 1.4, 0.0, 0.0),
                  AffinePiece(1.5, 2.0, 0.0, 0.0))
        with pytest.raises(DomainError):
            PiecewiseAffineBoundary(PARAMS, pieces)

    def test_rejects_overlap(self):
        pieces = (AffinePiece(1.0, 1.6, 0.0, 0.0),
                  AffinePiece(1.5, 2.0, 0.0, 0.0))
        with pytest.raises(DomainError):
            PiecewiseAffineBoundary(PARAMS, pieces)

    def test_rejects_wrong_endpoints(self):
        with pytest.raises(DomainError):
            PiecewiseAffineBoundary(PARAMS, (AffinePiece(1.1, 2.0, 0.0, 0.0),))
        with pytest.raises(DomainError):
            PiecewiseAffineBoundary(PARAMS, (AffinePiece(1.0, 1.9, 0.0, 0.0),))

    def test_default_knot_value_is_min_of_limits(self):
        pieces = (AffinePiece(1.0, 1.5, 1.0, 0.0),
                  AffinePiece(1.5, 2.0, 0.4, 0.0))
        bnd = PiecewiseAffineBoundary(PARAMS, pieces)
        assert bnd.evaluate(1.5) == 0.4
        assert bnd.knot_values == (0.4,)

    def test_rejects_knot_value_above_limits(self):
        pieces = (AffinePiece(1.0, 1.5, 1.0, 0.0),
                  AffinePiece(1.5, 2.0, 0.4, 0.0))
        with pytest.raises(DomainError):
            PiecewiseAffineBoundary(PARAMS, pieces, knot_values=(0.7,))

    def test_accepts_lower_knot_value(self):
        pieces = (AffinePiece(1.0, 1.5, 1.0, 0.0),
                  AffinePiece(1.5, 2.0, 0.4, 0.0))
        bnd = PiecewiseAffineBoundary(PARAMS, pieces, knot_values=(0.1,))
        assert bnd.evaluate(1.5) == 0.1

    def test_knots(self):
        bnd = approximate(lambda t: t, PARAMS, 4)
        np.testing.assert_allclose(bnd.knots, [1.0, 1.25, 1.5, 1.75, 2.0])


class TestApproximate:
    def test_constant_exact(self):
        bnd = approximate(lambda t: 3.5, PARAMS, 7)
        assert all(p.slope == 0.0 for p in bnd.pieces)
        assert all(p.intercept == 3.5 for p in bnd.pieces)

    def test_affine_fixed_point(self):
        b0, a0 = 0.3, -0.8

        def f(t):
            return b0 + a0 * (t - PARAMS.q)

        bnd = approximate(f, PARAMS, 5)
        for t in np.linspace(1.0, 2.0, 101):
            assert abs(bnd.evaluate(float(t)) - f(t)) <= 1e-14

    def test_interpolation_is_continuous(self):
        bnd = approximate(lambda t: t * t, PARAMS, 8)
        for left, right in zip(bnd.pieces, bnd.pieces[1:]):
            assert abs(left.value_end - right.value_start) <= 1e-15

    def test_piecewise_constant_min_rule(self):
        bnd = approximate(lambda t: t, PARAMS, 4, mode="piecewise_constant")
        # increasing target: knot value equals the left (smaller) constant
        for i in range(1, 4):
            assert bnd.value_at_knot(i) == bnd.pieces[i - 1].intercept

    def test_refinement_does_not_change_values(self):
        coarse = approximate(lambda t: 0.2 + 1.5 * (t - 1.0), PARAMS, 2)
        fine = approximate(lambda t: 0.2 + 1.5 * (t - 1.0), PARAMS, 16)
        for t in np.linspace(1.0, 2.0, 257):
            assert abs(coarse.evaluate(float(t)) - fine.evaluate(float(t))) \
                <= 1e-15

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            approximate(lambda t: math.inf, PARAMS, 3)

    def test_rejects_bad_mode(self):
        with pytest.raises(DomainError):
            approximate(lambda t: 1.0, PARAMS, 3, mode="spline")


class TestBoundaryFiles:
    def test_roundtrip(self):
        pieces = (AffinePiece(1.0, 1.5, 1.0, -0.6),
                  AffinePiece(1.5, 2.0, 0.7, 0.4))
        bnd = PiecewiseAffineBoundary(PARAMS, pieces)
        buf = io.StringIO()
        dump_boundary(bnd, buf)
        buf.seek(0)
        back = load_boundary(buf)
        assert back == bnd

    def test_rejects_gapped_file(self):
        data = {"q": 1.0, "d": 2.0, "pieces": [
            {"t_start": 1.0, "t_end": 1.4, "intercept": 0.0, "slope": 0.0},
            {"t_start": 1.5, "t_end": 2.0, "intercept": 0.0, "slope": 0.0}]}
        with pytest.raises(DomainError):
            load_boundary(io.StringIO(json.dumps(data)))

    def test_rejects_malformed(self):
        with pytest.raises(DomainError):
            load_boundary(io.StringIO('{"q": 1.0, "d": 2.0}'))

    def test_file_paths(self, tmp_path):
        bnd = affine_boundary(PARAMS, 0.5, 1.0)
        path = tmp_path / "boundary.json"
        dump_boundary(bnd, str(path))
        assert load_boundary(str(path)) == bnd
