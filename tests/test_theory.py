import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusgraph.errors import RegimeError
from torusgraph.model import WeightSpec
from torusgraph.theory import (
    build_report,
    classify_regime,
    critical_parameter,
    subcritical_constant,
    supercritical_beta,
    theorem3_constants,
    tilt_moments,
    weighted_beta_profile,
)

W12 = WeightSpec.discrete([1.0, 2.0], [0.5, 0.5])


class TestSubcriticalConstant:
    def test_half(self):
        assert subcritical_constant(0.5) == pytest.approx(1 / (math.log(2) - 0.5), rel=1e-12)
        assert subcritical_constant(0.5) == pytest.approx(5.177398899124181, rel=1e-12)

    def test_one_over_e(self):
        assert subcritical_constant(1 / math.e) == pytest.approx(math.e, rel=1e-12)

    def test_divergence_near_one(self):
        assert subcritical_constant(1 - 1e-8) > 1e10

    @pytest.mark.parametrize("lam", [0.0, 1.0, 1.5, -0.2])
    def test_regime_error(self, lam):
        with pytest.raises(RegimeError):
            subcritical_constant(lam)


class TestSupercriticalBeta:
    def test_two(self):
        b = supercritical_beta(2.0)
        assert b == pytest.approx(0.79681213002002, abs=1e-10)
        assert abs(1 - math.exp(-2 * b) - b) < 1e-12

    def test_monotone_limit(self):
        assert supercritical_beta(50.0) == pytest.approx(1.0, abs=1e-12)
        lams = np.linspace(1.01, 10, 40)
        betas = [supercritical_beta(l) for l in lams]
        assert all(a < b for a, b in zip(betas, betas[1:]))

    def test_near_critical_expansion(self):
        eps = 1e-6
        lam = 1 + eps
        assert supercritical_beta(lam) == pytest.approx(2 * (lam - 1) / lam**2, rel=0.1)

    def test_regime_error(self):
        with pytest.raises(RegimeError):
            supercritical_beta(1.0)

    def test_maximality(self):
        # no larger fixed point hides above the returned root
        for lam in (1.5, 2.0, 4.0):
            b = supercritical_beta(lam)
            grid = np.linspace(b + 1e-9, 1.0, 1000)
            resid = 1 - np.exp(-lam * grid) - grid
            assert np.all(resid < 0)

    @given(st.floats(1.0001, 50))
    @settings(max_examples=100, deadline=None)
    def test_residual_property(self, lam):
        b = supercritical_beta(lam)
        assert 0 < b <= 1  # rounds to 1.0 exactly for large lambda
        assert abs(1 - math.exp(-lam * b) - b) < 1e-10


class TestCriticalParameter:
    def test_constant_reduces_to_lambda(self):
        assert critical_parameter(2.0, WeightSpec.constant(1.0)) == 2.0

    def test_weighted(self):
        assert critical_parameter(0.5, W12) == pytest.approx(1.25)

    def test_boundary_is_critical(self):
        assert classify_regime(0.4, W12) == "critical"
        report = build_report(0.4, W12)
        assert report.crit == pytest.approx(1.0)
        assert report.beta_hat is None and report.gamma is None


class TestWeightedBetaProfile:
    @pytest.mark.parametrize("lam", [1.5, 2.0, 3.0])
    def test_reduces_to_homogeneous(self, lam):
        b_star, beta_fn, beta_hat = weighted_beta_profile(lam, WeightSpec.constant(1.0))
        beta = supercritical_beta(lam)
        assert b_star == pytest.approx(beta, abs=1e-12)
        assert beta_hat == pytest.approx(beta, abs=1e-12)
        assert beta_fn(1.0) == pytest.approx(beta, abs=1e-12)

    def test_zero_below_threshold(self):
        for lam in (0.1, 0.3, 0.4):  # lam E W^2 = 0.25, 0.75, 1.0
            b_star, _, beta_hat = weighted_beta_profile(lam, W12)
            assert b_star == 0.0 and beta_hat == 0.0

    def test_w12_lambda_one(self):
        # frozen from a 30-digit fixed-point solve of
        # b = (1 - e^-b)/2 + (1 - e^-2b)
        b_star, _, beta_hat = weighted_beta_profile(1.0, W12)
        assert b_star == pytest.approx(1.2851963780417547, abs=1e-10)
        assert beta_hat == pytest.approx(0.8234491238043316, abs=1e-10)

    def test_residual_and_maximality(self):
        lam = 1.0
        b_star, _, _ = weighted_beta_profile(lam, W12)
        g = lambda b: W12.expectation(lambda y: y * -np.expm1(-lam * y * b)) - b
        assert abs(g(b_star)) < 1e-10
        grid = np.linspace(b_star + 1e-9, W12.mean, 1000)
        assert all(g(b) < 0 for b in grid)

    def test_monotone_in_lambda(self):
        lams = np.linspace(0.45, 3.0, 30)
        bs = [weighted_beta_profile(l, W12)[0] for l in lams]
        bhs = [weighted_beta_profile(l, W12)[2] for l in lams]
        assert all(a <= b for a, b in zip(bs, bs[1:]))
        assert all(a <= b for a, b in zip(bhs, bhs[1:]))


class TestTiltMoments:
    def test_constant(self):
        w = WeightSpec.constant(1.0)
        for k in (0, 1, 2):
            assert tilt_moments(w, 0.7, k) == pytest.approx(math.exp(0.7), rel=1e-12)

    def test_untilted(self):
        assert tilt_moments(W12, 0.0, 0) == pytest.approx(1.0)
        assert tilt_moments(W12, 0.0, 1) == pytest.approx(W12.mean)
        assert tilt_moments(W12, 0.0, 2) == pytest.approx(W12.second_moment)

    def test_discrete_log2(self):
        assert tilt_moments(W12, math.log(2), 1) == pytest.approx(5.0, rel=1e-12)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            tilt_moments(W12, 0.0, 3)


class TestTheorem3:
    # W == 1 has its root y = 1/lambda at the bracket's end, where the
    # residual reads 0 or, at lambda = 0.7, +2.2e-16
    @pytest.mark.parametrize("lam", [0.2, 0.5, 0.7, 0.8])
    def test_consistency_identity(self, lam):
        y, gamma, limit = theorem3_constants(lam, WeightSpec.constant(1.0))
        assert y == pytest.approx(1 / lam, rel=1e-12)
        assert gamma == pytest.approx(math.exp(lam - 1) / lam, rel=1e-12)
        assert abs(limit - subcritical_constant(lam)) < 1e-10

    def test_weighted_point(self):
        lam = 0.3  # lam E W^2 = 0.75 < 1
        y, gamma, limit = theorem3_constants(lam, W12)
        assert y > 1 and gamma > 1
        s = lam * W12.mean * (y - 1)
        resid = tilt_moments(W12, s, 1) / (lam * W12.mean * tilt_moments(W12, s, 2)) - y
        assert abs(resid) < 1e-10
        assert limit == pytest.approx(1 / math.log(gamma))

    def test_truncated_exponential(self):
        w = WeightSpec.truncated_exponential(1.0, 8.0)
        lam = 0.3
        assert critical_parameter(lam, w) < 1
        y, gamma, limit = theorem3_constants(lam, w)
        assert y > 1 and gamma > 1 and limit > 0

    def test_regime_error(self):
        with pytest.raises(RegimeError):
            theorem3_constants(0.5, W12)  # crit = 1.25


class TestReport:
    def test_supercritical_homogeneous(self):
        r = build_report(2.0, WeightSpec.constant(1.0))
        assert r.regime == "supercritical"
        assert r.beta == pytest.approx(0.796812, abs=1e-6)
        assert r.beta_hat == pytest.approx(r.beta, abs=1e-10)
        assert r.residuals["beta"] < 1e-10

    def test_subcritical_homogeneous(self):
        r = build_report(0.5, WeightSpec.constant(1.0))
        assert r.regime == "subcritical"
        assert r.sub_const == pytest.approx(5.177399, abs=1e-5)
        assert r.sub_const_weighted == pytest.approx(r.sub_const, abs=1e-10)

    def test_unit_weight_law_of_any_kind_is_homogeneous(self):
        # W == 1 is a property of the law, not of how it was built
        one_atom = build_report(2.0, WeightSpec.discrete([1.0], [1.0]))
        assert one_atom.beta is not None
        assert one_atom.beta == build_report(2.0, WeightSpec.constant(1.0)).beta
        assert build_report(0.5, WeightSpec.discrete([1.0], [1.0])).sub_const is not None

    def test_trichotomy(self):
        for lam, expect in ((0.3, "subcritical"), (0.4, "critical"), (0.6, "supercritical")):
            assert build_report(lam, W12).regime == expect
        # a wide truncated exponential: at the far nodes the quadrature
        # mass underflows to 0 while y^k e^{sy} overflows, and those atoms
        # carry no mass, so the constants stay finite and converge in upper
        wide, narrower = (build_report(0.01, WeightSpec.truncated_exponential(1.0, upper))
                          for upper in (2000.0, 800.0))
        assert wide.regime == "subcritical"
        assert wide.sub_const_weighted == pytest.approx(narrower.sub_const_weighted, abs=1e-9)

    def test_json_roundtrip(self):
        r = build_report(2.0, W12)
        payload = json.loads(r.to_json())
        assert payload["regime"] == "supercritical"
        assert payload["beta_hat"] == pytest.approx(r.beta_hat)
