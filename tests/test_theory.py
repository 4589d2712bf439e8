import collections
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusgraph import theory
from torusgraph.errors import AssumptionError, RegimeError
from torusgraph.model import WeightSpec
from torusgraph.theory import (
    _brentq,
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


class TestBrentq:
    """theory._brentq against its oracle scipy.optimize.brentq, of whose C
    loop it is a port: every root must be the same float, bit for bit."""

    LAWS = [WeightSpec.constant(), W12, WeightSpec.truncated_exponential(1.0, 8.0)]
    CRITS = [*np.linspace(0.05, 0.95, 19), *np.linspace(1.05, 8.0, 40)]  # lambda E(W^2)

    def test_package_equations_match_scipy(self, monkeypatch):
        # every call build_report makes, with theory's own equations and
        # brackets, is solved by both
        from scipy.optimize import brentq

        solved = []

        def both(f, a, b, xtol, rtol):
            root = _brentq(f, a, b, xtol, rtol)
            solved.append((f.__qualname__.split(".")[0], root.hex(), brentq(f, a, b, xtol=xtol, rtol=rtol).hex()))
            return root

        monkeypatch.setattr(theory, "_brentq", both)
        for w in self.LAWS:
            for crit in self.CRITS:
                build_report(crit / w.second_moment, w)
        assert [s for s in solved if s[1] != s[2]] == []
        # W == 1's subcritical root is its bracket end 1/crit, taken without a search
        assert collections.Counter(s[0] for s in solved) == {
            "supercritical_beta": 40, "weighted_beta_profile": 120, "theorem3_constants": 38}

    def test_seeded_smooth_functions_match_scipy(self):
        # smooth functions on random brackets, some scaled so far down that
        # the interpolation's denominator underflows to 0 and C's inf step
        # bisects; a bracket scipy refuses, the port must refuse too
        from scipy.optimize import brentq

        rng = np.random.default_rng(29)
        compared = refused = 0
        for i in range(600):
            c = rng.normal(size=4)
            scale = 10.0 ** rng.uniform(-300, 100)
            shape = i % 3
            if shape == 0:
                def f(x): return scale * (c[0] + c[1] * x + c[2] * math.sin(3 * x) + c[3] * x**3)
            elif shape == 1:
                def f(x): return scale * (math.exp(c[0] * x) - 1.5 + c[1] * x)
            else:
                def f(x): return scale * math.tanh(2 * c[0] * (x - c[1])) ** (1 + 2 * (i % 2))
            a, b = sorted(rng.uniform(-3, 3, 2))
            xtol, rtol = [(1e-16, 8.9e-16), (1e-12, 8.9e-16), (1e-6, 1e-10)][i // 3 % 3]
            try:
                expected = brentq(f, a, b, xtol=xtol, rtol=rtol)
            except (ValueError, RuntimeError):
                with pytest.raises(AssumptionError):
                    _brentq(f, a, b, xtol, rtol)
                refused += 1
                continue
            assert _brentq(f, a, b, xtol, rtol).hex() == expected.hex(), (i, a, b)
            compared += 1
        assert compared >= 250 and refused >= 100

    @pytest.mark.parametrize("a,b", [(1.0, 2.0), (0.0, 1.0)])
    def test_zero_at_an_end_is_returned(self, a, b):
        assert _brentq(lambda x: x - 1.0, a, b, 1e-12, 8.9e-16) == 1.0

    # each case scipy refuses too: a ValueError, as AssumptionError is, or
    # for no convergence a RuntimeError
    @pytest.mark.parametrize("f,a,b,xtol,match", [
        (lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, "same sign"),
        (lambda x: math.nan if x > 0.9 else x - 0.5, 0.0, 1.0, 1e-12, "NaN"),  # at an end
        (lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, 0.0, 1.0, 1e-12, "NaN"),  # at the first step, 0.5
        # a triple root at 0 and a tolerance of 1e-300 take more than 100 steps
        (lambda x: x**3, -1.0, 2.0, 1e-300, "100 iterations"),
    ], ids=["same-sign", "nan-at-end", "nan-inside", "no-convergence"])
    def test_refusals_raise_assumption_error(self, f, a, b, xtol, match):
        from scipy.optimize import brentq

        with pytest.raises((ValueError, RuntimeError)):
            brentq(f, a, b, xtol=xtol, rtol=8.9e-16)
        with pytest.raises(AssumptionError, match=match):
            _brentq(f, a, b, xtol, 8.9e-16)


class TestSubcriticalConstant:
    def test_half(self):
        assert subcritical_constant(0.5) == pytest.approx(1 / (math.log(2) - 0.5), rel=1e-12)
        assert subcritical_constant(0.5) == pytest.approx(5.177398899124181, rel=1e-12)

    def test_one_over_e(self):
        assert subcritical_constant(1 / math.e) == pytest.approx(math.e, rel=1e-12)

    def test_divergence_near_one(self):
        assert subcritical_constant(1 - 1e-8) > 1e10

    def test_full_precision_near_one(self):
        # lambda - 1 - log lambda cancels as lambda -> 1; against 50 digits
        # at each lambda's exact double value, every one keeps every digit
        import mpmath

        with mpmath.workdps(50):
            for lam in [1 - 1e-9, 1 - 1e-6, 0.999, 0.99, 0.9]:
                x = mpmath.mpf(lam)
                exact = 1 / (x - 1 - mpmath.log(x))
                assert abs(subcritical_constant(lam) / exact - 1) < 1e-15, lam

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
        b_star, beta_hat = weighted_beta_profile(lam, WeightSpec.constant(1.0))
        beta = supercritical_beta(lam)
        assert b_star == pytest.approx(beta, abs=1e-12)
        assert beta_hat == pytest.approx(beta, abs=1e-12)

    def test_zero_below_threshold(self):
        for lam in (0.1, 0.3, 0.4):  # lam E W^2 = 0.25, 0.75, 1.0
            b_star, beta_hat = weighted_beta_profile(lam, W12)
            assert b_star == 0.0 and beta_hat == 0.0

    def test_w12_lambda_one(self):
        # frozen from a 30-digit fixed-point solve of
        # b = (1 - e^-b)/2 + (1 - e^-2b)
        b_star, beta_hat = weighted_beta_profile(1.0, W12)
        assert b_star == pytest.approx(1.2851963780417547, abs=1e-10)
        assert beta_hat == pytest.approx(0.8234491238043316, abs=1e-10)

    def test_residual_and_maximality(self):
        lam = 1.0
        b_star, _ = weighted_beta_profile(lam, W12)
        g = lambda b: W12.expectation(lambda y: y * -np.expm1(-lam * y * b)) - b
        assert abs(g(b_star)) < 1e-10
        grid = np.linspace(b_star + 1e-9, W12.mean, 1000)
        assert all(g(b) < 0 for b in grid)

    def test_monotone_in_lambda(self):
        lams = np.linspace(0.45, 3.0, 30)
        bs = [weighted_beta_profile(l, W12)[0] for l in lams]
        bhs = [weighted_beta_profile(l, W12)[1] for l in lams]
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

    def test_tilt_overflowing_at_the_bracket_end(self):
        # 1/crit is about 1e12, where e^{sW} overflows, but the root sits at
        # s * w_max of about 11.5, where the tilt is finite
        w = WeightSpec.discrete([1e-6, 1.0], [0.999999999999, 1e-12])
        y, gamma, limit = theorem3_constants(0.5, w)
        assert y == pytest.approx(2.2934e7, rel=1e-4)
        assert limit == pytest.approx(0.059323, rel=1e-4)
        assert 0.5 * w.mean * (y - 1) == pytest.approx(11.5, rel=0.01)

    def test_root_past_the_overflow_gives_none(self):
        # a subnormal mass at the largest atom puts the root where e^{sW}
        # overflows: no constant is resolved, and nothing raises
        w = WeightSpec.discrete([1e-6, 1.0], [1.0, 5e-324])
        assert theorem3_constants(0.5, w) == (None, None, None)
        r = build_report(0.5, w)
        assert r.regime == "subcritical" and r.sub_const_weighted is None and r.residuals == {}


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

    def test_massless_atom_leaves_a_unit_law_homogeneous(self):
        # a value of probability 0 is never drawn: discrete([1, 100], [1, 0]) is W == 1
        w = WeightSpec.discrete([1.0, 100.0], [1.0, 0.0])
        assert build_report(2.0, w).beta == build_report(2.0, WeightSpec.constant()).beta
        assert build_report(0.5, w).sub_const == build_report(0.5, WeightSpec.constant()).sub_const

    def test_trichotomy(self):
        for lam, expect in ((0.3, "subcritical"), (0.4, "critical"), (0.6, "supercritical")):
            assert build_report(lam, W12).regime == expect
        critical = build_report(0.4, W12)  # no limit constants at the threshold
        assert critical.beta_hat is None and critical.sub_const_weighted is None
        # a wide truncated exponential: at the far nodes the quadrature
        # mass underflows to 0 while y^k e^{sy} overflows, and those atoms
        # carry no mass, so the constants stay finite and converge in upper
        wide, narrower = (build_report(0.01, WeightSpec.truncated_exponential(1.0, upper))
                          for upper in (2000.0, 800.0))
        assert wide.regime == "subcritical"
        assert wide.sub_const_weighted == pytest.approx(narrower.sub_const_weighted, abs=1e-9)

    @pytest.mark.parametrize("w", [WeightSpec.constant(), W12], ids=["constant", "discrete12"])
    def test_near_critical_subcritical_returns(self, w):
        # lambda E(W^2) = 1 - 1e-9 is subcritical; gamma may round to 1,
        # and then no weighted constant is attached, as at the threshold
        r = build_report((1 - 1e-9) / w.second_moment, w)
        assert r.regime == "subcritical"
        assert r.sub_const_weighted is None or r.sub_const_weighted > 0

    def test_json_roundtrip(self):
        r = build_report(2.0, W12)
        payload = json.loads(r.to_json())
        assert payload["regime"] == "supercritical"
        assert payload["beta_hat"] == pytest.approx(r.beta_hat)

    @pytest.mark.parametrize("lam, w, digest", [
        (2.0, WeightSpec.constant(), "6ca864f17c62840fa3f474a2c9e09df3a588de30d402393fda8a627735d1a51b"),
        (0.3, WeightSpec.truncated_exponential(1.0, 8.0),
         "ab8fb6e26ee544d0bdcd4743600b434f847ab04b9c24e544ce6a9eed36f218dc"),
        (1.0, W12, "c0460eb8e73c34ebe56a6d387b750836b8ea096870145eeea4f341747d43c3b7"),
        (0.4, W12, "d2cd967a563495d818905c245a8882c0852774fc42972e97b47d751a6cbb4ca4"),
    ], ids=["supercritical-constant", "subcritical-trunc_exp8", "supercritical-discrete12",
            "critical-discrete12"])
    def test_pinned_report_json(self, lam, w, digest):
        # the exact report text, every digit and key order of every regime
        assert hashlib.sha256(build_report(lam, w).to_json().encode()).hexdigest() == digest
