"""Limit constants for the largest connected component.

Regimes are classified by the sign of lambda * E(W^2) - 1.  Subcritical:
C / log(N^2) tends to 1/(lambda - 1 - log lambda) in the homogeneous
case, and 1/log gamma in the weighted case, where gamma comes from an
exponentially tilted moment equation.  Supercritical: C / N^2 tends to
the mean survival probability of an associated multi-type branching
process, whose functional fixed point collapses to one scalar equation.

Sign convention: the survival and Borel formulas are implemented with
negative exponents (1 - e^{-lambda beta} etc.); the positive-exponent
variants have no root in (0, 1).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np
from scipy.optimize import brentq

from .errors import AssumptionError, RegimeError
from .model import WeightSpec


def subcritical_constant(lam: float) -> float:
    """Limit of C / log(N^2) in the homogeneous subcritical phase:
    1 / (lambda - 1 - log lambda), positive on (0, 1)."""
    if not 0 < lam < 1:
        raise RegimeError(f"subcritical constant needs lambda in (0,1), got {lam}")
    return 1.0 / (lam - 1.0 - math.log(lam))


def supercritical_beta(lam: float) -> float:
    """Unique positive root of beta = 1 - e^{-lambda beta} for lambda > 1."""
    if lam <= 1:
        raise RegimeError(f"survival equation has only the zero root for lambda={lam} <= 1")

    def f(b: float) -> float:
        # -expm1 keeps the sign right down to subnormal b
        return -math.expm1(-lam * b) - b

    # f > 0 just above 0 (slope lambda - 1 > 0), f(1) = -e^{-lambda} < 0
    root = brentq(f, 1e-300, 1.0, xtol=1e-16, rtol=8.9e-16)
    assert abs(f(root)) < 1e-12
    return float(root)


def critical_parameter(lam: float, w: WeightSpec) -> float:
    """Giant-component criterion lambda * E(W^2); threshold at 1."""
    ew2 = w.second_moment
    if not math.isfinite(ew2):
        raise AssumptionError("E W^2 must be finite")
    return lam * ew2


def classify_regime(lam: float, w: WeightSpec) -> str:
    crit = critical_parameter(lam, w)
    if crit < 1.0:
        return "subcritical"
    if crit > 1.0:
        return "supercritical"
    return "critical"


def weighted_beta_profile(lam: float, w: WeightSpec):
    """Solve the weighted survival fixed point via its scalar reduction.

    The profile beta(x) = 1 - e^{-lambda x b} is closed under the fixed
    point map, so the functional equation reduces to
        b = E[ W (1 - e^{-lambda W b}) ],
    whose maximal root b* is positive iff lambda E(W^2) > 1.  Returns
    (b*, beta profile as a callable, beta_hat = E beta(W)).
    """
    crit = critical_parameter(lam, w)

    def g(b: float) -> float:
        return w.expectation(lambda y: y * -np.expm1(-lam * y * b)) - b

    if crit <= 1.0:
        b_star = 0.0
    else:
        # g is concave with g'(0) = crit - 1 > 0 and g(EW) < 0
        hi = w.mean
        lo = 1e-300
        b_star = float(brentq(g, lo, hi, xtol=1e-16, rtol=8.9e-16))
        assert abs(g(b_star)) < 1e-10

    def beta_fn(x):
        return 1.0 - np.exp(-lam * np.asarray(x, dtype=float) * b_star)

    beta_hat = w.expectation(lambda y: 1.0 - np.exp(-lam * y * b_star))
    return b_star, beta_fn, float(beta_hat)


def tilt_moments(w: WeightSpec, s: float, k: int) -> float:
    """E(W^k e^{sW}) for k in {0, 1, 2}.

    The sum over the law's atoms: exact for a discrete law, quadrature
    for a density.  Every law has bounded support, so the tilt is
    finite for every s.
    """
    if k not in (0, 1, 2):
        raise ValueError("k must be 0, 1 or 2")
    val = w.expectation(lambda y: y**k * np.exp(s * y))
    if not math.isfinite(val):
        raise AssumptionError(f"tilted moment diverges at s={s}")
    return val


def theorem3_constants(lam: float, w: WeightSpec):
    """Weighted subcritical constants (y, gamma, 1/log gamma).

    Solves, for the unique y > 1,
        y = (1/(lambda M)) * E(W e^{s W}) / E(W^2 e^{s W}),  s = lambda M (y-1),
    then gamma = 1 / (lambda E(W^2 e^{s W})) > 1 and the C/log(N^2)
    limit is 1/log gamma.  With W == 1 this reduces algebraically to the
    homogeneous constant 1/(lambda - 1 - log lambda).
    """
    crit = critical_parameter(lam, w)
    if crit >= 1.0:
        raise RegimeError(f"needs lambda E W^2 < 1, got {crit}")
    if lam <= 0:
        raise RegimeError("needs lambda > 0")
    M = w.mean
    if M <= 0:
        raise AssumptionError("E W must be positive")

    def residual(y: float) -> float:
        s = lam * M * (y - 1.0)
        e1 = tilt_moments(w, s, 1)
        e2 = tilt_moments(w, s, 2)
        return e1 / (lam * M * e2) - y

    # E(W e^{sW}) / E(W^2 e^{sW}) is non-increasing in s >= 0: its reciprocal
    # is the mean of the law y e^{sy} mu(dy), whose s-derivative is a
    # variance.  So residual(1) = 1/crit - 1 > 0 and residual(1/crit) <= 0;
    # a one-atom law has its root at 1/crit itself, up to round-off
    hi = 1.0 / crit
    y = hi if residual(hi) >= 0 else float(brentq(residual, 1.0, hi, xtol=1e-15, rtol=8.9e-16))
    assert abs(residual(y)) < 1e-10
    s = lam * M * (y - 1.0)
    gamma = 1.0 / (lam * tilt_moments(w, s, 2))
    if gamma <= 1.0:
        raise RegimeError(f"gamma = {gamma} <= 1; regime assumption violated")
    return y, gamma, 1.0 / math.log(gamma)


@dataclass
class TheoryReport:
    """Every limit constant the theorems predict for one (lambda, W)."""

    lam: float
    crit: float
    regime: str
    beta: float | None = None           # homogeneous survival probability
    b_star: float | None = None         # scalar core of the weighted profile
    beta_hat: float | None = None       # mean of the weighted profile
    sub_const: float | None = None      # homogeneous 1/(lam - 1 - log lam)
    y: float | None = None
    gamma: float | None = None
    sub_const_weighted: float | None = None  # 1/log gamma
    residuals: dict | None = None

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(asdict(self), indent=indent)


def build_report(lam: float, w: WeightSpec) -> TheoryReport:
    """Evaluate all constants applicable to the regime of (lambda, W)."""
    crit = critical_parameter(lam, w)
    regime = classify_regime(lam, w)
    report = TheoryReport(lam=lam, crit=crit, regime=regime, residuals={})
    if lam <= 0:
        return report  # degenerate empty-graph model, no limit constants

    homogeneous = w.atoms.tolist() == [1.0]  # W == 1: one atom, at 1
    if regime == "supercritical":
        b_star, _, beta_hat = weighted_beta_profile(lam, w)
        report.b_star, report.beta_hat = b_star, beta_hat
        report.residuals["b_star"] = abs(
            w.expectation(lambda y: y * (1.0 - np.exp(-lam * y * b_star))) - b_star
        )
        if homogeneous and lam > 1:
            report.beta = supercritical_beta(lam)
            report.residuals["beta"] = abs(1.0 - math.exp(-lam * report.beta) - report.beta)
    elif regime == "subcritical":
        y, gamma, limit = theorem3_constants(lam, w)
        report.y, report.gamma, report.sub_const_weighted = y, gamma, limit
        s = lam * w.mean * (y - 1.0)
        report.residuals["y"] = abs(
            tilt_moments(w, s, 1) / (lam * w.mean * tilt_moments(w, s, 2)) - y
        )
        if homogeneous and 0 < lam < 1:
            report.sub_const = subcritical_constant(lam)
    return report
