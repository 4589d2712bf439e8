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

from .errors import AssumptionError, ParameterError, RegimeError
from .model import WeightSpec


def _brentq(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """A root of f in [a, b] by Brent's method (Brent 1973, ch. 4), step
    for step as scipy.optimize.brentq, whose C loop it ports with the same
    comparisons and float operations in the same order, so that the root
    is the same float.  An end where f is 0 is returned; ends of one sign,
    a NaN value of f and no convergence in 100 iterations raise
    AssumptionError.  Ported so that the constants load no scipy."""

    def fx(x: float) -> float:
        v = float(f(x))
        if math.isnan(v):
            raise AssumptionError(f"root finder: f is NaN at x={x!r}")
        return v

    xpre, xcur = float(a), float(b)
    fpre, fcur = fx(xpre), fx(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise AssumptionError(f"root finder: f({a!r}) and f({b!r}) have the same sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # make xcur the best of the three points
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C gets an inf or NaN step, which fails the test below
                stry = math.inf
            # min() differs from C's MIN only on equal arguments, where the test is the same
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # a short step: take it
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fx(xcur)
    raise AssumptionError(f"root finder: no convergence in 100 iterations in [{a!r}, {b!r}]")


def subcritical_constant(lam: float) -> float:
    """Limit of C / log(N^2) in the homogeneous subcritical phase:
    1 / (lambda - 1 - log lambda), positive on (0, 1).  Near 1 that
    difference cancels, so for d = 1 - lambda <= 0.1 it is summed as
    d^2 (1/2 + d/3 + d^2/4 + ...), 30 terms by Horner's rule."""
    if not 0 < lam < 1:
        raise RegimeError(f"subcritical constant needs lambda in (0,1), got {lam}")
    d = 1.0 - lam  # exact for lambda >= 1/2
    if d > 0.1:
        return 1.0 / (lam - 1.0 - math.log(lam))
    s = 0.0
    for k in range(31, 1, -1):
        s = s * d + 1.0 / k
    return 1.0 / (d * d * s)


def supercritical_beta(lam: float) -> float:
    """Unique positive root of beta = 1 - e^{-lambda beta} for lambda > 1."""
    if lam <= 1:
        raise RegimeError(f"survival equation has only the zero root for lambda={lam} <= 1")

    def f(b: float) -> float:
        # -expm1 keeps the sign right down to subnormal b
        return -math.expm1(-lam * b) - b

    # f > 0 just above 0 (slope lambda - 1 > 0), f(1) = -e^{-lambda} < 0
    root = _brentq(f, 1e-300, 1.0, xtol=1e-16, rtol=8.9e-16)
    assert abs(f(root)) < 1e-12
    return float(root)


def critical_parameter(lam: float, w: WeightSpec) -> float:
    """Giant-component criterion lambda * E(W^2); threshold at 1."""
    crit = lam * w.second_moment
    if not (lam >= 0 and math.isfinite(crit)):
        raise ParameterError(f"need lambda >= 0 and lambda * E W^2 finite, got {lam} * {w.second_moment:g}")
    return crit


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
    (b*, beta_hat = E beta(W)).
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
        b_star = float(_brentq(g, lo, hi, xtol=1e-16, rtol=8.9e-16))
        assert abs(g(b_star)) < 1e-10

    beta_hat = w.expectation(lambda y: 1.0 - np.exp(-lam * y * b_star))
    return b_star, float(beta_hat)


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
    homogeneous constant 1/(lambda - 1 - log lambda).  Within about 1e-8
    of the threshold gamma may round to 1; the limit is then None, as no
    finite constant is resolved.  Where the root lies past the y at which
    the tilt overflows, all three are None.
    """
    crit = critical_parameter(lam, w)
    if crit >= 1.0:
        raise RegimeError(f"needs lambda E W^2 < 1, got {crit}")
    if lam <= 0:
        raise RegimeError("needs lambda > 0")
    M = w.mean
    if M <= 0:
        raise AssumptionError("size biasing needs E W > 0")

    def residual(y: float) -> float:
        s = lam * M * (y - 1.0)
        e1 = tilt_moments(w, s, 1)
        e2 = tilt_moments(w, s, 2)
        return e1 / (lam * M * e2) - y

    # E(W e^{sW}) / E(W^2 e^{sW}) is non-increasing in s >= 0: its reciprocal
    # is the mean of the law y e^{sy} mu(dy), whose s-derivative is a
    # variance.  So residual(1) = 1/crit - 1 > 0 and residual(1/crit) <= 0;
    # a one-atom law has its root at 1/crit itself, up to round-off.  The
    # tilt grows with y and may overflow at 1/crit though it is finite at
    # the root, so hi - 1 is halved until E(W^2 e^{sW}) is finite there;
    # then so is E(W e^{sW}), as y e^{sy} <= max(y^2 e^{sy}, e^{sy})
    hi = 1.0 / crit
    with np.errstate(over="ignore"):
        while not math.isfinite(w.expectation(lambda x: x**2 * np.exp(lam * M * (hi - 1.0) * x))):
            hi = 1.0 + (hi - 1.0) / 2
    r_hi = residual(hi)
    if r_hi >= 0 and hi < 1.0 / crit:
        return None, None, None  # the root lies where the tilt overflows
    y = hi if r_hi >= 0 else float(_brentq(residual, 1.0, hi, xtol=1e-15, rtol=8.9e-16))
    assert abs(residual(y)) < 1e-10 * y
    s = lam * M * (y - 1.0)
    gamma = 1.0 / (lam * tilt_moments(w, s, 2))
    return y, gamma, (1.0 / math.log(gamma) if gamma > 1.0 else None)


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

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def build_report(lam: float, w: WeightSpec) -> TheoryReport:
    """Evaluate all constants applicable to the regime of (lambda, W)."""
    crit = critical_parameter(lam, w)
    regime = classify_regime(lam, w)
    report = TheoryReport(lam=lam, crit=crit, regime=regime, residuals={})
    if lam * w.mean <= 0:
        return report  # degenerate empty-graph model (lambda = 0 or W == 0), no limit constants

    homogeneous = w.atoms.tolist() == [1.0]  # W == 1
    if regime == "supercritical":
        b_star, beta_hat = weighted_beta_profile(lam, w)
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
        if y is not None:
            s = lam * w.mean * (y - 1.0)
            report.residuals["y"] = abs(
                tilt_moments(w, s, 1) / (lam * w.mean * tilt_moments(w, s, 2)) - y
            )
        if homogeneous and 0 < lam < 1:
            report.sub_const = subcritical_constant(lam)
    return report
