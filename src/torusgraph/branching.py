"""Branching-process oracles and simulators.

The multi-type process B1(x) (offspring count Po(lambda * x * EW),
child types i.i.d. size-biased W) and the homogeneous mixed-Poisson
process B2 (offspring count Po(lambda * EW * Wtilde), Wtilde size-biased)
have identical total-progeny laws when B1's root type is itself
size-biased, which is what links the weighted graph to a scalar
survival criterion.  Both read W and Wtilde from the weight law: a
`WeightSpec` is its atoms and masses, a sampler of W and a sampler of
Wtilde = `w.size_biased`, whose law y mu(dy) / EW keeps W's atoms and
is drawn exactly for every law a constructor builds.

One random walk, `progeny_batch`, draws B2's total progeny; with W == 1
it is the Poisson(lambda) Galton-Watson tree, whose Borel tail is the
analytic oracle.  `simulate_B1` stays generation by generation, as the
independent algorithm the identity is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import RegimeError
from .model import WeightSpec


class _Exceeded:
    """Sentinel: the simulated tree outgrew the abandonment cap."""

    def __repr__(self) -> str:
        return "EXCEEDED"


EXCEEDED = _Exceeded()


def borel_tail(lambda_prime: float, k: int) -> float:
    """P{total progeny >= k} for offspring law Po(lambda'), lambda' < 1.

    Sums e^{-lambda' j} (lambda' j)^{j-1} / j! from j = k; terms decay
    like e^{-alpha j} with alpha = lambda' - 1 - log lambda', so the
    truncation error is below 1e-12 at the stopping rule used here.
    """
    if not 0 < lambda_prime < 1:
        raise RegimeError(f"Borel tail needs lambda' in (0,1), got {lambda_prime}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return 1.0
    alpha = lambda_prime - 1.0 - math.log(lambda_prime)
    log_lp = math.log(lambda_prime)
    total = 0.0
    j = k
    j_min_extra = k + int(50.0 / alpha) + 1
    while True:
        log_term = -lambda_prime * j + (j - 1) * (log_lp + math.log(j)) - gammaln(j + 1)
        term = math.exp(log_term)
        total += term
        j += 1
        if term < 1e-16 * total and j > j_min_extra:
            break
    return min(total, 1.0)


def progeny_batch(lam: float, w: WeightSpec, n: int, cap: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Total progeny of n independent B2 trees: every individual has
    Po(lam * EW * Wtilde) children, with a fresh size-biased Wtilde each.
    With W == 1 this is the Poisson(lam) GW tree, drawn from the same
    Poisson stream in breadth-first order.

    Uses the random-walk representation: with i.i.d. offspring draws
    X_1, X_2, ..., tree boundaries are the successive first-passage
    times of cumsum(X - 1) through -1, -2, ...  A tree is abandoned at
    its (cap+1)-th draw and the next tree starts at the following draw;
    that draw is a stopping time, so the remaining stream stays fresh.
    The walk is scanned in windows of min(8192, 16 * (cap + 1)) draws, so
    an abandonment costs one window whatever the chunk size.
    Returns an int64 array with -1 marking abandoned (EXCEEDED) trees.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    tilde = w.size_biased
    out = np.empty(n, dtype=np.int64)
    filled = 0
    x = np.empty(0, dtype=np.int64)
    pos = 0    # first unscanned draw of x
    g = 0      # walk value before draw pos
    level = 0  # the current tree ends when the walk first drops below this
    used = 0   # draws of the current (open) tree before the scanned window
    mean_size = 1.0 / max(1.0 - lam * w.second_moment, 1e-3)
    window = min(8192, 16 * (cap + 1))
    while filled < n:
        if pos == x.size:
            chunk = int(min((n - filled) * mean_size * 1.3 + 16, 2**24))
            x = rng.poisson(lam * w.mean * tilde.sample(chunk, rng))
            pos = 0
        c = g + np.cumsum(x[pos:pos + window] - 1, dtype=np.int64)
        mins = np.minimum.accumulate(np.minimum(c, level))
        prev = np.concatenate(([level], mins[:-1]))
        prev_b = -1  # window-local index of the previous boundary
        # c.size stands for the window end, which the open tree reaches
        for b in [*np.flatnonzero(mins < prev).tolist(), c.size]:
            p = prev_b + cap + 1 - used  # window-local index of the tree's (cap+1)-th draw
            if p < b:
                out[filled] = -1
                filled += 1
                pos += p + 1
                g = level = int(c[p])
                used = 0
                break
            if b == c.size:
                used += b - 1 - prev_b
                pos += b
                g = int(c[-1])
                level = int(mins[-1])
                break
            size = used + b - prev_b
            out[filled] = size if size <= cap else -1
            filled += 1
            used = 0
            prev_b = b
            if filled == n:
                return out
    return out


@dataclass
class SizeBiasedSpec:
    """Size-biased companion of a weight distribution, as the record
    `dist`; the law itself is `WeightSpec.size_biased`.  bench/workloads.py
    is its only caller; the package reads `w.size_biased`."""

    dist: WeightSpec


def size_biased(w: WeightSpec) -> SizeBiasedSpec:
    """`w.size_biased` wrapped in a SizeBiasedSpec, which bench/workloads.py,
    its only caller, reads as `size_biased(spec).dist`."""
    return SizeBiasedSpec(w.size_biased)


def simulate_B1(x: float, lam: float, w: WeightSpec, cap: int,
                rng: np.random.Generator):
    """Total progeny of the multi-type process started from type x.

    A type-t individual begets Po(lam * t * EW) children whose types
    are i.i.d. size-biased W; that two-step draw realizes the intensity
    measure lam * t * y dmu(y) without discretizing the type space.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if x < 0:
        raise ValueError("type must be nonnegative")
    tilde = w.size_biased
    M = w.mean
    total = 1
    k = int(rng.poisson(lam * x * M))
    types = tilde.sample(k, rng)
    while types.size:
        total += types.size
        if total > cap:
            return EXCEEDED
        counts = rng.poisson(lam * M * types)
        types = tilde.sample(int(counts.sum()), rng)
    return total


def simulate_B2(lam: float, w: WeightSpec, cap: int, rng: np.random.Generator):
    """Total progeny of one B2 tree, or EXCEEDED: `progeny_batch` with
    n = 1.  Kept per tree because bench/workloads.py, its only caller,
    times it per tree."""
    size = int(progeny_batch(lam, w, 1, cap, rng)[0])
    return EXCEEDED if size < 0 else size


def binomial_poisson_tv(n: int, lam: float) -> float:
    """Exact total-variation distance between Bin(n, lam/n) and Po(lam).

    The coupling bound P(X != Y) <= lam^2 / n dominates it; asserted
    here so every call re-certifies the inequality.  scipy.stats is
    imported here, not at module level, so that only the commands that
    call this function pay for loading it.
    """
    if lam < 0 or lam > n:
        raise ValueError(f"need 0 <= lambda <= n, got lambda={lam}, n={n}")
    if lam == 0:
        return 0.0
    from scipy.stats import binom, poisson  # ~0.6 s and ~21 MB on first import
    k = np.arange(0, n + 1)
    b = binom.pmf(k, n, lam / n)
    q = poisson.pmf(k, lam)
    tv = 0.5 * (np.abs(b - q).sum() + poisson.sf(n, lam))
    assert tv <= lam * lam / n + 1e-12, (tv, lam * lam / n)
    return float(tv)
