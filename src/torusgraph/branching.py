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


EXCEEDED = -1  # the size reported for a tree abandoned at its cap


def borel_tail(lambda_prime: float, k: int | np.ndarray) -> float | np.ndarray:
    """P{total progeny >= k} for offspring law Po(lambda'), lambda' < 1,
    as a float for an int k and as a float array for an int array k.

    Sums e^{-lambda' j} (lambda' j)^{j-1} / j! once, from j = K = max(k),
    in numpy chunks; terms decay like e^{-alpha j} with alpha = lambda' -
    1 - log lambda', so the truncation error is below 1e-12 at the
    stopping rule used here: the first term past j = K + 50 / alpha
    below 1e-16 of the sum so far.  Each smaller k adds its terms j = k
    .. K - 1 from one reverse cumsum, and P{T >= 1} is exactly 1.
    """
    if not 0 < lambda_prime < 1:
        raise RegimeError(f"Borel tail needs lambda' in (0,1), got {lambda_prime}")
    k = np.asarray(k)
    if k.min() < 1:
        raise ValueError("k must be >= 1")
    alpha = lambda_prime - 1.0 - math.log(lambda_prime)
    log_lp = math.log(lambda_prime)

    def terms(j):
        return np.exp(-lambda_prime * j + (j - 1) * (log_lp + np.log(j)) - gammaln(j + 1))

    k_max = int(k.max())
    j_min_extra = k_max + int(50.0 / alpha) + 1
    total, j0 = 0.0, k_max
    while True:
        # the terms the stopping rule needs at least, plus 64, and at most 2^16 at a time
        j = np.arange(j0, j0 + min(max(j_min_extra - j0, 0) + 64, 1 << 16), dtype=float)
        term = terms(j)
        run = total + np.cumsum(term)
        stop = np.flatnonzero((term < 1e-16 * run) & (j >= j_min_extra))
        if stop.size:
            break
        total, j0 = float(run[-1]), j0 + j.size
    # head[i]: the sum of the terms j = i + 1 .. k_max - 1, so head[k_max - 1] = 0
    head = np.append(np.cumsum(terms(np.arange(k_max - 1, 0, -1, dtype=float)))[::-1], 0.0)
    tail = np.where(k == 1, 1.0, np.minimum(run[stop[0]] + head[k - 1], 1.0))
    return tail if tail.ndim else float(tail)


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
    Between refills only the open tree is kept, as two integers: its
    draws so far (at most cap) and its walk's value after them, which
    is <= 0 since the walk has not yet reached 1.  Each refill draws
    about 1.3 times the expected draws of the trees still to come, but
    at most min(8192, 16 * (cap + 1)), and the walk continues from that
    value over the new draws alone.  A draw is scanned once, and once
    more for each tree abandoned before it in its refill, so the cost
    stays linear in the draws however many refills a tree outlasts.
    Returns an int64 array with EXCEEDED marking abandoned trees.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    tilde = w.size_biased
    out = np.empty(n, dtype=np.int64)
    filled = 0
    used = h = 0  # the open tree's draws before x, and its walk's value after them
    mean_size = 1.0 / max(1.0 - lam * w.second_moment, 1e-3)
    while filled < n:
        chunk = int(min((n - filled) * mean_size * 1.3 + 16, 8192, 16 * (cap + 1)))
        x = rng.poisson(lam * w.mean * tilde.sample(chunk, rng))
        while True:
            # walk: the open tree's walk h, h + cumsum(1 - x); tree j ends at the draw where it
            # first reaches j, so cuts is each tree's first draw (the open tree's at -used), x.size
            walk = (1 - np.concatenate(([1 - h], x))).cumsum()
            depth = np.maximum.accumulate(walk)
            cuts = np.concatenate(([-used], depth.searchsorted(np.arange(1, depth[-1] + 1)),
                                   [x.size]))
            sizes = cuts[1:] - cuts[:-1]  # each complete tree's draws, then the open tree's
            over = (sizes > cap).nonzero()[0]
            k = min(over[0] if over.size else sizes.size - 1, n - filled)  # trees taken whole
            out[filled:filled + k] = sizes[:k]
            filled += k
            if filled == n or not over.size:
                used, h = sizes[k], walk[-1] - k
                break
            out[filled] = EXCEEDED  # the next tree reached its (cap+1)-th draw
            filled += 1
            x = x[cuts[k] + cap + 1:]
            used = h = 0
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
                rng: np.random.Generator) -> int:
    """Total progeny of the multi-type process from type x, or EXCEEDED past cap.

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


def simulate_B2(lam: float, w: WeightSpec, cap: int, rng: np.random.Generator) -> int:
    """Total progeny of one B2 tree, or EXCEEDED: `progeny_batch` with n = 1,
    kept for bench/workloads.py, its only caller, which times it per tree."""
    return int(progeny_batch(lam, w, 1, cap, rng)[0])


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
