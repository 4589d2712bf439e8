import hashlib
import json
import math
import time

import numpy as np
import pytest
from scipy.special import gammaln

from torusgraph.branching import (
    EXCEEDED,
    binomial_poisson_tv,
    borel_tail,
    progeny_batch,
    simulate_B1,
    size_biased,
)
from torusgraph.errors import ParameterError, RegimeError
from torusgraph.harness import borel_check, identity_check
from torusgraph.model import WeightSpec
from torusgraph.theory import supercritical_beta

W1 = WeightSpec.constant()
W12 = WeightSpec.discrete([1.0, 2.0], [0.5, 0.5])


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


class TestBorelTail:
    def test_k1_is_one(self):
        assert borel_tail(0.5, 1) == 1.0

    def test_k2_complement_of_leaf(self):
        # P{progeny >= 2} = 1 - P{root has no children}
        for lp in (0.1, 0.5, 0.9):
            assert borel_tail(lp, 2) == pytest.approx(1 - math.exp(-lp), rel=1e-12)

    def test_k3(self):
        # subtract the explicit j=1,2 terms from 1
        lp = 0.4
        p1 = math.exp(-lp)
        p2 = math.exp(-2 * lp) * 2 * lp / 2
        assert borel_tail(lp, 3) == pytest.approx(1 - p1 - p2, rel=1e-10)
        # and deep in the tail, where 1 - P{progeny < k} is still well
        # conditioned (0.027 down to 0.0065)
        lp = 0.8
        pmf = [math.exp(-lp * j + (j - 1) * math.log(lp * j) - math.lgamma(j + 1))
               for j in range(1, 60)]
        for k in (30, 45, 60):
            assert borel_tail(lp, k) == pytest.approx(1 - math.fsum(pmf[:k - 1]), rel=1e-10)

    @pytest.mark.parametrize("lp", [0.1, 0.5, 0.9, 0.99])
    def test_matches_term_by_term_sum(self, lp):
        # the same terms and stopping rule, one Python term at a time
        def loop(k):
            alpha = lp - 1.0 - math.log(lp)
            total, j = 0.0, k
            while True:
                term = math.exp(-lp * j + (j - 1) * (math.log(lp) + math.log(j)) - gammaln(j + 1))
                total += term
                j += 1
                if term < 1e-16 * total and j > k + int(50.0 / alpha) + 1:
                    return min(total, 1.0)

        ks = (2, 5, 20) if lp < 0.99 else (5,)
        expected = [loop(k) for k in ks]  # about 1.4 s a call at lambda' = 0.99, so once per k
        for k, want in zip(ks, expected):
            assert borel_tail(lp, k) == pytest.approx(want, rel=1e-10)
        # the array form: one sum from max(k), and each smaller k's head terms added
        assert borel_tail(lp, np.array(ks)) == pytest.approx(expected, rel=1e-10)

    def test_near_critical_is_fast(self):
        # about 10^6 terms at lambda' = 0.99, summed in numpy chunks
        t0 = time.perf_counter()
        borel_tail(0.99, 5)
        assert time.perf_counter() - t0 < 0.5
        # every k <= 20 from one sum, not 20 overlapping ones
        t0 = time.perf_counter()
        borel_tail(0.99, np.arange(1, 21))
        assert time.perf_counter() - t0 < 0.5

    @pytest.mark.parametrize("lp", [0.5, 0.99, 0.9995])
    def test_matches_mpmath(self, lp):
        # 1 - sum_{j<k} P{T = j} at 40 digits, for k <= 20; a sum of the
        # tail itself would take about 100 / (1 - lambda')^2 terms, 4e8 at
        # lambda' = 0.9995
        import mpmath

        with mpmath.workdps(40):
            x = mpmath.mpf(lp)
            pmf = [mpmath.exp(-x * j) * (x * j) ** (j - 1) / mpmath.factorial(j) for j in range(1, 20)]
            exact = [float(1 - mpmath.fsum(pmf[:k - 1])) for k in range(1, 21)]
        ks = np.arange(1, 21)
        assert borel_tail(lp, ks) == pytest.approx(exact, rel=1e-10)
        t0 = time.perf_counter()
        scalar = [borel_tail(lp, int(k)) for k in ks]
        if lp == 0.9995:
            assert time.perf_counter() - t0 < 0.5
        assert scalar == pytest.approx(exact, rel=1e-10)

    def test_monotone_in_k(self):
        vals = [borel_tail(0.7, k) for k in range(1, 40)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("lp", [0.0, 1.0, 1.5, -0.1])
    def test_regime_error(self, lp):
        with pytest.raises(RegimeError):
            borel_tail(lp, 5)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            borel_tail(0.5, 0)


class TestProgenyBatch:
    def test_zero_intensity(self):
        assert progeny_batch(0.0, W1, 3, 10, rng_for(0)).tolist() == [1, 1, 1]

    def test_bad_cap(self):
        with pytest.raises(ValueError):
            progeny_batch(0.5, W1, 1, 0, rng_for(0))

    def test_matches_borel(self):
        lp = 0.7
        n = 100_000
        sizes = progeny_batch(lp, W1, n, 1_000_000, rng_for(11))
        assert sizes.shape == (n,)
        assert np.all(sizes >= 1)  # no tree can exceed this cap at lp<1 in practice
        for k in (2, 3, 8, 20):
            frac = (sizes >= k).mean()
            target = borel_tail(lp, k)
            se = math.sqrt(target * (1 - target) / n)
            assert abs(frac - target) < 4.5 * se + 1e-9

    def test_exceeded_marked(self):
        sizes = progeny_batch(0.9, W1, 20_000, 5, rng_for(2))
        exceeded = (sizes == -1).mean()
        target = borel_tail(0.9, 6)
        se = math.sqrt(target * (1 - target) / 20_000)
        assert abs(exceeded - target) < 4 * se

    def test_supercritical_abandons_at_cap(self):
        # a tree that never ends is abandoned after cap + 1 draws, so the
        # cost is linear in n; conditioned on extinction, a Po(lp) tree is
        # a Po(lp * q) tree with q = 1 - beta
        lp, n, cap = 1.5, 2000, 1000
        t0 = time.perf_counter()
        sizes = progeny_batch(lp, W1, n, cap, rng_for(13))
        assert time.perf_counter() - t0 < 2.0
        beta = supercritical_beta(lp)
        exceeded = sizes == -1
        se = math.sqrt(beta * (1 - beta) / n)
        assert abs(exceeded.mean() - beta) < 4 * se
        finite = sizes[~exceeded]
        for k in (2, 3, 8):
            frac = (finite >= k).mean()
            target = borel_tail(lp * (1 - beta), k)
            se = math.sqrt(target * (1 - target) / finite.size)
            assert abs(frac - target) < 4.5 * se + 1e-9

    @pytest.mark.parametrize("w", [W12, WeightSpec.truncated_exponential(1.0, 6.0)],
                             ids=["discrete12", "trunc_exp6"])
    def test_weighted_walk_exact_oracle(self, w):
        # exact B2 laws: a leaf needs zero children, P(T=1) = E e^{-s Wt}
        # with s = lam EW; T = 2 means one child, then a leaf, so
        # P(T=2) = E[s Wt e^{-s Wt}] P(T=1); and E T = 1 / (1 - lam EW^2)
        lam, n = 0.3, 200_000
        sizes = progeny_batch(lam, w, n, 1_000_000, rng_for(31))
        assert np.all(sizes >= 1)
        tilde = w.size_biased
        s = lam * w.mean
        p1 = tilde.expectation(lambda y: np.exp(-s * y))
        p2 = tilde.expectation(lambda y: s * y * np.exp(-s * y)) * p1
        m = lam * w.second_moment
        # offspring variance m + s^2 Var(Wt); progeny variance sigma^2 / (1 - m)^3
        sigma2 = m + lam * lam * (w.mean * w.moment(3) - w.second_moment ** 2)
        for est, target, se in (
            ((sizes == 1).mean(), p1, math.sqrt(p1 * (1 - p1) / n)),
            ((sizes == 2).mean(), p2, math.sqrt(p2 * (1 - p2) / n)),
            (sizes.mean(), 1 / (1 - m), math.sqrt(sigma2 / (1 - m) ** 3 / n)),
        ):
            assert abs(est - target) < 4.5 * se, (est, target, (est - target) / se)


# the four W~ samplers the walk reads: W == 1, two atoms, and the two
# truncated-exponential proposals (Gamma for upper 6, pair sum for 1.5)
PIN_LAWS = {"constant": W1, "discrete12": W12, "trunc_exp6": WeightSpec.truncated_exponential(1.0, 6.0),
            "trunc_exp1.5": WeightSpec.truncated_exponential(1.0, 1.5)}


def _state(rng) -> bytes:
    return json.dumps(rng.bit_generator.state, sort_keys=True, default=lambda a: a.tolist()).encode()


def _pin_digest(w, calls, rng):
    """sha256 over each call's output and the generator state after it."""
    h = hashlib.sha256()
    for m, n, cap in calls:
        out = progeny_batch(m / w.second_moment, w, n, cap, rng)
        assert out.dtype == np.int64 and out.shape == (n,)
        h.update(out.tobytes())
        h.update(_state(rng))
    return h.hexdigest()


class TestProgenyPinned:
    # every output of the walk and the generator state after each call,
    # so a rewrite of the walk must keep each stream bit-identical;
    # m = lambda E W^2, supercritical only where the cap bounds the work
    GRID = [(m, n, cap) for m in (0.0, 0.5, 0.95, 1.5) for n in (0, 1, 7, 3000)
            for cap in (1, 2, 50, 10**6) if m < 1 or cap <= 50]

    @pytest.mark.parametrize("law, digest", [
        ("constant", "d556866df9beb4f66aedf120593769b13f66095408492a9eedbde51429d4f6fe"),
        ("discrete12", "c2994ea6109a6bcab0bf4df09d22c1ac9657cf1780ef81936a7e27b08fbd2f44"),
        ("trunc_exp6", "a584493edbeba5e516b9a88ecba3495b212c44dd13ceb09ea7d7ccd1af943948"),
        ("trunc_exp1.5", "16a615052f7f0aed65ebcfd9ae6dbc497e3a1f5bac2847e22cd7e49b3715e202"),
    ])
    def test_grid(self, law, digest):
        assert _pin_digest(PIN_LAWS[law], self.GRID, rng_for(41)) == digest

    @pytest.mark.parametrize("law, digest", [
        ("constant", "6bee08aae16460ab72b9011974e6a6a82a7ba027f8e3b201e708c118be247c22"),
        ("discrete12", "47a9fea8e77d101c4d2b3e761bce1647009c949af3f0975d9c007f2680ce17a4"),
        ("trunc_exp6", "ca35669680a662cf4b09c12dc358538b82000fb9d05af6635c38c23e0e2754b7"),
        ("trunc_exp1.5", "b47c340bc80581296802d3358ec8692088b2c6ce43bbde779505ec58a07723e4"),
    ])
    def test_successive_single_trees(self, law, digest):
        # one tree per call on one generator, as simulate_B2 draws them
        assert _pin_digest(PIN_LAWS[law], [(0.5, 1, 10**6)] * 2000, rng_for(43)) == digest

    def test_empty_draws_nothing(self):
        rng = rng_for(5)
        before = _state(rng)
        assert progeny_batch(0.5, W12, 0, 10, rng).shape == (0,)
        assert _state(rng) == before


class TestSizeBiased:
    def test_constant_fixed_point(self):
        w = WeightSpec.constant(2.0)
        assert w.size_biased is w and w.size_biased.mean == 2.0

    def test_two_point(self):
        sb = W12.size_biased
        assert sb.masses == pytest.approx([1 / 3, 2 / 3])
        assert sb.mean == pytest.approx(5 / 3)  # E W^2 / E W

    def test_mean_identity(self):
        # E Wtilde = E W^2 / E W for every kind
        for w in (W12, WeightSpec.truncated_exponential(1.0, 6.0)):
            assert w.size_biased.mean == pytest.approx(w.second_moment / w.mean, rel=1e-6)

    def test_sampling_law(self):
        draws = W12.size_biased.sample(50_000, rng_for(4))
        frac2 = (draws == 2.0).mean()
        assert abs(frac2 - 2 / 3) < 4 * math.sqrt((2 / 3) * (1 / 3) / 50_000)

    def test_cached(self):
        assert W12.size_biased is W12.size_biased
        # the wrapper the benchmark reads
        assert size_biased(W12).dist is W12.size_biased

    def test_zero_mean_rejected(self):
        with pytest.raises(ValueError):
            WeightSpec.constant(0.0).size_biased


class TestTwoProcessIdentity:
    def test_b1_type_zero_is_leaf(self):
        assert simulate_B1(0.0, 1.0, W12, 100, rng_for(0)) == 1

    @pytest.mark.parametrize("w, x, seed", [
        (W12, 0.5, 71), (W12, 2.0, 72),
        (WeightSpec.truncated_exponential(1.0, 6.0), 0.5, 73),
        (WeightSpec.truncated_exponential(1.0, 6.0), 2.0, 74),
    ], ids=["discrete12-x0.5", "discrete12-x2", "trunc_exp6-x0.5", "trunc_exp6-x2"])
    def test_b1_fixed_root_law(self, w, x, seed):
        # B1 from a fixed root type x, which identity_check never roots at:
        # the root has Po(mu) children, mu = lam x EW, and each child's
        # subtree is a B2 tree, of mean 1 / (1 - m) and variance
        # sigma^2 / (1 - m)^3 with m = lam E W^2 (as in the walk's oracle)
        lam, n = 0.3, 20_000
        rng = rng_for(seed)
        mu, m = lam * x * w.mean, lam * w.second_moment
        sigma2 = m + lam * lam * (w.mean * w.expectation(lambda y: y ** 3) - w.second_moment ** 2)
        sub_mean = 1 / (1 - m)
        sub_sq = sigma2 / (1 - m) ** 3 + sub_mean ** 2
        sizes = [simulate_B1(x, lam, w, 1_000_000, rng) for _ in range(n)]
        assert all(type(t) is int and t >= 1 for t in sizes)
        sizes = np.array(sizes)
        p1 = math.exp(-mu)
        for est, target, se in (
            ((sizes == 1).mean(), p1, math.sqrt(p1 * (1 - p1) / n)),
            (sizes.mean(), 1 + mu * sub_mean, math.sqrt(mu * sub_sq / n)),
        ):
            assert abs(est - target) < 4 * se, (est, target, (est - target) / se)
        # past cap = 2 a tree is EXCEEDED: P(T = 2) is one child, a leaf,
        # with probability mu e^{-mu} E exp(-lam EW Wt)
        p2 = mu * p1 * w.size_biased.expectation(lambda y: np.exp(-lam * w.mean * y))
        capped = np.array([simulate_B1(x, lam, w, 2, rng) for _ in range(n)])
        assert set(np.unique(capped).tolist()) <= {1, 2, EXCEEDED}
        for size, target in ((1, p1), (2, p2), (EXCEEDED, 1 - p1 - p2)):
            frac = (capped == size).mean()
            assert abs(frac - target) < 4 * math.sqrt(target * (1 - target) / n), (size, frac, target)

    def test_b1_homogeneous_reduces_to_gw(self):
        # W == 1: both processes are plain Poisson(lam) GW trees
        lam = 0.6
        w = WeightSpec.constant(1.0)
        rng = rng_for(9)
        n = 20_000
        b1 = np.array([simulate_B1(1.0, lam, w, 10_000, rng) for _ in range(n)])
        for k in (2, 5):
            frac = (b1.astype(np.int64) >= k).mean()
            target = borel_tail(lam, k)
            se = math.sqrt(target * (1 - target) / n)
            assert abs(frac - target) < 4 * se

    def test_b2_offspring_mean(self):
        # offspring count per individual has mean lam * E W^2
        lam = 0.3
        rng = rng_for(13)
        tilde = W12.size_biased
        counts = rng.poisson(lam * W12.mean * tilde.sample(200_000, rng))
        assert counts.mean() == pytest.approx(lam * W12.second_moment, abs=0.01)

    @pytest.mark.parametrize("lam,w", [(0.35, W12),
                                       (0.5, WeightSpec.discrete([0.5, 1.5], [0.4, 0.6]))])
    def test_progeny_laws_agree(self, lam, w):
        # B1 rooted at a size-biased type and B2 have the same total
        # progeny law; compare the two samples with a KS test
        assert identity_check(lam, w, 15_000, 50_000, rng_for(21))[1] > 1e-4

    def test_cap_exceeded(self):
        out = progeny_batch(3.0, W12, 1, 50, rng_for(1))[0]
        assert out == -1 or 1 <= out <= 50

    def test_b1_abandoned_tree_is_exceeded(self):
        # lam E W^2 = 7.5: the tree passes cap; its size is the plain int EXCEEDED
        assert simulate_B1(1.0, 3.0, W12, 50, rng_for(0)) == EXCEEDED == -1

    def test_identity_check_counts_abandoned_trees(self):
        # about a quarter of the trees pass cap = 5 on both sides, and each counts as 6
        assert (progeny_batch(0.35, W12, 20_000, 5, rng_for(1)) == EXCEEDED).mean() > 0.2
        assert identity_check(0.35, W12, 20_000, 5, rng_for(21))[1] > 1e-4

    def test_borel_check_counts_abandoned_trees(self):
        # about 5% of the trees pass cap = 5; each counts as 6, so it reaches every k <= 6
        rows = borel_check(0.5, 20_000, 6, 5, rng_for(5))
        assert [k for k, *_ in rows] == list(range(1, 7))
        assert all(abs(z) < 4 for *_, z in rows)

    def test_borel_check_refuses_kmax_above_cap_plus_one(self):
        rng = rng_for(5)
        before = _state(rng)
        with pytest.raises(ParameterError, match="kmax must be <= cap \\+ 1"):
            borel_check(0.5, 100, 7, 5, rng)
        assert _state(rng) == before  # refused before the first draw


class TestChecksRefuseBeforeDrawing:
    # each check refuses bad input with a typed error before its first
    # draw, so a refused call leaves the generator where it was (kmax
    # above cap + 1: TestTwoProcessIdentity)
    @pytest.mark.parametrize("lambda_prime, n, error, match", [
        pytest.param(0.0, 200, RegimeError, "lambda' in \\(0,1\\)", id="lambda-prime-0"),
        pytest.param(1.0, 200, RegimeError, "lambda' in \\(0,1\\)", id="lambda-prime-1"),
        pytest.param(1.5, 200, RegimeError, "lambda' in \\(0,1\\)", id="lambda-prime-1.5"),
        pytest.param(0.5, 0, ParameterError, "n, kmax and cap must be >= 1", id="n-0"),
    ])
    def test_borel_check(self, lambda_prime, n, error, match):
        rng = rng_for(5)
        before = _state(rng)
        with pytest.raises(error, match=match):
            borel_check(lambda_prime, n, 20, 10**5, rng)
        assert _state(rng) == before

    @pytest.mark.parametrize("lam, w, n, error, match", [
        # lambda E W^2 = 1.5 and 0.4 * 2.5 = 1: a tree may never end
        pytest.param(1.5, W1, 200, ParameterError, "lambda \\* E\\(W\\^2\\) < 1", id="constant-supercritical"),
        pytest.param(0.4, W12, 200, ParameterError, "lambda \\* E\\(W\\^2\\) < 1", id="discrete12-critical"),
        pytest.param(0.3, WeightSpec.constant(0.0), 200, ValueError, "E W > 0", id="zero-mean"),
        pytest.param(0.3, W1, 0, ParameterError, "n and cap must be >= 1", id="n-0"),
    ])
    def test_identity_check(self, lam, w, n, error, match):
        rng = rng_for(5)
        before = _state(rng)
        with pytest.raises(error, match=match):
            identity_check(lam, w, n, 10**5, rng)
        assert _state(rng) == before


class TestBinomialPoissonTV:
    def test_n1(self):
        # Bin(1,1) is a point mass at 1; TV to Po(1) works out to 1 - 1/e
        assert binomial_poisson_tv(1, 1.0) == pytest.approx(1 - 1 / math.e, rel=1e-12)

    def test_zero_lambda(self):
        assert binomial_poisson_tv(100, 0.0) == 0.0

    def test_decay(self):
        assert binomial_poisson_tv(10_000, 1.0) <= 1e-4
        tvs = [binomial_poisson_tv(n, 1.0) for n in (10, 100, 1000)]
        assert tvs[0] > tvs[1] > tvs[2]

    def test_bound_certified(self):
        for n, lam in ((10, 0.5), (50, 2.0), (200, 5.0)):
            assert binomial_poisson_tv(n, lam) <= lam * lam / n + 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            binomial_poisson_tv(2, 3.0)
        with pytest.raises(ValueError):
            binomial_poisson_tv(10, -0.5)
