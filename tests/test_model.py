import hashlib
import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from torusgraph.components import largest_component
from torusgraph.errors import ParameterError
from torusgraph.geometry import TorusConfig, kernel, ring_sizes, torus_distance
from torusgraph.model import (
    LAYERS_PER_OCTAVE,
    MAX_LAYER,
    Graph,
    ModelConfig,
    WeightSpec,
    c_of_lambda,
    edge_probability,
    lambda_N,
    lambda_of_c,
    mean_degree,
    ring_scale,
    sample_graph,
    sample_graph_reference,
    slot_table,
    _weight_layers,
)

# a few heavy vertices: graphs at lambda E(W^2) = 0.3 take the full view
HEAVY = WeightSpec.discrete([1.0, 8.0, 64.0], [0.9, 0.09, 0.01])


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


class TestWeightSpec:
    def test_constant(self):
        w = WeightSpec.constant(2.0)
        assert w.mean == 2.0 and w.second_moment == 4.0 and w.support_bound == 2.0
        assert list(w.sample(5, rng_for(0))) == [2.0] * 5

    def test_discrete_moments(self):
        w = WeightSpec.discrete([1.0, 2.0], [0.5, 0.5])
        assert w.mean == 1.5
        assert w.second_moment == 2.5
        assert w.support_bound == 2.0

    def test_discrete_validation(self):
        with pytest.raises(ParameterError):
            WeightSpec.discrete([1.0, 2.0], [0.5, 0.6])
        with pytest.raises(ParameterError):
            WeightSpec.discrete([-1.0, 2.0], [0.5, 0.5])

    def test_massless_atom_bounds_no_weight(self):
        # a value of probability 0 is never drawn, so neither E W^2 nor the
        # support bound reads it; the JSON form keeps the lists as given
        w = WeightSpec.discrete([1.0, 1e200], [1.0, 0.0])
        assert (w.mean, w.second_moment, w.support_bound) == (1.0, 1.0, 1.0)
        assert w.to_dict() == {"kind": "discrete", "values": [1.0, 1e200], "probs": [1.0, 0.0]}
        assert w.sample(5, rng_for(0)).tolist() == [1.0] * 5

    def test_massless_atom_is_no_atom(self):
        # a law is its atoms of positive mass, so one padded with a massless
        # value is a one-atom law and its own size-biased law
        w = WeightSpec.discrete([1.0, 100.0], [1.0, 0.0])
        assert w.atoms.tolist() == [1.0] and w.masses.tolist() == [1.0]
        assert w.size_biased is w

    def test_discrete_lln(self):
        w = WeightSpec.discrete([1.0, 2.0], [0.5, 0.5])
        x = w.sample(10**5, rng_for(1))
        # 3 sigma CLT band: sd = 0.5 / sqrt(1e5)
        assert abs(x.mean() - 1.5) < 0.02

    def test_empty_draw(self):
        w = WeightSpec.discrete([1.0, 2.0], [0.5, 0.5])
        assert w.sample(0, rng_for(0)).size == 0

    def test_truncated_exponential(self):
        w = WeightSpec.truncated_exponential(rate=1.0, upper=8.0)
        # moments of Exp(1) restricted to [0, 8]
        Z = 1 - math.exp(-8)
        mean = (1 - 9 * math.exp(-8)) / Z
        assert w.mean == pytest.approx(mean, rel=1e-10)
        x = w.sample(10**5, rng_for(2))
        assert np.all((0 <= x) & (x <= 8))
        assert abs(x.mean() - mean) < 0.02

    def test_truncated_exponential_small_rate(self):
        # rate * upper = 1e-9, where 1 - e^{-rate upper} would cancel:
        # almost the uniform law on [0, 1]
        w = WeightSpec.truncated_exponential(rate=1e-9, upper=1.0)
        assert w.mean == pytest.approx(0.5, abs=1e-8)
        x = w.sample(10**5, rng_for(2))
        assert np.all((0 <= x) & (x <= 1))

    def test_continuous_requires_normalized_density(self):
        # the nodes cannot integrate a density this narrow against its
        # support: the quadrature total is about 0.0028
        with pytest.raises(ValueError, match="does not integrate to 1"):
            WeightSpec.truncated_exponential(1.0, 1e6)

    @pytest.mark.parametrize("w", [
        WeightSpec.constant(2.0),
        WeightSpec.discrete([0.0, 1.0, 2.0, 5.0], [0.1, 0.4, 0.3, 0.2]),
        WeightSpec.truncated_exponential(1.0, 8.0),
    ], ids=["constant2", "discrete4", "trunc_exp8"])
    def test_size_biased_reweights_own_atoms(self, w):
        # W's atom at 0 has size-biased mass 0, so the size-biased law lists it not
        tilde = w.size_biased
        live = w.atoms * w.masses > 0
        assert tilde.atoms.tolist() == w.atoms[live].tolist()
        np.testing.assert_allclose(tilde.masses, w.atoms[live] * w.masses[live] / w.mean, rtol=0, atol=1e-15)
        assert tilde.mean == pytest.approx(w.second_moment / w.mean, rel=1e-12)

    def test_size_biased_twice(self):
        # a size-biased law has no size-biased law, whether its atoms are a
        # discrete law's values or a truncated exponential's quadrature nodes
        with pytest.raises(ValueError, match="no size-biased law"):
            WeightSpec.discrete([1.0, 2.0], [0.5, 0.5]).size_biased.size_biased
        with pytest.raises(ValueError, match="no size-biased law"):
            WeightSpec.truncated_exponential(1.0, 6.0).size_biased.size_biased

    @pytest.mark.parametrize("rate", [1.0, 2.0, 0.25])
    def test_size_biased_truncated_exponential_exact(self, rate):
        # density y e^{-rate y} on [0, u], drawn without any grid; rate
        # 0.25 (rate * u < 2) takes the pair-sum proposal
        from scipy.stats import kstest

        u = 6.0

        def cdf(y):
            return (1 - (1 + rate * y) * np.exp(-rate * y)) / (1 - (1 + rate * u) * math.exp(-rate * u))

        draws = WeightSpec.truncated_exponential(rate, u).size_biased.sample(200_000, rng_for(17))
        assert draws.max() <= u
        assert kstest(draws, cdf).pvalue > 0.01

    @pytest.mark.parametrize("w, draws, tilde_draws, tilde_mean", [
        (WeightSpec.constant(2.0), [2.0] * 4, [2.0] * 4, 2.0),
        (WeightSpec.discrete([1.0, 2.0], [0.5, 0.5]), [1.0, 1.0, 1.0, 2.0], [2.0] * 4,
         1.6666666666666665),
        (WeightSpec.truncated_exponential(1.0, 8.0),
         [0.0691138785530691, 0.08228055928653663, 0.005791920861085398, 1.6413730771997557],
         [0.633779605328978, 1.7979163457151768, 2.6748102241518277, 0.8598598879087299],
         1.9784653752579782),
    ], ids=["constant2", "discrete12", "trunc_exp8"])
    def test_pinned_weight_streams(self, w, draws, tilde_draws, tilde_mean):
        # the W and size-biased W streams every sampler and progeny walk
        # reads; a storage change must not move a single draw
        tilde = w.size_biased
        assert w.sample(4, rng_for(1)).tolist() == draws
        assert tilde.sample(4, rng_for(2)).tolist() == tilde_draws
        assert tilde.mean == tilde_mean

    def test_expectation_is_atoms_dot_masses(self):
        w = WeightSpec.discrete([1.0, 2.0], [0.25, 0.75])
        assert w.atoms.tolist() == [1.0, 2.0] and w.masses.tolist() == [0.25, 0.75]
        assert w.expectation(lambda y: y**3) == 6.25
        with pytest.raises(ValueError):
            w.atoms[0] = 5.0  # read-only: the moments are computed once

    def test_repr_shows_parameters(self):
        r = repr(WeightSpec.discrete([1.0, 2.0], [0.5, 0.5]))
        assert "float64" not in r and r == "WeightSpec.discrete(values=[1.0, 2.0], probs=[0.5, 0.5])"
        assert "rate=2.0" in repr(WeightSpec.truncated_exponential(2.0, 6.0))


class TestEdgeProbability:
    def test_direct(self):
        m = ModelConfig(TorusConfig(10), 1.0)
        assert edge_probability((1, 1), (1, 6), 1.0, 1.0, m) == pytest.approx(0.02)

    def test_cap(self):
        m = ModelConfig(TorusConfig(2), 10.0)
        assert edge_probability((1, 1), (1, 2), 1.0, 1.0, m) == 1.0

    def test_self_loop_rejected(self):
        m = ModelConfig(TorusConfig(5), 1.0)
        with pytest.raises(ValueError):
            edge_probability((2, 2), (2, 2), 1.0, 1.0, m)

    @pytest.mark.parametrize("N", [3, 5, 8, 12])
    def test_kernel_equivalence(self, N):
        # p(u,v) agrees with the rescaled-kernel form for every pair
        cfg = TorusConfig(N)
        m = ModelConfig(cfg, 0.7)
        rng = rng_for(3)
        verts = list(itertools.product(range(1, N + 1), repeat=2))
        weights = {v: float(w) for v, w in zip(verts, rng.uniform(0.1, 3.0, len(verts)))}
        for u, v in itertools.combinations(verts, 2):
            p = edge_probability(u, v, weights[u], weights[v], m)
            kap = kernel((u[0] / N, u[1] / N), weights[u], (v[0] / N, v[1] / N), weights[v])
            assert p == pytest.approx(min(m.c * kap / N**2, 1.0), rel=1e-12)


class TestLambda:
    def test_lambda_of_c(self):
        assert lambda_of_c(1.0) == pytest.approx(2.772588722239781)
        assert lambda_of_c(c_of_lambda(1.0)) == pytest.approx(1.0)
        assert lambda_of_c(0.5) == pytest.approx(1.3862943611198906)

    def test_lambda_N_expansion(self):
        got = lambda_N(1.0, TorusConfig(1000))
        assert abs(got - (lambda_of_c(1.0) - 2.0 / 1000)) < 5e-3

    def test_lambda_N_small_c_limit(self):
        c = 1e-8
        cfg = TorusConfig(500)
        ratio = lambda_N(c, cfg) / c
        # -> sum N_r/(N r) -> 4 log 2 as N grows
        assert ratio == pytest.approx(mean_degree(1.0, cfg), rel=1e-6)
        assert abs(ratio - 4 * math.log(2)) < 0.01

    def test_lambda_N_shrinking_error(self):
        lam = lambda_of_c(1.0)
        errs = [N * abs(lambda_N(1.0, TorusConfig(N)) - lam + 2.0 / N) for N in (100, 200, 400, 800)]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_lambda_N_rejects_capped(self):
        with pytest.raises(ParameterError):
            lambda_N(5.0, TorusConfig(4))


def all_slots(N, full):
    """(o, u, v, r) over every slot of the sampler's table in one view:
    each ring's half-offsets, or all of its offsets."""
    t = slot_table(N)
    n = N * N
    width = t.ring_full if full else t.ring_len
    o = np.concatenate([np.arange(s, s + w) for s, w in zip(t.ring_start[1:-1], width)])
    o, u, v = t.decode((o[:, None] * n + np.arange(n)).ravel())
    return o, u, v, np.searchsorted(t.ring_start, o, side="right") - 1


class TestCandidatePopulation:
    @pytest.mark.parametrize("N", [2, 3, 4, 5, 6, 8, 9])
    def test_each_pair_exactly_once(self, N):
        # half view: each pair once, besides 3n/2 phantom slots for even N;
        # full view: each pair exactly twice, once from either end
        cfg = TorusConfig(N)
        n = N * N
        for full in (False, True):
            o, u, v, r = all_slots(N, full)
            assert np.all(u != v)
            for a, b, ring in zip(u.tolist(), v.tolist(), r.tolist()):
                assert torus_distance((a // N + 1, a % N + 1), (b // N + 1, b % N + 1), cfg) == ring
            key = np.minimum(u, v) * n + np.maximum(u, v)
            if full:
                assert key.size == n * (n - 1)
                assert np.all(np.unique(key, return_counts=True)[1] == 2)
            else:
                real = slot_table(N).owns(o, u, v)
                assert real.size - real.sum() == (3 * n // 2 if N % 2 == 0 else 0)
                assert real.sum() == n * (n - 1) // 2 == np.unique(key[real]).size

    @pytest.mark.parametrize("w", [WeightSpec.constant(1.5), WeightSpec.discrete([1.0, 2.0], [0.5, 0.5])],
                             ids=["equal", "discrete12"])
    @pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
    def test_owner_keeps_one_slot_per_pair(self, N, w):
        # the full view's owner rule keeps each pair's slot from its heavier
        # end, ties to the lower index, and exactly one slot per pair
        n = N * N
        weights = w.sample(n, rng_for(N))
        o, u, v, _ = all_slots(N, full=True)
        own = slot_table(N).owns(o, u, v, weights[u], weights[v])
        key = np.minimum(u, v)[own] * n + np.maximum(u, v)[own]
        assert key.size == n * (n - 1) // 2 == np.unique(key).size
        wu, wv = weights[u[own]], weights[v[own]]
        assert np.all((wu > wv) | ((wu == wv) & (u[own] < v[own])))


@pytest.mark.parametrize("N, digest", [
    (2, "4611dd0b08185d8fada572eb0c6531877d654aa006eb139067af3ede2602a3da"),
    (3, "3445ebd61f89439044008d3949a2e599a4f68114cb1a90974428d64d3e9564b8"),
    (4, "5616dd22c0ece805642f0dbfa52f16aaf655c02b6776e56aa5ab63a3a57466f4"),
    (5, "0f66c1b41392042bfd1d568518786e265a6eec689fcc550dd329611b7390ff54"),
    (8, "41839152c1da8c984a78505371d6ae8bb356f32dae2d9d78a03e4685e1d53b7d"),
    (9, "b735d6711962eb437925c27db86c24ea4b8c63072ac84ac51a779f3a28fe6eb5"),
    (64, "f3d560767de43052be967ba3a2cf6e5a5c8825fe2df15e757606547f30272482"),
    (101, "ef77f8f80f710e261c1fc522ed6a25bdc258c553ff5dba6044a797816d910fc7"),
    (400, "b6b3340f9ec4d01574eab0bbf112552995314d92f63689b58b476f183dff5306"),
])
def test_pinned_slot_table(N, digest):
    # the table's content, each array widened to int64 so that its dtype
    # does not enter the digest; even N has three self-inverse offsets
    t = slot_table(N)
    assert int(t.self_inverse.sum()) == (3 if N % 2 == 0 else 0)
    h = hashlib.sha256()
    for a in (t.di, t.dj, t.self_inverse, t.ring_start, t.ring_full, t.ring_len):
        h.update(np.asarray(a, dtype=np.int64).tobytes())
    assert h.hexdigest() == digest


class TestSampleGraph:
    def test_zero_intensity(self):
        g = sample_graph(ModelConfig(TorusConfig(5), 0.0))
        assert g.edge_count == 0

    def test_complete_graph_cap(self):
        N = 3
        cfg = TorusConfig(N)
        c = N * cfg.max_dist + 1.0  # p(u,v) = 1 for every pair
        g = sample_graph(ModelConfig(cfg, c))
        n = N * N
        assert g.edge_count == n * (n - 1) // 2

    def test_fractional_seed_refused_when_built(self):
        # numpy would raise a TypeError only when the graph is sampled
        with pytest.raises(ParameterError, match="seed must be an integer >= 0"):
            ModelConfig(TorusConfig(4), 0.5, seed=1.5)
        assert ModelConfig(TorusConfig(4), 0.5, seed=3.0).seed == 3

    def test_deterministic_given_seed(self):
        m = ModelConfig(TorusConfig(20), 0.9, WeightSpec.discrete([1, 2], [0.5, 0.5]), seed=77)
        g1, g2 = sample_graph(m), sample_graph(m)
        assert np.array_equal(g1.edges, g2.edges)
        assert np.array_equal(g1.weights, g2.weights)
        g3 = sample_graph(replace(m, seed=78))
        assert not np.array_equal(g1.edges, g3.edges)

    def test_graph_invariants(self):
        g = sample_graph(ModelConfig(TorusConfig(15), 1.2, seed=5))
        assert np.all(g.edges[:, 0] < g.edges[:, 1])
        uniq = {(int(a), int(b)) for a, b in g.edges}
        assert len(uniq) == g.edge_count
        # adjacency symmetric
        for i in range(0, g.n_vertices, 17):
            for j in g.neighbors(i):
                assert i in g.neighbors(int(j))

    @pytest.mark.parametrize("N, c, weights", [
        (31, 1.2, WeightSpec.constant(1.0)),
        (32, 0.6, WeightSpec.discrete([1.0, 3.0], [0.5, 0.5])),
        (40, 0.1, WeightSpec.truncated_exponential(1.0, 8.0)),
    ])
    def test_edges_canonical(self, N, c, weights):
        # lo < hi on every row, and rows strictly increasing in lo*n + hi:
        # lexicographically sorted with no duplicate edge
        g = sample_graph(ModelConfig(TorusConfig(N), c, weights, seed=N))
        assert g.edge_count > 0
        assert np.all(g.edges[:, 0] < g.edges[:, 1])
        key = g.edges[:, 0] * g.n_vertices + g.edges[:, 1]
        assert np.all(np.diff(key) > 0)

    def test_counting_and_labelling_leave_the_edges_unsorted(self):
        g = sample_graph(ModelConfig(TorusConfig(30), 0.8, seed=2))
        largest_component(g)
        assert g.edge_count > 0
        assert "edges" not in vars(g)

    @pytest.mark.parametrize("sampler", [sample_graph, sample_graph_reference])
    def test_edges_int64_contiguous_sorted(self, sampler):
        g = sampler(ModelConfig(TorusConfig(12), 1.0, WeightSpec.discrete([0.5, 2.0], [0.5, 0.5]), seed=3))
        e = g.edges
        assert e.dtype == np.int64 and e.flags.c_contiguous and e.shape == (g.edge_count, 2)
        assert g.edge_count > 0
        assert np.all(e[:, 0] < e[:, 1])
        assert np.all(np.diff(e[:, 0] * g.n_vertices + e[:, 1]) > 0)

    def test_adjacency_sorted_and_symmetric(self):
        g = sample_graph(ModelConfig(TorusConfig(16), 1.5, seed=9))
        pairs = set()
        for i in range(g.n_vertices):
            nb = g.neighbors(i)
            assert np.all(np.diff(nb) > 0)
            pairs |= {(min(i, int(j)), max(i, int(j))) for j in nb}
        assert pairs == {(int(a), int(b)) for a, b in g.edges}

    # N=5, c=3.5: ring 1's cap 0.7 is above 1 - 1/e, so that group
    # proposes every slot and must thin even with equal weights
    @pytest.mark.parametrize("N, c, reps", [(50, 1.0, 200), (5, 3.5, 1000)], ids=["N50", "N5-every-slot"])
    def test_mean_edge_count(self, N, c, reps):
        # E(edges) = sum over pairs of p(u,v) = N^2 sum_r N_r p_r / 2
        cfg = TorusConfig(N)
        m = ModelConfig(cfg, c)
        expect = N * N * mean_degree(c, cfg) / 2.0
        counts = np.array([sample_graph(replace(m, seed=s)).edge_count for s in range(reps)])
        se = counts.std(ddof=1) / math.sqrt(reps)
        assert abs(counts.mean() - expect) < 3 * se + 1e-9

    def test_mean_degree_matches_lambda(self):
        N, c, reps = 40, c_of_lambda(1.5), 100
        cfg = TorusConfig(N)
        m = ModelConfig(cfg, c)
        expect = mean_degree(c, cfg)
        assert abs(expect - 1.5) < 0.05  # lambda + o(1)
        graphs = (sample_graph(replace(m, seed=s)) for s in range(reps))
        means = np.array([2 * g.edge_count / g.n_vertices for g in graphs])
        se = means.std(ddof=1) / math.sqrt(reps)
        assert abs(means.mean() - expect) < 3 * se + 1e-9

    @pytest.mark.parametrize("N, w, reps, min_full", [
        pytest.param(3, WeightSpec.discrete([0.5, 2.0], [0.5, 0.5]), 100_000, 0.0, id="3"),
        pytest.param(4, WeightSpec.discrete([0.5, 2.0], [0.5, 0.5]), 100_000, 0.0, id="4"),
        pytest.param(5, WeightSpec.truncated_exponential(1.0, 8.0), 40_000, 0.0, id="5"),
        pytest.param(4, WeightSpec.discrete([1.0, 8.0], [0.95, 0.05]), 40_000, 0.4, id="4-full"),
    ])
    def test_per_pair_marginals_exact(self, N, w, reps, min_full):
        # every individual pair's empirical edge frequency within
        # binomial 4 sigma of its exact probability.  The discrete law
        # fills two non-adjacent weight layers, even N covers the
        # self-inverse offsets and their phantom slots, and the
        # continuous law spreads the weights over many layers.  A rare
        # heavy weight makes the full view (owner slots) the cheaper one
        # on at least min_full of the seeds, with even N's self-inverse
        # offsets among its slots
        c = 0.9
        cfg = TorusConfig(N)
        m = ModelConfig(cfg, c, w)
        n = N * N
        iu, ju = np.triu_indices(n, k=1)
        d = cfg.offset_dist
        scale = c / (N * (d[np.abs(iu // N - ju // N)] + d[np.abs(iu % N - ju % N)]))
        weights = np.empty((reps, n))
        keys = []
        full = 0
        for s in range(reps):
            g = sample_graph(replace(m, seed=s))
            weights[s] = g.weights
            keys.append(g.edges[:, 0] * n + g.edges[:, 1])
            full += g.full
        assert full >= min_full * reps
        counts = np.bincount(np.concatenate(keys), minlength=n * n)[iu * n + ju]
        mean_p = sum(np.minimum(scale * wt[:, iu] * wt[:, ju], 1.0).sum(axis=0)
                     for wt in np.split(weights, range(5000, reps, 5000)))
        sd = np.sqrt(np.maximum(mean_p, 1e-12))  # sum of p(1-p) <= sum p
        z = np.abs(counts - mean_p) / sd
        assert np.all(z < 4.0), z.max()

    def test_fast_matches_reference_marginals(self):
        # the O(N^4) reference and the ring-thinning sampler share weights
        # per seed; their edge marginals must agree statistically
        N, c, reps = 4, 0.8, 4000
        m = ModelConfig(TorusConfig(N), c, WeightSpec.discrete([1.0, 2.0], [0.5, 0.5]))
        n = N * N
        fast = np.zeros((n, n))
        ref = np.zeros((n, n))
        for s in range(reps):
            gf = sample_graph(replace(m, seed=s))
            gr = sample_graph_reference(replace(m, seed=s))
            assert np.array_equal(gf.weights, gr.weights)
            fast[gf.edges[:, 0], gf.edges[:, 1]] += 1
            ref[gr.edges[:, 0], gr.edges[:, 1]] += 1
        iu, ju = np.triu_indices(n, k=1)
        diff = fast[iu, ju] - ref[iu, ju]
        sd = np.sqrt(np.maximum(fast[iu, ju] + ref[iu, ju], 1.0))
        assert np.all(np.abs(diff) < 5 * sd)

    @pytest.mark.parametrize("N, w", [
        pytest.param(4, WeightSpec.discrete([0.5, 2.0], [0.5, 0.5]), id="4"),
        pytest.param(5, WeightSpec.truncated_exponential(1.0, 8.0), id="5"),
    ])
    def test_edges_independent_given_weights(self, N, w):
        # given its weights, a graph's edges are independent, so its edge
        # count E has variance sigma^2 = sum p(1 - p) about mu = sum p.  A
        # sampler that shares one thinning uniform between proposals keeps
        # every marginal but inflates sum (E - mu)^2 / sum sigma^2 above 1;
        # its excess sum [(E - mu)^2 - sigma^2] has mean 0, tested by a
        # batch-means z over 20 batches of 200 graphs (two cases: |z| < 4)
        c, reps, batches = 0.9, 4000, 20
        cfg = TorusConfig(N)
        m = ModelConfig(cfg, c, w)
        iu, ju = np.triu_indices(N * N, k=1)
        d = cfg.offset_dist
        scale = ring_scale(c, N)[d[np.abs(iu // N - ju // N)] + d[np.abs(iu % N - ju % N)] - 1]
        weights = np.empty((reps, N * N))
        edges = np.empty(reps)
        for s in range(reps):
            g = sample_graph(replace(m, seed=s))
            weights[s] = g.weights
            edges[s] = g.edge_count
        p = np.minimum(scale * weights[:, iu] * weights[:, ju], 1.0)
        mu, var = p.sum(axis=1), (p * (1 - p)).sum(axis=1)
        excess = ((edges - mu) ** 2 - var).reshape(batches, -1).sum(axis=1)
        z = excess.mean() / (excess.std(ddof=1) / math.sqrt(batches))
        ratio = ((edges - mu) ** 2).sum() / var.sum()
        assert abs(z) < 4.0, (ratio, z)

    @pytest.mark.parametrize("N, c", [(3, 0.9), (4, 0.9), (4, 5.0)])
    def test_reference_is_the_pairwise_loop(self, N, c):
        # one uniform per pair in canonical order, capped p included
        m = ModelConfig(TorusConfig(N), c, WeightSpec.discrete([0.5, 2.0], [0.5, 0.5]))
        n = N * N
        for s in range(5):
            rng = np.random.Generator(np.random.Philox(s))
            wt = m.weights.sample(n, rng)
            loop = [(a, b) for a in range(n) for b in range(a + 1, n)
                    if rng.random() < edge_probability((a // N + 1, a % N + 1), (b // N + 1, b % N + 1),
                                                       wt[a], wt[b], m)]
            assert sample_graph_reference(replace(m, seed=s)).edges.tolist() == [list(e) for e in loop]

    def test_the_profile_is_ring_scale(self, monkeypatch):
        # every reader takes a_r from ring_scale: swapped for c / (N r^2), the
        # reference is still the pairwise loop and sample_graph's mean edge
        # count still follows mean_degree, which the swap cuts over 4-fold
        t0 = time.perf_counter()
        cfg = TorusConfig(20)
        before = mean_degree(2.0, cfg)
        monkeypatch.setattr("torusgraph.model.ring_scale", lambda c, N: c / (N * np.arange(1, N + 1) ** 2))
        self.test_reference_is_the_pairwise_loop(4, 5.0)
        m = ModelConfig(cfg, 2.0)  # a_1 = 0.1, so no p is capped
        expect = cfg.n_vertices * mean_degree(2.0, cfg) / 2
        counts = np.array([sample_graph(replace(m, seed=s)).edge_count for s in range(200)])
        assert abs(counts.mean() - expect) < 4 * counts.std(ddof=1) / math.sqrt(200)
        assert mean_degree(2.0, cfg) < before / 4
        assert time.perf_counter() - t0 < 1.0

    # a zero weight, or an all-zero law's B = 0, must map to a layer without
    # a division by zero or a nan cast to an integer
    @pytest.mark.filterwarnings("error")
    def test_zero_weights_give_no_edges(self):
        g = sample_graph(ModelConfig(TorusConfig(10), 2.0, WeightSpec.constant(0.0), seed=1))
        assert g.edge_count == 0 and g.proposals == 0

    @pytest.mark.filterwarnings("error")
    def test_zero_weight_vertices_stay_isolated(self):
        m = ModelConfig(TorusConfig(20), 1.0, WeightSpec.discrete([0.0, 2.0], [0.5, 0.5]))
        for s in range(20):
            g = sample_graph(replace(m, seed=s))
            assert g.edge_count > 0
            assert np.all(g.weights[g.edges] > 0)

    @pytest.mark.parametrize("values", [[0.0, 2.0], [1.5, 2.0]])
    def test_mean_edge_count_weighted(self, values):
        # [0, 2]: zero weights in the lowest layer; [1.5, 2]: one layer
        # with thinning.  Exact law of the count when no p(u,v) is capped
        # (here c B^2 / N = 0.1): a sum of Bernoulli(a_uv W_u W_v), with
        # a_uv = c / (N d(u,v)), D = sum_v a_uv and A2 = sum_v a_uv^2;
        # the variance's second term is from pairs of pairs sharing a vertex
        N, c, reps = 20, 0.5, 200
        cfg = TorusConfig(N)
        w = WeightSpec.discrete(values, [0.5, 0.5])
        m = ModelConfig(cfg, c, w)
        n = cfg.n_vertices
        D = mean_degree(c, cfg)
        A2 = float((ring_sizes(cfg) * (c / (N * np.arange(1.0, N + 1))) ** 2).sum())
        ew2, var_w = w.mean**2, w.second_moment - w.mean**2
        mean = n / 2 * D * ew2
        var = n / 2 * (D * ew2 - A2 * ew2 * ew2) + n * (D * D - A2) * ew2 * var_w
        counts = np.array([sample_graph(replace(m, seed=s)).edge_count for s in range(reps)])
        assert abs(counts.mean() - mean) < 5 * math.sqrt(var / reps)

    @pytest.mark.parametrize("w", [
        WeightSpec.truncated_exponential(1.0, 8.0),
        WeightSpec.discrete([1.0, 1.5, 3.0, 5.0], [0.4, 0.3, 0.2, 0.1]),
    ], ids=["trunc_exp8", "discrete1_1.5_3_5"])
    def test_weight_layers_are_quarter_octaves(self, w):
        # each vertex's layer top M_a is its own weight rounded up by less
        # than 2^(1/4), above the floor B / 2^MAX_LAYER, and never below it
        weights = w.sample(4000, rng_for(0))
        order, sizes, top = _weight_layers(weights)
        cap = np.empty_like(weights)
        cap[order] = np.repeat(top, sizes)
        live = weights > weights.max() / 2**MAX_LAYER
        assert np.all(cap >= weights)
        assert np.all(cap[live] < weights[live] * 2**0.25)

    def test_weight_layer_order_is_stable(self):
        # vertices listed layer by layer and by index within a layer, as a
        # stable sort of the layer index lists them; zeros, ties and weights
        # below B / 2^MAX_LAYER share the lowest layer, 4 * MAX_LAYER
        B = 8.0
        rng = rng_for(7)
        weights = rng.permutation(np.concatenate([
            [B, B, 0.0, 0.0, B / 2**MAX_LAYER, B / 2**13, B / 2**20, 3.0, 3.0, 3.0],
            rng.uniform(0.0, B, 5000),
            B * 2.0 ** -rng.uniform(0.0, 14.0, 5000),
        ]))
        layer = np.floor(LAYERS_PER_OCTAVE * np.log2(B / np.maximum(weights, B / 2**MAX_LAYER)))
        order, sizes, _ = _weight_layers(weights)
        assert layer.max() == LAYERS_PER_OCTAVE * MAX_LAYER
        assert np.array_equal(order, np.argsort(layer, kind="stable"))
        counts = np.bincount(layer.astype(np.int64))
        assert np.array_equal(sizes, counts[counts > 0])

    def test_layered_proposals_per_edge(self):
        # quarter-octave weight layers propose about 4.6 slots per edge,
        # where whole octaves took 8.3 and one cap at B^2 for every slot
        # about 62
        m = ModelConfig(TorusConfig(100), c_of_lambda(0.3), WeightSpec.truncated_exponential(1.0, 8.0))
        graphs = [sample_graph(replace(m, seed=s)) for s in range(5)]
        edges = sum(g.edge_count for g in graphs)
        assert sum(g.proposals for g in graphs) < 6 * edges

    @pytest.mark.parametrize("w, bound", [
        (WeightSpec.truncated_exponential(1.0, 8.0), 6.0),
        (HEAVY, 24.0),
    ], ids=["trunc_exp8", "discrete1_8_64"])
    def test_heavier_endpoint_proposals_per_edge(self, w, bound):
        # at lambda E(W^2) = 0.3 the full view drew 4.7 and 19.9 slots per
        # edge here, 8.7 and 19.9 with whole-octave layers, and the half
        # view alone with those 11.1 and 28.3
        m = ModelConfig(TorusConfig(100), c_of_lambda(0.3 / w.second_moment), w)
        graphs = [sample_graph(replace(m, seed=s)) for s in range(5)]
        assert sum(g.proposals for g in graphs) < bound * sum(g.edge_count for g in graphs)

    @pytest.mark.parametrize("N, lam, w, seed, digest", [
        (30, 2.0, WeightSpec.constant(), 3,
         "39b76f70eb50372f45d74c42327c0a78934fd5999a70b25f15818d0719136b1a"),
        (31, 2.0, WeightSpec.constant(), 3,
         "9a7003b33b1f9e258ef513f8053d987bc24a3845812af88e2f37fa0b322f4a90"),
        (400, 0.3, WeightSpec.discrete([1.0, 2.0], [0.5, 0.5]), 0,
         "19289835c34beaea814026d0f70102ca606b0a10eb1eeb0d627c56e80f35d305"),
    ], ids=["N30-constant", "N31-constant", "N400-discrete12"])
    def test_pinned_edge_digests(self, N, lam, w, seed, digest):
        # graphs the half view proposes keep their exact edge streams
        m = ModelConfig(TorusConfig(N), c_of_lambda(lam), w, seed)
        g = sample_graph(m)
        assert not g.full
        assert hashlib.sha256(g.edges.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("w, lam, seed, edges, digest", [
        (WeightSpec.truncated_exponential(1.0, 8.0), 0.3, 0, 1579,
         "dee4c8fd6c3a78dbb6c96b9c567c3a0c35088ff52940c0440c38f427aa91893a"),
        (HEAVY, 0.3 / HEAVY.second_moment, 0, 166,
         "0b3fa8e9999f237a1090086bf747ed6322a322a0eaa7c488b0d9b429e6ce172a"),
    ], ids=["N100-trunc_exp8", "N100-discrete1_8_64"])
    def test_pinned_full_view_edge_digests(self, w, lam, seed, edges, digest):
        # graphs the full view proposes, over several weight layers, keep
        # their exact edge streams
        g = sample_graph(ModelConfig(TorusConfig(100), c_of_lambda(lam), w, seed))
        assert g.full
        assert g.edge_count == edges
        assert hashlib.sha256(g.edges.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("N, lam, w, full, digest", [
        (200, 2.0, WeightSpec.constant(), False,
         "de8e7ee2efef1c6a823c2e09d410ce8dbe19a2c28d530644fc787c766996ef00"),
        (400, 0.3, WeightSpec.truncated_exponential(1.0, 8.0), True,
         "b47946fd98c9cba2dce01d60a614c30409a6f83b041d84a7707058f896be1e7e"),
        (400, 0.3, WeightSpec.discrete([1.0, 2.0], [0.5, 0.5]), False,
         "4a5489c8dc0335d93e10af2c9dfa59cf65e74e08dba9d537ae8eea025a00a40a"),
    ], ids=["N200-constant", "N400-trunc_exp8", "N400-discrete12"])
    def test_pinned_pairs_digests(self, N, lam, w, full, digest):
        # graphs of several chunks (3, 7 and 5: unthinned, full view,
        # thinned half view) keep their rows in the order drawn, chunk by
        # chunk; the edge pins above sort the rows first, so they would
        # not see chunks collected out of order
        g = sample_graph(ModelConfig(TorusConfig(N), c_of_lambda(lam), w, 0))
        assert g.full == full
        assert hashlib.sha256(g.pairs.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("N", [30, 31])
    def test_constant_weights_propose_one_slot_per_edge(self, N):
        # no thinning: every proposed real slot is an edge, and only even N
        # has phantom slots (3n/2 of them) to propose besides
        g = sample_graph(ModelConfig(TorusConfig(N), c_of_lambda(2.0), seed=3))
        assert 0 <= g.proposals - g.edge_count <= (3 * N * N // 2 if N % 2 == 0 else 0)
        assert g.edge_count > 0

    def test_unbounded_weight_cap_uses_realized_max(self):
        # continuous weights: thinning stays exact with the per-sample cap
        m = ModelConfig(TorusConfig(10), 0.5, WeightSpec.truncated_exponential(1.0, 8.0), seed=4)
        g = sample_graph(m)
        assert g.edge_count > 0
        assert np.all(g.edges[:, 0] < g.edges[:, 1])


class TestExport:
    def test_roundtrip_format(self, tmp_path):
        m = ModelConfig(TorusConfig(4), 1.0, WeightSpec.truncated_exponential(1.0, 8.0), seed=0)
        g = sample_graph(m)
        epath, wpath = tmp_path / "g.edges", tmp_path / "g.weights"
        g.export_edges(epath)
        g.export_weights(wpath)
        lines = epath.read_text().strip().splitlines() if g.edge_count else []
        assert len(lines) == g.edge_count
        for line in lines:
            u1, u2, v1, v2 = map(int, line.split())
            assert 1 <= u1 <= 4 and 1 <= v2 <= 4
        wlines = wpath.read_text().strip().splitlines()
        assert len(wlines) == g.n_vertices
        assert wlines[0].split()[:2] == ["1", "1"]
        # 'v1 v2 w' with w a plain float literal that reads back exactly
        assert np.array_equal([float(line.split()[2]) for line in wlines], g.weights)

    def test_constant_weights_take_no_memory(self, tmp_path):
        # a constant law's weights are one value at stride 0, read-only,
        # and export as the bytes of the filled array they stand for
        g = sample_graph(ModelConfig(TorusConfig(20), c_of_lambda(2.0), WeightSpec.constant(1.5), seed=0))
        assert g.weights.shape == (400,) and np.all(g.weights == 1.5)
        assert g.weights.strides == (0,) and not g.weights.flags.writeable
        with pytest.raises(ValueError):
            g.weights[0] = 2.0
        view, filled = tmp_path / "view.weights", tmp_path / "filled.weights"
        g.export_weights(view)
        replace(g, weights=np.full(400, 1.5)).export_weights(filled)
        assert view.read_bytes() == filled.read_bytes()
