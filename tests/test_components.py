import hashlib
import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusgraph.components import (
    component_decomposition,
    explore_component,
    largest_component,
)
from torusgraph.geometry import TorusConfig
from torusgraph.model import Graph, ModelConfig, WeightSpec, c_of_lambda, ring_scale, sample_graph


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


def make_graph(N, edge_list):
    """Graph with unit weights whose edges are distinct (min, max) pairs
    sorted lexicographically."""
    edges = (
        np.array(sorted({(min(a, b), max(a, b)) for a, b in edge_list}), dtype=np.int64)
        if edge_list
        else np.empty((0, 2), dtype=np.int64)
    )
    return Graph(N, np.ones(N * N), edges)


class TestLargestComponent:
    def test_empty_graph(self):
        cs = largest_component(make_graph(3, []))
        assert cs.largest == 1
        assert cs.sizes.size == 9
        assert np.all(cs.sizes == 1)

    def test_complete_graph(self):
        n = 9
        edges = [(a, b) for a in range(n) for b in range(a + 1, n)]
        cs = largest_component(make_graph(3, edges))
        assert cs.largest == n and cs.sizes.size == 1

    @pytest.mark.parametrize("N", [2, 5, 40])
    def test_edgeless_graph(self, N):
        g = sample_graph(ModelConfig(TorusConfig(N), 0.0, seed=1))
        assert g.edge_count == 0
        cs = largest_component(g)
        assert cs.sizes.size == N * N
        assert np.all(cs.sizes == 1) and cs.largest == 1

    def test_two_components_and_isolated_vertices(self):
        # N=4: path 0-1-2-3 and triangle 5-9-10; the other 9 vertices isolated
        g = make_graph(4, [(0, 1), (2, 1), (3, 2), (5, 9), (9, 10), (10, 5)])
        cs = largest_component(g)
        assert cs.largest == 4
        assert cs.sizes.size == 2 + 9
        assert list(cs.sizes) == [4, 3] + [1] * 9

    def test_path_listed_from_its_far_end(self):
        # N=3: the path 0-3-6-7-8 and 4 isolated vertices.  Read in the
        # listed order, with each row's entries taken from the wrong lo,
        # the path would fall apart (into sizes 2, 2, 1, ... with a self-loop)
        g = make_graph(3, [(7, 8), (6, 7), (3, 6), (0, 3)])
        cs = largest_component(g)
        assert list(cs.sizes) == [5, 1, 1, 1, 1]
        assert cs.largest == 5 and cs.sizes.size == 5

    @pytest.mark.parametrize("N, lam, w, seed", [
        (20, 0.8, WeightSpec.constant(), 1),
        (24, 1.5, WeightSpec.constant(), 2),
        (31, 2.5, WeightSpec.constant(), 3),
        # the full view, with many isolated vertices
        (40, 0.3, WeightSpec.truncated_exponential(1.0, 8.0), 0),
    ], ids=["20-0.8-1", "24-1.5-2", "31-2.5-3", "40-0.3-trunc_exp8-0"])
    def test_matches_exploration_oracle(self, N, lam, w, seed):
        g = sample_graph(ModelConfig(TorusConfig(N), c_of_lambda(lam), w, seed))
        traces = component_decomposition(g, rng_for(seed))
        expect = sorted(map(len, traces), reverse=True)
        assert largest_component(g).sizes.tolist() == expect

    @pytest.mark.parametrize("N, lam, w, seed, digest", [
        (200, 2.0, WeightSpec.constant(), 0,
         "a265493c83fc47f01a010091faa6a6dbab599951eb6ea52e5817968df5fea037"),
        (400, 0.3, WeightSpec.truncated_exponential(1.0, 8.0), 0,
         "bdfd17c4e6e71247e53c766caec2e87a8bc4537f3ee139744dd814a5b31efd38"),
        (150, 1.2, WeightSpec.discrete([1.0, 2.0], [0.5, 0.5]), 0,
         "fd4bc79a7701c4bb48add5178b94b64a117f92922ab45453d8a9b2b9dabfac21"),
    ], ids=["N200-2-constant", "N400-0.3-trunc_exp8", "N150-1.2-discrete12"])
    def test_pinned_component_sizes(self, N, lam, w, seed, digest):
        # the exact size vector, dtype included, of graphs large enough
        # for long hook chains and many cross edges
        g = sample_graph(ModelConfig(TorusConfig(N), c_of_lambda(lam), w, seed))
        assert hashlib.sha256(largest_component(g).sizes.tobytes()).hexdigest() == digest

    def test_sizes_sum(self):
        g = sample_graph(ModelConfig(TorusConfig(12), 0.8, seed=3))
        cs = largest_component(g)
        assert cs.sizes.sum() == g.n_vertices
        assert cs.largest == cs.sizes.max()
        assert 1 <= cs.sizes.size <= g.n_vertices

    def test_allocation_peak(self):
        # the labeller allocates at most 2.5 times the graph's int32 edge
        # rows at once (2.24 with numpy 2.4): no gather copies a whole
        # int32 id array to intp
        g = sample_graph(ModelConfig(TorusConfig(400), c_of_lambda(2.0), WeightSpec.constant(), 0))
        largest_component(g)  # the first call's one-off allocations are not the labeller's
        tracemalloc.start()
        try:
            largest_component(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * g.pairs.nbytes


def oracle_sizes(g):
    return sorted(map(len, component_decomposition(g, rng_for(0))), reverse=True)


class TestHooking:
    """Graphs on which hooking each vertex to its smallest neighbour and
    jumping to the root could go wrong, against the exploration oracle."""

    def test_path_in_index_order(self):
        # every vertex hooks to the one before: a chain of n - 1 = 1599
        # hooks, which pointer jumping halves 11 times before every
        # vertex names vertex 0
        N = 40
        g = make_graph(N, [(i, i + 1) for i in range(N * N - 1)])
        assert largest_component(g).sizes.tolist() == oracle_sizes(g) == [N * N]

    def test_star_centred_on_largest_index(self):
        # no leaf has a smaller neighbour, so every leaf is a root and only
        # the edge to leaf 0 lies inside a hook tree
        N = 6
        n = N * N
        g = make_graph(N, [(i, n - 1) for i in range(n - 1)])
        assert largest_component(g).sizes.tolist() == oracle_sizes(g) == [n]

    @pytest.mark.parametrize("N, length", [(3, 3), (5, 25), (6, 17)])
    def test_cycle(self, N, length):
        g = make_graph(N, [(i, (i + 1) % length) for i in range(length)])
        expect = [length] + [1] * (N * N - length)
        assert largest_component(g).sizes.tolist() == oracle_sizes(g) == expect

    def test_interleaved_components(self):
        # the even and the odd vertices form two paths, alternating in
        # index order
        N = 6
        g = make_graph(N, [(i, i + 2) for i in range(N * N - 2)])
        assert largest_component(g).sizes.tolist() == oracle_sizes(g) == [N * N // 2] * 2

    def test_recursive_zigzag_path(self):
        # a Hamiltonian path on all 2^10 vertices whose labels, read along
        # the path, are zigzag(10): the even positions carry zigzag(9) and
        # the odd ones the larger labels.  Each odd vertex hooks to a
        # smaller even neighbour, the even vertices are the roots, and
        # renumbering them keeps their order, so one contraction round
        # leaves the path zigzag(9): 10 rounds in all
        def zigzag(k):
            if k == 0:
                return [0]
            path = [0] * 2 ** k
            path[0::2] = zigzag(k - 1)
            path[1::2] = range(2 ** (k - 1), 2 ** k)
            return path

        N = 32
        path = zigzag(10)
        assert sorted(path) == list(range(N * N))
        g = make_graph(N, list(zip(path, path[1:])))
        assert largest_component(g).sizes.tolist() == oracle_sizes(g) == [N * N]

    def test_dense_graph_with_repeated_cross_edges(self):
        # three dense clusters on a shuffled vertex set: 106 of the 191
        # edges join two hook trees, over only 21 pairs of roots
        N = 8
        rng = rng_for(5)
        cluster = rng.integers(0, 3, N * N)
        a, b = np.triu_indices(N * N, 1)
        edge = (cluster[a] == cluster[b]) & (rng.random(a.size) < 0.3)
        g = make_graph(N, list(zip(a[edge].tolist(), b[edge].tolist())))
        assert g.edge_count == 191
        assert largest_component(g).sizes.tolist() == oracle_sizes(g)

    def test_row_order_of_the_pairs(self):
        # the same (lo, hi) pairs in index order and shuffled: equal sorted
        # edges and equal sizes
        g = sample_graph(ModelConfig(TorusConfig(24), c_of_lambda(1.5), seed=4))
        pairs = g.edges.copy()
        shuffled = Graph(g.N, g.weights, pairs[rng_for(1).permutation(len(pairs))])
        assert np.array_equal(shuffled.edges, g.edges)
        assert np.array_equal(largest_component(shuffled).sizes, largest_component(g).sizes)
        assert largest_component(g).sizes.tolist() == oracle_sizes(g)

    @given(st.integers(2, 6).flatmap(lambda N: st.tuples(
        st.just(N),
        st.lists(st.tuples(st.integers(0, N * N - 1), st.integers(0, N * N - 1))
                 .filter(lambda e: e[0] != e[1]), max_size=3 * N * N))))
    @settings(max_examples=200, deadline=None)
    def test_random_edge_lists(self, case):
        N, edge_list = case
        g = make_graph(N, edge_list)
        assert largest_component(g).sizes.tolist() == oracle_sizes(g)


class TestExploration:
    def test_isolated_vertex(self):
        tr = explore_component(make_graph(2, []), 0, rng_for(0))
        assert len(tr) == 1
        assert tr[0].activated == 0
        assert tr[0].active == 0

    def test_path_of_three(self):
        # 0 - 1 - 2 explored from the endpoint: X = (1, 1, 0)
        g = make_graph(2, [(0, 1), (1, 2)])
        tr = explore_component(g, 0, rng_for(1))
        assert len(tr) == 3
        assert [s.activated for s in tr] == [1, 1, 0]

    def test_recursion_invariant_and_stopping_time(self):
        # |S_i| = X_1 + ... + X_i - (i - 1) at every step; the trace stops
        # at the first i with that sum equal to i - 1
        for seed in range(30):
            g = sample_graph(ModelConfig(TorusConfig(7), 0.9, seed=seed))
            tr = explore_component(g, int(seed) % g.n_vertices, rng_for(seed))
            acc = 0
            for i, step in enumerate(tr, 1):
                acc += step.activated
                assert step.active == acc - (i - 1)
                if i < len(tr):
                    assert step.active > 0
            assert tr[-1].active == 0

    def test_T_invariant_under_tie_breaking(self):
        g = sample_graph(ModelConfig(TorusConfig(8), 1.2, seed=11))
        ref = len(explore_component(g, 0, rng_for(0)))
        for seed in range(100):
            assert len(explore_component(g, 0, rng_for(seed + 1))) == ref

    def test_T_matches_union_find(self):
        for seed in range(50):
            g = sample_graph(ModelConfig(TorusConfig(6), 1.0, seed=seed))
            cs = largest_component(g)
            sizes = {}
            for v in range(g.n_vertices):
                sizes[v] = len(explore_component(g, v, rng_for(seed)))
            # group by component via repeated exploration from each vertex
            assert max(sizes.values()) == cs.largest


class TestDecomposition:
    def test_empty_graph(self):
        traces = component_decomposition(make_graph(2, []), rng_for(0))
        assert len(traces) == 4
        assert all(len(t) == 1 for t in traces)

    def test_complete_graph(self):
        n = 4
        edges = [(a, b) for a in range(n) for b in range(a + 1, n)]
        traces = component_decomposition(make_graph(2, edges), rng_for(0))
        assert len(traces) == 1 and len(traces[0]) == n

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_union_find_multiset(self, seed):
        g = sample_graph(ModelConfig(TorusConfig(8), 0.9, seed=seed))
        traces = component_decomposition(g, rng_for(seed))
        covered = [s.chosen for t in traces for s in t]
        assert sorted(covered) == list(range(g.n_vertices))
        assert sum(map(len, traces)) == g.n_vertices
        got = sorted(map(len, traces))
        expect = sorted(largest_component(g).sizes.tolist())
        assert got == expect


def exact_largest_pmf(N, c, w):
    """Exact P(C1 = k), k = 0..N^2 (0 at k = 0), of the graph on the
    N-torus with i.i.d. weights from w: a mixture, over the weight
    vectors, of the law given the weights, by a recursion over vertex
    subsets S (bit masks), all weight vectors at once.  With n(T, U) the
    chance of no edge between T and U, and T running over the subsets of
    S that hold S's lowest vertex:
        P(S connected) = 1 - sum_{T != S} P(T connected) n(T, S - T),
        Q_k(S) = sum_{|T| <= k} P(T connected) n(T, S - T) Q_k(S - T),
    where Q_k(S) = P(every component within S has at most k vertices),
    so P(C1 <= k) = Q_k(all vertices).  Weight vectors that a symmetry
    of the torus distance maps onto each other have one law, so one per
    orbit is solved, weighted by the orbit's chance."""
    n, cfg = N * N, TorusConfig(N)
    i, j = np.divmod(np.arange(n), N)
    d = cfg.offset_dist
    a = ring_scale(c, N)[d[(i[:, None] - i) % N] + d[(j[:, None] - j) % N] - 1]  # diagonal unused
    maps = []  # the vertex maps that keep every distance: reflections, translations, the coordinate swap
    for s, r, t, u in itertools.product((1, -1), (1, -1), range(N), range(N)):
        x, y = (s * i + t) % N, (r * j + u) % N
        maps += [x * N + y, y * N + x]
    A = w.atoms.size
    V = np.array(list(itertools.product(range(A), repeat=n)))  # every weight vector, as atom indices
    orbit = (V[:, maps] * A ** np.arange(n)).sum(axis=2).min(axis=1)
    _, first, which = np.unique(orbit, return_index=True, return_inverse=True)
    chance = np.bincount(which, weights=w.masses[V].prod(axis=1))
    weights = w.atoms[V[first]]  # (B, n), one weight vector per orbit
    # the chance of no edge, multiplied and never summed as log(1 - p), so p = 1 gives 0 and no 0 * -inf
    q = 1 - np.minimum(a * weights[:, :, None] * weights[:, None, :], 1.0)
    full = (1 << n) - 1
    member = (np.arange(full + 1)[:, None] >> np.arange(n) & 1).astype(bool)
    size = member.sum(axis=1)
    none = np.ones((full + 1, len(chance), n))  # none[U][:, u]: no edge from u into U
    for U in range(1, full + 1):
        none[U] = none[U & (U - 1)] * q[:, :, (U & -U).bit_length() - 1]
    conn = np.ones((full + 1, len(chance)))
    Q = np.ones((full + 1, n + 1, len(chance)))
    k = np.arange(n + 1)
    for S in range(1, full + 1):
        rest = S & (S - 1)  # S less its lowest vertex
        sub = np.arange(rest + 1)
        T = (S ^ rest) | sub[sub & rest == sub]  # ascending, so S itself is last
        head = conn[T] * np.where(member[T][:, :, None], none[S ^ T].transpose(0, 2, 1), 1.0).prod(axis=1)
        conn[S] = head[-1] = 1 - head[:-1].sum(axis=0)
        Q[S] = (head[:, None, :] * Q[S ^ T] * (k >= size[T][:, None])[:, :, None]).sum(axis=0)
    return np.diff(Q[full], prepend=0.0, axis=0) @ chance


@pytest.mark.parametrize("w", [
    WeightSpec.constant(),
    # p = 1 between two weight-2 neighbours: layers, thinning and a group that takes every slot
    WeightSpec.discrete([0.5, 2.0], [0.5, 0.5]),
], ids=["constant", "discrete0.5-2"])
def test_largest_component_exact_law(w):
    # sample_graph and largest_component together: C1 of 6000 graphs at
    # N = 3, c = 0.9 (seeds 0-5999) against its exact law, by chi-square
    # over bins of expected count >= 5; p > 1e-3 in each of the two cases
    from scipy.stats import chisquare

    N, c, reps = 3, 0.9, 6000
    pmf = exact_largest_pmf(N, c, w)
    assert abs(pmf.sum() - 1) < 1e-12 and pmf[0] == 0
    m = ModelConfig(TorusConfig(N), c, w)
    counts = np.bincount([largest_component(sample_graph(replace(m, seed=s))).largest for s in range(reps)],
                         minlength=N * N + 1)
    edges = [0]  # bins [edges[b], edges[b + 1]) of k, each of expected count >= 5
    for k in range(1, N * N + 2):
        if reps * pmf[edges[-1]:k].sum() >= 5:
            edges.append(k)
    edges[-1] = N * N + 1  # a short tail joins the last bin
    expect = reps * np.add.reduceat(pmf, edges[:-1])
    got = np.add.reduceat(counts, edges[:-1])
    assert chisquare(got, expect).pvalue > 1e-3, (got, expect)
