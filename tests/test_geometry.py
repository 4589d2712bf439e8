import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusgraph.errors import ParameterError
from torusgraph.geometry import (
    TorusConfig,
    continuous_rho,
    kernel,
    ring_sizes,
    ring_vertices,
    torus_distance,
)


def brute_distance(u, v, N):
    """Minimum L1 distance over all periodic shifts of v."""
    best = None
    for si in (-N, 0, N):
        for sj in (-N, 0, N):
            d = abs(u[0] - (v[0] + si)) + abs(u[1] - (v[1] + sj))
            best = d if best is None else min(best, d)
    return best


class TestTorusDistance:
    def test_identity(self):
        cfg = TorusConfig(10)
        assert torus_distance((1, 1), (1, 1), cfg) == 0

    def test_no_wrap(self):
        cfg = TorusConfig(10)
        assert torus_distance((1, 1), (2, 3), cfg) == 3

    def test_wrap_around(self):
        cfg = TorusConfig(10)
        assert torus_distance((1, 1), (10, 1), cfg) == 1
        assert torus_distance((1, 1), (10, 1), cfg) == brute_distance((1, 1), (10, 1), 10)

    @pytest.mark.parametrize("N", [3, 4, 5, 8, 11, 12])
    def test_matches_brute_force(self, N):
        cfg = TorusConfig(N)
        verts = list(itertools.product(range(1, N + 1), repeat=2))
        for u in verts[:: max(1, len(verts) // 30)]:
            for v in verts:
                assert torus_distance(u, v, cfg) == brute_distance(u, v, N)

    @pytest.mark.parametrize("N", [3, 4, 7, 12])
    def test_metric_axioms(self, N):
        # distance matrix over all vertex pairs
        cfg = TorusConfig(N)
        n = N * N
        idx = np.arange(n)
        i, j = idx // N, idx % N
        d = cfg.offset_dist
        D = d[np.abs(i[:, None] - i[None, :])] + d[np.abs(j[:, None] - j[None, :])]
        assert np.array_equal(D, D.T)
        assert np.all(np.diag(D) == 0)
        assert np.all((D == 0) == np.eye(n, dtype=bool))
        for k in range(n):
            assert np.all(D <= D[:, [k]] + D[[k], :])

    @pytest.mark.parametrize("N", [5, 6, 9])
    def test_shift_invariance(self, N):
        cfg = TorusConfig(N)
        rng = np.random.default_rng(0)
        for _ in range(200):
            u1, u2, v1, v2, s1, s2 = rng.integers(1, N + 1, size=6)
            u, v = (int(u1), int(u2)), (int(v1), int(v2))
            us = ((u[0] - 1 + s1) % N + 1, (u[1] - 1 + s2) % N + 1)
            vs = ((v[0] - 1 + s1) % N + 1, (v[1] - 1 + s2) % N + 1)
            assert torus_distance(u, v, cfg) == torus_distance(us, vs, cfg)

    @given(st.integers(2, 40), st.integers(1, 40), st.integers(1, 40),
           st.integers(1, 40), st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_symmetry_property(self, N, a, b, c, d):
        cfg = TorusConfig(N)
        u = ((a - 1) % N + 1, (b - 1) % N + 1)
        v = ((c - 1) % N + 1, (d - 1) % N + 1)
        assert torus_distance(u, v, cfg) == torus_distance(v, u, cfg)

    def test_rejects_side_below_two(self):
        with pytest.raises(ParameterError, match="N must be an integer >= 2"):
            TorusConfig(1)

    def test_rejects_side_past_int32_labels(self):
        # vertices are numbered in int32: N^2 = 46341^2 >= 2^31
        with pytest.raises(ParameterError, match="N must be <= 46340"):
            TorusConfig(46341)
        assert TorusConfig(46340).n_vertices == 46340**2

    @pytest.mark.parametrize("N", [2.5, 8.9, float("nan")])
    def test_rejects_fractional_or_nan_side(self, N):
        # int() would build N = 2 from 2.5, 8 from 8.9, and raise a bare ValueError on NaN
        with pytest.raises(ParameterError, match="N must be an integer >= 2"):
            TorusConfig(N)

    def test_whole_float_side_builds(self):
        cfg = TorusConfig(8.0)
        assert cfg.N == 8 and type(cfg.N) is int

    def test_rejects_string_side(self):
        # a side is read by errors.integer, as every other count is
        with pytest.raises(ParameterError, match="N must be an integer >= 2"):
            TorusConfig("8")

    def test_rejects_invalid_vertex(self):
        cfg = TorusConfig(5)
        with pytest.raises(ValueError):
            torus_distance((0, 1), (1, 1), cfg)


class TestRingSize:
    def test_even_N_midpoint(self):
        assert ring_sizes(TorusConfig(4))[1] == 6  # 2(N-1) at r = N/2

    def test_even_N_antipode(self):
        assert ring_sizes(TorusConfig(4))[3] == 1

    def test_odd_N_enumeration(self):
        # brute force over the 24 non-origin vertices of the 5-torus
        cfg = TorusConfig(5)
        count = sum(
            1
            for v in itertools.product(range(1, 6), repeat=2)
            if torus_distance((1, 1), v, cfg) == 2
        )
        assert count == 8
        assert ring_sizes(cfg)[1] == 8

    @pytest.mark.parametrize("N", range(3, 26))
    def test_total_and_enumeration(self, N):
        cfg = TorusConfig(N)
        sizes = ring_sizes(cfg)
        assert sizes.sum() == N * N - 1
        # exhaustive enumeration from the offset-distance table
        d = cfg.offset_dist
        dist = d[:, None] + d[None, :]
        counted = np.bincount(dist.ravel(), minlength=N + 1)
        for r in range(1, N + 1):
            assert sizes[r - 1] == (counted[r] if r < len(counted) else 0)
            assert 0 <= sizes[r - 1] <= 4 * r

    def test_odd_N_empty_top_ring(self):
        # the closed form assigns zero vertices at r = N for odd N; this
        # is a valid empty ring, not an error
        assert ring_sizes(TorusConfig(5))[4] == 0


class TestRingVertices:
    def test_axis_neighbors(self):
        got = set(ring_vertices((1, 1), 1, TorusConfig(5)))
        assert got == {(2, 1), (5, 1), (1, 2), (1, 5)}

    def test_antipodal(self):
        assert ring_vertices((1, 1), 4, TorusConfig(4)) == [(3, 3)]

    @pytest.mark.parametrize("N", [3, 5, 8])
    def test_four_axis_neighbors(self, N):
        assert len(ring_vertices((2, 2), 1, TorusConfig(N))) == 4

    @pytest.mark.parametrize("N,u", [(5, (3, 4)), (6, (1, 6)), (9, (5, 5)), (2, (1, 2)), (4, (2, 3))])
    def test_matches_brute_force(self, N, u):
        cfg = TorusConfig(N)
        for r in range(1, N + 1):
            expect = {
                v
                for v in itertools.product(range(1, N + 1), repeat=2)
                if torus_distance(u, v, cfg) == r
            }
            got = ring_vertices(u, r, cfg)
            assert len(got) == len(set(got)) == ring_sizes(cfg)[r - 1]
            assert set(got) == expect


class TestContinuous:
    def test_half_circumference(self):
        assert continuous_rho((0, 0), (0.5, 0.5)) == 1.0

    def test_wrap(self):
        assert continuous_rho((0, 0), (0.9, 0)) == pytest.approx(0.1)

    def test_coincident(self):
        assert continuous_rho((0.3, 0.7), (0.3, 0.7)) == 0.0

    def test_kernel_values(self):
        assert kernel((0, 0), 1, (0.5, 0.5), 1) == 1.0
        assert kernel((0, 0), 2, (0.25, 0), 3) == pytest.approx(24.0)

    def test_kernel_singularity(self):
        with pytest.raises(ZeroDivisionError):
            kernel((0.1, 0.2), 1, (0.1, 0.2), 1)

    @pytest.mark.parametrize("N", [3, 4, 7, 12])
    def test_rescaling_identity(self, N):
        # rho(u/N, v/N) * N reproduces the discrete distance
        cfg = TorusConfig(N)
        verts = list(itertools.product(range(1, N + 1), repeat=2))
        for u in verts:
            for v in verts:
                d = torus_distance(u, v, cfg)
                rho = continuous_rho((u[0] / N, u[1] / N), (v[0] / N, v[1] / N))
                assert rho * N == pytest.approx(d, abs=1e-9)
                if d > 0:
                    # kernel form of the same identity: kappa_1 = N / d
                    assert kernel((u[0] / N, u[1] / N), 1.0, (v[0] / N, v[1] / N), 1.0) == pytest.approx(N / d, rel=1e-12)
