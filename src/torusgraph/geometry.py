"""Exact geometry of the 2-D discrete torus and its continuous rescaling.

Vertices live on {1,...,N}^2 with coordinate-wise wrap-around; distance is
the folded L1 metric d(u,v) = d_N(|u1-v1|) + d_N(|u2-v2|) where
d_N(i) = i for i <= N/2 and N - i above.  Ring sizes (number of vertices
at distance exactly r from a fixed vertex) have closed forms that differ
by parity of N.  Rescaling vertices by 1/N embeds them in the continuous
torus [0,1)^2 with metric rho; the inverse-distance kernel on that torus
reproduces the discrete edge probabilities exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, integer

Vertex = tuple[int, int]
ContinuousPoint = tuple[float, float]


class TorusConfig:
    """Side length N and the folded distance of a coordinate offset.

    Cheap to build: the sampler's ring table lives in `model.slot_table`,
    cached there once per N."""

    def __init__(self, N: int):
        self.N = integer(N, "N", 2)
        if self.N > 46340:  # vertices are numbered in int32, so N^2 < 2^31
            raise ParameterError(f"N must be <= 46340, got {N!r}")
        i = np.arange(self.N)
        # folded distance d_N(i) of a single-coordinate offset i; for even
        # N both branches give N/2 at i = N/2.  |u1 - v1| <= N - 1, so
        # offsets 0..N-1 cover every coordinate difference.
        self.offset_dist = np.where(2 * i <= self.N, i, self.N - i).astype(np.int64)

    @property
    def n_vertices(self) -> int:
        return self.N * self.N

    @property
    def max_dist(self) -> int:
        """Largest r with a nonempty ring: N for even N, N - 1 for odd N."""
        return 2 * (self.N // 2)

    def __repr__(self) -> str:
        return f"TorusConfig(N={self.N})"


def _check_vertex(u: Vertex, N: int) -> None:
    if not (1 <= u[0] <= N and 1 <= u[1] <= N):
        raise ValueError(f"vertex {u} outside {{1,...,{N}}}^2")


def torus_distance(u: Vertex, v: Vertex, cfg: TorusConfig) -> int:
    """Folded L1 distance between two vertices of the N-torus."""
    _check_vertex(u, cfg.N)
    _check_vertex(v, cfg.N)
    d = cfg.offset_dist
    return int(d[(u[0] - v[0]) % cfg.N] + d[(u[1] - v[1]) % cfg.N])


def ring_sizes(cfg: TorusConfig) -> np.ndarray:
    """Number of vertices at distance exactly r from any fixed vertex, for
    r = 1..N as an array (index 0 <-> r = 1).

    Closed form 4 min(r, N - r), except for even N at r = N/2, where the
    two folds meet (2(N - 1)), and at r = N, the unique antipodal vertex.
    For odd N the ring r = N is a valid empty ring.
    """
    N = cfg.N
    r = np.arange(1, N + 1, dtype=np.int64)
    sizes = 4 * np.minimum(r, N - r)
    if N % 2 == 0:
        sizes[N // 2 - 1] = 2 * (N - 1)
        sizes[N - 1] = 1
    return sizes


def ring_vertices(u: Vertex, r: int, cfg: TorusConfig) -> list[Vertex]:
    """All vertices at distance exactly r from u (no duplicates)."""
    _check_vertex(u, cfg.N)
    if not 1 <= r <= cfg.N:
        raise ValueError(f"ring index r={r} outside [1, {cfg.N}]")
    N, d = cfg.N, cfg.offset_dist
    di, dj = np.nonzero(d[:, None] + d[None, :] == r)  # offsets in {0..N-1}^2 at distance r
    return [(int(a) + 1, int(b) + 1) for a, b in zip((u[0] - 1 + di) % N, (u[1] - 1 + dj) % N)]


def continuous_rho(p: ContinuousPoint, q: ContinuousPoint) -> float:
    """Folded L1 metric on the continuous torus [0,1)^2; values in [0,1]."""

    def rho1(a: float) -> float:
        a = abs(a) % 1.0
        return a if a <= 0.5 else 1.0 - a

    return rho1(p[0] - q[0]) + rho1(p[1] - q[1])


def kernel(p: ContinuousPoint, wp: float, q: ContinuousPoint, wq: float) -> float:
    """Edge-intensity kernel wp*wq / rho(p,q) on the continuous torus.

    Undefined on the diagonal: rho(p,q) = 0 raises.
    """
    if wp < 0 or wq < 0:
        raise ValueError("weights must be nonnegative")
    rho = continuous_rho(p, q)
    if rho == 0.0:
        raise ZeroDivisionError("kernel is singular at coincident points")
    return wp * wq / rho
