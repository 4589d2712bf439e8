"""Vertex-weight distributions, edge probabilities and graph sampling.

The graph on {1,...,N}^2 puts an independent edge between u and v with
probability min{c * W_u W_v / (N d(u,v)), 1}.  Naive pair-by-pair
sampling is O(N^4); the fast path works on slots.  A slot pairs a vertex
u with one offset o out of H, which holds one of each {o, -o}, sorted by
distance ring; its key is o * n + u, so each ring owns one contiguous
key range and one decoder serves every ring.  This slot table is the
package's only ring table, cached once per N and process by
`slot_table`.  Every unordered pair is exactly one real slot.  A
self-inverse offset (o == -o, even N only) also yields a mirrored
phantom slot per pair, which is proposed like any other and then
dropped.  Vertices are grouped into dyadic weight layers of the
largest sampled weight B, and the slots of each (ring, layer) group are
proposed at the group's cap, the largest weight of the layer times B.
One random stream per graph draws the weights, a Binomial proposal
count per group, distinct slots per chunk of groups, and the thinning
of each proposal by its actual weight product, so the sampled law is
exact, not approximate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionError, ParameterError, reject_unknown_keys
from .geometry import TorusConfig, Vertex, ring_sizes

LOG2X4 = 4.0 * math.log(2.0)


# ---------------------------------------------------------------------------
# weight distributions
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _gauss_legendre(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], computed
    once per node count (an eigenvalue solve, about 20 ms at 400)."""
    x, wq = np.polynomial.legendre.leggauss(n_nodes)
    x.flags.writeable = wq.flags.writeable = False
    return x, wq


def _grid_inverse_cdf(pdf, lo, hi, n_grid: int = 1 << 14):
    """Sampler inverting the trapezoid cdf of `pdf` on a uniform grid."""
    grid = np.linspace(lo, hi, n_grid + 1)
    dens = pdf(grid)
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(grid))])
    cdf /= cdf[-1]

    def sampler(rng, n):
        return np.interp(rng.random(n), cdf, grid)

    return sampler


# the keys each kind's JSON form may carry, see WeightSpec.from_dict
_WEIGHT_KEYS = {
    "constant": {"kind", "value"},
    "discrete": {"kind", "values", "probs"},
    "truncated_exponential": {"kind", "rate", "upper", "n_nodes"},
}


class WeightSpec:
    """Distribution of the i.i.d. vertex weight W, built by the classmethods.

    Every law is read-only `atoms` and `masses`, so that
    E fn(W) = fn(atoms) @ masses, plus a sampler.  The atoms of a point
    mass or a discrete law are its values, those of a density on a
    finite interval its Gauss-Legendre nodes.  All laws have bounded
    support, so every exponential tilt E(W^k e^{sW}) is finite.
    """

    def __init__(self, kind: str, atoms: np.ndarray, masses: np.ndarray, sampler,
                 support_bound: float, params: dict | None, density=None):
        atoms.flags.writeable = masses.flags.writeable = False
        self.kind = kind
        self.atoms = atoms
        self.masses = masses
        self._sampler = sampler  # sampler(rng, n) -> n draws of W
        self.support_bound = support_bound
        self._params = params  # JSON form of the constructor call, see to_dict
        self._density = density  # (pdf, lo, hi) of a continuous law, see size_biased
        self.mean = float(atoms @ masses)
        self.second_moment = float((atoms**2) @ masses)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: float = 1.0) -> "WeightSpec":
        w = float(value)
        if w < 0:
            raise ValueError("weight must be nonnegative")
        return cls("constant", np.array([w]), np.array([1.0]), lambda rng, n: np.full(n, w),
                   w, {"kind": "constant", "value": w})

    @classmethod
    def discrete(cls, values, probs) -> "WeightSpec":
        values = np.array(values, dtype=float)
        probs = np.array(probs, dtype=float)
        if values.shape != probs.shape or values.ndim != 1:
            raise ValueError("values and probs must be 1-D arrays of equal length")
        if np.any(values < 0):
            raise ValueError("weights must be nonnegative")
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must be nonnegative and sum to 1")
        cdf = probs.cumsum() / probs.cumsum()[-1]

        def sampler(rng, n):
            # Generator.choice(values, n, p=probs)'s own draw, without its per-call checks
            return values[cdf.searchsorted(rng.random(n), side="right")]

        return cls("discrete", values, probs, sampler, float(values.max()),
                   {"kind": "discrete", "values": values.tolist(), "probs": probs.tolist()})

    @classmethod
    def continuous(cls, pdf, lo: float, hi: float, n_nodes: int = 400, sampler=None) -> "WeightSpec":
        lo, hi = float(lo), float(hi)
        if not (0 <= lo < hi < math.inf):
            raise AssumptionError(
                "continuous weights need a finite support [lo, hi) with 0 <= lo < hi"
            )
        x, wq = _gauss_legendre(int(n_nodes))
        nodes = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        qw = 0.5 * (hi - lo) * wq * pdf(nodes)
        total = qw.sum()
        if not 1 - 1e-8 < total < 1 + 1e-8:
            raise ValueError(f"density does not integrate to 1 on [{lo},{hi}]: {total}")
        # dividing by total absorbs quadrature round-off
        return cls("continuous", nodes, qw / total, sampler or _grid_inverse_cdf(pdf, lo, hi),
                   hi, None, density=(pdf, lo, hi))

    @classmethod
    def truncated_exponential(cls, rate: float = 1.0, upper: float = 8.0, n_nodes: int = 400) -> "WeightSpec":
        """Exponential(rate) conditioned on [0, upper]."""
        if rate <= 0 or upper <= 0:
            raise ValueError("rate and upper must be positive")
        Z = 1.0 - math.exp(-rate * upper)

        def pdf(x):
            return rate * np.exp(-rate * np.asarray(x)) / Z

        def sampler(rng, n):
            u = rng.random(n)
            return -np.log1p(-u * Z) / rate

        spec = cls.continuous(pdf, 0.0, upper, n_nodes, sampler)
        spec._params = {"kind": "truncated_exponential", "rate": float(rate),
                        "upper": float(upper), "n_nodes": int(n_nodes)}
        return spec

    # -- JSON form ---------------------------------------------------------

    @classmethod
    def from_dict(cls, d: dict | None) -> "WeightSpec":
        """Spec from its JSON form; None means constant weight 1.  An
        unknown kind, or a key outside the kind's keys, raises
        ParameterError."""
        if d is None:
            return cls.constant(1.0)
        kind = d.get("kind", "constant")
        if kind not in _WEIGHT_KEYS:
            raise ParameterError(f"unknown weight kind in config: {kind!r}")
        reject_unknown_keys(d, _WEIGHT_KEYS[kind], f"a {kind} weight law")
        if kind == "constant":
            return cls.constant(float(d.get("value", 1.0)))
        if kind == "discrete":
            return cls.discrete(d["values"], d["probs"])
        return cls.truncated_exponential(
            rate=float(d.get("rate", 1.0)), upper=float(d.get("upper", 8.0)),
            n_nodes=int(d.get("n_nodes", 400)),
        )

    def to_dict(self) -> dict:
        """JSON form that `from_dict` turns back into the same law.

        A continuous law built from a user density has none: the density
        is code, not data."""
        if self._params is None:
            raise ParameterError(
                "a continuous weight law built from a user density has no JSON form"
            )
        return dict(self._params)

    # -- queries -----------------------------------------------------------

    def expectation(self, fn) -> float:
        """E[fn(W)] with fn vectorized over arrays."""
        return float(fn(self.atoms) @ self.masses)

    def moment(self, k: int) -> float:
        return self.expectation(lambda x: x**k)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 0:
            raise ValueError("n must be >= 0")
        return self._sampler(rng, n)

    @functools.cached_property
    def size_biased(self) -> "WeightSpec":
        """Law of the size-biased weight: mass y dmu(y) reweighted by
        1 / E W.  A density is reweighted and gets a fresh quadrature on
        as many nodes; a one-atom law is its own size-biased law."""
        M = self.mean
        if M <= 0:
            raise ValueError("size biasing needs E W > 0")
        if self._density is not None:
            pdf, lo, hi = self._density
            return WeightSpec.continuous(lambda y: np.asarray(y) * pdf(y) / M, lo, hi, self.atoms.size)
        if self.atoms.size == 1:
            return self
        return WeightSpec.discrete(self.atoms, self.atoms * self.masses / M)

    def __repr__(self) -> str:
        if self._params is None:
            return f"WeightSpec.{self.kind}(<user density>)"
        args = ", ".join(f"{k}={v!r}" for k, v in self._params.items() if k != "kind")
        return f"WeightSpec.{self._params['kind']}({args})"


# ---------------------------------------------------------------------------
# model configuration
# ---------------------------------------------------------------------------

def lambda_of_c(c: float) -> float:
    """Mean-degree parameter: lambda = 4 c log 2."""
    if c < 0:
        raise ValueError("c must be nonnegative")
    return c * LOG2X4


def c_of_lambda(lam: float) -> float:
    """Inverse of lambda_of_c."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    return lam / LOG2X4


@dataclass
class ModelConfig:
    torus: TorusConfig
    c: float
    weights: WeightSpec = field(default_factory=WeightSpec.constant)
    seed: int = 0

    def __post_init__(self):
        # c = 0 is allowed as the degenerate empty graph
        if self.c < 0:
            raise ValueError("edge-intensity parameter c must be nonnegative")

    @classmethod
    def from_lambda(cls, N: int, lam: float, weights: WeightSpec | None = None, seed: int = 0) -> "ModelConfig":
        return cls(TorusConfig(N), c_of_lambda(lam), weights or WeightSpec.constant(), seed)

    @property
    def lam(self) -> float:
        return lambda_of_c(self.c)


def edge_probability(u: Vertex, v: Vertex, wu: float, wv: float, m: ModelConfig) -> float:
    """min{c * wu * wv / (N d(u,v)), 1}; undefined on the diagonal."""
    from .geometry import torus_distance

    d = torus_distance(u, v, m.torus)
    if d == 0:
        raise ValueError("no self-loops: u == v")
    return min(m.c * wu * wv / (m.torus.N * d), 1.0)


def lambda_N(c: float, cfg: TorusConfig) -> float:
    """Exact finite-N Poisson-domination intensity sum(-N_r log(1 - p_r)).

    Expands as lambda - 2c/N + o(1/N).  Requires p_r = c/(N r) < 1 on
    every nonempty ring (worst case r = 1), else the log diverges.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    N = cfg.N
    sizes = ring_sizes(cfg)
    r = np.arange(1, N + 1, dtype=float)
    p = c / (N * r)
    if np.any((sizes > 0) & (p >= 1.0)):
        raise ParameterError(f"p_r >= 1 on a nonempty ring: N={N} too small for c={c}")
    mask = sizes > 0
    return float(-(sizes[mask] * np.log1p(-p[mask])).sum())


def mean_degree(c: float, cfg: TorusConfig) -> float:
    """Exact expected degree sum(N_r p_r) when no probability is capped."""
    N = cfg.N
    sizes = ring_sizes(cfg)
    r = np.arange(1, N + 1, dtype=float)
    p = np.minimum(c / (N * r), 1.0)
    return float((sizes * p).sum())


# ---------------------------------------------------------------------------
# sampled graph
# ---------------------------------------------------------------------------

@dataclass
class Graph:
    """Immutable sampled graph on the N^2 torus vertices.

    Vertices are indexed 0..N^2-1 row-major over coordinates; `edges`
    holds each undirected edge once as (min, max), lexicographically
    sorted.  Adjacency (CSR) is built lazily.
    """

    N: int
    weights: np.ndarray
    edges: np.ndarray
    proposals: int = 0  # slots sample_graph drew, phantoms included; pairs the reference tried

    def __post_init__(self):
        self._indptr: np.ndarray | None = None
        self._indices: np.ndarray | None = None

    @property
    def n_vertices(self) -> int:
        return self.N * self.N

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def vertex_index(self, u: Vertex) -> int:
        return (u[0] - 1) * self.N + (u[1] - 1)

    def index_vertex(self, i: int) -> Vertex:
        return (i // self.N + 1, i % self.N + 1)

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n_vertices, dtype=np.int64)
        if self.edge_count:
            deg += np.bincount(self.edges[:, 0], minlength=self.n_vertices)
            deg += np.bincount(self.edges[:, 1], minlength=self.n_vertices)
        return deg

    def _build_adjacency(self) -> None:
        n = self.n_vertices
        if self.edge_count == 0:
            self._indptr = np.zeros(n + 1, dtype=np.int64)
            self._indices = np.empty(0, dtype=np.int64)
            return
        lo, hi = self.edges.astype(np.int64, copy=False).T
        key = np.sort(np.concatenate([lo * n + hi, hi * n + lo]))  # by (src, dst)
        counts = np.bincount(key // n, minlength=n)
        self._indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self._indices = key % n

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted neighbor indices of vertex i."""
        if self._indptr is None:
            self._build_adjacency()
        return self._indices[self._indptr[i]:self._indptr[i + 1]]

    def export_edges(self, path) -> None:
        """Edge list, one line per edge: 'u1 u2 v1 v2'."""
        with open(path, "w") as fh:
            for a, b in self.edges:
                u, v = self.index_vertex(int(a)), self.index_vertex(int(b))
                fh.write(f"{u[0]} {u[1]} {v[0]} {v[1]}\n")

    def export_weights(self, path) -> None:
        """Vertex weights, one line per vertex: 'u1 u2 w'."""
        with open(path, "w") as fh:
            for i, w in enumerate(self.weights):
                u = self.index_vertex(i)
                fh.write(f"{u[0]} {u[1]} {float(w)!r}\n")


# ---------------------------------------------------------------------------
# candidate-pair slots: each unordered pair in exactly one real slot
# ---------------------------------------------------------------------------

class SlotTable:
    """Candidate-pair slots of the N-torus, one per (half-offset, vertex).

    `di`, `dj` hold H: one of each {o, -o} over all nonzero offsets o,
    self-inverse ones (o == -o, even N only) included, sorted by ring.
    Ring r owns H[ring_start[r]:ring_start[r + 1]].  The slot key
    o * n + u (o an index into H, u a vertex index) names the pair
    (u, u + H[o]), so ring r owns the key range
    [n * ring_start[r], n * ring_start[r + 1]).  A self-inverse offset
    names each of its pairs twice, as (u, v) and (v, u); the copy with
    u > v is a phantom slot (3n/2 of them for even N, none for odd N).
    """

    def __init__(self, cfg: TorusConfig):
        N = cfg.N
        self.N, self.n = N, cfg.n_vertices
        di, dj = np.divmod(np.arange(1, self.n), N)
        keep = di * N + dj <= (-di % N) * N + (-dj % N)
        d = cfg.offset_dist
        dist = d[di[keep]] + d[dj[keep]]
        order = np.argsort(dist, kind="stable")
        self.di, self.dj = di[keep][order], dj[keep][order]
        self.self_inverse = (2 * self.di % N == 0) & (2 * self.dj % N == 0)
        self.ring_start = np.searchsorted(dist[order], np.arange(cfg.max_dist + 2))
        self.ring = np.arange(1, cfg.max_dist + 1)  # the nonempty rings r
        self.ring_len = np.diff(self.ring_start[1:])  # |H_r|, their half-offset counts

    def decode(self, key: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u, v, real) vertex indices of slot keys; `real` is False only
        on the phantom copy of a self-inverse pair."""
        o, u = np.divmod(key, self.n)
        return self.pair(o, u)

    def pair(self, o: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`decode` of the slots (o, u), given as half-offset and vertex indices."""
        N = self.N
        i, j = np.divmod(u, N)
        v = (i + self.di[o]) % N * N + (j + self.dj[o]) % N
        return u, v, (u < v) | ~self.self_inverse[o]


@functools.lru_cache(maxsize=4)
def slot_table(N: int) -> SlotTable:
    """The slot table of the N-torus, built once per N and process."""
    return SlotTable(TorusConfig(N))


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

MAX_LAYER = 12  # weights at most B / 2^12 share the lowest layer, zero included
CHUNK = 1 << 14  # proposals per batch of consecutive (ring, layer) groups


def _uniform_distinct(rng: np.random.Generator, start: np.ndarray, size: np.ndarray,
                      k: np.ndarray) -> np.ndarray:
    """Sorted union over groups i of a uniform k[i]-subset of
    [start[i], start[i] + size[i]); the ranges are disjoint and ascending.
    Dense groups (3k >= size) take the first k[i] of their slots in one
    uniform permutation of all dense slots; the relative orders of
    disjoint sets in it are independent and uniform.  The other groups
    draw with replacement and redraw only the collided entries, which is
    the sequential rejection scheme in batched form.  Either way each
    group's subset has a law invariant under permutations of its range,
    hence uniform, independently across groups."""
    dense = 3 * k >= size
    parts = []
    d, s = dense.nonzero()[0], (~dense).nonzero()[0]
    if d.size:
        off = size[d].cumsum() - size[d]  # dense group i holds off[i] + range(size[d[i]])
        perm = rng.permutation(off[-1] + size[d[-1]])
        grp = off.searchsorted(perm, side="right") - 1
        by = grp.argsort(kind="stable")  # by group, in permutation order
        g = grp[by]
        first = np.arange(by.size) - off[g] < k[d][g]
        parts.append(perm[by][first] + (start[d] - off)[g[first]])
    if s.size:
        s = s.repeat(k[s])
        parts.append(start[s] + rng.integers(0, size[s]))
    x = np.sort(np.concatenate(parts))
    while True:
        dup = x[1:] == x[:-1]
        i = dup.nonzero()[0]
        if not i.size:
            return x
        grp = start.searchsorted(x[i], side="right") - 1
        x = np.sort(np.concatenate([x[:-1][~dup], x[-1:], start[grp] + rng.integers(0, size[grp])]))


def sample_graph(m: ModelConfig, seed: int | None = None) -> Graph:
    """Sample the graph by layered ring thinning; exact and near-linear.

    One Philox stream per graph: the vertex weights first, then the
    proposal counts of all (ring, weight layer) groups in one Binomial
    call, then per chunk of groups the distinct slots and their thinning
    uniforms.  With B the largest sampled weight, vertex u sits in the
    dyadic layer a = floor(log2(B / W_u)), capped at MAX_LAYER, and M_a
    is the largest weight in layer a.  Every slot (o, u) of ring r with u
    in layer a is proposed independently with
    q = min{c M_a B / (N r), 1}: a Binomial(P, q) count of distinct slots
    drawn uniformly among the group's P = |H_r| n_a.  Phantom slots are
    dropped and each real one is kept with p(u,v) / q <= 1 (W_u <= M_a,
    W_v <= B), which gives every pair its exact edge probability.  When
    every weight exceeds B/2 there is one layer, whose keys are the slot
    keys themselves; when every weight equals B, p(u,v) = q and no
    thinning draw is made.

    Groups are handled in chunks of consecutive groups of about CHUNK
    proposals each, which bounds memory.  Measured with numpy 2.4 on a
    2-core Xeon, against proposing every slot at the one cap
    c B^2 / (N r) ring by ring: at N=400, lambda=0.3 with
    truncated_exponential(1, 8) weights a graph takes about 11.5
    proposals per edge instead of 61, 0.04 s instead of 0.15 s, and a
    5.1 MB allocation peak instead of 3.7 MB; at N=800, lambda=2 with
    constant weights 0.08 s instead of 0.10 s, with a 49 MB peak both
    ways.  `Graph.proposals` records the number of slots drawn.
    """
    cfg = m.torus
    N, n = cfg.N, cfg.n_vertices
    rng = np.random.Generator(np.random.Philox(m.seed if seed is None else seed))
    weights = m.weights.sample(n, rng)
    B, low = float(weights.max()), float(weights.min())

    if low == B or 2 * low > B:  # one layer: equal weights (zero included) or all above B/2
        order, sizes = None, np.array([n])
    else:  # B > 0; weights at most B / 2^MAX_LAYER, zero included, get ratio 2^MAX_LAYER
        layer = np.floor(np.log2(B / np.maximum(weights, B / 2**MAX_LAYER))).astype(np.int8)
        order = layer.argsort(kind="stable")
        sizes = np.bincount(layer)
        sizes = sizes[sizes > 0]
    L, base = sizes.size, np.cumsum(sizes) - sizes
    top = np.array([B]) if order is None else np.maximum.reduceat(weights[order], base)

    # groups (ring, layer), ring-major; group g owns the keys [start[g], start[g] + size[g])
    slots = slot_table(N)
    H = slots.ring_len[:, None]
    size = (H * sizes).ravel()
    start = (n * slots.ring_start[1:-1, None] + H * base).ravel()
    ring_scale = m.c / (N * slots.ring[:, None])  # p(u,v) = min{ring_scale W_u W_v, 1}
    q = np.minimum(ring_scale * (top * B), 1.0).ravel()
    scale = ring_scale.repeat(L)
    counts = rng.binomial(size, q)
    thin = low < B

    proposals = int(counts.sum())
    nz = counts.nonzero()[0]
    chunks = [nz] if nz.size else []
    if proposals > CHUNK:
        before = np.cumsum(counts[nz]) - counts[nz]
        chunks = np.split(nz, np.diff(before // CHUNK).nonzero()[0] + 1)
    srcs: list[np.ndarray] = []
    dsts: list[np.ndarray] = []
    for g in chunks:
        key = _uniform_distinct(rng, start[g], size[g], counts[g])
        gi = np.repeat(g, counts[g])
        if order is None:  # one layer: the keys are slot keys o * n + u
            u, v, keep = slots.decode(key)
        else:
            ring, a = np.divmod(gi, L)
            o, t = np.divmod(key - start[gi], sizes[a])
            u, v, keep = slots.pair(slots.ring_start[1 + ring] + o, order[base[a] + t])
        if thin:  # U q < p(u,v), as p(u,v) <= q, and q = 1 wherever scale W_u W_v > 1
            keep &= rng.random(key.size) * q[gi] < scale[gi] * (weights[u] * weights[v])
        srcs.append(u[keep])
        dsts.append(v[keep])

    if srcs:
        u = np.concatenate(srcs)
        v = np.concatenate(dsts)
        # sorting lo*n + hi (< n^2, fits int64) is lexicographic order on (lo, hi) as hi < n
        key = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
        edges = np.stack([key // n, key % n], axis=1)
    else:
        edges = np.empty((0, 2), dtype=np.int64)
    return Graph(N, weights, edges, proposals)


def sample_graph_reference(m: ModelConfig, seed: int | None = None) -> Graph:
    """O(N^4) per-pair reference sampler (small N only).

    Walks every unordered pair in canonical index order.  The weights
    come first from the same stream as in `sample_graph`, so both
    samplers see the same weights for a seed.
    """
    cfg = m.torus
    N, n = cfg.N, cfg.n_vertices
    if n > 4096:
        raise ParameterError("reference sampler is O(N^4); use sample_graph for N > 64")
    rng = np.random.Generator(np.random.Philox(m.seed if seed is None else seed))
    weights = m.weights.sample(n, rng)

    d = cfg.offset_dist
    idx = np.arange(n)
    i, j = idx // N, idx % N
    dist = d[np.abs(i[:, None] - i[None, :])] + d[np.abs(j[:, None] - j[None, :])]
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            p = min(m.c * weights[a] * weights[b] / (N * dist[a, b]), 1.0)
            if rng.random() < p:
                edges.append((a, b))
    arr = np.array(edges, dtype=np.int64) if edges else np.empty((0, 2), dtype=np.int64)
    return Graph(N, weights, arr, n * (n - 1) // 2)
