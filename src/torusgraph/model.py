"""Vertex-weight distributions, edge probabilities and graph sampling.

The graph on {1,...,N}^2 puts an independent edge between u and v with
probability min{c * W_u W_v / (N d(u,v)), 1}.  Naive pair-by-pair
sampling is O(N^4); the fast path works on slots.  A slot pairs a vertex
u with one nonzero offset o, sorted by distance ring; its key is
o * n + u, so each ring owns one contiguous key range and one decoder
serves every ring.  This slot table is the package's only ring table,
cached once per N and process by `slot_table`, and it has two views.
In the half view (one of each {o, -o}, each ring's prefix) every
unordered pair is exactly one real slot; a self-inverse offset
(o == -o, even N only) also yields a mirrored phantom slot per pair,
which is proposed like any other and then dropped.  In the full view
every pair is two slots, one from each end, and only the one from its
owner, the heavier endpoint, is kept.  Vertices fall into weight
layers, four per octave below the largest sampled weight B, and the
slots of each (ring, layer) group are proposed at the group's cap: M_a B
in the half view, M_a^2 in the full view, M_a the layer's top weight.
Each graph takes the view with the smaller expected proposal count,
decided from its weights alone.  One random stream per graph draws the
weights, a Poisson proposal count per group, uniform slots per chunk of
groups with repeats merged, and the thinning of each proposal by its
actual weight product, so the sampled law is exact, not approximate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix

from .errors import ParameterError, integer, number, reject_unknown_keys
from .geometry import TorusConfig, Vertex, ring_sizes, torus_distance

LOG2X4 = 4.0 * math.log(2.0)
MAX_NODES = 4096  # leggauss(n) eigen-solves a dense n x n matrix, about 5 s and 275 MB at 4000


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


def _discrete_sampler(values: np.ndarray, probs: np.ndarray):
    """Sampler of the law with mass probs[i] at values[i]: Generator.choice's
    own draw, without its per-call checks."""
    cdf = probs.cumsum() / probs.cumsum()[-1]

    def sampler(rng, n):
        return values[cdf.searchsorted(rng.random(n), side="right")]

    return sampler


# the keys each kind's JSON form may carry, see WeightSpec.from_dict
_WEIGHT_KEYS = {
    "constant": {"kind", "value"},
    "discrete": {"kind", "values", "probs"},
    "truncated_exponential": {"kind", "rate", "upper", "n_nodes"},
}


class WeightSpec:
    """Distribution of the i.i.d. vertex weight W, built by the classmethods.

    A law is read-only `atoms` and `masses`, so that
    E fn(W) = fn(atoms) @ masses, a sampler of W, and a sampler of its
    size-biased law (see `size_biased`).  The atoms of a point mass or a
    discrete law are its values, those of a truncated exponential its
    Gauss-Legendre nodes.  All laws have bounded support, so every
    exponential tilt E(W^k e^{sW}) is finite.
    """

    def __init__(self, kind: str, atoms: np.ndarray, masses: np.ndarray, sampler,
                 support_bound: float, params: dict | None, tilde_sampler=None, on_atoms=True):
        atoms.flags.writeable = masses.flags.writeable = False
        self.kind = kind
        self.atoms = atoms
        self.masses = masses
        self._sampler = sampler  # sampler(rng, n) -> n draws of W
        self._tilde_sampler = tilde_sampler  # the same for W's size-biased law, see size_biased
        self._on_atoms = on_atoms  # whether W takes only the values in atoms, not quadrature nodes
        self.support_bound = support_bound
        self._params = params  # JSON form of the constructor call, see to_dict
        if not support_bound * support_bound < math.inf:  # then no atom's square overflows
            raise ParameterError(f"E W^2 must be finite, but weights reach {support_bound:g}")
        live = masses > 0  # expectation skips massless atoms, where fn may overflow
        self._live = (atoms, masses) if live.all() else (atoms[live], masses[live])
        self.mean = float(atoms @ masses)
        self.second_moment = float((atoms**2) @ masses)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: float = 1.0) -> "WeightSpec":
        w = float(value)
        if not 0 <= w < math.inf:
            raise ValueError(f"weight must be nonnegative and finite, got {w}")
        return cls("constant", np.array([w]), np.array([1.0]), lambda rng, n: np.full(n, w),
                   w, {"kind": "constant", "value": w})

    @classmethod
    def discrete(cls, values, probs) -> "WeightSpec":
        values = np.array(values, dtype=float)
        probs = np.array(probs, dtype=float)
        if values.shape != probs.shape or values.ndim != 1:
            raise ValueError("values and probs must be 1-D arrays of equal length")
        if not np.all((values >= 0) & (values < math.inf)):
            raise ValueError("weights must be nonnegative and finite")
        if not (np.all(probs >= 0) and abs(probs.sum() - 1.0) <= 1e-12):
            raise ValueError("probabilities must be nonnegative and sum to 1")
        return cls("discrete", values, probs, _discrete_sampler(values, probs), float(values.max()),
                   {"kind": "discrete", "values": values.tolist(), "probs": probs.tolist()})

    @classmethod
    def truncated_exponential(cls, rate: float = 1.0, upper: float = 8.0, n_nodes: int = 400) -> "WeightSpec":
        """Exponential(rate) conditioned on [0, upper], on n_nodes
        Gauss-Legendre nodes.  Its size-biased law, density proportional to
        y e^{-rate y} on [0, upper], is Gamma(2, 1/rate) given <= upper, and
        equally W1 + W2 given W1 + W2 <= upper for independent copies of W.
        It proposes the first when rate * upper >= 2, else the second,
        which is accepted with probability >= 1/2 where the Gamma's
        acceptance falls to 0.  A Gamma proposal costs about half a pair of
        W draws; in the few-draw calls of the progeny walks it is the
        faster one from rate * upper of about 1.5 up."""
        rate, upper = float(rate), float(upper)
        if not (rate > 0 and 0 < upper < math.inf):
            raise ValueError("rate must be positive, upper positive and finite")
        if n_nodes > MAX_NODES:
            raise ValueError(f"n_nodes must be <= {MAX_NODES}, got {n_nodes}")
        Z = 1.0 - math.exp(-rate * upper)
        x, wq = _gauss_legendre(int(n_nodes))
        nodes = 0.5 * upper * x + 0.5 * upper
        qw = 0.5 * upper * wq * (rate * np.exp(-rate * nodes) / Z)
        total = qw.sum()
        if not 1 - 1e-8 < total < 1 + 1e-8:
            raise ValueError(f"density does not integrate to 1 on [0,{upper}]: {total}")

        def sampler(rng, n):
            u = rng.random(n)
            return -np.log1p(-u * Z) / rate

        def gamma2(rng, n):
            return rng.gamma(2.0, 1.0 / rate, n)

        def pair_sum(rng, n):
            y = sampler(rng, 2 * n)
            return y[:n] + y[n:]

        propose = gamma2 if rate * upper >= 2 else pair_sum

        def tilde_sampler(rng, n):  # only the rejected entries are redrawn
            y = propose(rng, n)
            bad = (y > upper).nonzero()[0]
            while bad.size:
                z = propose(rng, bad.size)
                y[bad] = z
                bad = bad[z > upper]
            return y

        # dividing by total absorbs quadrature round-off
        return cls("truncated_exponential", nodes, qw / total, sampler, upper,
                   {"kind": "truncated_exponential", "rate": rate, "upper": upper,
                    "n_nodes": int(n_nodes)}, tilde_sampler, on_atoms=False)

    # -- JSON form ---------------------------------------------------------

    @classmethod
    def from_dict(cls, d: dict | None) -> "WeightSpec":
        """Spec from its JSON form; None means constant weight 1.  A form
        that is not an object, an unknown kind, a key outside the kind's
        keys, or a value of the wrong JSON type raises ParameterError."""
        if d is None:
            return cls.constant(1.0)
        if not isinstance(d, dict):
            raise ParameterError(f"a weight law must be a JSON object, got {d!r}")
        kind = d.get("kind", "constant")
        if not isinstance(kind, str) or kind not in _WEIGHT_KEYS:
            raise ParameterError(f"unknown weight kind in config: {kind!r}")
        reject_unknown_keys(d, _WEIGHT_KEYS[kind], f"a {kind} weight law")
        if kind == "constant":
            return cls.constant(number(d.get("value", 1.0), "value"))
        if kind == "discrete":
            lists = []
            for key in ("values", "probs"):
                if not isinstance(d.get(key), list):
                    raise ParameterError(f"{key} must be a list of numbers, got {d.get(key)!r}")
                lists.append([number(x, f"{key}[{i}]") for i, x in enumerate(d[key])])
            return cls.discrete(*lists)
        return cls.truncated_exponential(
            rate=number(d.get("rate", 1.0), "rate"), upper=number(d.get("upper", 8.0), "upper"),
            n_nodes=integer(d.get("n_nodes", 400), "n_nodes", 1),
        )

    def to_dict(self) -> dict:
        """JSON form that `from_dict` turns back into the same law.

        A size-biased law has none: it is derived from a law that has."""
        if self._params is None:
            raise ParameterError("a size-biased weight law has no JSON form")
        return dict(self._params)

    # -- queries -----------------------------------------------------------

    def expectation(self, fn) -> float:
        """E[fn(W)] with fn vectorized over arrays: the sum over the atoms
        of positive mass."""
        atoms, masses = self._live
        return float(fn(atoms) @ masses)

    def moment(self, k: int) -> float:
        return self.expectation(lambda x: x**k)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 0:
            raise ValueError("n must be >= 0")
        return self._sampler(rng, n)

    @functools.cached_property
    def size_biased(self) -> "WeightSpec":
        """Law of the size-biased weight, y mu(dy) / E W: W's own atoms
        with masses atoms * masses / E W.  It is drawn by the sampler the
        law supplies, exact for every constructor law.  A law that takes
        only the values in its atoms (a point mass, a discrete law and
        their size-biased laws) supplies none and draws from those masses.
        The size-biased law of a truncated exponential's size-biased law
        has neither, as its atoms are quadrature nodes, and raises
        ValueError.  A one-atom law is its own size-biased law."""
        M = self.mean
        if M <= 0:
            raise ValueError("size biasing needs E W > 0")
        if self.atoms.size == 1:
            return self
        if self._tilde_sampler is None and not self._on_atoms:
            raise ValueError("no exact sampler for this size-biased law: its atoms are quadrature nodes")
        masses = self.atoms * self.masses / M
        sampler = self._tilde_sampler or _discrete_sampler(self.atoms, masses)
        return WeightSpec("size_biased", self.atoms, masses, sampler, self.support_bound, None,
                          on_atoms=self._on_atoms)

    def __repr__(self) -> str:
        if self._params is None:
            return f"WeightSpec.size_biased(<{self.atoms.size} atoms>)"
        args = ", ".join(f"{k}={v!r}" for k, v in self._params.items() if k != "kind")
        return f"WeightSpec.{self._params['kind']}({args})"


# ---------------------------------------------------------------------------
# model configuration
# ---------------------------------------------------------------------------

def lambda_of_c(c: float) -> float:
    """Mean-degree parameter: lambda = 4 c log 2."""
    if not 0 <= c < math.inf:
        raise ValueError(f"c must be nonnegative and finite, got {c}")
    return c * LOG2X4


def c_of_lambda(lam: float) -> float:
    """Inverse of lambda_of_c."""
    if not 0 < lam < math.inf:
        raise ValueError(f"lambda must be positive and finite, got {lam}")
    return lam / LOG2X4


@dataclass
class ModelConfig:
    torus: TorusConfig
    c: float
    weights: WeightSpec = field(default_factory=WeightSpec.constant)
    seed: int = 0

    def __post_init__(self):
        # c = 0 is allowed as the degenerate empty graph
        if not 0 <= self.c < math.inf:
            raise ValueError(f"edge-intensity c must be nonnegative and finite, got {self.c}")
        if self.seed < 0:  # numpy's seeding would raise only when the graph is sampled
            raise ParameterError(f"seed must be >= 0, got {self.seed}")

    @classmethod
    def from_lambda(cls, N: int, lam: float, weights: WeightSpec | None = None, seed: int = 0) -> "ModelConfig":
        return cls(TorusConfig(N), c_of_lambda(lam), weights or WeightSpec.constant(), seed)


def ring_scale(c: float, N: int) -> np.ndarray:
    """The distance profile a_r = c / (N r) of the rings r = 1..N, at index
    r - 1: the only place the distance enters p(u,v) = min{a_d(u,v) W_u W_v, 1}."""
    return c / (N * np.arange(1, N + 1))


def edge_probability(u: Vertex, v: Vertex, wu: float, wv: float, m: ModelConfig) -> float:
    """min{a_d wu wv, 1}, a_d = ring_scale(c, N)[d(u,v) - 1]; undefined on the diagonal."""
    d = torus_distance(u, v, m.torus)
    if d == 0:
        raise ValueError("no self-loops: u == v")
    return min(float(ring_scale(m.c, m.torus.N)[d - 1]) * wu * wv, 1.0)


def lambda_N(c: float, cfg: TorusConfig) -> float:
    """Exact finite-N Poisson-domination intensity sum(-N_r log(1 - p_r)).

    Expands as lambda - 2c/N + o(1/N).  Requires p_r = c/(N r) < 1 on
    every nonempty ring (worst case r = 1), else the log diverges.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    N = cfg.N
    sizes = ring_sizes(cfg)
    p = ring_scale(c, N)
    if np.any((sizes > 0) & (p >= 1.0)):
        raise ParameterError(f"p_r >= 1 on a nonempty ring: N={N} too small for c={c}")
    mask = sizes > 0
    return float(-(sizes[mask] * np.log1p(-p[mask])).sum())


def mean_degree(c: float, cfg: TorusConfig) -> float:
    """Exact expected degree sum(N_r p_r) when no probability is capped."""
    p = np.minimum(ring_scale(c, cfg.N), 1.0)
    return float((ring_sizes(cfg) * p).sum())


# ---------------------------------------------------------------------------
# sampled graph
# ---------------------------------------------------------------------------

@dataclass
class Graph:
    """Immutable sampled graph on the N^2 torus vertices.

    Vertices are indexed 0..N^2-1 row-major over coordinates; `edges`
    holds each undirected edge once as (min, max), lexicographically
    sorted.  The CSR adjacency is built lazily, once.
    """

    N: int
    weights: np.ndarray
    edges: np.ndarray
    proposals: int = 0  # distinct slots sample_graph proposed (phantom, non-owner too); pairs the reference tried
    full: bool = False  # whether sample_graph proposed it in the full view of SlotTable

    @property
    def n_vertices(self) -> int:
        return self.N * self.N

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n_vertices)

    @functools.cached_property
    def adjacency(self) -> csr_matrix:
        """Symmetric CSR adjacency matrix; each row's indices come out sorted."""
        i, j = np.concatenate([self.edges, self.edges[:, ::-1]]).T
        return coo_matrix((np.ones(i.size, dtype=np.int8), (i, j)), shape=(self.n_vertices,) * 2).tocsr()

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted neighbor indices of vertex i."""
        a = self.adjacency
        return a.indices[a.indptr[i]:a.indptr[i + 1]]

    def export_edges(self, file) -> None:
        """Edge list to a path or an open file, one line per edge: 'u1 u2 v1 v2'."""
        e = self.edges.astype(np.int64)
        np.savetxt(file, np.stack([e // self.N, e % self.N], axis=2).reshape(-1, 4) + 1, fmt="%d")

    def export_weights(self, file) -> None:
        """Vertex weights to a path or an open file, one line per vertex:
        'u1 u2 w', with w in the shortest form that reads back exactly."""
        i = np.arange(self.n_vertices)
        np.savetxt(file, np.column_stack([i // self.N + 1, i % self.N + 1, self.weights]), fmt=["%d", "%d", "%s"])


# ---------------------------------------------------------------------------
# candidate-pair slots: two views of one offset table
# ---------------------------------------------------------------------------

class SlotTable:
    """Candidate-pair slots of the N-torus, one per (offset, vertex).

    `di`, `dj` (int32) hold every nonzero offset, sorted by ring; within
    a ring the half-offsets H_r come first, one of each {o, -o} with
    self-inverse ones (o == -o, even N only) included, and the other
    offsets follow.  Ring r owns F_r = table[ring_start[r]:ring_start[r + 1]],
    |F_r| = ring_full[r - 1], and its first ring_len[r - 1] = |H_r|
    offsets are H_r.  The slot key o * n + u (o an index into the table,
    u a vertex index) names the pair (u, u + table[o]), so ring r owns
    the key range [n * ring_start[r], n * ring_start[r + 1]).

    The half view is each ring's prefix H_r: every unordered pair is one
    slot, except that a self-inverse offset names each of its pairs
    twice, as (u, v) and (v, u), and the copy with u > v is a phantom
    slot (3n/2 of them for even N, none for odd N).  The full view is all
    of F_r: every pair {u, v} is exactly two slots, (o, u) and (-o, v)
    (or (o, v) for a self-inverse o), and only the one from the pair's
    owner, its heavier endpoint, proposes it.  `owns` holds both rules.
    """

    def __init__(self, cfg: TorusConfig):
        N = cfg.N
        self.N, self.n = N, cfg.n_vertices
        di, dj = np.divmod(np.arange(1, self.n), N)
        half = di * N + dj <= (-di % N) * N + (-dj % N)
        d = cfg.offset_dist
        dist = d[di] + d[dj]
        order = np.argsort(2 * dist + ~half, kind="stable")  # by ring, H_r first
        self.di, self.dj = di[order].astype(np.int32), dj[order].astype(np.int32)
        self.self_inverse = (2 * self.di % N == 0) & (2 * self.dj % N == 0)
        self.ring_start = np.searchsorted(dist[order], np.arange(cfg.max_dist + 2))
        self.ring_full = np.diff(self.ring_start[1:])  # |F_r| of the nonempty rings r
        self.ring_len = np.bincount(dist[half], minlength=cfg.max_dist + 1)[1:]  # |H_r|

    def decode(self, key: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(o, u, v) of slot keys: offset index, vertex and its partner."""
        o = key // self.n
        u = key - o * self.n
        return o, u, self.partner(o, u)

    def partner(self, o: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Vertex index of u + table[o].  Division-free past one scalar
        floor division: each coordinate sum is below 2N, so it wraps by
        one compare-and-subtract instead of a `% N`."""
        N = self.N
        i = u // N
        a = i + self.di[o]
        a -= N * (a >= N)
        b = u - i * N + self.dj[o]
        b -= N * (b >= N)
        return a * N + b

    def owns(self, o: np.ndarray, u: np.ndarray, v: np.ndarray,
             weights: np.ndarray | None = None) -> np.ndarray:
        """Whether slot (o, u) proposes its pair (u, v).  Half view
        (weights None): all but the phantom copy of a self-inverse pair.
        Full view: only the owner, W_u > W_v with ties to u < v."""
        if weights is None:
            return (u < v) | ~self.self_inverse[o]
        wu, wv = weights[u], weights[v]
        return (wu > wv) | ((wu == wv) & (u < v))


@functools.lru_cache(maxsize=4)
def slot_table(N: int) -> SlotTable:
    """The slot table of the N-torus, built once per N and process."""
    return SlotTable(TorusConfig(N))


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

MAX_LAYER = 12  # weights at most B / 2^12 share the lowest layer, zero included
LAYERS_PER_OCTAVE = 4  # a layer top rounds a weight up by less than 2^(1/4)
CHUNK = 1 << 14  # proposals per batch of consecutive (ring, layer) groups
EVERY_SLOT = 1 - math.exp(-1)  # caps above it propose each slot once: there -P log(1 - q) > P


def _weight_layers(weights: np.ndarray) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """(order, sizes, top) of the weight layers, LAYERS_PER_OCTAVE = K per
    octave: vertex u sits in layer floor(K log2(B / W_u)), capped at
    K MAX_LAYER, with B the largest weight; `order` lists the vertices
    layer by layer (None when there is one layer), `sizes` and `top` hold
    each nonempty layer's vertex count and largest weight M_a."""
    B, low = float(weights.max()), float(weights.min())
    # one layer: equal weights (zero included) or all above B 2^(-1/K)
    if low == B or low > B * 2 ** (-1 / LAYERS_PER_OCTAVE):
        return None, np.array([weights.size]), np.array([B])
    # B > 0; weights at most B / 2^MAX_LAYER, zero included, get ratio 2^MAX_LAYER
    ratio = np.log2(B / np.maximum(weights, B / 2**MAX_LAYER))
    layer = np.floor(LAYERS_PER_OCTAVE * ratio).astype(np.int8)  # at most K MAX_LAYER = 48
    order = layer.argsort(kind="stable")
    sizes = np.bincount(layer)
    sizes = sizes[sizes > 0]
    return order, sizes, np.maximum.reduceat(weights[order], np.cumsum(sizes) - sizes)


def _slot_view(slots: SlotTable, a_r: np.ndarray, sizes: np.ndarray,
               top: np.ndarray) -> tuple[bool, np.ndarray]:
    """(full, q): whether the full view is expected to propose strictly
    fewer slots than the half view, and the chosen view's caps q of the
    (ring, layer) groups.  A half-view slot (o, u) with u in layer a caps
    W_u W_v by M_a B, a full-view one, kept only from the owner, by M_a^2.
    With one layer the caps agree and |F_r| >= |H_r|, so the half view
    stays without a comparison."""
    half = np.minimum(a_r * (top * top[0]), 1.0)
    if top.size == 1:
        return False, half
    full = np.minimum(a_r * (top * top), 1.0)
    cheaper = (slots.ring_full @ full @ sizes) < (slots.ring_len @ half @ sizes)
    return bool(cheaper), full if cheaper else half


def sample_graph(m: ModelConfig, seed: int | None = None) -> Graph:
    """Sample the graph by layered ring thinning; exact and near-linear.

    One Philox stream per graph: the vertex weights first, then the
    proposal counts of all (ring, weight layer) groups in one Poisson
    call, then per chunk of groups the slots and their thinning uniforms.
    With B the largest sampled weight, vertex u sits in the layer
    a = floor(K log2(B / W_u)), K = LAYERS_PER_OCTAVE, capped at
    K MAX_LAYER, and M_a, the largest weight in layer a, rounds W_u up by
    less than 2^(1/K) above B / 2^MAX_LAYER.  Every slot (o, u) of ring r
    with u in layer a is proposed independently with probability q among
    the group's P = |V_r| n_a slots, where V_r is the ring's offsets in
    the chosen view of `SlotTable`.  The group draws a
    Poisson(-P log(1 - q)) count of slots uniformly with replacement and
    proposes each slot hit once: the per-slot hit counts are then i.i.d.
    Poisson(-log(1 - q)), so a slot is hit with probability exactly q.
    A group with q above EVERY_SLOT = 1 - 1/e, where that count's mean
    would exceed P, proposes each of its slots once instead and thins
    with q = 1, so no group draws more than about twice its expected
    proposals.

    - Half view, V_r = H_r, q = min{c M_a B / (N r), 1}: phantom slots
      are dropped.
    - Full view, V_r = F_r, q = min{c M_a^2 / (N r), 1}: a slot is kept
      only from its pair's owner (W_v <= W_u <= M_a), so each pair is
      still proposed from exactly one slot.

    Each slot kept is then accepted with p(u,v) / q <= 1, which gives
    every pair its exact edge probability.  The view is the one with the
    smaller expected proposal count sum_r |V_r| sum_a n_a q, the half
    view on a tie (always with one layer).  It depends on the weights
    alone, which are drawn first, so the law given the weights is exact
    either way.  When every weight exceeds B 2^(-1/K) there is one
    layer, whose keys are the slot keys themselves; when every weight
    equals B, p(u,v) = q and no thinning draw is made unless some group
    proposes every slot.

    Groups are handled in chunks of consecutive groups of about CHUNK
    proposals each, which bounds memory.  Measured with numpy 2.4 on a
    2-core Xeon at N=400, lambda=0.3 with truncated_exponential(1, 8)
    weights (seeds 0-15): 4.7 proposals per edge (8.5 with one layer per
    octave) where the half view alone takes 8.7 and one cap c B^2 / (N r)
    for every slot 61; with discrete([1, 8, 64], [.9, .09, .01]) at
    lambda E(W^2) = 0.3, whose layers are whole octaves apart for every
    K, 18.5 instead of 28.2.  At N=800, lambda=2 with constant weights
    (half view) a graph takes about 0.08 s with a 36 MB allocation peak.
    `Graph.proposals` records the number of distinct slots proposed and
    `Graph.full` the view.
    """
    cfg = m.torus
    N, n = cfg.N, cfg.n_vertices
    rng = np.random.Generator(np.random.Philox(m.seed if seed is None else seed))
    weights = m.weights.sample(n, rng)
    order, sizes, top = _weight_layers(weights)
    L, base = sizes.size, np.cumsum(sizes) - sizes

    # groups (ring, layer), ring-major; group g owns the keys [start[g], start[g] + size[g])
    slots = slot_table(N)
    a_r = ring_scale(m.c, N)[:cfg.max_dist, None]  # p(u,v) = min{a_r W_u W_v, 1} on the nonempty rings
    full, q = _slot_view(slots, a_r, sizes, top)
    V = (slots.ring_full if full else slots.ring_len)[:, None]
    size = (V * sizes).ravel()
    start = (n * slots.ring_start[1:-1, None] + V * base).ravel()
    q = q.ravel()
    scale = a_r.repeat(L)
    every = q > EVERY_SLOT
    # a full group's Poisson draw is unused; clipping its q keeps the log finite
    counts = np.where(every, size, rng.poisson(-size * np.log1p(-np.minimum(q, EVERY_SLOT))))
    q[every] = 1.0  # their chance to propose a slot
    thin = float(weights.min()) < top[0] or bool(every.any())  # p(u,v) < q somewhere

    proposals = 0
    nz = counts.nonzero()[0]
    chunks = [nz]
    if counts.sum() > CHUNK:
        before = np.cumsum(counts[nz]) - counts[nz]
        chunks = np.split(nz, np.diff(before // CHUNK).nonzero()[0] + 1)
    keys: list[np.ndarray] = []  # the kept edges as lo * n + hi
    for g in chunks:
        gi = np.repeat(g, counts[g])
        if every[g].any():  # a full group takes each of its slots once, the others draw theirs
            draw = ~every[gi]
            rel = np.arange(gi.size) - np.repeat(np.cumsum(counts[g]) - counts[g], counts[g])
            rel[draw] = rng.integers(0, size[gi[draw]])
        else:
            rel = rng.integers(0, size[gi])
        key = np.sort(start[gi] + rel)  # the groups' key ranges ascend with g, so gi stays aligned
        rep = np.flatnonzero(key[1:] == key[:-1])  # a slot hit more than once is proposed once
        if rep.size:
            key, gi = np.delete(key, rep), np.delete(gi, rep)
        proposals += key.size
        if order is None:  # one layer: the keys are slot keys o * n + u
            o, u, v = slots.decode(key)
        else:  # key - start = o' * n_a + t: offset o' of the ring, t-th vertex of layer a
            ring = gi // L
            a = gi - ring * L
            rel = key - start[gi]
            o = rel // sizes[a]
            u = order[base[a] + rel - o * sizes[a]]
            o += slots.ring_start[1 + ring]
            v = slots.partner(o, u)
        keep = slots.owns(o, u, v, weights if full else None)
        # U q < p(u,v), as p(u,v) <= q, and q = 1 where scale W_u W_v > 1 or every slot is proposed
        if thin:
            keep &= rng.random(key.size) * q[gi] < scale[gi] * (weights[u] * weights[v])
        u, v = u[keep], v[keep]
        keys.append(np.minimum(u, v) * n + np.maximum(u, v))

    # sorting lo*n + hi (< n^2, fits int64) is lexicographic order on (lo, hi) as hi < n
    key = np.sort(np.concatenate(keys))
    return Graph(N, weights, np.stack(np.divmod(key, n), axis=1), proposals, full)


def sample_graph_reference(m: ModelConfig, seed: int | None = None) -> Graph:
    """O(N^4) per-pair reference sampler (small N only).

    One uniform per unordered pair, in canonical index order, against
    p(u,v).  The weights come first from the same stream as in
    `sample_graph`, so both samplers see the same weights for a seed.
    """
    cfg = m.torus
    N, n = cfg.N, cfg.n_vertices
    if n > 4096:
        raise ParameterError("reference sampler is O(N^4); use sample_graph for N > 64")
    rng = np.random.Generator(np.random.Philox(m.seed if seed is None else seed))
    weights = m.weights.sample(n, rng)

    d = cfg.offset_dist
    a, b = np.triu_indices(n, 1)
    dist = d[np.abs(a // N - b // N)] + d[np.abs(a % N - b % N)]
    p = np.minimum(ring_scale(m.c, N)[dist - 1] * weights[a] * weights[b], 1.0)
    edge = rng.random(a.size) < p
    return Graph(N, weights, np.stack([a[edge], b[edge]], axis=1), n * (n - 1) // 2)
