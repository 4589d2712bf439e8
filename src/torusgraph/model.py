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

from .errors import AssumptionError, ParameterError, integer, number, reject_unknown_keys
from .geometry import TorusConfig, Vertex, ring_sizes, torus_distance

LOG2X4 = 4.0 * math.log(2.0)
QUADRATURE_NODES = 400  # Gauss-Legendre nodes of a truncated exponential


# ---------------------------------------------------------------------------
# weight distributions
# ---------------------------------------------------------------------------

@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], computed
    once per process (an eigenvalue solve, about 20 ms)."""
    x, wq = np.polynomial.legendre.leggauss(QUADRATURE_NODES)
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
    "truncated_exponential": {"kind", "rate", "upper"},
}


class WeightSpec:
    """Distribution of the i.i.d. vertex weight W, built by the classmethods.

    A law is read-only `atoms` and `masses`, so that
    E fn(W) = fn(atoms) @ masses, a sampler of W, and a sampler of its
    size-biased law (see `size_biased`).  The atoms are the law's atoms
    of positive mass: those of a point mass or a discrete law are its
    values, those of a truncated exponential its Gauss-Legendre nodes,
    and an atom of mass 0 is dropped, as it is never drawn and fn may
    overflow there.  All laws have bounded support, by default the
    largest atom, so every exponential tilt E(W^k e^{sW}) is finite.
    """

    def __init__(self, atoms: np.ndarray, masses: np.ndarray, sampler, params: dict | None,
                 tilde_sampler=None, support_bound: float | None = None):
        live = masses > 0
        atoms, masses = atoms[live], masses[live]
        atoms.flags.writeable = masses.flags.writeable = False
        self.atoms, self.masses = atoms, masses
        self._sampler = sampler  # sampler(rng, n) -> n draws of W
        self._tilde_sampler = tilde_sampler  # the same for W's size-biased law, see size_biased
        self.support_bound = bound = float(atoms.max()) if support_bound is None else support_bound
        self._params = params  # JSON form of the constructor call, see to_dict
        if not bound * bound < math.inf:  # then no atom's square overflows
            raise ParameterError(f"E W^2 must be finite, but weights reach {bound:g}")
        self.mean = self.expectation(lambda x: x)
        self.second_moment = self.expectation(lambda x: x**2)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: float = 1.0) -> "WeightSpec":
        """Point mass at value.  Its draws take no memory and no random
        number: a read-only view of the one value at stride 0, so a
        caller must never write into them."""
        w = float(value)
        if not 0 <= w < math.inf:
            raise ParameterError(f"weight must be nonnegative and finite, got {w}")
        return cls(np.array([w]), np.array([1.0]), lambda rng, n: np.broadcast_to(w, n),
                   {"kind": "constant", "value": w})

    @classmethod
    def discrete(cls, values, probs) -> "WeightSpec":
        values = np.array(values, dtype=float)
        probs = np.array(probs, dtype=float)
        if values.shape != probs.shape or values.ndim != 1:
            raise ParameterError("values and probs must be 1-D arrays of equal length")
        if not np.all((values >= 0) & (values < math.inf)):
            raise ParameterError("weights must be nonnegative and finite")
        if not (np.all(probs >= 0) and abs(probs.sum() - 1.0) <= 1e-12):
            raise ParameterError("probabilities must be nonnegative and sum to 1")
        return cls(values, probs, _discrete_sampler(values, probs),
                   {"kind": "discrete", "values": values.tolist(), "probs": probs.tolist()})

    @classmethod
    def truncated_exponential(cls, rate: float = 1.0, upper: float = 8.0) -> "WeightSpec":
        """Exponential(rate) conditioned on [0, upper], on QUADRATURE_NODES
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
            raise ParameterError("rate must be positive, upper positive and finite")
        Z = -math.expm1(-rate * upper)  # 1 - e^{-rate upper}, without cancellation at small rate * upper
        x, wq = _gauss_legendre()
        nodes = 0.5 * upper * x + 0.5 * upper
        qw = 0.5 * upper * wq * (rate * np.exp(-rate * nodes) / Z)
        total = qw.sum()
        if not 1 - 1e-8 < total < 1 + 1e-8:
            raise ParameterError(f"density does not integrate to 1 on [0,{upper}]: {total}")

        def sampler(rng, n):
            # in place, the same IEEE operations as -log1p(-u Z) / rate
            u = rng.random(n)
            u *= -Z
            np.log1p(u, out=u)
            u /= -rate
            return u

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

        # dividing by total absorbs quadrature round-off; draws pass the nodes, up to upper
        return cls(nodes, qw / total, sampler, {"kind": "truncated_exponential", "rate": rate, "upper": upper},
                   tilde_sampler, upper)

    # -- JSON form ---------------------------------------------------------

    @classmethod
    def from_dict(cls, d: dict | None) -> "WeightSpec":
        """Spec from its JSON form; None means constant weight 1.  A form
        that is not an object, an unknown kind, a key outside the kind's
        keys, or a value of the wrong JSON type raises ParameterError."""
        if d is None:
            return cls.constant()
        if not isinstance(d, dict):
            raise ParameterError(f"a weight law must be a JSON object, got {d!r}")
        kind = d.get("kind", "constant")
        if not isinstance(kind, str) or kind not in _WEIGHT_KEYS:
            raise ParameterError(f"unknown weight kind in config: {kind!r}")
        reject_unknown_keys(d, _WEIGHT_KEYS[kind], f"a {kind} weight law")
        if kind == "discrete":
            lists = []
            for key in ("values", "probs"):
                if not isinstance(d.get(key), list):
                    raise ParameterError(f"{key} must be a list of numbers, got {d.get(key)!r}")
                lists.append([number(x, f"{key}[{i}]") for i, x in enumerate(d[key])])
            return cls.discrete(*lists)
        # only the keys present are passed: each default lives in its constructor
        args = {key: number(x, key) for key, x in d.items() if key != "kind"}
        return cls.constant(**args) if kind == "constant" else cls.truncated_exponential(**args)

    def to_dict(self) -> dict:
        """JSON form that `from_dict` turns back into the same law.

        A size-biased law has none: it is derived from a law that has."""
        if self._params is None:
            raise ParameterError("a size-biased weight law has no JSON form")
        return dict(self._params)

    # -- queries -----------------------------------------------------------

    def expectation(self, fn) -> float:
        """E[fn(W)] with fn vectorized over arrays: the sum over the atoms."""
        return float(fn(self.atoms) @ self.masses)

    def moment(self, k: int) -> float:
        return self.expectation(lambda x: x**k)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n i.i.d. draws of W.  A point mass returns a read-only view
        (see `constant`): write into a copy, never into the draws."""
        if n < 0:
            raise ValueError("n must be >= 0")
        return self._sampler(rng, n)

    @functools.cached_property
    def size_biased(self) -> "WeightSpec":
        """Law of the size-biased weight, y mu(dy) / E W: W's own atoms
        with masses atoms * masses / E W (an atom at 0 drops out), and
        W's support bound.  It is defined for the laws the constructors build
        and drawn exactly: by the sampler the law supplies (the truncated
        exponential's), else from those masses, as a point mass or a
        discrete law takes only the values in its atoms.  A one-atom law
        is its own size-biased law.  A size-biased law of more atoms has
        none here and raises ValueError: its atoms may be quadrature nodes,
        and no program path reads the size-biased law of one."""
        M = self.mean
        if M <= 0:
            raise AssumptionError("size biasing needs E W > 0")
        if self.atoms.size == 1:
            return self
        if self._params is None:
            raise ValueError("a size-biased weight law has no size-biased law")
        masses = self.atoms * self.masses / M
        sampler = self._tilde_sampler or _discrete_sampler(self.atoms, masses)
        return WeightSpec(self.atoms, masses, sampler, None, support_bound=self.support_bound)

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
        raise ParameterError(f"c must be nonnegative and finite, got {c}")
    return c * LOG2X4


def c_of_lambda(lam: float) -> float:
    """Inverse of lambda_of_c; lambda = 0 is the empty model, as c = 0."""
    if not 0 <= lam < math.inf:
        raise ParameterError(f"lambda must be nonnegative and finite, got {lam}")
    return lam / LOG2X4


@dataclass
class ModelConfig:
    torus: TorusConfig
    c: float
    weights: WeightSpec = field(default_factory=WeightSpec.constant)
    seed: int = 0

    def __post_init__(self):
        lambda_of_c(self.c)  # c = 0 is allowed as the degenerate empty graph
        self.seed = integer(self.seed, "seed", 0)  # numpy's seeding would fail only at sampling


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
    """Sampled graph on the N^2 torus vertices.

    Vertices are indexed 0..N^2-1 row-major over coordinates.  `pairs`
    holds each undirected edge once as a (lo, hi) row with lo < hi, in
    the order the sampler drew it: int32 rows from `sample_graph`, as
    `TorusConfig` keeps N^2 < 2^31.  `edges` is the same edges as int64
    (min, max) rows, lexicographically sorted once, on first read, and
    cached; the readers that need no order (`edge_count`,
    `largest_component`) read `pairs` and never sort.  `weights` holds
    W_u at index u; under a constant law it is a read-only view of one
    value (`WeightSpec.constant`), so never write into it.  The CSR
    adjacency is built lazily, once, and cached, so do not mutate the
    graph once `edges` or `adjacency` has been read.
    """

    N: int
    weights: np.ndarray
    pairs: np.ndarray
    proposals: int = 0  # distinct slots sample_graph proposed (phantom, non-owner too); pairs the reference tried
    full: bool = False  # whether sample_graph proposed it in the full view of SlotTable

    @property
    def n_vertices(self) -> int:
        return self.N * self.N

    @property
    def edge_count(self) -> int:
        return len(self.pairs)

    @functools.cached_property
    def edges(self) -> np.ndarray:
        """The edges as an int64 (E, 2) array of (min, max) rows,
        lexicographically sorted."""
        n = self.n_vertices
        # sorting lo*n + hi (< n^2, fits int64) is lexicographic order on (lo, hi) as hi < n
        key = self.pairs[:, 0].astype(np.int64)
        key *= n
        key += self.pairs[:, 1]
        key.sort()
        e = np.empty((key.size, 2), dtype=np.int64)
        np.divmod(key, n, out=(e[:, 0], e[:, 1]))
        return e

    @functools.cached_property
    def adjacency(self) -> scipy.sparse.csr_matrix:
        """Symmetric CSR adjacency matrix; each row's indices come out sorted.
        scipy.sparse is imported here: only the exploration oracle reads it."""
        from scipy.sparse import coo_matrix  # ~0.25 s and ~23 MB if it is the first scipy module
        i, j = np.concatenate([self.edges, self.edges[:, ::-1]]).T
        return coo_matrix((np.ones(i.size, dtype=np.int8), (i, j)), shape=(self.n_vertices,) * 2).tocsr()

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted neighbor indices of vertex i."""
        a = self.adjacency
        return a.indices[a.indptr[i]:a.indptr[i + 1]]

    def export_edges(self, file) -> None:
        """Edge list to a path or an open file, one line per edge: 'u1 u2 v1 v2'."""
        e = self.edges
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

    `di`, `dj` hold every nonzero offset, sorted by ring; within a ring
    the half-offsets H_r come first, one of each {o, -o} with
    self-inverse ones (o == -o, even N only) included, and the other
    offsets follow, each part in index order.  They are uint16, 2 bytes
    per offset each: a coordinate is below N, and `TorusConfig` keeps
    N <= 46340 < 2^16.  numpy keeps uint16 arithmetic in uint16 (2 * di
    wraps once N passes 32768), so every use widens them first.  One stable
    (radix) sort of the uint16 ring numbers, the half-offsets placed
    first, orders the table; the build makes no n-sized int32 array and
    peaks at 185 MB (tracemalloc) at N=3200.
    Ring r owns F_r = table[ring_start[r]:ring_start[r + 1]],
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
        # The n-sized arrays run over the offsets (i, j) row-major, [1:]
        # leaving out (0, 0).  (i, j) is a half-offset when i N + j is at
        # most the index of its negative (-i % N, -j % N): when i is below
        # -i % N, or equal to it (i = 0, or N/2 for even N) and j is at most -j % N.
        c = np.arange(N)
        neg = -c % N
        half = ((c < neg)[:, None] | ((c == neg)[:, None] & (c <= neg))).ravel()[1:]
        rest = ~half

        def split(x):  # the half-offsets first, then the others, each in index order
            return np.concatenate((x[half], x[rest]))

        d = cfg.offset_dist.astype(np.uint16)
        ring = split((d[:, None] + d).ravel()[1:])  # d(i) + d(j) <= N < 2^16: the uint16 sum cannot wrap
        counts = np.bincount(ring, minlength=cfg.max_dist + 1)
        self.ring_len = np.bincount(ring[:np.count_nonzero(half)], minlength=cfg.max_dist + 1)[1:]  # |H_r|
        self.ring_start = np.concatenate(([0], counts.cumsum()))
        self.ring_full = counts[1:]  # |F_r| of the nonempty rings r
        order = np.argsort(ring, kind="stable")  # by ring, H_r first; a radix sort on uint16
        del ring
        c = c.astype(np.uint16)
        self.di = di = split(c.repeat(N)[1:])[order]
        self.dj = dj = split(np.tile(c, N)[1:])[order]
        # o == -o where both coordinates are their own negatives, 0 or N/2
        fixed = N // 2 if N % 2 == 0 else 0
        self.self_inverse = ((di == 0) | (di == fixed)) & ((dj == 0) | (dj == fixed))

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
        a = self.di[o].astype(np.int64)  # widened before any arithmetic: uint16 would wrap
        a += i
        a -= N * (a >= N)
        b = self.dj[o].astype(np.int64)
        b += u
        b -= i * N
        b -= N * (b >= N)
        return a * N + b

    def owns(self, o: np.ndarray, u: np.ndarray, v: np.ndarray,
             wu: np.ndarray | None = None, wv: np.ndarray | None = None) -> np.ndarray:
        """Whether slot (o, u) proposes its pair (u, v).  Half view
        (no endpoint weights): all but the phantom copy of a self-inverse
        pair.  Full view, given wu = W_u and wv = W_v: only the owner,
        W_u > W_v with ties to u < v."""
        if wu is None:
            return (u < v) | ~self.self_inverse[o]
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
    ratio = np.maximum(weights, B / 2**MAX_LAYER)
    np.divide(B, ratio, out=ratio)  # then log2, times K and floor, all in place
    np.log2(ratio, out=ratio)
    ratio *= LAYERS_PER_OCTAVE
    layer = np.floor(ratio, out=ratio).astype(np.uint8)  # 0 to K MAX_LAYER = 48
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


def sample_graph(m: ModelConfig) -> Graph:
    """Sample the graph by layered ring thinning; exact and near-linear.

    One Philox stream per graph, seeded by `m.seed`: the vertex weights
    first, then the proposal counts of all (ring, weight layer) groups in
    one Poisson call, then per chunk of groups the slots and their
    thinning uniforms.
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
    proposals each, which bounds memory.  A chunk's draws (its slots,
    repeats merged, and their thinning uniforms) come from the stream on
    the calling thread, chunk after chunk.  The rest of a chunk reads no
    stream: decoding the keys, ownership, the thinning compare and the
    (lo, hi) rows.  In a graph of more than one chunk it runs on one
    helper thread while the caller draws the next chunk, with at most two
    chunks in flight; numpy releases the interpreter lock in these array
    operations, so the two overlap.  The rows are collected in chunk
    order and the helper is stopped before return, so every draw and
    `Graph.pairs` are those of one thread, and a process pool forked
    later inherits no live thread.  A graph of one chunk starts no thread.

    Measured with numpy 2.4 on a 2-core Xeon at N=400, lambda=0.3 with
    truncated_exponential(1, 8) weights (seeds 0-15): 4.7 proposals per
    edge (8.5 with one layer per octave) where the half view alone takes
    8.7 and one cap c B^2 / (N r) for every slot 61; with
    discrete([1, 8, 64], [.9, .09, .01]) at lambda E(W^2) = 0.3, whose
    layers are whole octaves apart for every K, 18.5 instead of 28.2.
    A graph of the first kind takes about 15 ms (median of 40; about
    18 ms with every chunk on one thread), of whose work 2.6 ms is the
    weight layers, 3.2 ms decoding the proposed slots from per-group
    tables (n_a, layer base, the ring's first offset), 1.2 ms the
    endpoint weights and ownership and 1.4 ms thinning.  At N=800,
    lambda=2 with constant weights (half view, 39 chunks) a graph takes
    about 28 ms (median of 40; about 34 ms on one thread) with a 10 MB
    allocation peak (tracemalloc, the table built before): the rows of
    every chunk and their concatenation, 5.1 MB each, as the constant
    weights take no memory.  Its 640k edges stay in the order drawn, as
    `Graph.pairs`, until `Graph.edges` is read.  `Graph.proposals`
    records the number of distinct slots proposed and `Graph.full` the
    view.
    """
    cfg = m.torus
    N, n = cfg.N, cfg.n_vertices
    rng = np.random.Generator(np.random.Philox(m.seed))
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
    if order is not None:  # each group's layer size n_a, layer base and ring's first offset
        n_a, layer_base = np.tile(sizes, cfg.max_dist), np.tile(base, cfg.max_dist)
        first = slots.ring_start[1:-1].repeat(L)
    every = q > EVERY_SLOT
    # a full group's Poisson draw is unused; clipping its q keeps the log finite
    counts = np.where(every, size, rng.poisson(-size * np.log1p(-np.minimum(q, EVERY_SLOT))))
    q[every] = 1.0  # their chance to propose a slot
    thin = float(weights.min()) < top[0] or bool(every.any())  # p(u,v) < q somewhere

    def tail(key: np.ndarray, gi: np.ndarray, uniform: np.ndarray | None) -> np.ndarray:
        """The kept edges of one chunk's proposed keys as (lo, hi) rows;
        it reads no stream state, so it may run on another thread."""
        if order is None:  # one layer: the keys are slot keys o * n + u
            o, u, v = slots.decode(key)
        else:  # key - start = o' * n_a + t: offset o' of the ring, t-th vertex of layer a
            rel = key - start[gi]
            na = n_a[gi]
            o = rel // na
            u = order[layer_base[gi] + rel - o * na]
            o += first[gi]
            v = slots.partner(o, u)
        if thin:  # always so in the full view, whose layers are several
            wu, wv = weights[u], weights[v]
            keep = slots.owns(o, u, v, wu, wv) if full else slots.owns(o, u, v)
            # U q < p(u,v), as p(u,v) <= q, and q = 1 where scale W_u W_v > 1 or every slot is proposed
            keep &= uniform * q[gi] < scale[gi] * (wu * wv)
        else:
            keep = slots.owns(o, u, v)
        k = np.flatnonzero(keep)
        u, v = u.take(k), v.take(k)
        p = np.empty((k.size, 2), dtype=np.int32)
        np.minimum(u, v, out=p[:, 0])
        np.maximum(u, v, out=p[:, 1])
        return p

    def draw(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """The distinct keys that the groups g propose, each key's group and
        its thinning uniform (None without thinning), from the stream."""
        gi = np.repeat(g, counts[g])
        if every[g].any():  # a full group takes each of its slots once, the others draw theirs
            drawn = ~every[gi]
            rel = np.arange(gi.size) - np.repeat(np.cumsum(counts[g]) - counts[g], counts[g])
            rel[drawn] = rng.integers(0, size[gi[drawn]])
        else:
            rel = rng.integers(0, size[gi])
        key = np.sort(start[gi] + rel)  # the groups' key ranges ascend with g, so gi stays aligned
        dup = key[1:] == key[:-1]  # a slot hit more than once is proposed once
        if dup.any():
            new = np.concatenate(([True], ~dup))
            key, gi = key[new], gi[new]
        return key, gi, rng.random(key.size) if thin else None

    nz = counts.nonzero()[0]
    chunks = [nz]
    if counts.sum() > CHUNK:
        before = np.cumsum(counts[nz]) - counts[nz]
        chunks = np.split(nz, np.diff(before // CHUNK).nonzero()[0] + 1)
    key, gi, uniform = draw(chunks[0])
    proposals = key.size
    if len(chunks) == 1:  # no thread starts
        pairs = [tail(key, gi, uniform)]
    else:  # the tails run in chunk order on one helper thread while this one draws
        from concurrent.futures import ThreadPoolExecutor  # imported only when a helper starts
        with ThreadPoolExecutor(max_workers=1) as pool:
            pairs = [pool.submit(tail, key, gi, uniform)]
            for j in range(1, len(chunks)):
                key, gi, uniform = draw(chunks[j])
                proposals += key.size
                if j >= 2:  # at most two chunks in flight
                    pairs[j - 2] = pairs[j - 2].result()
                pairs.append(pool.submit(tail, key, gi, uniform))
            pairs[-2:] = [f.result() for f in pairs[-2:]]

    return Graph(N, weights, pairs[0] if len(pairs) == 1 else np.concatenate(pairs), proposals, full)


def sample_graph_reference(m: ModelConfig) -> Graph:
    """O(N^4) per-pair reference sampler (small N only).

    One uniform per unordered pair, in canonical index order, against
    p(u,v).  The weights come first from the same stream as in
    `sample_graph`, so both samplers see the same weights for a seed.
    """
    cfg = m.torus
    N, n = cfg.N, cfg.n_vertices
    if n > 4096:
        raise ParameterError("reference sampler is O(N^4); use sample_graph for N > 64")
    rng = np.random.Generator(np.random.Philox(m.seed))
    weights = m.weights.sample(n, rng)

    d = cfg.offset_dist
    a, b = np.triu_indices(n, 1)
    dist = d[np.abs(a // N - b // N)] + d[np.abs(a % N - b % N)]
    p = np.minimum(ring_scale(m.c, N)[dist - 1] * weights[a] * weights[b], 1.0)
    edge = rng.random(a.size) < p
    return Graph(N, weights, np.stack([a[edge], b[edge]], axis=1), n * (n - 1) // 2)
