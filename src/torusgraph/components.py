"""Connected components: csgraph for measurement, exploration for fidelity.

The measurement path hooks each vertex that has an edge to its smallest
neighbour, jumps every pointer to the root of its hook tree, and labels
the roots with ``scipy.sparse.csgraph.connected_components`` on a CSR
matrix of the edges between roots; every vertex without an edge is a
singleton.  The exploration algorithm is the
active/saturated/neutral procedure whose stopping time T equals the
component size; it exists to generate traces for branching-process
comparisons and to cross-check the measurement path, not for
throughput.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .model import Graph


@dataclass
class ComponentSummary:
    sizes: np.ndarray  # descending, one entry per component

    @property
    def largest(self) -> int:
        return int(self.sizes[0])

    @property
    def count(self) -> int:
        return self.sizes.size


def largest_component(g: Graph) -> ComponentSummary:
    """Exact component decomposition of the sampled graph.

    The m vertices that have an edge get new ids 0..m-1 in index order,
    and each edge stays (lo, hi) with lo < hi.  One round of
    Shiloach-Vishkin hooking then shrinks what csgraph walks: every
    vertex points at its smallest neighbour (itself if it has none
    smaller), and pointer jumping sends it to the root of its hook tree,
    about log2 of the longest hook chain rounds.  A hook tree lies in one
    component, so csgraph labels only the cross edges, those between two
    roots, and each vertex takes its root's label.  (Any map of each
    vertex into its own component would label correctly; the jumping
    only makes the cross-edge graph small.)  The components that
    have an edge, each of at least 2 vertices, are sorted; the n - m
    singletons follow."""
    n = g.n_vertices
    e = g.edges
    has_edge = np.zeros(n, dtype=bool)
    has_edge[e] = True
    new_id = np.cumsum(has_edge, dtype=np.int32) - 1
    del has_edge
    m = int(new_id[-1]) + 1
    singletons = np.ones(n - m, dtype=np.int64)
    if m == 0:
        return ComponentSummary(singletons)
    lo, hi = new_id[e[:, 0]], new_id[e[:, 1]]
    del new_id
    parent = np.arange(m, dtype=np.int32)
    np.minimum.at(parent, hi, lo)
    # parent[v] <= v and roots are fixed points, so jumping ends; take,
    # since indexing by an int32 array is slower
    while True:
        up = parent.take(parent)
        if np.array_equal(up, parent):
            break
        parent = up
    del up
    lo, hi = parent.take(lo), parent.take(hi)
    cross = (lo != hi).nonzero()[0]  # indexing by a mask is slower
    lo, hi = lo[cross], hi[cross]
    del cross
    indptr = np.zeros(m + 1, dtype=np.int32)
    np.cumsum(np.bincount(lo, minlength=m), out=indptr[1:])
    hi = hi[lo.argsort()]
    del lo
    # float64 data, as csgraph takes it, so its validation copies nothing
    adj = csr_matrix((np.ones(hi.size), hi, indptr), shape=(m, m))
    _, labels = connected_components(adj, directed=False)
    del adj
    sizes = np.bincount(labels.take(parent))
    del labels, parent
    sizes = np.sort(sizes[sizes > 0])[::-1]
    return ComponentSummary(np.concatenate([sizes, singletons]))


@dataclass
class TraceStep:
    i: int
    active: int        # |S_i| after the step
    activated: int     # X_i
    chosen: int        # vertex index saturated at this step


@dataclass
class ExplorationTrace:
    start: int
    steps: list[TraceStep] = field(default_factory=list)

    @property
    def T(self) -> int:
        return len(self.steps)

    def vertices(self) -> list[int]:
        return [s.chosen for s in self.steps]

    def to_jsonl(self) -> str:
        """One JSON record per step: {"i": ..., "S": |S_i|, "X": X_i}."""
        return "\n".join(
            json.dumps({"i": s.i, "S": s.active, "X": s.activated}) for s in self.steps
        )


def explore_component(g: Graph, v: int, rng: np.random.Generator) -> ExplorationTrace:
    """Reveal the component of v by the active/saturated/neutral procedure.

    At each step one active vertex is chosen uniformly at random and its
    neutral neighbors become active.  The stopping time (number of
    steps) is the component size, whatever the tie-breaking.

    `v` is a vertex index, 0 <= v < g.n_vertices.
    """
    status = np.zeros(g.n_vertices, dtype=np.int8)  # 0 neutral, 1 active, 2 saturated
    status[v] = 1
    active = [int(v)]
    trace = ExplorationTrace(start=int(v))
    i = 0
    while active:
        i += 1
        pick = int(rng.integers(len(active)))
        active[pick], active[-1] = active[-1], active[pick]
        vi = active.pop()
        status[vi] = 2
        newly = [int(u) for u in g.neighbors(vi) if status[u] == 0]
        for u in newly:
            status[u] = 1
        active.extend(newly)
        trace.steps.append(TraceStep(i=i, active=len(active), activated=len(newly), chosen=vi))
    return trace


def component_decomposition(g: Graph, rng: np.random.Generator) -> list[ExplorationTrace]:
    """Explore components from uniformly chosen unvisited start vertices
    until every vertex is covered exactly once.

    Starts are taken in the order of one uniform permutation, skipping
    visited vertices; the first unvisited vertex of a uniform
    permutation is uniform among the unvisited ones."""
    visited = np.zeros(g.n_vertices, dtype=bool)
    traces: list[ExplorationTrace] = []
    for start in rng.permutation(g.n_vertices):
        if visited[start]:
            continue
        tr = explore_component(g, int(start), rng)
        traces.append(tr)
        visited[tr.vertices()] = True
    return traces
