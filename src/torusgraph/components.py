"""Connected components: contraction for measurement, exploration for fidelity.

The measurement path contracts the graph in rounds: each vertex that
has an edge hooks to its smallest neighbour, pointer jumping takes it to
the root of its hook tree, and the roots, renumbered in order and
carrying their trees' vertex counts, keep only the edges between two
trees, until none is left (at most 2 ceil(log2 m) rounds for m vertices
with an edge, 4 on a supercritical N=800 graph); every vertex without
an edge is a singleton.  The exploration algorithm is the
active/saturated/neutral procedure whose stopping time T equals the
component size.  It is the oracle that the tests check the measurement
path's component sizes against, and its traces are where the tests
check the recursion S_i = X_1 + ... + X_i - (i - 1); it is not built
for throughput.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Graph

BLOCK = 1 << 14  # entries per block of a gather by int32 ids, see _gather


@dataclass
class ComponentSummary:
    sizes: np.ndarray  # descending, one entry per component

    @property
    def largest(self) -> int:
        return int(self.sizes[0])


def largest_component(g: Graph) -> ComponentSummary:
    """Exact component decomposition of the sampled graph.

    The m vertices that have an edge get new ids 0..m-1 in index order,
    and each edge stays (lo, hi) with lo < hi.  Then one contraction
    round repeats until no edge is left between two ids:
    every id hooks to its smallest neighbour (itself if it has none
    smaller), pointer jumping sends it to the root of its hook tree, the
    roots are renumbered 0..r-1 in their order, each root carries the
    vertex count of its tree, and each edge between two trees becomes
    (min, max) of their new ids.  A hook tree lies in one component, so
    once no such edge is left every id is a component of its carried
    count.  At most 2 ceil(log2 m) rounds run: an id that has an edge at
    the start of a round lies in a tree of at least two ids by the end
    of the next round, since the tree that left it out has a smaller
    root and renumbering keeps that order.  The components that have an
    edge, each of at least 2 vertices, are sorted; the n - m singletons
    follow.

    Ids are int32 and every gather by them runs by blocks of BLOCK
    (`_gather`), so no m- or E-sized intp copy of an id array is made; a
    relabelling is written over the array it replaces, tree sizes are
    summed by `np.add.at` (a bincount would copy its ids to intp), and
    the singletons' sizes are allocated last.  At N=400, lambda=2 the
    allocation peak (tracemalloc) is 2.2 times the int32 edge rows, in
    the first round's pointer jumping."""
    n = g.n_vertices
    e = g.pairs
    has_edge = np.zeros(n, dtype=bool)
    # by blocks of intp rows: indexing by int32 pairs is slower, and an
    # intp copy of all of them (or `put`, which makes one) takes 10 MB at N=800
    for k in range(0, len(e), BLOCK):
        has_edge[e[k:k + BLOCK].reshape(-1).astype(np.intp)] = True
    new_id = np.cumsum(has_edge, dtype=np.int32)
    new_id -= 1
    del has_edge
    m = int(new_id[-1]) + 1
    if m == 0:
        return ComponentSummary(np.ones(n, dtype=np.int64))
    lo = _gather(new_id, e[:, 0], np.empty(len(e), dtype=np.int32))
    hi = _gather(new_id, e[:, 1], np.empty(len(e), dtype=np.int32))
    del new_id
    r, count = m, None  # r ids and their vertex counts; None: 1 each, before the first round
    while lo.size:
        parent = np.arange(r, dtype=np.int32)
        np.minimum.at(parent, hi, lo)
        # parent[v] <= v and roots are fixed points, so jumping ends.  After
        # one full jump only the ids whose parent moved jump again: an id
        # whose parent is a root stays put
        up = _gather(parent, parent, np.empty(r, dtype=np.int32))
        act = (up != parent).nonzero()[0]
        parent = up
        while act.size:
            p = parent.take(act)
            up = _gather(parent, p, np.empty_like(p))
            parent.put(act, up)
            act = act.take((up != p).nonzero()[0])
        del up, act
        # the roots, the fixed points of parent, renumbered 0..r-1 in order
        label = np.arange(r, dtype=np.int32)
        np.equal(parent, label, out=label)
        label.cumsum(out=label)
        label -= 1
        r = int(label[-1]) + 1
        label = _gather(label, parent, parent)  # each id's new id, over its parent
        del parent
        tree = np.zeros(r, dtype=np.int64)  # the vertex count of each new id
        np.add.at(tree, label, 1 if count is None else count)
        count = tree
        _gather(label, lo, lo)
        _gather(label, hi, hi)
        del label
        cross = (lo != hi).nonzero()[0]  # indexing by a mask is slower
        lo = lo.take(cross)
        hi = hi.take(cross)
        del cross
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi, out=hi)
    count.sort()
    sizes = np.ones(r + n - m, dtype=np.int64)  # the n - m singletons, allocated last
    sizes[:r] = count[::-1]
    return ComponentSummary(sizes)


def _gather(a: np.ndarray, idx: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[k] = a[idx[k]] by blocks of BLOCK: `take` copies an int32 idx
    to intp first, so one call would copy all of it.  out may be idx,
    as each block is copied before it is overwritten."""
    for k in range(0, idx.size, BLOCK):
        a.take(idx[k:k + BLOCK], out=out[k:k + BLOCK])
    return out


@dataclass
class TraceStep:
    active: int        # |S_i| after the step
    activated: int     # X_i
    chosen: int        # vertex index saturated at this step


def explore_component(g: Graph, v: int, rng: np.random.Generator) -> list[TraceStep]:
    """Reveal the component of v by the active/saturated/neutral procedure.

    At each step one active vertex is chosen uniformly at random and its
    neutral neighbors become active.  Returns one TraceStep per step,
    step i at position i - 1; the stopping time T, their number, is the
    component size, whatever the tie-breaking.

    `v` is a vertex index, 0 <= v < g.n_vertices.
    """
    status = np.zeros(g.n_vertices, dtype=np.int8)  # 0 neutral, 1 active, 2 saturated
    status[v] = 1
    active = [int(v)]
    trace: list[TraceStep] = []
    while active:
        pick = int(rng.integers(len(active)))
        active[pick], active[-1] = active[-1], active[pick]
        vi = active.pop()
        status[vi] = 2
        newly = [int(u) for u in g.neighbors(vi) if status[u] == 0]
        for u in newly:
            status[u] = 1
        active.extend(newly)
        trace.append(TraceStep(active=len(active), activated=len(newly), chosen=vi))
    return trace


def component_decomposition(g: Graph, rng: np.random.Generator) -> list[list[TraceStep]]:
    """Explore components from uniformly chosen unvisited start vertices
    until every vertex is covered exactly once.

    Starts are taken in the order of one uniform permutation, skipping
    visited vertices; the first unvisited vertex of a uniform
    permutation is uniform among the unvisited ones."""
    visited = np.zeros(g.n_vertices, dtype=bool)
    traces: list[list[TraceStep]] = []
    for start in rng.permutation(g.n_vertices):
        if visited[start]:
            continue
        tr = explore_component(g, int(start), rng)
        traces.append(tr)
        visited[[s.chosen for s in tr]] = True
    return traces
