"""Workloads of the torusgraph benchmark: inputs, timed loops and checks.

Each workload runs in one process with ``threads=1`` (a process pool on
a small shared machine would mostly measure the scheduler).  Every seed
the program sees is derived from the workload seed with
``harness.replicate_seed``.

giant         N=800, lambda=2, constant weights, estimator C_over_N2, through
              ExperimentPlan.from_dict -> run_experiment -> to_csv (the
              ``torusgraph simulate`` path).  Supercritical: the union-find in
              ``largest_component`` over ~640k edges dominates a replicate, so
              components and edge-canonicalization changes show here.
weighted_sub  N=400, lambda=0.3, truncated_exponential(rate=1, upper=8),
              estimator C_over_logN2, same path.  Subcritical
              (lambda E W^2 ~ 0.59); proposals scale with B^2 = 64, so ring
              proposals and weight thinning in ``sample_graph`` dominate and
              components see only ~24k edges.
branching     total progeny of simulate_B1 (size-biased root) and simulate_B2
              on the laws of acceptance criterion 7; no graph is built, so
              sampler and components changes should not move it.

A checked operation is a replicate on the graph workloads and a batch of
trees from one simulator on ``branching``.  It fails when it raises or
when its output fails a check.  The checks test the law, not a random
stream, so an exact sampler that draws differently still passes them.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import traceback
import dataclasses
import json
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from torusgraph.branching import EXCEEDED, simulate_B1, simulate_B2, size_biased
from torusgraph.components import largest_component
from torusgraph.geometry import TorusConfig, ring_sizes, ring_vertices
from torusgraph.harness import ExperimentPlan, replicate_seed, run_experiment, weights_from_dict
from torusgraph.model import ModelConfig, mean_degree, sample_graph
from torusgraph.theory import build_report, supercritical_beta

from calibrate import Calibrator

Z_MAX = 5.0  # a mean further than this many standard errors from its target fails


@dataclass(frozen=True)
class GraphWorkload:
    name: str
    N: int
    lam: float
    weights: dict
    estimator: str
    replicates_per_batch: int
    min_batches: int                   # always run; the output digest covers exactly these
    beta_tol: float | None = None      # |mean C/N^2 - supercritical_beta(lam)| must stay below
    max_C_frac: float | None = None    # every replicate's C/N^2 must stay below

    def plan_dict(self, seed: int) -> dict:
        return {"N": self.N, "lambda": self.lam, "weights": self.weights,
                "estimator": self.estimator, "replicates": self.replicates_per_batch,
                "seed": seed}


@dataclass(frozen=True)
class BranchingWorkload:
    name: str
    laws: tuple                        # (lambda, weights dict) pairs
    trees_per_batch: int
    min_rounds: int                    # always run; the output digest covers exactly these
    cap: int = 1_000_000


CRITERION_7_LAWS = (
    (0.3, {"kind": "discrete", "values": [1.0, 2.0], "probs": [0.5, 0.5]}),
    (0.3, {"kind": "truncated_exponential", "rate": 1.0, "upper": 6.0}),
)

WORKLOADS = {
    "giant": GraphWorkload(
        "giant", N=800, lam=2.0, weights={"kind": "constant", "value": 1.0},
        estimator="C_over_N2", replicates_per_batch=1, min_batches=3, beta_tol=0.03),
    "weighted_sub": GraphWorkload(
        "weighted_sub", N=400, lam=0.3,
        weights={"kind": "truncated_exponential", "rate": 1.0, "upper": 8.0},
        estimator="C_over_logN2", replicates_per_batch=2, min_batches=3, max_C_frac=0.01),
    "branching": BranchingWorkload(
        "branching", laws=CRITERION_7_LAWS, trees_per_batch=5000, min_rounds=3),
}

# Layers a workload does not run are timed in its traced run on a reduced
# copy of a workload that does run them, so every traced run reports
# every layer.
GRAPH_PROBE = GraphWorkload(
    "giant_probe", N=100, lam=2.0, weights={"kind": "constant", "value": 1.0},
    estimator="C_over_N2", replicates_per_batch=1, min_batches=3)
BRANCHING_PROBE = BranchingWorkload(
    "branching_probe", laws=CRITERION_7_LAWS, trees_per_batch=1000, min_rounds=2)


@dataclass
class Law:
    """One branching law with the exact mean and variance of its progeny."""

    lam: float
    weights: dict
    spec: object
    tilde: object      # size-biased weight law
    mean: float        # 1 / (1 - m),  m = lambda E W^2
    var: float         # sigma^2 / (1 - m)^3,  sigma^2 the offspring variance


@dataclass
class Outcome:
    """What one process measured and checked; ``merge`` combines the
    outcomes of the processes that share a run."""

    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)    # (name, ok, detail)
    items: list = field(default_factory=list)     # work items (replicates, trees) per batch or round
    wall_s: list = field(default_factory=list)    # and their wall time
    calibrated_s: list = field(default_factory=list)  # and their calibrated time
    rows: list = field(default_factory=list)      # graph workloads: (seed, C, edges) per replicate
    mismatched: int = 0                           # traced rows that differ from run_experiment's
    prefix: dict = field(default_factory=dict)    # batch index -> sha256 of its output, fixed prefix
    peak_rss_mb: float = 0.0                      # when this process's share of the prefix ended
    untraced_s: list = field(default_factory=list)
    traced_s: list = field(default_factory=list)

    def merge(self, other: "Outcome") -> None:
        for name in ("attempted", "failed", "checks", "items", "wall_s", "calibrated_s", "rows",
                     "mismatched", "untraced_s", "traced_s"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.prefix.update(other.prefix)
        self.peak_rss_mb = max(self.peak_rss_mb, other.peak_rss_mb)

    @classmethod
    def from_json(cls, text: str) -> "Outcome":
        d = json.loads(text)
        d["prefix"] = {int(b): h for b, h in d["prefix"].items()}
        return cls(**d)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self))

    @property
    def digest(self) -> str:
        """sha256 over the outputs of the fixed prefix, in batch order."""
        h = hashlib.sha256()
        for b in sorted(self.prefix):
            h.update(self.prefix[b].encode())
        return h.hexdigest()

    @property
    def throughput_per_s(self) -> float:
        return sum(self.items) / sum(self.calibrated_s)

    @property
    def wall_throughput_per_s(self) -> float:
        return sum(self.items) / sum(self.wall_s)

    @property
    def overhead_frac(self) -> float:
        return statistics.median(self.traced_s) / statistics.median(self.untraced_s) - 1.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# set-up: everything the program does before the first replicate or tree
# ---------------------------------------------------------------------------

def setup(wl):
    if isinstance(wl, GraphWorkload):
        point = ExperimentPlan.from_dict(wl.plan_dict(0)).sweep[0]
        spec = point.weight_spec()
        build_report(point.lam, spec)
        return point, spec
    laws = []
    for lam, wd in wl.laws:
        spec = weights_from_dict(wd)
        build_report(lam, spec)
        tilde = size_biased(spec).dist
        ew, ew2, ew3 = spec.mean, spec.second_moment, spec.moment(3)
        m = lam * ew2
        sigma2 = m + lam * lam * (ew * ew3 - ew2 * ew2)
        laws.append(Law(lam, wd, spec, tilde, 1.0 / (1.0 - m), sigma2 / (1.0 - m) ** 3))
    return laws


# ---------------------------------------------------------------------------
# graph workloads
# ---------------------------------------------------------------------------

def run_graph(wl: GraphWorkload, state, seed: int, seconds: float, tracer=None,
              part: int = 0, parts: int = 1) -> Outcome:
    """Run batches ``part``, ``part + parts``, ... (plans of
    ``replicates_per_batch`` replicates) until ``seconds`` have passed
    and every batch of the fixed prefix in this share has run.  With a
    tracer, each batch is also rebuilt from public calls under spans and
    its (seed, C, edges) rows must equal run_experiment's."""
    point, _ = state
    out = Outcome()
    n2 = wl.N * wl.N
    calibrator = Calibrator()
    deadline = perf_counter() + seconds
    b = part
    while b < wl.min_batches or perf_counter() < deadline:
        plan = ExperimentPlan.from_dict(wl.plan_dict(replicate_seed(seed, 0, b)))
        out.attempted += plan.replicates
        try:
            t0 = perf_counter()
            result = run_experiment(plan, threads=1)
            text = result.to_csv()
            dt = perf_counter() - t0
            calibrated = calibrator.scale(dt)
            pr = result.points[0]
            batch = [(r["seed"], r["C"], r["edges"]) for r in pr.replicate_rows]
            bad = set(range(len(batch))) if pr.warnings else set()
            if wl.max_C_frac is not None:
                bad |= {i for i, (_, C, _) in enumerate(batch) if C / n2 >= wl.max_C_frac}
            if tracer is not None:
                t1 = perf_counter()
                traced = _traced_batch(plan, tracer, str(b))
                out.traced_s.append(perf_counter() - t1)
                differ = {i for i, (a, t) in enumerate(zip(batch, traced)) if a != t}
                out.mismatched += len(differ)
                bad |= differ
                with tracer.span("branching.size_biased", rep=str(b)):
                    size_biased(point.weight_spec())
        except Exception:
            traceback.print_exc()
            out.failed += plan.replicates
            b += parts
            continue
        out.untraced_s.append(dt)
        out.items.append(plan.replicates)
        out.wall_s.append(dt)
        out.calibrated_s.append(calibrated)
        out.failed += len(bad)
        out.rows += batch
        if b < wl.min_batches:
            out.prefix[b] = hashlib.sha256(text.encode()).hexdigest()
            if b + parts >= wl.min_batches:
                out.peak_rss_mb = _peak_rss_mb()
        b += parts
    return out


def check_graph(wl: GraphWorkload, state, out: Outcome, traced: bool) -> None:
    """Checks over every replicate of a run; when one fails, every
    replicate counts as failed, since each fed the failed aggregate."""
    point, spec = state
    rows = out.rows
    n2 = wl.N * wl.N
    expected, var = edge_count_law(point.c, spec, TorusConfig(wl.N))
    edges = np.array([e for _, _, e in rows], dtype=float)
    fracs = np.array([C / n2 for _, C, _ in rows])
    if len(rows):
        z = (edges.mean() - expected) / math.sqrt(var / len(edges))
        out.checks.append(("edge_mean", bool(abs(z) <= Z_MAX),
                           f"mean {edges.mean():.1f} vs exact {expected:.1f}, z={z:.2f}"))
    else:
        out.checks.append(("edge_mean", False, "no replicate completed"))
    if traced:
        out.checks.append(("traced_rows", out.mismatched == 0,
                           f"{out.mismatched} of {len(rows)} traced (seed, C, edges) rows differ "
                           f"from run_experiment's"))
    if wl.beta_tol is not None:
        beta = supercritical_beta(wl.lam)
        ok = bool(len(rows) > 0 and abs(fracs.mean() - beta) <= wl.beta_tol)
        out.checks.append(("giant_fraction", ok,
                           f"mean C/N^2 {fracs.mean() if len(rows) else float('nan'):.4f} "
                           f"vs beta {beta:.4f} +- {wl.beta_tol}"))
    if wl.max_C_frac is not None:
        out.checks.append(("small_components", bool(len(rows) > 0 and fracs.max() < wl.max_C_frac),
                           f"max C/N^2 {fracs.max() if len(rows) else float('nan'):.5f} "
                           f"< {wl.max_C_frac}"))
    if not all(ok for _, ok, _ in out.checks):
        out.failed = out.attempted


def edge_count_law(c: float, spec, cfg: TorusConfig) -> tuple[float, float]:
    """Exact mean and variance of one replicate's edge count, when no
    edge probability is capped.

    With a_uv = c/(N d(u,v)), D = sum_v a_uv = mean_degree and
    A2 = sum_v a_uv^2 (the same for every u), the count is a sum of
    Bernoulli(a_uv W_u W_v) over pairs, so
        mean = (n/2) D (EW)^2,
        var  = (n/2) (D (EW)^2 - A2 (EW)^4) + n (D^2 - A2) (EW)^2 Var W,
    the second term from pairs of pairs that share a vertex.
    """
    n = cfg.n_vertices
    r = np.arange(1, cfg.N + 1, dtype=float)
    D = mean_degree(c, cfg)
    A2 = float((ring_sizes(cfg) * (c / (cfg.N * r)) ** 2).sum())
    ew_sq = spec.mean ** 2
    var_w = spec.second_moment - ew_sq
    return (n / 2 * D * ew_sq,
            n / 2 * (D * ew_sq - A2 * ew_sq * ew_sq) + n * (D * D - A2) * ew_sq * var_w)


def _traced_batch(plan: ExperimentPlan, tracer, batch_id: str) -> list[tuple[int, int, int]]:
    """One plan's replicates rebuilt from public calls in the harness's
    order: TorusConfig, weights_from_dict, sample_graph, largest_component."""
    p = plan.sweep[0]
    rows = []
    with tracer.span("harness.run_experiment", rep=batch_id):
        with tracer.span("harness.weights_from_dict"):
            spec = weights_from_dict(p.weights)
        with tracer.span("theory.build_report"):
            build_report(p.lam, spec)
        for rep in range(plan.replicates):
            seed = replicate_seed(plan.seed, 0, rep)
            with tracer.span("harness.replicate", rep=f"{batch_id}.{rep}"):
                with tracer.span("geometry.ring_tables"):
                    cfg = TorusConfig(p.N)
                    ring_vertices((1, 1), 1, cfg)
                with tracer.span("harness.weights_from_dict"):
                    w = weights_from_dict(p.weights)
                with tracer.span("model.sample_graph") as s:
                    g = sample_graph(ModelConfig(cfg, p.c, w, seed))
                    s["count"] = g.edge_count
                with tracer.span("components.largest_component"):
                    C = largest_component(g).largest
            rows.append((seed, C, g.edge_count))
    return rows


# ---------------------------------------------------------------------------
# branching workload
# ---------------------------------------------------------------------------

SIMULATORS = ("simulate_B1", "simulate_B2")


def _progeny(sim: str, law: Law, n: int, cap: int, rng) -> np.ndarray:
    if sim == "simulate_B1":
        roots = law.tilde.sample(n, rng)
        sizes = [simulate_B1(float(x), law.lam, law.spec, cap, rng) for x in roots]
    else:
        sizes = [simulate_B2(law.lam, law.spec, cap, rng) for _ in range(n)]
    return np.array([-1 if s is EXCEEDED else s for s in sizes], dtype=np.int64)


def run_branching(wl: BranchingWorkload, laws: list[Law], seed: int, seconds: float,
                  tracer=None, part: int = 0, parts: int = 1) -> Outcome:
    """Run rounds ``part``, ``part + parts``, ..., one batch per (law,
    simulator), until ``seconds`` have passed and every round of the
    fixed prefix in this share has run.  With a tracer, every other
    round runs under spans, to measure the tracing overhead."""
    out = Outcome()
    calibrator = Calibrator()
    deadline = perf_counter() + seconds
    r = part
    while r < wl.min_rounds or perf_counter() < deadline:
        digest = hashlib.sha256()
        traced = tracer is not None and r % 2 == 1
        t0 = perf_counter()
        trees = 0
        for li, law in enumerate(laws):
            for si, sim in enumerate(SIMULATORS):
                out.attempted += 1
                rng = np.random.default_rng(replicate_seed(seed, len(SIMULATORS) * li + si, r))
                try:
                    if traced:
                        with tracer.span(f"branching.{sim}", rep=f"{r}.{li}") as s:
                            sizes = _progeny(sim, law, wl.trees_per_batch, wl.cap, rng)
                            s["count"] = len(sizes)
                    else:
                        sizes = _progeny(sim, law, wl.trees_per_batch, wl.cap, rng)
                except Exception:
                    traceback.print_exc()
                    out.failed += 1
                    continue
                trees += len(sizes)
                if r < wl.min_rounds:
                    digest.update(sizes.tobytes())
                z = (sizes.mean() - law.mean) / math.sqrt(law.var / len(sizes))
                ok = bool((sizes >= 1).all()) and abs(z) <= Z_MAX
                if not ok:
                    out.failed += 1
                    out.checks.append((f"progeny_mean {sim} law {li} round {r}", False,
                                       f"mean {sizes.mean():.4f} vs {law.mean:.4f}, z={z:.2f}, "
                                       f"exceeded {int((sizes < 1).sum())}"))
        dt = perf_counter() - t0
        (out.traced_s if traced else out.untraced_s).append(dt)
        out.items.append(trees)
        out.wall_s.append(dt)
        out.calibrated_s.append(calibrator.scale(dt))
        if r < wl.min_rounds:
            out.prefix[r] = digest.hexdigest()
            if r + parts >= wl.min_rounds:
                out.peak_rss_mb = _peak_rss_mb()
        if traced:
            for law in laws:  # the set-up layers, on a fresh spec so no cache is hit
                with tracer.span("harness.weights_from_dict", rep=str(r)):
                    spec = weights_from_dict(law.weights)
                with tracer.span("theory.build_report"):
                    build_report(law.lam, spec)
                with tracer.span("branching.size_biased"):
                    size_biased(spec)
        r += parts
    return out


def check_branching(wl: BranchingWorkload, out: Outcome) -> None:
    """Summary of the per-batch checks, over every batch of a run."""
    out.checks.append(("progeny_mean", out.failed == 0,
                       f"{out.attempted - out.failed}/{out.attempted} batches of "
                       f"{wl.trees_per_batch} trees have no EXCEEDED tree and a mean within "
                       f"{Z_MAX:g} SE of 1/(1 - lambda E W^2)"))


def run(wl, state, seed: int, seconds: float, tracer=None, part: int = 0, parts: int = 1) -> Outcome:
    """Run one share of a workload's batches; ``finish`` checks a run."""
    runner = run_graph if isinstance(wl, GraphWorkload) else run_branching
    return runner(wl, state, seed, seconds, tracer, part, parts)


def finish(wl, state, out: Outcome, traced: bool = False) -> Outcome:
    """Add the checks over a whole run, once its shares are merged."""
    if isinstance(wl, GraphWorkload):
        check_graph(wl, state, out, traced)
    else:
        check_branching(wl, out)
    return out


def run_traced(wl, state, seed: int, seconds: float, tracer, probe_tracer) -> Outcome:
    """A traced run, in one process.  It also runs the probe workload
    that covers the layers this one does not, under ``probe_tracer``."""
    out = finish(wl, state, run(wl, state, seed, seconds, tracer), traced=True)
    probe = BRANCHING_PROBE if isinstance(wl, GraphWorkload) else GRAPH_PROBE
    probe_state = setup(probe)
    checked = finish(probe, probe_state, run(probe, probe_state, seed, 0, probe_tracer), traced=True)
    out.attempted += checked.attempted
    out.failed += checked.failed
    out.checks += checked.checks
    return out


def layer_metrics(out: Outcome, tracer, probe_tracer) -> dict[str, float]:
    """Per-layer metrics of a traced run, from the workload's own spans
    where it has them and from the probe's otherwise."""

    def pick(span_name):
        return tracer if tracer.named(span_name) else probe_tracer

    metrics = {
        f"{name}_s": pick(name).median_s(name)
        for name in ("geometry.ring_tables", "harness.weights_from_dict", "model.sample_graph",
                     "components.largest_component", "theory.build_report",
                     "branching.size_biased")
    }
    sample = pick("model.sample_graph").named("model.sample_graph")
    metrics["model.edges"] = float(statistics.median(s["count"] for s in sample))
    metrics["model.edges_per_s"] = pick("model.sample_graph").rate("model.sample_graph")
    for sim in SIMULATORS:
        metrics[f"branching.{sim}_trees_per_s"] = pick(f"branching.{sim}").rate(f"branching.{sim}")
    metrics["harness.self_s"] = pick("harness.replicate").median_self_s("harness.replicate")
    metrics["trace.overhead_frac"] = out.overhead_frac
    return metrics
