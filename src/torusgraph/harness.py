"""Experiment orchestration: sweeps, replicates, CSV/JSON reporting.

A plan is a list of sweep points (N, c, weight law) with a replicate
count, an estimator (C/N^2 or C/log N^2), and a root seed.  Replicate
seeds are derived from (root, point, replicate) through a counter-based
scheme, so results are reproducible bit-for-bit regardless of how the
replicates are scheduled across workers.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .components import largest_component
from .errors import ParameterError, integer, number, reject_unknown_keys
from .geometry import TorusConfig
from .model import ModelConfig, WeightSpec, c_of_lambda, lambda_N, lambda_of_c, ring_scale, sample_graph
from .theory import TheoryReport, build_report
from .branching import EXCEEDED, binomial_poisson_tv, borel_tail, progeny_batch, simulate_B1

ESTIMATORS = ("C_over_N2", "C_over_logN2")

# the JSON form is owned by WeightSpec; bench/workloads.py is this alias's only caller
weights_from_dict = WeightSpec.from_dict


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------

_DEFAULT_WEIGHTS = {"kind": "constant", "value": 1.0}
# the keys a plan and a sweep point may carry, see ExperimentPlan.from_dict
_POINT_KEYS = {"N", "c", "lambda", "weights"}
_PLAN_KEYS = {"weights", "replicates", "estimator", "seed", "output"}


@dataclass
class SweepPoint:
    N: int
    c: float
    weights: dict | None = None  # None: constant weight 1

    def __post_init__(self):  # a bad point fails when its plan is built, before any point runs
        if self.weights is None:
            self.weights = _DEFAULT_WEIGHTS.copy()
        self.N = integer(self.N, "N", 2)  # N = 2 is the smallest torus
        lambda_of_c(self.c)
        self.weight_spec()

    @property
    def lam(self) -> float:
        return lambda_of_c(self.c)

    def weight_spec(self) -> WeightSpec:
        return WeightSpec.from_dict(self.weights)


@dataclass
class ExperimentPlan:
    sweep: list[SweepPoint]
    replicates: int = 1
    estimator: str = "C_over_N2"
    seed: int = 0
    output: str | None = None

    def __post_init__(self):
        self.replicates = integer(self.replicates, "replicates", 1)
        self.seed = integer(self.seed, "seed", 0)
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"estimator must be one of {ESTIMATORS}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentPlan":
        """Plan from its JSON form: a `sweep` list of points, or one
        point's keys at top level.  An unknown key raises ParameterError."""
        if not isinstance(d, dict):
            raise ParameterError(f"a plan must be a JSON object, got {d!r}")
        reject_unknown_keys(d, _PLAN_KEYS | ({"sweep"} if "sweep" in d else _POINT_KEYS), "a plan")
        points = d["sweep"] if "sweep" in d else [{k: d[k] for k in ("N", "c", "lambda") if k in d}]
        if not isinstance(points, list):
            raise ParameterError(f"sweep must be a list, got {points!r}")
        for p in points:
            if not isinstance(p, dict):
                raise ParameterError(f"a sweep point must be a JSON object, got {p!r}")
            reject_unknown_keys(p, _POINT_KEYS, "a sweep point")
        if d.get("output") is not None and not isinstance(d["output"], str):
            raise ParameterError(f"output must be a string, got {d['output']!r}")
        weights = d.get("weights")
        sweep = [SweepPoint(N=p.get("N"), c=_point_c(p), weights=p.get("weights", weights)) for p in points]
        return cls(
            sweep=sweep,
            replicates=d.get("replicates", 1),
            estimator=d.get("estimator", "C_over_N2"),
            seed=d.get("seed", 0),
            output=d.get("output"),
        )

    @classmethod
    def load(cls, path) -> "ExperimentPlan":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _point_c(p: dict) -> float:
    if ("c" in p) == ("lambda" in p):
        raise ValueError("give exactly one of 'c' or 'lambda' per sweep point")
    return number(p["c"], "c") if "c" in p else c_of_lambda(number(p["lambda"], "lambda"))


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def replicate_seed(root: int, point_index: int, rep: int) -> int:
    """Stable 64-bit seed for one replicate of one sweep point."""
    ss = np.random.SeedSequence(entropy=(int(root), int(point_index), int(rep)))
    return int(ss.generate_state(1, np.uint64)[0])


def _replicate_task(args) -> tuple[int, int, int]:
    N, c, weights_dict, seed = args
    m = ModelConfig(TorusConfig(N), c, WeightSpec.from_dict(weights_dict), seed)
    g = sample_graph(m)
    return largest_component(g).largest, g.edge_count, seed


@dataclass
class PointResult:
    point: SweepPoint
    replicate_rows: list[dict]
    mean: float
    std: float
    stderr: float
    target: float | None
    z: float | None
    warnings: list[str]


@dataclass
class ExperimentResult:
    plan: ExperimentPlan
    points: list[PointResult]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["row", "N", "c", "lambda", "estimator", "replicate", "seed",
             "C", "edges", "value", "mean", "std", "stderr", "target", "z", "warnings"]
        )
        for pr in self.points:
            p = pr.point
            for row in pr.replicate_rows:
                writer.writerow(
                    ["replicate", p.N, repr(p.c), repr(p.lam), self.plan.estimator,
                     row["replicate"], row["seed"], row["C"], row["edges"],
                     repr(row["value"]), "", "", "", "", "", ""]
                )
            writer.writerow(
                ["summary", p.N, repr(p.c), repr(p.lam), self.plan.estimator, "", "", "", "",
                 "", repr(pr.mean), repr(pr.std), repr(pr.stderr),
                 "" if pr.target is None else repr(pr.target),
                 "" if pr.z is None else repr(pr.z),
                 ";".join(pr.warnings)]
            )
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps({
            "estimator": self.plan.estimator,
            "seed": self.plan.seed,
            "points": [
                {
                    "N": pr.point.N,
                    "c": pr.point.c,
                    "lambda": pr.point.lam,
                    "weights": pr.point.weights,
                    "replicates": pr.replicate_rows,
                    "mean": pr.mean,
                    "std": pr.std,
                    "stderr": pr.stderr,
                    "target": pr.target,
                    "z": pr.z,
                    "warnings": pr.warnings,
                }
                for pr in self.points
            ],
        }, indent=2)


def estimator_value(estimator: str, C: int, N: int) -> float:
    if estimator == "C_over_N2":
        return C / N**2
    return C / math.log(N * N)


def theory_target(estimator: str, report: TheoryReport) -> float | None:
    if estimator == "C_over_N2" and report.regime == "supercritical":
        return report.beta_hat
    if estimator == "C_over_logN2" and report.regime == "subcritical":
        return report.sub_const_weighted
    return None


def run_experiment(plan: ExperimentPlan, threads: int = 1) -> ExperimentResult:
    """Run every sweep point; deterministic given the plan and root seed.

    Replicates fan out over min(threads, replicates) worker processes, as
    no more run at once, one pool for the whole run, so each worker builds
    its slot tables once per N; rows are reduced in replicate order
    regardless of completion order (executor.map preserves input order).
    """
    workers = min(threads, plan.replicates)  # a fork-started pool forks them all at its first map
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    run = pool.map if pool else map
    with pool or contextlib.nullcontext():
        points = [_run_point(plan, pi, p, run) for pi, p in enumerate(plan.sweep)]
    return ExperimentResult(plan, points)


def _run_point(plan: ExperimentPlan, pi: int, p: SweepPoint, run) -> PointResult:
    """Replicates of sweep point `pi`, mapped with `run`, and their summary."""
    spec = p.weight_spec()
    report = build_report(p.lam, spec)
    warnings: list[str] = []
    if ring_scale(p.c, p.N)[0] * spec.support_bound**2 >= 1:
        warnings.append("edge probability capped at distance 1; theory assumes p_r < 1")
    tasks = [
        (p.N, p.c, p.weights, replicate_seed(plan.seed, pi, rep))
        for rep in range(plan.replicates)
    ]
    rows = [
        {"replicate": rep, "seed": seed, "C": C, "edges": edges,
         "value": estimator_value(plan.estimator, C, p.N)}
        for rep, (C, edges, seed) in enumerate(run(_replicate_task, tasks))
    ]
    values = np.array([r["value"] for r in rows])
    mean = float(values.mean())
    std = float(values.std(ddof=1)) if len(values) > 1 else 0.0
    se = std / math.sqrt(len(values)) if len(values) > 1 else 0.0
    target = theory_target(plan.estimator, report)
    z = (mean - target) / se if (target is not None and se > 0) else None
    return PointResult(p, rows, mean, std, se, target, z, warnings)


# ---------------------------------------------------------------------------
# verification front-ends
# ---------------------------------------------------------------------------

DEFAULT_TV_GRID = tuple(
    (n, lam) for n in (10, 100, 1000) for lam in (0.5, 1.0, 2.0) if lam <= n
)
DEFAULT_LAMBDA_N_SWEEP = (250, 500, 1000, 2000)


def verify_coupling(tv_grid=DEFAULT_TV_GRID, lambda_n_sweep=DEFAULT_LAMBDA_N_SWEEP,
                    c: float = 1.0) -> list[dict]:
    """Pass/fail table for the Binomial-Poisson TV bound and the
    finite-N intensity expansion lambda_N = lambda - 2c/N + o(1/N)."""
    rows: list[dict] = []
    for n, lam in tv_grid:
        tv = binomial_poisson_tv(n, lam)
        bound = lam * lam / n
        rows.append(
            {"check": "tv_bound", "n": n, "lambda": lam,
             "value": tv, "bound": bound, "passed": tv <= bound}
        )
    if lambda_n_sweep:
        lam = lambda_of_c(c)
        errs = []
        for N in lambda_n_sweep:
            lN = lambda_N(c, TorusConfig(N))
            err = N * abs(lN - lam + 2 * c / N)
            errs.append(err)
            rows.append(
                {"check": "lambda_N_expansion", "N": N, "lambda_N": lN,
                 "value": err, "bound": None, "passed": True}
            )
        decreasing = all(a > b for a, b in zip(errs, errs[1:]))
        rows.append(
            {"check": "lambda_N_trend", "value": errs, "bound": "strictly decreasing",
             "passed": decreasing}
        )
    return rows


def borel_check(lambda_prime: float, n: int, kmax: int, cap: int,
                rng: np.random.Generator) -> list[tuple[int, float, float, float]]:
    """(k, exact, mc, z) for k = 1..kmax: the Borel tail P{T >= k} of a
    Po(lambda') tree, the fraction of n progeny_batch trees reaching k,
    and their z-score under the Binomial(n, exact) sampling error.  A
    tree past `cap` counts as cap + 1, as in identity_check, so kmax
    must be at most cap + 1: past it a tree's size is unknown."""
    if kmax > cap + 1:
        raise ParameterError(f"kmax must be <= cap + 1, got kmax={kmax} and cap={cap}")
    sizes = progeny_batch(lambda_prime, WeightSpec.constant(), n, cap, rng)
    sizes[sizes == EXCEEDED] = cap + 1
    exact = borel_tail(lambda_prime, np.arange(1, kmax + 1))
    # the trees reaching k, n minus those of size < k, over n: (sizes >= k).mean() exactly
    mc = (n - np.cumsum(np.bincount(np.minimum(sizes, kmax + 1), minlength=kmax + 2))[:kmax]) / n
    z = (mc - exact) / np.maximum(np.sqrt(exact * (1 - exact) / n), 1e-12)
    return list(zip(range(1, kmax + 1), exact.tolist(), mc.tolist(), z.tolist()))


def identity_check(lam: float, w: WeightSpec, n: int, cap: int,
                   rng: np.random.Generator) -> tuple[float, float]:
    """Two-sample KS (D, p) between the total progeny of n B1 trees, each
    rooted at a size-biased type, and n B2 trees, whose laws are equal.
    Draws every root in one batch, then B1 per root, then B2 in one
    progeny_batch; a tree past `cap` counts as cap + 1 in both samples."""
    from scipy.stats import ks_2samp  # ~0.6 s and ~21 MB on first import
    roots = w.size_biased.sample(n, rng)
    b = np.stack([np.fromiter((simulate_B1(float(x), lam, w, cap, rng) for x in roots), np.int64, n),
                  progeny_batch(lam, w, n, cap, rng)])
    b[b == EXCEEDED] = cap + 1
    res = ks_2samp(*b)
    return float(res.statistic), float(res.pvalue)
