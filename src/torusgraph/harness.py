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
import os
from dataclasses import dataclass

import numpy as np

from .components import largest_component
from .errors import ParameterError, integer, number, reject_unknown_keys
from .geometry import TorusConfig
from .model import ModelConfig, WeightSpec, c_of_lambda, lambda_N, lambda_of_c, ring_scale, sample_graph
from .theory import build_report
from .branching import EXCEEDED, binomial_poisson_tv, borel_tail, progeny_batch, simulate_B1

# each estimator: its value from (C, N), and the regime and TheoryReport
# field of its limit target; a point in another regime has no target
ESTIMATORS = {
    "C_over_N2": (lambda C, N: C / N**2, "supercritical", "beta_hat"),
    "C_over_logN2": (lambda C, N: C / math.log(N * N), "subcritical", "sub_const_weighted"),
}

# the JSON form is owned by WeightSpec; bench/workloads.py is this alias's only caller
weights_from_dict = WeightSpec.from_dict


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------

# the keys a sweep point may carry, and ExperimentPlan's own; a plan's
# top-level weights are its points' default, see ExperimentPlan.from_dict
_POINT_KEYS = {"N", "c", "lambda", "weights"}
_PLAN_KEYS = {"replicates", "estimator", "seed"}


@dataclass
class SweepPoint:
    N: int
    c: float
    weights: dict | None = None  # None: constant weight 1

    def __post_init__(self):  # a bad point fails when its plan is built, before any point runs
        if self.weights is None:
            self.weights = WeightSpec.constant().to_dict()
        self.N = TorusConfig(self.N).N
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

    def __post_init__(self):
        if not self.sweep:  # else a run would write a header and no row
            raise ParameterError("sweep must hold at least one point")
        self.replicates = integer(self.replicates, "replicates", 1)
        self.seed = integer(self.seed, "seed", 0)
        if self.estimator not in ESTIMATORS:
            raise ParameterError(f"estimator must be one of {tuple(ESTIMATORS)}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentPlan":
        """Plan from its JSON form: a `sweep` list of points, or one
        point's keys at top level.  An unknown key raises ParameterError."""
        if not isinstance(d, dict):
            raise ParameterError(f"a plan must be a JSON object, got {d!r}")
        reject_unknown_keys(d, _PLAN_KEYS | ({"sweep", "weights"} if "sweep" in d else _POINT_KEYS), "a plan")
        points = d["sweep"] if "sweep" in d else [{k: d[k] for k in _POINT_KEYS if k in d}]
        if not isinstance(points, list):
            raise ParameterError(f"sweep must be a list, got {points!r}")
        for p in points:
            if not isinstance(p, dict):
                raise ParameterError(f"a sweep point must be a JSON object, got {p!r}")
            reject_unknown_keys(p, _POINT_KEYS, "a sweep point")
        weights = d.get("weights")
        sweep = [SweepPoint(N=p.get("N"), c=_point_c(p), weights=p.get("weights", weights)) for p in points]
        # only the keys present are passed: each default lives in the constructor
        return cls(sweep, **{key: d[key] for key in _PLAN_KEYS if key in d})

    @classmethod
    def load(cls, path) -> "ExperimentPlan":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _point_c(p: dict) -> float:
    if ("c" in p) == ("lambda" in p):
        raise ParameterError("give exactly one of 'c' or 'lambda' per sweep point")
    return number(p["c"], "c") if "c" in p else c_of_lambda(number(p["lambda"], "lambda"))


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def replicate_seed(root: int, point_index: int, rep: int) -> int:
    """Stable 64-bit seed for one replicate of one sweep point."""
    ss = np.random.SeedSequence(entropy=(int(root), int(point_index), int(rep)))
    return int(ss.generate_state(1, np.uint64)[0])


def _replicate_task(point: SweepPoint, seed: int) -> dict:
    """One replicate's row; each key is a column of CSV_COLUMNS."""
    g = sample_graph(ModelConfig(TorusConfig(point.N), point.c, point.weight_spec(), seed))
    return {"seed": seed, "C": largest_component(g).largest, "edges": g.edge_count}


# the CSV header: a replicate row fills N..value, a summary row N..estimator
# and mean..warnings, and a column a row does not carry is left blank
CSV_COLUMNS = ("row", "N", "c", "lambda", "estimator", "replicate", "seed", "C", "edges", "value",
               "mean", "std", "stderr", "target", "z", "warnings")


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

    def summary(self) -> dict:
        """The summary fields by name, in report order."""
        return {"mean": self.mean, "std": self.std, "stderr": self.stderr,
                "target": self.target, "z": self.z, "warnings": self.warnings}


@dataclass
class ExperimentResult:
    plan: ExperimentPlan
    points: list[PointResult]

    def to_csv(self) -> str:
        """One row per replicate and one summary row per point.  csv writes
        a number with str, Python's shortest round-trip form, and None
        as a blank cell; a row key outside CSV_COLUMNS raises."""
        buf = io.StringIO()
        writer = csv.DictWriter(buf, CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for pr in self.points:
            point = {"N": pr.point.N, "c": pr.point.c, "lambda": pr.point.lam, "estimator": self.plan.estimator}
            writer.writerows({"row": "replicate", **point, **row} for row in pr.replicate_rows)
            writer.writerow({"row": "summary", **point, **pr.summary(), "warnings": ";".join(pr.warnings)})
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps({
            "estimator": self.plan.estimator,
            "seed": self.plan.seed,
            "points": [
                {"N": pr.point.N, "c": pr.point.c, "lambda": pr.point.lam, "weights": pr.point.weights,
                 "replicates": pr.replicate_rows, **pr.summary()}
                for pr in self.points
            ],
        }, indent=2)


def run_experiment(plan: ExperimentPlan, threads: int = 1) -> ExperimentResult:
    """Run every sweep point; deterministic given the plan and root seed.

    Replicates fan out over min(threads, replicates, CPUs) worker
    processes, as no more run at once, one pool for the whole run, so each
    worker builds its slot tables once per N; rows are reduced in replicate order
    regardless of completion order (executor.map preserves input order).
    """
    # a fork-started pool forks them all at its first map
    workers = min(threads, plan.replicates, os.cpu_count() or 1)
    pool = None
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported only when a pool starts
        pool = ProcessPoolExecutor(max_workers=workers)
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
    value, regime, field = ESTIMATORS[plan.estimator]
    seeds = [replicate_seed(plan.seed, pi, rep) for rep in range(plan.replicates)]
    rows = [
        {"replicate": rep, **row, "value": value(row["C"], p.N)}
        for rep, row in enumerate(run(_replicate_task, [p] * plan.replicates, seeds))
    ]
    values = np.array([r["value"] for r in rows])
    mean = float(values.mean())
    std = float(values.std(ddof=1)) if len(values) > 1 else 0.0
    se = std / math.sqrt(len(values))
    target = getattr(report, field) if report.regime == regime else None
    z = (mean - target) / se if (target is not None and se > 0) else None
    return PointResult(p, rows, mean, std, se, target, z, warnings)


# ---------------------------------------------------------------------------
# verification front-ends
# ---------------------------------------------------------------------------

def verify_coupling() -> list[dict]:
    """Pass/fail table for the Binomial-Poisson TV bound on n in
    {10, 100, 1000} x lambda in {0.5, 1, 2}, and for the finite-N
    intensity expansion lambda_N = lambda - 2c/N + o(1/N) at c = 1 on
    N in {250, 500, 1000, 2000}."""
    rows: list[dict] = []
    for n in (10, 100, 1000):
        for lam in (0.5, 1.0, 2.0):
            tv, bound = binomial_poisson_tv(n, lam), lam * lam / n
            rows.append({"check": "tv_bound", "n": n, "lambda": lam,
                         "value": tv, "bound": bound, "passed": tv <= bound})
    c = 1.0
    lam = lambda_of_c(c)
    errs = []
    for N in (250, 500, 1000, 2000):
        lN = lambda_N(c, TorusConfig(N))
        err = N * abs(lN - lam + 2 * c / N)
        errs.append(err)
        rows.append({"check": "lambda_N_expansion", "N": N, "lambda_N": lN,
                     "value": err, "bound": None, "passed": True})
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    rows.append({"check": "lambda_N_trend", "value": errs, "bound": "strictly decreasing",
                 "passed": decreasing})
    return rows


def borel_check(lambda_prime: float, n: int, kmax: int, cap: int,
                rng: np.random.Generator) -> list[tuple[int, float, float, float]]:
    """(k, exact, mc, z) for k = 1..kmax: the Borel tail P{T >= k} of a
    Po(lambda') tree, the fraction of n progeny_batch trees reaching k,
    and their z-score under the Binomial(n, exact) sampling error.  A
    tree past `cap` counts as cap + 1, as in identity_check.

    Refuses, before the first draw: n, kmax or cap below 1, kmax above
    cap + 1 (past it a tree's size is unknown) with ParameterError, and
    lambda' outside (0, 1), where the Borel law has no tail, with the
    RegimeError of borel_tail, which draws nothing."""
    if min(n, kmax, cap) < 1:
        raise ParameterError(f"n, kmax and cap must be >= 1, got n={n}, kmax={kmax} and cap={cap}")
    if kmax > cap + 1:
        raise ParameterError(f"kmax must be <= cap + 1, got kmax={kmax} and cap={cap}")
    exact = borel_tail(lambda_prime, np.arange(1, kmax + 1))
    sizes = progeny_batch(lambda_prime, WeightSpec.constant(), n, cap, rng)
    sizes[sizes == EXCEEDED] = cap + 1
    # the trees reaching k, n minus those of size < k, over n: (sizes >= k).mean() exactly
    mc = (n - np.cumsum(np.bincount(np.minimum(sizes, kmax + 1), minlength=kmax + 2))[:kmax]) / n
    z = (mc - exact) / np.maximum(np.sqrt(exact * (1 - exact) / n), 1e-12)
    return list(zip(range(1, kmax + 1), exact.tolist(), mc.tolist(), z.tolist()))


def identity_check(lam: float, w: WeightSpec, n: int, cap: int,
                   rng: np.random.Generator) -> tuple[float, float]:
    """Two-sample KS (D, p) between the total progeny of n B1 trees, each
    rooted at a size-biased type, and n B2 trees, whose laws are equal.
    Draws every root in one batch, then B1 per root, then B2 in one
    progeny_batch; a tree past `cap` counts as cap + 1 in both samples.

    Refuses, before the first draw: n or cap below 1 and a B2 offspring
    mean lambda * E(W^2) outside [0, 1), where a tree may never end, with
    ParameterError, and E W = 0, where B1's size-biased root has no law,
    with the error of w.size_biased."""
    if min(n, cap) < 1:
        raise ParameterError(f"n and cap must be >= 1, got n={n} and cap={cap}")
    mean_offspring = lam * w.second_moment
    if not 0 <= mean_offspring < 1:
        raise ParameterError(f"lambda must give 0 <= lambda * E(W^2) < 1, got {lam} * "
                             f"{w.second_moment:g} = {mean_offspring:g}")
    tilde = w.size_biased  # B1's root law: raises here unless E W > 0
    from scipy.stats import ks_2samp  # ~1 s and ~70 MB if it is the first scipy module
    roots = tilde.sample(n, rng)
    b = np.stack([np.fromiter((simulate_B1(float(x), lam, w, cap, rng) for x in roots), np.int64, n),
                  progeny_batch(lam, w, n, cap, rng)])
    b[b == EXCEEDED] = cap + 1
    res = ks_2samp(*b)
    return float(res.statistic), float(res.pvalue)
