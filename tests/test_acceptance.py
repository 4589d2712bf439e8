"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible with
``pytest -s`` or on failure) and then asserts.  Criteria with hard
runtime limits assert them; the large Monte Carlo criteria (3, 4, 5)
have runtime targets that are reported but not enforced.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np

from torusgraph.components import component_decomposition, largest_component
from torusgraph.geometry import TorusConfig, ring_sizes
from torusgraph.harness import (
    ExperimentPlan,
    borel_check,
    identity_check,
    replicate_seed,
    run_experiment,
    verify_coupling,
)
from torusgraph.model import (
    ModelConfig,
    WeightSpec,
    edge_probability,
    c_of_lambda,
    sample_graph,
)
from torusgraph.geometry import kernel
from torusgraph.theory import (
    subcritical_constant,
    supercritical_beta,
    theorem3_constants,
    weighted_beta_profile,
)


def report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


def test_criterion_01_ring_size_exactness():
    t0 = time.perf_counter()
    ok = True
    for N in range(3, 51):
        cfg = TorusConfig(N)
        sizes = ring_sizes(cfg)
        d = cfg.offset_dist
        dist = d[:, None] + d[None, :]
        counted = np.bincount(dist.ravel(), minlength=N + 1)
        ok &= sizes.sum() == N * N - 1
        for r in range(1, N + 1):
            expect = counted[r] if r < len(counted) else 0
            ok &= sizes[r - 1] == expect
    dt = time.perf_counter() - t0
    ok &= dt < 1.0
    line = report(1, ok, f"N in [3,50], enumeration exact, {dt:.2f}s < 1s")
    assert ok, line


def test_criterion_02_kernel_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    c = 0.7
    for N in range(3, 13):
        cfg = TorusConfig(N)
        m = ModelConfig(cfg, c)
        rng = rng_for(N)
        verts = list(itertools.product(range(1, N + 1), repeat=2))
        w = {v: float(x) for v, x in zip(verts, rng.uniform(0.5, 2.0, len(verts)))}
        for u, v in itertools.combinations(verts, 2):
            p = edge_probability(u, v, w[u], w[v], m)
            kap = kernel((u[0] / N, u[1] / N), w[u], (v[0] / N, v[1] / N), w[v])
            q = min(c * kap / (N * N), 1.0)
            worst = max(worst, abs(p - q) / max(q, 1e-300))
    dt = time.perf_counter() - t0
    ok = worst < 1e-12 and dt < 5.0
    line = report(2, ok, f"max rel err {worst:.2e} over all pairs N<=12, {dt:.2f}s < 5s")
    assert ok, line


def test_criterion_03_supercritical_fraction():
    t0 = time.perf_counter()
    beta = supercritical_beta(2.0)
    assert abs(1 - math.exp(-2 * beta) - beta) < 1e-12
    plan = ExperimentPlan.from_dict(
        {"N": 300, "lambda": 2.0, "replicates": 20, "estimator": "C_over_N2", "seed": 303}
    )
    mean = run_experiment(plan).points[0].mean
    dt = time.perf_counter() - t0
    ok = abs(mean - beta) < 0.03
    line = report(3, ok, f"mean C/N^2 = {mean:.4f} vs beta = {beta:.6f}, "
                         f"|diff| = {abs(mean - beta):.4f} < 0.03, {dt:.0f}s (target < 180s)")
    assert ok, line


def test_criterion_04_subcritical_log_scaling():
    t0 = time.perf_counter()
    target = subcritical_constant(0.5)
    means = []
    for i, N in enumerate((200, 400, 800)):
        plan = ExperimentPlan.from_dict(
            {"N": N, "lambda": 0.5, "replicates": 50,
             "estimator": "C_over_logN2", "seed": 404 + i}
        )
        means.append(run_experiment(plan).points[0].mean)
    errs = [abs(m - target) for m in means]
    trend_ok = all(a >= b for a, b in zip(errs, errs[1:]))
    band_ok = errs[-1] < 0.30 * target
    dt = time.perf_counter() - t0
    ok = trend_ok and band_ok
    line = report(4, ok, f"means {[round(m, 3) for m in means]} vs {target:.4f}; "
                         f"trend {'ok' if trend_ok else 'violated'}, "
                         f"band |{means[-1]:.3f} - {target:.3f}| "
                         f"{'<' if band_ok else '>='} 30%, {dt:.0f}s (target < 600s)")
    assert ok, line


def test_criterion_05_weighted_threshold():
    t0 = time.perf_counter()
    weights = {"kind": "discrete", "values": [1.0, 2.0], "probs": [0.5, 0.5]}
    sub = run_experiment(ExperimentPlan.from_dict(
        {"N": 200, "lambda": 0.35, "weights": weights, "replicates": 30,
         "estimator": "C_over_N2", "seed": 505}
    )).points[0].mean
    sup = run_experiment(ExperimentPlan.from_dict(
        {"N": 200, "lambda": 0.45, "weights": weights, "replicates": 30,
         "estimator": "C_over_N2", "seed": 506}
    )).points[0].mean
    spec = WeightSpec.discrete([1.0, 2.0], [0.5, 0.5])
    _, beta_hat = weighted_beta_profile(0.45, spec)
    dt = time.perf_counter() - t0
    ok = sub < 0.02 and abs(sup - beta_hat) < 0.05
    line = report(5, ok, f"sub mean {sub:.4f} < 0.02; sup mean {sup:.4f} vs "
                         f"beta_hat {beta_hat:.4f}, |diff| = {abs(sup - beta_hat):.4f} < 0.05, "
                         f"{dt:.0f}s (target < 300s)")
    assert ok, line


def test_criterion_06_tilted_identity():
    w = WeightSpec.constant(1.0)
    worst = 0.0
    for lam in (0.2, 0.5, 0.8):
        _, _, limit = theorem3_constants(lam, w)
        worst = max(worst, abs(limit - subcritical_constant(lam)))
    ok = worst < 1e-10
    line = report(6, ok, f"max |1/log gamma - 1/(lam-1-log lam)| = {worst:.2e} < 1e-10")
    assert ok, line


def test_criterion_07_two_process_identity():
    t0 = time.perf_counter()
    cases = [
        (0.6, WeightSpec.constant(1.0)),
        (0.3, WeightSpec.discrete([1.0, 2.0], [0.5, 0.5])),
        (0.3, WeightSpec.truncated_exponential(1.0, 6.0)),
    ]
    n = 100_000
    cap = 100_000
    pvals = []
    for case, (lam, w) in enumerate(cases):
        pvals.append(identity_check(lam, w, n, cap, rng_for(replicate_seed(707, case, 0)))[1])
    dt = time.perf_counter() - t0
    ok = all(p > 0.01 for p in pvals) and dt < 120
    line = report(7, ok, f"KS p-values {[round(p, 3) for p in pvals]} all > 0.01, "
                         f"{dt:.0f}s < 120s")
    assert ok, line


def test_criterion_08_borel_oracle():
    t0 = time.perf_counter()
    n = 1_000_000
    worst = 0.0
    for lp in (0.3, 0.5, 0.8):
        rows = borel_check(lp, n, 20, 10_000_000, rng_for(808))
        worst = max(worst, *(abs(z) for *_, z in rows))
    dt = time.perf_counter() - t0
    ok = worst < 3.0 and dt < 120
    line = report(8, ok, f"max |z| = {worst:.2f} < 3 over lp in {{0.3,0.5,0.8}}, k <= 20, "
                         f"{dt:.0f}s < 120s")
    assert ok, line


def test_criterion_09_coupling_bound():
    t0 = time.perf_counter()
    rows = [r for r in verify_coupling() if r["check"] == "tv_bound"]
    dt = time.perf_counter() - t0
    ok = bool(rows) and all(r["passed"] for r in rows) and dt < 1.0
    line = report(9, ok, f"TV <= lam^2/n on all {len(rows)} grid points, {dt:.2f}s < 1s")
    assert ok, line


def test_criterion_10_lambda_N_expansion():
    t0 = time.perf_counter()
    rows = verify_coupling()
    trend = [r for r in rows if r["check"] == "lambda_N_trend"][0]
    dt = time.perf_counter() - t0
    ok = bool(trend["passed"]) and dt < 1.0
    errs = [f"{e:.4f}" for e in trend["value"]]
    line = report(10, ok, f"N|lambda_N - lambda + 2c/N| = {errs} strictly decreasing, "
                          f"{dt:.2f}s < 1s")
    assert ok, line


def test_criterion_11_exploration_vs_union_find():
    t0 = time.perf_counter()
    ok = True
    rng = rng_for(1111)
    for i in range(1000):
        N = int(rng.integers(3, 11))
        lam = float(rng.uniform(0.2, 2.5))
        m = ModelConfig(TorusConfig(N), c_of_lambda(lam), seed=int(rng.integers(2**31)))
        g = sample_graph(m)
        traces = component_decomposition(g, rng)
        ok &= sorted(map(len, traces)) == sorted(largest_component(g).sizes.tolist())
        if not ok:
            break
    dt = time.perf_counter() - t0
    ok &= dt < 30
    line = report(11, ok, f"multisets equal on 1000 instances N <= 10, {dt:.1f}s < 30s")
    assert ok, line


def test_criterion_12_sampler_performance():
    m = ModelConfig(TorusConfig(300), c_of_lambda(2.0), seed=1212)
    per_rep = []
    for rep in range(3):
        t0 = time.perf_counter()
        sample_graph(replace(m, seed=replicate_seed(1212, 0, rep)))
        per_rep.append(time.perf_counter() - t0)
    ok = max(per_rep) < 10.0
    line = report(12, ok, f"N=300 lambda=2 sample times {[round(t, 2) for t in per_rep]}s, "
                          f"max < 10s")
    assert ok, line
