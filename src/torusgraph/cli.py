"""Command-line front end.

Subcommands:
  simulate      run an ExperimentPlan from a JSON config file
  theory        print the TheoryReport for one (lambda, W)
  branching     oracle / simulator cross-checks
  verify        Binomial-Poisson TV bound and lambda_N expansion suite
  export-graph  sample one graph and dump edge list + weights
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .branching import EXCEEDED, borel_tail, progeny_batch, simulate_B1
from .geometry import TorusConfig
from .harness import ExperimentPlan, run_experiment, verify_coupling, verify_theory
from .model import ModelConfig, WeightSpec, c_of_lambda, sample_graph


def _parse_weights(arg: str | None) -> dict | None:
    if arg is None:
        return None
    if arg.strip().startswith("{"):
        return json.loads(arg)
    with open(arg) as fh:
        return json.load(fh)


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=None, help="override the root seed")
    sub.add_argument("--out", default=None, help="output path (default: stdout)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="torusgraph")
    sp = ap.add_subparsers(dest="command", required=True)

    sim = sp.add_parser("simulate", help="run an experiment plan")
    sim.add_argument("--config", required=True, help="JSON plan file")
    sim.add_argument("--threads", type=int, default=1)
    sim.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common(sim)

    th = sp.add_parser("theory", help="emit a theory report")
    group = th.add_mutually_exclusive_group(required=True)
    group.add_argument("--lambda", dest="lam", type=float)
    group.add_argument("--c", type=float)
    th.add_argument("--weights", default=None, help="JSON literal or file")
    _add_common(th)

    br = sp.add_parser("branching", help="oracle/simulator cross-checks")
    br.add_argument("--check", choices=("borel", "identity"), default="borel")
    br.add_argument("--lambda-prime", type=float, default=0.5)
    br.add_argument("--lambda", dest="lam", type=float, default=0.3)
    br.add_argument("--weights", default=None)
    br.add_argument("--samples", type=int, default=100_000)
    br.add_argument("--kmax", type=int, default=20)
    br.add_argument("--cap", type=int, default=1_000_000)
    _add_common(br)

    ver = sp.add_parser("verify", help="coupling bound + lambda_N expansion suite")
    _add_common(ver)

    ex = sp.add_parser("export-graph", help="sample a graph and dump it")
    ex.add_argument("--N", type=int, required=True)
    group = ex.add_mutually_exclusive_group(required=True)
    group.add_argument("--lambda", dest="lam", type=float)
    group.add_argument("--c", type=float)
    ex.add_argument("--weights", default=None)
    ex.add_argument("--out-prefix", required=True)
    ex.add_argument("--seed", type=int, default=0)

    args = ap.parse_args(argv)
    try:  # a bad JSON key or value exits with code 2, like a bad option
        if args.command == "simulate":
            plan = ExperimentPlan.load(args.config)
            for point in plan.sweep:
                point.weight_spec()  # a bad weight key fails here, not mid-run
        elif args.command in ("theory", "branching", "export-graph"):
            spec = WeightSpec.from_dict(_parse_weights(args.weights))
    except ValueError as exc:  # ParameterError, and the laws' own range checks
        ap.error(str(exc))

    if args.command == "simulate":
        if args.seed is not None:
            plan.seed = args.seed
        result = run_experiment(plan, threads=args.threads)
        out = args.out or plan.output
        if out:
            result.write(out, fmt=args.format)
            print(f"wrote {out}")
        else:
            sys.stdout.write(result.to_csv())
        return 0

    if args.command == "theory":
        report = verify_theory(lam=args.lam, c=args.c, weights=spec)
        text = report.to_json()
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        return 0

    if args.command == "branching":
        rng = np.random.Generator(np.random.Philox(args.seed or 0))
        if args.check == "borel":
            if not 0 < args.lambda_prime < 1:  # the Borel law needs a subcritical tree
                ap.error(f"--lambda-prime must lie in (0, 1), got {args.lambda_prime}")
            sizes = progeny_batch(args.lambda_prime, WeightSpec.constant(), args.samples, args.cap, rng)
            ok = True
            for k in range(1, args.kmax + 1):
                mc = float((sizes >= k).mean())
                exact = borel_tail(args.lambda_prime, k)
                sigma = max((exact * (1 - exact) / args.samples) ** 0.5, 1e-12)
                passed = abs(mc - exact) <= 4 * sigma
                ok &= passed
                print(f"k={k:3d}  exact={exact:.6f}  mc={mc:.6f}  "
                      f"|z|={abs(mc - exact) / sigma:5.2f}  {'ok' if passed else 'FAIL'}")
            return 0 if ok else 1
        mean_offspring = args.lam * spec.second_moment  # B2's offspring mean
        if not 0 <= mean_offspring < 1:  # otherwise a tree may never end
            ap.error(f"--lambda must give 0 <= lambda * E(W^2) < 1, got {args.lam} * "
                     f"{spec.second_moment:g} = {mean_offspring:g}")
        s1 = []
        for _ in range(args.samples):
            x = float(spec.size_biased.sample(1, rng)[0])
            t = simulate_B1(x, args.lam, spec, args.cap, rng)
            s1.append(args.cap + 1 if t is EXCEEDED else t)
        s2 = progeny_batch(args.lam, spec, args.samples, args.cap, rng)
        s2[s2 < 0] = args.cap + 1
        from scipy.stats import ks_2samp  # ~0.6 s and ~21 MB on first import
        stat, pval = ks_2samp(s1, s2)
        print(f"two-sample KS: D={stat:.5f}  p={pval:.4f}  "
              f"{'ok' if pval > 0.01 else 'FAIL'} (1% level)")
        return 0 if pval > 0.01 else 1

    if args.command == "verify":
        rows = verify_coupling()
        ok = True
        for row in rows:
            ok &= bool(row["passed"])
            print(json.dumps(row))
        print("PASS" if ok else "FAIL")
        return 0 if ok else 1

    if args.command == "export-graph":
        c = args.c if args.c is not None else c_of_lambda(args.lam)
        m = ModelConfig(TorusConfig(args.N), c, spec, args.seed)
        g = sample_graph(m)
        g.export_edges(args.out_prefix + ".edges")
        g.export_weights(args.out_prefix + ".weights")
        print(f"N={args.N} vertices={g.n_vertices} edges={g.edge_count} "
              f"-> {args.out_prefix}.edges, {args.out_prefix}.weights")
        return 0

    return 2


if __name__ == "__main__":
    raise SystemExit(main())
