"""Command-line front end.

Subcommands:
  simulate      run an ExperimentPlan from a JSON config file
  theory        print the TheoryReport for one (lambda, W)
  branching     oracle / simulator cross-checks: `borel` (Borel tail of a
                Poisson tree) or `identity` (B1 = B2 progeny law)
  verify        Binomial-Poisson TV bound and lambda_N expansion suite
  export-graph  sample one graph and dump edge list + weights
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

import numpy as np

from .errors import ParameterError
from .geometry import TorusConfig
from .harness import ExperimentPlan, borel_check, identity_check, run_experiment, verify_coupling
from .model import ModelConfig, WeightSpec, c_of_lambda, lambda_of_c, sample_graph
from .theory import build_report


def _parse_weights(arg: str | None) -> dict | None:
    if arg is None:
        return None
    if arg.strip().startswith("{"):
        return json.loads(arg)
    with open(arg) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="torusgraph")
    sp = ap.add_subparsers(dest="command", required=True)

    sim = sp.add_parser("simulate", help="run an experiment plan")
    sim.add_argument("--config", required=True, help="JSON plan file")
    sim.add_argument("--threads", type=int, default=1)
    sim.add_argument("--format", choices=("csv", "json"), default="csv")
    sim.add_argument("--out", default=None, help="output path (default: stdout)")

    th = sp.add_parser("theory", help="emit a theory report")
    group = th.add_mutually_exclusive_group(required=True)
    group.add_argument("--lambda", dest="lam", type=float)
    group.add_argument("--c", type=float)
    th.add_argument("--weights", default=None, help="JSON literal or file")
    th.add_argument("--out", default=None, help="output path (default: stdout)")

    tree = argparse.ArgumentParser(add_help=False)  # the options both checks read
    tree.add_argument("--samples", type=int, default=100_000)
    tree.add_argument("--cap", type=int, default=1_000_000)
    tree.add_argument("--seed", type=int, default=0)
    checks = sp.add_parser("branching", help="oracle/simulator cross-checks").add_subparsers(
        dest="check", required=True)
    # no abbreviation, so that borel refuses --lambda instead of reading it as --lambda-prime
    borel = checks.add_parser("borel", parents=[tree], allow_abbrev=False,
                              help="progeny of Poisson(lambda') trees against the Borel tail")
    borel.add_argument("--lambda-prime", type=float, default=0.5)
    borel.add_argument("--kmax", type=int, default=20)
    ident = checks.add_parser("identity", parents=[tree], allow_abbrev=False,
                              help="two-sample KS test of the B1 = B2 progeny identity")
    ident.add_argument("--lambda", dest="lam", type=float, default=0.3)
    ident.add_argument("--weights", default=None, help="JSON literal or file")

    sp.add_parser("verify", help="coupling bound + lambda_N expansion suite")

    ex = sp.add_parser("export-graph", help="sample a graph and dump it")
    ex.add_argument("--N", type=int, required=True)
    group = ex.add_mutually_exclusive_group(required=True)
    group.add_argument("--lambda", dest="lam", type=float)
    group.add_argument("--c", type=float)
    ex.add_argument("--weights", default=None)
    ex.add_argument("--out-prefix", required=True)
    ex.add_argument("--seed", type=int, default=0)

    args = ap.parse_args(argv)
    files = contextlib.ExitStack()
    # the one input check: every object a command uses is built here, before any sampling (a
    # branching check refuses bad input before its first draw, so it runs here whole), and
    # last every file it writes is opened, so a bad value never creates or truncates one
    try:
        if args.command == "simulate":
            plan = ExperimentPlan.load(args.config)
            if args.threads < 1:
                raise ParameterError(f"--threads must be >= 1, got {args.threads}")
        elif args.command != "verify":
            spec = WeightSpec.from_dict(_parse_weights(vars(args).get("weights")))
        if args.command == "theory":
            report = build_report(args.lam if args.lam is not None else lambda_of_c(args.c), spec)
        elif args.command == "export-graph":
            c = args.c if args.c is not None else c_of_lambda(args.lam)
            m = ModelConfig(TorusConfig(args.N), c, spec, args.seed)
        elif args.command == "branching":
            rng = np.random.Generator(np.random.Philox(args.seed))
            if args.check == "borel":
                rows = borel_check(args.lambda_prime, args.samples, args.kmax, args.cap, rng)
            else:
                stat, pval = identity_check(args.lam, spec, args.samples, args.cap, rng)
        path = vars(args).get("out")
        out = files.enter_context(open(path, "w")) if path else sys.stdout
        if args.command == "export-graph":
            edges, weights = (files.enter_context(open(args.out_prefix + ext, "w"))
                              for ext in (".edges", ".weights"))
    except (OSError, ValueError) as exc:  # an unreadable or unwritable file, malformed JSON, a typed error
        files.close()
        ap.error(str(exc))

    with files:
        ok = True
        if args.command == "simulate":
            result = run_experiment(plan, threads=args.threads)
            text = result.to_csv() if args.format == "csv" else result.to_json() + "\n"
        elif args.command == "theory":
            text = report.to_json() + "\n"
        elif args.command == "branching" and args.check == "borel":
            flags = ["ok" if abs(z) <= 4 else "FAIL" for *_, z in rows]
            ok = "FAIL" not in flags
            text = "".join(f"k={k:3d}  exact={exact:.6f}  mc={mc:.6f}  |z|={abs(z):5.2f}  {flag}\n"
                           for (k, exact, mc, z), flag in zip(rows, flags))
        elif args.command == "branching":
            ok = pval > 0.01
            text = f"two-sample KS: D={stat:.5f}  p={pval:.4f}  {'ok' if ok else 'FAIL'} (1% level)\n"
        elif args.command == "verify":
            rows = verify_coupling()
            ok = all(row["passed"] for row in rows)
            text = "".join(json.dumps(row) + "\n" for row in rows) + ("PASS\n" if ok else "FAIL\n")
        else:  # export-graph
            g = sample_graph(m)
            g.export_edges(edges)
            g.export_weights(weights)
            text = (f"N={args.N} vertices={g.n_vertices} edges={g.edge_count} "
                    f"-> {args.out_prefix}.edges, {args.out_prefix}.weights\n")
        out.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
