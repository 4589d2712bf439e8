import concurrent.futures
import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import torusgraph
from torusgraph import harness
from torusgraph.cli import main as cli_main
from torusgraph.errors import ParameterError
from torusgraph.harness import (
    ExperimentPlan,
    SweepPoint,
    replicate_seed,
    run_experiment,
    verify_coupling,
)
from torusgraph.model import WeightSpec, c_of_lambda


W12 = {"kind": "discrete", "values": [1.0, 2.0], "probs": [0.5, 0.5]}
# the tilt overflows at its bracket end 1/crit, about 1e12, but not at the root
TILT_OVERFLOW = {"kind": "discrete", "values": [1e-6, 1.0], "probs": [0.999999999999, 1e-12]}


def small_plan(**over):
    base = {
        "sweep": [{"N": 10, "lambda": 2.0}, {"N": 12, "c": 0.3}],
        "replicates": 3,
        "estimator": "C_over_N2",
        "seed": 42,
    }
    base.update(over)
    return ExperimentPlan.from_dict(base)


class TestWeightsDict:
    def test_default_constant(self):
        w = WeightSpec.from_dict(None)
        assert w.to_dict()["kind"] == "constant" and w.mean == 1.0

    def test_discrete_roundtrip(self):
        d = {"kind": "discrete", "values": [1.0, 2.0], "probs": [0.5, 0.5]}
        w = WeightSpec.from_dict(d)
        assert w.to_dict() == d

    def test_truncated_exponential(self):
        w = WeightSpec.from_dict({"kind": "truncated_exponential", "rate": 1.0, "upper": 4.0})
        assert w.support_bound == 4.0

    def test_size_biased_has_no_dict_form(self):
        tilde = WeightSpec.discrete([1.0, 2.0], [0.5, 0.5]).size_biased
        assert repr(tilde) == "WeightSpec.size_biased(<2 atoms>)"
        with pytest.raises(ParameterError, match="no JSON form"):
            tilde.to_dict()

    def test_unknown_kind(self):
        with pytest.raises(ParameterError, match="'lognormal'"):
            WeightSpec.from_dict({"kind": "lognormal"})

    @pytest.mark.parametrize("d", [
        {"kind": "constant", "value": 1.5},
        {"kind": "discrete", "values": [1.0, 2.0], "probs": [0.25, 0.75]},
        {"kind": "truncated_exponential", "rate": 2.0, "upper": 6.0},
    ])
    def test_roundtrip_every_kind(self, d):
        w = WeightSpec.from_dict(d)
        assert w.to_dict() == d
        back = WeightSpec.from_dict(json.loads(json.dumps(w.to_dict())))
        assert back.to_dict()["kind"] == w.to_dict()["kind"]
        assert back.support_bound == w.support_bound
        assert back.mean == w.mean and back.second_moment == w.second_moment

    def test_truncated_exponential_defaults_roundtrip(self):
        w = WeightSpec.from_dict({"kind": "truncated_exponential"})
        d = w.to_dict()
        assert d == {"kind": "truncated_exponential", "rate": 1.0, "upper": 8.0}
        assert WeightSpec.from_dict(d).to_dict() == d

    @pytest.mark.parametrize("d, key", [
        ({"kind": "truncated_exponential", "rate": 1.0, "uper": 4.0}, "uper"),
        ({"kind": "constant", "valeu": 2.0}, "valeu"),
        ({"kind": "discrete", "values": [1.0], "probs": [1.0], "prob": [1.0]}, "prob"),
    ])
    def test_unknown_key_rejected(self, d, key):
        # a misspelled key would silently run the default law instead
        with pytest.raises(ParameterError, match=repr(key)):
            WeightSpec.from_dict(d)


class TestPlanParsing:
    @pytest.mark.parametrize("d, key", [
        ({"N": 10, "lambda": 2.0, "replicate": 50}, "replicate"),
        ({"N": 10, "lambda": 2.0, "estimater": "C_over_logN2"}, "estimater"),
        ({"sweep": [{"N": 10, "lambda": 2.0}], "replicate": 50}, "replicate"),
        ({"sweep": [{"N": 10, "lambda": 2.0}], "N": 12}, "N"),
        ({"sweep": [{"N": 10, "lambda": 2.0,
                     "weight": {"kind": "discrete", "values": [1.0, 2.0], "probs": [0.5, 0.5]}}]},
         "weight"),
        ({"N": 10, "lambda": 2.0, "weights": {"kind": "constant", "valeu": 2.0}}, "valeu"),
    ])
    def test_unknown_key_rejected(self, d, key):
        # a misspelled key would silently run a different experiment
        with pytest.raises(ParameterError, match=repr(key)):
            ExperimentPlan.from_dict(d).sweep[0].weight_spec()

    def test_c_lambda_exclusive(self):
        with pytest.raises(ParameterError, match="exactly one of"):
            ExperimentPlan.from_dict({"sweep": [{"N": 8, "c": 0.5, "lambda": 1.0}]})
        with pytest.raises(ParameterError, match="exactly one of"):
            ExperimentPlan.from_dict({"sweep": [{"N": 8}]})

    def test_lambda_converted_to_c(self):
        plan = ExperimentPlan.from_dict({"sweep": [{"N": 8, "lambda": 2.0}]})
        assert plan.sweep[0].c == pytest.approx(c_of_lambda(2.0))
        assert plan.sweep[0].lam == pytest.approx(2.0)

    def test_whole_numbers_accepted(self):
        # a JSON number with no fractional part is an integer; 20.7 is not truncated
        plan = ExperimentPlan.from_dict({"N": 8.0, "c": 0.5, "replicates": 2.0, "seed": 3.0})
        assert (plan.sweep[0].N, plan.replicates, plan.seed) == (8, 2, 3)
        assert type(plan.sweep[0].N) is int and type(plan.replicates) is int
        with pytest.raises(ParameterError, match="N must be an integer"):
            ExperimentPlan.from_dict({"N": 8.5, "c": 0.5})

    def test_side_past_int32_labels_refused(self):
        # the plan is refused when it is built, before any point samples
        with pytest.raises(ParameterError, match="N must be <= 46340"):
            ExperimentPlan.from_dict({"N": 46341, "lambda": 0.5})

    def test_single_point_shorthand(self):
        plan = ExperimentPlan.from_dict({"N": 9, "c": 0.4, "replicates": 2})
        assert len(plan.sweep) == 1 and plan.sweep[0].N == 9

    def test_global_weights_inherited(self):
        d = {
            "sweep": [{"N": 8, "c": 0.2}, {"N": 8, "c": 0.2, "weights": {"kind": "constant", "value": 2.0}}],
            "weights": {"kind": "discrete", "values": [1.0], "probs": [1.0]},
        }
        plan = ExperimentPlan.from_dict(d)
        assert plan.sweep[0].weights["kind"] == "discrete"
        assert plan.sweep[1].weights["kind"] == "constant"

    def test_bad_estimator(self):
        with pytest.raises(ParameterError, match=re.escape("estimator must be one of ('C_over_N2', 'C_over_logN2')")):
            small_plan(estimator="C_over_N")

    @pytest.mark.parametrize("d, message", [
        ({"N": 8, "c": -1.0}, "c must be nonnegative and finite"),
        ({"N": 8, "lambda": -1.0}, "lambda must be nonnegative and finite"),
        ({"N": 8, "c": 0.5, "weights": {"kind": "constant", "value": -1}}, "weight must be nonnegative"),
        ({"N": 8, "c": 0.5, "weights": {"kind": "discrete", "values": [1, 2, 3], "probs": [0.5, 0.5]}},
         "values and probs must be 1-D arrays of equal length"),
        ({"N": 8, "c": 0.5, "weights": {"kind": "discrete", "values": [-1, 2], "probs": [0.5, 0.5]}},
         "weights must be nonnegative and finite"),
        ({"N": 8, "c": 0.5, "weights": {"kind": "discrete", "values": [1, 2], "probs": [0.5, 0.6]}},
         "probabilities must be nonnegative and sum to 1"),
        ({"N": 8, "c": 0.5, "weights": {"kind": "truncated_exponential", "rate": 0}},
         "rate must be positive, upper positive and finite"),
    ], ids=["c-negative", "lambda-negative", "constant-negative", "discrete-shapes", "discrete-negative",
            "discrete-probs", "trunc-exp-rate"])
    def test_bad_value_raises_parameter_error(self, d, message):
        # every range check on a plan's input raises the package's own
        # type; the estimator and the c/lambda choice are tested above
        with pytest.raises(ParameterError, match=re.escape(message)):
            ExperimentPlan.from_dict(d)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"N": 8, "lambda": 1.0, "replicates": 2, "seed": 7}))
        plan = ExperimentPlan.load(path)
        assert plan.seed == 7 and plan.replicates == 2


class TestReplicateSeeds:
    def test_stable(self):
        assert replicate_seed(1, 2, 3) == replicate_seed(1, 2, 3)

    def test_distinct(self):
        seeds = {replicate_seed(r, p, k) for r in range(3) for p in range(3) for k in range(3)}
        assert len(seeds) == 27


class TestRunExperiment:
    def test_deterministic_csv(self):
        plan = small_plan()
        a = run_experiment(plan).to_csv()
        b = run_experiment(small_plan()).to_csv()
        assert a == b

    def test_threads_match_serial(self):
        plan = small_plan()
        serial = run_experiment(plan, threads=1).to_csv()
        parallel = run_experiment(small_plan(), threads=2).to_csv()
        assert serial == parallel

    def test_threads_match_serial_with_helper_threads(self):
        # graphs of several chunks run each chunk's tail on a helper thread,
        # here and in every forked worker; the helper is gone by the time
        # sample_graph returns, so the pool forks from a process without one
        plan = ExperimentPlan.from_dict({
            "sweep": [{"N": 200, "lambda": 2.0},
                      {"N": 160, "lambda": 0.6,
                       "weights": {"kind": "truncated_exponential", "rate": 1.0, "upper": 8.0}}],
            "replicates": 4, "estimator": "C_over_N2", "seed": 42,
        })
        before = threading.active_count()
        serial = run_experiment(plan, threads=1).to_csv()
        assert threading.active_count() == before
        assert run_experiment(plan, threads=2).to_csv() == serial

    def test_small_graphs_start_no_helper_threads(self, monkeypatch):
        # every graph of small_plan (N <= 12) is one chunk, drawn and kept
        # on the calling thread; sample_graph imports the executor class
        # from concurrent.futures only when it starts one, so it is patched there
        def refuse(max_workers):
            raise AssertionError("a helper thread started")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        assert run_experiment(small_plan()).to_csv() == run_experiment(small_plan()).to_csv()

    def test_pool_never_outnumbers_replicates(self, monkeypatch):
        # a fork-started pool forks every worker at its first map; the
        # stand-in records the count asked for and maps serially, so no
        # process starts.  run_experiment imports the pool class from
        # concurrent.futures only when it starts one, so it is patched there
        workers = []

        class SerialPool(contextlib.nullcontext):
            map = staticmethod(map)

            def __init__(self, max_workers):
                super().__init__()
                workers.append(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        assert run_experiment(small_plan(), threads=64).to_csv() == run_experiment(small_plan()).to_csv()
        run_experiment(small_plan(replicates=1), threads=64)  # one worker: no pool
        assert workers == [3]
        # nor the CPUs
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        run_experiment(small_plan(), threads=64)
        assert workers == [3, 2]

    @pytest.mark.parametrize("plan,expected", [
        ({"N": 30, "lambda": 2.0, "replicates": 3, "seed": 2024}, [
            (5514401882974304769, 726, 895),
            (5969099755387220158, 733, 925),
            (1150912202361056230, 654, 847),
        ]),
        # odd N and weights spread over several layers: the layered decode,
        # in the full view (owner slots) for these weights
        ({"N": 31, "lambda": 0.6, "replicates": 3, "seed": 2024,
          "weights": {"kind": "truncated_exponential", "rate": 1.0, "upper": 8.0}}, [
            (5514401882974304769, 60, 264),
            (5969099755387220158, 81, 283),
            (1150912202361056230, 23, 254),
        ]),
    ], ids=["N30-constant", "N31-truncexp"])
    def test_pinned_rows(self, plan, expected):
        # (seed, C, edges) per replicate as literals: any change to the
        # seeding, the random stream, the sampled edges or the component
        # sizes shows here
        rows = run_experiment(ExperimentPlan.from_dict(plan)).points[0].replicate_rows
        assert [(r["seed"], r["C"], r["edges"]) for r in rows] == expected

    def test_zero_c_degenerate(self):
        # empty graph: every component is a single vertex, C/N^2 = 1/N^2
        plan = ExperimentPlan.from_dict({"N": 10, "c": 0.0, "replicates": 2})
        res = run_experiment(plan)
        assert res.points[0].mean == pytest.approx(1 / 100)
        assert all(r["edges"] == 0 for r in res.points[0].replicate_rows)

    def test_supercritical_target_attached(self):
        plan = small_plan()
        res = run_experiment(plan)
        first = res.points[0]
        assert first.target == pytest.approx(0.7968, abs=1e-3)
        assert first.z is not None

    def test_subcritical_point_has_no_N2_target(self):
        plan = small_plan()
        res = run_experiment(plan)
        assert res.points[1].target is None  # lambda < 1 under C_over_N2

    def test_log_estimator_target(self):
        plan = ExperimentPlan.from_dict(
            {"N": 30, "lambda": 0.5, "replicates": 2, "estimator": "C_over_logN2"}
        )
        res = run_experiment(plan)
        assert res.points[0].target == pytest.approx(5.1774, abs=1e-3)

    def test_capped_probability_warning(self):
        plan = ExperimentPlan.from_dict({"N": 4, "c": 5.0, "replicates": 1})
        res = run_experiment(plan)
        assert res.points[0].warnings

    def test_massless_atom_does_not_warn(self):
        # every p <= 2.5e-4: the value 100 has probability 0, so it is never drawn
        plan = ExperimentPlan.from_dict({"N": 400, "c": 0.1, "replicates": 1,
                                         "weights": {"kind": "discrete", "values": [1, 100], "probs": [1, 0]}})
        assert run_experiment(plan).points[0].warnings == []

    def test_estimator_is_one_table_entry(self, monkeypatch):
        # an estimator is its ESTIMATORS entry alone: the value function
        # fills the rows, and its regime and report field give the target
        monkeypatch.setitem(harness.ESTIMATORS, "C_over_N", (lambda C, N: C / N, "supercritical", "beta_hat"))
        res = run_experiment(small_plan(estimator="C_over_N"))
        rows = res.points[0].replicate_rows
        assert [r["value"] for r in rows] == [r["C"] / 10 for r in rows]
        assert res.points[0].target == pytest.approx(0.7968, abs=1e-3)
        assert res.points[1].target is None  # subcritical
        assert res.to_csv().count(",C_over_N,") == 8  # 2 points: 3 replicate rows and 1 summary row each

    def test_write_json(self):
        payload = json.loads(run_experiment(small_plan(replicates=1)).to_json())
        assert len(payload["points"]) == 2
        assert payload["points"][0]["replicates"][0]["C"] >= 1


class TestReports:
    @pytest.mark.parametrize("plan,csv_sha,json_sha", [
        ({"sweep": [{"N": 10, "lambda": 2.0}, {"N": 12, "c": 0.3}], "replicates": 3,
          "estimator": "C_over_N2", "seed": 42},
         "91e532f56f3715abd51ad186833613be97c9b4ee339ef7d2baee7a001679b519",
         "5af566e86bbc715d5431ab55eff38ccb2286f38f690e6e7d469c4d6a37302db2"),
        ({"N": 20, "lambda": 0.3, "weights": {"kind": "truncated_exponential", "rate": 1, "upper": 8},
          "replicates": 4, "estimator": "C_over_logN2", "seed": 7},
         "7d9f031f089408e88bbf34e0beff2bf7ef9e235b91a1b8f97e95bc182f6382eb",
         "8b975e1ca580576ac56fdee21a57719cb8df2d12a7bf78694089fc537dda6573"),
        # gamma rounds to 1: no target and no z
        ({"N": 8, "lambda": 0.999999999, "estimator": "C_over_logN2", "replicates": 2},
         "9d130cd677b04875b51978a8aa6a3feb0591df58e2d5a9f49164702680377870",
         "9b8129ce68687d1a4235224ea47af6b6b200719b0534e4553b25054438e0e3f3"),
        ({"N": 3, "c": 5.0, "replicates": 1},
         "84266e2c45a670b27961cf03073223a6f2d801fcdadf400749c7a96d3d15ab7c",
         "3809684d1f1f6de1fc948d9ccd3e76a24854f74624e8d5d837b66a1562866eab"),
        ({"sweep": [{"N": 6, "lambda": 0}, {"N": 9, "lambda": 1.0,
                    "weights": {"kind": "discrete", "values": [1, 2], "probs": [0.5, 0.5]}}], "replicates": 3},
         "92cfb868f783fe4540c2abe2f2384d12cd7bdd9096baac70c25ba1165737068a",
         "23c02f60d99c3c94e9f3197a9eb14534a26a94688fe7b460186bb0ae8ea878b4"),
    ], ids=["small-plan", "truncexp-log", "no-target", "capped-warning", "empty-and-critical"])
    def test_pinned_report_digests(self, plan, csv_sha, json_sha):
        # the sha256 of both reports, text and all: any change to a
        # column, a key, a cell's number format or a blank shows here
        res = run_experiment(ExperimentPlan.from_dict(plan))
        assert hashlib.sha256(res.to_csv().encode()).hexdigest() == csv_sha
        assert hashlib.sha256(res.to_json().encode()).hexdigest() == json_sha

    def test_header_is_csv_columns(self):
        header = run_experiment(small_plan(replicates=1)).to_csv().splitlines()[0]
        assert header == ",".join(harness.CSV_COLUMNS)

    def test_numpy_float_point_writes_plain_numbers(self):
        # a sweep built with np.linspace hands each point a np.float64
        res = run_experiment(ExperimentPlan([SweepPoint(N=6, c=np.float64(0.3))], replicates=2))
        rows = list(csv.DictReader(io.StringIO(res.to_csv())))
        assert len(rows) == 3
        assert all((r["c"], r["lambda"]) == ("0.3", "0.8317766166719344") for r in rows)
        point = json.loads(res.to_json())["points"][0]
        assert (point["c"], point["lambda"]) == (0.3, 0.8317766166719344)

    def test_row_key_outside_csv_columns_raises(self, monkeypatch):
        # a row field missing from the column list fails, not dropped
        res = run_experiment(small_plan(replicates=1))
        monkeypatch.setattr(harness, "CSV_COLUMNS", tuple(k for k in harness.CSV_COLUMNS if k != "edges"))
        with pytest.raises(ValueError, match="edges"):
            res.to_csv()


class TestTheoryCommand:
    """`torusgraph theory`: one report per (lambda or c, W)."""

    @staticmethod
    def report(capsys, *argv):
        assert cli_main(["theory", *argv]) == 0
        return json.loads(capsys.readouterr().out)

    def test_exclusive_args(self, capsys):
        for argv in ([], ["--lambda", "1", "--c", "0.5"]):
            with pytest.raises(SystemExit) as exc:
                cli_main(["theory", *argv])
            assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_supercritical(self, capsys):
        assert self.report(capsys, "--lambda", "2.0")["beta"] == pytest.approx(0.79681213002002, abs=1e-10)

    def test_subcritical_constant_equals_tilted_limit(self, capsys):
        r = self.report(capsys, "--lambda", "0.5")
        assert r["sub_const"] == pytest.approx(5.177398899124181, abs=1e-8)
        assert r["sub_const_weighted"] == pytest.approx(r["sub_const"], abs=1e-8)

    def test_critical_suppresses_constants(self, capsys):
        r = self.report(capsys, "--lambda", "0.4", "--weights", json.dumps(W12))
        assert r["regime"] == "critical"
        assert r["beta_hat"] is None and r["sub_const_weighted"] is None

    def test_c_argument(self, capsys):
        assert self.report(capsys, "--c", repr(c_of_lambda(2.0)))["lam"] == pytest.approx(2.0)

    def test_weights_argument(self, capsys):
        assert self.report(capsys, "--lambda", "1.0", "--weights", json.dumps(W12))["regime"] == "supercritical"

    def test_tilt_overflowing_at_the_bracket_end(self, capsys):
        r = self.report(capsys, "--lambda", "0.5", "--weights", json.dumps(TILT_OVERFLOW))
        assert r["y"] == pytest.approx(2.2934e7, rel=1e-4)
        assert r["sub_const_weighted"] == pytest.approx(0.059323, rel=1e-4)

    def test_massless_atom_bounds_no_weight(self, capsys):
        # E W^2 = 1: the value 1e200 has probability 0
        law = {"kind": "discrete", "values": [1, 1e200], "probs": [1, 0]}
        r = self.report(capsys, "--lambda", "2.0", "--weights", json.dumps(law))
        assert r["beta"] == self.report(capsys, "--lambda", "2.0")["beta"]


class TestVerifyCoupling:
    def test_all_pass(self):
        rows = verify_coupling()
        assert rows and all(r["passed"] for r in rows)
        checks = {r["check"] for r in rows}
        assert checks == {"tv_bound", "lambda_N_expansion", "lambda_N_trend"}


class TestCLI:
    def test_theory_subcommand(self, capsys):
        assert cli_main(["theory", "--lambda", "2.0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regime"] == "supercritical"

    def test_theory_weights_literal(self, capsys):
        rc = cli_main([
            "theory", "--lambda", "0.3",
            "--weights", '{"kind": "discrete", "values": [1.0, 2.0], "probs": [0.5, 0.5]}',
        ])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["regime"] == "subcritical"

    def test_simulate_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "plan.json"
        cfg.write_text(json.dumps({"N": 10, "lambda": 2.0, "replicates": 2, "seed": 1}))
        out = tmp_path / "res.csv"
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("row,N,c,lambda")
        assert len(lines) == 4  # header + 2 replicates + summary

    def test_simulate_stdout_deterministic(self, tmp_path, capsys):
        cfg = tmp_path / "plan.json"
        cfg.write_text(json.dumps({"N": 8, "c": 0.5, "replicates": 2, "seed": 3}))
        cli_main(["simulate", "--config", str(cfg)])
        first = capsys.readouterr().out
        cli_main(["simulate", "--config", str(cfg)])
        assert capsys.readouterr().out == first

    def test_verify_subcommand(self, capsys):
        assert cli_main(["verify"]) == 0
        assert capsys.readouterr().out.strip().endswith("PASS")

    def test_branching_borel(self, capsys):
        rc = cli_main(["branching", "borel", "--lambda-prime", "0.5",
                       "--samples", "20000", "--kmax", "5"])
        assert rc == 0
        assert "FAIL" not in capsys.readouterr().out

    @pytest.mark.parametrize("lam", ["1.5", "1.0", "0", "-0.5"])
    def test_branching_borel_rejects_supercritical(self, lam, capsys):
        # a tree with lambda' >= 1 may never end; the command must refuse
        # it at once instead of sampling until the cap
        t0 = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            cli_main(["branching", "borel", "--lambda-prime", lam,
                      "--samples", "2000", "--cap", "1000"])
        assert exc.value.code == 2
        assert time.perf_counter() - t0 < 1.0
        assert "lambda' in (0,1)" in capsys.readouterr().err

    def test_branching_identity(self, capsys):
        rc = cli_main(["branching", "identity", "--lambda", "0.3",
                       "--samples", "2000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("two-sample KS") and out.rstrip().endswith("ok (1% level)")

    @pytest.mark.parametrize("lam, weights", [
        ("1.5", None),
        ("0.4", '{"kind": "discrete", "values": [1.0, 2.0], "probs": [0.5, 0.5]}'),
    ])
    def test_branching_identity_rejects_supercritical(self, lam, weights, capsys):
        # lambda * E(W^2) >= 1: nearly every tree would run to the cap
        argv = ["branching", "identity", "--lambda", lam, "--samples", "40"]
        if weights is not None:
            argv += ["--weights", weights]
        t0 = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert time.perf_counter() - t0 < 1.0
        assert "lambda must give 0 <= lambda * E(W^2) < 1" in capsys.readouterr().err

    def test_export_graph(self, tmp_path, capsys):
        prefix = tmp_path / "g"
        rc = cli_main(["export-graph", "--N", "8", "--lambda", "2.0",
                       "--out-prefix", str(prefix), "--seed", "5"])
        assert rc == 0
        edges = (tmp_path / "g.edges").read_text().splitlines()
        weights = (tmp_path / "g.weights").read_text().splitlines()
        assert len(weights) == 64
        assert all(len(line.split()) == 4 for line in edges)

    def test_weights_file_equals_literal(self, tmp_path, capsys):
        # --weights takes a JSON literal or the path of a file holding one
        law = tmp_path / "w.json"
        law.write_text(json.dumps(W12))
        prefix = str(tmp_path / "g")
        outputs = []
        for weights in (json.dumps(W12), str(law)):
            assert cli_main(["theory", "--lambda", "0.3", "--weights", weights]) == 0
            assert cli_main(["export-graph", "--N", "8", "--lambda", "2", "--weights", weights,
                             "--out-prefix", prefix, "--seed", "5"]) == 0
            outputs.append((capsys.readouterr().out, (tmp_path / "g.edges").read_text(),
                            (tmp_path / "g.weights").read_text()))
        assert outputs[0] == outputs[1]
        assert '"regime": "subcritical"' in outputs[0][0]

    def test_simulate_tilt_overflowing_at_the_bracket_end(self, tmp_path):
        cfg = tmp_path / "plan.json"
        cfg.write_text(json.dumps({"N": 8, "lambda": 0.5, "estimator": "C_over_logN2", "replicates": 2,
                                   "weights": TILT_OVERFLOW}))
        out = tmp_path / "r.csv"
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        summary = list(csv.DictReader(io.StringIO(out.read_text())))[-1]
        assert summary["row"] == "summary"
        assert float(summary["target"]) == pytest.approx(0.059323, rel=1e-4)

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit):
            cli_main([])

    def test_branching_without_check_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["branching"])
        assert exc.value.code == 2
        assert "required" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["theory", "--lambda", "0.3"],
        ["branching", "identity", "--lambda", "0.3", "--samples", "40"],
        ["export-graph", "--N", "8", "--lambda", "2.0", "--out-prefix", "unused"],
    ])
    @pytest.mark.parametrize("weights, name", [
        ('{"kind": "constant", "valeu": 2}', "'valeu'"),
        ('{"kind": "truncated_exponental"}', "'truncated_exponental'"),
    ])
    def test_unknown_weight_key_exits_2(self, argv, weights, name, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + ["--weights", weights])
        assert exc.value.code == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("weights, message", [
        ('{"kind": "discrete", "values": [1, 2], "probs": [0.5, 0.6]}', "sum to 1"),
        ('{"kind": "truncated_exponential", "rate": -1}', "must be positive"),
    ], ids=["bad-probs", "negative-rate"])
    def test_bad_weight_value_exits_2(self, weights, message, capsys):
        # a value out of the law's range is a usage error, not a traceback
        with pytest.raises(SystemExit) as exc:
            cli_main(["theory", "--lambda", "0.3", "--weights", weights])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_point_with_c_and_lambda_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "plan.json"
        cfg.write_text(json.dumps({"sweep": [{"N": 8, "c": 0.5, "lambda": 1.0}]}))
        with pytest.raises(SystemExit) as exc:
            cli_main(["simulate", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "exactly one of 'c' or 'lambda'" in capsys.readouterr().err

    def test_unknown_plan_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "plan.json"
        cfg.write_text(json.dumps({"N": 10, "lambda": 2.0, "replicate": 50}))
        with pytest.raises(SystemExit) as exc:
            cli_main(["simulate", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "'replicate'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, plan, message", [
        pytest.param(["theory", "--lambda", "nan"], None, "lambda * E W^2 finite", id="theory-lambda-nan"),
        pytest.param(["theory", "--lambda", "inf"], None, "lambda * E W^2 finite", id="theory-lambda-inf"),
        pytest.param(["theory", "--lambda", "-1"], None, "lambda >= 0", id="theory-lambda-negative"),
        pytest.param(["theory", "--c", "-1"], None, "c must be nonnegative", id="theory-c-negative"),
        pytest.param(["theory", "--lambda", "1", "--weights", '{"kind": "constant", "value": NaN}'], None,
                     "nonnegative and finite", id="constant-nan"),
        pytest.param(["theory", "--lambda", "1", "--weights",
                      '{"kind": "discrete", "values": [1, 2], "probs": [NaN, NaN]}'], None,
                     "sum to 1", id="discrete-nan-probs"),
        pytest.param(["theory", "--lambda", "1", "--weights",
                      '{"kind": "discrete", "values": [1, Infinity], "probs": [0.5, 0.5]}'], None,
                     "nonnegative and finite", id="discrete-inf-value"),
        pytest.param(["theory", "--lambda", "1", "--weights",
                      '{"kind": "discrete", "values": [0, 1e200], "probs": [0.5, 0.5]}'], None,
                     "E W^2 must be finite", id="discrete-second-moment-overflows"),
        pytest.param(["export-graph", "--N", "1", "--lambda", "2", "--out-prefix", "unused"], None,
                     "N must be an integer >= 2", id="export-N-1"),
        pytest.param(["export-graph", "--N", "46341", "--lambda", "1", "--out-prefix", "unused"], None,
                     "N must be <= 46340", id="export-N-46341"),
        pytest.param(["export-graph", "--N", "8", "--c", "-1", "--out-prefix", "unused"], None,
                     "c must be nonnegative", id="export-c-negative"),
        pytest.param(["export-graph", "--N", "8", "--lambda", "NaN", "--out-prefix", "unused"], None,
                     "lambda must be nonnegative", id="export-lambda-nan"),
        pytest.param(["simulate"], {"N": 10, "c": -1}, "c must be nonnegative", id="plan-c-negative"),
        pytest.param(["simulate"], {"N": 10, "lambda": math.nan}, "lambda must be nonnegative",
                     id="plan-lambda-nan"),
        pytest.param(["simulate"], {"sweep": [{"N": 10, "lambda": 2.0}, {"N": 1, "lambda": 2.0}]},
                     "N must be an integer >= 2", id="plan-second-point-N-1"),
        pytest.param(["simulate"], {"N": 20.7, "lambda": 2.0}, "N must be an integer", id="plan-N-fractional"),
        pytest.param(["simulate"], {"N": 20, "lambda": 2.0, "replicates": 2.9},
                     "replicates must be an integer", id="plan-replicates-fractional"),
        pytest.param(["simulate"], {"N": 10, "lambda": 2.0, "seed": -1}, "seed must be an integer >= 0",
                     id="plan-seed-negative"),
        pytest.param(["export-graph", "--N", "8", "--lambda", "2", "--out-prefix", "unused", "--seed", "-1"],
                     None, "seed must be an integer >= 0", id="export-seed-negative"),
        pytest.param(["branching", "borel", "--cap", "0"], None, "n, kmax and cap must be >= 1",
                     id="branching-cap-0"),
        pytest.param(["branching", "identity", "--samples", "0"], None, "n and cap must be >= 1",
                     id="identity-samples-0"),
        pytest.param(["branching", "borel", "--kmax", "0"], None, "n, kmax and cap must be >= 1",
                     id="borel-kmax-0"),
        pytest.param(["branching", "borel", "--cap", "5", "--kmax", "8"], None,
                     "kmax must be <= cap + 1", id="borel-kmax-above-cap"),
        pytest.param(["branching", "identity", "--weights", '{"kind": "constant", "value": 0}'],
                     None, "E W > 0", id="identity-zero-weights"),
        pytest.param(["branching", "borel", "--weights", '{"kind": "constant", "value": 5}'], None,
                     "unrecognized arguments", id="borel-weights"),
        pytest.param(["branching", "borel", "--lambda", "7"], None, "unrecognized arguments", id="borel-lambda"),
        pytest.param(["branching", "identity", "--lambda-prime", "7"], None,
                     "unrecognized arguments", id="identity-lambda-prime"),
        pytest.param(["branching", "identity", "--kmax", "0"], None,
                     "unrecognized arguments", id="identity-kmax-0"),
        pytest.param(["simulate"], {"N": 10, "c": None}, "c must be a number", id="plan-c-null"),
        pytest.param(["simulate"], {"N": 10, "c": 0.5, "weights": {"kind": "constant", "value": None}},
                     "value must be a number", id="plan-value-null"),
        pytest.param(["simulate"], {"sweep": 5}, "sweep must be a list", id="plan-sweep-5"),
        pytest.param(["simulate"], {"sweep": []}, "sweep must hold at least one point", id="plan-sweep-empty"),
        pytest.param(["simulate"], {"N": 10, "c": 0.5, "weights": "heavy"}, "weight law must be a JSON object",
                     id="plan-weights-string"),
        pytest.param(["simulate"], {"N": 10, "c": 0.5, "output": 5}, "unknown key 'output'", id="plan-output-5"),
        pytest.param(["simulate"], {"N": 10, "c": 0.5, "replicates": True}, "replicates must be an integer",
                     id="plan-replicates-true"),
        pytest.param(["simulate"], {"N": 10, "c": 0.5, "weights": {"kind": "constant", "value": True}},
                     "value must be a number", id="plan-value-true"),
        pytest.param(["simulate"], {"N": 10, "lambda": "2"}, "lambda must be a number", id="plan-lambda-string"),
        pytest.param(["simulate"], {"N": 10, "c": 10**400}, "c is too large for a float", id="plan-c-huge-integer"),
        pytest.param(["simulate"], {"N": 10, "c": 0.5, "weights": {"kind": "discrete", "values": ["1", "2"],
                                                                    "probs": [0.5, 0.5]}},
                     "values[0] must be a number", id="plan-values-strings"),
        pytest.param(["simulate"], {"N": 10, "c": 0.5, "weights": {"kind": "truncated_exponential",
                                                                    "n_nodes": 100000}},
                     "unknown key 'n_nodes'", id="plan-n_nodes-huge"),
        pytest.param(["simulate"], [1, 2], "a plan must be a JSON object", id="plan-list"),
        pytest.param(["simulate"], {"sweep": [[6, 2]]}, "a sweep point must be a JSON object", id="plan-point-list"),
        pytest.param(["simulate", "--threads", "0"], {"N": 10, "c": 0.5}, "--threads must be >= 1", id="threads-0"),
        pytest.param(["simulate", "--threads", "-3"], {"N": 10, "c": 0.5}, "--threads must be >= 1",
                     id="threads-negative"),
        pytest.param(["theory", "--lambda", "1", "--seed", "3"], None, "unrecognized arguments",
                     id="theory-seed"),
        pytest.param(["simulate", "--seed", "9"], {"N": 10, "c": 0.5}, "unrecognized arguments",
                     id="simulate-seed"),
        pytest.param(["branching", "borel", "--out", "x"], None, "unrecognized arguments", id="branching-out"),
        pytest.param(["verify", "--seed", "1"], None, "unrecognized arguments", id="verify-seed"),
        pytest.param(["verify", "--out", "x"], None, "unrecognized arguments", id="verify-out"),
    ])
    def test_bad_input_exits_2(self, argv, plan, message, tmp_path, capsys, monkeypatch):
        # a bad value or an option the command does not read is a usage
        # error, reported before anything runs: no traceback, no output row,
        # no output file and no quadrature of more than 4096 nodes
        monkeypatch.chdir(tmp_path)  # where "unused" would be written
        leggauss = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            lambda n: leggauss(n) if n <= 4096 else pytest.fail(f"{n} nodes computed"))
        if plan is not None:
            cfg = tmp_path / "plan.json"
            cfg.write_text(json.dumps(plan))
            argv = argv + ["--config", str(cfg)]
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert message in err and "Traceback" not in err
        assert out == ""
        assert [p.name for p in tmp_path.iterdir()] == (["plan.json"] if plan is not None else [])

    @pytest.mark.parametrize("argv, plan", [
        pytest.param(["simulate", "--out", "{missing}/r.csv"], {"N": 8, "c": 0.5}, id="simulate-out"),
        pytest.param(["theory", "--lambda", "1", "--out", "{missing}/r.json"], None, id="theory-out"),
        pytest.param(["export-graph", "--N", "8", "--lambda", "2", "--out-prefix", "{missing}/g"], None,
                     id="export-out-prefix"),
    ])
    def test_unwritable_output_exits_2(self, argv, plan, tmp_path, capsys):
        # every output is opened before any sampling: a path in a missing
        # directory is a usage error, not a traceback after the work
        missing = str(tmp_path / "missing")
        argv = [a.format(missing=missing) for a in argv]
        if plan is not None:
            cfg = tmp_path / "plan.json"
            cfg.write_text(json.dumps(plan))
            argv += ["--config", str(cfg)]
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert "No such file or directory" in err and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("argv, plan", [
        (["simulate"], {"N": 10, "c": -1}),
        (["theory", "--lambda", "nan"], None),
    ])
    def test_bad_value_creates_no_output(self, argv, plan, tmp_path):
        out = tmp_path / "r.out"
        if plan is not None:
            cfg = tmp_path / "plan.json"
            cfg.write_text(json.dumps(plan))
            argv = argv + ["--config", str(cfg)]
        with pytest.raises(SystemExit):
            cli_main(argv + ["--out", str(out)])
        assert not out.exists()

    def test_simulate_json_to_stdout(self, tmp_path, capsys):
        cfg = tmp_path / "plan.json"
        cfg.write_text(json.dumps({"N": 8, "c": 0.5, "replicates": 2, "seed": 3}))
        assert cli_main(["simulate", "--config", str(cfg), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["points"][0]["replicates"]) == 2

    def test_zero_weights_give_the_empty_model(self, tmp_path, capsys):
        zero = {"kind": "constant", "value": 0.0}
        assert cli_main(["theory", "--lambda", "1", "--weights", json.dumps(zero)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["crit"] == 0 and report["sub_const_weighted"] is None
        cfg = tmp_path / "plan.json"
        cfg.write_text(json.dumps({"N": 8, "lambda": 1.0, "weights": zero, "replicates": 2}))
        assert cli_main(["simulate", "--config", str(cfg)]) == 0
        rows = [r for r in capsys.readouterr().out.splitlines() if r.startswith("replicate")]
        assert [r.split(",")[7:9] for r in rows] == [["1", "0"], ["1", "0"]]  # C, edges

    def test_lambda_zero_is_the_empty_model(self, tmp_path, capsys):
        # lambda = 0 runs the empty model, as c = 0 and an all-zero law do
        cfg = tmp_path / "plan.json"
        cfg.write_text(json.dumps({"N": 8, "lambda": 0, "replicates": 2}))
        assert cli_main(["simulate", "--config", str(cfg)]) == 0
        rows = [r for r in capsys.readouterr().out.splitlines() if r.startswith("replicate")]
        assert [r.split(",")[7:9] for r in rows] == [["1", "0"], ["1", "0"]]  # C, edges
        prefix = str(tmp_path / "g")
        assert cli_main(["export-graph", "--N", "8", "--lambda", "0", "--out-prefix", prefix]) == 0
        assert "edges=0 " in capsys.readouterr().out
        assert (tmp_path / "g.edges").read_text() == ""
        assert len((tmp_path / "g.weights").read_text().splitlines()) == 64

    @pytest.mark.parametrize("argv, plan", [
        pytest.param(["theory", "--lambda", "0.999999999"], None, id="theory"),
        pytest.param(["simulate"], {"N": 8, "lambda": 0.999999999, "estimator": "C_over_logN2", "replicates": 2},
                     id="simulate"),
    ])
    def test_near_critical_subcritical_point_runs(self, argv, plan, tmp_path):
        # 1 - lambda = 1e-9: gamma rounds to 1, so the report has no
        # weighted constant and the point no target, as at the threshold
        out = tmp_path / "r.out"
        if plan is not None:
            cfg = tmp_path / "plan.json"
            cfg.write_text(json.dumps(plan))
            argv = argv + ["--config", str(cfg)]
        assert cli_main(argv + ["--out", str(out)]) == 0
        text = out.read_text()
        if plan is None:
            assert json.loads(text)["sub_const_weighted"] is None
        else:
            assert text.splitlines()[-1].split(",")[13] == ""  # the summary row's target


def test_import_leaves_scipy_stats_unloaded():
    # the package root is a namespace: it loads no submodule, numpy or
    # scipy.  Loading scipy.stats takes ~0.7 s and ~70 MB of resident
    # memory per process (scipy 1.17, 2-core host; verify's first call
    # 0.74-0.86 s in all); only verify and branching identity load it,
    # on first use
    code = (
        "import sys, torusgraph\n"
        "loaded = [m for m in sys.modules if m.startswith(('torusgraph.', 'numpy', 'scipy'))]\n"
        "assert not loaded, loaded\n"
        "assert torusgraph.__version__ == '0.1.0'\n"
        "import torusgraph.cli\n"
        "assert 'scipy.stats' not in sys.modules, 'scipy.stats loaded at import'\n"
        "from torusgraph.branching import binomial_poisson_tv\n"
        "print(repr(binomial_poisson_tv(10, 0.5)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0.011859375005987985"


def test_simulate_path_loads_no_scipy(tmp_path):
    # simulate, theory and export-graph load no scipy module: the limit
    # constants come from theory._brentq, and each scipy submodule loads
    # where it is read, scipy.sparse by Graph.adjacency (the exploration
    # oracle) and scipy.special by borel_tail (branching borel)
    code = (
        "import sys\n"
        "import torusgraph.cli\n"
        "from torusgraph import branching, harness, model, theory\n"
        "theory.build_report(2.0, model.WeightSpec.constant())\n"
        "theory.build_report(0.3, model.WeightSpec.truncated_exponential(1.0, 8.0))\n"
        "harness.run_experiment(harness.ExperimentPlan.from_dict({'N': 20, 'lambda': 2.0, 'replicates': 2})).to_csv()\n"
        "assert torusgraph.cli.main(['export-graph', '--N', '20', '--lambda', '2', '--out-prefix', sys.argv[1]]) == 0\n"
        "loaded = [m for m in sys.modules if m.startswith('scipy')]\n"
        "assert not loaded, loaded\n"
        "g = model.sample_graph(model.ModelConfig(model.TorusConfig(20), 0.5))\n"
        "assert g.adjacency.nnz == 2 * g.edge_count\n"
        "assert 'scipy.sparse' in sys.modules\n"
        "print(repr(branching.borel_tail(0.5, 3)))\n"
        "assert 'scipy.special' in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "g")], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.splitlines()[-1]) == pytest.approx(1 - math.exp(-0.5) - 0.5 * math.exp(-1.0), rel=1e-12)


def test_readme_names_resolve():
    # every `module.name` or `Class.attr` the README cites outside code
    # fences, whose head is a torusgraph submodule or a class defined in one
    heads = {}
    for info in pkgutil.iter_modules(torusgraph.__path__):
        mod = heads[info.name] = importlib.import_module(f"torusgraph.{info.name}")
        heads.update((k, v) for k, v in vars(mod).items() if isinstance(v, type) and v.__module__ == mod.__name__)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    prose = re.sub(r"^```.*?^```", "", readme, flags=re.M | re.S)
    cited = [m.groups() for span in re.findall(r"`([^`]+)`", prose) if (m := re.match(r"(\w+)\.(\w+)", span))]
    cited = [(head, name) for head, name in cited if head in heads]
    assert cited
    assert [f"{head}.{name}" for head, name in cited if not hasattr(heads[head], name)] == []
