import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ekstat
import ekstat.cli as cli
import ekstat.kober as kober
import ekstat.mc_oracle as mc_oracle
import ekstat.mellin as mellin
import ekstat.quadrature as quadrature
from ekstat.kober import DimParams, gamma_product, kober2_eval


def run_cli(args):
    return cli.run(args)


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


def strip_timestamp(text: str) -> str:
    return "\n".join(l for l in text.splitlines() if '"timestamp"' not in l)


class TestEval:
    def test_happy_path_matches_library(self, tmp_path):
        out = tmp_path / "eval.json"
        code = run_cli([
            "eval", "--kind", "second", "--k", "1", "--zeta", "0.5",
            "--alpha", "1.5", "--density", "gamma:2", "--point", "1.0",
            "--out", str(out),
        ])
        assert code == cli.EXIT_OK
        doc = read_report(out)
        want = kober2_eval(np.array([1.0]), [DimParams(0.5, 1.5)], gamma_product((2.0,)))
        got = doc["result"]["evaluations"][0]
        assert got["value"] == pytest.approx(want.value, rel=1e-15)
        assert doc["config"]["nodes"] == 64

    @pytest.mark.parametrize("k, zeta, alpha, point, density", [
        (1, "0.5", "1.5", "1.0", "gamma:2"),
        (2, "0.5,1.0", "1.5,0.7", "1.0,1.0", "gamma:2,3"),
    ])
    def test_density_defaults_to_one_shape_per_dimension(self, k, zeta, alpha, point,
                                                          density, tmp_path):
        out = tmp_path / "eval.json"
        code = run_cli(["eval", "--kind", "second", "--k", str(k), "--zeta", zeta,
                        "--alpha", alpha, "--point", point, "--out", str(out)])
        assert code == cli.EXIT_OK
        doc = read_report(out)
        assert doc["config"]["density"] == density
        assert "alpha_last" not in doc["config"]
        dims = [DimParams(0.5, 1.5), DimParams(1.0, 0.7)][:k]
        want = kober2_eval(np.ones(k), dims, gamma_product((2.0, 3.0)[:k]))
        assert doc["result"]["evaluations"][0]["value"] == want.value

    def test_pathway_eval(self, tmp_path):
        out = tmp_path / "eval.json"
        code = run_cli([
            "eval", "--kind", "pathway-second", "--k", "1", "--a", "1.0",
            "--q", "0.5", "--eta", "1.0", "--zeta", "0.0",
            "--density", "gamma:2", "--point", "0.5", "--out", str(out),
        ])
        assert code == cli.EXIT_OK

    def test_bad_point_dimension_is_usage_error(self):
        code = run_cli([
            "eval", "--kind", "second", "--k", "2", "--zeta", "0.5,1.0",
            "--alpha", "1.0,1.0", "--density", "gamma:2,3", "--point", "1.0",
        ])
        assert code == cli.EXIT_USAGE

    def test_product_density_beyond_tensor_budget_evaluates(self, tmp_path):
        # a gamma product is summed one dimension at a time, so k=7 builds
        # no 64**7 tensor grid; the value is the product of seven k=1 values
        k = 7
        out = tmp_path / "eval.json"
        code = run_cli([
            "eval", "--kind", "second", "--k", str(k),
            "--zeta", ",".join(["0.5"] * k), "--alpha", ",".join(["1.0"] * k),
            "--density", "gamma:" + ",".join(["2"] * k),
            "--point", ",".join(["1.0"] * k), "--out", str(out),
        ])
        assert code == cli.EXIT_OK
        got = read_report(out)["result"]["evaluations"][0]["value"]
        one = kober2_eval(np.array([1.0]), [DimParams(0.5, 1.0)], gamma_product((2.0,))).value
        assert got == pytest.approx(one ** k, rel=1e-12)

    def test_fewer_than_eight_nodes_is_usage_error(self, capsys):
        code = run_cli([
            "eval", "--kind", "first", "--k", "1", "--zeta", "0.5", "--alpha", "1.5",
            "--point", "1e6", "--nodes", "4",
        ])
        assert code == cli.EXIT_USAGE
        assert "at least 8 nodes" in capsys.readouterr().err

    @pytest.mark.parametrize("family_args", [
        ["--kind", "second", "--zeta", "-0.5,0.5", "--alpha", "1,1"],
        ["--kind", "pathway-second", "--a", "1,1.5", "--q", "-0.5,0.5", "--eta", "1,2",
         "--zeta", "0.5,0.5"],
    ])
    def test_list_starting_with_negative_number(self, family_args, tmp_path):
        # "--flag -0.5,0.5" reads as "--flag=-0.5,0.5"
        reports = []
        for joined in (False, True):
            args = list(family_args)
            if joined:
                i = next(i for i, a in enumerate(args) if a.startswith("-") and a[1].isdigit())
                args[i - 1:i + 1] = [f"{args[i - 1]}={args[i]}"]
            out = tmp_path / f"eval_{joined}.json"
            code = run_cli(["eval", "--k", "2", *args, "--density", "gamma:2,3",
                            "--point", "1,1", "--out", str(out)])
            assert code == cli.EXIT_OK
            doc = read_report(out)
            del doc["timestamp"], doc["config"]["out"]
            reports.append(doc)
        assert reports[0] == reports[1]

    def test_other_family_parameters_are_usage_error(self, capsys):
        code = run_cli([
            "eval", "--kind", "second", "--k", "1", "--zeta", "0.5", "--alpha", "1.5",
            "--a", "3", "--q", "0.9", "--point", "1.0",
        ])
        assert code == cli.EXIT_USAGE
        assert "--zeta --alpha" in capsys.readouterr().err

    def test_point_at_infinity_is_usage_error(self, capsys):
        code = run_cli([
            "eval", "--kind", "second", "--k", "1", "--zeta", "0.5", "--alpha", "1.5",
            "--point", "inf",
        ])
        assert code == cli.EXIT_USAGE
        assert "finite and positive" in capsys.readouterr().err

    def test_overflowing_prefactor_exits_three(self, capsys):
        code = run_cli([
            "eval", "--kind", "second", "--k", "2", "--zeta=-0.9,-0.9",
            "--alpha", "0.1,0.1", "--density", "gamma:2,2", "--point", "1e-300,1e-300",
        ])
        assert code == cli.EXIT_NUMERIC
        assert "log prefactor" in capsys.readouterr().err


class TestMellinCheck:
    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "0"])
    def test_tolerance_must_be_finite_and_positive(self, tol, capsys):
        code = run_cli([
            "mellin-check", "--kind", "second", "--k", "1", "--zeta", "0.5",
            "--alpha", "0.7", "--tol", tol,
        ])
        assert code == cli.EXIT_USAGE
        assert "tol must be finite and positive" in capsys.readouterr().err

    def test_pass_and_report(self, tmp_path):
        out = tmp_path / "mc.json"
        code = run_cli([
            "mellin-check", "--kind", "second", "--k", "1", "--zeta", "0.5",
            "--alpha", "1.5", "--density", "gamma:2", "--out", str(out),
        ])
        assert code == cli.EXIT_OK
        doc = read_report(out)
        assert doc["result"]["pass"] is True
        assert doc["result"]["max_rel_err"] < 1e-6

    def test_csv_format(self, tmp_path):
        out = tmp_path / "mc.csv"
        code = run_cli([
            "mellin-check", "--kind", "second", "--k", "1", "--zeta", "0.5",
            "--alpha", "1.5", "--density", "gamma:2", "--format", "csv",
            "--out", str(out),
        ])
        assert code == cli.EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("s1_re,")
        assert len(lines) == 6  # header + 5 grid points

    def test_product_density_beyond_tensor_budget_checks(self, tmp_path):
        # a gamma product's Mellin sum is a product of k one-dimensional
        # sums, so 256**3 semi-axis nodes are within reach; a non-product
        # density is still refused (test_mellin)
        out = tmp_path / "mc.json"
        code = run_cli([
            "mellin-check", "--kind", "second", "--k", "3", "--zeta", "0.5,1,0.8",
            "--alpha", "0.7,1.3,1.2", "--nodes", "256", "--out", str(out),
        ])
        assert code == cli.EXIT_OK
        assert read_report(out)["result"]["pass"] is True


class TestParserReuse:
    COMMANDS = (
        ["verify", "--theorem", "1.1", "--k", "2", "--samples", "20000", "--seed", "3",
         "--probe", "0.5,0.5", "--probe", "1.0,1.5"],
        ["eval", "--kind", "second", "--k", "2", "--zeta", "0.5,1.0", "--alpha", "1.5,0.7",
         "--point", "1.0,1.0", "--point", "0.1,2.0"],
        ["mellin-check", "--kind", "first", "--k", "2", "--zeta", "1.5,2.0",
         "--alpha", "1.0,0.7"],
    )

    def run_all(self, tmp_path, fresh):
        results = []
        for i, args in enumerate(self.COMMANDS):
            if fresh:
                cli._parser.cache_clear()
            out = tmp_path / f"{'fresh' if fresh else 'reused'}{i}.json"
            code = run_cli([*args, "--out", str(out)])
            doc = read_report(out)
            doc.pop("timestamp")
            doc["config"].pop("out")
            results.append((code, doc))
        return results

    def test_one_parser_gives_the_fresh_parsers_reports(self, tmp_path):
        # the repeated --probe and --point flags must not accumulate
        # between calls on the cached parser
        reused = self.run_all(tmp_path, fresh=False) + self.run_all(tmp_path, fresh=False)
        fresh = self.run_all(tmp_path, fresh=True)
        assert reused == fresh + fresh
        assert [code for code, _ in fresh] == [cli.EXIT_OK] * 3
        assert len(fresh[0][1]["result"]["probes"]) == 2
        assert len(fresh[1][1]["result"]["evaluations"]) == 2


class TestVerify:
    def test_pass_run_writes_report(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli([
            "verify", "--theorem", "1.1", "--k", "1", "--samples", "200000",
            "--seed", "42", "--out", str(out),
        ])
        assert code == cli.EXIT_OK
        doc = read_report(out)
        assert doc["result"]["pass"] is True
        assert doc["config"]["samples"] == 200000
        assert len(doc["result"]["probes"]) == 5

    def test_negative_control_exits_one(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli([
            "verify", "--theorem", "1.1", "--k", "1", "--samples", "200000",
            "--seed", "42", "--constant-scale", "1.25", "--out", str(out),
        ])
        assert code == cli.EXIT_FAIL
        assert read_report(out)["result"]["pass"] is False

    def test_adjudicated_report_names_winner(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli([
            "verify", "--theorem", "2.4", "--k", "2", "--samples", "200000",
            "--seed", "7", "--out", str(out),
        ])
        assert code == cli.EXIT_OK
        doc = read_report(out)
        assert "derivation-consistent" in doc["result"]["adjudication_notes"]
        assert len(doc["result"]["candidates"]) == 2

    def test_byte_identical_reports(self, tmp_path):
        args = [
            "verify", "--theorem", "2.1", "--k", "1", "--samples", "100000",
            "--seed", "11",
        ]
        out = tmp_path / "r.json"
        assert run_cli(args + ["--out", str(out)]) == cli.EXIT_OK
        first = out.read_text()
        assert run_cli(args + ["--out", str(out)]) == cli.EXIT_OK
        second = out.read_text()
        assert first != ""
        assert strip_timestamp(first) == strip_timestamp(second)

    def test_probe_at_infinity_is_usage_error(self, capsys):
        code = run_cli(["verify", "--theorem", "1.1", "--k", "1", "--samples", "20000",
                        "--probe", "inf"])
        assert code == cli.EXIT_USAGE
        assert "probes must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["inf", "nan", "0"])
    def test_constant_scale_must_be_finite_and_positive(self, scale, capsys):
        code = run_cli(["verify", "--theorem", "1.1", "--k", "1", "--samples", "20000",
                        "--constant-scale", scale])
        assert code == cli.EXIT_USAGE
        assert "constant_scale must be finite and positive" in capsys.readouterr().err

    def test_unknown_theorem_is_usage_error(self):
        assert run_cli(["verify", "--theorem", "9.9", "--k", "1"]) == cli.EXIT_USAGE

    def test_fewer_than_eight_nodes_exits_before_drawing(self, monkeypatch, capsys):
        def no_draws(*args, **kwargs):
            raise AssertionError("simulate called")

        monkeypatch.setattr(mc_oracle, "simulate", no_draws)
        code = run_cli(["verify", "--theorem", "1.1", "--k", "1", "--nodes", "4"])
        assert code == cli.EXIT_USAGE
        assert "at least 8 nodes" in capsys.readouterr().err

    def test_partial_parameter_set_is_usage_error(self, capsys):
        code = run_cli(["verify", "--theorem", "1.1", "--k", "1", "--zeta", "5.0",
                        "--samples", "20000"])
        assert code == cli.EXIT_USAGE
        assert "--zeta --alpha" in capsys.readouterr().err

    def test_other_family_parameters_are_usage_error(self, capsys):
        code = run_cli(["verify", "--theorem", "1.1", "--k", "1", "--alphas", "0.5",
                        "--samples", "20000"])
        assert code == cli.EXIT_USAGE
        assert "--zeta --alpha" in capsys.readouterr().err

    def test_dimension_beyond_defaults_is_usage_error(self):
        code = run_cli(["verify", "--theorem", "1.1", "--k", "4", "--samples", "20000"])
        assert code == cli.EXIT_USAGE

    def test_own_family_parameters_are_used(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli([
            "verify", "--theorem", "1.2", "--k", "1", "--alphas", "0.25",
            "--samples", "20000", "--seed", "3", "--out", str(out),
        ])
        assert code in (cli.EXIT_OK, cli.EXIT_FAIL)
        doc = read_report(out)
        params = doc["result"]["params"]
        assert params["alphas"] == [0.25]
        assert params["alpha_last"] == 1.0
        assert doc["config"]["alpha_last"] == 1.0

    def test_default_parameters_echo_no_alpha_last(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(["verify", "--theorem", "1.2", "--k", "1", "--samples", "20000",
                        "--seed", "3", "--out", str(out)])
        assert code in (cli.EXIT_OK, cli.EXIT_FAIL)
        doc = read_report(out)
        assert "alpha_last" not in doc["config"]
        assert doc["result"]["params"]["alpha_last"] == 2.0


class TestSample:
    def test_beta_family_csv(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run_cli([
            "sample", "--family", "beta:2,3", "--n", "50", "--seed", "3",
            "--format", "csv", "--out", str(out),
        ])
        assert code == cli.EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x1"
        assert len(lines) == 51

    def test_gen_dirichlet_family(self, tmp_path):
        out = tmp_path / "s.json"
        code = run_cli([
            "sample", "--family", "gen-dirichlet:0.5,1.0;1.0,2.0", "--n", "20",
            "--seed", "3", "--out", str(out),
        ])
        assert code == cli.EXIT_OK
        doc = read_report(out)
        assert len(doc["result"]["draws"]) == 20

    def test_unknown_family(self):
        assert run_cli(["sample", "--family", "zeta:1"]) == cli.EXIT_USAGE


class TestConfigLayering:
    def test_config_file_overrides_defaults_and_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 100000, "seed": 5}))
        out = tmp_path / "r.json"
        code = run_cli([
            "verify", "--theorem", "1.1", "--k", "1", "--config", str(cfg),
            "--seed", "42", "--out", str(out),
        ])
        assert code == cli.EXIT_OK
        doc = read_report(out)
        assert doc["config"]["samples"] == 100000  # from config file
        assert doc["config"]["seed"] == 42         # flag wins

    def test_config_density_beats_the_default(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"density": "gamma:3"}))
        out = tmp_path / "eval.json"
        code = run_cli(["eval", "--kind", "second", "--k", "1", "--zeta", "0.5", "--alpha", "1.5",
                        "--point", "1.0", "--config", str(cfg), "--out", str(out)])
        assert code == cli.EXIT_OK
        doc = read_report(out)
        assert doc["config"]["density"] == "gamma:3"
        want = kober2_eval(np.array([1.0]), [DimParams(0.5, 1.5)], gamma_product((3.0,)))
        assert doc["result"]["evaluations"][0]["value"] == want.value

    @pytest.mark.parametrize("command, key, value", [
        (["mellin-check", "--kind", "second", "--k", "1", "--zeta", "0.5", "--alpha", "0.7"],
         "tol", "abc"),
        (["verify", "--theorem", "1.1", "--k", "1", "--samples", "20000"],
         "constant_scale", "x"),
        (["verify", "--theorem", "1.1", "--k", "1"], "samples", 1.5),
        (["eval", "--kind", "second", "--k", "1", "--zeta", "0.5", "--alpha", "1.5",
          "--point", "1.0"], "format", "xml"),
    ])
    def test_config_value_read_as_its_flag(self, command, key, value, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert run_cli([*command, "--config", str(cfg)]) == cli.EXIT_USAGE
        assert f"config key '{key}'" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        code = run_cli([
            "verify", "--theorem", "1.1", "--k", "1",
            "--config", str(tmp_path / "none.json"),
        ])
        assert code == cli.EXIT_USAGE


class TestExitCodes:
    def test_numerical_error_exits_three(self, monkeypatch):
        from ekstat.errors import EvaluationError

        def boom(*a, **k):
            raise EvaluationError("synthetic non-finite value", point=1.0)

        monkeypatch.setattr(cli, "_EVAL_FNS", {"second": boom})
        code = run_cli([
            "eval", "--kind", "second", "--k", "1", "--zeta", "0.5",
            "--alpha", "1.5", "--density", "gamma:2", "--point", "1.0",
        ])
        assert code == cli.EXIT_NUMERIC

    @pytest.mark.parametrize("kind,extra,point", [
        ("second", ["--alpha", "1.5"], "1e-310"),
        # c = a(1-q) = 0.5 halves the point the near field's tail grid sees
        ("pathway-second", ["--a", "1", "--q", "0.5", "--eta", "1"], "3e-306"),
    ])
    def test_point_below_the_near_field_tail_grid_exits_two(self, kind, extra, point, capsys):
        code = run_cli(["eval", "--kind", kind, "--k", "1", "--zeta", "0.5", *extra,
                        "--point", point])
        assert code == cli.EXIT_USAGE
        assert f"point {point} is too small" in capsys.readouterr().err

    def test_argparse_failure_exits_two(self):
        assert run_cli(["eval", "--kind", "nonsense"]) == cli.EXIT_USAGE

    def test_negative_verify_seed_exits_two(self):
        code = run_cli(["verify", "--theorem", "1.1", "--k", "1", "--samples", "20000",
                        "--seed", "-1"])
        assert code == cli.EXIT_USAGE

    def test_negative_sample_seed_exits_two(self):
        code = run_cli(["sample", "--family", "gamma:2", "--seed", "-3"])
        assert code == cli.EXIT_USAGE

    def test_malformed_family_exits_two(self):
        assert run_cli(["sample", "--family", "beta:1"]) == cli.EXIT_USAGE

    def test_config_that_is_not_json_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("")
        code = run_cli(["verify", "--theorem", "1.1", "--k", "1", "--config", str(cfg)])
        assert code == cli.EXIT_USAGE
        assert "not valid JSON" in capsys.readouterr().err

    def test_config_that_is_not_an_object_exits_two(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code = run_cli(["verify", "--theorem", "1.1", "--k", "1", "--config", str(cfg)])
        assert code == cli.EXIT_USAGE

    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_non_positive_workers_exit_two(self, workers, capsys):
        code = run_cli(["sample", "--family", "gamma:2", "--workers", workers])
        assert code == cli.EXIT_USAGE
        assert "workers must be a positive integer" in capsys.readouterr().err

    def test_unreadable_workers_variable_exits_two(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setenv("EKSTAT_WORKERS", "abc")
        assert run_cli(["sample", "--family", "gamma:2"]) == cli.EXIT_USAGE
        assert "EKSTAT_WORKERS" in capsys.readouterr().err
        # an explicit flag takes precedence over the variable
        assert run_cli(["sample", "--family", "gamma:2", "--workers", "2",
                        "--out", str(tmp_path / "s.json")]) == cli.EXIT_OK

    @pytest.mark.parametrize("args", [
        ["eval", "--kind", "second", "--k", "1", "--zeta", "0.5", "--alpha", "inf",
         "--point", "1"],
        ["eval", "--kind", "second", "--k", "1", "--zeta", "nan", "--alpha", "0.7",
         "--point", "1"],
        ["eval", "--kind", "pathway-second", "--k", "1", "--a", "1", "--q", "0.5",
         "--eta", "inf", "--zeta", "0", "--point", "1"],
        ["eval", "--kind", "pathway-first", "--k", "1", "--a", "inf", "--q", "0.5",
         "--eta", "1", "--zeta", "1", "--point", "1"],
        ["eval", "--kind", "second", "--k", "1", "--zeta", "0.5", "--alpha", "0.7",
         "--density", "gamma:inf", "--point", "1"],
        ["mellin-check", "--kind", "second", "--k", "1", "--zeta", "0.5", "--alpha", "inf"],
        ["verify", "--theorem", "1.1", "--k", "1", "--zeta", "0.5", "--alpha", "inf"],
        ["sample", "--family", "beta:inf,3", "--n", "3", "--seed", "1"],
        ["sample", "--family", "pathway:1,0.5,inf,0", "--n", "3", "--seed", "1"],
        ["sample", "--family", "pathway:1,-inf,1,0", "--n", "3", "--seed", "1"],
        # finite parameters whose support factor a(1-q) overflows
        ["sample", "--family", "pathway:1e308,-1e308,1,0", "--n", "3", "--seed", "1"],
        ["sample", "--family", "dirichlet:0.5,inf;1", "--n", "3", "--seed", "1"],
        ["sample", "--family", "gen-dirichlet:0.5,1;1,nan", "--n", "3", "--seed", "1"],
    ])
    def test_non_finite_parameter_exits_two(self, args, monkeypatch, capsys):
        monkeypatch.setattr(mc_oracle, "simulate", _fail("simulate"))
        assert run_cli(args) == cli.EXIT_USAGE
        assert "must be finite" in capsys.readouterr().err

    def test_rule_outside_the_float_range_exits_three(self, capsys):
        code = run_cli(["eval", "--kind", "second", "--k", "1", "--zeta", "1e308",
                        "--alpha", "1e308", "--point", "1"])
        assert code == cli.EXIT_NUMERIC
        assert "float range" in capsys.readouterr().err

    def test_rule_nodes_outside_the_unit_interval_exit_two(self, capsys):
        code = run_cli(["eval", "--kind", "second", "--k", "1", "--zeta", "0.5",
                        "--alpha", "1e16", "--point", "1"])
        assert code == cli.EXIT_USAGE
        assert "edge1=1e+16" in capsys.readouterr().err


def _fail(what):
    def fail(*args, **kwargs):
        raise AssertionError(f"{what} called")
    return fail


class TestNodeCeiling:
    @pytest.mark.parametrize("args, nodes, message", [
        (["eval", "--kind", "second", "--k", "1", "--zeta", "0.5", "--alpha", "0.7",
          "--point", "1"], 100_000_000, "at most 2048 nodes"),
        # a refined evaluation builds rules of twice the nodes
        (["eval", "--kind", "first", "--k", "1", "--zeta", "0.5", "--alpha", "0.7",
          "--point", "1"], 1025, "got 2050"),
        (["mellin-check", "--kind", "second", "--k", "1", "--zeta", "0.5", "--alpha", "0.7"],
         100_000_000, "at most 2048 nodes"),
        (["verify", "--theorem", "1.1", "--k", "1"], 100_000_000, "at most 2048 nodes"),
    ])
    def test_refused_before_any_rule_is_built(self, args, nodes, message,
                                              monkeypatch, capsys):
        monkeypatch.setattr(quadrature, "_jacobi_rule_cached", _fail("rule builder"))
        for module in (kober, mellin):
            monkeypatch.setattr(module, "semiaxis_log_rule", _fail("rule builder"))
        monkeypatch.setattr(mc_oracle, "simulate", _fail("simulate"))
        assert run_cli([*args, "--nodes", str(nodes)]) == cli.EXIT_USAGE
        assert message in capsys.readouterr().err


def test_import_and_eval_leave_scipy_unloaded():
    # scipy loads on the first Mellin check, not with the package, and
    # neither evaluation nor sampling nor a whole verify run loads it
    script = ("import sys, ekstat; from ekstat import cli; "
              "loaded = 'scipy' in sys.modules; "
              "code = cli.run(['eval', '--kind', 'second', '--k', '1', '--zeta', '0.5', "
              "'--alpha', '0.7', '--density', 'gamma:2', '--point', '1', '--point', '1e-6']) "
              "or cli.run(['sample', '--family', 'gamma:2', '--n', '5', '--seed', '3']) "
              "or cli.run(['verify', '--theorem', '2.4', '--k', '2', '--samples', '20000', "
              "'--seed', '1']); "
              "print(loaded, code, 'scipy' in sys.modules)")
    src = str(Path(ekstat.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    assert out.stdout.splitlines()[-1] == "False 0 False"
