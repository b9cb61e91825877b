"""Command-line surface: config handling, output formats, determinism,
and exit codes."""

import json
import os
import re
import subprocess
import sys

import pytest

import faircouncil
from faircouncil import optimal_weights
from faircouncil.cli import (
    _COMMANDS,
    main,
    parse_belief,
    parse_council,
    parse_grid,
    parse_model,
    UsageError,
)


UNION = {
    "states": [
        {"name": "alpha", "population": 1, "model": {"type": "independent"}},
        {"name": "beta", "population": 3, "model": {"type": "independent"}},
        {"name": "gamma", "population": 5, "model": {"type": "independent"}},
    ],
    "quota": 0.5,
}


@pytest.fixture
def union_config(tmp_path):
    path = tmp_path / "union.json"
    path.write_text(json.dumps(UNION))
    return str(path)


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParsing:
    def test_grid_geometric(self):
        assert parse_grid("256:16384:x2") == [256, 512, 1024, 2048, 4096, 8192, 16384]

    def test_grid_arithmetic(self):
        assert parse_grid("10:50:+20") == [10, 30, 50]

    def test_grid_errors(self):
        for text in ("10:5:x2", "1:10:x1", "a:b:c", "1:10:*3", "0:10:+1"):
            with pytest.raises(UsageError):
                parse_grid(text)

    def test_belief_round_trip(self):
        for spec in (
            {"type": "point_mass_zero"},
            {"type": "uniform", "a": 0.5},
            {"type": "atoms", "atoms": [[-0.4, 0.5], [0.4, 0.5]]},
        ):
            parse_belief(spec)
        with pytest.raises(UsageError):
            parse_belief({"type": "nope"})
        with pytest.raises(UsageError):
            parse_belief({"type": "uniform", "a": 3.0})

    def test_model_errors(self):
        with pytest.raises(UsageError):
            parse_model({"type": "mean_field"})
        with pytest.raises(UsageError):
            parse_model({"no_type": True})


class TestWeightsCommand:
    def test_csv_contract(self, union_config, capsys):
        code, out, err = run(["weights", "--config", union_config], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "state,population,model,expected_margin,weight_raw,weight_normalized"
        assert lines[1] == "alpha,1,independent,1,1,0.533333333333"
        assert lines[2] == "beta,3,independent,1.5,1.5,0.8"
        assert lines[3] == "gamma,5,independent,1.875,1.875,1"

    def test_jsonl_format(self, union_config, capsys):
        code, out, err = run(["weights", "--config", union_config, "--format", "jsonl"], capsys)
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert rows[2]["expected_margin"] == pytest.approx(1.875)

    def test_missing_config_is_usage_error(self, capsys):
        code, out, err = run(["weights"], capsys)
        assert code == 1
        assert "states" in err


class TestSolveCjCommand:
    def test_prints_twelve_digits(self, capsys):
        code, out, err = run(["solve-cj", "--J", "2"], capsys)
        assert code == 0
        assert "C(2) = 0.957504024077" in err or "C(2) = 0.957504024077" in out
        assert "residual" in out + err
        assert "iterations" in out + err

    def test_subcritical_is_domain_error(self, capsys):
        code, out, err = run(["solve-cj", "--J", "0.9"], capsys)
        assert code == 2
        assert "coupling" in err

    def test_missing_coupling_is_usage_error(self, capsys):
        code, out, err = run(["solve-cj"], capsys)
        assert code == 1


class TestExitCodes:
    def test_no_subcommand(self, capsys):
        assert run([], capsys)[0] == 1

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"], capsys)[0] == 1

    def test_critical_coupling_margin(self, capsys):
        code, out, err = run(
            ["margin", "--model", "mean-field", "--J", "1", "--N", "100",
             "--method", "asymptotic"], capsys)
        assert code == 2

    def test_budget_exceeded(self, capsys):
        code, out, err = run(
            ["margin", "--model", "independent", "--N", "100000000"], capsys)
        assert code == 2

    def test_bad_config_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert run(["weights", "--config", str(bad)], capsys)[0] == 1


class TestDeterminism:
    def test_rerun_is_byte_identical(self, union_config, tmp_path, capsys):
        args = ["council-sim", "--config", union_config, "--trials", "30000",
                "--seed", "11", "--workers", "4"]
        first = run(args + ["--out", str(tmp_path / "a.csv")], capsys)
        second = run(args + ["--out", str(tmp_path / "b.csv")], capsys)
        assert first[0] == second[0] == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_rerun_jsonl_monte_carlo(self, tmp_path, capsys):
        args = ["margin", "--model", "mean-field", "--J", "1.5", "--N", "500",
                "--method", "monte-carlo", "--trials", "20000", "--seed", "9",
                "--workers", "3", "--format", "jsonl"]
        a = run(args + ["--out", str(tmp_path / "a.jsonl")], capsys)
        b = run(args + ["--out", str(tmp_path / "b.jsonl")], capsys)
        assert a[0] == b[0] == 0
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_metadata_carries_resolved_seed_and_timestamp(self, union_config, tmp_path, capsys):
        out_path = tmp_path / "w.csv"
        code, _, _ = run(["weights", "--config", union_config, "--out", str(out_path),
                          "--seed", "7", "--workers", "2"], capsys)
        assert code == 0
        meta = json.loads((out_path.parent / "w.csv.meta.json").read_text())
        assert meta["resolved_config"]["seed"] == 7
        assert meta["resolved_config"]["workers"] == 2
        assert "written_at_unix" in meta
        assert "written_at" not in out_path.read_text()

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = dict(UNION)
        cfg["seed"] = 5
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        out_path = tmp_path / "d.csv"
        run(["delta", "--config", str(path), "--mode", "semi-exact",
             "--seed", "7", "--out", str(out_path)], capsys)
        meta = json.loads((out_path.parent / "d.csv.meta.json").read_text())
        assert meta["resolved_config"]["seed"] == 7

    def test_seed_defaults_to_zero_and_is_recorded(self, union_config, tmp_path, capsys):
        out_path = tmp_path / "w.csv"
        run(["weights", "--config", union_config, "--out", str(out_path)], capsys)
        meta = json.loads((out_path.parent / "w.csv.meta.json").read_text())
        assert meta["resolved_config"]["seed"] == 0


class TestScalingCommand:
    def test_fit_summary_and_rows(self, tmp_path, capsys):
        out_path = tmp_path / "s.csv"
        code, out, err = run(
            ["scaling", "--model", "mean-field", "--J", "1.5",
             "--grid", "256:4096:x2", "--out", str(out_path)], capsys)
        assert code == 0
        assert "alpha = " in out
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "N,expected_margin"
        assert len(lines) == 6
        meta = json.loads((out_path.parent / "s.csv.meta.json").read_text())
        assert meta["resolved_config"]["fit"]["alpha"] == pytest.approx(1.0, abs=0.06)

    def test_straffin_family(self, capsys):
        code, out, err = run(
            ["scaling", "--model", "straffin", "--beta", "0.25",
             "--grid", "256:2048:x2"], capsys)
        assert code == 0


class TestRegimeCommand:
    def test_verdict_in_output(self, capsys):
        code, out, err = run(["regime", "--beta", "0.25", "--epsilon", "0.1",
                              "--grid", "256:4096:x2"], capsys)
        assert code == 0
        assert "verdict = linear" in err
        assert out.splitlines()[0] == "N,a_N,mu_bar"


class TestDistributionCommand:
    def test_distance_rows(self, capsys):
        code, out, err = run(
            ["distribution", "--model", "common-belief", "--belief", "uniform",
             "--a", "1.0", "--N", "100"], capsys)
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "N,wasserstein_distance,sandwich_gap,bound"
        assert row.startswith("100,")

    def test_atoms_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "belief.json"
        cfg.write_text(json.dumps(
            {"belief": {"type": "atoms", "atoms": [[-0.5, 0.5], [0.5, 0.5]]}}))
        code, out, err = run(
            ["distribution", "--config", str(cfg), "--N", "400"], capsys)
        assert code == 0
        assert out.splitlines()[1].startswith("400,")

    def test_model_entry_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"model": {
            "type": "common_belief", "belief": {"type": "uniform", "a": 0.5}}}))
        code, out, err = run(
            ["distribution", "--config", str(cfg), "--N", "200"], capsys)
        assert code == 0
        assert out.splitlines()[1].startswith("200,")

    def test_non_belief_model_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"model": {"type": "independent"}}))
        code, out, err = run(
            ["distribution", "--config", str(cfg), "--N", "200"], capsys)
        assert code == 1


class TestSelftestCommand:
    def test_all_invariants_hold(self, capsys):
        code, out, err = run(["selftest"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("ok") for line in lines[:-1])
        assert "invariant checks passed" in lines[-1]


class TestCompareRulesCommand:
    def test_rows_for_every_rule(self, union_config, capsys):
        code, out, err = run(
            ["compare-rules", "--config", union_config, "--trials", "5000",
             "--seed", "3"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        rules = {line.split(",")[0] for line in lines[1:]}
        assert rules == {"optimal", "sqrt_population", "proportional_population", "equal"}


class TestCouncilSimCommand:
    def test_quota_flag_changes_decisions(self, union_config, capsys):
        base = run(["council-sim", "--config", union_config, "--trials", "20000",
                    "--seed", "2"], capsys)
        strict = run(["council-sim", "--config", union_config, "--trials", "20000",
                      "--seed", "2", "--quota", "0.9"], capsys)
        assert base[0] == strict[0] == 0

        def disagreement(text):
            for line in text.splitlines():
                if line.startswith("disagreement_rate"):
                    return float(line.split(",")[2])
            raise AssertionError("no disagreement row")

        # a 90% quota rejects nearly everything: disagreement approaches 1/2
        assert disagreement(strict[1]) > disagreement(base[1])


def _council_file(tmp_path, text):
    path = tmp_path / "council.json"
    path.write_text(text)
    return str(path)


EVEN_BELIEF = {
    "states": [
        {"name": "a", "population": 3, "model": {"type": "independent"}},
        {"name": "b", "population": 2000,
         "model": {"type": "common_belief", "belief": {"type": "uniform", "a": 1.0}}},
    ],
}


class TestEvenCommonBeliefCouncil:
    @pytest.mark.parametrize("cmd", [["delta"], ["compare-rules", "--trials", "2000"]])
    def test_exits_zero(self, cmd, tmp_path, capsys):
        path = _council_file(tmp_path, json.dumps(EVEN_BELIEF))
        assert run(cmd + ["--config", path], capsys)[0] == 0


class TestConfigValidation:
    STATE = '{{"name": "a", "population": {}, "model": {{"type": "independent"}}}}'

    @pytest.mark.parametrize("text", [
        '{"states": 5}',
        '{"states": ["x"]}',
        '{"states": [' + STATE.format("5.7") + "]}",
        '{"states": [' + STATE.format('"abc"') + "]}",
        '{"states": [' + STATE.format("1e400") + "]}",
    ], ids=["states-not-list", "entry-not-object", "fractional", "string", "overflow"])
    def test_bad_council_is_usage_error(self, text, tmp_path, capsys):
        code, out, err = run(["weights", "--config", _council_file(tmp_path, text)], capsys)
        assert code == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("cmd,weights", [
        ("council-sim", "a,b"),
        ("council-sim", "1,2,3"),
        ("delta", "1,2,3"),
    ])
    def test_bad_weights_are_usage_errors(self, cmd, weights, tmp_path, capsys):
        path = _council_file(tmp_path, json.dumps(EVEN_BELIEF))
        code, out, err = run([cmd, "--config", path, "--weights", weights,
                              "--trials", "100"], capsys)
        assert code == 1


V_GRID = {
    "states": [
        {"name": "a", "population": 5, "model": {"type": "independent"}},
        {"name": "b", "population": 3,
         "model": {"type": "common_belief",
                   "belief": {"type": "grid", "nodes": [-1.0, 0.0, 1.0],
                              "densities": [1.0, 0.0, 1.0]}}},
    ],
}


class TestGriddedCouncil:
    def test_delta_exits_zero(self, tmp_path, capsys):
        path = _council_file(tmp_path, json.dumps(V_GRID))
        assert run(["delta", "--config", path], capsys)[0] == 0


class TestUsageErrors:
    @pytest.mark.parametrize("args", [
        ["margin", "--model", "independent", "--N", "0"],
        ["margin", "--model", "independent", "--N", "5", "--method", "monte-carlo",
         "--trials", "1"],
        ["delta", "--mode", "monte-carlo", "--trials", "1"],
        ["council-sim", "--trials", "0"],
        ["compare-rules", "--trials", "0"],
    ], ids=["margin-N0", "margin-mc-trials1", "delta-mc-trials1", "sim-trials0",
            "rules-trials0"])
    def test_out_of_range_flags(self, args, union_config, capsys):
        if args[0] != "margin":
            args = args + ["--config", union_config]
        code, out, err = run(args, capsys)
        assert code == 1
        assert err.startswith("error: ")

    def test_state_name_must_be_a_string(self, tmp_path, capsys):
        text = '{"states": [{"name": ["x"], "population": 3, "model": {"type": "independent"}}]}'
        code, out, err = run(["weights", "--config", _council_file(tmp_path, text)], capsys)
        assert code == 1
        assert "state name must be a string" in err


class TestGridAndTrialsChecks:
    @pytest.mark.parametrize("cmd,extra", [
        ("scaling", {"model": {"type": "independent"}}),
        ("regime", {"family": {"type": "straffin", "beta": 0.5}}),
        ("distribution", {"belief": {"type": "uniform", "a": 0.5}}),
    ])
    def test_non_string_grid_is_usage_error(self, cmd, extra, tmp_path, capsys):
        path = _council_file(tmp_path, json.dumps({"grid": 5, **extra}))
        code, out, err = run([cmd, "--config", path], capsys)
        assert code == 1
        assert "grid must be a string" in err
        assert "Traceback" not in err

    def test_trials_checked_where_weights_fall_back_to_monte_carlo(self, tmp_path, capsys):
        big = {"states": [{"name": "a", "population": 20_000_001,
                           "model": {"type": "independent"}}]}
        path = _council_file(tmp_path, json.dumps(big))
        code, out, err = run(["weights", "--config", path, "--trials", "1"], capsys)
        assert code == 1
        assert "--trials must be >= 2" in err

    def test_trials_unused_within_the_budget(self, union_config, capsys):
        assert run(["weights", "--config", union_config, "--trials", "1"], capsys)[0] == 0


class TestOptimalDelta:
    def test_matches_explicit_optimal_weights(self, tmp_path, capsys):
        council = {"states": [
            {"name": "i", "population": 6, "model": {"type": "independent"}},
            {"name": "m", "population": 9, "model": {"type": "mean_field", "coupling": 1.5}},
            {"name": "u", "population": 8,
             "model": {"type": "common_belief", "belief": {"type": "uniform", "a": 0.6}}},
        ]}
        path = _council_file(tmp_path, json.dumps(council))
        code, weights_out, _ = run(["weights", "--config", path, "--format", "jsonl"], capsys)
        assert code == 0
        raw = [json.loads(line)["weight_raw"] for line in weights_out.splitlines()]
        w = optimal_weights(parse_council(council)).values
        assert raw == pytest.approx(w, rel=1e-11)
        implicit, explicit = tmp_path / "implicit.csv", tmp_path / "explicit.csv"
        assert run(["delta", "--config", path, "--out", str(implicit)], capsys)[0] == 0
        assert run(["delta", "--config", path, "--out", str(explicit),
                    "--weights", ",".join(repr(v) for v in w)], capsys)[0] == 0
        assert implicit.read_bytes() == explicit.read_bytes()


class TestSubprocessSmoke:
    """One process per invocation, as a shell user runs the CLI."""

    @staticmethod
    def _run(args):
        src = os.path.dirname(os.path.dirname(faircouncil.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        return subprocess.run([sys.executable, "-m", "faircouncil.cli", *args],
                              capture_output=True, env=env, timeout=120)

    @pytest.mark.parametrize("cmd", ["weights", "delta"])
    def test_output_matches_in_process_main(self, cmd, union_config, capsys):
        proc = self._run([cmd, "--config", union_config])
        assert proc.returncode == 0, proc.stderr
        code, out, _ = run([cmd, "--config", union_config], capsys)
        assert code == 0
        assert proc.stdout == out.encode()

    def test_help_lists_every_subcommand(self):
        proc = self._run(["--help"])
        assert proc.returncode == 0
        help_text = proc.stdout.decode()
        for name in _COMMANDS:
            # the name itself, not a flag such as --weights
            assert re.search(rf"(?<![-\w]){re.escape(name)}(?![-\w])", help_text), name
