"""Command-line surface: config handling, output formats, determinism,
and exit codes."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import event, given, settings, strategies as st

import faircouncil
from faircouncil import (
    CommonBelief,
    DiscreteSymmetric,
    GriddedDensity,
    Independent,
    MeanField,
    PointMassZero,
    UniformSymmetric,
    cli,
    estimators,
    measures,
    optimal_weights,
)
from faircouncil.weights import council_moments
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

    def test_geometric_grid_keeps_each_population_once(self):
        assert parse_grid("1:3:x1.1") == [1, 2, 3]
        assert parse_grid("1:10:x1.5") == [1, 2, 3, 5, 8]

    @pytest.mark.parametrize("text", [f"1:{cli.MAX_GRID_POINTS + 1}:+1",
                                      "1:100000000:+1", "1:2:x1.0000000001"])
    def test_grid_longer_than_the_cap_is_usage_error(self, text):
        with pytest.raises(UsageError, match="more than"):
            parse_grid(text)

    def test_grid_at_the_cap_is_accepted(self):
        assert len(parse_grid(f"1:{cli.MAX_GRID_POINTS}:+1")) == cli.MAX_GRID_POINTS

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
            ["margin", "--model", "independent", "--N", "1000000001"], capsys)
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

    def test_grid_too_short_to_fit_exits_one_before_any_margin(self, tmp_path, capsys,
                                                               monkeypatch):
        calls = []
        expected_margin = estimators.expected_margin
        monkeypatch.setattr(estimators, "expected_margin",
                            lambda *a, **k: calls.append(a) or expected_margin(*a, **k))
        cfg = tmp_path / "short.json"
        cfg.write_text(json.dumps({"model": {"type": "independent"}, "grid": "100:100:x2"}))
        for args in (["--model", "independent", "--grid", "100:200:+100"], ["--config", str(cfg)]):
            code, out, err = run(["scaling", *args], capsys)
            assert code == 1
            assert err.startswith("error: scaling needs 3 populations")
        assert calls == []

    def test_critical_coupling_asymptotic_still_exits_two(self, capsys):
        code, out, err = run(["scaling", "--method", "asymptotic", "--model", "mean-field",
                              "--J", "1"], capsys)
        assert code == 2


class TestRegimeCommand:
    def test_verdict_in_output(self, capsys):
        code, out, err = run(["regime", "--beta", "0.25", "--epsilon", "0.1",
                              "--grid", "256:4096:x2"], capsys)
        assert code == 0
        assert "verdict = linear" in err
        assert out.splitlines()[0] == "N,a_N,mu_bar"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["--c", "--beta"])
    @pytest.mark.parametrize("cmd", ["regime", "scaling"])
    def test_non_finite_family_exits_one(self, cmd, flag, value, capsys):
        args = [cmd, f"{flag}={value}", "--grid", "256:1024:x2"]
        args += ["--model", "straffin"] if cmd == "scaling" else []
        args += ["--beta", "0.25"] if flag == "--c" else []
        code, out, err = run(args, capsys)
        assert code == 1
        assert err.startswith("error: ") and "must be finite" in err
        assert out == ""


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


class TestExplicitWeights:
    """Explicit weights must be finite, and council-sim's also >= 0: a
    malformed list is a usage error (exit 1), from the flag or the config."""

    @pytest.mark.parametrize("cmd, flag, listed", [
        ("delta", "--weights=nan,1,1", None),
        ("delta", None, [1.0, math.inf, 1.0]),
        ("council-sim", "--weights=-1,1,1", None),
        ("council-sim", None, [-1, 1, 1]),
    ], ids=["delta-nan-flag", "delta-inf-config", "sim-negative-flag", "sim-negative-config"])
    def test_malformed_weights_exit_one(self, cmd, flag, listed, tmp_path, capsys):
        cfg = UNION if listed is None else {**UNION, "weights": listed}
        args = [cmd, "--config", _council_file(tmp_path, json.dumps(cfg)), "--trials", "100"]
        code, out, err = run(args + ([flag] if flag else []), capsys)
        assert code == 1, err
        assert re.search("must be finite|must be >= 0", err)

    def test_negative_weights_have_a_deficit(self, union_config, capsys):
        code, out, err = run(["delta", "--config", union_config, "--weights=-1,2,1"], capsys)
        assert code == 0, err


@pytest.mark.parametrize("args", [
    ["--J", "1e305"],
    ["--J", "1e308", "--method", "monte-carlo", "--trials", "100"],
], ids=["exact", "monte-carlo"])
def test_overflowing_coupling_exits_two(args, capsys):
    code, out, err = run(["margin", "--model", "mean-field", "--N", "1001", *args], capsys)
    assert code == 2
    assert "mean-field log-weights overflow at J = 1e+30" in err


def test_distribution_above_the_vote_share_cap_exits_two(capsys):
    code, out, err = run(["distribution", "--belief", "uniform", "--a", "0.5",
                          "--N", "10000001"], capsys)
    assert code == 2
    assert "vote-share law is limited to N <= 10000000" in err


@pytest.mark.parametrize("size", [["--N", "10000001"], ["--grid", "1000:100000000:x10"]],
                         ids=["population", "grid"])
def test_distribution_refuses_the_vote_share_cap_before_any_row(size, monkeypatch, capsys):
    computed = []
    monkeypatch.setattr(cli, "margin_bound_check", lambda *a, **k: computed.append(a))
    monkeypatch.setattr(cli, "distribution_distance", lambda *a, **k: computed.append(a))
    code, out, err = run(["distribution", "--belief", "uniform", "--a", "0.5", *size], capsys)
    assert code == 2
    assert "vote-share law is limited to N <= 10000000" in err
    assert computed == []


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

    def test_weights_beyond_the_budget_exits_two_whatever_the_trials(self, tmp_path, capsys):
        big = {"states": [{"name": "a", "population": 1_000_000_001,
                           "model": {"type": "independent"}}]}
        path = _council_file(tmp_path, json.dumps(big))
        code, out, err = run(["weights", "--config", path, "--trials", "1"], capsys)
        assert code == 2
        assert "exceeds the exact-route budget" in err

    def test_trials_unused_within_the_budget(self, union_config, capsys):
        assert run(["weights", "--config", union_config, "--trials", "1"], capsys)[0] == 0

    def test_grid_past_the_cap_exits_one(self, capsys):
        code, out, err = run(["regime", "--beta", "0.25", "--grid", "1:100000000:+1"], capsys)
        assert code == 1
        assert "more than" in err

    @pytest.mark.parametrize("belief", [
        '{"type": "atoms", "atoms": [[0, NaN]]}',
        '{"type": "grid", "nodes": [-1, 0, 1], "densities": [NaN, NaN, NaN]}',
    ], ids=["atoms", "grid"])
    def test_nan_belief_exits_one(self, belief, tmp_path, capsys):
        text = ('{"states": [{"name": "a", "population": 4, "model": '
                '{"type": "common_belief", "belief": ' + belief + '}}]}')
        code, out, err = run(["weights", "--config", _council_file(tmp_path, text)], capsys)
        assert code == 1
        assert "invalid belief" in err


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


class TestOptimalWeightsEveryRoute:
    """Without weights, every deficit mode and the council simulation read
    the optimal weights, the margins of the council's moment table."""

    COUNCIL = {"states": [
        {"name": "i", "population": 5, "model": {"type": "independent"}},
        {"name": "m", "population": 6, "model": {"type": "mean_field", "coupling": 1.5}},
        {"name": "u", "population": 7,
         "model": {"type": "common_belief", "belief": {"type": "uniform", "a": 0.6}}},
    ]}

    @pytest.mark.parametrize("cmd", [
        ["delta", "--mode", "exact"],
        ["delta", "--mode", "semi-exact"],
        ["delta", "--mode", "monte-carlo", "--trials", "500"],
        ["council-sim", "--trials", "500"],
    ], ids=["delta-exact", "delta-semi-exact", "delta-monte-carlo", "council-sim"])
    def test_matches_explicit_table_margins(self, cmd, tmp_path, capsys):
        path = _council_file(tmp_path, json.dumps(self.COUNCIL))
        w = [float(m) for m in council_moments(parse_council(self.COUNCIL)).margins]
        implicit, explicit = tmp_path / "implicit.csv", tmp_path / "explicit.csv"
        assert run([*cmd, "--config", path, "--out", str(implicit)], capsys)[0] == 0
        assert run([*cmd, "--config", path, "--out", str(explicit),
                    "--weights", ",".join(repr(v) for v in w)], capsys)[0] == 0
        meta = json.loads((tmp_path / "implicit.csv.meta.json").read_text())
        assert meta["resolved_config"]["weights"] == w
        assert meta["resolved_config"]["weight_source"] == "optimal"
        assert implicit.read_bytes() == explicit.read_bytes()

    def test_metadata_file_is_one_json_line(self, tmp_path, capsys):
        path = _council_file(tmp_path, json.dumps(self.COUNCIL))
        out_path = tmp_path / "d.csv"
        code, out, err = run(["delta", "--config", path, "--out", str(out_path)], capsys)
        assert code == 0 and out == "" and err == ""
        text = (tmp_path / "d.csv.meta.json").read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        meta = json.loads(text)
        assert text == json.dumps(meta, sort_keys=True) + "\n"
        code, _, err = run(["delta", "--config", path], capsys)
        stderr_meta = json.loads(err)
        for m in (meta, stderr_meta):
            del m["written_at_unix"]
        stderr_meta["resolved_config"]["out"] = str(out_path)
        assert stderr_meta == meta


#: One council with every model type, a single mean-field voter, and even and
#: odd populations; the data files below are pinned byte for byte.
GOLDEN_COUNCIL = {"quota": 0.5, "states": [
    {"name": "ind_odd", "population": 5, "model": {"type": "independent"}},
    {"name": "ind_even", "population": 4, "model": {"type": "independent"}},
    {"name": "point", "population": 6,
     "model": {"type": "common_belief", "belief": {"type": "point_mass_zero"}}},
    {"name": "uniform", "population": 7,
     "model": {"type": "common_belief", "belief": {"type": "uniform", "a": 0.5}}},
    {"name": "atoms", "population": 8,
     "model": {"type": "common_belief", "belief": {
         "type": "atoms", "atoms": [[-0.3, 0.25], [0.3, 0.25], [0.0, 0.5]]}}},
    {"name": "grid", "population": 9,
     "model": {"type": "common_belief", "belief": {
         "type": "grid", "nodes": [-1.0, 0.0, 1.0], "densities": [0.0, 1.0, 0.0]}}},
    {"name": "single", "population": 1, "model": {"type": "mean_field", "coupling": 0.7}},
    {"name": "mf_even", "population": 10, "model": {"type": "mean_field", "coupling": 1.2}},
    {"name": "mf_odd", "population": 11, "model": {"type": "mean_field", "coupling": 0.5}},
]}

GOLDEN_WEIGHTS = (
    'state,population,model,expected_margin,weight_raw,weight_normalized\n'
    'ind_odd,5,independent,1.875,1.875,0.278363143812\n'
    'ind_even,4,independent,1.5,1.5,0.22269051505\n'
    'point,6,common_belief(point_mass_zero),1.875,1.875,0.278363143812\n'
    'uniform,7,common_belief(uniform(a=0.5)),2.7080078125,2.7080078125,0.402031769683\n'
    'atoms,8,common_belief(atoms(k=3)),2.56415887344,2.56415887344,0.380675906797\n'
    'grid,9,common_belief(grid(k=3)),3.8359375,3.8359375,0.569484598383\n'
    'single,1,mean_field(J=0.7),1,1,0.148460343367\n'
    'mf_even,10,mean_field(J=1.2),6.73580551765,6.73580551765,1\n'
    'mf_odd,11,mean_field(J=0.5),3.7284945232,3.7284945232,0.553533577154\n'
)

GOLDEN_DELTA = (
    'mode,value,std_error,trials\n'
    'semi_exact,37.544219465,0,0\n'
)

GOLDEN_COMPARE_RULES = (
    'rule,scale,weights,delta_semi_exact,delta_mc,delta_mc_std_error,disagreement_rate,disagreement_std_error\n'
    'optimal,0.969460200412,1.81773787577;1.45419030062;1.81773787577;2.62530579662;2.48584997533;3.71878873752;0.969460200412;6.53009536707;3.6146270477,37.449767607,36.0743568129,1.10945846613,0.1585,0.00816632567315\n'
    'sqrt_population,1.11773036692,2.49932108095;2.23546073385;2.73786906897;2.9572365837;3.16141888796;3.35319110077;1.11773036692;3.53457376941;3.70709224387,51.7301447201,49.3886062532,1.40834533771,0.1915,0.00879851549979\n'
    'proportional_population,0.40706306064,2.0353153032;1.62825224256;2.44237836384;2.84944142448;3.25650448512;3.66356754576;0.40706306064;4.0706306064;4.47769366704,47.1492337937,45.2814066046,1.3208264966,0.181,0.00860926826159\n'
    'equal,2.67989723487,2.67989723487;2.67989723487;2.67989723487;2.67989723487;2.67989723487;2.67989723487;2.67989723487;2.67989723487;2.67989723487,63.426714215,61.0534181514,1.73997169662,0.2285,0.00938849695106\n'
)


class TestGoldenBytes:
    @pytest.mark.parametrize("args,expected", [
        (["weights"], GOLDEN_WEIGHTS),
        (["delta"], GOLDEN_DELTA),
        (["compare-rules", "--trials", "2000", "--seed", "11"], GOLDEN_COMPARE_RULES),
    ], ids=["weights", "delta", "compare-rules"])
    def test_data_file_is_pinned(self, args, expected, tmp_path, capsys):
        path = _council_file(tmp_path, json.dumps(GOLDEN_COUNCIL))
        out = tmp_path / "out.csv"
        assert run(args + ["--config", path, "--out", str(out)], capsys)[0] == 0
        assert out.read_text() == expected


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


MEAN_FIELD_STATE = {"name": "m", "population": 9, "model": {"type": "mean_field", "coupling": 1.5}}


def _with_model(model):
    return {"states": [{"name": "m", "population": 9, "model": model}]}


class TestConfigProbes:
    """Malformed settings exit 1 with a one-line error, never a traceback."""

    @pytest.mark.parametrize("cmd,cfg", [
        ("weights", _with_model({"type": "mean_field", "coupling": None})),
        ("weights", _with_model({"type": "mean_field", "coupling": [1]})),
        ("margin", {"population": 9, "model": {"type": "common_belief", "belief": {
            "type": "atoms", "atoms": [[-0.5, 0.15], [0.5, 0.15]]}}}),
        ("weights", {**UNION, "seed": "abc"}),
        ("weights", {**UNION, "workers": 1.5}),
        ("delta", {**UNION, "mode": 5}),
        ("delta", {**UNION, "mode": "approximate"}),
        ("margin", {"model": {"type": "independent"}, "population": 5, "method": 5}),
        ("margin", {"model_name": 5, "population": 5}),
        ("regime", {"family": "straffin"}),
        ("regime", {"family": {"type": "straffin", "c": None}}),
        ("scaling", {"family": {"type": "straffin", "beta": 0.25, "c": "x"}}),
        ("solve-cj", {"coupling": "two"}),
        ("council-sim", {**UNION, "weights": "1,2,3"}),
        ("distribution", {"belief": {"type": "uniform", "a": 0.5}, "population": 2.5}),
    ], ids=["coupling-null", "coupling-list", "atoms-mass-0.3", "seed-abc", "workers-1.5",
            "mode-5", "mode-unknown", "method-5", "model_name-5", "family-string",
            "family-c-null-no-beta", "family-c-string", "coupling-string", "weights-string",
            "population-2.5"])
    def test_probe_exits_one(self, cmd, cfg, tmp_path, capsys):
        code, out, err = run([cmd, "--config", _council_file(tmp_path, json.dumps(cfg))], capsys)
        assert code == 1
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert "np.float64" not in err

    @pytest.mark.parametrize("cmd,cfg,key", [
        ("weights", UNION, "seed"),
        ("weights", UNION, "trials"),
        ("council-sim", UNION, "quota"),
        ("delta", UNION, "mode"),
        ("margin", {"model": {"type": "independent"}, "population": 7}, "method"),
        ("regime", {"family": {"type": "straffin", "beta": 0.25}, "grid": "256:1024:x2"}, "c"),
        ("scaling", {"model": {"type": "independent"}}, "grid"),
        ("regime", {"family": {"type": "straffin", "beta": 0.25}}, "grid"),
        ("distribution", {"belief": {"type": "uniform", "a": 0.5}}, "grid"),
    ])
    def test_null_reads_as_absent(self, cmd, cfg, key, tmp_path, capsys):
        extra = ["--trials", "500"] if cmd == "council-sim" else []
        with_null = json.loads(json.dumps(cfg))
        (with_null["family"] if key == "c" else with_null)[key] = None
        outs = []
        for name, c in (("absent", cfg), ("null", with_null)):
            out_path = tmp_path / f"{name}.csv"
            code, _, err = run([cmd, "--config", _council_file(tmp_path, json.dumps(c)),
                                "--out", str(out_path), *extra], capsys)
            assert code == 0, err
            outs.append(out_path.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("args", [
        ["distribution", "--belief", "uniform", "--a", "0.5", "--N", "0"],
        ["margin", "--model", "independent", "--N", "0"],
    ])
    def test_population_below_one_is_a_usage_error(self, args, capsys):
        code, out, err = run(args, capsys)
        assert code == 1
        assert err.startswith("error: invalid population 0")


class TestRunBounds:
    """--workers and --trials are bounded before any work is done."""

    @pytest.fixture(autouse=True)
    def no_simulation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulation started")
        monkeypatch.setattr(cli.council_mod, "simulate", refuse)

    @pytest.mark.parametrize("flag,value", [
        ("--workers", cli.MAX_WORKERS + 1),
        ("--trials", cli.MAX_TRIALS + 1),
    ])
    def test_flag_above_cap(self, flag, value, union_config, capsys):
        code, out, err = run(["council-sim", "--config", union_config, flag, str(value)], capsys)
        assert code == 1
        assert "must lie in [" in err

    @pytest.mark.parametrize("key,value", [("workers", cli.MAX_WORKERS + 1),
                                           ("trials", cli.MAX_TRIALS + 1)])
    def test_config_above_cap(self, key, value, tmp_path, capsys):
        path = _council_file(tmp_path, json.dumps({**UNION, key: value}))
        code, out, err = run(["council-sim", "--config", path], capsys)
        assert code == 1
        assert err.startswith(f"error: invalid {key} {value}")

    def test_caps_named_in_help(self):
        help_text = " ".join(cli.build_parser().format_help().split())
        assert f"at most {cli.MAX_WORKERS}" in help_text
        assert f"at most {cli.MAX_TRIALS}" in help_text

    def test_workers_at_cap_accepted(self, union_config, capsys):
        code, out, err = run(["weights", "--config", union_config,
                              "--workers", str(cli.MAX_WORKERS)], capsys)
        assert code == 0


ALL_TYPES = [
    (Independent(), "independent"),
    (MeanField(1.5), "mean_field(J=1.5)"),
    (CommonBelief(PointMassZero()), "common_belief(point_mass_zero)"),
    (CommonBelief(UniformSymmetric(0.25)), "common_belief(uniform(a=0.25))"),
    (CommonBelief(DiscreteSymmetric([(-0.4, 0.25), (0.0, 0.5), (0.4, 0.25)])),
     "common_belief(atoms(k=3))"),
    (CommonBelief(GriddedDensity([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])),
     "common_belief(grid(k=3))"),
]


class TestTypeTable:
    @pytest.mark.parametrize("model,label", ALL_TYPES, ids=[label for _, label in ALL_TYPES])
    def test_model_round_trip_and_label(self, model, label):
        spec = cli.model_to_config(model)
        assert json.loads(json.dumps(spec)) == spec
        assert parse_model(spec) == model
        assert cli.model_label(model) == label

    @pytest.mark.parametrize("model,label", ALL_TYPES[2:], ids=[label for _, label in ALL_TYPES[2:]])
    def test_belief_round_trip_and_label(self, model, label):
        belief = model.belief
        assert parse_belief(cli.model_to_config(belief)) == belief
        assert f"common_belief({cli.model_label(belief)})" == label

    def test_kinds_do_not_mix(self):
        with pytest.raises(UsageError, match="unknown model type 'uniform'"):
            parse_model({"type": "uniform", "a": 0.5})
        with pytest.raises(UsageError, match="unknown belief type 'independent'"):
            parse_belief({"type": "independent"})

    @pytest.mark.parametrize("args", [
        ["--model", "meanfield", "--J", "1.5"],
        ["--model", "mean-field", "--J", "1.5"],
        ["--model", "mean_field", "--J", "1.5"],
    ])
    def test_flag_spellings(self, args, capsys):
        code, out, err = run(["margin", "--N", "20", *args], capsys)
        assert code == 0
        assert out.splitlines()[1].startswith("mean_field(J=1.5),20,exact,")

    def test_flags_and_config_build_the_same_model(self, tmp_path, capsys):
        flags = run(["margin", "--model", "common-belief", "--belief", "uniform", "--a", "0.3",
                     "--N", "40"], capsys)
        path = _council_file(tmp_path, json.dumps({"model": {
            "type": "common_belief", "belief": {"type": "uniform", "a": 0.3}}, "population": 40}))
        config = run(["margin", "--config", path], capsys)
        assert flags[0] == config[0] == 0
        assert flags[1] == config[1]


# --------------------------------------------------------------------------
# property: any config exits 0, 1 or 2
# --------------------------------------------------------------------------

_JUNK = (st.none() | st.booleans() | st.integers(-3, 50)
         | st.floats(-5.0, 60.0) | st.sampled_from([math.nan, math.inf, -math.inf])
         | st.text(max_size=4) | st.lists(st.integers(-2, 3), max_size=3)
         | st.dictionaries(st.sampled_from(["type", "a", "beta"]), st.integers(0, 2), max_size=2))


def _or_junk(valid):
    """Mostly ``valid``, so that commands run past their first check."""
    return st.integers(0, 9).flatmap(lambda k: _JUNK if k == 0 else valid)


_BELIEF = _or_junk(st.sampled_from([
    {"type": "point_mass_zero"},
    {"type": "uniform", "a": 0.5},
    {"type": "atoms", "atoms": [[-0.5, 0.5], [0.5, 0.5]]},
    {"type": "atoms", "atoms": [[-0.5, 0.15], [0.5, 0.15]]},
    {"type": "grid", "nodes": [-1.0, 0.0, 1.0], "densities": [0.0, 1.0, 0.0]},
]) | st.builds(lambda a: {"type": "uniform", "a": a}, _JUNK))
_MODEL = _or_junk(
    st.just({"type": "independent"})
    | st.builds(lambda j: {"type": "mean_field", "coupling": j}, _or_junk(st.floats(0.0, 2.0)))
    | st.builds(lambda b: {"type": "common_belief", "belief": b}, _BELIEF))
_STATES = _or_junk(st.lists(
    st.builds(lambda n, m: {"population": n, "model": m}, _or_junk(st.integers(1, 50)), _MODEL),
    min_size=1, max_size=3).map(lambda states: [{"name": f"s{i}", **s} for i, s in enumerate(states)]))
_CONFIG_KEYS = {
    "states": _STATES,
    "model": _MODEL,
    "belief": _BELIEF,
    "family": _or_junk(st.builds(lambda c, beta: {"type": "straffin", "c": c, "beta": beta},
                                 _or_junk(st.floats(0.5, 2.0)), _or_junk(st.floats(0.0, 1.0)))),
    "grid": _or_junk(st.sampled_from(["2:50:x2", "4:40:+12", "10:50:x1.5", "3:3:+1"])),
    "population": _or_junk(st.integers(1, 50)),
    "trials": _or_junk(st.integers(2, 1000)),
    "workers": _or_junk(st.integers(1, 4)),
    "seed": _or_junk(st.integers(0, 2**64 - 1)),
    "quota": _or_junk(st.floats(0.05, 0.95)),
    "mode": _or_junk(st.sampled_from(["exact", "semi-exact", "monte-carlo"])),
    "method": _or_junk(st.sampled_from(["exact", "monte-carlo", "asymptotic"])),
    "model_name": _or_junk(st.sampled_from(
        ["independent", "mean-field", "common-belief", "straffin", "meanfield"])),
    "coupling": _or_junk(st.floats(0.0, 2.0)),
    "epsilon": _or_junk(st.floats(0.01, 0.3)),
    "weights": _or_junk(st.lists(st.floats(0.0, 3.0), min_size=1, max_size=3)),
}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cmd=st.sampled_from([c for c in _COMMANDS if c != "selftest"]),
       cfg=st.fixed_dictionaries({}, optional=_CONFIG_KEYS))
def test_any_config_exits_zero_one_or_two(cmd, cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([cmd, "--config", path])
    event(f"exit {code}")
    assert code in (0, 1, 2)


def test_distribution_sandwich_gap_of_uniform_one(capsys):
    # E|S|/N = (N + 2)/(2 (N + 1)) at even N, so the gap to mu_bar = 1/2 is 1/(2 (N + 1))
    code, out, err = run(["distribution", "--belief", "uniform", "--a", "1", "--N", "100"], capsys)
    assert code == 0
    row = dict(zip(*(line.split(",") for line in out.strip().splitlines())))
    assert row["sandwich_gap"] == "0.0049504950495"


def test_weights_at_the_budget_is_exact_with_one_trial(tmp_path, capsys):
    n = estimators.DEFAULT_POPULATION_BUDGET
    text = json.dumps({"states": [{"name": "big", "population": n,
                                   "model": {"type": "independent"}}]})
    code, out, err = run(["weights", "--config", _council_file(tmp_path, text), "--trials", "1"],
                         capsys)
    assert code == 0
    row = dict(zip(*(line.split(",") for line in out.strip().splitlines())))
    assert row["expected_margin"] == cli.fmt12(estimators.state_law(Independent(), n).abs_moment())


# --------------------------------------------------------------------------
# councils at the scale of the Council of the EU, and beyond the budget
# --------------------------------------------------------------------------

EU_SCALE = {"states": [
    {"name": "malta", "population": 500_000, "model": {"type": "independent"}},
    {"name": "france", "population": 68_400_000,
     "model": {"type": "mean_field", "coupling": 0.5}},
    {"name": "germany", "population": 84_400_000, "model": {"type": "independent"}},
    {"name": "poland", "population": 36_800_000,
     "model": {"type": "common_belief", "belief": {"type": "uniform", "a": 0.02}}},
]}


class TestBeyondTheFormerBudget:
    """States from 5e5 to 8.44e7 citizens take the exact route everywhere."""

    def test_weights_are_the_exact_margins(self, tmp_path, capsys):
        code, out, _ = run(["weights", "--config", _council_file(tmp_path, json.dumps(EU_SCALE)),
                            "--format", "jsonl"], capsys)
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        for row, state in zip(rows, parse_council(EU_SCALE).states):
            exact = estimators.state_law(state.model, state.population).abs_moment()
            assert row["expected_margin"] == cli._round12(exact), state.name

    @pytest.mark.parametrize("cmd", [["delta"], ["compare-rules", "--trials", "200"]],
                             ids=["delta", "compare-rules"])
    def test_council_commands_run(self, cmd, tmp_path, capsys):
        code, out, err = run([*cmd, "--config", _council_file(tmp_path, json.dumps(EU_SCALE))],
                             capsys)
        assert code == 0, err
        meta = json.loads(err.splitlines()[-1])
        if cmd == ["delta"]:
            margins = [estimators.state_law(s.model, s.population).abs_moment()
                       for s in parse_council(EU_SCALE).states]
            assert meta["resolved_config"]["weights"] == margins

    @pytest.mark.parametrize("cmd", [["weights"], ["delta"], ["compare-rules", "--trials", "10"],
                                     ["council-sim", "--trials", "10"]],
                             ids=["weights", "delta", "compare-rules", "council-sim"])
    def test_a_state_beyond_the_budget_exits_two(self, cmd, tmp_path, capsys):
        big = {"states": [*EU_SCALE["states"][:1], {
            "name": "big", "population": estimators.DEFAULT_POPULATION_BUDGET + 1,
            "model": {"type": "independent"}}]}
        code, out, err = run([*cmd, "--config", _council_file(tmp_path, json.dumps(big))], capsys)
        assert code == 2
        assert f"population {estimators.DEFAULT_POPULATION_BUDGET + 1} exceeds the exact-route budget" in err
        assert "Traceback" not in err


class TestMeanFieldMonteCarloPastTheBudget:
    """A mean-field sampler past the budget refuses before it builds its
    window; independent and common-belief draws take any N."""

    N = estimators.DEFAULT_POPULATION_BUDGET + 1
    MESSAGE = f"mean-field population {N} exceeds the budget {estimators.DEFAULT_POPULATION_BUDGET}"

    def test_budget_is_the_measures_one(self):
        assert estimators.DEFAULT_POPULATION_BUDGET is measures.DEFAULT_POPULATION_BUDGET

    def test_sampler_and_estimator_refuse(self):
        with pytest.raises(ValueError, match=self.MESSAGE):
            measures.totals_sampler(MeanField(0.5), self.N)
        with pytest.raises(ValueError, match=self.MESSAGE):
            estimators.expected_margin_mc(MeanField(0.5), self.N, 10, faircouncil.RngStream(1))

    @pytest.mark.parametrize("cmd", [["delta", "--mode", "monte-carlo"], ["council-sim"]])
    def test_council_commands_with_weights_exit_two(self, cmd, tmp_path, capsys):
        text = json.dumps({"states": [
            {"name": "a", "population": 3, "model": {"type": "independent"}},
            {"name": "big", "population": self.N,
             "model": {"type": "mean_field", "coupling": 0.5}}]})
        code, _, err = run([*cmd, "--config", _council_file(tmp_path, text),
                            "--weights", "1,1", "--trials", "10"], capsys)
        assert code == 2
        assert self.MESSAGE in err and "Traceback" not in err

    def test_margin_exits_two(self, capsys):
        base = ["margin", "--model", "mean-field", "--J", "0.5", "--N", str(self.N)]
        code, _, err = run([*base, "--method", "monte-carlo", "--trials", "10"], capsys)
        assert code == 2 and self.MESSAGE in err
        # the exact route keeps its own message
        code, _, err = run(base, capsys)
        assert code == 2 and "exceeds the exact-route budget" in err

    @pytest.mark.parametrize("model", [["--model", "independent"],
                                       ["--model", "common-belief", "--belief", "uniform", "--a", "0.5"]])
    def test_mixtures_draw_past_the_budget(self, model, capsys):
        code, _, err = run(["margin", *model, "--N", str(10**12), "--method", "monte-carlo",
                            "--trials", "10"], capsys)
        assert code == 0, err


@pytest.mark.parametrize("args", [
    ["solve-cj", "--J", "20"],
    ["margin", "--method", "asymptotic", "--model", "mean-field", "--J", "20", "--N", "1000"],
    ["scaling", "--method", "asymptotic", "--model", "mean-field", "--J", "25"],
], ids=["solve-cj", "margin", "scaling"])
def test_saturated_coupling_exits_zero(args, capsys):
    code, _, err = run(args, capsys)
    assert code == 0, err


@pytest.mark.parametrize("suffix", ["", ".meta.json"])
def test_unwritable_out_is_a_usage_error(suffix, tmp_path, capsys):
    out = tmp_path / "x.csv"
    # a directory where the file should go makes open() fail
    os.mkdir(str(out) + suffix)
    code, _, err = run(["solve-cj", "--J", "1.5", "--out", str(out)], capsys)
    assert code == 1
    assert err.startswith(f"error: cannot write {str(out) + suffix!r}")
    assert "Traceback" not in err
