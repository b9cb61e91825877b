"""The README's examples stay true: its library block runs and prints what
it claims, and every command-line example, flag and subcommand it names
parses with the current parser."""

import json
import pathlib
import re
import shlex

import pytest

from faircouncil import cli, commonbelief, estimators

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
#: (language, body) of every fenced block
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)


def test_library_block_runs_and_prints_its_numbers():
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    fc = namespace["fc"]
    claimed = re.search(r"^fc\.solve_cj\(1\.5\)\s+# ([0-9]+\.[0-9]+)", code, re.M).group(1)
    decimals = len(claimed.split(".")[1])
    assert f"{fc.solve_cj(1.5):.{decimals}f}" == claimed
    assert namespace["fit"].exponent == pytest.approx(1.0, abs=0.05)


CLI_EXAMPLES = [line for lang, body in BLOCKS if not lang for line in body.splitlines()
                if line.startswith("faircouncil ") and not line.startswith("faircouncil SUBCOMMAND")]


def test_cli_examples_are_found():
    assert len(CLI_EXAMPLES) >= 6


@pytest.mark.parametrize("line", CLI_EXAMPLES)
def test_cli_example_parses(line):
    cli.build_parser().parse_args(shlex.split(line, comments=True)[1:])


def test_subcommand_table_names_every_subcommand():
    named = re.findall(r"^\| `([a-z][a-z-]*)` \|", README, re.M)
    assert set(named) == set(cli._COMMANDS)


#: One small config that every data subcommand reads: a council, a
#: common-belief model at one population, a Straffin family and a short grid.
SMALL_CONFIG = {
    "states": [{"name": "a", "population": 3, "model": {"type": "independent"}},
               {"name": "b", "population": 5, "model": {"type": "mean_field", "coupling": 0.5}}],
    "model": {"type": "common_belief", "belief": {"type": "uniform", "a": 0.5}},
    "population": 101,
    "coupling": 1.5,
    "family": {"type": "straffin", "beta": 0.25},
    "grid": "100:400:x2",
    "trials": 200,
}

#: subcommand -> the "data columns" cell's first code span
DATA_COLUMNS = dict(re.findall(r"^\| `([a-z][a-z-]*)` \|[^|]*\| `([^`]*)`", README, re.M))


@pytest.mark.parametrize("subcommand", sorted(set(cli._COMMANDS) - {"selftest"}))
def test_subcommand_table_names_the_columns_written(subcommand, tmp_path, capsys):
    config = tmp_path / "small.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    written = {}
    for fmt in ("csv", "jsonl"):
        out = tmp_path / f"data.{fmt}"
        assert cli.main([subcommand, "--config", str(config), "--format", fmt,
                         "--out", str(out)]) == 0, capsys.readouterr().err
        written[fmt] = out.read_text().splitlines()
    columns = written["csv"][0].split(",")
    named = DATA_COLUMNS[subcommand].split(",")
    if named[-1] == "...":
        named = named[:-1]
        assert columns[:len(named)] == named
    else:
        assert columns == named
    assert all(set(json.loads(line)) == set(columns) for line in written["jsonl"])


def test_flag_table_names_only_parser_flags():
    flags = {f for row in re.findall(r"^\| `--.*", README, re.M)
             for f in re.findall(r"`(--[A-Za-z]+)`", row)}
    known = {s for action in cli.build_parser()._actions for s in action.option_strings}
    assert flags and flags <= known


def test_budget_sentence_names_the_budget():
    stated = re.search(r"Exact routes are budgeted at\s+`N <= ([0-9e.]+)`", README).group(1)
    assert float(stated) == estimators.DEFAULT_POPULATION_BUDGET


def test_vote_share_sentence_names_the_cap():
    stated = re.search(r"`vote_share_law` refuses\s+`N > ([0-9e.]+)`", README).group(1)
    assert float(stated) == commonbelief.VOTE_SHARE_MAX_N


def test_special_sentence_names_what_the_accessor_serves():
    sentence = re.search(r"`measures\._special\(\)`;(.*?)all go through it", README, re.S).group(1)
    sentence = " ".join(sentence.split())
    named = set(re.findall(r"`(\w+)`", sentence))
    if "the Boost ufuncs" in sentence:
        named.add("_ufuncs")
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "faircouncil"
    read = {name for path in src.glob("*.py")
            for name in re.findall(r"_special\(\)\.(\w+)", path.read_text())}
    assert named == read
