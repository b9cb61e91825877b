"""Start-up cost: importing faircouncil loads numpy but not scipy.

``scipy.special`` is imported on the first call that reads it, through
``measures._special``. Each CLI run here is a fresh interpreter, as a shell
user starts it, and reports whether that run loaded ``scipy.special``.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import faircouncil
from test_cli import GOLDEN_COUNCIL, GOLDEN_WEIGHTS

PACKAGE = pathlib.Path(faircouncil.__file__).parent

#: Runs the CLI on its arguments and appends, as the last line of stderr,
#: whether ``scipy.special`` was loaded by the time the run ended.
RUN_CLI = """
import sys
from faircouncil.cli import main
try:
    code = main(sys.argv[1:])
finally:
    sys.stderr.write("\\nscipy.special loaded: %s\\n" % ("scipy.special" in sys.modules))
sys.exit(code)
"""

#: A council with no mean-field state of two or more voters: its Monte Carlo
#: routes draw from numpy alone.
NUMPY_COUNCIL = {"quota": 0.5, "states": [
    {"name": "ind", "population": 5, "model": {"type": "independent"}},
    {"name": "uniform", "population": 8,
     "model": {"type": "common_belief", "belief": {"type": "uniform", "a": 0.5}}},
    {"name": "atoms", "population": 7,
     "model": {"type": "common_belief", "belief": {
         "type": "atoms", "atoms": [[-0.3, 0.25], [0.3, 0.25], [0.0, 0.5]]}}},
    {"name": "grid", "population": 9,
     "model": {"type": "common_belief", "belief": {
         "type": "grid", "nodes": [-1.0, 0.0, 1.0], "densities": [0.0, 1.0, 0.0]}}},
    {"name": "single", "population": 1, "model": {"type": "mean_field", "coupling": 0.7}},
]}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p)
    return env


def _run_cli(args, cwd):
    proc = subprocess.run([sys.executable, "-c", RUN_CLI, *args], capture_output=True,
                          text=True, env=_env(), cwd=cwd, timeout=120)
    *_, last = proc.stderr.rstrip("\n").rsplit("\n", 1)
    assert last.startswith("scipy.special loaded: "), proc.stderr
    return proc.returncode, last == "scipy.special loaded: True", proc


def _config(tmp_path, cfg):
    path = tmp_path / "council.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_import_leaves_scipy_out():
    code = "import sys, faircouncil, faircouncil.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("args, exit_code", [
    (["--help"], 0),
    (["weights"], 1),
    (["weights", "--config", "missing.json"], 1),
    (["solve-cj", "--J", "1.5"], 0),
], ids=["help", "no-config", "missing-config", "solve-cj"])
def test_usage_paths_leave_scipy_out(args, exit_code, tmp_path):
    code, loaded, proc = _run_cli(args, tmp_path)
    assert code == exit_code, proc.stderr
    assert not loaded


@pytest.mark.parametrize("args", [
    ["council-sim", "--weights", "1,2,1,3,1"],
    ["delta", "--mode", "monte-carlo", "--weights", "1,2,1,3,1"],
], ids=["council-sim", "delta-monte-carlo"])
def test_monte_carlo_council_leaves_scipy_out(args, tmp_path):
    config = _config(tmp_path, NUMPY_COUNCIL)
    code, loaded, proc = _run_cli(args + ["--trials", "2000", "--config", config], tmp_path)
    assert code == 0, proc.stderr
    assert not loaded


@pytest.mark.parametrize("model", [
    ["--model", "independent"],
    ["--model", "common-belief", "--belief", "uniform", "--a", "0.5"],
], ids=["independent", "uniform"])
def test_monte_carlo_margin_leaves_scipy_out(model, tmp_path):
    code, loaded, proc = _run_cli(["margin", "--method", "monte-carlo", "--N", "1001",
                                   "--trials", "2000", *model], tmp_path)
    assert code == 0, proc.stderr
    assert not loaded


def test_exact_weights_load_scipy_and_keep_their_bytes(tmp_path):
    out = tmp_path / "out.csv"
    code, loaded, proc = _run_cli(
        ["weights", "--config", _config(tmp_path, GOLDEN_COUNCIL), "--out", str(out)], tmp_path)
    assert code == 0, proc.stderr
    assert loaded
    assert out.read_text() == GOLDEN_WEIGHTS


def _scipy_imports_at_import_time(source):
    """Line numbers of the ``import scipy...``/``from scipy...`` statements
    that run when a module with this source is imported: everywhere but
    inside a function body."""

    def statements(node):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                yield child
                yield from statements(child)

    lines = []
    for node in statements(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            lines.append(node.lineno)
    return lines


def test_guard_finds_scipy_imports_that_run_at_import_time():
    source = ("import numpy\n"
              "try:\n"
              "    from scipy.special import gammaln\n"
              "except ImportError:\n"
              "    pass\n"
              "import os, scipy.stats\n"
              "class C:\n"
              "    import scipy\n"
              "def f():\n"
              "    import scipy.special\n")
    assert _scipy_imports_at_import_time(source) == [3, 6, 8]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy_at_import_time(path):
    lines = _scipy_imports_at_import_time(path.read_text())
    assert not lines, f"{path.name} imports scipy at import time on line(s) {lines}"


#: A council with every model type: mean field at three couplings, one of
#: them on a single voter, and every kind of common belief.
EVERY_MODEL_COUNCIL = {"quota": 0.5, "states": NUMPY_COUNCIL["states"] + [
    {"name": "mf-half", "population": 101, "model": {"type": "mean_field", "coupling": 0.5}},
    {"name": "mf-one", "population": 1001, "model": {"type": "mean_field", "coupling": 1.0}},
    {"name": "mf-three-halves", "population": 60, "model": {"type": "mean_field", "coupling": 1.5}},
    {"name": "point", "population": 11,
     "model": {"type": "common_belief", "belief": {"type": "point_mass_zero"}}},
]}

#: Runs every Monte Carlo route on the council at argv[1], then the CLI's
#: ``council-sim --weights`` on it and a mean-field ``margin --method
#: monte-carlo``, and prints the scipy modules loaded by the end.
RUN_MONTE_CARLO = """
import json, sys
from faircouncil import RngStream, council, estimators, weights
from faircouncil.cli import main, parse_council
path = sys.argv[1]
spec = parse_council(json.load(open(path)))
w = [float(s.population) ** 0.5 for s in spec.states]
council.simulate(spec, w, 2000, RngStream(3), workers=2)
weights.delta(spec, w, mode="monte_carlo", trials=2000, rng=RngStream(4))
for state in spec.states:
    estimators.expected_margin_mc(state.model, state.population, 2000, RngStream(5))
codes = [main(["council-sim", "--weights", ",".join(map(str, w)), "--trials", "2000",
               "--config", path]),
         main(["margin", "--method", "monte-carlo", "--model", "mean-field", "--J", "1",
               "--N", "100001", "--trials", "2000"])]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_monte_carlo_routes_of_every_model_leave_scipy_out(tmp_path):
    config = _config(tmp_path, EVERY_MODEL_COUNCIL)
    proc = subprocess.run([sys.executable, "-c", RUN_MONTE_CARLO, config], capture_output=True,
                          text=True, env=_env(), cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.rstrip("\n").rsplit("\n", 1)[-1])
    assert report == {"codes": [0, 0], "scipy": []}
