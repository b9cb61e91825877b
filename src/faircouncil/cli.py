"""Batch experiment runner.

Every operation in the library is exposed as a subcommand with
machine-readable output (CSV or JSON lines, numbers at 12 significant
digits), which each subcommand returns and ``main`` alone writes. Runs are
deterministic: the seed and worker count are part of the resolved
configuration, echoed as one JSON line to a separate metadata file along
with the only timestamp, so rerunning a command with the same
configuration reproduces the data output byte for byte.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical/domain
error, 3 invariant violation found by ``selftest``.
"""

import argparse
import csv
import functools
import io
import json
import math
import sys
import time

from . import __version__, council as council_mod, estimators, meanfield
from .commonbelief import (
    StraffinFamily,
    check_vote_share_population,
    classify_regime,
    distribution_distance,
    margin_bound_check,
    mu_bar,
)
from .core import ASYMPTOTIC, EXACT, MONTE_CARLO, CommonBelief, Independent, MeanField, RngStream
from .measures import (
    DiscreteSymmetric,
    GriddedDensity,
    PointMassZero,
    UniformSymmetric,
    validate_belief,
)
from .selftest import run_selftest
from .weights import SEMI_EXACT, CouncilSpec, council_moments, delta as delta_op, optimal_weights

#: Bounds on --workers and --trials, checked before anything is allocated:
#: the budget is split into one chunk per worker, and a council simulation
#: holds about seven 8-byte arrays of trials/workers entries per chunk.
MAX_WORKERS = 1024
MAX_TRIALS = 10**7
#: Bound on a population grid's length, checked before the list grows past
#: it: every point is one computation.
MAX_GRID_POINTS = 10**5


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def fmt12(value):
    """Numbers are printed with 12 significant digits."""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _round12(value):
    if isinstance(value, float):
        return float(format(value, ".12g"))
    return value


# --------------------------------------------------------------------------
# configuration parsing
# --------------------------------------------------------------------------

#: kind -> type name -> (dataclass, fields, label). A spec is
#: {"type": name, field: value, ...} with the dataclass's field names as
#: keys; a field named after a kind ("belief") holds a nested spec.
_TYPES = {
    "belief": {
        "point_mass_zero": (PointMassZero, (), lambda b: "point_mass_zero"),
        "uniform": (UniformSymmetric, ("a",), lambda b: f"uniform(a={fmt12(b.a)})"),
        "atoms": (DiscreteSymmetric, ("atoms",), lambda b: f"atoms(k={len(b.atoms)})"),
        "grid": (GriddedDensity, ("nodes", "densities"), lambda b: f"grid(k={len(b.nodes)})"),
    },
    "model": {
        "independent": (Independent, (), lambda m: "independent"),
        "common_belief": (CommonBelief, ("belief",),
                          lambda m: f"common_belief({model_label(m.belief)})"),
        "mean_field": (MeanField, ("coupling",), lambda m: f"mean_field(J={fmt12(m.coupling)})"),
    },
}
_ENTRIES = {cls: (name, fields, label)
            for table in _TYPES.values() for name, (cls, fields, label) in table.items()}

#: Undocumented spellings of --model / "model_name".
_ALIASES = {"meanfield": "mean_field", "commonbelief": "common_belief"}


def _parse(spec, kind):
    """A validated belief or model (``kind``) from its config spec."""
    if not isinstance(spec, dict) or not isinstance(spec.get("type"), str):
        raise UsageError(f"{kind} must be an object with a 'type' field, got {spec!r}")
    if spec["type"] not in _TYPES[kind]:
        raise UsageError(f"unknown {kind} type {spec['type']!r}")
    cls, fields, _ = _TYPES[kind][spec["type"]]
    for field in fields:
        if spec.get(field) is None:
            raise UsageError(f"{kind} type {spec['type']!r} is missing field {field!r}")
    values = {f: _parse(spec[f], f) if f in _TYPES else spec[f] for f in fields}
    try:
        obj = cls(**values)
        return validate_belief(obj) if kind == "belief" else obj
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"invalid {kind} {spec!r}: {exc}") from exc


def parse_belief(spec):
    """Belief from config JSON: {"type": "uniform", "a": ...} |
    {"type": "atoms", "atoms": [[z, w], ...]} | {"type": "point_mass_zero"} |
    {"type": "grid", "nodes": [...], "densities": [...]}."""
    return _parse(spec, "belief")


def parse_model(spec):
    """Model from config JSON: {"type": "independent"} |
    {"type": "common_belief", "belief": ...} | {"type": "mean_field", "coupling": J}."""
    return _parse(spec, "model")


def model_to_config(obj):
    """The config spec of a model or belief, which ``_parse`` reads back;
    any other field value passes through, with tuples as lists."""
    if isinstance(obj, tuple):
        return [model_to_config(v) for v in obj]
    if type(obj) not in _ENTRIES:
        return obj
    name, fields, _ = _ENTRIES[type(obj)]
    return {"type": name, **{f: model_to_config(getattr(obj, f)) for f in fields}}


def model_label(obj):
    """The short label of a model or belief in the data files."""
    return _ENTRIES[type(obj)][2](obj)


def _convert(key, value, convert):
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"invalid {key} {value!r}: {exc}") from exc


def _setting(flag, cfg, key, convert, default=None):
    """The flag if given, else config ``key``, else ``default``, where a JSON
    null counts as absent; a value that ``convert`` rejects exits 1."""
    value = flag if flag is not None else cfg.get(key)
    return default if value is None else _convert(key, value, convert)


def _whole(lo, hi=float("inf")):
    """A converter to a whole number in [lo, hi]: an int, or a float with
    no fraction."""
    def convert(value):
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
            raise ValueError("must be a whole number")
        if not lo <= value <= hi:
            raise ValueError(f"must lie in [{lo}, {hi}]")
        return int(value)
    return convert


def _name(*choices):
    """A converter to a name, '-' read as '_', and one of ``choices`` if
    any are given."""
    def convert(value):
        if not isinstance(value, str):
            raise TypeError("must be a string")
        name = value.replace("-", "_")
        if choices and name not in choices:
            raise ValueError(f"must be one of {', '.join(choices)}")
        return name
    return convert


def parse_council(cfg, quota=None):
    """The council of the config's 'states'; ``quota`` overrides its 'quota'."""
    if not isinstance(cfg.get("states"), list):
        raise UsageError("config needs a 'states' list to define the council")
    states = []
    for entry in cfg["states"]:
        if not isinstance(entry, dict):
            raise UsageError(f"state entry must be an object, got {entry!r}")
        if not isinstance(entry.get("name"), str):
            raise UsageError(f"state name must be a string, got {entry.get('name')!r}")
        states.append((entry["name"], _convert("population", entry.get("population"), _whole(1)),
                       parse_model(entry.get("model"))))
    try:
        return CouncilSpec(states, quota=_setting(quota, cfg, "quota", float, 0.5))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def council_to_config(council):
    return {"quota": council.quota, "states": [
        {"name": s.name, "population": s.population, "model": model_to_config(s.model)}
        for s in council.states]}


def _numbers(value):
    if not isinstance(value, list):
        raise TypeError("must be a list of numbers")
    numbers = [float(x) for x in value]
    if not all(map(math.isfinite, numbers)):
        raise ValueError("every entry must be finite")
    return numbers


def _council_weights(args, cfg, council):
    """(weights, source, table) from --weights over the config's 'weights'
    list; given neither, the moment table's margins and the table."""
    flag = None if args.weights is None else args.weights.split(",")
    w = _setting(flag, cfg, "weights", _numbers)
    if w is None:
        table = council_moments(council)
        return [float(m) for m in table.margins], "optimal", table
    if len(w) != council.size:
        raise UsageError(f"expected {council.size} weights, one per state, got {len(w)}")
    return w, "explicit" if flag else "config", None


def parse_grid(text):
    """Population grids: 'lo:hi:xF' (geometric) or 'lo:hi:+D' (arithmetic),
    of at most ``MAX_GRID_POINTS`` points. A geometric grid keeps each
    rounded population once; every step of its factor counts toward the
    bound, so that a factor near 1 cannot loop on a repeated point."""
    if not isinstance(text, str):
        raise UsageError(f"grid must be a string like lo:hi:x2, got {text!r}")
    try:
        lo_s, hi_s, step_s = text.split(":")
        lo, hi = int(lo_s), int(hi_s)
        step = (float if step_s.startswith("x") else int)(step_s[1:])
    except ValueError as exc:
        raise UsageError(f"grid must look like lo:hi:x2 or lo:hi:+100, got {text!r}") from exc
    if lo < 1 or hi < lo:
        raise UsageError(f"grid bounds must satisfy 1 <= lo <= hi, got {text!r}")
    too_long = f"grid {text!r} takes more than {MAX_GRID_POINTS} steps"
    grid = []
    if step_s.startswith("x"):
        if not 1.0 < step < float("inf"):
            raise UsageError("geometric grid factor must exceed 1 and be finite")
        n, steps = float(lo), 0
        while round(n) <= hi:
            steps += 1
            if steps > MAX_GRID_POINTS:
                raise UsageError(too_long)
            if not grid or round(n) > grid[-1]:
                grid.append(int(round(n)))
            n *= step
    elif step_s.startswith("+"):
        if step < 1:
            raise UsageError("arithmetic grid step must be >= 1")
        points = range(lo, hi + 1, step)
        if len(points) > MAX_GRID_POINTS:
            raise UsageError(too_long)
        grid = list(points)
    else:
        raise UsageError(f"grid step must start with 'x' or '+', got {step_s!r}")
    if not grid:
        raise UsageError(f"grid {text!r} is empty")
    return grid


def _belief_spec(args, cfg):
    """The belief spec from --belief/--a, else the config's 'belief'."""
    if args.belief is None:
        return cfg.get("belief")
    return {"type": args.belief.replace("-", "_"), "a": args.a}


def _model_from_args(args, cfg):
    """The spec that --model/--J/--belief/--a assemble over 'model_name',
    'coupling' and 'belief', else the config's 'model' spec."""
    name = _setting(args.model, cfg, "model_name", _name())
    if name is None:
        if cfg.get("model") is None:
            raise UsageError("no model given; pass --model or a config with a 'model' entry")
        return parse_model(cfg["model"])
    return parse_model({"type": _ALIASES.get(name, name),
                        "coupling": _setting(args.J, cfg, "coupling", float),
                        "belief": _belief_spec(args, cfg)})


def _family(args, cfg):
    """The Straffin family a_N = c N^(-beta) from --c/--beta over the
    config's 'family' entry."""
    fam = {} if cfg.get("family") is None else cfg["family"]
    if not isinstance(fam, dict) or fam.get("type", "straffin") != "straffin":
        raise UsageError(f"config 'family' must be a straffin family object, got {fam!r}")
    beta = _setting(args.beta, fam, "beta", float)
    if beta is None:
        raise UsageError("the straffin family needs --beta")
    try:
        return StraffinFamily(_setting(args.c, fam, "c", float, 1.0), beta)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# --------------------------------------------------------------------------
# output plumbing
# --------------------------------------------------------------------------


def _render_rows(fieldnames, rows, fmt):
    """Rows to bytes: RFC-4180 CSV ('.' decimals, fixed column order) or
    JSON lines, numbers at 12 significant digits either way."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([fmt12(row[name]) for name in fieldnames])
        return buf.getvalue()
    lines = [
        json.dumps({name: _round12(row[name]) for name in fieldnames}, sort_keys=True)
        for row in rows
    ]
    return "".join(line + "\n" for line in lines)


def _emit(args, resolved, fieldnames, rows, summary_lines=()):
    data = _render_rows(fieldnames, rows, args.format)
    summary = "".join(line + "\n" for line in summary_lines)
    meta = json.dumps({
        "subcommand": resolved["subcommand"],
        "version": __version__,
        "resolved_config": resolved,
        "written_at_unix": time.time(),
    }, sort_keys=True) + "\n"
    if args.out:
        for path, text in ((args.out, data), (args.out + ".meta.json", meta)):
            try:
                with open(path, "w", newline="") as fh:
                    fh.write(text)
            except OSError as exc:
                raise UsageError(f"cannot write {path!r}: {exc}") from exc
        sys.stdout.write(summary)
    else:
        sys.stdout.write(data)
        sys.stderr.write(summary + meta)


def _load_config(args):
    if not args.config:
        return {}
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {args.config!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {args.config!r} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError("config root must be a JSON object")
    return cfg


def _resolve_common(args, cfg, subcommand):
    """Resolve the seed, workers and trials onto ``args`` and record them;
    the seed is always recorded explicitly, defaulting to 0."""
    args.seed = _setting(args.seed, cfg, "seed", _whole(0, 2**64 - 1), 0)
    args.workers = _setting(args.workers, cfg, "workers", _whole(1, MAX_WORKERS), 1)
    args.trials = _setting(args.trials, cfg, "trials", _whole(0, MAX_TRIALS), 100_000)
    return {"subcommand": subcommand, "seed": args.seed, "workers": args.workers,
            "trials": args.trials, "format": args.format, "out": args.out,
            "config_path": args.config}


def _require_trials(args, least):
    """Monte Carlo routes need ``least`` trials: 1 to simulate, 2 for a
    standard error."""
    if args.trials < least:
        raise UsageError(f"--trials must be >= {least}, got {args.trials}")


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd_weights(args, cfg, resolved):
    council = parse_council(cfg, args.quota)
    wv = optimal_weights(council)
    resolved["council"] = council_to_config(council)
    rows = [
        {
            "state": s.name,
            "population": s.population,
            "model": model_label(s.model),
            "expected_margin": m.value,
            "weight_raw": raw,
            "weight_normalized": norm,
        }
        for s, m, raw, norm in zip(council.states, wv.margins, wv.values, wv.normalized)
    ]
    fields = ["state", "population", "model", "expected_margin", "weight_raw", "weight_normalized"]
    return fields, rows


def _cmd_margin(args, cfg, resolved):
    model = _model_from_args(args, cfg)
    n = _setting(args.N, cfg, "population", _whole(1))
    if n is None:
        raise UsageError("margin needs --N")
    method = _setting(args.method, cfg, "method", _name(EXACT, MONTE_CARLO, ASYMPTOTIC), EXACT)
    if method == MONTE_CARLO:
        _require_trials(args, 2)
    resolved.update({"model": model_to_config(model), "population": n, "method": method})
    est = estimators.expected_margin(
        model, n, method=method, samples=args.trials,
        rng=RngStream(args.seed), workers=args.workers,
    )
    rows = [{
        "model": model_label(model),
        "N": n,
        "method": est.method,
        "value": est.value,
        "std_error": est.std_error,
        "samples": est.samples,
    }]
    return ["model", "N", "method", "value", "std_error", "samples"], rows


def _cmd_delta(args, cfg, resolved):
    council = parse_council(cfg, args.quota)
    mode = _setting(args.mode, cfg, "mode", _name(EXACT, SEMI_EXACT, MONTE_CARLO), SEMI_EXACT)
    if mode == MONTE_CARLO:
        _require_trials(args, 2)
    w, weight_source, table = _council_weights(args, cfg, council)
    if table is not None and mode == SEMI_EXACT:
        est = table.deficit(w)
    else:
        est = delta_op(council, w, mode=mode, trials=args.trials,
                       rng=RngStream(args.seed), workers=args.workers)
    resolved.update({
        "mode": mode,
        "weights": w,
        "weight_source": weight_source,
        "council": council_to_config(council),
    })
    rows = [{"mode": est.method, "value": est.value, "std_error": est.std_error,
             "trials": est.trials}]
    return ["mode", "value", "std_error", "trials"], rows


def _cmd_scaling(args, cfg, resolved):
    grid = _setting(args.grid, cfg, "grid", parse_grid, parse_grid("256:16384:x2"))
    method = _setting(args.method, cfg, "method", _name(EXACT, MONTE_CARLO, ASYMPTOTIC), EXACT)
    if method == MONTE_CARLO:
        _require_trials(args, 2)
    name = _setting(args.model, cfg, "model_name", _name())
    if name == "straffin" or name is None and (args.beta is not None or cfg.get("family") is not None):
        family = _family(args, cfg)
        model_family = lambda n: CommonBelief(family(n))
        resolved["family"] = {"type": "straffin", "c": family.c, "beta": family.beta}
    else:
        model = _model_from_args(args, cfg)
        model_family = lambda n: model
        resolved["model"] = model_to_config(model)
    resolved.update({"grid": grid, "method": method})
    fit = meanfield.scaling_fit(model_family, grid, estimator_mode=method,
                                samples=args.trials, rng=RngStream(args.seed),
                                workers=args.workers)
    rows = [{"N": n, "expected_margin": m} for n, m in fit.grid]
    summary = [
        f"alpha = {fmt12(fit.exponent)}",
        f"log_prefactor = {fmt12(fit.log_prefactor)}",
        f"r_squared = {fmt12(fit.r_squared)}",
    ]
    resolved["fit"] = {
        "alpha": _round12(fit.exponent),
        "log_prefactor": _round12(fit.log_prefactor),
        "r_squared": _round12(fit.r_squared),
    }
    return ["N", "expected_margin"], rows, summary


def _cmd_solve_cj(args, cfg, resolved):
    coupling = _setting(args.J, cfg, "coupling", float)
    if coupling is None:
        raise UsageError("solve-cj needs --J")
    resolved["coupling"] = coupling
    c, residual, iterations = meanfield.solve_cj(coupling, full_output=True)
    rows = [{"J": coupling, "C": c, "residual": residual, "iterations": iterations}]
    summary = [
        f"C({fmt12(coupling)}) = {fmt12(c)}",
        f"residual = {fmt12(residual)}",
        f"iterations = {iterations}",
    ]
    return ["J", "C", "residual", "iterations"], rows, summary


def _cmd_regime(args, cfg, resolved):
    family = _family(args, cfg)
    epsilon = _setting(args.epsilon, cfg, "epsilon", float, 0.1)
    grid = _setting(args.grid, cfg, "grid", parse_grid, parse_grid("256:16384:x2"))
    try:
        report = classify_regime(family, epsilon, grid)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    resolved.update({
        "family": {"type": "straffin", "c": family.c, "beta": family.beta},
        "epsilon": epsilon,
        "grid": grid,
        "verdict": report.verdict,
        "decay_exponent": _round12(report.decay_exponent),
        "weight_exponent": _round12(report.weight_exponent),
    })
    rows = [
        {"N": n, "a_N": family.half_width(n), "mu_bar": m}
        for n, m in report.grid
    ]
    summary = [
        f"verdict = {report.verdict}",
        f"decay_exponent = {fmt12(report.decay_exponent)}",
        f"weight_exponent = {fmt12(report.weight_exponent) if report.weight_exponent is not None else 'undetermined'}",
    ]
    return ["N", "a_N", "mu_bar"], rows, summary


def _cmd_distribution(args, cfg, resolved):
    spec = _belief_spec(args, cfg)
    if spec is None and cfg.get("model") is not None:
        model = parse_model(cfg["model"])
    else:
        model = parse_model({"type": "common_belief", "belief": spec})
    if not isinstance(model, CommonBelief):
        raise UsageError("distribution needs a common-belief model or a 'belief' entry")
    belief = model.belief
    n = _setting(args.N, cfg, "population", _whole(1))
    if n is not None:
        grid = [n]
    else:
        grid = _setting(args.grid, cfg, "grid", parse_grid, parse_grid("100:10000:x10"))
    resolved.update({
        "belief": model_to_config(belief),
        "grid": grid,
        "mu_bar": _round12(mu_bar(belief)),
    })
    for n in grid:  # refuse an oversized grid before any row is computed
        check_vote_share_population(n)
    rows = []
    for n in grid:
        bound_report = margin_bound_check(belief, n)
        rows.append({
            "N": n,
            "wasserstein_distance": distribution_distance(belief, n),
            "sandwich_gap": bound_report.sandwich_gap,
            "bound": bound_report.bound,
        })
    return ["N", "wasserstein_distance", "sandwich_gap", "bound"], rows


def _cmd_council_sim(args, cfg, resolved):
    _require_trials(args, 1)
    council = parse_council(cfg, args.quota)
    w, weight_source, _ = _council_weights(args, cfg, council)
    if any(v < 0.0 for v in w):
        raise UsageError(f"council weights must be >= 0, got {w}")
    resolved.update({
        "weights": w,
        "weight_source": weight_source,
        "quota": council.quota,
        "council": council_to_config(council),
    })
    result = council_mod.simulate(council, w, args.trials, RngStream(args.seed),
                                  workers=args.workers)
    rows = [
        {"metric": "delta", "state": "", "value": result.delta.value,
         "std_error": result.delta.std_error},
        {"metric": "disagreement_rate", "state": "", "value": result.disagreement_rate,
         "std_error": result.disagreement_std_error},
        {"metric": "mean_popular_margin", "state": "", "value": result.mean_popular_margin,
         "std_error": 0.0},
        {"metric": "trials", "state": "", "value": result.trials, "std_error": 0.0},
    ]
    for state, rate in zip(council.states, result.per_state_yes_rates):
        rows.append({"metric": "yes_rate", "state": state.name, "value": rate,
                     "std_error": 0.0})
    return ["metric", "state", "value", "std_error"], rows


def _cmd_compare_rules(args, cfg, resolved):
    _require_trials(args, 1)
    council = parse_council(cfg, args.quota)
    resolved["council"] = council_to_config(council)
    rows_out = []
    for row in council_mod.compare_weight_rules(council, args.trials, RngStream(args.seed),
                                                workers=args.workers):
        rows_out.append({
            "rule": row.rule,
            "scale": row.scale,
            "weights": ";".join(fmt12(v) for v in row.weights),
            "delta_semi_exact": row.delta_semi_exact,
            "delta_mc": row.simulation.delta.value,
            "delta_mc_std_error": row.simulation.delta.std_error,
            "disagreement_rate": row.simulation.disagreement_rate,
            "disagreement_std_error": row.simulation.disagreement_std_error,
        })
    fields = ["rule", "scale", "weights", "delta_semi_exact", "delta_mc",
              "delta_mc_std_error", "disagreement_rate", "disagreement_std_error"]
    return fields, rows_out


def _cmd_selftest():
    results = run_selftest()
    failures = [r for r in results if not r.ok]
    print(f"{len(results) - len(failures)}/{len(results)} invariant checks passed")
    return 3 if failures else 0


_COMMANDS = {
    "weights": _cmd_weights,
    "margin": _cmd_margin,
    "delta": _cmd_delta,
    "scaling": _cmd_scaling,
    "solve-cj": _cmd_solve_cj,
    "regime": _cmd_regime,
    "distribution": _cmd_distribution,
    "council-sim": _cmd_council_sim,
    "compare-rules": _cmd_compare_rules,
    "selftest": _cmd_selftest,
}


@functools.cache
def build_parser():
    """The command-line parser, built once per process; callers only read it."""
    p = _Parser(prog="faircouncil",
                description="Fair council weights under voter correlation")
    p.add_argument("subcommand", choices=_COMMANDS, metavar="SUBCOMMAND",
                   help=" | ".join(_COMMANDS))
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    p.add_argument("--workers", type=int, default=None,
                   help=f"worker substreams for Monte Carlo (default 1, at most {MAX_WORKERS})")
    p.add_argument("--trials", type=int, default=None,
                   help=f"Monte Carlo trials / samples (default 100000, at most {MAX_TRIALS})")
    p.add_argument("--out", help="data output path (metadata goes to OUT.meta.json)")
    p.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    p.add_argument("--J", type=float, default=None, help="mean-field coupling")
    p.add_argument("--N", type=int, default=None, help="population size")
    p.add_argument("--grid", default=None, help="population grid, lo:hi:x2 or lo:hi:+100")
    p.add_argument("--quota", type=float, default=None, help="council quota in (0, 1)")
    p.add_argument("--epsilon", type=float, default=None,
                   help="regime classification band half-width")
    p.add_argument("--model", default=None,
                   help="independent | mean-field | common-belief | straffin")
    p.add_argument("--belief", default=None,
                   help="uniform (with --a) | point-mass-zero; atoms and grid go in the config")
    p.add_argument("--a", type=float, default=None, help="uniform belief half-width")
    p.add_argument("--c", type=float, default=None, help="Straffin family prefactor")
    p.add_argument("--beta", type=float, default=None, help="Straffin family decay exponent")
    p.add_argument("--method", default=None, help="exact | monte-carlo | asymptotic")
    p.add_argument("--mode", default=None, help="exact | semi-exact | monte-carlo")
    p.add_argument("--weights", default=None, help="comma-separated council weights")
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if args.subcommand == "selftest":
            return _cmd_selftest()  # reads no config and no flags
        cfg = _load_config(args)
        resolved = _resolve_common(args, cfg, args.subcommand)
        _emit(args, resolved, *_COMMANDS[args.subcommand](args, cfg, resolved))
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
