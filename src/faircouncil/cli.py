"""Batch experiment runner.

Every operation in the library is exposed as a subcommand with
machine-readable output (CSV or JSON lines, numbers at 12 significant
digits). Runs are deterministic: the seed and worker count are part of the
resolved configuration, which is echoed to a separate metadata file along
with the only timestamp, so rerunning a command with the same
configuration reproduces the data output byte for byte.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical/domain
error, 3 invariant violation found by ``selftest``.
"""

import argparse
import csv
import io
import json
import sys
import time

from . import __version__, council as council_mod, estimators, meanfield
from .commonbelief import (
    StraffinFamily,
    classify_regime,
    distribution_distance,
    margin_bound_check,
    mu_bar,
)
from .core import EXACT, MONTE_CARLO, CommonBelief, Independent, MeanField, RngStream
from .measures import (
    DiscreteSymmetric,
    GriddedDensity,
    PointMassZero,
    UniformSymmetric,
)
from .selftest import run_selftest
from .weights import SEMI_EXACT, CouncilSpec, delta as delta_op, optimal_weights


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


def parse_belief(spec):
    """Belief from config JSON: {"type": "uniform", "a": ...} |
    {"type": "atoms", "atoms": [[z, w], ...]} | {"type": "point_mass_zero"} |
    {"type": "grid", "nodes": [...], "densities": [...]}."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise UsageError(f"belief must be an object with a 'type' field, got {spec!r}")
    kind = spec["type"]
    try:
        if kind == "point_mass_zero":
            return PointMassZero()
        if kind == "uniform":
            return UniformSymmetric(float(spec["a"]))
        if kind == "atoms":
            return DiscreteSymmetric([(float(z), float(w)) for z, w in spec["atoms"]])
        if kind == "grid":
            return GriddedDensity(spec["nodes"], spec["densities"])
    except KeyError as exc:
        raise UsageError(f"belief type {kind!r} is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid belief {spec!r}: {exc}") from exc
    raise UsageError(f"unknown belief type {kind!r}")


def parse_model(spec):
    """Model from config JSON: {"type": "independent"} |
    {"type": "common_belief", "belief": ...} | {"type": "mean_field", "coupling": J}."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise UsageError(f"model must be an object with a 'type' field, got {spec!r}")
    kind = spec["type"]
    if kind == "independent":
        return Independent()
    if kind == "common_belief":
        if "belief" not in spec:
            raise UsageError("common_belief model needs a 'belief' field")
        return CommonBelief(parse_belief(spec["belief"]))
    if kind == "mean_field":
        if "coupling" not in spec:
            raise UsageError("mean_field model needs a 'coupling' field")
        try:
            return MeanField(float(spec["coupling"]))
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    raise UsageError(f"unknown model type {kind!r}")


def model_to_config(model):
    if isinstance(model, Independent):
        return {"type": "independent"}
    if isinstance(model, MeanField):
        return {"type": "mean_field", "coupling": model.coupling}
    belief = model.belief
    if isinstance(belief, PointMassZero):
        b = {"type": "point_mass_zero"}
    elif isinstance(belief, UniformSymmetric):
        b = {"type": "uniform", "a": belief.a}
    elif isinstance(belief, DiscreteSymmetric):
        b = {"type": "atoms", "atoms": [list(a) for a in belief.atoms]}
    else:
        b = {"type": "grid", "nodes": list(belief.nodes), "densities": list(belief.densities)}
    return {"type": "common_belief", "belief": b}


def model_label(model):
    if isinstance(model, Independent):
        return "independent"
    if isinstance(model, MeanField):
        return f"mean_field(J={fmt12(model.coupling)})"
    belief = model.belief
    if isinstance(belief, PointMassZero):
        return "common_belief(point_mass_zero)"
    if isinstance(belief, UniformSymmetric):
        return f"common_belief(uniform(a={fmt12(belief.a)}))"
    if isinstance(belief, DiscreteSymmetric):
        return f"common_belief(atoms(k={len(belief.atoms)}))"
    return f"common_belief(grid(k={len(belief.nodes)}))"


def _whole_number(value, what):
    """An integer from config JSON: an int, or a float with no fraction."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise UsageError(f"{what} must be a whole number, got {value!r}")
    return value


def parse_council(cfg):
    if not isinstance(cfg.get("states"), list):
        raise UsageError("config needs a 'states' list to define the council")
    states = []
    for entry in cfg["states"]:
        if not isinstance(entry, dict):
            raise UsageError(f"state entry must be an object, got {entry!r}")
        if not isinstance(entry.get("name", ""), str):
            raise UsageError(f"state name must be a string, got {entry['name']!r}")
        try:
            states.append((entry["name"], _whole_number(entry["population"], "population"),
                           parse_model(entry["model"])))
        except KeyError as exc:
            raise UsageError(f"state entry {entry!r} is missing field {exc}") from exc
    try:
        return CouncilSpec(states, quota=float(cfg.get("quota", 0.5)))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def council_to_config(council):
    return {"quota": council.quota, "states": [
        {"name": s.name, "population": s.population, "model": model_to_config(s.model)}
        for s in council.states]}


def _council_weights(args, cfg, council):
    """Weights from --weights, else the config's 'weights' list, else the
    optimal ones; returned with their source."""
    if args.weights is not None:
        raw, source = args.weights.split(","), "explicit"
    elif "weights" in cfg:
        raw, source = cfg["weights"], "config"
        if not isinstance(raw, list):
            raise UsageError("config 'weights' must be a list of numbers")
    else:
        return list(optimal_weights(council).values), "optimal"
    try:
        w = [float(x) for x in raw]
    except (TypeError, ValueError) as exc:
        raise UsageError(f"weights must be numbers: {exc}") from exc
    if len(w) != council.size:
        raise UsageError(f"expected {council.size} weights, one per state, got {len(w)}")
    return w, source


def parse_grid(text):
    """Population grids: 'lo:hi:xF' (geometric) or 'lo:hi:+D' (arithmetic)."""
    try:
        lo_s, hi_s, step_s = text.split(":")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError as exc:
        raise UsageError(f"grid must look like lo:hi:x2 or lo:hi:+100, got {text!r}") from exc
    if lo < 1 or hi < lo:
        raise UsageError(f"grid bounds must satisfy 1 <= lo <= hi, got {text!r}")
    grid = []
    if step_s.startswith("x"):
        factor = float(step_s[1:])
        if factor <= 1.0:
            raise UsageError("geometric grid factor must exceed 1")
        n = float(lo)
        while round(n) <= hi:
            grid.append(int(round(n)))
            n *= factor
    elif step_s.startswith("+"):
        step = int(step_s[1:])
        if step < 1:
            raise UsageError("arithmetic grid step must be >= 1")
        grid = list(range(lo, hi + 1, step))
    else:
        raise UsageError(f"grid step must start with 'x' or '+', got {step_s!r}")
    if not grid:
        raise UsageError(f"grid {text!r} is empty")
    return grid


def _model_from_args(args, cfg):
    """Model from flags (--model/--J/--belief/--a), falling back to config."""
    name = args.model if args.model is not None else cfg.get("model_name")
    if name is None and "model" in cfg:
        return parse_model(cfg["model"])
    if name is None:
        raise UsageError("no model given; pass --model or a config with a 'model' entry")
    name = name.replace("-", "_")
    if name == "independent":
        return Independent()
    if name in ("mean_field", "meanfield"):
        coupling = args.J if args.J is not None else cfg.get("coupling")
        if coupling is None:
            raise UsageError("mean-field model needs --J")
        try:
            return MeanField(float(coupling))
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    if name in ("common_belief", "commonbelief"):
        if args.belief is not None:
            kind = args.belief.replace("-", "_")
            if kind == "point_mass_zero":
                return CommonBelief(PointMassZero())
            if kind == "uniform":
                if args.a is None:
                    raise UsageError("uniform belief needs --a")
                try:
                    return CommonBelief(UniformSymmetric(args.a))
                except ValueError as exc:
                    raise UsageError(str(exc)) from exc
            raise UsageError(f"unknown --belief {args.belief!r} (atoms/grid go in the config file)")
        if "belief" in cfg:
            return CommonBelief(parse_belief(cfg["belief"]))
        raise UsageError("common-belief model needs --belief or a config 'belief' entry")
    raise UsageError(f"unknown model {args.model!r}")


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
    metadata = {
        "subcommand": resolved["subcommand"],
        "version": __version__,
        "resolved_config": resolved,
        "written_at_unix": time.time(),
    }
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(data)
        with open(args.out + ".meta.json", "w") as fh:
            json.dump(metadata, fh, sort_keys=True, indent=2)
            fh.write("\n")
        for line in summary_lines:
            print(line)
    else:
        sys.stdout.write(data)
        for line in summary_lines:
            print(line, file=sys.stderr)
        print(json.dumps(metadata, sort_keys=True), file=sys.stderr)


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
    """Merge defaults, config file, and explicit flags (flags win); the seed
    is always recorded explicitly, defaulting to 0."""
    resolved = {
        "subcommand": subcommand,
        "seed": int(args.seed if args.seed is not None else cfg.get("seed", 0)),
        "workers": int(args.workers if args.workers is not None else cfg.get("workers", 1)),
        "trials": int(args.trials if args.trials is not None else cfg.get("trials", 100_000)),
        "format": args.format,
        "out": args.out,
        "config_path": args.config,
    }
    if resolved["workers"] < 1:
        raise UsageError("--workers must be >= 1")
    if resolved["seed"] < 0 or resolved["seed"] >= 2**64:
        raise UsageError("--seed must fit in 64 bits")
    args.seed = resolved["seed"]
    args.workers = resolved["workers"]
    args.trials = resolved["trials"]
    return resolved


def _require_trials(args, least):
    """Monte Carlo routes need ``least`` trials: 1 to simulate, 2 for a
    standard error."""
    if args.trials < least:
        raise UsageError(f"--trials must be >= {least}, got {args.trials}")


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd_weights(args):
    cfg = _load_config(args)
    resolved = _resolve_common(args, cfg, "weights")
    council = parse_council(cfg)
    rng = RngStream(args.seed)
    wv = optimal_weights(council, samples=args.trials, rng=rng, workers=args.workers)
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
    _emit(args, resolved, fields, rows)
    return 0


def _cmd_margin(args):
    cfg = _load_config(args)
    resolved = _resolve_common(args, cfg, "margin")
    model = _model_from_args(args, cfg)
    n = args.N if args.N is not None else cfg.get("population")
    if n is None:
        raise UsageError("margin needs --N")
    n = _whole_number(n, "population")
    if n < 1:
        raise UsageError(f"--N must be >= 1, got {n}")
    method = (args.method or cfg.get("method", EXACT)).replace("-", "_")
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
    _emit(args, resolved, ["model", "N", "method", "value", "std_error", "samples"], rows)
    return 0


def _cmd_delta(args):
    cfg = _load_config(args)
    resolved = _resolve_common(args, cfg, "delta")
    council = parse_council(cfg)
    mode = (args.mode or cfg.get("mode", SEMI_EXACT)).replace("-", "_")
    if mode == MONTE_CARLO:
        _require_trials(args, 2)
    w, weight_source = _council_weights(args, cfg, council)
    resolved.update({
        "mode": mode,
        "weights": w,
        "weight_source": weight_source,
        "council": council_to_config(council),
    })
    est = delta_op(council, w, mode=mode, trials=args.trials,
                   rng=RngStream(args.seed), workers=args.workers)
    rows = [{"mode": est.method, "value": est.value, "std_error": est.std_error,
             "trials": est.trials}]
    _emit(args, resolved, ["mode", "value", "std_error", "trials"], rows)
    return 0


def _cmd_scaling(args):
    cfg = _load_config(args)
    resolved = _resolve_common(args, cfg, "scaling")
    grid = parse_grid(args.grid if args.grid is not None else cfg.get("grid", "256:16384:x2"))
    method = (args.method or cfg.get("method", EXACT)).replace("-", "_")
    if method == MONTE_CARLO:
        _require_trials(args, 2)
    if (args.model or cfg.get("model_name")) in ("straffin", None) and (
        args.beta is not None or cfg.get("family", {}).get("type") == "straffin"
    ):
        fam_cfg = cfg.get("family", {})
        c = args.c if args.c is not None else fam_cfg.get("c", 1.0)
        beta = args.beta if args.beta is not None else fam_cfg.get("beta")
        if beta is None:
            raise UsageError("straffin family needs --beta")
        family = StraffinFamily(float(c), float(beta))
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
    _emit(args, resolved, ["N", "expected_margin"], rows, summary)
    return 0


def _cmd_solve_cj(args):
    cfg = _load_config(args)
    resolved = _resolve_common(args, cfg, "solve-cj")
    coupling = args.J if args.J is not None else cfg.get("coupling")
    if coupling is None:
        raise UsageError("solve-cj needs --J")
    coupling = float(coupling)
    resolved["coupling"] = coupling
    c, residual, iterations = meanfield.solve_cj(coupling, full_output=True)
    rows = [{"J": coupling, "C": c, "residual": residual, "iterations": iterations}]
    summary = [
        f"C({fmt12(coupling)}) = {fmt12(c)}",
        f"residual = {fmt12(residual)}",
        f"iterations = {iterations}",
    ]
    _emit(args, resolved, ["J", "C", "residual", "iterations"], rows, summary)
    return 0


def _cmd_regime(args):
    cfg = _load_config(args)
    resolved = _resolve_common(args, cfg, "regime")
    fam_cfg = cfg.get("family", {})
    c = args.c if args.c is not None else fam_cfg.get("c", 1.0)
    beta = args.beta if args.beta is not None else fam_cfg.get("beta")
    if beta is None:
        raise UsageError("regime needs --beta (Straffin family exponent)")
    epsilon = args.epsilon if args.epsilon is not None else cfg.get("epsilon", 0.1)
    grid = parse_grid(args.grid if args.grid is not None else cfg.get("grid", "256:16384:x2"))
    family = StraffinFamily(float(c), float(beta))
    try:
        report = classify_regime(family, float(epsilon), grid)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    resolved.update({
        "family": {"type": "straffin", "c": family.c, "beta": family.beta},
        "epsilon": float(epsilon),
        "grid": grid,
        "verdict": report.verdict,
        "decay_exponent": _round12(report.decay_exponent),
        "weight_exponent": _round12(report.weight_exponent) if report.weight_exponent is not None else None,
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
    _emit(args, resolved, ["N", "a_N", "mu_bar"], rows, summary)
    return 0


def _cmd_distribution(args):
    cfg = _load_config(args)
    resolved = _resolve_common(args, cfg, "distribution")
    if args.belief is None and "belief" in cfg:
        belief = parse_belief(cfg["belief"])
    elif args.belief is None and "model" in cfg:
        model = parse_model(cfg["model"])
        if not isinstance(model, CommonBelief):
            raise UsageError("distribution needs a common-belief model or a 'belief' entry")
        belief = model.belief
    else:
        model = _model_from_args(args, {"model_name": "common_belief", **cfg})
        belief = model.belief
    if args.N is not None:
        grid = [int(args.N)]
    else:
        grid = parse_grid(args.grid if args.grid is not None else cfg.get("grid", "100:10000:x10"))
    resolved.update({
        "belief": model_to_config(CommonBelief(belief))["belief"],
        "grid": grid,
        "mu_bar": _round12(mu_bar(belief)),
    })
    rows = []
    for n in grid:
        bound_report = margin_bound_check(belief, n)
        rows.append({
            "N": n,
            "wasserstein_distance": distribution_distance(belief, n),
            "sandwich_gap": bound_report.sandwich_gap,
            "bound": bound_report.bound,
        })
    _emit(args, resolved, ["N", "wasserstein_distance", "sandwich_gap", "bound"], rows)
    return 0


def _cmd_council_sim(args):
    cfg = _load_config(args)
    resolved = _resolve_common(args, cfg, "council-sim")
    _require_trials(args, 1)
    council = parse_council(cfg)
    if args.quota is not None:
        council = CouncilSpec([(s.name, s.population, s.model) for s in council.states],
                              quota=args.quota)
    w, weight_source = _council_weights(args, cfg, council)
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
    _emit(args, resolved, ["metric", "state", "value", "std_error"], rows)
    return 0


def _cmd_compare_rules(args):
    cfg = _load_config(args)
    resolved = _resolve_common(args, cfg, "compare-rules")
    _require_trials(args, 1)
    council = parse_council(cfg)
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
    _emit(args, resolved, fields, rows_out)
    return 0


def _cmd_selftest(args):
    results = run_selftest(report=print)
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


def build_parser():
    parser = _Parser(prog="faircouncil",
                     description="Fair council weights under voter correlation")
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    for name in _COMMANDS:
        p = sub.add_parser(name, add_help=True)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
        p.add_argument("--workers", type=int, default=None,
                       help="worker substreams for Monte Carlo (default 1)")
        p.add_argument("--trials", type=int, default=None,
                       help="Monte Carlo trials / samples (default 100000)")
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
        p.add_argument("--belief", default=None, help="uniform | point-mass-zero")
        p.add_argument("--a", type=float, default=None, help="uniform belief half-width")
        p.add_argument("--c", type=float, default=None, help="Straffin family prefactor")
        p.add_argument("--beta", type=float, default=None, help="Straffin family decay exponent")
        p.add_argument("--method", default=None, help="exact | monte-carlo | asymptotic")
        p.add_argument("--mode", default=None, help="exact | semi-exact | monte-carlo")
        p.add_argument("--weights", default=None, help="comma-separated council weights")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand is None:
            raise UsageError("a subcommand is required (see --help)")
        return _COMMANDS[args.subcommand](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
