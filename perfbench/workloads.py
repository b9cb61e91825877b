"""Seeded workload inputs, their operations, and their correctness checks.

Every workload is a fixed batch of operations built from ``--seed`` alone;
the library sees only the generated inputs. The seed moves each population
within a few percent of a fixed point on a log grid and never changes its
parity class, so the amount of work barely varies from seed to seed while
the exact inputs do. Each operation fills an ``out`` dict (kept even when it
raises, so partial results still reach the oracles) and returns whether it
succeeded.
"""

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import faircouncil as fc
from faircouncil import cli, commonbelief, council, estimators, meanfield, weights

ATOMS = ((-0.3, 0.25), (0.3, 0.25), (0.0, 0.5))
FLAT_NODES = (-1.0, -0.8, -0.6, -0.4, -0.2, 0.0, 0.2, 0.4, 0.6, 0.8, 1.0)

#: A fitted exponent must lie this close to the paper's value; the gaps
#: between the table's regimes (1/2, 3/4, 1) are 0.25.
EXPONENT_TOL = 0.08

#: Monte Carlo and exact routes must agree within this many standard errors.
Z_BOUND = 5.0

#: A probability law whose total is further than this from 1 fails the run.
LAW_SUM_TOL = 1e-9


@dataclass
class Op:
    label: str
    call: object  # call(out) -> bool
    kind: str
    meta: dict = field(default_factory=dict)


@dataclass
class Verdict:
    checks: int = 0
    failures: list = field(default_factory=list)
    digits: dict = field(default_factory=dict)  # (model, quantity) -> (digits, n)
    extra: dict = field(default_factory=dict)

    def expect(self, ok, message):
        self.checks += 1
        if not ok:
            self.failures.append(message)

    def digit(self, model, quantity, n, value, truth):
        from oracles import digits

        d = digits(value, truth)
        key = (model, quantity)
        if key not in self.digits or d < self.digits[key][0]:
            self.digits[key] = (d, n)


class Workload:
    """A fixed batch of ``ops``, run in order."""

    ops = ()

    def prepare(self, workdir):
        """Write whatever the operations read, untimed."""


def _rng(seed, salt):
    return np.random.default_rng([int(seed), salt])


def _jitter(rng, center, parity):
    """A population within about 5% of ``center`` with the given parity."""
    n = int(round(center * 10 ** rng.uniform(-0.02, 0.02)))
    return max(n + ((n - parity) % 2), 2 + parity)


def _same(a, b):
    """Bit-identical outcomes, treating exceptions by type and message."""
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return repr(a) == repr(b)
    return a == b


# --------------------------------------------------------------------------
# model catalogue
# --------------------------------------------------------------------------


def _grid_belief():
    return fc.GriddedDensity(FLAT_NODES, [0.5] * len(FLAT_NODES))


#: name -> (model for population n, oracle key, oracle parameter)
SWEEP_MODELS = {
    "independent": (lambda n: fc.Independent(), "independent", None),
    "mean_field_0.5": (lambda n: fc.MeanField(0.5), "mean_field", 0.5),
    "mean_field_1": (lambda n: fc.MeanField(1.0), "mean_field", 1.0),
    "mean_field_1.5": (lambda n: fc.MeanField(1.5), "mean_field", 1.5),
    "uniform_1": (lambda n: fc.CommonBelief(fc.UniformSymmetric(1.0)), "uniform_one", None),
    "uniform_0.1": (lambda n: fc.CommonBelief(fc.UniformSymmetric(0.1)), "uniform", 0.1),
    "straffin_0.25": (lambda n: fc.CommonBelief(fc.StraffinFamily(1.0, 0.25)(n)), "uniform", None),
    "straffin_0.75": (lambda n: fc.CommonBelief(fc.StraffinFamily(1.0, 0.75)(n)), "uniform", None),
    "atoms": (lambda n: fc.CommonBelief(fc.DiscreteSymmetric(ATOMS)), "atoms", ATOMS),
    "grid_flat": (lambda n: fc.CommonBelief(_grid_belief()), "uniform_one", None),
}

#: The paper's margin-growth exponents, and the largest grid exponent per
#: model: the 1e7 budget for independent voters and 1e6 for the critical
#: mean field; elsewhere the last point that costs under a tenth of a second
#: at the seed, so that a batch is short enough to run a dozen times in one
#: run.
SWEEP_PLAN = {
    "independent": (0.5, 7),
    "mean_field_0.5": (0.5, 5),
    "mean_field_1": (0.75, 6),
    "mean_field_1.5": (1.0, 5),
    "uniform_1": (1.0, 4),
    "uniform_0.1": (1.0, 3.5),
    "straffin_0.25": (0.75, 3.5),
    "straffin_0.75": (0.5, 3.5),
    "atoms": (1.0, 6),
    "grid_flat": (1.0, 6),
}


def oracle(model, n):
    """(E|S|, E S^2, P(S=0)) from the independent oracles, or None where a
    direct sum would be too slow; the second element may stand alone."""
    import oracles

    _, key, param = SWEEP_MODELS[model]
    if key == "independent":
        return oracles.independent(n)
    if key == "uniform_one":
        return oracles.uniform_one(n)
    if key == "atoms":
        return oracles.atoms(n, param)
    a = param if param is not None else SWEEP_MODELS[model][0](n).belief.a
    if key == "uniform":
        if n <= oracles.UNIFORM_MAX_N:
            return oracles.uniform(n, a)
        return (None, oracles.uniform_second(n, a), None)
    if n <= oracles.MEAN_FIELD_MAX_N:
        return oracles.mean_field(n, param)
    return None


def _sweep_grid(rng, top_exp):
    """Both parities at each point up to 10^5, one point per decade above
    (10^6 odd, 10^7 even, both at most 10^7)."""
    ns = []
    for e in (2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0):
        if e > top_exp:
            return ns
        n0 = round(10**e) - int(rng.integers(0, 10))
        ns += [n0, n0 + 1]
    for e, odd in ((6, 1), (7, 0)):
        if e > top_exp:
            break
        ns.append(10**e - 2 * int(rng.integers(0, 5)) - odd)
    return ns


# --------------------------------------------------------------------------
# scaling-sweep
# --------------------------------------------------------------------------


def _triple(state):
    def call(out):
        out["margin"] = weights.state_margin(state).value
        out["second"] = weights.state_second_moment(state)
        out["tie"] = weights.state_tie_probability(state)
        return True

    return call


def _fit(family, grid):
    def call(out):
        fit = meanfield.scaling_fit(family, grid)
        out["exponent"] = fit.exponent
        return True

    return call


def _distance(belief, n):
    def call(out):
        out["distance"] = commonbelief.distribution_distance(belief, n)
        return True

    return call


def _solve_cj(coupling):
    def call(out):
        out["c"] = meanfield.solve_cj(coupling)
        return True

    return call


#: The scaling fits use the grid points in this range.
FIT_RANGE = (900, 4000)

#: Models whose fits only repeat the batch's quadrature work: their fits run
#: in the check, untimed. The other models' fits are timed.
QUADRATURE_MODELS = ("uniform_1", "uniform_0.1", "straffin_0.25", "straffin_0.75")


class ScalingSweep(Workload):
    """Per-state moments on a population grid, scaling fits, distances."""

    name = "scaling-sweep"

    def __init__(self, seed, nproc):
        rng = _rng(seed, 1)
        columns = []
        self.untimed_fits = []
        for model, (family, _, _) in SWEEP_MODELS.items():
            exponent, top = SWEEP_PLAN[model]
            grid = _sweep_grid(rng, top)
            ops = [Op(f"{model} N={n}", _triple(weights.StateSpec(model, n, family(n))),
                      "moments", {"model": model, "n": n}) for n in grid]
            fit_grid = [n for n in grid if FIT_RANGE[0] <= n <= FIT_RANGE[1]]
            fit = Op(f"fit {model}", _fit(family, fit_grid), "fit",
                     {"model": model, "exponent": exponent})
            if model in QUADRATURE_MODELS:
                self.untimed_fits.append(fit)
            else:
                ops.append(fit)
            if isinstance(family(grid[0]), fc.CommonBelief):
                ops += [Op(f"distance {model} N={n}", _distance(family(n).belief, n), "distance",
                           {"model": model, "n": n}) for n in grid[0:7:3]]
            columns.append(ops)
        # models take turns, so operations of similar cost are spread over
        # the whole batch instead of running back to back
        self.ops = [col[i] for i in range(max(map(len, columns))) for col in columns if i < len(col)]
        self.ops.append(Op("solve_cj J=1.5", _solve_cj(1.5), "solve_cj", {"coupling": 1.5}))

    def check(self, batches):
        v = Verdict()
        first = batches[0]
        outs = {op.label: rec.out for op, rec in zip(self.ops, first)}
        for op, rec in zip(self.ops, first):
            out = rec.out
            if op.kind == "moments":
                model, n = op.meta["model"], op.meta["n"]
                for q in ("margin", "second", "tie"):
                    if q in out:
                        v.expect(math.isfinite(out[q]) and out[q] >= 0.0,
                                 f"{op.label}: {q} = {out[q]!r} is not finite and >= 0")
                if "tie" in out:
                    v.expect(out["tie"] <= 1.0, f"{op.label}: tie probability {out['tie']!r} > 1")
                truth = oracle(model, n)
                if truth is None:
                    continue
                for q, t in zip(("margin", "second", "tie"), truth):
                    if t is not None and q in out:
                        v.digit(model, q, n, out[q], t)
            elif op.kind == "fit":
                _check_fit(v, op, out)
            elif op.kind == "distance":
                d = out.get("distance")
                v.expect(d is not None and math.isfinite(d) and d >= 0.0,
                         f"{op.label}: distance {d!r} is not finite and >= 0")
            elif op.kind == "solve_cj":
                c = out.get("c")
                top = max(o.meta["n"] for o in self.ops
                          if o.meta.get("model") == "mean_field_1.5" and o.kind == "moments")
                ratio = outs[f"mean_field_1.5 N={top}"].get("margin", math.nan) / top
                v.expect(c is not None and abs(ratio / c - 1.0) < 1e-3,
                         f"E|S|/N = {ratio!r} at J=1.5, N={top} is not within 1e-3 of C(J) = {c!r}")
        # the gate catches laws that are not normalized; how far the sum is
        # from 1 at rounding level is reported as digits
        for coupling, n in ((0.5, 100001), (1.0, 100000), (1.5, 100001)):
            probs = fc.magnetization_pmf(coupling, n).probs
            total = float(np.sum(probs))
            v.expect(bool(np.all(np.isfinite(probs))) and abs(total - 1.0) < LAW_SUM_TOL,
                     f"mean-field law J={coupling} N={n} sums to {total!r}")
            v.digit(f"mean_field_{coupling:g}", "law_sum", n, total, 1)
        for model in ("uniform_1", "atoms", "grid_flat"):
            _, probs = commonbelief.vote_share_law(SWEEP_MODELS[model][0](1000).belief, 1000)
            v.expect(bool(np.all(np.isfinite(probs))) and abs(float(np.sum(probs)) - 1.0) < LAW_SUM_TOL,
                     f"vote-share law of {model} at N=1000 does not sum to 1")
        for op in self.untimed_fits:
            out = {}
            op.call(out)
            _check_fit(v, op, out)
        _check_repeats(v, self.ops, batches)
        return v


def _check_fit(v, op, out):
    got, want = out.get("exponent"), op.meta["exponent"]
    v.expect(got is not None and abs(got - want) <= EXPONENT_TOL,
             f"{op.label}: exponent {got!r} is not within {EXPONENT_TOL} of {want}")
    v.extra[f"exponent {op.meta['model']}"] = got


# --------------------------------------------------------------------------
# council-deficit
# --------------------------------------------------------------------------

#: The council model types, as the CLI reads them.
COUNCIL_TYPES = (
    ("independent", {"type": "independent"}),
    ("mean_field_0.5", {"type": "mean_field", "coupling": 0.5}),
    ("mean_field_1", {"type": "mean_field", "coupling": 1.0}),
    ("mean_field_1.5", {"type": "mean_field", "coupling": 1.5}),
    ("uniform_1", {"type": "common_belief", "belief": {"type": "uniform", "a": 1.0}}),
    ("uniform_0.1", {"type": "common_belief", "belief": {"type": "uniform", "a": 0.1}}),
    ("atoms", {"type": "common_belief",
               "belief": {"type": "atoms", "atoms": [list(a) for a in ATOMS]}}),
    ("grid_flat", {"type": "common_belief",
                   "belief": {"type": "grid", "nodes": list(FLAT_NODES),
                              "densities": [0.5] * len(FLAT_NODES)}}),
    ("point_mass_zero", {"type": "common_belief", "belief": {"type": "point_mass_zero"}}),
)

#: Oracle used for each council type's expected margin.
COUNCIL_ORACLES = {"point_mass_zero": "independent"}


def _council(rng, label, lo_exp, hi_exp, per_type):
    """States spread over log-strata of [10^lo, 10^hi]; type t's s-th state
    is even exactly when t + s is even."""
    states = []
    for t, (kind, model) in enumerate(COUNCIL_TYPES):
        for s in range(per_type):
            center = 10 ** (lo_exp + (hi_exp - lo_exp) * (s + 0.5) / per_type)
            states.append({"name": f"{label}-{kind}-{s}", "model": model,
                           "population": _jitter(rng, center, (t + s) % 2)})
    return {"states": states, "quota": 0.5}


#: Base population centers of the nine-state councils, one per type in
#: catalogue order.
NINE_STATE_CENTERS = (150, 254, 429, 725, 1226, 2072, 3502, 5919, 10000)
LADDER = 12


def _clear_of_overflow(center):
    """Keep a center out of the jitter band around N = 1026, where an even
    common-belief population starts to overflow the tie term, so whether a
    deficit raises depends on the design and never on the seed."""
    if 880.0 < center < 1180.0:
        return 880.0 if center < 1026.0 else 1180.0
    return center


def _nine_state_council(rng, label, index):
    """Council ``index`` of the ladder scales the base centers by
    10^(-1.6 .. -0.4), so operation costs spread smoothly over two decades.
    Even-indexed councils are all odd; odd-indexed ones have even
    common-belief states, whose tie term raises above N = 1026."""
    scale = 10 ** (1.2 * index / (LADDER - 1) - 1.6)
    states = []
    for t, ((kind, model), base) in enumerate(zip(COUNCIL_TYPES, NINE_STATE_CENTERS)):
        parity = t % 2 if t < 4 or index % 2 else 1
        states.append({"name": f"{label}-{kind}-0", "model": model,
                       "population": _jitter(rng, _clear_of_overflow(base * scale), parity)})
    return {"states": states, "quota": 0.5}


def _cli(sub, config_path, out_path):
    def call(out):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([sub, "--config", config_path, "--out", out_path])
        out["code"] = code
        if code != 0:
            out["error"] = err.getvalue().strip().splitlines()[-1]
            return False
        with open(out_path, "rb") as fh:
            data = fh.read()
        out["sha256"] = hashlib.sha256(data).hexdigest()
        out["bytes"] = len(data) + os.path.getsize(out_path + ".meta.json")
        out["data"] = data.decode()
        return True

    return call


class CouncilDeficit(Workload):
    """Seeded councils run through the CLI as ``weights`` and ``delta``."""

    name = "council-deficit"

    def __init__(self, seed, nproc):
        rng = _rng(seed, 2)
        self.councils = {
            "c27": _council(rng, "c27", 3.0, 4.0, 3),
            "c36": _council(rng, "c36", 2.0, 3.5, 4),
        }
        for i in range(LADDER):
            self.councils[f"m{i:02d}"] = _nine_state_council(rng, f"m{i:02d}", i)
        self.ops = []

    def prepare(self, workdir):
        self.ops = []
        for label, cfg in self.councils.items():
            path = os.path.join(workdir, f"{label}.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            for sub in ("weights", "delta"):
                self.ops.append(Op(f"{sub} {label}", _cli(sub, path, os.path.join(workdir, f"{label}.{sub}.csv")),
                                   sub, {"council": label}))

    def check(self, batches):
        v = Verdict()
        kinds = {s["name"]: s["name"].split("-", 1)[1].rsplit("-", 1)[0]
                 for cfg in self.councils.values() for s in cfg["states"]}
        for op, rec in zip(self.ops, batches[0]):
            if "data" not in rec.out:
                continue
            lines = rec.out["data"].splitlines()
            rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
            if op.kind == "delta":
                value = float(rows[0]["value"])
                v.expect(math.isfinite(value) and value >= 0.0, f"{op.label}: deficit {value!r}")
                continue
            for row in rows:
                margin, norm = float(row["expected_margin"]), float(row["weight_normalized"])
                v.expect(math.isfinite(margin) and margin > 0.0 and 0.0 < norm <= 1.0,
                         f"{op.label}: bad weight row {row}")
                kind = kinds[row["state"]]
                model = COUNCIL_ORACLES.get(kind, kind)
                n = int(row["population"])
                truth = oracle(model, n)
                if truth is not None and truth[0] is not None:
                    v.digit(kind, "margin", n, margin, truth[0])
        _check_repeats(v, self.ops, batches, lambda out: (out.get("code"), out.get("sha256")))
        if len(batches) == 1:
            for op, rec in list(zip(self.ops, batches[0]))[-2:]:
                again = {}
                op.call(again)
                v.expect((again.get("code"), again.get("sha256")) == (rec.out.get("code"), rec.out.get("sha256")),
                         f"{op.label}: rerun output differs")
        return v


# --------------------------------------------------------------------------
# council-sim
# --------------------------------------------------------------------------

SIM_TRIALS = 20_000
SIM_SAMPLES = 50_000


def _sim_council(rng, label, spec):
    """spec: (type index, population center, parity or None for seeded)."""
    states = []
    for i, (t, center, parity) in enumerate(spec):
        parity = int(rng.integers(0, 2)) if parity is None else parity
        states.append((f"{label}-{i}", _jitter(rng, center, parity),
                       cli.parse_model(COUNCIL_TYPES[t][1])))
    return fc.CouncilSpec(states)


def _simulate(c, w, seed, stream, workers):
    def call(out):
        out["result"] = council.simulate(c, w, SIM_TRIALS, fc.RngStream(seed, stream), workers=workers)
        out["trials"] = SIM_TRIALS
        return True

    return call


def _delta_mc(c, w, seed, stream, workers):
    def call(out):
        out["result"] = weights.delta(c, w, mode="monte_carlo", trials=SIM_TRIALS,
                                      rng=fc.RngStream(seed, stream), workers=workers)
        out["trials"] = SIM_TRIALS
        return True

    return call


def _margin_mc(state, seed, stream, workers):
    def call(out):
        out["result"] = estimators.expected_margin_mc(state.model, state.population, SIM_SAMPLES,
                                                      fc.RngStream(seed, stream), workers=workers)
        return True

    return call


class CouncilSim(Workload):
    """Monte Carlo councils with explicit square-root weights."""

    name = "council-sim"

    def __init__(self, seed, nproc):
        rng = _rng(seed, 3)
        odd = 1
        small = _sim_council(rng, "s3", ((3, 1e6, odd), (0, 1e4, None), (5, 1e5, odd)))
        mixed = _sim_council(rng, "m9", [(t, 10 ** (3 + 2 * (t + 0.5) / 9), odd if t >= 4 else None)
                                         for t in range(len(COUNCIL_TYPES))])
        large = _sim_council(rng, "l27", [(t, 10 ** (2 + 4 * (s + 0.5) / 3), None)
                                          for t in range(len(COUNCIL_TYPES)) for s in range(3)])
        # the exact reference exists for s3 and m9 only: their common-belief
        # states are odd, so the tie term never reaches its overflow
        self.councils = {"s3": small, "m9": mixed, "l27": large}
        self.ops = []
        stream = 0
        for label, c in self.councils.items():
            w = [math.sqrt(s.population) for s in c.states]
            for k in sorted({1, nproc}):
                for kind, make in (("simulate", _simulate), ("delta_mc", _delta_mc)):
                    stream += 1
                    self.ops.append(Op(f"{kind} {label} workers={k}", make(c, w, seed, stream, k),
                                       kind, {"council": label, "workers": k}))
        for label in ("s3", "m9"):
            for state in self.councils[label].states:
                for k in sorted({1, nproc}):
                    stream += 1
                    self.ops.append(Op(f"margin_mc {state.name} workers={k}",
                                       _margin_mc(state, seed, stream, k), "margin_mc",
                                       {"state": state, "workers": k}))

    def check(self, batches):
        v = Verdict()
        exact_delta = {}
        exact_margin = {}
        for label in ("s3", "m9"):
            c = self.councils[label]
            w = [math.sqrt(s.population) for s in c.states]
            try:
                exact_delta[label] = weights.delta(c, w, mode="semi_exact").value
            except (ValueError, ArithmeticError) as exc:
                v.extra[f"exact delta {label}"] = repr(exc)
            for s in c.states:
                exact_margin[s.name] = estimators.expected_margin_exact(s.model, s.population).value
        compared = 0
        for op, rec in zip(self.ops, batches[0]):
            res = rec.out.get("result")
            if res is None:
                continue
            if op.kind == "simulate":
                rates = (res.disagreement_rate,) + tuple(res.per_state_yes_rates)
                v.expect(all(math.isfinite(r) and 0.0 <= r <= 1.0 for r in rates),
                         f"{op.label}: rates outside [0, 1]")
                est = res.delta
            elif op.kind == "delta_mc":
                est = res
            else:
                truth = exact_margin[op.meta["state"].name]
                v.expect(abs(res.value - truth) <= Z_BOUND * res.std_error + 1e-12 * truth,
                         f"{op.label}: {res.value!r} +- {res.std_error!r} vs exact {truth!r}")
                compared += 1
                continue
            v.expect(math.isfinite(est.value) and est.std_error > 0.0, f"{op.label}: bad estimate")
            truth = exact_delta.get(op.meta["council"])
            if truth is not None:
                v.expect(abs(est.value - truth) <= Z_BOUND * est.std_error,
                         f"{op.label}: {est.value!r} +- {est.std_error!r} vs semi-exact {truth!r}")
                compared += 1
        v.expect(compared > 0, "no Monte Carlo result had an exact reference")
        v.extra["z_checked"] = compared
        _check_repeats(v, self.ops, batches, lambda out: out.get("result"))
        i = max((i for i, op in enumerate(self.ops) if op.kind == "simulate"),
                key=lambda i: self.ops[i].meta["workers"])
        again = {}
        self.ops[i].call(again)
        v.expect(again["result"] == batches[0][i].out.get("result"),
                 f"{self.ops[i].label}: rerun at the same (seed, workers) is not bit-identical")
        return v


# --------------------------------------------------------------------------


def _check_repeats(v, ops, batches, key=None):
    """Every later batch reproduces the first one's outputs exactly."""
    key = key or (lambda out: out)
    for later in batches[1:]:
        for op, a, b in zip(ops, batches[0], later):
            v.expect(_same(a.error, b.error) and key(a.out) == key(b.out),
                     f"{op.label}: batch outputs differ")


WORKLOADS = {w.name: w for w in (ScalingSweep, CouncilDeficit, CouncilSim)}


def build(name, seed, nproc):
    return WORKLOADS[name](seed, nproc)
