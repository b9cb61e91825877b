"""Per-layer tracing from outside the library.

The tracer wraps faircouncil's public functions and rebinds every module
attribute that refers to the original, so calls made through
``from .measures import magnetization_pmf`` style imports are timed as
well. Spans (name, start, end, parent, operation id) stay in memory and are
written out when the run ends; a layer's self time is its spans' duration
minus the time covered by their child spans. Nothing under ``src/`` is
changed: ``uninstall`` restores the original attributes.
"""

import collections
import functools
import json
import sys
import time

#: (module, attribute, span name): the layer boundaries that get a span.
SPANS = (
    ("estimators", "binom_abs_moments", "estimators.kernel"),
    ("estimators", "expected_margin_exact", "estimators.exact"),
    ("estimators", "expected_margin_mc", "estimators.mc"),
    ("measures", "belief_expectation", "measures.quad"),
    ("measures", "magnetization_pmf", "measures.mf_law"),
    ("measures", "_totals_with_generator", "measures.sampler"),
    ("council", "simulate", "council.simulate"),
    ("weights", "state_margin", "weights.moments"),
    ("weights", "state_second_moment", "weights.moments"),
    ("weights", "state_tie_probability", "weights.moments"),
    ("weights", "delta", "weights.delta"),
    ("weights", "optimal_weights", "weights.optimal"),
    ("commonbelief", "distribution_distance", "commonbelief.law"),
    ("commonbelief", "vote_share_law", "commonbelief.law"),
    ("commonbelief", "second_moment", "commonbelief.moments"),
    ("commonbelief", "mu_bar", "commonbelief.moments"),
    ("meanfield", "scaling_fit", "meanfield.fit"),
    ("meanfield", "solve_cj", "meanfield.solve_cj"),
    ("cli", "main", "cli.main"),
)

ROOT_SPAN = "bench.op"

MODULES = ("core", "measures", "estimators", "commonbelief", "meanfield",
           "weights", "council", "cli")


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counts = collections.Counter()
        self.kernel_args = []  # (n, p values) per kernel call; terms are computed at the end
        self.unbound = set()
        self._stack = []
        self._seen = collections.defaultdict(set)
        self._undo = []
        self._op = -1

    # -- spans -------------------------------------------------------------

    def _open(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1, self._op])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def run_op(self, op_id, call):
        """Run one benchmark operation under a root span."""
        self._op = op_id
        self._seen.clear()
        self._open(ROOT_SPAN)
        try:
            return call()
        finally:
            self._close()

    def _repeat(self, kind, key):
        self.counts[kind + ".keys"] += 1
        if key in self._seen[kind]:
            self.counts[kind + ".repeats"] += 1
        else:
            self._seen[kind].add(key)

    # -- hooks run before a wrapped call, outside its span -----------------

    def _before(self, attr, args, kwargs):
        c = self.counts
        if attr == "binom_abs_moments":
            import numpy as np

            ps = np.atleast_1d(np.asarray(args[1] if len(args) > 1 else kwargs["ps"], dtype=float))
            self.kernel_args.append((args[0], ps.ravel().copy()))
        elif attr == "magnetization_pmf":
            self._repeat("mf_law", (float(args[0]), int(args[1])))
        elif attr == "_totals_with_generator":
            size = args[2] if len(args) > 2 else kwargs["size"]
            c["sampler.draws"] += int(size)
        elif attr == "simulate":
            c["simulate.trials"] += int(args[2] if len(args) > 2 else kwargs["trials"])
        elif attr in ("state_margin", "state_second_moment", "state_tie_probability"):
            state = args[0]
            self._repeat("moments", (attr, state.model, state.population))

    def _wrap(self, fn, attr, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._before(attr, args, kwargs)
            tracer.counts[name + ".calls"] += 1
            tracer._open(name)
            try:
                if attr == "solve_cj":
                    full = kwargs.pop("full_output", args[1] if len(args) > 1 else False)
                    c, residual, iterations = fn(args[0], full_output=True, **kwargs)
                    tracer.counts["solve_cj.iterations"] += iterations
                    return (c, residual, iterations) if full else c
                result = fn(*args, **kwargs)
            except Exception:
                if attr == "state_tie_probability":
                    tracer.counts["tie.failed"] += 1
                raise
            finally:
                tracer._close()
            if attr == "main" and result:
                tracer.counts["cli.exit_nonzero"] += 1
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the layer boundaries and rebind every alias of each one."""
        import faircouncil

        mods = [faircouncil] + [sys.modules["faircouncil." + m] for m in MODULES]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in mods}
        for mod_name, attr, name in SPANS:
            original = getattr(by_name[mod_name], attr, None)
            if original is None:
                self.unbound.add(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(original, attr, name)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)
        self._count_calls(by_name["measures"], "_leggauss", self._count_nodes)
        self._count_calls(by_name["core"].RngStream, "worker",
                          lambda *a: self.counts.update(("rng.workers",)))

    def _count_calls(self, owner, attr, hook):
        original = getattr(owner, attr, None)
        if original is None:
            self.unbound.add(f"{getattr(owner, '__name__', owner)}.{attr}")
            return

        @functools.wraps(original)
        def counted(*args, **kwargs):
            hook(*args)
            return original(*args, **kwargs)

        self._undo.append((owner, attr, original))
        setattr(owner, attr, counted)

    def _count_nodes(self, n):
        from faircouncil import measures

        self.counts["quad.nodes"] += int(n)
        if n >= measures.QUAD_MAX_NODES:
            self.counts["quad.cap_hits"] += 1

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = collections.defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            totals[name] += (end - start) - covered
        return totals

    def kernel_terms(self):
        """Binomial window terms summed by the kernel, computed from its
        window bounds (the kernel itself does not report them)."""
        from faircouncil import estimators

        window = getattr(estimators, "_binom_window", None)
        if window is None:
            return 0
        return sum(hi - lo + 1 for n, ps in self.kernel_args for lo, hi in (window(n, p) for p in ps))

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def layer_metrics(tracer, batches):
    """Per-layer metrics, averaged per traced batch."""
    selfs = tracer.self_times()
    c = tracer.counts

    def per(value):
        return value / batches

    def frac(kind):
        keys = c[kind + ".keys"]
        return c[kind + ".repeats"] / keys if keys else 0.0

    return {
        "estimators.kernel.calls": per(c["estimators.kernel.calls"]),
        "estimators.kernel.self_s": per(selfs["estimators.kernel"]),
        "estimators.kernel.p_evals": per(sum(ps.size for _, ps in tracer.kernel_args)),
        "estimators.kernel.terms": per(tracer.kernel_terms()),
        "estimators.exact.calls": per(c["estimators.exact.calls"]),
        "estimators.exact.self_s": per(selfs["estimators.exact"]),
        "estimators.mc.self_s": per(selfs["estimators.mc"]),
        "measures.quad.calls": per(c["measures.quad.calls"]),
        "measures.quad.self_s": per(selfs["measures.quad"]),
        "measures.quad.nodes": per(c["quad.nodes"]),
        "measures.quad.cap_hits": per(c["quad.cap_hits"]),
        "measures.mf_law.calls": per(c["measures.mf_law.calls"]),
        "measures.mf_law.self_s": per(selfs["measures.mf_law"]),
        "measures.mf_law.repeat_frac": frac("mf_law"),
        "measures.sampler.calls": per(c["measures.sampler.calls"]),
        "measures.sampler.self_s": per(selfs["measures.sampler"]),
        "measures.sampler.draws": per(c["sampler.draws"]),
        "council.simulate.self_s": per(selfs["council.simulate"]),
        "council.simulate.trials": per(c["simulate.trials"]),
        "core.rng.workers": per(c["rng.workers"]),
        "weights.moments.calls": per(c["weights.moments.calls"]),
        "weights.moments.self_s": per(selfs["weights.moments"]),
        "weights.moments.repeat_frac": frac("moments"),
        "weights.tie.failed": per(c["tie.failed"]),
        "weights.delta.self_s": per(selfs["weights.delta"]),
        "weights.optimal.self_s": per(selfs["weights.optimal"]),
        "commonbelief.law.self_s": per(selfs["commonbelief.law"]),
        "commonbelief.moments.self_s": per(selfs["commonbelief.moments"]),
        "meanfield.fit.self_s": per(selfs["meanfield.fit"]),
        "meanfield.solve_cj.iterations": per(c["solve_cj.iterations"]),
        "cli.main.self_s": per(selfs["cli.main"]),
        "cli.main.exit_nonzero": per(c["cli.exit_nonzero"]),
        "bench.self_s": per(selfs[ROOT_SPAN]),
    }
