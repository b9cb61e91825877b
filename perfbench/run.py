"""faircouncil benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The library is imported from ``src/`` of
that checkout. The workload's fixed batch of operations is repeated for
``--seconds`` (at least once). A human-readable report goes to
standard output, and its last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

Workloads run as a closed loop: one caller, each operation starts when the
previous one has finished.
"""

import argparse
import importlib.util
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH, "results")

SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def declared(kind):
    """Names (and units, for metrics) of one list in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m.get("unit") for m in json.load(fh)[kind]}


@dataclass
class Record:
    latency: float
    ok: bool
    out: dict
    error: object = None


def nproc():
    return len(os.sched_getaffinity(0))


def cap_threads():
    """One BLAS and OpenMP thread, set before numpy loads: the library runs
    on one thread, and idle BLAS threads would only contend for the host's
    few cores."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def run_batch(wl, tracer=None):
    """Run every operation once, in order; one record each."""
    records = []
    for i, op in enumerate(wl.ops):
        out = {}
        t0 = time.perf_counter()
        try:
            ok = bool(tracer.run_op(i, lambda: op.call(out)) if tracer else op.call(out))
            error = None
        except Exception as exc:  # a failed operation is counted, and the run goes on
            ok, error = False, exc
        records.append(Record(time.perf_counter() - t0, ok, out, error))
    return records


def op_latencies(batches):
    """Each operation's latency: the median of its runs, one per batch. The
    batches are spread over the whole run, so a slow spell of the host that
    covers part of the run moves the median less than any single batch."""
    return [statistics.median(r.latency for r in runs) for runs in zip(*batches)]


def measure_setup(name, seed):
    """Median wall time of fresh interpreters that import faircouncil and
    build the workload's inputs."""
    code = (f"import sys; sys.path[:0] = [{SRC!r}, {BENCH!r}]; import workloads; "
            f"workloads.build({name!r}, {seed}, {nproc()})")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def tail(latencies):
    """The slowest operation with ten slower than it, and the highest whole
    percentile it stands for."""
    ranked = sorted(latencies)
    k = max(0, len(ranked) - 11)
    return math.floor(100.0 * (k + 1) / len(ranked)), ranked[k]


def summarize_failures(runs):
    reasons = {}
    for rec in runs:
        if not rec.ok:
            why = repr(rec.error) if rec.error is not None else rec.out.get("error", "failed")
            reasons[why] = reasons.get(why, 0) + 1
    return reasons


def exact_digits(verdict):
    if not verdict.digits:
        return 16.0, "no exact output has an oracle here"
    (model, quantity), (d, n) = min(verdict.digits.items(), key=lambda kv: kv[1][0])
    return d, f"worst: {model} {quantity} at N={n}"


def mc_rate(runs):
    """Council trials per second of the operations that simulate them."""
    timed = [(r.out["trials"], r.latency) for r in runs if "trials" in r.out]
    seconds = sum(t for _, t in timed)
    return sum(n for n, _ in timed) / seconds if seconds else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(declared("workloads")))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "faircouncil", "__init__.py")):
        print(f"error: no faircouncil package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if importlib.util.find_spec("mpmath") is None:
        print("error: the correctness oracles need mpmath, which is not installed", file=sys.stderr)
        return 2
    cap_threads()
    sys.path.insert(0, SRC)
    import faircouncil
    import workloads

    if not os.path.abspath(faircouncil.__file__).startswith(SRC + os.sep):
        print(f"error: faircouncil was imported from {faircouncil.__file__}, not {SRC}", file=sys.stderr)
        return 2

    os.makedirs(RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=RESULTS)
    try:
        return run(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workloads, workdir):
    wl = workloads.build(args.workload, args.seed, nproc())
    wl.prepare(workdir)
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)

    untraced, traced = [], []
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    # batches run while the next one is expected to end within --seconds
    start = last = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run_batch(wl, tracer))
            finally:
                tracer.uninstall()
        untraced.append(run_batch(wl))
        now = time.perf_counter()
        if now + (now - last) - start > args.seconds:
            break
        last = now
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    batches = traced or untraced
    runs = [r for records in batches for r in records]
    verdict = wl.check(batches)
    latencies = op_latencies(untraced)
    attempted = len(runs)
    failed = sum(not r.ok for r in runs)
    digits, digits_note = exact_digits(verdict)
    pct, tail_s = tail(latencies)
    # one batch at the run's median speed
    wall_s = math.fsum(latencies)
    derived = {
        # the untraced program's rate, also in a traced run
        "mc_trials_per_s": mc_rate([r for records in untraced for r in records]),
        "ops_failed_frac": failed / attempted,
        "exact_digits": digits,
    }

    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_tail_ms": 1e3 * tail_s,
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        import spans

        metrics = spans.layer_metrics(tracer, len(traced))
        traced_wall = math.fsum(op_latencies(traced))
        metrics["cli.bytes_out"] = sum(r.out.get("bytes", 0) for r in batches[0])
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_frac"] = traced_wall / wall_s - 1.0
        metrics.update(derived)
        span_path = os.path.join(RESULTS, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(span_path)

    units = declared("per_layer" if args.trace else "end_to_end")
    report = {
        "correct": not verdict.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    print_report(args, wl, len(batches), latencies, pct, derived, digits_note, verdict,
                 report, summarize_failures(runs), tracer)
    print(json.dumps(report))
    return 0


def print_report(args, wl, nbatches, latencies, pct, derived, digits_note, verdict,
                 report, failures, tracer):
    m = report["metrics"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  nproc {nproc()}  "
          f"batches {nbatches}  operations {len(wl.ops)}")
    for name, entry in m.items():
        note = ""
        if name == "op_tail_ms":
            note = f"p{pct} of {len(latencies)} operations, each the median of its runs"
        elif name == "wall_s":
            note = "sum of the operations' latencies, untraced"
        print(f"  {name:32s} {entry['value']:14.6g} {entry['unit']:9s} {note}")
    if tracer is None:
        rate = derived["mc_trials_per_s"]
        print(f"  {'mc_trials_per_s':32s} {rate:14.6g} {'trials/s':9s} "
              f"{'' if rate else 'n/a: no Monte Carlo work in this workload'}")
        print(f"  {'ops_failed_frac':32s} {derived['ops_failed_frac']:14.6g} {'ratio':9s} "
              f"{report['failed']} of {report['attempted']}")
        print(f"  {'exact_digits':32s} {derived['exact_digits']:14.6g} {'digits':9s} {digits_note}")
    else:
        if tracer.unbound:
            print("  not traced (attribute missing): " + ", ".join(sorted(tracer.unbound)))
        print("  estimators.kernel.terms is computed from the kernel's window bounds")
    for why, count in sorted(failures.items()):
        print(f"  failed x{count}: {why}")
    for (model, quantity), (d, n) in sorted(verdict.digits.items()):
        print(f"  digits {model:16s} {quantity:7s} {d:6.2f}  (worst at N={n})")
    for key, value in verdict.extra.items():
        print(f"  {key}: {value}")
    state = "pass" if not verdict.failures else "FAIL"
    print(f"correctness gate: {state} ({verdict.checks} checks)")
    for failure in verdict.failures[:20]:
        print(f"  FAIL {failure}")


if __name__ == "__main__":
    sys.exit(main())
