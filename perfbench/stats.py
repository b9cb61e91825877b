"""Steadiness, comparison and traced-run report for the benchmark.

    python3 perfbench/stats.py steady --workload W [--first-seed 1] [--save FILE]
    python3 perfbench/stats.py compare PARENT.json CHANGE.json
    python3 perfbench/stats.py report

Every run lasts ``run_seconds`` from BENCHMARK.json. ``steady`` runs the
benchmark once for each of ten consecutive seeds and prints each end-to-end
metric's median and quartiles, with the spread (interquartile range over
median) against the metric's bound; ``--save`` adds the values to a result
set. ``compare`` applies the rule for claiming a change: a gain needs at
least 9 of 10 pairs won and medians further apart than the parent's
interquartile range; a regression is a median worse than the parent's by
more than the bound; a metric whose spread exceeds its bound is unresolved.
``report`` makes one traced run per workload with seed 1 and lists every
per-layer metric side by side.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

RUNS = 10
REPORT_SEED = 1


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(workload, seed, trace):
    bench = spec()
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} failed its correctness gate:\n{proc.stdout}")
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def steady(args):
    bench = spec()
    values = {}
    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    for seed in seeds:
        result = run_once(args.workload, seed, 0)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        print(f"seed {seed}: " + "  ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
    print(f"{'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = quartiles(vals)
        s = spread(vals)
        note = "ok" if s < metric["bound"] / 3 else "WIDE" if s > metric["bound"] else "above bound/3"
        print(f"{metric['name']:14s} {med:12.6g} {q1:12.6g} {q3:12.6g} {s:8.4f} {metric['bound']:6.2f}  {note}")
    if args.save:
        data = {"environment": environment(), "workloads": {}}
        if os.path.exists(args.save):
            with open(args.save) as fh:
                data = json.load(fh)
        data["workloads"][args.workload] = {"seeds": seeds, "metrics": values}
        with open(args.save, "w") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")


def environment():
    import platform

    import numpy
    import scipy

    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def compare(args):
    with open(args.parent) as fh:
        parent = json.load(fh)["workloads"]
    with open(args.change) as fh:
        change = json.load(fh)["workloads"]
    for workload in sorted(set(parent) & set(change)):
        print(workload)
        for metric in spec()["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            a, b = parent[workload]["metrics"][name], change[workload]["metrics"][name]
            pairs = list(zip(a, b))
            wins = sum(sign * (y - x) < 0 for x, y in pairs)
            q1, med_a, q3 = quartiles(a)
            med_b = statistics.median(b)
            worse = sign * (med_b - med_a) / abs(med_a)
            if spread(a) > bound and not all(sign * (y - x) < 0 for x in a for y in b):
                verdict = "unresolved (parent spread wider than bound)"
            elif wins >= 0.9 * len(pairs) and abs(med_b - med_a) > q3 - q1:
                verdict = "gain"
            elif worse > bound:
                verdict = "REGRESSION"
            else:
                verdict = "no regression"
            print(f"  {name:14s} parent {med_a:12.6g} change {med_b:12.6g} "
                  f"won {wins}/{len(pairs)}  worse by {worse:+.4f} (bound {bound})  {verdict}")


def report(args):
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    results = {w: run_once(w, REPORT_SEED, 1)["metrics"] for w in names}
    print(f"{'metric':32s} {'unit':9s}" + "".join(f"{w:>18s}" for w in names))
    for metric in bench["per_layer"]:
        row = [results[w][metric["name"]]["value"] for w in names]
        print(f"{metric['name']:32s} {metric['unit']:9s}" + "".join(f"{v:18.6g}" for v in row))
    for w in names:
        r = results[w]
        selfs = sum(v["value"] for k, v in r.items() if k.endswith(".self_s"))
        print(f"{w}: self times sum to {selfs:.4f} s of traced wall {r['trace.wall_s']['value']:.4f} s "
              f"({selfs / r['trace.wall_s']['value']:.1%})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("steady")
    p.add_argument("--workload", required=True)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--save", default=None)
    p = sub.add_parser("compare")
    p.add_argument("parent")
    p.add_argument("change")
    sub.add_parser("report")
    args = parser.parse_args(argv)
    {"steady": steady, "compare": compare, "report": report}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
