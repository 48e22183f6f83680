"""Alternating A/B runs of the kolsys benchmark over two checkouts.

Run from the root of a kolsys checkout:

    python3 scripts/bench_ab.py --parent DIR --change DIR --out BENCH_16.json \
        [--workloads d1-pipeline,d1-verify,d2-field] [--pairs 10] [--seconds 30] \
        [--first-seed 1601] [--claim d1-pipeline:wall_s] [--change-note TEXT]

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds T`
(untraced) once in each checkout, the parent first on even pair indices and
the change first on odd ones; both sides of a pair share the seed.  Every
run reads its end-to-end metrics from the last stdout line of run.py and
its per-command records from .perfbench/results/ in that checkout.  The
summary is rewritten after every pair, so an interrupted series leaves the
pairs it finished.

For each workload and end-to-end metric the summary gives each side's
median and quartiles over runs, the change of the median in percent, the
pairs the change wins (reads lower; ties count for neither side) and
whether the medians differ by more than the parent's interquartile range.
The bounds come from BENCHMARK.json in the change checkout.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys

METRICS = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")
RULE = "change wins >= 9/10 pairs and |median difference| > parent interquartile range"


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def spread(values, digits=4):
    q1, med, q3 = quartiles(values)
    return {"median": round(med, digits), "q1": round(q1, digits), "q3": round(q3, digits)}


def run_once(checkout, workload, seed, seconds):
    """One untraced benchmark run: its metrics, gate counts and per-command records."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    summary = json.loads(lines[-1])
    path = os.path.join(checkout, ".perfbench", "results", f"{workload}-s{seed}-t0.json")
    with open(path, encoding="utf-8") as fh:
        result = json.load(fh)
    return {"metrics": {name: summary["metrics"][name]["value"] for name in METRICS
                        if name in summary["metrics"]},
            "failed": summary["failed"], "attempted": summary["attempted"],
            "records": result["records"], "provenance": result["provenance"]}


def summarize(runs, bounds):
    """The BENCH layout of one workload from its finished pairs."""
    pairs = [pair for pair in runs if "parent" in pair and "change" in pair]
    out = {"pairs": len(pairs), "seeds": [pair["seed"] for pair in pairs], "metrics": {}}
    if not pairs:
        return out
    for name in METRICS:
        parent = [pair["parent"]["metrics"][name] for pair in pairs]
        change = [pair["change"]["metrics"][name] for pair in pairs]
        p_q1, p_med, p_q3 = quartiles(parent)
        c_med = statistics.median(change)
        out["metrics"][name] = {
            "unit": "MB" if name == "peak_rss_mb" else "s",
            "parent": spread(parent), "change": spread(change),
            "change_pct": round(100.0 * (c_med - p_med) / p_med, 3),
            "wins": sum(c < p for p, c in zip(parent, change)),
            "median_gap_exceeds_parent_iqr": abs(c_med - p_med) > p_q3 - p_q1,
            "bound": bounds.get(name),
        }
    commands = sorted({r["command"] for pair in pairs for r in pair["parent"]["records"]})
    out["cpu_minus_wall_s"] = {}
    for command in commands:
        entry = {}
        for side in ("parent", "change"):
            per_run = [statistics.median(r["cpu_s"] - r["command_s"] for r in recs)
                       for recs in ([r for r in pair[side]["records"]
                                     if r["command"] == command and "cpu_s" in r]
                                    for pair in pairs) if recs]
            entry[side] = round(statistics.median(per_run), 6) if per_run else None
        out["cpu_minus_wall_s"][command] = entry
    out["gate"] = {side: {"failed": sum(pair[side]["failed"] for pair in pairs),
                          "attempted": sum(pair[side]["attempted"] for pair in pairs),
                          "commands_changed": sorted({r["command"] for pair in pairs
                                                      for r in pair[side]["records"]
                                                      if r.get("changed")})}
                   for side in ("parent", "change")}
    return out


def claim_met(summary, metric, n_pairs):
    entry = summary["metrics"].get(metric)
    if entry is None:
        return False
    return entry["wins"] >= math.ceil(0.9 * n_pairs) and entry["median_gap_exceeds_parent_iqr"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--out", required=True, help="summary JSON to write")
    parser.add_argument("--workloads", default="d1-verify,d2-field,d1-pipeline")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--first-seed", type=int, default=1601,
                        help="seed of the first pair; each workload takes the next block of seeds")
    parser.add_argument("--claim", default=None, help="WORKLOAD:METRIC the change claims")
    parser.add_argument("--change-note", default="", help="one line naming the change")
    args = parser.parse_args(argv)

    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(checkouts["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    workloads = args.workloads.split(",")
    report = {
        "change": args.change_note,
        "harness": (f"perfbench/run.py --workload W --seed S --seconds {args.seconds:g}, "
                    "untraced; parent and change alternate, parent first on even pair "
                    "index; each tree runs from its own checkout (scripts/bench_ab.py)"),
        "claim": None,
        "provenance": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                       "numpy": importlib.metadata.version("numpy"),
                       "scipy": importlib.metadata.version("scipy")},
        "workloads": {},
        "notes": {
            "metrics": "medians and quartiles are over per-run workload values; wins count "
                       "pairs where the change reads lower; change_pct is the change of "
                       "the median",
            "cpu_minus_wall_s": "per command, median over runs of the per-run median of "
                                "cpu_s - command_s",
            "gate": "failed and attempted summed over all runs of a side; commands_changed "
                    "lists the commands whose output digest differs from "
                    "perfbench/reference.json on that side",
        },
    }
    if args.claim:
        workload, metric = args.claim.split(":")
        report["claim"] = {"workload": workload, "metric": metric, "rule": RULE, "met": None}

    def write():
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")

    for w_index, workload in enumerate(workloads):
        runs = []
        for i in range(args.pairs):
            seed = args.first_seed + 100 * w_index + i
            pair = {"seed": seed}
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                pair[side] = run_once(checkouts[side], workload, seed, args.seconds)
                print(f"{workload} seed {seed} {side}: {pair[side]['metrics']} "
                      f"failed {pair[side]['failed']}/{pair[side]['attempted']}",
                      file=sys.stderr, flush=True)
            prov = pair["change"]["provenance"]
            report["provenance"].update(cpu_model=prov["cpu_model"],
                                        harness_blas_threads=prov["blas_threads"])
            runs.append(pair)
            report["workloads"][workload] = summarize(runs, bounds)
            if report["claim"] and report["claim"]["workload"] == workload:
                report["claim"]["met"] = claim_met(report["workloads"][workload],
                                                   report["claim"]["metric"], len(runs))
            write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
