"""Repeated benchmark runs with interleaved workloads, summarised against the bounds.

Run from the root of a kolsys checkout:

    python3 perfbench/baseline.py

Round r (1 to 10) runs every workload of BENCHMARK.json once for run_seconds,
with seed r, rotating the workload order from round to round, so that slow
and fast phases of the machine fall on every workload alike.  One traced run
per workload, seed 1, follows.  For each end-to-end metric the script prints
the median, the quartiles (`statistics.quantiles(values, n=4)`) and the
spread, the distance between the quartiles as a share of the median, next to
the bound in BENCHMARK.json.  Every run, the per-command samples and the
provenance are written to .perfbench/baseline.json; the copy made at the
commit that defined the benchmark is perfbench/BENCH_baseline.json.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
OUT = os.path.join(".perfbench", "baseline.json")
ROUNDS = 10


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(".perfbench", "results", f"{workload}-s{seed}-t{trace}.json"),
              encoding="utf-8") as fh:
        detail = json.load(fh)
    return line, detail


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}

    runs = {w: [] for w in workloads}
    provenance = {}
    for r in range(ROUNDS):
        seed = r + 1
        shift = r % len(workloads)
        for w in workloads[shift:] + workloads[:shift]:
            line, detail = one_run(w, seed, seconds, 0)
            runs[w].append({"seed": seed, "result": line, "samples": detail["samples"],
                            "outputs_changed": detail["outputs_changed"],
                            "elapsed_s": detail["elapsed_s"]})
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in line["metrics"].items())
            print(f"round {r + 1} {w} seed {seed}: correct={line['correct']} "
                  f"failed={line['failed']}/{line['attempted']} "
                  f"changed={detail['outputs_changed']} {detail['elapsed_s']:.1f}s {vals}",
                  flush=True)
            provenance.setdefault(w, detail["provenance"])

    summary, ok = {}, True
    for w in workloads:
        summary[w] = {}
        print(f"\n{w}: {len(runs[w])} runs")
        for name, bound in bounds.items():
            values = [run["result"]["metrics"][name]["value"] for run in runs[w]]
            med, q1, q3, s = spread(values)
            exempt = name == "setup_s"
            fine = exempt or s < bound / 3
            ok &= fine
            summary[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": s,
                                "bound": bound, "values": values}
            print(f"  {name:14s} median {med:10.5g} {units[name]:2s}  q1 {q1:10.5g}  "
                  f"q3 {q3:10.5g}  spread {s:6.3f}  bound {bound}  {'ok' if fine else 'WIDE'}"
                  f"{' (not gated)' if exempt else ''}")
        commands = {}
        for run in runs[w]:
            for name, values in run["samples"].items():
                if name not in bounds:
                    commands.setdefault(name, []).append(statistics.median(values))
        for name, values in commands.items():
            med, q1, q3, s = spread(values) if len(values) > 1 else (values[0],) * 3 + (0.0,)
            summary[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": s,
                                "values": values}
            unit = "MB" if name.endswith("_mb") else "s"
            print(f"  {name:28s} median {med:8.4g} {unit:2s}  q1 {q1:8.4g}  q3 {q3:8.4g}  "
                  f"spread {s:6.3f}")

    traced = {}
    for w in workloads:
        line, detail = one_run(w, 1, seconds, 1)
        traced[w] = {"correct": line["correct"], "metrics": line["metrics"],
                     "self_checks": detail["self_checks"],
                     "trace_missing": detail["trace_missing"]}
        print(f"traced {w}: correct={line['correct']} self-checks "
              f"{[c['ok'] for c in detail['self_checks']]} "
              f"missing targets {detail['trace_missing']}")

    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump({"run_seconds": seconds, "rounds": ROUNDS, "provenance": provenance,
                   "summary": summary, "traced": traced, "runs": runs}, fh, indent=1)
        fh.write("\n")
    print(f"written to {OUT}")
    print("\nevery gated spread below a third of its bound" if ok
          else "\nsome spreads are at or above a third of their bound")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
