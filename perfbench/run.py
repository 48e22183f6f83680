"""kolsys benchmark: wall time, set-up and memory of the CLI, and a per-layer trace.

Run from the root of a kolsys checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --capture-reference

--trace 0 repeats the workload's commands, each in a fresh child process
(perfbench/child.py, one process per command as a user runs them), until S
seconds have passed, and reports the end-to-end metrics from the median of
each command.  --trace 1 runs the workload twice in this process, untraced and
then traced (perfbench/tracer.py), and reports the per-layer metrics.

Every command's exit code and report statuses are checked against
perfbench/reference.json: an exception, a timeout or a mismatch counts as a
failed operation.  The CSV outputs (measure, simulate, sweep) carry a numeric
fingerprint per column; a column that moves by more than round-off is a
failed operation too.  Output digests that differ from the reference are
counted separately as `outputs_changed`, since round-off changes are allowed.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Full results (per pass and per command, provenance)
and the trace spans are written under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import itertools
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
INPUTS = os.path.join(HERE, "inputs")
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")

# every run must end within this many seconds
RUN_LIMIT_S = 170.0

# name, CLI arguments, benchmark input under perfbench/inputs
WORKLOADS = {
    "d1-verify": [
        ("verify_core", ["verify", "--suite", "core"], "exchange2"),
        ("verify_asymptotic", ["verify", "--suite", "asymptotic"], "exchange2"),
        ("verify_counterexample", ["verify", "--suite", "counterexample"], "exchange2"),
        ("verify_rates", ["verify", "--suite", "rates"], "rates"),
    ],
    "d2-field": [
        ("check", ["check"], "d2-field"),
        ("measure", ["measure"], "d2-field"),
        ("simulate", ["simulate"], "d2-field"),
    ],
    "d1-pipeline": [
        ("measure", ["measure", "--oracle"], "exchange2"),
        ("simulate", ["simulate"], "exchange2"),
        ("simulate_nested", ["simulate", "--nested"], "exchange2"),
        ("sweep", ["sweep"], "sweep"),
    ],
}
COMMANDS = ("verify_core", "verify_asymptotic", "verify_rates", "verify_counterexample",
            "check", "measure", "simulate", "simulate_nested", "sweep")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# report lines whose content depends on the sampled points, hence on the seed
SEED_DEPENDENT_PREFIXES = ("spectral_structure,",)

# commands whose output file is a CSV table with a header row
CSV_KINDS = ("measure", "simulate", "sweep")

# A CSV column may move by round-off (ROADMAP allows it if explained): sums up
# to this share of the column's absolute sum, its maximum by this share of
# itself.  The time-step solve is held to a 1e-10 residual, so a different
# solver moves a trajectory by far less; a wrong one moves it by far more.
FINGERPRINT_RTOL = 1e-8

# counts the traced run must reproduce on the reference source (from profiles
# of the reference commit, not from this tracer)
EXPECTED_TRACE_COUNTS = {
    ("d1-verify", "verify_core"): {"semigroup.evolve_calls": 9, "semigroup.steps": 55000},
    ("d1-verify", "verify_asymptotic"): {"semigroup.steps": 80000},
    ("d2-field", "simulate"): {"semigroup.bicgstab_calls": 50},
    ("d1-pipeline", "sweep"): {"cli.sweep_rows": 8},
}

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class SetupError(Exception):
    pass


# -- inputs and provenance --------------------------------------------------

def nproc():
    return len(os.sched_getaffinity(0))


def cap_blas_threads(limit):
    """Set each BLAS thread variable to at most `limit`; returns the values."""
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= limit):
            os.environ[var] = str(limit)
    return {var: os.environ[var] for var in BLAS_THREAD_VARS}


def make_config(name, seed, workdir):
    """Benchmark input `name` with the run seed written into [run] seed."""
    with open(os.path.join(INPUTS, f"{name}.cfg"), encoding="utf-8") as fh:
        text = fh.read()
    if re.search(r"(?m)^\s*\[run\]", text):
        raise SetupError(f"input {name}.cfg must not carry its own [run] section")
    text = re.sub(r"(?m)^workers\s*=\s*(\d+)\s*$",
                  lambda m: f"workers = {min(int(m.group(1)), nproc())}", text)
    text += f"\n[run]\nseed = {seed}\n"
    path = os.path.join(workdir, f"{name}.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def source_digest():
    """One hash over the kolsys sources, in path order."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "kolsys")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fname in sorted(filenames):
            if fname.endswith(".py"):
                path = os.path.join(dirpath, fname)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def provenance(blas_env, configs):
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": blas_env,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "configs_sha256": {os.path.basename(p): sha256_file(p) for p in configs.values()},
    }


# -- correctness gate -------------------------------------------------------

def statuses(kind, text, stdout):
    """The pass/fail verdicts a command reports, in output order."""
    lines = text.splitlines()
    if kind == "verify":
        return [",".join(line.split(", ")[:2]) for line in lines[1:] if line]
    if kind == "check":
        names = [line.split(" = ", 1)[1] for line in lines if line.startswith("check = ")]
        verdicts = [line.split(" = ", 1)[1] for line in lines if line.startswith("status = ")]
        return [f"{n},{v}" for n, v in zip(names, verdicts)]
    if kind == "sweep":
        header = lines[0].split(",")
        keep = [header.index(c) for c in ("gamma", "beta", "b0", "p", "lyapunov", "growth",
                                          "invariance", "lp_bound")]
        return [",".join(row.split(",")[i] for i in keep) for row in lines[1:]]
    return [line for line in stdout.splitlines() if line.startswith("converged")]


def fingerprint(text):
    """Rows of a CSV output, and per numeric column its sum, an order-sensitive
    weighted sum, its absolute sum and its largest absolute value."""
    import numpy as np

    lines = text.splitlines()
    header = lines[0].split(",")
    cells = [line.split(",") for line in lines[1:]]
    if any(len(row) != len(header) for row in cells):
        raise ValueError("ragged CSV rows")
    weights = (np.arange(len(cells)) % 10 + 1) / 10.0
    columns = {}
    for j, name in enumerate(header):
        try:
            col = np.array([row[j] for row in cells], dtype=float)
        except ValueError:   # a text column (sweep verdicts), gated by its statuses
            continue
        mags = np.abs(col)
        columns[name] = [float(col.sum()), float(weights @ col), float(mags.sum()),
                         float(mags.max(initial=0.0))]
    return {"rows": len(cells), "columns": columns}


def fingerprint_mismatch(text, ref):
    """Why a CSV output is not the reference's up to round-off, or None."""
    try:
        got = fingerprint(text)
    except (ValueError, IndexError) as exc:
        return f"unreadable CSV output: {exc}"
    if got["rows"] != ref["rows"] or got["columns"].keys() != ref["columns"].keys():
        return (f"CSV shape {got['rows']} rows {sorted(got['columns'])}, reference "
                f"{ref['rows']} rows {sorted(ref['columns'])}")
    for name, (total, weighted, mass, peak) in ref["columns"].items():
        g_total, g_weighted, g_mass, g_peak = got["columns"][name]
        tol = FINGERPRINT_RTOL * mass
        if not (abs(g_total - total) <= tol and abs(g_weighted - weighted) <= tol
                and abs(g_mass - mass) <= tol and abs(g_peak - peak) <= FINGERPRINT_RTOL * peak):
            return (f"column {name} moved beyond round-off: sum {g_total!r} (reference "
                    f"{total!r}), abs-sum {g_mass!r} ({mass!r}), max-abs {g_peak!r} ({peak!r})")
    return None


def output_digest(text, stdout):
    kept = [line for line in text.splitlines(keepends=True)
            if not line.startswith(SEED_DEPENDENT_PREFIXES)]
    return hashlib.sha256(("".join(kept) + "\0" + stdout).encode("utf-8")).hexdigest()


def read_text(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def judge(record, argv, reference):
    """Fill in the gate fields of one command record."""
    kind = argv[0]
    text = read_text(record.pop("out_path"))
    stdout = record.pop("stdout", "")
    record["statuses"] = statuses(kind, text, stdout) if text else []
    record["digest"] = output_digest(text, stdout)
    if reference is None:   # capturing the reference
        record["ok"] = record.get("rc") is not None
        record["changed"] = False
        if kind in CSV_KINDS and text:
            record["fingerprint"] = fingerprint(text)
        return record
    ref = reference.get(record["command"])
    if ref is None:
        record.update(ok=False, changed=False, error="no reference for this command")
        return record
    record["ok"] = (record.get("rc") == ref["rc"] and record["statuses"] == ref["statuses"])
    record["changed"] = record["digest"] != ref["digest"]
    if not record["ok"] and "error" not in record:
        record["error"] = (f"exit {record.get('rc')} (reference {ref['rc']}); statuses "
                           f"{'match' if record['statuses'] == ref['statuses'] else 'differ'}")
    if record["ok"] and record["changed"] and "fingerprint" in ref:
        problem = fingerprint_mismatch(text, ref["fingerprint"])
        if problem is not None:
            record.update(ok=False, error=problem)
    return record


def load_reference(workload):
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read {REFERENCE}: {exc}") from None
    if workload not in ref["workloads"]:
        raise SetupError(f"no reference for workload {workload}")
    return ref


# -- untraced runs: one child process per command ---------------------------

def spawn_child(argv, workdir, tag, env, timeout):
    result_path = os.path.join(workdir, f"{tag}.result.json")
    with contextlib.suppress(FileNotFoundError):
        os.unlink(result_path)
    killed = threading.Event()
    with open(os.path.join(workdir, f"{tag}.stdout"), "w+", encoding="utf-8") as out, \
            open(os.path.join(workdir, f"{tag}.stderr"), "w+", encoding="utf-8") as err:
        spawned = clock()
        proc = subprocess.Popen([sys.executable, CHILD, result_path, repr(spawned), *argv],
                                cwd=workdir, env=env, stdout=out, stderr=err)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(max(timeout, 0.1), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        record = {"exit": proc.returncode, "stdout": out.read(),
                  "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6}
        stderr = err.read()
    if killed.is_set():
        record["error"] = f"timed out after {timeout:.0f} s"
        return record
    try:
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        record["error"] = "child wrote no result: " + stderr.strip()[-500:]
        return record
    if not os.path.abspath(result["module"]).startswith(SRC + os.sep):
        raise SetupError(f"kolsys was imported from {result['module']}, not from {SRC}")
    record.update(rc=result["rc"], setup_s=result["setup_s"],
                  command_s=result["command_s"], cpu_s=result["cpu_s"])
    if proc.returncode != result["rc"]:
        record["error"] = f"process exit {proc.returncode} but command returned {result['rc']}"
    return record


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONSTARTUP", None)
    return env


def command_argv(args, config, out_path):
    return [*args, "--config", config, "--out", out_path]


def run_untraced(workload, seconds, configs, workdir, reference, deadline):
    """Run the workload's commands round-robin, each in a fresh process, until
    `seconds` have passed (every command at least once) or `deadline` nears."""
    env = child_env()
    # warm-up: compile byte code and fill the file cache once, untimed
    warm = spawn_child([], workdir, "warmup", env, deadline - clock())
    if "error" in warm:
        raise SetupError("kolsys does not import: " + warm["error"])
    commands = WORKLOADS[workload]
    last_cost = {}
    records = []
    measure_start = clock()
    for i in itertools.count():
        name, args, cfg = commands[i % len(commands)]
        if i >= len(commands) and (clock() - measure_start >= seconds
                                   or clock() + 2 * last_cost[name] > deadline):
            break
        out_path = os.path.join(workdir, f"{name}.out")
        argv = command_argv(args, configs[cfg], out_path)
        spawned = clock()
        record = spawn_child(argv, workdir, name, env, deadline - clock())
        last_cost[name] = clock() - spawned
        record.update(command=name, out_path=out_path)
        records.append(judge(record, argv, reference))
        if "timed out" in record.get("error", ""):
            break
    return records


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def end_to_end(records, workload):
    """Workload metrics from per-command medians, and the samples behind them.

    wall_s and cpu_s add up the median of each command; peak_rss_mb is the
    largest per-command median; setup_s is the median over every child.
    """
    samples = {"setup_s": [r["setup_s"] for r in records if "setup_s" in r]}
    for name, _, _ in WORKLOADS[workload]:
        done = [r for r in records if r["command"] == name and "command_s" in r]
        if not done:
            return {}, samples
        samples[f"{name}_s"] = [r["command_s"] for r in done]
        samples[f"{name}_cpu_s"] = [r["cpu_s"] for r in done]
        samples[f"{name}_rss_mb"] = [r["peak_rss_mb"] for r in done]
    names = [name for name, _, _ in WORKLOADS[workload]]
    metrics = {
        "setup_s": statistics.median(samples["setup_s"]),
        "wall_s": sum(statistics.median(samples[f"{n}_s"]) for n in names),
        "cpu_s": sum(statistics.median(samples[f"{n}_cpu_s"]) for n in names),
        "peak_rss_mb": max(statistics.median(samples[f"{n}_rss_mb"]) for n in names),
    }
    return metrics, samples


# -- traced runs: in this process -------------------------------------------

def run_inprocess(cli, name, argv, out_path, tracer=None):
    buf = io.StringIO()
    record = {"command": name, "out_path": out_path}
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                record["rc"] = cli.run(argv)
            else:
                record["rc"] = tracer.command(name, cli.run, argv)
    except Exception as exc:  # a crash is a failed operation, not a harness error
        record["error"] = f"{type(exc).__name__}: {exc}"
    record["command_s"] = time.perf_counter() - start
    record["stdout"] = buf.getvalue()
    return record


def run_traced(workload, configs, workdir, reference, ref_source, seed):
    sys.path.insert(0, SRC)
    import kolsys.cli as cli
    import tracer as tracing

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SetupError(f"kolsys was imported from {cli.__file__}, not from {SRC}")
    on_reference_source = source_digest() == ref_source

    def one_pass(tracer, suffix):
        records, snaps, raw = [], [], []
        for name, args, cfg in WORKLOADS[workload]:
            out_path = os.path.join(workdir, f"{name}.{suffix}.out")
            argv = command_argv(args, configs[cfg], out_path)
            record = run_inprocess(cli, name, argv, out_path, tracer)
            raw.append(read_text(out_path) + "\0" + record["stdout"])
            if tracer is not None:
                snaps.append(tracer.collect())
            records.append(judge(record, argv, reference))
        return records, snaps, raw

    plain, _, plain_raw = one_pass(None, "plain")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        traced, snaps, traced_raw = one_pass(tracer, "traced")
    finally:
        broken = tracer.uninstall()

    checks = []
    for record, snap, a, b in zip(traced, snaps, plain_raw, traced_raw):
        if a != b:
            record["ok"] = False
            record["error"] = "traced output differs from the untraced output"
        if broken:
            record["ok"] = False
            record["error"] = f"bindings not restored: {broken}"
        expected = EXPECTED_TRACE_COUNTS.get((workload, record["command"]), {})
        got = tracing.layer_metrics(snap)
        for metric, want in expected.items():
            ok = got[metric] == want
            checks.append({"command": record["command"], "metric": metric, "expected": want,
                           "traced": got[metric], "ok": ok,
                           "enforced": on_reference_source})
            if not ok and on_reference_source:
                record["ok"] = False
                record["error"] = f"trace self-check: {metric} = {got[metric]}, expected {want}"
    if tracer.skipped:
        # the metrics behind a missing target would read 0, which looks like a gain
        traced[-1]["ok"] = False
        traced[-1]["error"] = f"trace targets missing: {tracer.skipped}"

    merged = tracing.merge(snaps)
    metrics = tracing.layer_metrics(merged)
    metrics["trace.overhead_s"] = (sum(r["command_s"] for r in traced)
                                   - sum(r["command_s"] for r in plain))
    for name in COMMANDS:
        metrics[f"command.{name}_s"] = sum((r["command_s"] for r in plain
                                            if r["command"] == name), 0.0)
    units = dict(tracing.LAYER_UNITS, **{"trace.overhead_s": "s"},
                 **{f"command.{name}_s": "s" for name in COMMANDS})

    spans_path = os.path.join(OUT, f"spans-{workload}-s{seed}.json")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "layer", "name", "start", "end", "parent", "thread",
                              "self_s"],
                   "spans": merged["spans"],
                   "tallies": {k: {"count": v[0], "total_s": v[1], "self_s": v[2]}
                               for k, v in merged["tallies"].items()}}, fh)
    return plain + traced, metrics, units, checks, tracer.skipped, spans_path


# -- reporting --------------------------------------------------------------

def gate_summary(records):
    failed = [r for r in records if not r["ok"]]
    for r in failed:
        log(f"FAILED {r['command']}: {r.get('error', 'verdict mismatch')}")
    return len(records), len(failed), sum(1 for r in records if r["changed"])


def print_table(rows):
    print(f"{'metric':34s} {'median':>14s} {'q1':>12s} {'q3':>12s} {'unit':>6s} {'n':>5s}")
    for name, unit, values in rows:
        q1, med, q3 = quartiles(values)
        print(f"{name:34s} {med:14.6g} {q1:12.6g} {q3:12.6g} {unit:>6s} {len(values):5d}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--capture-reference", action="store_true",
                        help="record exit codes, statuses and digests of the current "
                             "source as perfbench/reference.json")
    args = parser.parse_args(argv)
    if not args.capture_reference and args.workload is None:
        parser.error("--workload is required")
    started = clock()
    try:
        if not os.path.isfile(os.path.join(SRC, "kolsys", "cli.py")):
            raise SetupError(f"no kolsys sources under {SRC}; run from a kolsys checkout")
        blas_env = cap_blas_threads(nproc())
        if args.capture_reference:
            return capture_reference(blas_env)
        return run(args, blas_env, started)
    except SetupError as exc:
        log(f"benchmark set-up failed: {exc}")
        return 2


def prepare(workload, seed, trace):
    workdir = os.path.join(OUT, "work", f"{workload}-t{trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    names = sorted({cfg for _, _, cfg in WORKLOADS[workload]})
    return workdir, {name: make_config(name, seed, workdir) for name in names}


def run(args, blas_env, started):
    reference = load_reference(args.workload)
    workdir, configs = prepare(args.workload, args.seed, args.trace)
    ref_cmds = reference["workloads"][args.workload]
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(blas_env, configs)}
    print(f"kolsys benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {nproc()} cores")
    if args.trace:
        records, metrics, units, checks, missing, spans_path = run_traced(
            args.workload, configs, workdir, ref_cmds, reference["source_sha256"], args.seed)
        for name, unit in units.items():
            print(f"{name:34s} {metrics[name]:14.6g} {unit}")
        for c in checks:
            state = "ok" if c["ok"] else ("MISMATCH" if c["enforced"] else "differs (source changed)")
            print(f"trace self-check {c['command']} {c['metric']}: traced {c['traced']}, "
                  f"expected {c['expected']}: {state}")
        print(f"trace targets missing: {', '.join(missing) or 'none'}")
        print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
        result.update(records=records, self_checks=checks, trace_missing=missing)
        out_metrics = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    else:
        records = run_untraced(args.workload, args.seconds, configs, workdir, ref_cmds,
                               started + RUN_LIMIT_S)
        metrics, samples = end_to_end(records, args.workload)
        rows = [("setup_s", "s", samples["setup_s"])]
        rows += [(name, "s", values) for name, values in samples.items()
                 if name != "setup_s" and not name.endswith("_rss_mb")]
        print_table([row for row in rows if row[2]])
        for name, unit in END_TO_END_UNITS.items():
            if name in metrics:
                print(f"{name:34s} {metrics[name]:14.6g} {unit}")
        result.update(records=records, samples=samples)
        out_metrics = {name: {"value": metrics[name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items() if name in metrics}
    attempted, failed, changed = gate_summary(records)
    print(f"gate: {attempted} commands, {failed} failed, {changed} outputs changed "
          f"from the reference")
    result.update(attempted=attempted, failed=failed, outputs_changed=changed,
                  metrics=out_metrics, elapsed_s=clock() - started)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({"correct": failed == 0 and bool(out_metrics), "attempted": attempted,
                      "failed": failed, "metrics": out_metrics}))
    return 0


def capture_reference(blas_env):
    """Run every workload once (seed 0, untraced) and record its verdicts."""
    ref = {"source_sha256": source_digest(), "workloads": {}}
    for workload in WORKLOADS:
        workdir, configs = prepare(workload, 0, 0)
        records = run_untraced(workload, 0.0, configs, workdir, None, clock() + RUN_LIMIT_S)
        entry = {}
        for r in records:
            if "error" in r:
                raise SetupError(f"{workload} {r['command']}: {r['error']}")
            entry[r["command"]] = {"rc": r["rc"], "statuses": r["statuses"],
                                   "digest": r["digest"]}
            if "fingerprint" in r:
                entry[r["command"]]["fingerprint"] = r["fingerprint"]
        ref["workloads"][workload] = entry
        log(f"captured {workload}: {sorted(entry)}")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
