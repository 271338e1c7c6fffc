"""polyqsym benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is the library under `src/`,
used as it is, with no build step.  Workloads (see BENCHMARK.json and
perfbench/METRICS.md for why each exists):

  cli-cold        one fresh `python -m polyqsym.cli` per request, no cache
  cli-cache       the same, every invocation sharing one pre-warmed --cache
  lattice-stream  polytope expressions through the lattice layers, in one
                  warm worker process
  algebra         QSym, free-algebra and Lyndon operations, in one worker

One client sends requests in a closed loop, one at a time.  A reference
loop is timed throughout the run and every timing metric is scaled by its
mean speed (perfbench/measure.py); raw seconds are printed beside them.
Outputs are checked after the timed work.  With --trace 0 the last line
of stdout holds the end-to-end metrics; with --trace 1 the request list
runs once untraced and once traced, and the last line holds the per-layer
metrics, including the tracing overhead.  Traced spans are written to
.perfbench/trace-<workload>-<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, ROOT)

from perfbench import cli_checks, measure, tracer, workloads  # noqa: E402

SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170
WORK_DIR = os.path.join(ROOT, ".perfbench")


class BenchError(RuntimeError):
    pass


# -- child processes -------------------------------------------------------------


def child_env(with_bench=False, **extra):
    env = dict(os.environ)
    paths = [SRC, ROOT] if with_bench else [SRC]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"
    env.update({k: str(v) for k, v in extra.items()})
    return env


class Child:
    """Outcome of one finished child process."""

    __slots__ = ("code", "out", "err", "elapsed", "rss_kb")

    def __init__(self, code, out, err, elapsed, rss_kb):
        self.code = code
        self.out = out
        self.err = err
        self.elapsed = elapsed
        self.rss_kb = rss_kb


def run_child(argv, env, scratch, stdin=b""):
    """Run a child to completion and reap it with wait4, which also gives
    its peak resident memory.  Killed if it outlives CHILD_TIMEOUT_S."""
    with tempfile.TemporaryFile(dir=scratch) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            try:
                proc.stdin.write(stdin)
                proc.stdin.close()
            except BrokenPipeError:
                pass
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return Child(proc.returncode, out.decode("utf-8", "replace"),
                     err.read().decode("utf-8", "replace"), elapsed,
                     usage.ru_maxrss)


def run_worker(job, scratch):
    child = run_child([sys.executable, os.path.join(HERE, "worker.py")],
                      child_env(with_bench=True), scratch,
                      stdin=json.dumps(job).encode())
    if child.code != 0:
        raise BenchError("worker %s failed (exit %d): %s"
                         % (job["mode"], child.code, child.err[-2000:]))
    return json.loads(child.out.strip().splitlines()[-1]), child


# -- set-up ------------------------------------------------------------------------


def measure_setup(ctx):
    """Raw wall times of SETUP_REPEATS fresh processes that import the
    library, generate the inputs and, for cli-cache, pre-warm the cache."""
    times = []
    for _ in range(SETUP_REPEATS):
        job = {"mode": "setup", "workload": ctx.workload, "seed": ctx.seed,
               "seconds": ctx.seconds}
        if ctx.workload == "cli-cache":
            if os.path.exists(ctx.cache):
                os.remove(ctx.cache)
            job["cache"] = ctx.cache
        ctx.refs.sample()
        _, child = run_worker(job, ctx.scratch)
        times.append(child.elapsed)
    return times


# -- request execution ----------------------------------------------------------------


class Execution:
    """Timings, reference readings and outputs of one pass over the
    request list."""

    def __init__(self):
        self.raw = []
        self.refs = []
        self.failed = set()
        self.errors = []
        self.rss_kb = 0
        self.procs = []      # per traced process: spans and counters
        self.outputs = []    # CLI stdout per request
        self.name_mismatch = 0


def execute_in_process(ctx, trace):
    result, _ = run_worker({"mode": "run", "workload": ctx.workload,
                            "requests": ctx.requests, "trace": trace},
                           ctx.scratch)
    ex = Execution()
    ex.raw, ex.refs = result["raw"], result["refs"]
    ex.failed = set(result["failed"])
    ex.errors = result["errors"]
    ex.rss_kb = result["rss_kb"]
    if trace:
        ex.procs.append({"spans": result["spans"],
                         "counts": result["counts"],
                         "missing": result["missing"]})
    return ex


def cli_argv(ctx, argv):
    if ctx.workload == "cli-cache":
        return ["--cache", ctx.cache] + list(argv)
    return list(argv)


def execute_cli(ctx, trace):
    """One child per request, timed from spawn to exit, with a reference
    reading in this process before each."""
    ex = Execution()
    refs = measure.RefSampler()
    for i, argv in enumerate(ctx.requests):
        refs.sample()
        report_path = os.path.join(ctx.scratch, "report-%d.json" % i)
        if trace:
            env = child_env(with_bench=True, PERFBENCH_REQUEST=i,
                            PERFBENCH_SPAWN_T=repr(time.perf_counter()))
            child = run_child([sys.executable,
                               os.path.join(HERE, "cli_child.py"),
                               report_path] + cli_argv(ctx, argv),
                              env, ctx.scratch)
        else:
            child = run_child([sys.executable, "-m", "polyqsym.cli"]
                              + cli_argv(ctx, argv), child_env(), ctx.scratch)
        ex.raw.append(child.elapsed)
        ex.outputs.append(child.out)
        ex.rss_kb = max(ex.rss_kb, child.rss_kb)
        if child.code != 0:
            ex.failed.add(i)
            ex.errors.append("request %d %r exited %d: %s"
                             % (i, argv, child.code, child.err[-300:]))
        if trace:
            try:
                with open(report_path, encoding="utf-8") as fh:
                    ex.procs.append(json.load(fh))
                os.remove(report_path)
            except (OSError, ValueError) as exc:
                raise BenchError("request %d %r left no trace (exit %d): "
                                 "%s %s" % (i, argv, child.code, exc,
                                            child.err[-500:])) from None
    ex.refs = refs.readings
    return ex


def check_cli(ctx, ex):
    """Check every CLI output; for cli-cache also compare each output with
    a cold invocation of the same request.  Returns the number of outputs
    that differ from the cold one only in polytope names."""
    pending = {}
    for i, (argv, out) in enumerate(zip(ctx.requests, ex.outputs)):
        if i not in ex.failed:
            pending.setdefault((tuple(argv), out), []).append(i)
    name_mismatch = 0
    if ctx.workload == "cli-cache":
        cold = {}
        for argv in {argv for argv, _ in pending}:
            child = run_child([sys.executable, "-m", "polyqsym.cli"]
                              + list(argv), child_env(), ctx.scratch)
            cold[argv] = child.out
            if child.code != 0:
                ex.errors.append("cold reference %r exited %d"
                                 % (argv, child.code))
                cold[argv] = None
            pending.setdefault((argv, child.out), [])
        for (argv, out), idxs in list(pending.items()):
            if cold[argv] is None:
                ex.failed.update(idxs)
                continue
            if not idxs or out == cold[argv]:
                continue
            if cli_checks.strip_names(list(argv), out) == \
                    cli_checks.strip_names(list(argv), cold[argv]):
                name_mismatch += len(idxs)
            else:
                ex.failed.update(idxs)
                ex.errors.append("%r differs from the cold output" % (argv,))
    keys = list(pending)
    result, _ = run_worker({"mode": "check",
                            "outputs": [[list(a), o] for a, o in keys]},
                           ctx.scratch)
    for (argv, out), reason in zip(keys, result["reasons"]):
        if reason:
            # a wrong cold reference fails the requests it stands for
            ex.failed.update(pending[(argv, out)] or [
                i for i, a in enumerate(ctx.requests) if tuple(a) == argv])
            ex.errors.append("%r: %s" % (argv, reason))
    return name_mismatch


def execute(ctx, trace):
    if ctx.workload.startswith("cli-"):
        ex = execute_cli(ctx, trace)
        ex.name_mismatch = check_cli(ctx, ex)
    else:
        ex = execute_in_process(ctx, trace)
    return ex


# -- metrics -------------------------------------------------------------------------


def end_to_end(ex, setup, factor):
    raw = ex.raw
    n = len(raw)
    raw_tail, pct, count = measure.tail(raw)
    failed = len(ex.failed)
    metrics = {
        "setup_s": (factor * statistics.median(setup), "s"),
        "throughput_rps": (n / (factor * sum(raw)), "1/s"),
        "latency_p50_ms": (1000 * factor * statistics.median(raw), "ms"),
        "latency_tail_ms": (1000 * factor * raw_tail, "ms"),
        "peak_rss_mb": (ex.rss_kb / 1024, "MB"),
        "success_ratio": ((n - failed) / n, "ratio"),
    }
    info = {
        "tail_percentile": round(pct, 2), "samples": count,
        "samples_beyond_tail": min(measure.TAIL_BEYOND, count - 1),
        "speed_factor": factor,
        "raw_setup_s": statistics.median(setup),
        "raw_throughput_rps": n / sum(raw),
        "raw_latency_p50_ms": 1000 * statistics.median(raw),
        "raw_latency_tail_ms": 1000 * raw_tail,
        "name_mismatch": ex.name_mismatch,
    }
    return metrics, info, n, failed


# Per-layer metrics, grouped by how they are derived: self times, span
# counts, summed counters and per-process maxima.  Totals are over the run's
# whole request list, summed over every process that served it.
SELF_TIMES = (
    "posets.canonical_key", "polytopes.construct", "polytopes.flag_number",
    "polytopes.flag_vector", "ring.d_k", "ring.antipode_rp",
    "transforms.f_poly", "transforms.ehrenborg_F", "transforms.f_rp",
    "transforms.bb_basis", "transforms.project_bb", "qsym.mul",
    "qsym.expand", "ncalg.normal_form", "ncalg.antipode", "ncalg.coproduct",
    "lyndon.lyndon_words", "lyndon.series_exponents",
    "exprs.parse_expression", "cli.cache_load", "cli.cache_save",
)
SPAN_CALLS = ("posets.canonical_key", "polytopes.flag_number", "ring.d_k",
              "qsym.mul")
SUMMED = ("posets.canonical_key.computed", "posets.lattice_elements_built",
          "posets.interval.calls", "polytopes.canonical.calls",
          "polytopes.flag_number.computed", "cli.cache_load.keys_computed")
MAXED = ("polytopes.registry_size", "cli.cache_bytes", "cli.cache_entries")


def per_layer(ex, factor, overhead):
    times, calls, inclusive = {}, {}, {}
    counts = {}
    missing = set()
    startup = 0.0
    for proc in ex.procs:
        for name, (n, self_s, incl_s) in tracer.self_times(
                proc["spans"]).items():
            calls[name] = calls.get(name, 0) + n
            times[name] = times.get(name, 0.0) + self_s * factor
            inclusive[name] = inclusive.get(name, 0.0) + incl_s * factor
        for name, value in proc["counts"].items():
            if name in MAXED:
                counts[name] = max(counts.get(name, 0), value)
            elif name == "cli.startup_s":
                startup += value * factor
            else:
                counts[name] = counts.get(name, 0) + value
        missing.update(proc["missing"])

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in SELF_TIMES:
        m[name + ".self_s"] = (times.get(name, 0.0), "s")
    for name in SPAN_CALLS:
        m[name + ".calls"] = (calls.get(name, 0), "count")
    for name in SUMMED + MAXED:
        m[name] = (counts.get(name, 0), "bytes" if name == "cli.cache_bytes"
                   else "count")
    m["posets.canonical_key.useful_ratio"] = (
        ratio(counts.get("registry_new_types", 0),
              counts.get("posets.canonical_key.computed", 0)), "ratio")
    m["polytopes.canonical.hit_ratio"] = (
        ratio(counts.get("polytopes.canonical.hits", 0),
              counts.get("polytopes.canonical.calls", 0)), "ratio")
    hits = counts.get("qsym.quasi_shuffle.hits", 0)
    m["qsym.quasi_shuffle.hit_ratio"] = (
        ratio(hits, hits + counts.get("qsym.quasi_shuffle.misses", 0)),
        "ratio")
    m["suites.setup_s"] = (inclusive.get("suites.setup", 0.0), "s")
    m["suites.check_s"] = (inclusive.get("suites.check", 0.0), "s")
    m["cli.startup_s"] = (startup, "s")
    m["cli.name_mismatch"] = (ex.name_mismatch, "count")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    for name in list(m):
        if any(name == miss or name.startswith(miss + ".")
               for miss in missing):
            m[name] = (None, m[name][1])
    return m, sorted(missing)


def write_trace(ctx, ex):
    path = os.path.join(WORK_DIR, "trace-%s-%d.jsonl"
                        % (ctx.workload, ctx.seed))
    with open(path, "w", encoding="utf-8") as fh:
        for i, proc in enumerate(ex.procs):
            fh.write(json.dumps({"process": i, "fields": [
                "name", "start", "end", "parent", "request"],
                "spans": proc["spans"]}) + "\n")
    return path


# -- entry point --------------------------------------------------------------------


class Context:
    def __init__(self, workload, seed, seconds, scratch):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.scratch = scratch
        self.cache = os.path.join(scratch, "lattices.json")
        self.requests = workloads.generate(workload, seed, seconds)
        self.refs = measure.RefSampler()


def run(workload, seed, seconds, trace):
    os.makedirs(WORK_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        ctx = Context(workload, seed, seconds, scratch)
        setup = measure_setup(ctx)
        ex = execute(ctx, trace=False)
        factor = measure.run_factor(ctx.refs.readings + ex.refs)
        metrics, info, attempted, failed = end_to_end(ex, setup, factor)
        errors = list(ex.errors)
        if trace:
            traced = execute(ctx, trace=True)
            traced_factor = measure.run_factor(traced.refs)
            base = factor * sum(ex.raw)
            overhead = (traced_factor * sum(traced.raw) - base) / base
            metrics, missing = per_layer(traced, traced_factor, overhead)
            info["missing_counters"] = missing
            info["trace_file"] = os.path.relpath(write_trace(ctx, traced),
                                                 ROOT)
            attempted += len(traced.raw)
            failed += len(traced.failed)
            errors += traced.errors
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return metrics, info, attempted, failed, errors


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(workloads.GENERATORS),
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "polyqsym", "cli.py")):
        print("polyqsym sources not found under %s" % SRC, file=sys.stderr)
        return 2
    try:
        metrics, info, attempted, failed, errors = run(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 1
    for line in errors[:20]:
        print("error: %s" % line, file=sys.stderr)
    print("info: " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
