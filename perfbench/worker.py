"""Child process for the benchmark: reads one JSON job on stdin and prints
one JSON result line on stdout.

Jobs:
  setup  import the library, generate the workload's inputs and, for
         cli-cache, pre-warm the shared cache file.  The parent times it.
  run    execute an in-process request list (lattice-stream, algebra) in
         this one warm process, timing each request and sampling the
         reference loop, optionally traced; then check every output.
  check  check CLI outputs against the library's API.

Run as `python3 perfbench/worker.py` from the checkout root with
PYTHONPATH naming `src` and the root.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

from perfbench import checks, measure, tracer, workloads


def job_setup(job):
    from polyqsym import cli  # imports the library and every layer
    requests = workloads.generate(job["workload"], job["seed"],
                                  job["seconds"])
    if job.get("cache"):
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in requests:
                code = cli.main(list(argv))
                if code != 0:
                    raise RuntimeError("pre-warm of %r exited %d"
                                       % (argv, code))
            code = cli.main(["cache", "save", job["cache"]])
        if code != 0:
            raise RuntimeError("cache save exited %d" % code)
    return {"requests": len(requests)}


def job_run(job):
    from perfbench import execute
    workload = job["workload"]
    requests = job["requests"]
    run_one = execute.run_lattice if workload == "lattice-stream" \
        else execute.run_algebra
    check_one = checks.check_lattice if workload == "lattice-stream" \
        else checks.check_algebra
    tr = tracer.Tracer() if job["trace"] else None
    if tr:
        tr.install()
    raw, outputs, errors = [], [], []
    refs = measure.RefSampler(interval=0.1)
    for i, req in enumerate(requests):
        refs.sample()
        if tr:
            tr.request = i
            rec = tr.open("request")
        t0 = time.perf_counter()
        try:
            out = run_one(req)
        except Exception as exc:  # a failed request is counted, not fatal
            out = None
            errors.append("request %d: %s: %s" % (i, type(exc).__name__, exc))
        dt = time.perf_counter() - t0
        if tr:
            tr.close(rec)
        raw.append(dt)
        outputs.append(out)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"raw": raw, "refs": refs.readings, "rss_kb": rss_kb}
    if tr:
        result["counts"] = tr.finish()
        result["missing"] = sorted(tr.missing)
        result["spans"] = tr.spans
    failed = [i for i, out in enumerate(outputs) if out is None]
    for i, (req, out) in enumerate(zip(requests, outputs)):
        if out is None:
            continue
        try:
            reason = check_one(req, out)
        except Exception as exc:  # a crashing check is a failed output
            reason = "%s: %s" % (type(exc).__name__, exc)
        if reason:
            failed.append(i)
            errors.append("request %d: %s" % (i, reason))
    result["failed"] = sorted(failed)
    result["errors"] = errors[:20]
    return result


def job_check(job):
    from perfbench import cli_checks
    reasons = [cli_checks.check_output(argv, out)
               for argv, out in job["outputs"]]
    return {"reasons": reasons}


JOBS = {"setup": job_setup, "run": job_run, "check": job_check}


def main():
    job = json.load(sys.stdin)
    result = JOBS[job["mode"]](job)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
