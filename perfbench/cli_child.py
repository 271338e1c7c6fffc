"""Traced CLI child: `python3 perfbench/cli_child.py REPORT ARGV...`.

Imports the CLI, installs the tracer, runs `polyqsym.cli.main(ARGV)` and
afterwards writes its spans and counters to REPORT as JSON.  Start-up is
the time from the parent's spawn (PERFBENCH_SPAWN_T, a perf_counter
reading; the clock is system-wide) until the CLI is imported.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main():
    report_path, argv = sys.argv[1], sys.argv[2:]
    from polyqsym import cli
    imported = time.perf_counter()
    from perfbench import tracer
    tr = tracer.Tracer()
    tr.install()
    tr.request = int(os.environ["PERFBENCH_REQUEST"])
    rec = tr.open("cli.main")
    try:
        code = cli.main(argv)
    finally:
        tr.close(rec)
        counts = tr.finish()
        counts["cli.startup_s"] = \
            imported - float(os.environ["PERFBENCH_SPAWN_T"])
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump({"counts": counts, "spans": tr.spans,
                       "missing": sorted(tr.missing)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
