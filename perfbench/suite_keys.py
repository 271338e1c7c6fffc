"""Count the canonical keys computed when all nine verify suites run in one
process, against the number of distinct combinatorial types they cover.

    python3 perfbench/suite_keys.py

This is the repeated-work baseline recorded in perfbench/METRICS.md; it is
not timed.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import tracer  # noqa: E402


def main():
    from polyqsym import suites
    tr = tracer.Tracer()
    tr.install()
    failed = 0
    try:
        for name in suites.SUITES:
            failed += sum(not c.ok for c in suites.run_suite(name))
    finally:
        counts = tr.finish()
    print(json.dumps({"suites": len(suites.SUITES), "failed_checks": failed,
                      "keys_computed": counts["posets.canonical_key.computed"],
                      "registry_types": counts["polytopes.registry_size"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
