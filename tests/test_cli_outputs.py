"""CLI stdout, stderr and exit codes against a committed record.

`data/cli_outputs.json` lists requests, each an argv list written into the
file with the stdout, stderr and exit code it gave when recorded:
- the 90 distinct requests of the seed-1 and seed-2 `cli-cold` benchmark
  runs at 20 s, all nine `verify --json` suites among them;
- every catalogue atom under the five flag verbs, in plain text;
- sums with ties, duals and units;
- refused inputs, each with exit code 2.

The list is data, not a call to the benchmark's generators, so that a
change to the benchmark cannot move this test.  Each request runs in one
process through `cli.main` on an empty store.  One request per light verb
also runs in a child process under another `PYTHONHASHSEED`, for the
determinism part of the contract.

A change that alters output text on purpose re-records the file with
`PYTHONPATH=src python tests/test_cli_outputs.py`, which keeps the argv
lists and rewrites the outputs, and names each request whose output
changed in CHANGES.md.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

from polyqsym.cli import main

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "cli_outputs.json")

LIGHT_VERBS = ("build", "flag", "fpoly", "ehrenborg", "frp", "project",
               "bb-matrix", "lyndon")


def _load():
    with open(DATA, encoding="utf-8") as fh:
        return json.load(fh)["requests"]


def run_in_process(argv, clear):
    """(exit code, stdout, stderr) of `cli.main(argv)` after `clear()`."""
    clear()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _recorded(case):
    return case["code"], case["stdout"], case["stderr"]


def test_record_covers_the_documented_requests():
    cases = _load()
    argvs = [tuple(c["argv"]) for c in cases]
    assert len(set(argvs)) == len(argvs)
    verifies = [a for a in argvs if a[0] == "verify" and a[-1] == "--json"]
    assert len(verifies) == 9
    assert {a[0] for a in argvs} >= set(LIGHT_VERBS)
    refused = [c for c in cases if c["code"] == 2]
    assert len(refused) >= 10
    assert all(c["stdout"] == "" and c["stderr"] for c in refused)


def test_cli_outputs_match_the_record(empty_store):
    for case in _load():
        assert run_in_process(case["argv"], empty_store) == \
            _recorded(case), case["argv"]


def test_light_verbs_match_the_record_under_another_hash_seed(monkeypatch):
    from conftest import cli_process
    monkeypatch.setenv("PYTHONHASHSEED", "7")
    cases = _load()
    for verb in LIGHT_VERBS:
        case = next(c for c in cases
                    if c["argv"][0] == verb and c["code"] == 0)
        proc = cli_process(case["argv"], stdout=subprocess.PIPE)
        got = (proc.returncode, proc.stdout.decode(), proc.stderr.decode())
        assert got == _recorded(case), case["argv"]


def _rerecord():
    from polyqsym import store
    cases = _load()
    changed = []
    for case in cases:
        code, out, err = run_in_process(case["argv"], store.clear)
        if "code" in case and _recorded(case) != (code, out, err):
            changed.append(case["argv"])
        case.update(code=code, stdout=out, stderr=err)
    with open(DATA, "w", encoding="utf-8") as fh:
        json.dump({"requests": cases}, fh, indent=1)
        fh.write("\n")
    for argv in changed:
        print("changed:", argv)
    print("%d requests recorded, %d changed" % (len(cases), len(changed)))


if __name__ == "__main__":
    sys.exit(_rerecord())
