"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys

import pytest

from perfbench import checks, cli_checks, measure, tracer, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


# -- generators ---------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_generators_are_deterministic(workload):
    a = workloads.generate(workload, 7, 15)
    b = workloads.generate(workload, 7, 15)
    assert a == b
    assert workloads.generate(workload, 8, 15) != a


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_request_count_depends_on_run_length_only(workload):
    sizes = {len(workloads.generate(workload, seed, 15)) for seed in (1, 2)}
    assert len(sizes) == 1
    assert len(workloads.generate(workload, 1, 30)) > sizes.pop()


def test_face_counts_match_the_library():
    from polyqsym.exprs import parse_expression
    for req in workloads.generate("lattice-stream", 3, 4):
        poly = checks.single(parse_expression(req["expr"]))
        assert poly.dim == req["dim"]
    rng = __import__("random").Random(5)
    for _ in range(30):
        p = workloads.random_polytope(rng, rng.randint(1, 4), 120)
        built = checks.single(parse_expression(p.text))
        assert (built.dim, built.lattice.n) == (p.dim, p.faces), p.text


# -- tracer -----------------------------------------------------------------------------


def _library_bindings():
    import polyqsym.cli  # noqa: F401
    from polyqsym import suites
    out = {}
    for ns in tracer._namespaces():
        for attr, value in vars(ns).items():
            out[(id(ns), attr)] = value
    out.update({("SUITES", k): v for k, v in suites.SUITES.items()})
    return out


def test_wrappers_are_installed_and_restored():
    from polyqsym import polytopes, suites
    before = _library_bindings()
    original = polytopes.flag_number
    tr = tracer.Tracer()
    tr.install()
    try:
        assert polytopes.flag_number is not original
        assert suites.SUITES["bb"] is not before[("SUITES", "bb")]
        polytopes.flag_vector(polytopes.cube(3))
    finally:
        counts = tr.finish()
    after = _library_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {rec[0] for rec in tr.spans}
    assert {"polytopes.flag_vector", "polytopes.flag_number"} <= names
    assert counts["polytopes.registry_size"] >= 1
    assert not tr.missing


def test_missing_private_name_reads_as_missing(monkeypatch):
    from polyqsym import cli
    monkeypatch.delattr(cli, "_load_cache")
    tr = tracer.Tracer()
    tr.install()
    tr.finish()
    assert {"cli.cache_load", "cli.cache_entries"} <= tr.missing


def test_counts_repeat_exactly():
    def traced_counts():
        code = ("import json; from perfbench import tracer, execute;"
                "tr = tracer.Tracer(); tr.install();"
                "execute.run_lattice({'expr': 'prod(polygon(5),cube(2))'});"
                "c = tr.finish(); print(json.dumps(c, sort_keys=True))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(ROOT, "src"), ROOT]))
        return subprocess.run([sys.executable, "-c", code], env=env,
                              cwd=ROOT, check=True, capture_output=True,
                              text=True).stdout
    assert traced_counts() == traced_counts()


# -- arithmetic ---------------------------------------------------------------------------


def test_tail_rule():
    value, pct, n = measure.tail(list(range(100, 0, -1)))
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(1 for x in range(1, 101) if x > value) == 10
    value, pct, n = measure.tail([5.0] * 3 + [1.0] * 8)
    assert (value, n) == (1.0, 11) and pct == pytest.approx(100 / 11)
    assert measure.tail([3, 1, 2]) == (3, 100.0, 3)


def test_self_time_arithmetic():
    spans = [
        ["request", 0.0, 10.0, -1, 0],
        ["a", 1.0, 3.0, 0, 0],
        ["b", 1.5, 2.0, 1, 0],
        ["a", 4.0, 6.0, 0, 0],
        ["c", 5.5, 7.0, 0, 0],     # overlaps its sibling, runs past nothing
    ]
    out = tracer.self_times(spans)
    assert out["request"][1] == pytest.approx(10 - (2 + 2 + 1.0))
    assert out["a"] == [2, pytest.approx(1.5 + 2.0), pytest.approx(4.0)]
    assert out["b"][1] == pytest.approx(0.5)
    assert out["c"][1] == pytest.approx(1.5)


def test_run_factor_is_the_mean_reference_speed(monkeypatch):
    readings = iter([0.002, 0.001, 0.004, 0.003])
    monkeypatch.setattr(measure, "reference_seconds", lambda: next(readings))
    refs = measure.RefSampler(interval=0.0)
    for _ in range(3):
        refs.sample()
    assert refs.readings == [0.002, 0.001, 0.004]
    assert measure.run_factor(refs.readings) == pytest.approx(
        measure.REF_NOMINAL_S * (500 + 1000 + 250) / 3)
    slow = measure.RefSampler(interval=3600.0)
    slow.sample()
    slow.sample()
    assert len(slow.readings) == 1


# -- checks detect wrong outputs ----------------------------------------------------------


def test_flag_checks_reject_a_perturbed_table():
    from polyqsym import polytopes
    flags = polytopes.flag_vector(polytopes.cube(3))
    assert checks.check_flag_table(3, flags) is None
    bad = dict(flags)
    bad[(0, 2)] += 1
    assert checks.check_flag_table(3, bad)


def test_algebra_checks_reject_wrong_outputs():
    req = {"op": "lyndon-words", "alphabet": [1, 2], "weight": 9}
    from perfbench import execute
    out = execute.run_algebra(req)
    assert checks.check_algebra(req, out) is None
    assert checks.check_algebra(req, out[:-1])
    req = {"op": "series-exponents", "alphabet": [1, 3], "nmax": 20}
    out = execute.run_algebra(req)
    assert checks.check_algebra(req, out) is None
    assert checks.check_algebra(req, out[:-1] + [out[-1] + 1])


def test_cli_name_stripping():
    a = json.dumps([{"expr": "cube(2)", "coeff": 2},
                    {"expr": "simplex(2)", "coeff": -1}])
    b = json.dumps([{"expr": "word(CCC)", "coeff": -1},
                    {"expr": "word(BCC)", "coeff": 2}])
    argv = ["project", "polygon(5)", "--dim", "2", "--json"]
    assert cli_checks.strip_names(argv, a) == cli_checks.strip_names(argv, b)
    assert cli_checks.check_output(argv, a) is None
    assert cli_checks.check_output(argv, b) is None
    wrong = json.dumps([{"expr": "cube(2)", "coeff": 1}])
    assert cli_checks.check_output(argv, wrong)


# -- end to end -----------------------------------------------------------------------------


def _bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_tiny_run_completes(workload):
    result = _bench(workload, 0)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"]
                                      for m in _spec()["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["lattice-stream", "algebra"])
def test_tiny_traced_run_completes(workload):
    result = _bench(workload, 1)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"]
                                      for m in _spec()["per_layer"]}
