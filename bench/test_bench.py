"""Tests of the benchmark's own code.

    python3 -m pytest bench/test_bench.py

From the root of a checkout.  They import the program from src/ and run
the golden workload twice for about a second each.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import cases  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture(scope="module")
def oscurve():
    return run.import_program()


def benchmark_spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_same_seed_gives_same_inputs(oscurve):
    assert cases.census_inputs(3) == cases.census_inputs(3)
    assert cases.classify_inputs(3) == cases.classify_inputs(3)
    assert cases.census_inputs(3) != cases.census_inputs(4)
    assert cases.classify_inputs(3) != cases.classify_inputs(4)


def test_inputs_have_the_documented_mix(oscurve):
    census = cases.census_inputs(0)
    degrees = [key.split("#")[0] for key, _ in census if key.startswith("n")]
    assert degrees == [f"n{n}" for n, count in cases.CENSUS_TIERS for _ in range(count)]
    assert [key for key, _ in census if key.startswith("a")] == [f"a{a}" for a in cases.HEIGHTS]
    classify = cases.classify_inputs(0)
    assert len(classify) == len(cases.CLASSIFY_FORMS) + len(cases.NODE_BITS)
    for name, text, point, s in classify:
        F = oscurve.PolyRing(("x0", "x1", "x2")).parse(text)
        assert F.evaluate([Fraction(c) for c in point]) == 0, name


def test_every_census_input_has_a_reference(oscurve):
    reference = cases.load_census_reference()["cases"]
    for seed in range(20):
        for key, text in cases.census_inputs(seed):
            assert reference[key]["param"] == text


def test_self_time_subtracts_the_time_children_cover():
    # root [0, 10] with children [1, 3] and [2, 6] overlapping on [2, 3],
    # and [8, 12] reaching past the root's end; grandchild [4, 5]
    starts = [0.0, 1.0, 2.0, 8.0, 4.0]
    ends = [10.0, 3.0, 6.0, 12.0, 5.0]
    parents = [-1, 0, 0, 0, 2]
    assert tracing.self_times(starts, ends, parents) == [3.0, 2.0, 3.0, 4.0, 1.0]


def test_times_are_put_on_the_reference_speed():
    ref = run.CALIBRATION_REF_S
    assert run.Clock.reference(1.0, ref, ref) == 1.0
    # a machine running twice as slow as the reference, then 1.5 times
    assert run.Clock.reference(1.75, 2 * ref, 1.5 * ref) == pytest.approx(1.0)


def test_tracer_sees_call_sites_that_imported_the_function(oscurve):
    tracer = tracing.Tracer()
    tracer.begin_case("probe")
    original = oscurve.poly_gcd
    tracer.install()
    try:
        # rational_curves calls poly_gcd through its own `from .polyops import`
        ring = oscurve.PolyRing(("z0", "z1", "z2", "z3"))
        z = ring.gens()
        oscurve.parameterization_from_center(3, [z[0], z[1], z[3]])
    finally:
        tracer.remove()
    assert oscurve.poly_gcd is original
    names = [tracer.names[i] for i in tracer.name]
    assert "rational_curves.parameterization_from_center" in names
    gcd = [k for k, n in enumerate(names) if n == "polyops.poly_gcd"]
    assert any(names[tracer.parent[k]] == "rational_curves.parameterization_from_center" for k in gcd)
    metrics = tracer.layer_metrics([0])
    assert metrics["polyops.poly_gcd.calls"] == len(gcd)
    assert metrics["polyops.poly_gcd.max_coeff_bits"] >= 1


def test_layer_metric_table_matches_benchmark_json():
    spec = [(m["name"], m["unit"], m["better"]) for m in benchmark_spec()["per_layer"]]
    assert spec == [(n, u, b) for n, u, b, _ in tracing.LAYER_METRICS]
    e2e = [(m["name"], m["unit"]) for m in benchmark_spec()["end_to_end"]]
    assert e2e == list(run.END_TO_END)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_equal_benchmark_json(trace, key):
    spec = benchmark_spec()
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "golden", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in spec[key]]
    units = {m["name"]: m["unit"] for m in spec[key]}
    assert all(v["unit"] == units[n] for n, v in result["metrics"].items())


def test_wrong_expectation_marks_the_case_failed(oscurve):
    text, point = "x1^2 - x0^2", ["0", "0", "1"]
    right = cases.execute(cases.classify_case("A1", text, point, 1), 10)
    wrong = cases.execute(cases.classify_case("A1", text, point, 2), 10)
    assert right.status == "ok"
    assert wrong.status == "wrong" and wrong.failed

    key, param = cases.census_inputs(0)[0]
    reference = cases.load_census_reference()["cases"]
    injected = {key: dict(reference[key], labels=["A2"] * len(reference[key]["labels"]))}
    assert cases.execute(cases.census_case(key, param, reference), 30).status == "ok"
    assert cases.execute(cases.census_case(key, param, injected), 30).status == "wrong"


def test_refusal_counts_as_failure_unless_expected(oscurve):
    # x1^2*x2 - x0^2*x2 squared is not reduced: the classifier refuses it
    text = "x1^4*x2^2 - 2*x0^2*x1^2*x2^2 + x0^4*x2^2"
    outcome = cases.execute(cases.classify_case("square", text, ["0", "0", "1"], 1), 10)
    assert outcome.status == "refused" and outcome.failed

    # a parameterization that is not one-to-one: the census refuses it
    param = "s^4; s^2*t^2; t^4"
    expects_refusal = {"deg": {"param": param, "refused": "DegenerateInputError"}}
    expects_answer = {"deg": {"param": param, "labels": ["A1"] * 3, "sites": [["cluster", 3, 3, 0, "A1"]]}}
    assert cases.execute(cases.census_case("deg", param, expects_refusal), 30).status == "ok"
    assert cases.execute(cases.census_case("deg", param, expects_answer), 30).status == "refused"


def test_case_past_its_limit_times_out_and_fails(oscurve):
    def spin():
        end = time.perf_counter() + 5
        while time.perf_counter() < end:
            pass

    start = time.perf_counter()
    outcome = cases.execute(cases.Case("spin", spin, lambda out: None), 0.05)
    assert outcome.status == "timeout" and outcome.failed
    assert time.perf_counter() - start < 1


def test_run_refuses_without_the_program():
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    try:
        for path in BENCH_DIR.glob("*.py"):
            shutil.copy(path, bare / "bench" / path.name)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "golden", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == ""
