"""Tests of the benchmark itself, on the smoke size of each workload.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import trace_cli  # noqa: E402
import workloads  # noqa: E402


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert all(0 < m["bound"] <= setup_bound <= 0.25 for m in spec["end_to_end"])


def test_case_count_oracle_matches_known_scans():
    assert workloads.expected_cases(7, 50) == 4227
    assert workloads.expected_cases(6, 50) == 3647
    assert workloads.subgroup_count(2) == 5


def test_ball_count_oracle_matches_known_balls():
    assert workloads.psl2z_ball_count(2**0.5) == 2  # identity and S
    assert workloads.psl2z_ball_count(20) == 1178
    assert workloads.psl2z_ball_count(24) == 1690


def test_generic_points_are_seeded_and_inside_the_domain():
    assert workloads.generic_point(7) == workloads.generic_point(7)
    for seed in range(50):
        z = complex(workloads.generic_point(seed).replace("i", "j"))
        assert abs(z.real) <= 0.4 and abs(z) >= 1.2


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_passes_its_checks(name):
    record = run.run_workload(name, seed=3, seconds=0.1, trace=False, smoke=True)
    assert record["correct"], record["failures"]
    commands = len(workloads.WORKLOADS[name].commands)
    assert record["failed"] == 0
    # each command follows one reference.py run
    assert record["attempted"] == run.MIN_REPEATS * (2 * commands + run.HELP_SPAWNS)
    assert set(record["metrics"]) == set(run.END_TO_END)
    assert all(value > 0 for value in record["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    first, second = (
        run.run_workload(name, seed=3, seconds=0.1, trace=True, smoke=True) for _ in range(2)
    )
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(run.per_layer_units())
    assert first["facts"]["missing"] == []
    assert first["facts"]["counter_failures"] == []
    for key in ("frames.gram.entries", "linalg.hermitian_eigen.calls", "trace.spans"):
        assert first["metrics"][key] == second["metrics"][key] > 0
    cases = first["metrics"]["finite_gabor.verify_density_theorem.calls"]
    if name == "scan-exact":
        assert cases == workloads.expected_cases(3, 2)
    else:
        assert cases == 0 and first["metrics"]["bergman.orbit_system.vectors"] > 0


def test_scan_check_rejects_a_wrong_row():
    w = workloads.SCAN
    child = run.Child([sys.executable, "-m", "orbitdensity.cli", *w.argv(1, smoke=True)], run.child_env())
    assert w.check(child.stdout, child.stderr, smoke=True)[0] == []
    header, first, *rest = child.stdout.splitlines()
    cells = first.split(",")
    cells[-1] = "0.001"  # max_identity_residual
    tampered = "\n".join([header, ",".join(cells), *rest]) + "\n"
    assert w.check(tampered, child.stderr, smoke=True)[0]
    assert w.check("\n".join([header, *rest]) + "\n", child.stderr, smoke=True)[0]


def test_density_check_rejects_a_wrong_count():
    w = workloads.ELLIPTIC
    child = run.Child([sys.executable, "-m", "orbitdensity.cli", *w.argv(1, smoke=True)], run.child_env())
    assert w.check(child.stdout, "", smoke=True)[0] == []
    tampered = child.stdout.replace("diag_gamma_count = ", "diag_gamma_count = 1", 1)
    assert w.check(tampered, "", smoke=True)[0]


def test_tracer_reports_a_missing_target_and_restores_the_program():
    sys.path.insert(0, str(ROOT / "src"))
    from orbitdensity import frames

    original = frames.gram
    targets = {
        "frames": {"gram": (trace_cli._square_len, ("self_s",)), "OrbitSystemGone": (None, ("self_s",))},
        "nomodule": {"f": (None, ())},
    }
    tracer = trace_cli.Tracer(targets).install()
    try:
        assert frames.gram is not original
        assert tracer.missing == ["frames.OrbitSystemGone", "nomodule.f"]
    finally:
        tracer.restore()
    assert frames.gram is original


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "perfbench/run.py", "--workload", "scan-exact", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_a_counter_that_no_longer_fits_is_reported():
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from orbitdensity import linalg

    def stale_counter(args, kwargs, result):
        return {"n3_sum": len(args[1])}  # an argument the function no longer takes

    tracer = trace_cli.Tracer({"linalg": {"hermitian_eigen": (stale_counter, ("n3_sum",))}}).install()
    try:
        linalg.hermitian_eigen(np.eye(2))
    finally:
        tracer.restore()
    assert tracer.counter_failures == {"linalg.hermitian_eigen"}
    assert tracer.stats["linalg.hermitian_eigen"]["calls"] == 1


def test_merged_report_sums_the_commands():
    one = {"functions": {"frames.gram": {"calls": 1, "self_s": 0.5}}, "spans": [["a"]],
           "missing": ["x"], "counter_failures": []}
    two = {"functions": {"frames.gram": {"calls": 2, "self_s": 0.25}, "linalg.hermitian_eigen": {"calls": 3}},
           "spans": [["b"], ["c"]], "missing": ["x"], "counter_failures": ["y"]}
    merged = run.merge_reports([one, two])
    assert merged["functions"] == {"frames.gram": {"calls": 3, "self_s": 0.75}, "linalg.hermitian_eigen": {"calls": 3}}
    assert len(merged["spans"]) == 3 and merged["missing"] == ["x"] and merged["counter_failures"] == ["y"]
