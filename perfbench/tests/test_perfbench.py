"""Tests of the benchmark itself; they are not part of the package's suite.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
from checks import Checker  # noqa: E402
from child import _plain, run_plan  # noqa: E402
from workloads import WORKLOADS, make_spec  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_passes_its_checks(workload):
    r = run.run_workload(workload, seed=3, seconds=0, trace=False,
                         size="tiny", min_reps=1, setup_reps=1)
    assert r["attempted"] > 0
    assert r["failed"] == 0, r["failures"]
    assert set(r["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(v > 0 for v, _ in r["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    r = run.run_workload("values", seed=3, seconds=0, trace=True,
                         size="tiny", min_reps=1, setup_reps=1)
    assert r["failed"] == 0, r["failures"]
    layer = {k: v for k, (v, _) in r["per_layer"].items()}
    assert set(layer) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert layer["sums.calls"] >= 3  # dyadic_split calls lhs_sum itself
    assert layer["arith.von_mangoldt.calls"] >= 50
    assert layer["arith.sieve_bytes"] > 0
    assert layer["primes.values_per_s"] > 0
    assert layer["stats.calls"] == layer["nagell.calls"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    assert make_spec(workload, 7) == make_spec(workload, 7)
    assert json.loads(json.dumps(make_spec(workload, 7))) == make_spec(workload, 7)


def test_seed_changes_sampled_inputs():
    assert make_spec("values", 1)["plan"] != make_spec("values", 2)["plan"]


def test_wrong_result_is_counted_as_failed(tmp_path):
    spec = make_spec("values", 3, "tiny")
    outputs, errors = run_plan(spec, str(tmp_path))
    outputs = json.loads(json.dumps(outputs, default=_plain))  # as the parent reads them
    checker = Checker(spec)
    assert not any(errors)
    assert checker.failures(outputs) == []
    wrong = list(outputs)
    i = next(k for k, (op, _) in enumerate(spec["plan"]) if op == "primes.pi_f")
    wrong[i] += 1
    failed = checker.failures(wrong)
    assert failed == [tuple(spec["plan"][i])]
    assert len(failed) / checker.attempted() > 0
    wrong[i] = None  # the call raised
    assert len(checker.failures(wrong)) == 1
    j = next(k for k, (op, _) in enumerate(spec["plan"]) if op == "sums.dyadic_split")
    wrong[j] = {"lhs": 1.0}  # an output of the wrong shape
    assert len(checker.failures(wrong)) == 2
    assert len(checker.failures(None)) == checker.attempted()  # the child died


def test_changed_verify_report_is_counted_as_failed():
    spec = make_spec("verify", 0)
    checker = Checker(spec)
    good = {"rc": 0, "report": checker.golden_report}
    assert checker.failures([good]) == []
    changed = {"rc": 0, "report": checker.golden_report.replace('"pass"', '"fail"', 1)}
    assert len(checker.failures([changed])) == 2  # the report and one check


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(BENCHMARK["command"] + ["--workload", "values", "--seed", "1",
                                                  "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
