"""Smoke self-test of the benchmark at its tiny size.

    python3 -m pytest -q perfbench/check_smoke.py

Each workload runs through ``run.py --size smoke`` in a child process, with
tracing off and on; the in-process tests check the correctness gate, the
seeded inputs and that tracing puts every binding back.
"""

import copy
import json
import shutil
import subprocess
import sys

import pytest

import jobs
from tracer import Tracer

ROOT = jobs.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def hq():
    return jobs.import_hopfqt()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_pin_is_a_failure(hq, tmp_path):
    pins = jobs.load_pins()
    group = jobs.make_jobs(hq, "groups", "smoke", 1, tmp_path)
    assert jobs.run_pass(group, pins)["failed"] == 0

    wrong = copy.deepcopy(pins)
    wrong["beta7(p=3,q=5)"]["survivors"] = 24
    res = jobs.run_pass(group, wrong)
    assert res["failed"] == 1
    assert res["failures"][0]["differs_in"] == ["survivors"]

    # the report check is byte for byte against the golden copy
    wrong = copy.deepcopy(pins)
    wrong["reproduce --p 3 --q 5"]["report_golden"] = "golden/reproduce-7-3.json"
    res = jobs.run_pass(jobs.make_jobs(hq, "reproduce-73", "smoke", 1,
                                       tmp_path), wrong)
    assert res["failed"] == 1
    assert res["failures"][0]["differs_in"] == ["report"]


def test_accepted_mutant_is_a_failure(hq, tmp_path):
    pins = copy.deepcopy(jobs.load_pins())
    pins["verify A(7,3,l=1) zeta-mutant"]["rejected"] = False
    res = jobs.run_pass(jobs.make_jobs(hq, "verify-dumps", "smoke", 1,
                                       tmp_path), pins)
    assert [f["job"].split(" MUL ")[0] for f in res["failures"]] == [
        "verify A(7,3,l=1) zeta-mutant"]


def test_seed_fixes_inputs(hq, tmp_path):
    def names(seed):
        return [j.name for j in jobs.make_jobs(hq, "verify-dumps", "full",
                                               seed, tmp_path)]
    assert names(5) == names(5)
    assert len({tuple(names(s)) for s in range(5)}) > 1


def test_tracer_restores_every_binding(hq):
    before = {name: dict(vars(mod)) for name, mod in hq.items()}
    cyclo_mul = vars(hq["exactfield"].CycloNumber)["__rmul__"]
    with Tracer(hq) as tracer:
        assert hq["qtlab"].build_bismash is hq["bismash"].build_bismash
        assert hq["qtlab"].build_bismash is not before["bismash"]["build_bismash"]
        res = jobs.run_pass(jobs.make_jobs(hq, "groups", "smoke", 1, None),
                            jobs.load_pins(), tracer)
    assert res["failed"] == 0
    metrics = tracer.layer_metrics()
    assert metrics["qtlab.survivors"] == 25
    assert metrics["exactfield.mul_calls"] > 0
    assert {name: dict(vars(mod)) for name, mod in hq.items()} == before
    assert vars(hq["exactfield"].CycloNumber)["__rmul__"] is cyclo_mul


def test_without_sources_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(jobs.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "groups", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
