"""Smoke-sized self-check of the benchmark (about two minutes).

Run from the repository root::

    python3 -m pytest perfbench -q

Every workload runs at smoke size, so the checks cover the result contract,
the oracles and the failure accounting, not the timings.  The held-out seeds
below are the ones the full-size oracles were also checked on, besides the
default seed 0.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
HELD_OUT_SEEDS = (7, 13, 29)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(RUN), *args], cwd=cwd, capture_output=True, text=True,
        timeout=300,
    )


def smoke(workload, seed=0, trace=1):
    completed = bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
        "--trace", str(trace), "--size", "smoke",
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def modules():
    """The benchmark's ``run`` and ``pipeline`` modules, imported in-process."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run  # puts the checkout's src/ on the path

    import pipeline

    return run, pipeline


def in_process(capsys, *args):
    run, _ = modules()
    assert run.main(list(args)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_lists_every_metric(workload, trace):
    result = smoke(workload, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }


@pytest.mark.parametrize("seed", HELD_OUT_SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_oracles_hold_on_held_out_seeds(workload, seed):
    result = smoke(workload, seed=seed)
    assert result["correct"] and result["failed"] == 0


def test_traced_round_is_covered_by_layer_spans():
    metrics = smoke("chip-recovery")["metrics"]
    assert metrics["trace.coverage_frac"]["value"] >= 0.9
    assert metrics["dram.words_written"]["value"] > 0
    assert metrics["core.beer.solutions"]["value"] == 3


def test_work_counts_must_repeat(monkeypatch, capsys):
    _, pipeline = modules()
    workload = pipeline.WORKLOADS["beep-profiling"]
    original = workload.check
    rounds = iter(range(1000))

    def drifting(state, outputs):
        check = original(state, outputs)
        check.counts["round"] = next(rounds)
        return check

    monkeypatch.setattr(workload, "check", drifting)
    result = in_process(capsys, "--workload", "beep-profiling", "--seconds", "0.1",
                        "--trace", "1", "--size", "smoke")
    assert not result["correct"] and 0 < result["failed"] < result["attempted"]


def test_oracle_misses_count_as_failures(monkeypatch, capsys):
    _, pipeline = modules()
    monkeypatch.setattr(pipeline, "codes_equivalent", lambda first, second: False)
    result = in_process(capsys, "--workload", "sim-recovery", "--seconds", "0.1",
                        "--trace", "1", "--size", "smoke")
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chip-recovery",
         "--seed", "0", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
