"""Every registered workload runs at minimal scale and passes its oracles.

The ISSUE-6 satellite: the smoke tier exists precisely so the tier-1 test
suite can execute the *entire* benchmark surface — all workloads, all
conditions, all bit-identity oracles — in seconds, with deterministic seeds.
"""

import pytest

from repro.bench import (
    ORACLE_SKIPPED,
    all_workloads,
    get_workload,
    run_workload,
    workload_names,
)
from repro.bench.registry import BenchContext
from repro.bench.timing import TIERS, RunControl, control_for_tier

EXPECTED_WORKLOADS = {
    "gf2-backends",
    "sat-solver",
    "sweep-parallel",
    "decoder-families",
    "decoder-fused",
    "fig1-error-probability",
    "table1-outcomes",
    "table2-miscorrection-profile",
    "fig3-manufacturer-profiles",
    "fig4-threshold-filter",
    "fig5-uniqueness",
    "fig6-solver-runtime",
    "fig8-beep-passes",
    "fig9-beep-error-probability",
    "sec511-cell-layout",
    "sec512-dataword-layout",
    "sec53-end-to-end-recovery",
    "sec63-experiment-runtime",
    "ablation-solver-backends",
    "store-layouts",
}


def test_registry_covers_every_ported_benchmark():
    assert set(workload_names()) == EXPECTED_WORKLOADS


def test_every_workload_declares_all_tiers():
    for workload in all_workloads():
        assert set(workload.tiers) == set(TIERS), workload.name
        for tier in TIERS:
            assert isinstance(workload.params_for(tier), dict)


@pytest.mark.parametrize("name", sorted(EXPECTED_WORKLOADS))
def test_workload_passes_oracles_at_smoke_scale(name):
    record = run_workload(get_workload(name), "smoke")
    assert record.workload == name
    assert record.conditions, "a workload must report at least one condition"
    evaluated = 0
    for condition in record.conditions:
        for oracle, value in condition.oracles.items():
            assert value is True or value == ORACLE_SKIPPED, (
                f"{name}/{condition.condition}: oracle {oracle!r} -> {value!r}"
            )
            evaluated += value is True
    assert evaluated > 0, "a workload must evaluate at least one hard oracle"


def test_smoke_runs_are_deterministic_in_oracles_and_counts():
    # Timings vary run to run; oracles and count-like metrics must not.
    name = "sat-solver"
    workload = get_workload(name)
    first = run_workload(workload, "smoke")
    second = run_workload(workload, "smoke")
    for a, b in zip(first.conditions, second.conditions):
        assert a.condition == b.condition
        assert a.oracles == b.oracles
        for metric in ("models_enumerated", "canonical_codes"):
            if metric in a.metrics:
                assert a.metrics[metric] == b.metrics[metric]


def test_context_exposes_tier_and_control():
    context = BenchContext(tier="full", control=control_for_tier("full"))
    assert context.is_full
    assert not BenchContext(tier="smoke", control=control_for_tier("smoke")).is_full


def test_interleaved_measurement_alternates_the_order():
    calls = []
    control = RunControl(warmup=1, repeats=3)
    timings = control.measure_interleaved(
        {
            "reference": lambda: calls.append("reference") or "r",
            "fast": lambda: calls.append("fast") or "f",
        }
    )
    # One warmup pass, then rounds whose order reverses each time.
    assert calls == [
        "reference", "fast",
        "reference", "fast",
        "fast", "reference",
        "reference", "fast",
    ]
    assert [timings[name].runs for name in ("reference", "fast")] == [3, 3]
    assert timings["reference"].last_result == "r"
    assert timings["fast"].last_result == "f"


def test_single_measurement_is_the_one_callable_case():
    calls = []
    control = RunControl(warmup=2, repeats=4)
    measurement = control.measure(lambda: calls.append(len(calls)) or len(calls))
    assert calls == list(range(6))
    assert measurement.runs == 4
    assert measurement.last_result == 6
    assert measurement.best_seconds <= measurement.mean_seconds
