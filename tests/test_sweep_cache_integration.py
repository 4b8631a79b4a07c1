"""End-to-end sweep contract through the CLI: every re-run is pure cache.

Each case sweeps a small spec into a fresh campaign store through
``beer-tool scenario sweep``, re-runs it with ``--resume`` and requires
100% cache hits.  The cases add what their configuration must also
guarantee: a parallel (``--jobs``) sweep, a sharded (v2) store whose
migration to single-file is byte-identical to a fresh v1 run of the same
spec and round-trips back, and a traced multi-process sweep whose store
is byte-identical to an untraced serial one and whose traces validate.
"""

import json

import pytest

from repro.cli import main
from repro.obs import read_trace, validate_events

_TWO_SCENARIOS = [
    {"name": "uniform-random", "params": {"bit_error_rate": [0.005, 0.02]}},
    {"name": "burst", "params": {"burst_probability": 0.05}},
]

CASES = {
    "serial": dict(
        spec={
            "num_words": 500, "chunk_size": 128, "seeds": [0],
            "backends": ["packed"], "codes": [{"data_bits": 8}],
            "scenarios": [
                {"name": "uniform-random",
                 "params": {"bit_error_rate": [0.005, 0.02]}},
                {"name": "transient-stuck-overlay",
                 "params": {"transient_probability": 0.001,
                            "stuck_fraction": 0.01}},
            ],
        },
        args=[],
    ),
    "parallel": dict(
        spec={
            "num_words": 2000, "chunk_size": 512, "seeds": [0, 1],
            "backends": ["packed"], "codes": [{"data_bits": 16}],
            "scenarios": _TWO_SCENARIOS,
        },
        args=["--jobs", "2"],
    ),
    "sharded": dict(
        spec={
            "num_words": 2000, "chunk_size": 512, "seeds": [0, 1],
            "backends": ["packed"],
            "codes": [{"data_bits": 16}, {"data_bits": 32}],
            "scenarios": _TWO_SCENARIOS,
        },
        args=["--layout", "sharded", "--jobs", "2"],
    ),
    "traced": dict(
        spec={
            "num_words": 2000, "chunk_size": 512, "seeds": [0, 1],
            "backends": ["packed"], "codes": [{"data_bits": 16}],
            "scenarios": _TWO_SCENARIOS,
        },
        args=["--jobs", "4"],
    ),
}


def _cli(capsys, *argv):
    """Run one CLI invocation; return its exit code and captured stdout."""
    code = main([str(arg) for arg in argv])
    return code, capsys.readouterr().out


def _sweep(capsys, spec_path, store, *extra):
    code, out = _cli(
        capsys, "scenario", "sweep", "--spec", spec_path, "--store", store,
        "--json", *extra,
    )
    assert code == 0
    return json.loads(out)


def _counters(events):
    totals = {}
    for event in events:
        if event["type"] == "counter":
            totals[event["name"]] = totals.get(event["name"], 0) + event["value"]
    return totals


@pytest.mark.parametrize("case", sorted(CASES))
def test_rerun_is_fully_cache_served(case, tmp_path, capsys):
    spec = dict(CASES[case]["spec"], name=f"integration-{case}")
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    store = tmp_path / "store"
    args = list(CASES[case]["args"])
    first_trace = tmp_path / "first_trace.jsonl"
    second_trace = tmp_path / "second_trace.jsonl"
    traced = case == "traced"

    first = _sweep(
        capsys, spec_path, store, *args,
        *(["--trace", first_trace] if traced else []),
    )
    assert first["simulated"] == first["total_cells"] > 0
    if case == "sharded":
        assert (store / "MANIFEST.json").is_file()
        assert not (store / "records.jsonl").exists()
    second = _sweep(
        capsys, spec_path, store, *args, "--resume",
        *(["--trace", second_trace] if traced else []),
    )
    assert second["simulated"] == 0, "re-run must be 100% cache hits"
    assert second["cached"] == second["total_cells"] == first["total_cells"]

    if case == "sharded":
        # Migrating the sharded store to single-file must reproduce a fresh
        # v1 run of the same spec bit for bit, and migrate back again.
        reference = tmp_path / "v1_reference"
        _sweep(capsys, spec_path, reference, "--jobs", "2")
        assert _cli(
            capsys, "store", "migrate", store, "--to", "single-file"
        )[0] == 0
        assert (store / "records.jsonl").read_bytes() == (
            reference / "records.jsonl"
        ).read_bytes()
        assert _cli(capsys, "store", "migrate", store, "--to", "sharded")[0] == 0
        assert (store / "MANIFEST.json").stat().st_size > 0
        assert _cli(capsys, "store", "verify", store)[0] == 0
        code, out = _cli(capsys, "store", "stat", store, "--json")
        stat = json.loads(out)
        assert code == 0 and stat["layout"] == "sharded"
        assert stat["records"] == first["total_cells"] and stat["segments"] > 0

    if traced:
        # Tracing with --jobs 4 must not change a byte of the store.
        untraced = tmp_path / "untraced"
        _sweep(capsys, spec_path, untraced)
        assert (store / "records.jsonl").read_bytes() == (
            untraced / "records.jsonl"
        ).read_bytes()
        assert _cli(capsys, "trace", "validate", first_trace)[0] == 0
        assert _cli(capsys, "trace", "summary", first_trace)[0] == 0
        chrome = tmp_path / "chrome_trace.json"
        assert _cli(
            capsys, "trace", "export", second_trace, "--output", chrome
        )[0] == 0
        assert chrome.stat().st_size > 0
        first_events = read_trace(str(first_trace))
        second_events = read_trace(str(second_trace))
        assert validate_events(first_events) == []
        assert validate_events(second_events) == []
        # 2 seeds x (2 bit error rates + 1 burst) = 6 cells, all simulated.
        cells = _counters(first_events)["sweep.cells.simulated"]
        assert cells == first["total_cells"] == 6
        counters = _counters(second_events)
        assert counters["sweep.cells.cache_hit"] == cells
        assert "sweep.cells.simulated" not in counters
