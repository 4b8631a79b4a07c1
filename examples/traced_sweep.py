"""A traced parallel sweep: where does the wall-clock actually go?

Runs a small fault-scenario sweep twice with the tracer enabled — first
cold (every cell simulated across a worker pool), then warm (every cell a
cache hit) — and prints the aggregate span/counter summary of each trace.
The cold trace shows execute/commit/lock/fsync time split across worker
processes merged into one consistent tree; the warm trace shows the sweep
collapsing to store reads.  The campaign store bytes are identical to an
untraced serial run — tracing never touches `records.jsonl`.

Run me:
    PYTHONPATH=src python examples/traced_sweep.py [store_dir]
"""

import os
import sys

from repro.obs import TRACER, format_summary_text, summarize_trace
from repro.scenarios import SweepRunner, SweepSpec
from repro.store import CampaignStore

SWEEP = {
    "name": "traced-demo",
    "num_words": 20_000,
    "chunk_size": 4096,
    "seeds": [0, 1],
    "codes": [{"data_bits": 16}],
    "scenarios": [
        {"name": "uniform-random", "params": {"bit_error_rate": [1e-3, 1e-2]}},
        {"name": "burst", "params": {"burst_probability": 0.01, "burst_length": 3}},
    ],
}


def traced_run(spec, store_dir, trace_path, jobs):
    TRACER.enable(sink_path=trace_path, meta={"example": "traced_sweep"})
    try:
        runner = SweepRunner(store=CampaignStore(store_dir), jobs=jobs)
        with TRACER.span("example.run", jobs=jobs):
            report = runner.run(spec)
        TRACER.flush()
    finally:
        TRACER.disable()
    # the parent adopts and deletes every worker segment at commit time;
    # drop the then-empty segment directory too
    try:
        os.rmdir(trace_path + ".segments")
    except OSError:
        pass
    return report


def main() -> None:
    store_dir = sys.argv[1] if len(sys.argv) > 1 else "traced_campaign"
    spec = SweepSpec.from_dict(SWEEP)

    print(f"sweep {spec.name!r}: {spec.num_cells} cells -> {store_dir!r}\n")
    cold = traced_run(spec, store_dir, "sweep_cold.jsonl", jobs=4)
    print(f"cold run (jobs=4): {cold.simulated} simulated, {cold.cached} cached")
    print(format_summary_text(summarize_trace("sweep_cold.jsonl")))

    warm = traced_run(spec, store_dir, "sweep_warm.jsonl", jobs=4)
    print(f"\nwarm run (jobs=4): {warm.simulated} simulated, {warm.cached} cached")
    print(format_summary_text(summarize_trace("sweep_warm.jsonl")))

    print(
        "\nexplore further:\n"
        "  PYTHONPATH=src python -m repro.cli trace report sweep_cold.jsonl\n"
        "  PYTHONPATH=src python -m repro.cli trace export sweep_cold.jsonl "
        "--output chrome.json   # load in ui.perfetto.dev"
    )


if __name__ == "__main__":
    main()
