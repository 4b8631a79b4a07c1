"""Declarative fault-scenario sweep with a persistent, resumable store.

Expands a sweep spec — error mechanisms × BERs × code sizes — into
a deterministic experiment matrix, runs it through the chunked Monte-Carlo
campaign machinery, and persists every cell in a content-addressed campaign
store.  Running the script a second time serves the whole matrix from cache;
deleting the store directory starts fresh.  Pass a job count to fan the
cache-miss cells out over worker processes — the store bytes are identical
either way.

Run me:
    PYTHONPATH=src python examples/scenario_sweep.py [store_dir] [jobs]
"""

import sys

from repro.analysis import campaign_report_data
from repro.scenarios import SweepRunner, SweepSpec
from repro.store import CampaignStore

SWEEP = {
    "name": "error-mechanism-matrix",
    "num_words": 20_000,
    "chunk_size": 4096,
    "seeds": [0],
    "codes": [{"data_bits": 16}, {"data_bits": 32, "code_seed": 7}],
    "scenarios": [
        # The paper's core mechanisms ...
        {"name": "uniform-random", "params": {"bit_error_rate": [1e-3, 1e-2]}},
        {"name": "data-retention-true", "params": {"bit_error_rate": [1e-3, 1e-2]}},
        {"name": "data-retention-mixed", "params": {"bit_error_rate": 1e-2}},
        # ... and the Section 7.1.5-style extensions beyond retention faults.
        {"name": "burst", "params": {"burst_probability": 0.01, "burst_length": [2, 4]}},
        {"name": "row-stripe", "params": {"row_probability": 0.02}},
        {
            "name": "transient-stuck-overlay",
            "params": {"transient_probability": 1e-3, "stuck_fraction": 1e-2},
        },
    ],
}


def main() -> None:
    store_dir = sys.argv[1] if len(sys.argv) > 1 else "scenario_campaign"
    jobs = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    spec = SweepSpec.from_dict(SWEEP)
    store = CampaignStore(store_dir)
    runner = SweepRunner(store=store, jobs=jobs)

    print(f"sweep {spec.name!r}: {spec.num_cells} cells -> store {store_dir!r} "
          f"(jobs={jobs})")
    report = runner.run(
        spec,
        progress=lambda outcome: print(
            f"  [{'cache' if outcome.cached else 'sim  '}] "
            f"{outcome.record.key[:12]} "
            f"{outcome.record.config.get('scenario', outcome.cell.kind)}"
        ),
    )
    print(f"done: {report.simulated} simulated, {report.cached} from cache\n")

    data = campaign_report_data(store)
    print(f"{'scenario':<24} {'cells':>5} {'words':>8} {'post-BER':>10} "
          f"{'uncorrectable':>14} {'miscorrected':>13}")
    for row in data["scenarios"]:
        print(f"{row['scenario']:<24} {row['cells']:>5} {row['num_words']:>8} "
              f"{row['post_correction_ber']:>10.3e} "
              f"{row['uncorrectable_fraction']:>13.3%} "
              f"{row['miscorrected_fraction']:>12.3%}")
    print("\nre-run me: every cell above is now a cache hit.")


if __name__ == "__main__":
    main()
