"""Campaign-store layout tour: sweep, migrate, compact, verify, gc.

Runs a small sweep into a classic single-file (v1) store, migrates it to
the sharded (v2) layout, proves the caching contract survived (re-running
the sweep is 100% cache hits against the migrated store), compacts and
verifies it, then migrates back and shows the round trip reproduced the
original ``records.jsonl`` byte for byte.

Run me:
    PYTHONPATH=src python examples/store_lifecycle.py [store_dir]
"""

import sys

from repro.scenarios import SweepRunner, SweepSpec
from repro.store import (
    SHARDED,
    SINGLE_FILE,
    CampaignStore,
    store_compact,
    store_gc,
    store_migrate,
    store_stat,
    store_verify,
)

SWEEP = {
    "name": "store-lifecycle-demo",
    "num_words": 5_000,
    "chunk_size": 2048,
    "seeds": [0, 1],
    "codes": [{"data_bits": 16}, {"data_bits": 32}],
    "scenarios": [
        {"name": "uniform-random", "params": {"bit_error_rate": [1e-3, 1e-2]}},
        {"name": "burst", "params": {"burst_probability": 0.01}},
    ],
}


def main() -> None:
    store_dir = sys.argv[1] if len(sys.argv) > 1 else "lifecycle_campaign"
    spec = SweepSpec.from_dict(SWEEP)

    # 1. Populate a classic v1 store and snapshot its bytes.
    summary = SweepRunner(store=CampaignStore(store_dir)).run(spec)
    print(f"sweep: {summary.simulated} simulated, {summary.cached} cached")
    with open(f"{store_dir}/records.jsonl", "rb") as handle:
        v1_bytes = handle.read()

    # 2. Migrate to the sharded layout (proof-carrying: the old file is
    #    only removed after the record stream is re-verified).
    migrated = store_migrate(store_dir, SHARDED)
    print(f"migrate: {migrated['from']} -> {migrated['to']} "
          f"({migrated['records']} records)")
    stat = store_stat(store_dir)
    print(f"stat: layout {stat['layout']}, {stat['records']} records in "
          f"{stat['segments']} segments, {stat['bytes']} bytes")

    # 3. The content-addressed cache is layout-independent: the same sweep
    #    against the migrated store re-simulates nothing.
    rerun = SweepRunner(store=CampaignStore(store_dir)).run(spec)
    assert rerun.simulated == 0, "migration must preserve every cache key"
    print(f"re-run: {rerun.cached} cells, all cache hits")

    # 4. Housekeeping verbs: canonical rewrite, deep verify, dead-file GC.
    compacted = store_compact(store_dir)
    print(f"compact: {compacted['segments_compacted']} segments, "
          f"{compacted['bytes_before'] - compacted['bytes_after']} bytes reclaimed")
    report = store_verify(store_dir)
    print(f"verify: ok={report['ok']} ({report['records']} records checked)")
    assert report["ok"]
    store_gc(store_dir)

    # 5. Round trip home: byte-identical to the pre-migration store.
    store_migrate(store_dir, SINGLE_FILE)
    with open(f"{store_dir}/records.jsonl", "rb") as handle:
        assert handle.read() == v1_bytes, "round trip must be byte-identical"
    print("round trip v1 -> v2 -> v1: records.jsonl is byte-identical")


if __name__ == "__main__":
    main()
