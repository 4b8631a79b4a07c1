"""Benchmark: reference vs fast bulk decode (corrected words + DUE masks) for every registered code family.

Thin declaration over the unified harness — parameters, tiers, conditions,
metrics and oracles are defined by the ``decoder-families`` workload in
:mod:`repro.bench.workloads`.  Run standalone with
``python benchmarks/bench_decoder.py [--quick | --tier smoke|quick|full]``,
or via ``repro bench run --workload decoder-families``.
"""

from _bench import bench_workload_test, standalone_main

WORKLOAD = "decoder-families"

test_bench_decoder_families = bench_workload_test(WORKLOAD)

if __name__ == "__main__":
    raise SystemExit(standalone_main(WORKLOAD))
