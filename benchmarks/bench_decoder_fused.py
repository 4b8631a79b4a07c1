"""Benchmark: fast backend's fused Monte-Carlo rounds vs the staged reference simulation.

Thin declaration over the unified harness — parameters, tiers, conditions,
metrics and oracles are defined by the ``decoder-fused`` workload in
:mod:`repro.bench.workloads`.  Run standalone with
``python benchmarks/bench_decoder_fused.py [--quick | --tier smoke|quick|full]``,
or via ``repro bench run --workload decoder-fused``.
"""

from _bench import bench_workload_test, standalone_main

WORKLOAD = "decoder-fused"

test_bench_decoder_fused = bench_workload_test(WORKLOAD)

if __name__ == "__main__":
    raise SystemExit(standalone_main(WORKLOAD))
