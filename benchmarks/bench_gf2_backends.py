"""Benchmark: GF(2) linear-algebra backends: reference vs fast bulk decode and solver-input construction, with bit-identity oracles.

Thin declaration over the unified harness — parameters, tiers, conditions,
metrics and oracles are defined by the ``gf2-backends`` workload in
:mod:`repro.bench.workloads`.  Run standalone with
``python benchmarks/bench_gf2_backends.py [--quick | --tier smoke|quick|full]``,
or via ``repro bench run --workload gf2-backends``.
"""

from _bench import bench_workload_test, standalone_main

WORKLOAD = "gf2-backends"

test_bench_gf2_backends = bench_workload_test(WORKLOAD)

if __name__ == "__main__":
    raise SystemExit(standalone_main(WORKLOAD))
