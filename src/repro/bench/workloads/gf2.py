"""Workload: GF(2) backend comparison (reference vs fast kernels).

The 10k-word (136, 128) bulk-decode acceptance microbenchmark plus
fig6-style solver-input generation (the Monte-Carlo miscorrection profiles
the BEER solver consumes, measured through the chunked campaign runner),
decomposed into merged-schema conditions.  Every timed pair is also checked for bit-exact
output equality, so the numbers can never drift apart from correctness.
"""

from __future__ import annotations

from typing import Mapping

from repro.bench.registry import (
    BenchContext,
    MetricGate,
    WorkloadResult,
    register_workload,
)
from repro.bench.schema import ORACLE_SKIPPED

#: The simulation backends each condition pair compares.
_BACKENDS = ("reference", "fast")


def _run(params: Mapping, context: BenchContext) -> WorkloadResult:
    import numpy as np

    from repro.core import MonteCarloCampaign, charged_patterns
    from repro.ecc import random_hamming_code
    from repro.einsim.engine import bulk_decode

    floor = params["speedup_floor"]
    seed = params["seed"]
    result = WorkloadResult()

    rng = np.random.default_rng(seed)
    code = random_hamming_code(params["num_data_bits"], rng=rng)
    received = rng.integers(
        0, 2, size=(params["num_words"], code.codeword_length)
    ).astype(np.uint8)
    timings = context.control.measure_interleaved(
        {
            backend: (lambda b=backend: bulk_decode(code, received, b))
            for backend in _BACKENDS
        }
    )
    speedup = timings["reference"].best_seconds / max(
        timings["fast"].best_seconds, 1e-12
    )
    result.artifacts["bulk_decode"] = {
        "codeword_length": code.codeword_length,
        "num_data_bits": code.num_data_bits,
        "num_words": params["num_words"],
        "repeats": timings["fast"].runs,
    }
    result.add(
        "bulk-decode:reference",
        metrics={"seconds": timings["reference"].best_seconds},
    )
    result.add(
        "bulk-decode:fast",
        metrics={"seconds": timings["fast"].best_seconds, "speedup": speedup},
        oracles={
            "outputs_identical": bool(
                np.array_equal(
                    timings["reference"].last_result, timings["fast"].last_result
                )
            ),
            "speedup_floor": ORACLE_SKIPPED if floor is None else speedup >= floor,
        },
    )

    words_per_pattern = params["words_per_pattern"]
    result.artifacts["solver_input"] = []
    for length in params["dataword_lengths"]:
        code = random_hamming_code(length, rng=np.random.default_rng(seed + length))
        # The first 60 {1,2}-CHARGED patterns at a 0.5 bit error rate.
        patterns = list(charged_patterns(length, [1, 2]))[:60]
        timings = context.control.measure_interleaved(
            {
                backend: (
                    lambda b=backend, c=code, p=patterns: MonteCarloCampaign(
                        c, chunk_size=words_per_pattern, backend=b, base_seed=seed
                    ).miscorrection_profile(p, 0.5, words_per_pattern)
                )
                for backend in _BACKENDS
            }
        )
        result.artifacts["solver_input"].append(
            {
                "dataword_length": length,
                "codeword_length": code.codeword_length,
                "num_patterns": len(patterns),
                "words_per_pattern": words_per_pattern,
            }
        )
        result.add(
            f"solver-input-k{length}:reference",
            metrics={"seconds": timings["reference"].best_seconds},
        )
        result.add(
            f"solver-input-k{length}:fast",
            metrics={
                "seconds": timings["fast"].best_seconds,
                "speedup": timings["reference"].best_seconds
                / max(timings["fast"].best_seconds, 1e-12),
            },
            oracles={
                "profiles_identical": timings["reference"].last_result
                == timings["fast"].last_result
            },
        )
    return result


register_workload(
    name="gf2-backends",
    description=(
        "reference vs fast GF(2) kernels: bulk-decode microbenchmark "
        "and fig6-style solver-input generation"
    ),
    tiers={
        "smoke": dict(
            num_words=200,
            num_data_bits=32,
            dataword_lengths=(8,),
            words_per_pattern=100,
            seed=0,
            speedup_floor=None,
        ),
        "quick": dict(
            num_words=1_000,
            num_data_bits=128,
            dataword_lengths=(8,),
            words_per_pattern=200,
            seed=0,
            speedup_floor=1.0,
        ),
        "full": dict(
            num_words=10_000,
            num_data_bits=128,
            dataword_lengths=(8, 16, 32),
            words_per_pattern=2_000,
            seed=0,
            speedup_floor=5.0,
        ),
    },
    run=_run,
    gates=(
        MetricGate(
            metric="speedup",
            condition="bulk-decode:fast",
            rel_tol=0.6,
            higher_is_better=True,
        ),
    ),
    tags=("core", "perf"),
)
