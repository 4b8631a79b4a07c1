"""EINSim-equivalent ECC-word error-injection simulator.

The paper evaluates BEER and BEEP with EINSim, the authors' open-source DRAM
error-correction simulator.  This package provides the equivalent Monte-Carlo
machinery in Python:

* :mod:`repro.einsim.injectors` — pre-correction error models (uniform-random
  bit errors, data-retention errors restricted to CHARGED cells, fixed error
  counts, arbitrary per-bit probabilities);
* :mod:`repro.einsim.engine` — batched encode/syndrome/decode kernels with
  two selectable backends (``reference`` uint8 oracle, ``fast`` uint64
  bit-packed kernels and fused whole-round pipeline);
* :mod:`repro.einsim.fused` — the fast backend's round body: packed error
  batches and per-code classification kernels;
* :mod:`repro.einsim.simulator` — the one Monte-Carlo round loop (encode →
  inject → decode or classify → accumulate), behind every profile and
  campaign entry point;
* :mod:`repro.einsim.statistics` — :class:`SimulationResult`, the one
  accumulator both backends produce, plus bootstrap confidence intervals and
  summary helpers used when reproducing the paper's figures.
"""

from repro.einsim.injectors import (
    BurstErrorInjector,
    CompositeInjector,
    DataRetentionInjector,
    FaultModelInjector,
    FixedErrorCountInjector,
    MixedCellRetentionInjector,
    PerBitBernoulliInjector,
    RowStripeInjector,
    UniformRandomInjector,
)
from repro.einsim.engine import (
    BACKENDS,
    bulk_decode,
    bulk_encode,
    bulk_syndrome_values,
    resolve_backend,
)
from repro.einsim.fused import (
    FusedKernel,
    PackedErrorBatch,
    get_kernel,
    packed_error_batch,
)
from repro.einsim.simulator import EinsimSimulator, SimulationResult
from repro.einsim.statistics import (
    bootstrap_confidence_interval,
    BootstrapInterval,
    relative_probabilities,
)

__all__ = [
    "BurstErrorInjector",
    "CompositeInjector",
    "DataRetentionInjector",
    "FaultModelInjector",
    "FixedErrorCountInjector",
    "MixedCellRetentionInjector",
    "PerBitBernoulliInjector",
    "RowStripeInjector",
    "UniformRandomInjector",
    "EinsimSimulator",
    "SimulationResult",
    "BACKENDS",
    "bulk_decode",
    "bulk_encode",
    "bulk_syndrome_values",
    "resolve_backend",
    "FusedKernel",
    "PackedErrorBatch",
    "get_kernel",
    "packed_error_batch",
    "bootstrap_confidence_interval",
    "BootstrapInterval",
    "relative_probabilities",
]
