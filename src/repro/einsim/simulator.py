"""Vectorised Monte-Carlo simulation of ECC words (the EINSim role).

The simulator takes a code, a dataword (test pattern), an error injector and a
word count; it encodes, injects pre-correction errors, decodes, and reports
per-bit post-correction error statistics plus the miscorrection bookkeeping
that BEER and BEEP need.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.exceptions import DimensionError, ValidationError
from repro.gf2 import GF2Vector
from repro.ecc.code import SystematicLinearCode
from repro.einsim.engine import bulk_decode_outcomes, bulk_encode, resolve_backend
from repro.einsim.fused import get_kernel, packed_error_batch
from repro.einsim.statistics import SimulationResult


class EinsimSimulator:
    """Monte-Carlo ECC-word simulator for a fixed code.

    :meth:`simulate` is the library's one Monte-Carlo round loop: profiles
    and chunked campaigns run through it too.  ``backend`` selects how a
    round is simulated: ``"reference"`` runs the staged tile → inject →
    decode round on the uint8 oracle kernels, and ``"fast"`` (or ``"auto"``,
    the default) runs fused rounds that classify packed error masks
    directly.  Both consume the RNG stream identically and produce
    bit-identical results for the same seed.
    """

    def __init__(
        self,
        code: SystematicLinearCode,
        seed: Union[None, int, Sequence[int], np.random.Generator] = None,
        backend: str = "auto",
    ):
        self._code = code
        # ``default_rng`` returns a Generator unchanged, so a caller's
        # generator keeps being consumed where the caller left it.
        self._rng = np.random.default_rng(seed)
        self._backend = resolve_backend(backend)

    @property
    def code(self) -> SystematicLinearCode:
        """The code under simulation."""
        return self._code

    @property
    def backend(self) -> str:
        """The simulation backend in use (``"reference"`` or ``"fast"``)."""
        return self._backend

    def simulate(
        self,
        dataword,
        num_words: int,
        injector,
        batch_size: int = 65536,
    ) -> SimulationResult:
        """Simulate ``num_words`` ECC words storing ``dataword`` with ``injector`` errors.

        Words are drawn and classified ``batch_size`` at a time; the batch
        size fixes the RNG draw blocks, so it is part of the stream.
        """
        if batch_size < 1:
            raise ValidationError(f"batch_size must be at least 1, got {batch_size}")
        if num_words < 0:
            raise ValidationError(f"num_words cannot be negative, got {num_words}")
        data_bits = _as_dataword(dataword, self._code.num_data_bits)
        codeword = bulk_encode(self._code, data_bits.reshape(1, -1), self._backend)[0]
        result = SimulationResult.empty(
            GF2Vector(data_bits), self._code.codeword_length
        )
        kernel = get_kernel(self._code) if self._backend == "fast" else None
        remaining = num_words
        while remaining > 0:
            batch = min(batch_size, remaining)
            remaining -= batch
            if kernel is not None:
                masks = packed_error_batch(injector, codeword, batch, self._rng)
                result = result.merge(kernel.classify(masks, result.dataword))
            else:
                result = result.merge(
                    self._staged_round(result.dataword, codeword, batch, injector)
                )
        return result

    def _staged_round(
        self, dataword: GF2Vector, codeword: np.ndarray, num_words: int, injector
    ) -> SimulationResult:
        """The reference round: tile, inject, decode, compare."""
        num_data_bits = self._code.num_data_bits
        stored = np.tile(codeword, (num_words, 1))
        mask = injector.error_mask(stored, self._rng)
        received = np.bitwise_xor(stored, mask.astype(np.uint8))
        corrected, due = bulk_decode_outcomes(self._code, received, self._backend)
        data_errors = corrected[:, :num_data_bits] != stored[:, :num_data_bits]
        # A correcting family handles exactly one raw error; a detect-only
        # family corrects none, so any injected error is uncorrectable.
        correctable_errors = 0 if self._code.detect_only else 1
        miscorrection_mask = (corrected != received) & ~mask
        observed = np.flatnonzero(miscorrection_mask[:, :num_data_bits].any(axis=0))
        return SimulationResult(
            dataword=dataword,
            num_words=num_words,
            post_correction_error_counts=data_errors.sum(axis=0),
            pre_correction_error_counts=mask.sum(axis=0),
            uncorrectable_words=int((mask.sum(axis=1) > correctable_errors).sum()),
            miscorrected_words=int(miscorrection_mask.any(axis=1).sum()),
            miscorrection_positions=tuple(int(i) for i in observed),
            detected_words=int(due.sum()),
        )

    def per_bit_error_probability(
        self, dataword, num_words: int, injector
    ) -> np.ndarray:
        """Convenience wrapper returning only per-data-bit error probabilities."""
        return self.simulate(dataword, num_words, injector).post_correction_error_probabilities


def _as_dataword(dataword, expected_length: int) -> np.ndarray:
    if isinstance(dataword, GF2Vector):
        bits = dataword.to_numpy()
    else:
        bits = np.asarray(dataword, dtype=np.uint8) % 2
    if bits.ndim != 1 or bits.shape[0] != expected_length:
        raise DimensionError(
            f"dataword must have exactly {expected_length} bits, got shape {bits.shape}"
        )
    return bits.astype(np.uint8)
