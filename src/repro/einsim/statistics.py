"""Simulation results and the statistical helpers built on them.

:class:`SimulationResult` is the one accumulator every Monte-Carlo round
produces, on both backends.  The paper reports Figure 1 as medians with 95 %
confidence intervals obtained by statistical bootstrapping over 1000
resamples; the remaining helpers provide that machinery for the
reproduction's figures.
"""

from __future__ import annotations

from repro.exceptions import DimensionError, ValidationError
import hashlib
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.gf2 import GF2Vector


@dataclass
class SimulationResult:
    """Aggregate outcome of simulating many ECC words with one test pattern."""

    #: The dataword that was written to every simulated word.
    dataword: GF2Vector
    #: Number of ECC words simulated.
    num_words: int
    #: Per-data-bit count of post-correction errors (length ``k``).
    post_correction_error_counts: np.ndarray
    #: Per-codeword-bit count of injected pre-correction errors (length ``n``).
    pre_correction_error_counts: np.ndarray
    #: Number of words whose injected error pattern was uncorrectable.
    uncorrectable_words: int
    #: Number of words in which the decoder flipped a non-erroneous bit.
    miscorrected_words: int
    #: Data-bit positions where a miscorrection was observed at least once.
    miscorrection_positions: Tuple[int, ...]
    #: Number of words the decoder flagged as detected-uncorrectable (DUE):
    #: non-zero syndrome, nothing flipped.  Always 0 for full-length SEC
    #: codes; the load-bearing signal for SEC-DED and detect-only families.
    detected_words: int = 0

    @classmethod
    def empty(cls, dataword: GF2Vector, codeword_length: int) -> "SimulationResult":
        """A zero-word result: the identity of :meth:`merge`."""
        return cls(
            dataword=dataword,
            num_words=0,
            post_correction_error_counts=np.zeros(len(dataword), dtype=np.int64),
            pre_correction_error_counts=np.zeros(codeword_length, dtype=np.int64),
            uncorrectable_words=0,
            miscorrected_words=0,
            miscorrection_positions=(),
        )

    @property
    def post_correction_error_probabilities(self) -> np.ndarray:
        """Per-data-bit post-correction error probability."""
        return self.post_correction_error_counts / max(self.num_words, 1)

    @property
    def pre_correction_error_probabilities(self) -> np.ndarray:
        """Per-codeword-bit pre-correction error probability."""
        return self.pre_correction_error_counts / max(self.num_words, 1)

    def merge(self, other: "SimulationResult") -> "SimulationResult":
        """Combine two results for the same dataword (batches, chunks)."""
        if self.dataword != other.dataword:
            raise DimensionError("cannot merge results for different datawords")
        return SimulationResult(
            dataword=self.dataword,
            num_words=self.num_words + other.num_words,
            post_correction_error_counts=(
                self.post_correction_error_counts + other.post_correction_error_counts
            ),
            pre_correction_error_counts=(
                self.pre_correction_error_counts + other.pre_correction_error_counts
            ),
            uncorrectable_words=self.uncorrectable_words + other.uncorrectable_words,
            miscorrected_words=self.miscorrected_words + other.miscorrected_words,
            miscorrection_positions=tuple(
                sorted(
                    set(self.miscorrection_positions)
                    | set(other.miscorrection_positions)
                )
            ),
            detected_words=self.detected_words + other.detected_words,
        )


@dataclass(frozen=True)
class BootstrapInterval:
    """A point estimate with a bootstrap confidence interval."""

    estimate: float
    lower: float
    upper: float
    confidence: float

    def contains(self, value: float) -> bool:
        """Return True if ``value`` lies inside the interval."""
        return self.lower <= value <= self.upper


def _derived_rng(data: np.ndarray) -> np.random.Generator:
    """A deterministic generator seeded from the sample bytes.

    Campaign records must be byte-identical and resumable (see
    :mod:`repro.store`), so falling back to an *unseeded*
    ``np.random.default_rng()`` is not acceptable: when the caller does not
    inject a generator, the bootstrap seed is derived from the data itself,
    making the interval a pure function of its inputs.
    """
    digest = hashlib.blake2b(data.tobytes(), digest_size=8).digest()
    return np.random.default_rng(int.from_bytes(digest, "little"))


def bootstrap_confidence_interval(
    samples: Sequence[float],
    statistic: Callable[[np.ndarray], float] = np.median,
    num_resamples: int = 1000,
    confidence: float = 0.95,
    rng: Optional[np.random.Generator] = None,
) -> BootstrapInterval:
    """Bootstrap a confidence interval for ``statistic`` over ``samples``.

    Without an explicit ``rng`` the resampling generator is derived
    deterministically from the sample bytes, so repeated calls on the same
    data reproduce the same interval (required on all campaign paths).
    """
    data = np.asarray(list(samples), dtype=float)
    if data.size == 0:
        raise ValidationError("cannot bootstrap an empty sample")
    if not 0 < confidence < 1:
        raise ValidationError("confidence must lie strictly between 0 and 1")
    if num_resamples < 1:
        raise ValidationError("at least one resample is required")
    generator = rng if rng is not None else _derived_rng(data)
    resample_statistics = np.empty(num_resamples, dtype=float)
    for index in range(num_resamples):
        resample = generator.choice(data, size=data.size, replace=True)
        resample_statistics[index] = float(statistic(resample))
    alpha = (1.0 - confidence) / 2.0
    lower, upper = np.quantile(resample_statistics, [alpha, 1.0 - alpha])
    return BootstrapInterval(
        estimate=float(statistic(data)),
        lower=float(lower),
        upper=float(upper),
        confidence=confidence,
    )


def relative_probabilities(counts: Sequence[float]) -> np.ndarray:
    """Normalise per-bit error counts into relative probabilities (sum = 1).

    This is how Figure 1 presents per-bit error distributions: the interesting
    signal is the *shape* across bit positions, not the absolute error rate.
    """
    values = np.asarray(list(counts), dtype=float)
    total = values.sum()
    if total <= 0:
        return np.zeros_like(values)
    return values / total


def empirical_rate(successes: int, trials: int) -> float:
    """Return a simple empirical probability, guarding against zero trials."""
    if trials < 0 or successes < 0 or successes > trials:
        raise ValidationError("successes must lie within [0, trials]")
    if trials == 0:
        return 0.0
    return successes / trials
