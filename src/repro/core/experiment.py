"""End-to-end BEER experimental campaign against a (simulated) DRAM chip.

This module glues the pieces of Section 5 together, treating the chip as a
black box that only supports write / pause-refresh / read:

1. (optionally) discover each row's cell encoding (Section 5.1.1);
2. write every k-CHARGED test pattern to a rotating set of ECC words, sweep
   the refresh window, and record which DISCHARGED data bits exhibit
   post-correction errors (Section 5.1.3);
3. apply the threshold filter to the resulting counts (Section 5.2);
4. run the BEER solver on the miscorrection profile and, if requested, check
   the solution's uniqueness (Section 5.3).
"""

from __future__ import annotations

import functools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ChipConfigurationError
from repro.dram.cell import CellType
from repro.dram.chip import SimulatedDramChip
from repro.ecc.code import SystematicLinearCode
from repro.ecc.hamming import min_parity_bits
from repro.einsim.engine import resolve_backend
from repro.einsim.simulator import EinsimSimulator, SimulationResult
from repro.core.beer import BeerSolution, BeerSolver
from repro.core.layout_re import discover_cell_types
from repro.core.patterns import ChargedPattern, charged_patterns
from repro.core.profile import MiscorrectionCounts, MiscorrectionProfile


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of a BEER campaign (mirroring the paper's experimental sweep)."""

    #: Which k-CHARGED pattern weights to test ({1,2} suffices for shortened codes).
    pattern_weights: Tuple[int, ...] = (1, 2)
    #: Refresh windows (seconds) to sweep; longer windows induce more errors.
    refresh_windows_s: Tuple[float, ...] = (600.0, 1200.0, 1800.0)
    #: Ambient temperature during the refresh pauses.
    temperature_c: float = 80.0
    #: Number of write/pause/read rounds per window; the pattern-to-word
    #: assignment rotates between rounds so each pattern samples fresh cells.
    rounds_per_window: int = 4
    #: Threshold (per-word error probability) separating miscorrections from noise.
    threshold: float = 0.0
    #: Assumed number of parity bits (``None`` = minimum for the dataword length).
    num_parity_bits: Optional[int] = None
    #: Run the cell-type discovery step before the campaign.
    discover_cell_encoding: bool = True
    #: Refresh pause used for the cell-type discovery step.
    discovery_pause_s: float = 1800.0


@dataclass
class ExperimentResult:
    """Everything a BEER campaign produces."""

    counts: MiscorrectionCounts
    profile: MiscorrectionProfile
    solution: Optional[BeerSolution]
    cell_types: Dict[int, CellType] = field(default_factory=dict)

    @property
    def recovered_code(self):
        """The uniquely recovered ECC function (raises if not unique)."""
        if self.solution is None:
            raise ChipConfigurationError("the campaign was run with solving disabled")
        return self.solution.code


class BeerExperiment:
    """Runs the BEER methodology against a chip through its public interface."""

    def __init__(self, chip: SimulatedDramChip, config: Optional[ExperimentConfig] = None):
        self._chip = chip
        self._config = config if config is not None else ExperimentConfig()
        if chip.num_data_bits < 2:
            raise ChipConfigurationError("BEER needs at least two data bits per word")

    @property
    def chip(self) -> SimulatedDramChip:
        """The chip under test."""
        return self._chip

    @property
    def config(self) -> ExperimentConfig:
        """The campaign configuration."""
        return self._config

    # -- campaign steps -----------------------------------------------------------
    def discover_cell_types(self) -> Dict[int, CellType]:
        """Step 0: classify each row as true- or anti-cell (Section 5.1.1)."""
        return discover_cell_types(
            self._chip,
            refresh_pause_s=self._config.discovery_pause_s,
            temperature_c=self._config.temperature_c,
        )

    def measure_counts(
        self, cell_types: Optional[Dict[int, CellType]] = None
    ) -> MiscorrectionCounts:
        """Steps 1-2: run the pattern/refresh sweep and collect error counts.

        Each round assigns the test patterns round-robin to the true-cell
        words, rotated by one pattern per round so each pattern samples fresh
        cells; writes every word in one call, pauses refresh for the window,
        reads every word back in one call, and tallies the post-correction
        errors per (pattern, data bit) in one pass.  Patterns are recorded in
        the order they were first written.
        """
        num_data_bits = self._chip.num_data_bits
        patterns = list(charged_patterns(num_data_bits, list(self._config.pattern_weights)))
        if not patterns:
            raise ChipConfigurationError("the BEER campaign needs at least one test pattern")
        # Like the paper's analysis, the campaign profiles the true-cell
        # regions; anti-cell rows would need the mirrored charge translation
        # inside the solver and are simply skipped here.
        word_rows = np.arange(self._chip.num_words) // self._chip.geometry.words_per_row
        skipped_rows = [
            row
            for row, cell_type in (cell_types or {}).items()
            if cell_type is not CellType.TRUE_CELL
        ]
        eligible_words = np.flatnonzero(~np.isin(word_rows, skipped_rows))
        if not eligible_words.size:
            raise ChipConfigurationError(
                "no true-cell words available for the BEER campaign"
            )

        num_patterns = len(patterns)
        datawords = np.array(
            [pattern.dataword(CellType.TRUE_CELL).to_numpy() for pattern in patterns],
            dtype=np.uint8,
        )
        positions = np.arange(eligible_words.size)
        bit_errors = np.zeros(num_patterns * num_data_bits, dtype=np.int64)
        words_per_pattern = np.zeros(num_patterns, dtype=np.int64)
        offset = 0
        for window in self._config.refresh_windows_s:
            for _ in range(self._config.rounds_per_window):
                which = (positions + offset) % num_patterns
                offset += 1
                expected = datawords[which]
                self._chip.write_datawords(eligible_words, expected)
                self._chip.pause_refresh(window, self._config.temperature_c)
                observed = self._chip.read_datawords(eligible_words)
                error_words, error_bits = np.nonzero(observed != expected)
                bit_errors += np.bincount(
                    which[error_words] * num_data_bits + error_bits,
                    minlength=bit_errors.size,
                )
                words_per_pattern += np.bincount(which, minlength=num_patterns)

        counts = MiscorrectionCounts(num_data_bits)
        per_bit = bit_errors.reshape(num_patterns, num_data_bits)
        # The rotation starts at offset 0 and advances one pattern per round,
        # so patterns are first written in list order: recording the written
        # ones in that order keeps ``counts.patterns`` in first-write order.
        for index in np.flatnonzero(words_per_pattern):
            counts.record_counts(
                patterns[index], per_bit[index], int(words_per_pattern[index])
            )
        return counts

    def run(self, solve: bool = True, max_solutions: Optional[int] = None) -> ExperimentResult:
        """Run the full campaign and (optionally) solve for the ECC function."""
        cell_types: Dict[int, CellType] = {}
        if self._config.discover_cell_encoding:
            cell_types = self.discover_cell_types()
        counts = self.measure_counts(cell_types if cell_types else None)
        profile = counts.to_profile(self._config.threshold)
        solution = None
        if solve:
            solver = BeerSolver(
                self._chip.num_data_bits,
                self._config.num_parity_bits
                if self._config.num_parity_bits is not None
                else min_parity_bits(self._chip.num_data_bits),
            )
            solution = solver.solve(profile, max_solutions=max_solutions)
        return ExperimentResult(
            counts=counts, profile=profile, solution=solution, cell_types=cell_types
        )


# ---------------------------------------------------------------------------
# Chunked / multiprocessing Monte-Carlo campaign runner
# ---------------------------------------------------------------------------

#: Per-process cache of rebuilt codes so multiprocessing workers do not pay
#: the code-construction cost for every chunk they receive.  Keyed on the
#: full code identity including family tag and decode policy: a detect-only
#: code must never be rebuilt as a correcting one.
_WORKER_CODE_CACHE: Dict[
    Tuple[Tuple[int, ...], int, str, bool], SystematicLinearCode
] = {}


def _worker_code(
    parity_columns: Tuple[int, ...],
    num_parity_bits: int,
    family: str,
    detect_only: bool,
) -> SystematicLinearCode:
    key = (parity_columns, num_parity_bits, family, detect_only)
    if key not in _WORKER_CODE_CACHE:
        _WORKER_CODE_CACHE[key] = SystematicLinearCode.from_parity_columns(
            parity_columns, num_parity_bits, family=family, detect_only=detect_only
        )
    return _WORKER_CODE_CACHE[key]


def _run_simulation_chunk(job) -> SimulationResult:
    """Simulate one chunk of ECC words (module-level so it pickles cleanly)."""
    (parity_columns, num_parity_bits, family, detect_only, dataword_bits,
     injector, chunk_words, base_seed, dataword_value, chunk_index, backend) = job
    code = _worker_code(tuple(parity_columns), num_parity_bits, family, detect_only)
    # Seeding on (base_seed, dataword content, chunk within that dataword)
    # makes each dataword's result independent of its position in a batch, so
    # simulate_many(ds)[i] == simulate(ds[i]) for every batch composition.
    simulator = EinsimSimulator(
        code, seed=[base_seed, dataword_value, chunk_index], backend=backend
    )
    return simulator.simulate(np.asarray(dataword_bits, dtype=np.uint8), chunk_words, injector)


class MonteCarloCampaign:
    """Chunked — and optionally multiprocessing — EINSim campaign runner.

    Splits a large word count into fixed-size chunks, simulates each chunk
    with its own deterministic seed (derived from ``base_seed`` and the chunk
    index) and merges the per-chunk :class:`SimulationResult` objects.  Every
    chunk, in-process or in a worker, is one
    :meth:`~repro.einsim.simulator.EinsimSimulator.simulate` call, so for a
    fixed ``chunk_size`` the result is bit-identical regardless of the number
    of worker processes, and identical across the ``reference`` and ``fast``
    backends.

    Parameters
    ----------
    code:
        The ECC function under simulation.
    chunk_size:
        Number of ECC words simulated per chunk, each from its own RNG
        stream.
    processes:
        ``1`` runs every chunk inline; larger values distribute the chunks
        over a :class:`~concurrent.futures.ProcessPoolExecutor`.
    backend:
        Simulation backend: ``"reference"`` (the staged oracle) or
        ``"fast"``; ``"auto"``, the default, names ``"fast"``.
    base_seed:
        Root seed for the per-chunk RNG streams.
    """

    def __init__(
        self,
        code: SystematicLinearCode,
        chunk_size: int = 65536,
        processes: int = 1,
        backend: str = "auto",
        base_seed: int = 0,
    ):
        if chunk_size < 1:
            raise ChipConfigurationError("chunk size must be at least one word")
        if processes < 1:
            raise ChipConfigurationError("at least one process is required")
        self._code = code
        self._chunk_size = int(chunk_size)
        self._processes = int(processes)
        self._backend = resolve_backend(backend)
        self._base_seed = int(base_seed)

    @property
    def code(self) -> SystematicLinearCode:
        """The code under simulation."""
        return self._code

    @property
    def backend(self) -> str:
        """The simulation backend in use (``"reference"`` or ``"fast"``)."""
        return self._backend

    def simulate(self, dataword, injector, num_words: int) -> SimulationResult:
        """Simulate ``num_words`` ECC words storing ``dataword``, in chunks."""
        results = self.simulate_many([dataword], injector, num_words)
        return results[0]

    def simulate_many(
        self, datawords: Sequence, injector, words_per_dataword: int
    ) -> List[SimulationResult]:
        """Simulate several datawords, ``words_per_dataword`` words each.

        Every (dataword, chunk) pair becomes one job; jobs are distributed
        over the worker pool (when ``processes > 1``) and the per-dataword
        results are merged in deterministic chunk order.  Chunk RNG streams
        are seeded from (base seed, dataword content, chunk index), so each
        dataword's result is independent of its position in the batch —
        ``simulate_many(ds, ...)[i]`` equals ``simulate(ds[i], ...)``.  The
        flip side: duplicate datawords in one batch receive identical RNG
        streams, not independent samples.
        """
        if words_per_dataword < 1:
            raise ChipConfigurationError("at least one word per dataword is required")
        jobs = []
        boundaries: List[Tuple[int, int]] = []
        parity_columns = tuple(self._code.parity_column_ints)
        num_parity_bits = self._code.num_parity_bits
        family = self._code.family_name
        detect_only = self._code.detect_only
        for dataword in datawords:
            bits = self._dataword_bits(dataword)
            # LSB-first integer encoding of the dataword, used as seed entropy.
            dataword_value = sum(bit << i for i, bit in enumerate(bits))
            start = len(jobs)
            remaining = words_per_dataword
            chunk_index = 0
            while remaining > 0:
                chunk_words = min(self._chunk_size, remaining)
                remaining -= chunk_words
                jobs.append(
                    (parity_columns, num_parity_bits, family, detect_only, bits,
                     injector, chunk_words, self._base_seed, dataword_value,
                     chunk_index, self._backend)
                )
                chunk_index += 1
            boundaries.append((start, len(jobs)))

        if self._processes == 1 or len(jobs) == 1:
            chunk_results = [_run_simulation_chunk(job) for job in jobs]
        else:
            with ProcessPoolExecutor(max_workers=self._processes) as pool:
                chunk_results = list(pool.map(_run_simulation_chunk, jobs))

        return [
            functools.reduce(SimulationResult.merge, chunk_results[start:stop])
            for start, stop in boundaries
        ]

    def miscorrection_profile(
        self,
        patterns: Sequence[ChargedPattern],
        bit_error_rate: float,
        words_per_pattern: int,
        cell_type: CellType = CellType.TRUE_CELL,
    ) -> MiscorrectionProfile:
        """Measure a miscorrection profile with chunked data-retention runs.

        Convenience wrapper: simulates every pattern's dataword under a
        data-retention injector and records post-correction errors observed
        at DISCHARGED data bits, exactly like
        :func:`repro.core.profile.monte_carlo_miscorrection_profile` but
        through the chunked (and optionally parallel) campaign machinery.
        """
        from repro.einsim.injectors import DataRetentionInjector

        injector = DataRetentionInjector(bit_error_rate, cell_type)
        datawords = [pattern.dataword(cell_type) for pattern in patterns]
        results = self.simulate_many(datawords, injector, words_per_pattern)
        profile = MiscorrectionProfile(self._code.num_data_bits)
        for pattern, result in zip(patterns, results):
            discharged = pattern.discharged_bits
            observed = np.flatnonzero(result.post_correction_error_counts > 0)
            profile.record(
                pattern, [int(b) for b in observed if int(b) in discharged]
            )
        return profile

    def _dataword_bits(self, dataword) -> Tuple[int, ...]:
        from repro.gf2 import GF2Vector

        if isinstance(dataword, GF2Vector):
            return tuple(dataword.to_list())
        bits = np.asarray(dataword, dtype=np.uint8) % 2
        return tuple(int(b) for b in bits)
