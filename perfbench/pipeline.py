"""The benchmark's workloads: seeded inputs, timed pipeline steps, untimed oracles.

Every workload drives the library only through its public packages
(``repro.dram``, ``repro.core``, ``repro.ecc``, ``repro.scenarios``,
``repro.store``) and passes ``backend="auto"`` wherever an API takes one, so a
change to what ``auto`` selects shows up here as a measured change.

A workload has four parts:

* ``setup(seed, workdir, size)`` builds what a user holds before the pipeline
  starts: chips, codes, patterns, words, sweep specs, a populated store.
* ``steps(state)`` returns one round of the pipeline as a list of calls (one
  per chip, code, word or sub-sweep); the caller times each call.
* ``check(state, outputs)`` runs the correctness oracles on a round's outputs
  outside the timed region.  It returns how many units were attempted and
  failed, plus the round's deterministic work counts, which must repeat
  exactly from round to round so that "faster" can never mean "did less".
* ``teardown(state)`` removes whatever the workload wrote under ``workdir``.

The names the workloads call (``BeerExperiment``, ``BeerSolver``, ...) are
imported at module level on purpose: the traced run in :mod:`layers` swaps
them for span-recording wrappers at this import site.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List

import numpy as np

from repro.core import (
    BeepProfiler,
    BeerExperiment,
    BeerSolver,
    ExperimentConfig,
    SatBeerSolver,
    charged_patterns,
    monte_carlo_observation_counts,
)
from repro.core.beep import SimulatedWordUnderTest
from repro.dram import (
    ChipGeometry,
    DataRetentionModel,
    RetentionCalibration,
    all_vendors,
)
from repro.ecc import canonical_parity_columns, codes_equivalent, random_hamming_code
from repro.scenarios import SweepRunner, SweepSpec
from repro.store import CampaignStore, store_stat, store_verify

#: Accelerated retention calibration (raw BER 0.02 at 1 s, 0.5 at 60 s), the
#: one the library's sweep runner and CLI use, so refresh windows of tens of
#: simulated seconds stand in for the paper's minutes.
FAST_RETENTION = RetentionCalibration(1.0, 0.02, 60.0, 0.5)


@dataclass
class Check:
    """What the oracles found in one round."""

    attempted: int
    failed: int
    #: Deterministic work counts; must be equal in every round of one run.
    counts: Dict[str, Any]
    #: Outcomes worth printing that are not failures (e.g. BEEP coverage).
    notes: Dict[str, Any] = field(default_factory=dict)


Step = Callable[[], Any]


class Workload:
    """Shared defaults; see the module docstring for the four parts."""

    name = ""
    unit = ""

    def teardown(self, state: Dict[str, Any]) -> None:
        pass


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _canonical_set(codes) -> List[List[int]]:
    return sorted(
        list(canonical_parity_columns(code.parity_column_ints, code.num_parity_bits))
        for code in codes
    )


# ---------------------------------------------------------------------------
# chip-recovery: the paper's BEER methodology against simulated chips (§5)
# ---------------------------------------------------------------------------
class ChipRecovery(Workload):
    """Cell-type discovery, {1,2}-CHARGED campaign and exhaustive BEER solve.

    Two chips per manufacturer (A, B, C) with k=8 datawords on 128x8 words,
    8 rounds per refresh window: the section 5.3 study's setup.  The ECC
    function is a manufacturer property, so the seed picks the chip instances
    (their retention times).  A smaller campaign leaves rare miscorrections
    unobserved, and BEER then rules the true function out: over random seeds,
    32x8 words failed 4 of 600 chips, 64x8 words 1 of 2400 (always vendor C)
    and 128x8 words none of 1500.  At k=16 a campaign that recovers every
    chip on every seed tried needs 128x8 words and 24 rounds: 1.8 s per chip,
    too long a step to time here.
    """

    name = "chip-recovery"
    unit = "chips"
    sizes = {
        "full": dict(data_bits=8, rows=128, rounds=8, chips_per_vendor=2),
        "smoke": dict(data_bits=8, rows=32, rounds=8, chips_per_vendor=1),
    }

    def setup(self, seed: int, workdir: Path, size: str) -> Dict[str, Any]:
        params = self.sizes[size]
        retention = DataRetentionModel(FAST_RETENTION)
        per_vendor = params["chips_per_vendor"]
        chips = [
            vendor.make_chip(
                num_data_bits=params["data_bits"],
                geometry=ChipGeometry(params["rows"], 8),
                seed=seed * per_vendor + index,
                retention_model=retention,
                backend="auto",
            )
            for vendor in all_vendors()
            for index in range(per_vendor)
        ]
        config = ExperimentConfig(
            pattern_weights=(1, 2),
            refresh_windows_s=(30.0, 45.0, 60.0),
            rounds_per_window=params["rounds"],
            threshold=0.0,
            discover_cell_encoding=True,
            discovery_pause_s=60.0,
        )
        return {"chips": chips, "config": config}

    def steps(self, state: Dict[str, Any]) -> List[Step]:
        def recover(chip: Any) -> Step:
            return lambda: BeerExperiment(chip, state["config"]).run(solve=True)

        return [recover(chip) for chip in state["chips"]]

    def check(self, state: Dict[str, Any], results: List[Any]) -> Check:
        failed = 0
        counts = {}
        for index, (chip, result) in enumerate(zip(state["chips"], results)):
            solution = result.solution
            if not (solution.unique and codes_equivalent(solution.code, chip.code)):
                failed += 1
            counts[f"chip{index}"] = {
                "nodes_visited": solution.nodes_visited,
                "solutions": solution.num_solutions,
                "miscorrections": result.profile.total_miscorrections,
            }
        return Check(attempted=len(results), failed=failed, counts=counts)


# ---------------------------------------------------------------------------
# sim-recovery: the simulated correctness study (§6.1)
# ---------------------------------------------------------------------------
class SimRecovery(Workload):
    """EINSim Monte-Carlo retention profiles, then exhaustive BEER and SAT.

    The codes come from a fixed panel, not from the run's seed.  The BEER
    search over 20 random k=16 codes took 984 to 8882 nodes: a per-seed draw
    would make runs of different seeds time different problems.  The seed
    drives the Monte-Carlo error streams.
    """

    name = "sim-recovery"
    unit = "codes"
    #: Seed of the code panel; part of the workload's definition.
    panel_seed = 0
    sizes = {
        "full": dict(
            data_bits=(16, 24), codes_per_length=2, sat_data_bits=8,
            sat_codes=2, bit_error_rate=0.25, words_per_pattern=2000,
        ),
        "smoke": dict(
            data_bits=(8,), codes_per_length=1, sat_data_bits=4,
            sat_codes=1, bit_error_rate=0.25, words_per_pattern=400,
        ),
    }

    def setup(self, seed: int, workdir: Path, size: str) -> Dict[str, Any]:
        params = self.sizes[size]

        def panel(data_bits: int, count: int, solver: str) -> List[Dict[str, Any]]:
            patterns = list(charged_patterns(data_bits, [1, 2]))
            return [
                {
                    "solver": solver,
                    "code": random_hamming_code(
                        data_bits,
                        rng=np.random.default_rng([self.panel_seed, data_bits, index]),
                    ),
                    "patterns": patterns,
                    "stream": [seed, data_bits, index],
                }
                for index in range(count)
            ]

        items = []
        for data_bits in params["data_bits"]:
            items += panel(data_bits, params["codes_per_length"], "beer")
        items += panel(params["sat_data_bits"], params["sat_codes"], "sat")
        return {"items": items, "params": params}

    def steps(self, state: Dict[str, Any]) -> List[Step]:
        """Per code: Monte-Carlo profile, BEER solve, and SAT solve if asked."""
        params = state["params"]
        profiles: Dict[int, Any] = {}

        def measure(index: int, item: Dict[str, Any]) -> Any:
            counts = monte_carlo_observation_counts(
                item["code"],
                item["patterns"],
                params["bit_error_rate"],
                params["words_per_pattern"],
                rng=np.random.default_rng(item["stream"]),
                backend="auto",
            )
            profiles[index] = counts.to_profile()
            return ("profile", index, None)

        def solve(solver: str, index: int, item: Dict[str, Any]) -> Any:
            solver_class = BeerSolver if solver == "beer" else SatBeerSolver
            solution = solver_class(item["code"].num_data_bits).solve(profiles[index])
            return (solver, index, solution)

        steps: List[Step] = []
        for index, item in enumerate(state["items"]):
            steps.append(functools.partial(measure, index, item))
            for solver in ("beer", "sat") if item["solver"] == "sat" else ("beer",):
                steps.append(functools.partial(solve, solver, index, item))
        return steps

    def check(self, state: Dict[str, Any], steps: List[Any]) -> Check:
        outputs: List[Dict[str, Any]] = [{} for _ in state["items"]]
        for kind, index, solution in steps:
            outputs[index][kind] = solution
        failed = 0
        counts = {}
        for index, (item, output) in enumerate(zip(state["items"], outputs)):
            beer = output["beer"]
            ok = beer.unique and codes_equivalent(beer.code, item["code"])
            entry = {"nodes_visited": beer.nodes_visited, "solutions": beer.num_solutions}
            sat = output.get("sat")
            if sat is not None:
                ok = ok and _canonical_set(sat.codes) == _canonical_set(beer.codes)
                stats = sat.solver_stats or {}
                entry["sat"] = {
                    "models": sat.nodes_visited,
                    "solutions": sat.num_solutions,
                    "conflicts": stats.get("conflicts"),
                    "decisions": stats.get("decisions"),
                    "propagations": stats.get("propagations"),
                }
            failed += not ok
            counts[f"code{index}"] = entry
        return Check(attempted=len(outputs), failed=failed, counts=counts)


# ---------------------------------------------------------------------------
# beep-profiling: BEEP over simulated words (Fig. 8)
# ---------------------------------------------------------------------------
class BeepProfiling(Workload):
    """Two-pass BEEP with the gf2 pattern crafter on words with 2-5 weak cells.

    Weak cells fail whenever CHARGED (Fig. 8's setting), so a miscorrection
    pins its pre-correction errors exactly: an identified cell that is not a
    weak cell is an oracle failure.  Words whose weak cells are not all found
    are BEEP's known limit, recorded but not counted as failures.

    The words (codes and weak-cell positions) come from a fixed panel.  With
    weak cells that always fail, BEEP's work depends only on where they sit:
    drawn per seed, the number of crafting solves varied by a third between
    seeds.  The seed only seeds the words' failure draws, which cannot change
    an outcome at probability 1.
    """

    name = "beep-profiling"
    unit = "words"
    panel_seed = 0
    sizes = {
        "full": dict(codeword_lengths=(63, 127), weak_cells=(2, 3, 4, 5), words=2, passes=2),
        "smoke": dict(codeword_lengths=(15,), weak_cells=(2,), words=2, passes=2),
    }

    def setup(self, seed: int, workdir: Path, size: str) -> Dict[str, Any]:
        params = self.sizes[size]
        items = []
        for length in params["codeword_lengths"]:
            data_bits = length - length.bit_length()
            code = random_hamming_code(
                data_bits, rng=np.random.default_rng([self.panel_seed, length])
            )
            profiler = BeepProfiler(code, pattern_backend="gf2")
            rng = np.random.default_rng([self.panel_seed, length, 1])
            for weak in params["weak_cells"]:
                for index in range(params["words"]):
                    cells = sorted(
                        int(c) for c in rng.choice(length, size=weak, replace=False)
                    )
                    word = SimulatedWordUnderTest(
                        code, cells, per_bit_probability=1.0,
                        rng=np.random.default_rng([seed, length, weak, index]),
                    )
                    items.append({"profiler": profiler, "word": word, "cells": cells})
        return {"items": items, "passes": params["passes"]}

    def steps(self, state: Dict[str, Any]) -> List[Step]:
        return [
            functools.partial(
                item["profiler"].profile, item["word"], num_passes=state["passes"]
            )
            for item in state["items"]
        ]

    def check(self, state: Dict[str, Any], results: List[Any]) -> Check:
        failed = 0
        identified = []
        complete = 0
        for item, result in zip(state["items"], results):
            found = sorted(result.identified_set())
            failed += not set(found) <= set(item["cells"])
            complete += found == item["cells"]
            identified.append(found)
        counts = {
            "identified": identified,
            "patterns_tested": sum(r.patterns_tested for r in results),
            "miscorrections_observed": sum(r.miscorrections_observed for r in results),
        }
        return Check(
            attempted=len(results), failed=failed, counts=counts,
            notes={"fully_identified": complete},
        )


# ---------------------------------------------------------------------------
# sweep-campaign: einsim cells through the sharded store, cold then cached
# ---------------------------------------------------------------------------
def sweep_specs(seed: int, size: str) -> List[SweepSpec]:
    """The sweep, split into one sub-sweep per (code, error model) pair.

    Einsim cells: uniform and retention errors over a BER grid plus three
    burst rates, for each code length.  The split only gives the timing
    finer steps; every cell lands in the same store.
    """
    full = size == "full"
    rates = np.geomspace(1e-4, 0.1, 25 if full else 3).round(8).tolist()
    scenarios = [
        {"name": "uniform-random", "params": {"bit_error_rate": rates}},
        {"name": "data-retention-true", "params": {"bit_error_rate": rates}},
        {"name": "burst", "params": {"burst_probability": [0.01, 0.05, 0.2][: 3 if full else 1]}},
    ]
    return [
        SweepSpec.from_dict({
            "name": f"perfbench-sweep-k{data_bits}-{scenario['name']}",
            "num_words": 16000 if full else 200,
            "chunk_size": 16000 if full else 200,
            "seeds": [seed],
            "backends": ["auto"],
            "codes": [{"data_bits": data_bits, "code_seed": seed}],
            "scenarios": [scenario],
        })
        for data_bits in ((16, 32, 64) if full else (16,))
        for scenario in scenarios
    ]


def _run_sweep(store: CampaignStore, spec: SweepSpec) -> Any:
    return SweepRunner(store=store, jobs=1, processes=1).run(spec)


def _served_digest(reports: List[Any]) -> str:
    return _digest([
        [outcome.record.key, outcome.record.result]
        for report in reports
        for outcome in report.outcomes
    ])


class SweepCampaign(Workload):
    """A sweep into a fresh sharded store, then its cache-served re-run.

    Each round's cold pass simulates every cell and writes it durably (cell
    execution: code resolution, Monte-Carlo simulation, store appends); its
    warm pass reopens the store and serves every cell from it (store open,
    index lookups, record loads).  The unit is a cell completed by either
    pass, so one round completes each cell twice.

    A cell simulates 16000 words.  With 318 cells of 2000 words, creating
    and fsyncing the fresh store's segment files took a third of the cold
    pass, and that share followed the shared disk's latency from run to run:
    over ten seeds the spread of the figure (quartile distance over median)
    was 0.21 with 318 cells of 8000 words and 0.10 with 159 of 16000.
    """

    name = "sweep-campaign"
    unit = "cells"

    def setup(self, seed: int, workdir: Path, size: str) -> Dict[str, Any]:
        return {"specs": sweep_specs(seed, size), "workdir": workdir, "rounds": 0}

    def steps(self, state: Dict[str, Any]) -> List[Step]:
        state["rounds"] += 1
        directory = state["workdir"] / f"cold-{state['rounds']}"
        state["directory"] = directory
        stores: List[CampaignStore] = []

        def first() -> Any:
            stores.append(CampaignStore(str(directory), layout="sharded"))
            return _run_sweep(stores[0], state["specs"][0])

        def then(spec: SweepSpec) -> Step:
            return lambda: _run_sweep(stores[0], spec)

        def serve() -> List[Any]:
            store = CampaignStore(str(directory))
            return [_run_sweep(store, spec) for spec in state["specs"]]

        return [first] + [then(spec) for spec in state["specs"][1:]] + [serve]

    def check(self, state: Dict[str, Any], outputs: List[Any]) -> Check:
        *cold, warm = outputs
        directory = str(state["directory"])
        total = sum(spec.num_cells for spec in state["specs"])
        simulated = sum(report.simulated for report in cold)
        cached = sum(report.cached for report in warm)
        written = _served_digest(cold)
        failed = (total - simulated) + (total - cached)
        stat = store_stat(directory)
        if not (
            _served_digest(warm) == written
            and store_verify(directory)["ok"]
            and stat["records"] == total
        ):
            failed = 2 * total
        counts = {
            "simulated": simulated,
            "cached": cached,
            "store_records": stat["records"],
            "store_bytes": stat["bytes"],
            "results": written,
        }
        # The round's store stays until the run's work directory goes: file
        # deletions here (discarded blocks on the disk) slowed the next
        # round's writes.
        return Check(attempted=2 * total, failed=failed, counts=counts)


WORKLOADS = {
    workload.name: workload
    for workload in (
        ChipRecovery(), SimRecovery(), BeepProfiling(), SweepCampaign()
    )
}
