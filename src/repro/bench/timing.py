"""Measurement control: warmup / repeat / minimum-time loops for the driver.

Workload runners receive a :class:`RunControl` describing how carefully to
measure (nothing at smoke tier, best-of-repeats with a minimum time budget at
full tier) and call :meth:`RunControl.measure` around the hot path, or
:meth:`RunControl.measure_interleaved` around paired sections whose ratio
they report.  Keeping the loop here means every benchmark measures the same
way and the tier knobs live in one place.
"""

from __future__ import annotations

from repro.exceptions import ValidationError
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping


@dataclass(frozen=True)
class RunControl:
    """How to measure one timed section.

    ``warmup`` un-timed calls precede measurement (filling code and syndrome
    caches); the section then runs at least ``repeats`` timed iterations and
    keeps iterating until ``min_time_s`` of measured time has accumulated
    (bounded by ``max_repeats``); the best (minimum) time is reported, the
    standard robust choice for wall-clock microbenchmarks.
    """

    warmup: int = 1
    repeats: int = 3
    min_time_s: float = 0.0
    max_repeats: int = 50

    def measure(self, fn: Callable[[], object]) -> "Measurement":
        """Run ``fn`` under this control and return its timing summary."""
        return self.measure_interleaved({"": fn})[""]

    def measure_interleaved(
        self, fns: Mapping[str, Callable[[], object]]
    ) -> Dict[str, "Measurement"]:
        """Time several named callables in alternating order; one summary each.

        Every round runs each callable once, and the order reverses from one
        round to the next, so paired sections (a reference and a fast path)
        are timed under the same machine load and neither always runs first.
        ``min_time_s`` bounds the measured time of all callables together.
        """
        for _ in range(self.warmup):
            for fn in fns.values():
                fn()
        times: Dict[str, List[float]] = {name: [] for name in fns}
        results: Dict[str, object] = {}
        order = list(fns)
        rounds = 0
        total = 0.0
        while rounds < self.repeats or (
            total < self.min_time_s and rounds < self.max_repeats
        ):
            for name in order:
                start = time.perf_counter()
                results[name] = fns[name]()
                elapsed = time.perf_counter() - start
                times[name].append(elapsed)
                total += elapsed
            order.reverse()
            rounds += 1
        return {
            name: Measurement(
                best_seconds=min(section),
                mean_seconds=sum(section) / rounds,
                runs=rounds,
                last_result=results[name],
            )
            for name, section in times.items()
        }

    def time_once(self, fn: Callable[[], object]) -> "Measurement":
        """Measure a single un-warmed call (for stateful one-shot sections).

        Incremental solvers and cache-building runs change behaviour when
        repeated; those sections are timed exactly once regardless of the
        control's repeat settings.
        """
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        return Measurement(
            best_seconds=elapsed, mean_seconds=elapsed, runs=1, last_result=result
        )


@dataclass
class Measurement:
    """Outcome of one measured section."""

    best_seconds: float
    mean_seconds: float
    runs: int
    last_result: object = None


#: Per-tier measurement defaults.  Smoke is correctness-only (single cold
#: run); quick keeps CI latency low; full buys stable numbers for baselines.
TIER_CONTROLS: Dict[str, RunControl] = {
    "smoke": RunControl(warmup=0, repeats=1, min_time_s=0.0),
    "quick": RunControl(warmup=1, repeats=3, min_time_s=0.0),
    "full": RunControl(warmup=1, repeats=5, min_time_s=0.25),
}

TIERS = tuple(TIER_CONTROLS)


def control_for_tier(tier: str) -> RunControl:
    try:
        return TIER_CONTROLS[tier]
    except KeyError:
        raise ValidationError(
            f"unknown tier {tier!r} (expected one of {sorted(TIER_CONTROLS)})"
        ) from None
