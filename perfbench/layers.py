"""The traced run: span wrappers around each layer's public entry points.

Nothing under ``src/`` changes.  While a traced round runs, :class:`Patches`
swaps two kinds of names for wrappers that open a ``repro.obs`` span around
the real call and restores them afterwards:

* instance methods of the objects a workload holds (the chip, the BEEP
  profiler and its words) or creates (the store, the experiment, solvers,
  Monte-Carlo campaigns), set as instance attributes so only that object
  changes;
* module-level names at their import sites, in the library modules that call
  them (``repro.core.experiment.discover_cell_types``,
  ``repro.core.beep.gf2_solve``, ...) and in :mod:`pipeline`.

Counts of work done ride on the spans as attributes, read from the call's
arguments or result (words written, nodes visited, SAT conflicts), so they
do not depend on which counters the library itself emits.  :func:`rollup`
turns one round's JSONL trace into the per-layer metrics: self time per span
name and per layer, counts, and the share of the round under layer spans.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

from repro.obs import TRACER

#: The span around one whole round; its children are the layer spans.
ROOT_SPAN = "perfbench.round"

#: The repository's layers, in the order they are reported.
LAYERS = ("dram", "core", "einsim", "gf2", "ecc", "sat", "scenarios", "store")

#: Spans the library opens itself, by the layer they belong to.
_LIBRARY_SPAN_LAYERS = {"sweep": "scenarios", "beer": "core"}

#: Per-layer time metrics: self time summed over every span of one name.
SELF_TIME_METRICS = {
    "dram.write_s": "dram.write",
    "dram.pause_s": "dram.pause",
    "dram.read_s": "dram.read",
    "core.discover_s": "core.discover",
    "core.campaign_s": "core.campaign",
    "core.profile_s": "core.profile",
    "core.beer_s": "core.beer",
    "einsim.mc_counts_s": "einsim.mc_counts",
    "sat.solve_s": "sat.solve",
    "core.beep.craft_s": "core.beep.craft",
    "core.beep.infer_s": "core.beep.infer",
    "gf2.solve_s": "gf2.solve",
    "ecc.word_test_s": "ecc.word_test",
    "store.open_s": "store.open",
    "store.put_s": "store.put",
    "store.get_s": "store.get",
    "scenarios.resolve_code_s": "scenarios.resolve_code",
    "einsim.campaign_s": "einsim.campaign",
}

#: Per-layer count metrics: a span attribute summed over spans of some names.
COUNT_METRICS = {
    "dram.words_written": (("dram.write",), "words"),
    "dram.words_read": (("dram.read",), "words"),
    "core.beer.nodes_visited": (("core.beer",), "nodes_visited"),
    "core.beer.solutions": (("core.beer",), "solutions"),
    "einsim.words_simulated": (("einsim.mc_counts", "einsim.campaign"), "words"),
    "sat.conflicts": (("sat.solve",), "conflicts"),
    "sat.decisions": (("sat.solve",), "decisions"),
    "sat.propagations": (("sat.solve",), "propagations"),
    "core.beep.patterns_tested": (("core.beep.profile",), "patterns_tested"),
}


class Patches:
    """Attribute swaps undone, in reverse order, when the context exits."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        while self._undo:
            self._undo.pop()()

    def module(self, module_name: str, attribute: str, value: Any) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attribute)
        setattr(module, attribute, value)
        self._undo.append(lambda: setattr(module, attribute, original))

    def method(self, obj: Any, attribute: str, wrapper: Callable) -> None:
        setattr(obj, attribute, wrapper)
        self._undo.append(lambda: delattr(obj, attribute))


def spanned(
    name: str,
    fn: Callable,
    attrs: Optional[Callable[..., Dict[str, Any]]] = None,
    after: Optional[Callable[[Any], Any]] = None,
) -> Callable:
    """``fn`` inside a span called ``name``.

    ``attrs(result, *args, **kwargs)`` gives counts to attach to the span;
    ``after(result)`` may instrument the result before the caller sees it.
    """

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with TRACER.span(name) as span:
            result = fn(*args, **kwargs)
            if attrs is not None:
                for key, value in attrs(result, *args, **kwargs).items():
                    span.set_attr(key, value)
        return after(result) if after is not None else result

    return wrapper


def _instrument_profile_source(counts: Any) -> Any:
    counts.to_profile = spanned("core.profile", counts.to_profile)
    return counts


def _instrumented_class(cls: Callable, methods: Dict[str, Callable]) -> Callable:
    """A stand-in for ``cls`` whose instances carry span wrappers."""

    @functools.wraps(cls)
    def build(*args: Any, **kwargs: Any) -> Any:
        instance = cls(*args, **kwargs)
        for attribute, wrap in methods.items():
            setattr(instance, attribute, wrap(getattr(instance, attribute)))
        return instance

    return build


def _beer_attrs(solution: Any, *args: Any, **kwargs: Any) -> Dict[str, Any]:
    return {"nodes_visited": solution.nodes_visited, "solutions": solution.num_solutions}


def _sat_attrs(solution: Any, *args: Any, **kwargs: Any) -> Dict[str, Any]:
    stats = solution.solver_stats or {}
    return {
        key: int(stats.get(key, 0)) for key in ("conflicts", "decisions", "propagations")
    }


def _words_attr(result: Any, indices: Any, *args: Any, **kwargs: Any) -> Dict[str, Any]:
    return {"words": len(indices)}


def instrument(patches: Patches, pipeline: Any, state: Dict[str, Any]) -> None:
    """Install every layer wrapper the workloads can reach."""
    beer_solver = _instrumented_class(
        pipeline.BeerSolver, {"solve": lambda fn: spanned("core.beer", fn, _beer_attrs)}
    )
    patches.module(pipeline.__name__, "BeerSolver", beer_solver)
    patches.module("repro.core.experiment", "BeerSolver", beer_solver)
    patches.module(
        "repro.core.experiment",
        "discover_cell_types",
        spanned("core.discover", importlib.import_module(
            "repro.core.experiment").discover_cell_types),
    )
    patches.module(
        pipeline.__name__,
        "BeerExperiment",
        _instrumented_class(
            pipeline.BeerExperiment,
            {"measure_counts": lambda fn: spanned(
                "core.campaign", fn, after=_instrument_profile_source)},
        ),
    )
    patches.module(
        pipeline.__name__,
        "SatBeerSolver",
        _instrumented_class(
            pipeline.SatBeerSolver, {"solve": lambda fn: spanned("sat.solve", fn, _sat_attrs)}
        ),
    )
    patches.module(
        pipeline.__name__,
        "monte_carlo_observation_counts",
        spanned(
            "einsim.mc_counts",
            pipeline.monte_carlo_observation_counts,
            lambda result, code, patterns, ber, words, **kw: {
                "words": len(patterns) * words
            },
            after=_instrument_profile_source,
        ),
    )
    beep = importlib.import_module("repro.core.beep")
    patches.module(beep.__name__, "gf2_solve", spanned("gf2.solve", beep.gf2_solve))

    runner = importlib.import_module("repro.scenarios.runner")
    patches.module(
        runner.__name__,
        "resolve_code",
        spanned("scenarios.resolve_code", runner.resolve_code),
    )
    patches.module(
        runner.__name__,
        "MonteCarloCampaign",
        _instrumented_class(
            runner.MonteCarloCampaign,
            {"simulate": lambda fn: spanned(
                "einsim.campaign", fn,
                lambda result, *args, **kw: {"words": int(result.num_words)})},
        ),
    )
    store_class = pipeline.CampaignStore

    def open_store(*args: Any, **kwargs: Any) -> Any:
        with TRACER.span("store.open"):
            store = store_class(*args, **kwargs)
        store.put = spanned("store.put", store.put)
        store.get = spanned("store.get", store.get)
        return store

    patches.module(pipeline.__name__, "CampaignStore", open_store)

    for chip in state.get("chips", ()):
        patches.method(chip, "write_datawords",
                       spanned("dram.write", chip.write_datawords, _words_attr))
        patches.method(chip, "pause_refresh", spanned("dram.pause", chip.pause_refresh))
        patches.method(chip, "read_datawords",
                       spanned("dram.read", chip.read_datawords, _words_attr))

    profilers = {id(item["profiler"]): item["profiler"] for item in state.get("items", ())
                 if "profiler" in item}
    for profiler in profilers.values():
        patches.method(profiler, "craft_pattern",
                       spanned("core.beep.craft", profiler.craft_pattern))
        patches.method(profiler, "infer_errors_from_observation",
                       spanned("core.beep.infer", profiler.infer_errors_from_observation))
        patches.method(profiler, "profile", spanned(
            "core.beep.profile", profiler.profile,
            lambda result, *args, **kw: {
                "patterns_tested": result.patterns_tested,
                "miscorrections_observed": result.miscorrections_observed,
            }))
    for item in state.get("items", ()):
        if "word" in item:
            word = item["word"]
            patches.method(word, "test", spanned("ecc.word_test", word.test))


def layer_of(span_name: str) -> Optional[str]:
    head = span_name.split(".", 1)[0]
    head = _LIBRARY_SPAN_LAYERS.get(head, head)
    return head if head in LAYERS else None


def rollup(events: List[Dict[str, Any]], work_counts: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics of one traced round.

    ``work_counts`` are the round's oracle counts; the store's record and byte
    totals come from there, since the store is measured once after the round.
    """
    spans = [event for event in events if event.get("type") == "span"]
    child_time: Dict[str, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["dur"]
    self_by_name: Dict[str, float] = defaultdict(float)
    spans_by_name: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for span in spans:
        self_by_name[span["name"]] += span["dur"] - child_time[span["id"]]
        spans_by_name[span["name"]].append(span)

    metrics: Dict[str, float] = {}
    for metric, name in SELF_TIME_METRICS.items():
        metrics[metric] = self_by_name.get(name, 0.0)
    for metric, (names, attribute) in COUNT_METRICS.items():
        metrics[metric] = sum(
            span["attrs"].get(attribute, 0) for name in names for span in spans_by_name[name]
        )
    metrics["gf2.solves"] = len(spans_by_name["gf2.solve"])
    observed = sum(
        span["attrs"]["miscorrections_observed"] for span in spans_by_name["core.beep.profile"]
    )
    tested = metrics["core.beep.patterns_tested"]
    metrics["core.beep.useful_pattern_frac"] = observed / tested if tested else 0.0
    metrics["store.records"] = work_counts.get("store_records", 0)
    metrics["store.bytes"] = work_counts.get("store_bytes", 0)
    cells = spans_by_name["sweep.cell"]
    hits = sum(1 for span in cells if span["attrs"].get("cached"))
    metrics["scenarios.cache_hit_frac"] = hits / len(cells) if cells else 0.0

    layer_self: Dict[str, float] = defaultdict(float)
    for name, seconds in self_by_name.items():
        layer = layer_of(name)
        if layer is not None:
            layer_self[layer] += seconds
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = layer_self.get(layer, 0.0)

    (root,) = spans_by_name[ROOT_SPAN]
    metrics["trace.coverage_frac"] = 1.0 - self_by_name[ROOT_SPAN] / root["dur"]
    return metrics
