"""Paper-pipeline benchmark: run one workload, check it, print its metrics.

Run from the repository root (the library is imported from ``src/``)::

    python3 perfbench/run.py --workload chip-recovery --seed 0 --seconds 10 --trace 0

A run repeats the workload in rounds for ``--seconds`` (at least three
rounds), timing each step of a round (a chip, a code, a word, a sub-sweep).
``--trace 0`` reports the end-to-end metrics with tracing off:
``units_per_ref_s`` (units per round over the round time assembled from each
step's fastest round, scaled to the reference machine's speed by a
calibration pass timed before every round), ``setup_s`` (the median of five
fresh processes timed from start until the workload is ready) and
``peak_rss_mib``.  ``--trace 1``
alternates untraced and traced rounds instead and reports the per-layer
metrics of the traced ones, the tracing overhead and the share of a traced
round covered by layer spans; the last traced round's JSONL trace is kept
under ``.perfbench/traces/``.

After every round, outside the timed region, the workload's oracles run and
its deterministic work counts must equal the first round's, or the run is not
correct.  The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it records the
environment and the round details.  The load is one process: no pools, and
BLAS/OpenMP pinned to one thread.
"""

import os

# Thread pinning must precede the first numpy import (in this process and in
# the set-up processes, which inherit the environment).
for _variable in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: Rounds per run at the least, however long a round takes (see round_seconds).
MIN_ROUNDS = 3
#: The calibration pass's fastest time on the reference machine (a 2-vCPU
#: KVM guest on a Xeon Sapphire Rapids host, Python 3.11, numpy 2.4).
REFERENCE_CALIBRATION_S = 0.25
#: Fresh processes timed for ``setup_s``.
SETUP_SAMPLES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input size; smoke is for the benchmark's self-check")
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print 'ready' and exit (one setup_s sample)")
    return parser.parse_args(argv)


def environment():
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "threads": os.environ["OMP_NUM_THREADS"],
    }


def time_setups(args):
    """Median time from spawning a fresh process until it has the workload ready.

    The clock stops when the child reports ready, before its teardown and
    interpreter exit.
    """
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--size", args.size, "--setup-only",
    ]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
            ready = child.stdout.readline()
            samples.append(time.perf_counter() - start)
            child.stdout.read()
        if child.returncode != 0 or ready.strip() != "ready":
            raise RuntimeError(f"set-up process failed: {' '.join(command)}")
    return statistics.median(samples), samples


class Run:
    """Oracle and work-count bookkeeping over the rounds of one run."""

    def __init__(self, workload, state):
        self.workload = workload
        self.state = state
        self.units = None
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.mismatches = 0
        self.notes = None

    def check(self, outputs):
        check = self.workload.check(self.state, outputs)
        self.attempted += check.attempted
        if self.reference is None:
            self.units, self.reference, self.notes = check.attempted, check.counts, check.notes
        if check.counts != self.reference:
            # A round that did different work than the first fails whole.
            self.mismatches += 1
            self.failed += check.attempted
        else:
            self.failed += check.failed
        return check


def play(steps):
    """Run one round, timing each step; returns (seconds, outputs) per step."""
    seconds, outputs = [], []
    for step in steps:
        start = time.perf_counter()
        outputs.append(step())
        seconds.append(time.perf_counter() - start)
    return seconds, outputs


def calibration_seconds():
    """Time one pass of fixed work that is not the library's: the yardstick
    for the machine's speed during a run.

    Other tenants' load can slow a whole run, which no minimum over its
    rounds removes; the run's fastest pass scales ``units_per_ref_s`` back
    to the reference machine's speed.  Half of the pass is interpreted
    Python (dict and integer operations), half numpy bit-matrix arithmetic,
    the two kinds of work the pipeline does, and it lasts about as long as a
    step, so the load slows it the way it slows the steps.  A 3.5 ms
    pure-Python kernel tracked them worse: its fastest sample often fell in
    a quiet moment that no step-long sample found.
    """
    import numpy

    bits = numpy.random.default_rng(2020).integers(0, 2, size=(512, 512), dtype=numpy.uint8)
    start = time.perf_counter()
    table, value = {}, 0
    for i in range(300_000):
        key = (i * 2654435761) & 4095
        value ^= table.get(key, i)
        table[key] = value + i
    matrix = bits
    for shift in range(1, 13):
        matrix = numpy.bitwise_xor(matrix, numpy.roll(bits, shift, axis=1))
        matrix = (matrix.astype(numpy.int32) @ bits[:, :64].astype(numpy.int32)) & 1
        matrix = numpy.repeat(matrix.astype(numpy.uint8), 8, axis=1)
    return time.perf_counter() - start


def round_seconds(rounds):
    """One round's time, assembled from each step's fastest round.

    Other tenants' load halves this kind of shared machine's speed in bursts
    of a fraction of a second to minutes, and the first round also fills
    the library's lazy caches.  Both only ever add time, so the fastest of
    three or more rounds of a short step is the reproducible figure; medians
    of whole rounds still swung by a third between runs.
    """
    return sum(min(step) for step in zip(*rounds))


def more_rounds(rounds, start, budget):
    """Another round unless the minimum is done and it would overrun the budget."""
    if len(rounds) < MIN_ROUNDS:
        return True
    typical = statistics.median(sum(seconds) for seconds in rounds)
    return time.perf_counter() - start + typical <= budget


def traced_round(workload, state, pipeline, trace_path):
    from repro.obs import TRACER, read_trace, validate_trace_file

    import layers

    with layers.Patches() as patches:
        layers.instrument(patches, pipeline, state)
        steps = workload.steps(state)
        TRACER.enable(sink_path=str(trace_path), meta={"workload": workload.name})
        try:
            with TRACER.span(layers.ROOT_SPAN, workload=workload.name):
                seconds, outputs = play(steps)
            TRACER.flush()
        finally:
            TRACER.disable()
    problems = validate_trace_file(str(trace_path))
    return seconds, outputs, read_trace(str(trace_path)), problems


def measure(args, workload, state, pipeline):
    """Rounds for ``args.seconds`` (at least three); returns the metrics."""
    run = Run(workload, state)
    if not args.trace:
        rounds, calibrations = [], []
        start = time.perf_counter()
        while more_rounds(rounds, start, args.seconds):
            calibrations.append(calibration_seconds())
            seconds, outputs = play(workload.steps(state))
            rounds.append(seconds)
            run.check(outputs)
        units_per_s = run.units / round_seconds(rounds)
        details = {
            "round_seconds": [sum(seconds) for seconds in rounds],
            "step_min_seconds": [min(step) for step in zip(*rounds)],
            "calibration_seconds": calibrations,
            "units_per_s": units_per_s,
        }
        speed = min(calibrations) / REFERENCE_CALIBRATION_S
        metrics = {"units_per_ref_s": (units_per_s * speed, "1/s")}
        return run, metrics, details

    import layers

    trace_path = ROOT / ".perfbench" / "traces" / f"{workload.name}-seed{args.seed}.jsonl"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    plain, traced, rollups, trace_problems = [], [], [], []
    start = time.perf_counter()
    while more_rounds([p + t for p, t in zip(plain, traced)], start, args.seconds):
        seconds, outputs = play(workload.steps(state))
        plain.append(seconds)
        run.check(outputs)
        seconds, outputs, events, problems = traced_round(workload, state, pipeline, trace_path)
        traced.append(seconds)
        trace_problems += problems
        rollups.append(layers.rollup(events, run.check(outputs).counts))
    details = {
        "round_seconds": [sum(seconds) for seconds in plain],
        "traced_round_seconds": [sum(seconds) for seconds in traced],
        "trace_file": str(trace_path),
    }
    metrics = {}
    for name in rollups[0]:
        values = [rollup[name] for rollup in rollups]
        if name.endswith("_s") or name.endswith("_frac"):
            metrics[name] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                run.mismatches += 1
                run.failed += run.units
            metrics[name] = values[0]
    # Each traced round against the untraced round just before it: adjacent
    # rounds share the machine's load, which drifts over minutes.
    metrics["trace.overhead_frac"] = statistics.median(
        sum(t) / sum(p) for p, t in zip(plain, traced)
    ) - 1.0
    if trace_problems:
        run.failed += run.units
        details["trace_problems"] = trace_problems[:5]
    return run, {name: (value, unit_of(name)) for name, value in metrics.items()}, details


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "fraction"
    if metric == "store.bytes":
        return "bytes"
    return "count"


def main(argv=None):
    args = parse_args(argv)
    # The benchmark measures the checkout it sits in, never an installed copy.
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import pipeline

    workload = pipeline.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of "
              f"{', '.join(pipeline.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            state = workload.setup(args.seed, workdir, args.size)
            print("ready", flush=True)
            workload.teardown(state)
            return 0
        env = environment()
        setup = None if args.trace else time_setups(args)
        state = workload.setup(args.seed, workdir, args.size)
        try:
            run, metrics, details = measure(args, workload, state, pipeline)
        finally:
            workload.teardown(state)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        # On a disk with online discard, deleted files slow the fsyncs that
        # follow until the journal commits them: commit them now, so they
        # land neither in the parent's timed rounds (for a set-up process)
        # nor in the next run's.
        os.sync()

    if setup is not None:
        metrics["setup_s"] = (setup[0], "s")
        details["setup_samples"] = setup[1]
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mib"] = (peak_kib / 1024.0, "MiB")
    details.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        unit=workload.unit, units_per_round=run.units, count_mismatches=run.mismatches,
        work_counts=run.reference, notes=run.notes,
    )
    correct = run.failed == 0 and run.mismatches == 0
    print(json.dumps({"env": env, "details": details}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
