"""Benchmark of ``thd``: one workload per process, a closed loop with one caller.

Usage, from the root of a checkout::

    python3 bench/run.py --workload hh-bar --seed 1 --seconds 30 --trace 0

The run imports ``thd`` from ``src/`` (no install step), builds the
workload's inputs from the seed, then repeats whole rounds of the workload
until the next round would end after ``--seconds``, always at least one.
Caches start cold in every round.  Outputs are checked against
``oracles`` outside the timed region.

``--trace 0`` reports the end-to-end metrics: the median round time
``wall_s``, the median set-up time ``setup_s`` over several set-ups, and
``peak_rss_mb``.  Both times are taken at a fixed pace (``pace.py``): a
reference computation timed during the rounds and between set-ups
measures how fast the shared machine runs at the time.  ``--trace 1``
spends the first half of the time on untraced rounds and the rest on
traced ones, and reports the per-layer metrics, medians over traced
rounds, plus the tracing overhead.  The last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
# Every set-up compiles thd from source, whatever the environment, and the
# checkout is left without bytecode caches.
sys.dont_write_bytecode = True

import oracles  # noqa: E402
import pace as pacing  # noqa: E402
import spans as tracing  # noqa: E402
from workloads import WORKLOADS, Ops  # noqa: E402

SETUP_REPEATS = 15
SETUP_UNITS = 4  # compile units timed after each set-up
RESULTS = HERE / "results"


def _import_thd():
    """Import ``thd`` and ``thd.cli`` afresh; returns (lib namespace, seconds)."""
    for name in [n for n in sys.modules if n == "thd" or n.startswith("thd.")]:
        del sys.modules[name]
    start = time.perf_counter()
    thd = importlib.import_module("thd")
    cli = importlib.import_module("thd.cli")
    elapsed = time.perf_counter() - start
    ai = importlib.import_module("thd.ainfty")
    budget_mod = sys.modules.get("thd.ainfty.budget")
    lib = types.SimpleNamespace(
        thd=thd, cli=cli, ai=ai,
        examples=importlib.import_module("thd.ainfty.examples"),
        budget_default=getattr(budget_mod, "DEFAULT_BUDGET", 10_000_000),
    )
    return lib, elapsed


def _clear_caches() -> None:
    """Empty every lru_cache in ``thd`` so that a round starts cold, as a CLI call does."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "thd" or name.startswith("thd.")):
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                value.cache_clear()


class Loop:
    """Runs rounds, checks the first one fully and the rest for repetition."""

    def __init__(self, workload, lib, inputs):
        self.workload, self.lib, self.inputs = workload, lib, inputs
        self.pace = pacing.Pace(workload.pace)
        self.pacing = True  # time reference units during the rounds
        self.walls = []  # round times without the reference units
        self.spans = []  # round times with them, to plan the rounds
        self.attempted = self.failed = 0
        self.failures = []
        self.first_digest = None

    def once(self):
        _clear_caches()
        gc.collect()
        ops = Ops()
        paused = self.pace.paused
        with self.pace.during() if self.pacing else contextlib.nullcontext():
            start = time.perf_counter()
            outputs = self.workload.run(self.lib, self.inputs, ops)
            span = time.perf_counter() - start
            paused = self.pace.paused - paused
        self.spans.append(span)
        self.walls.append(span - paused)
        self.attempted += ops.attempted
        self.failed += ops.failed
        digest = self.workload.digest(outputs)
        for error in ops.errors:
            print(f"failed: {error}", file=sys.stderr)
        if self.first_digest is None:
            self.failures += self.workload.check(self.lib, self.inputs, outputs)
            self.first_digest = digest
        elif digest != self.first_digest:
            self.failures.append(f"round {len(self.walls)} gave different outputs")
        return ops

    def until(self, deadline):
        """Rounds until the next one, at the median pace, would pass the deadline."""
        while True:
            ops = self.once()
            yield ops
            if time.perf_counter() + statistics.median(self.spans) > deadline:
                return


def _metric(value, unit):
    if value is None:
        return {"value": None, "unit": unit, "absent": True}
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = HERE.parent / "src"
    if not (src / "thd" / "__init__.py").is_file():
        print(f"error: no thd sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    broken = oracles.self_test()
    if broken:
        print("\n".join(broken), file=sys.stderr)
        return 3

    workload = WORKLOADS[args.workload]
    run_start = time.perf_counter()
    import_times, setup_times = [], []
    setup_pace = pacing.Pace("compile")
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        lib, imported = _import_thd()
        inputs = workload.setup(lib, args.seed)
        setup_times.append(time.perf_counter() - start)
        import_times.append(imported)
        setup_pace.sample(SETUP_UNITS)
    deadline = run_start + args.seconds
    loop = Loop(workload, lib, inputs)

    if not args.trace:
        for _ in loop.until(deadline):
            pass
        metrics = {
            "wall_s": _metric(loop.pace.paced(statistics.median(loop.walls)), "s"),
            "setup_s": _metric(setup_pace.paced(statistics.median(setup_times)), "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = _traced(args, workload, lib, loop, run_start, deadline)
        metrics["import_s"] = _metric(statistics.median(import_times), "s")

    result = {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    for failure in loop.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(f"{args.workload}: {len(loop.walls)} rounds, walls {[round(w, 4) for w in loop.walls]}, "
          f"median reference unit {statistics.median(loop.pace.units):.5f} s "
          f"over {len(loop.pace.units)} {workload.pace} units (nominal {loop.pace.nominal} s)")
    print(json.dumps(result))
    return 0


def _traced(args, workload, lib, loop, run_start, deadline):
    """Untraced rounds for half the time, then traced ones; per-layer medians."""
    for _ in loop.until(run_start + (deadline - run_start) / 2):
        pass
    untraced = list(loop.walls)
    loop.pacing = False  # units inside traced rounds would count in the spans
    tracer = tracing.Tracer()
    tracer.install()
    try:
        mark = tracer.mark()
        loop.inputs = workload.setup(lib, args.seed)
        setup_layers = tracer.aggregate(mark, tracer.mark())
        setup_layers.update(tracer.take_counters())
        keep = tracer.mark()
        rounds = []
        for ops in loop.until(deadline):
            layers = tracer.aggregate(keep, tracer.mark())
            layers.update(tracer.take_counters())
            layers.update(tracing.cache_misses())
            if getattr(lib.ai, "Budget", None) is not None:
                layers["budget.spent"] = sum(b.spent for b in ops.budgets)
            rounds.append(layers)
            if len(rounds) == 1:
                keep = tracer.mark()
            else:
                del tracer.spans[keep:]
    finally:
        tracer.uninstall()
    traced = loop.walls[len(untraced):]
    tracer.write(RESULTS / f"trace-{args.workload}-seed{args.seed}.jsonl.gz", keep)

    metrics = {}
    for name, unit in tracing.metric_units().items():
        values = [r[name] for r in rounds if name in r]
        if not values:
            metrics[name] = _metric(None, unit)
            continue
        middle = statistics.median_low if unit == "count" else statistics.median
        metrics[name] = _metric(middle(values) + setup_layers.get(name, 0), unit)
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = _metric(loop.pace.paced(overhead), "s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
