"""Parallel sliced image computation and the batch sweep runner.

Walkthrough of the scaling layers added on top of the paper's
algorithms:

1. the *sliced execution strategy* — one big transition-relation
   contraction decomposed into independent cofactor subproblems,
   optionally fanned out over a process pool (identical results,
   deterministic recombination),
2. the *fixpoint driver layer* — pluggable schedules for the
   reachability loop (sequential / opsharded / frontier, see
   ``repro.mc.drivers``), and
3. the *sweep runner* — a declarative grid of benchmark
   configurations executed with per-run kernel statistics and
   resumable JSON/CSV artifacts.

Run:  python examples/parallel_sweep.py
"""

import tempfile

from repro import (CheckerConfig, ImageEngine, ModelChecker, models,
                   reachable_space)
from repro.bench.sweep import SweepSpec, run_sweep


def sliced_strategy_demo() -> None:
    # --- one image computation, monolithic vs sliced ----------------
    mono = ModelChecker(models.qrw_qts(5, 0.1, steps=2),
                        CheckerConfig(method="basic")).image()
    sliced = ModelChecker(models.qrw_qts(5, 0.1, steps=2),
                          CheckerConfig(method="basic",
                                        strategy="sliced",
                                        jobs=2)).image()
    print("one-step image of the noisy quantum walk (qrw5):")
    print(f"  monolithic: dim={mono.dimension} "
          f"time={mono.stats.seconds * 1000:.1f} ms")
    print(f"  sliced:     dim={sliced.dimension} "
          f"time={sliced.stats.seconds * 1000:.1f} ms "
          f"({sliced.stats.slices} cofactors, "
          f"{sliced.stats.parallel_tasks} on the pool)")
    assert sliced.dimension == mono.dimension

    # --- holding the engine (and its worker pool) across calls ------
    qts = models.qrw_qts(4, 0.1)
    config = CheckerConfig(method="basic", strategy="sliced", jobs=2)
    with ImageEngine(qts, config) as engine:
        first = engine.compute_image()
        second = engine.compute_image(first.subspace)
        print(f"engine reuse: dim(T(S0))={first.dimension}, "
              f"dim(T(T(S0)))={second.dimension}")


def fixpoint_driver_demo() -> None:
    # --- the fixpoint driver layer: same space, three schedules -----
    # (sequential = one monolithic T(S) per round, opsharded = one
    # image task per operation tree-reduced with joins, frontier =
    # image only the newly added directions)
    qts = models.qrw_qts(4, 0.1)
    print("reachability of the noisy walk under each fixpoint driver:")
    dims = set()
    for driver in ("sequential", "opsharded", "frontier"):
        trace = reachable_space(qts,
                                CheckerConfig(method="basic", driver=driver))
        print(f"  {driver:10s} {trace} "
              f"growth per round {trace.dimensions_delta}")
        dims.add(trace.dimension)
    assert len(dims) == 1  # every schedule reaches the same space


def sweep_runner_demo() -> None:
    # --- a declarative sweep: families x sizes x methods x specs ----
    # (the "specs" axis adds property-check rows whose verdicts land
    # in the CSV artifact next to the benchmark rows)
    spec = SweepSpec.from_dict({
        "name": "example",
        "models": ["ghz", "bv"],
        "sizes": [3, 4],
        "methods": ["basic", "contraction"],
        "specs": [None, "AG init"],
        "method_params": {"contraction": {"k1": 2, "k2": 2}},
    })
    with tempfile.TemporaryDirectory() as out_dir:
        result = run_sweep(spec, jobs=2, out_dir=out_dir, progress=print)
        print(f"{len(result.records)} runs -> {result.json_path}")
        # re-running against the same artifacts resumes (skips all):
        again = run_sweep(spec, jobs=2, out_dir=out_dir)
        print(f"resumed sweep skipped {again.skipped} of "
              f"{len(again.records)} runs")


def main() -> None:
    sliced_strategy_demo()
    fixpoint_driver_demo()
    sweep_runner_demo()


if __name__ == "__main__":
    main()
