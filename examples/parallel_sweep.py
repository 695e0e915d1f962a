"""Sliced image computation and the batch sweep runner.

Walkthrough of the scaling layers added on top of the paper's
algorithms:

1. the *sliced execution strategy* — one big transition-relation
   contraction decomposed into independent cofactor subproblems
   (identical results, deterministic recombination),
2. the *fixpoint schedule* — the frontier-set refinement that images
   only the directions each round adds (see ``repro.mc.drivers``),
   run by one loop on both backends, and
3. the *sweep runner* — a declarative grid of benchmark
   configurations fanned out over a process pool, with per-run kernel
   statistics and resumable JSON/CSV artifacts.

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
                                        strategy="sliced")).image()
    print("one-step image of the noisy quantum walk (qrw5):")
    print(f"  monolithic: dim={mono.dimension} "
          f"time={mono.stats.seconds * 1000:.1f} ms")
    print(f"  sliced:     dim={sliced.dimension} "
          f"time={sliced.stats.seconds * 1000:.1f} ms "
          f"({sliced.stats.slices} cofactors)")
    assert sliced.dimension == mono.dimension

    # --- holding the engine (and its caches) across calls -----------
    qts = models.qrw_qts(4, 0.1)
    engine = ImageEngine(qts, CheckerConfig(method="basic",
                                            strategy="sliced"))
    first = engine.compute_image()
    second = engine.compute_image(first.subspace)
    print(f"engine reuse: dim(T(S0))={first.dimension}, "
          f"dim(T(T(S0)))={second.dimension}")


def fixpoint_schedule_demo() -> None:
    # --- the frontier schedule on both backends ---------------------
    # each round images only the basis vectors the previous round
    # added; the dense backend runs the same loop on statevectors
    print("reachability of the noisy walk (qrw4), frontier schedule:")
    dims = set()
    for config in (CheckerConfig(method="basic"),
                   CheckerConfig(backend="dense")):
        trace = reachable_space(models.qrw_qts(4, 0.1), config)
        print(f"  {config.backend:5s} {trace} "
              f"growth per round {trace.dimensions_delta}")
        dims.add(trace.dimension)
    assert len(dims) == 1  # both backends reach the same space


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
    fixpoint_schedule_demo()
    sweep_runner_demo()


if __name__ == "__main__":
    main()
