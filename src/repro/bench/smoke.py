"""Smoke benchmark: one small Table-1 row per image method, <60 s total.

Runs a single benchmark instance through all four image computation
methods (basic / addition / contraction / hybrid) and prints the Table
I columns plus the kernel instrumentation — cache hit rate and the
post-GC/peak live-node population.  CI runs this to catch perf or
instrumentation regressions without paying for the full Table I grid.
The four runs are a :mod:`repro.bench.sweep` spec, like Table I's grid.

Run:  ``python -m repro.bench.smoke [--model grover] [--size 6]``
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from repro.bench.runner import BenchRow
from repro.bench.sweep import RunSpec, SweepSpec, run_sweep
from repro.errors import ReproError
from repro.mc.config import TABLE1_PARAMS, CheckerConfig
from repro.utils.tables import format_table

#: model name -> builder parameters
SMOKE_MODELS: Dict[str, dict] = {
    "ghz": {},
    "bv": {},
    "qft": {},
    "grover": {"iterations": 2},
    "qrw": {"noise_probability": 0.1, "steps": 2},
}


def smoke_spec(model: str = "grover", size: int = 6) -> SweepSpec:
    """One run per image method on ``model`` at ``size``."""
    return SweepSpec(name=f"smoke-{model}{size}", runs=[
        RunSpec(model=model, size=size,
                config=CheckerConfig(method=method,
                                     method_params=dict(params)),
                model_params=dict(SMOKE_MODELS[model]))
        for method, params in TABLE1_PARAMS.items()])


def smoke_rows(model: str = "grover", size: int = 6) -> List[BenchRow]:
    """Run :func:`smoke_spec`; a failed run raises instead of printing
    as a dashed row."""
    result = run_sweep(smoke_spec(model, size))
    for record in result.failed:
        raise ReproError(f"smoke run {record['run_id']} failed: "
                         f"{record['error']}")
    return [BenchRow.from_record(record) for record in result.records]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="grover",
                        choices=sorted(SMOKE_MODELS))
    parser.add_argument("--size", type=int, default=6)
    args = parser.parse_args(argv)
    rows = smoke_rows(args.model, args.size)
    headers = ["Benchmark", "method", "time [s]", "max#node", "dim",
               "cache hit%", "live/peak nodes"]
    table = [[row.benchmark, row.method, f"{row.seconds:.2f}",
              str(row.max_nodes), str(row.dimension),
              row.hit_rate_percent,
              f"{row.live_nodes}/{row.peak_live_nodes}"]
             for row in rows]
    print("Smoke benchmark — one Table-1 row per method")
    print(format_table(headers, table))
    # all four methods must compute the same image dimension
    dims = {row.dimension for row in rows}
    if len(dims) != 1:
        print(f"FAIL: methods disagree on image dimension: {dims}")
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
