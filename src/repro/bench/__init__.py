"""Benchmark harness: Table I / Table II regeneration and the batch
sweep runner (declarative specs, process-pool fan-out, resumable
JSON/CSV artifacts — see :mod:`repro.bench.sweep`)."""

from repro.bench.runner import BenchRow
from repro.bench.sweep import (RunSpec, SweepResult, SweepSpec,
                               execute_run, run_sweep)
from repro.bench import table1, table2

# repro.bench.smoke is a CLI entry point (`python -m repro.bench.smoke`);
# importing it eagerly here would trigger the runpy double-import warning.

__all__ = ["BenchRow", "RunSpec", "SweepResult", "SweepSpec", "execute_run",
           "run_sweep", "table1", "table2"]
