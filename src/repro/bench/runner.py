"""The table row shared by the benchmark harnesses.

A Table I cell reports wall seconds + peak TDD node count — the
paper's two columns — plus the kernel instrumentation: cache hit rate
and the peak/post-GC live-node population.  Execution lives in
:mod:`repro.bench.sweep` (the harnesses are thin wrappers over sweep
specs) and :meth:`BenchRow.from_record` adapts a sweep record into a
table row.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class BenchRow:
    """One (benchmark, method) cell of Table I."""

    benchmark: str
    method: str
    seconds: float
    max_nodes: int
    dimension: int
    timed_out: bool = False
    #: fraction of operation-cache lookups answered from the memo tables
    cache_hit_rate: float = 0.0
    #: high-water mark of the manager's unique table during the run
    peak_live_nodes: int = 0
    #: unique-table population after the post-run garbage collection
    live_nodes: int = 0

    def metric_cells(self):
        """The per-method table columns: time, max#node, hit%, live/peak."""
        if self.timed_out:
            return ("-", "-", "-", "-")
        return (f"{self.seconds:.2f}", str(self.max_nodes),
                self.hit_rate_percent,
                f"{self.live_nodes}/{self.peak_live_nodes}")

    def cells(self):
        return (self.benchmark, self.method) + self.metric_cells()

    @property
    def hit_rate_percent(self) -> str:
        return f"{100 * self.cache_hit_rate:.0f}%"

    @classmethod
    def from_record(cls, record: dict) -> "BenchRow":
        """Adapt a :mod:`repro.bench.sweep` record into a table row."""
        if record.get("failed"):
            return cls(benchmark=record["label"], method=record["method"],
                       seconds=0.0, max_nodes=0, dimension=0,
                       timed_out=True)
        return cls(benchmark=record["label"], method=record["method"],
                   seconds=record["seconds"],
                   max_nodes=record["max_nodes"],
                   dimension=record["dimension"],
                   cache_hit_rate=record["cache_hit_rate"],
                   peak_live_nodes=record["peak_live_nodes"],
                   live_nodes=record["live_nodes"])

