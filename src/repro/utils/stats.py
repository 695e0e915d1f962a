"""Statistics recording for image computation runs.

The paper's Table I reports, per benchmark and method, the wall-clock
time and the *maximum node count over all TDDs generated* during the
image computation.  :class:`StatsRecorder` collects those two
quantities plus the kernel instrumentation the refactored TDD core
exposes: operation-cache hit/miss counts, garbage-collection activity
and the peak/post-GC live-node population of the manager's unique
table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class StatsRecorder:
    """Mutable record of the cost of one image computation run."""

    #: Maximum size (number of nodes, including the terminal) over all
    #: TDDs produced during the run.
    max_nodes: int = 0
    #: State-by-diagram kernel contractions: per image of one state
    #: through one Kraus circuit, 1 for basic, ``2^k`` for addition,
    #: the block count for contraction and ``2^k`` x blocks for hybrid.
    contractions: int = 0
    #: Additions of slice contributions (``2^k - 1`` per such image).
    additions: int = 0
    #: Wall-clock seconds (filled in by the caller).
    seconds: float = 0.0
    #: Operation-cache lookups answered from / missing the memo tables.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Per-table breakdown of the same lookups: the addition,
    #: contraction and inner-product caches serve different operand
    #: streams, so the combined rate hides which table earns its memory.
    add_hits: int = 0
    add_misses: int = 0
    cont_hits: int = 0
    cont_misses: int = 0
    inner_hits: int = 0
    inner_misses: int = 0
    #: Garbage collection: number of collect() runs and nodes freed.
    gc_runs: int = 0
    nodes_reclaimed: int = 0
    #: High-water mark of the manager's unique table during the run.
    peak_live_nodes: int = 0
    #: Unique-table population after the final (post-run) collection.
    live_nodes: int = 0
    #: Free-form counters; every tdd image records ``"blocks"``, the
    #: block count of a slice (1 for basic and addition), and every
    #: path that images records ``"kraus_imaged"`` (the Kraus circuits
    #: it images, one per proportionality class on the tdd backend)
    #: next to ``"kraus_circuits"`` (the system's Kraus circuit count).
    extra: dict = field(default_factory=dict)

    def observe_tdd(self, tdd) -> None:
        """Record the size of a freshly produced TDD."""
        size = tdd.size()
        if size > self.max_nodes:
            self.max_nodes = size

    def observe_nodes(self, count: int) -> None:
        if count > self.max_nodes:
            self.max_nodes = count

    # ------------------------------------------------------------------
    @property
    def cache_hit_rate(self) -> float:
        """Fraction of memo lookups answered from the caches."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def add_hit_rate(self) -> float:
        """Hit rate of the addition memo table alone."""
        total = self.add_hits + self.add_misses
        return self.add_hits / total if total else 0.0

    @property
    def cont_hit_rate(self) -> float:
        """Hit rate of the contraction memo table alone."""
        total = self.cont_hits + self.cont_misses
        return self.cont_hits / total if total else 0.0

    def record_manager(self, manager,
                       baseline: Optional[Dict[str, int]] = None) -> None:
        """Snapshot a manager's kernel counters into this recorder.

        ``baseline`` is an earlier :meth:`TDDManager.cache_counters`
        snapshot; passing it makes the cache/GC numbers deltas for this
        run rather than manager lifetime totals.  Peak and current live
        nodes are always absolute (the unique table is shared state).
        """
        counters = manager.cache_counters()
        base = baseline or {}
        self.cache_hits = counters["hits"] - base.get("hits", 0)
        self.cache_misses = counters["misses"] - base.get("misses", 0)
        self.add_hits = counters["add_hits"] - base.get("add_hits", 0)
        self.add_misses = (counters["add_misses"]
                           - base.get("add_misses", 0))
        self.cont_hits = counters["cont_hits"] - base.get("cont_hits", 0)
        self.cont_misses = (counters["cont_misses"]
                            - base.get("cont_misses", 0))
        self.inner_hits = counters["inner_hits"] - base.get("inner_hits", 0)
        self.inner_misses = (counters["inner_misses"]
                             - base.get("inner_misses", 0))
        self.gc_runs = counters["gc_runs"] - base.get("gc_runs", 0)
        self.nodes_reclaimed = (counters["nodes_reclaimed"]
                                - base.get("nodes_reclaimed", 0))
        self.peak_live_nodes = manager.peak_live_nodes
        self.live_nodes = manager.live_nodes

    def merge(self, other: "StatsRecorder") -> None:
        """Fold another recorder (e.g. from a sub-computation) into this one.

        An ``extra`` key this recorder already has keeps its value.
        """
        self.max_nodes = max(self.max_nodes, other.max_nodes)
        self.contractions += other.contractions
        self.additions += other.additions
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.add_hits += other.add_hits
        self.add_misses += other.add_misses
        self.cont_hits += other.cont_hits
        self.cont_misses += other.cont_misses
        self.inner_hits += other.inner_hits
        self.inner_misses += other.inner_misses
        self.gc_runs += other.gc_runs
        self.nodes_reclaimed += other.nodes_reclaimed
        self.peak_live_nodes = max(self.peak_live_nodes,
                                   other.peak_live_nodes)
        self.live_nodes = max(self.live_nodes, other.live_nodes)
        for key, value in other.extra.items():
            self.extra.setdefault(key, value)

    def as_dict(self) -> dict:
        out = {
            "max_nodes": self.max_nodes,
            "contractions": self.contractions,
            "additions": self.additions,
            "seconds": self.seconds,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "add_hits": self.add_hits,
            "add_misses": self.add_misses,
            "add_hit_rate": self.add_hit_rate,
            "cont_hits": self.cont_hits,
            "cont_misses": self.cont_misses,
            "cont_hit_rate": self.cont_hit_rate,
            "inner_hits": self.inner_hits,
            "inner_misses": self.inner_misses,
            "gc_runs": self.gc_runs,
            "nodes_reclaimed": self.nodes_reclaimed,
            "peak_live_nodes": self.peak_live_nodes,
            "live_nodes": self.live_nodes,
        }
        out.update(self.extra)
        return out
