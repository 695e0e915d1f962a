"""The TDD manager: unique table, normalisation, caches and GC.

Every TDD computation happens inside one :class:`TDDManager`.  The
manager owns

* the global :class:`~repro.indices.order.IndexOrder` the diagrams are
  canonical against,
* the *unique table* interning nodes (structural equality becomes
  object identity),
* the :class:`~repro.tdd.weights.WeightTable` interning the normalised
  child weights those nodes are keyed by,
* the instrumented :class:`~repro.tdd.cache.OperationCache` memo tables
  for addition, contraction and inner products (hit/miss counters,
  optional bounded size),
* a weak registry of live :class:`~repro.tdd.tdd.TDD` handles that
  drives root-based mark-and-sweep garbage collection
  (:meth:`collect`), and
* counters used by the benchmark harness (current/peak live nodes,
  total nodes made, nodes reclaimed).

The kernel is fully iterative (see :mod:`repro.tdd.apply`), so the
manager never touches the interpreter recursion limit.

Normalisation rule (DESIGN.md Section 3): when a node is created, its two
outgoing edge weights are divided by the weight of largest magnitude
(ties resolved toward the low edge), which becomes the weight of the
incoming edge.  The normalised weights are then snapped to the weight
table's representatives, so children equal up to float noise get
identical keys.  Together with interning this makes the representation
canonical for a fixed index order.
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterable, Optional, Tuple

from repro.indices.index import Index
from repro.indices.order import IndexOrder
from repro.tdd import weights as wt
from repro.tdd.cache import OperationCache
from repro.tdd.node import Edge, Node, TERMINAL_LEVEL


def _add_cache_ids(key: tuple, value: Edge) -> Tuple[int, int, int]:
    # key = ((re, im, id_a), (re, im, id_b))
    return (key[0][2], key[1][2], id(value.node))


def _cont_cache_ids(key: tuple, value: Edge) -> Tuple[int, int, int]:
    # key = (id_a, id_b, sum_levels)
    return (key[0], key[1], id(value.node))


def _inner_cache_ids(key: tuple, value: complex) -> Tuple[int, int]:
    # key = (id_a, id_b, remaining); the value is a plain complex
    return (key[0], key[1])


class TDDManager:
    """Owner of all nodes, caches and the index order for a family of TDDs.

    ``cache_size`` bounds each operation cache (FIFO eviction); ``None``
    means unbounded, the right default for one-shot computations.  Long
    reachability runs combine a bound with periodic :meth:`collect`
    calls to keep the working set flat.
    """

    def __init__(self, order: Optional[IndexOrder] = None,
                 cache_size: Optional[int] = None) -> None:
        self.order = order if order is not None else IndexOrder()
        self.terminal = Node(TERMINAL_LEVEL, None, None)
        self._unique: Dict[tuple, Node] = {}
        self.weights = wt.WeightTable()
        self.add_cache = OperationCache("add", max_size=cache_size,
                                        key_ids=_add_cache_ids)
        self.cont_cache = OperationCache("cont", max_size=cache_size,
                                         key_ids=_cont_cache_ids)
        self.inner_cache = OperationCache("inner", max_size=cache_size,
                                          key_ids=_inner_cache_ids)
        #: live TDD handles; their roots pin nodes during :meth:`collect`
        self._handles: "weakref.WeakSet" = weakref.WeakSet()
        #: total number of distinct non-terminal nodes ever interned
        self.nodes_made: int = 0
        #: high-water mark of the unique table size
        self.peak_live_nodes: int = 0
        #: number of :meth:`collect` runs / nodes they reclaimed
        self.gc_runs: int = 0
        self.nodes_reclaimed: int = 0

    # ------------------------------------------------------------------
    # index registration
    # ------------------------------------------------------------------
    def register(self, index: Index) -> int:
        """Register ``index`` in the manager's order; return its level."""
        return self.order.register(index)

    def register_all(self, indices: Iterable[Index]) -> None:
        self.order.register_all(indices)

    def level(self, index: Index) -> int:
        return self.order.level(index)

    # ------------------------------------------------------------------
    # edges and nodes
    # ------------------------------------------------------------------
    def zero_edge(self) -> Edge:
        return Edge(0j, self.terminal)

    def scalar_edge(self, value: complex) -> Edge:
        value = complex(value)
        if value == 0:
            return self.zero_edge()
        return Edge(value, self.terminal)

    def make_edge(self, weight: complex, node: Node) -> Edge:
        """Build an edge (exact-zero weight ⇒ the zero edge).

        Outer weights are kept at full precision: clamping or snapping
        here would be scale-dependent and destroy small amplitudes
        (e.g. 2^-n/2 root weights of wide superpositions).  Interning
        happens only on the normalised child weights in
        :meth:`make_node`.
        """
        if weight == 0:
            return self.zero_edge()
        return Edge(complex(weight), node)

    def make_node(self, level: int, low: Edge, high: Edge) -> Edge:
        """Intern a node branching on ``level``; returns a normalised edge.

        Applies the two TDD reduction rules: edge weights are normalised
        by the largest-magnitude weight, and a node whose outgoing edges
        are identical is redundant (return the common edge).  The
        normalised (relative) child weights are interned in the weight
        table; children negligible *relative to their sibling* are
        clamped to zero, which is what keeps float cancellation noise
        out of the diagrams.  The redundancy test runs again on the
        interned weights, so children that only become equal there are
        not interned as a node either.
        """
        w0 = complex(low.weight)
        w1 = complex(high.weight)
        if w0 == 0 and w1 == 0:
            return self.zero_edge()
        if w0 == w1 and low.node is high.node:
            return Edge(w0, low.node)
        # normalisation: divide by the larger-magnitude weight (tie: low)
        if abs(w0) >= abs(w1):
            norm = w0
        else:
            norm = w1
        nw0 = self.weights.canonical(w0 / norm)
        nw1 = self.weights.canonical(w1 / norm)
        n0 = low.node if not wt.is_zero(nw0) else self.terminal
        n1 = high.node if not wt.is_zero(nw1) else self.terminal
        if nw0 == nw1 and n0 is n1:
            return Edge(norm * nw0, n0)
        key = (level, wt.key(nw0), id(n0), wt.key(nw1), id(n1))
        node = self._unique.get(key)
        if node is None:
            node = Node(level, Edge(nw0, n0), Edge(nw1, n1))
            self._unique[key] = node
            self.nodes_made += 1
            if len(self._unique) > self.peak_live_nodes:
                self.peak_live_nodes = len(self._unique)
        return Edge(norm, node)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    @property
    def live_nodes(self) -> int:
        """Number of distinct non-terminal nodes currently interned."""
        return len(self._unique)

    def clear_caches(self) -> None:
        """Drop the operation memo tables (keeps interned nodes)."""
        self.add_cache.clear()
        self.cont_cache.clear()
        self.inner_cache.clear()

    def cache_counters(self) -> Dict[str, int]:
        """Cache counters, combined and per table, for instrumentation.

        The per-table ``add_*``/``cont_*`` counters feed the
        ``add_hit_rate``/``cont_hit_rate`` columns of the sweep CSV:
        addition and contraction caches behave very differently, and a
        combined rate hides which one is earning its memory.  The
        combined ``hits``/``misses``/``evictions`` also count the inner
        product memo, so moving a lookup between tables leaves them
        comparable.
        """
        caches = (self.add_cache, self.cont_cache, self.inner_cache)
        return {
            "hits": sum(cache.hits for cache in caches),
            "misses": sum(cache.misses for cache in caches),
            "evictions": sum(cache.evictions for cache in caches),
            "add_hits": self.add_cache.hits,
            "add_misses": self.add_cache.misses,
            "cont_hits": self.cont_cache.hits,
            "cont_misses": self.cont_cache.misses,
            "inner_hits": self.inner_cache.hits,
            "inner_misses": self.inner_cache.misses,
            "gc_runs": self.gc_runs,
            "nodes_reclaimed": self.nodes_reclaimed,
        }

    def reset(self) -> None:
        """Drop all nodes, weights and caches.  Outstanding TDDs become
        invalid."""
        self._unique.clear()
        self.weights.clear()
        self.clear_caches()
        self.nodes_made = 0
        self.peak_live_nodes = 0

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def _register_handle(self, handle) -> None:
        """Called by :class:`~repro.tdd.tdd.TDD` on construction."""
        self._handles.add(handle)

    def live_roots(self) -> list:
        """Root edges of every TDD handle still alive in Python."""
        return [handle.root for handle in self._handles]

    def collect(self, extra_roots: Iterable[Edge] = ()) -> int:
        """Root-based mark-and-sweep; returns the number of nodes freed.

        Every live :class:`~repro.tdd.tdd.TDD` handle (tracked weakly)
        pins the nodes reachable from its root; ``extra_roots`` pins
        additional raw edges.  Everything else leaves the unique table,
        and cache entries mentioning a reclaimed node are invalidated
        (a freed node's ``id`` may be recycled, so stale entries would
        be unsound, not just wasteful).

        Only call between operations: an apply in flight holds
        intermediate edges the registry cannot see, and sweeping those
        would break interning canonicity mid-computation.
        """
        marked = {id(self.terminal)}
        stack = []
        for root in self.live_roots():
            if not root.is_zero:
                stack.append(root.node)
        for root in extra_roots:
            if not root.is_zero:
                stack.append(root.node)
        while stack:
            node = stack.pop()
            if id(node) in marked:
                continue
            marked.add(id(node))
            if node.is_terminal:
                continue
            for child in (node.low, node.high):
                if not child.is_zero and id(child.node) not in marked:
                    stack.append(child.node)
        before = len(self._unique)
        self._unique = {key: node for key, node in self._unique.items()
                        if id(node) in marked}
        reclaimed = before - len(self._unique)
        self.add_cache.purge(marked)
        self.cont_cache.purge(marked)
        self.inner_cache.purge(marked)
        self.gc_runs += 1
        self.nodes_reclaimed += reclaimed
        return reclaimed

    # ------------------------------------------------------------------
    # operations (thin wrappers; implementations live in sibling modules)
    # ------------------------------------------------------------------
    def add(self, a: Edge, b: Edge) -> Edge:
        from repro.tdd.arithmetic import add_edges
        return add_edges(self, a, b)

    def contract(self, a: Edge, b: Edge, sum_levels: Tuple[int, ...]) -> Edge:
        from repro.tdd.contraction import contract_edges
        return contract_edges(self, a, b, sum_levels)

    def __repr__(self) -> str:
        return (f"TDDManager(indices={len(self.order)}, "
                f"live_nodes={self.live_nodes})")
