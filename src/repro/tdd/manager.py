"""The TDD manager: unique table, normalisation, caches and GC.

Every TDD computation happens inside one :class:`TDDManager`.  The
manager owns

* the global :class:`~repro.indices.order.IndexOrder` the diagrams are
  canonical against,
* the *unique table* interning nodes (structural equality becomes
  object identity), keyed by ``(level, w0, n0.key, w1, n1.key)`` with
  the normalised child weights as plain ``complex`` values and the
  children's integer node keys (see :class:`~repro.tdd.node.Node`):
  :meth:`~TDDManager.make_pair` hands each new node the next key of a
  counter that never restarts, not even in :meth:`~TDDManager.reset`,
  so a key names one node for the manager's whole life,
* the :class:`~repro.tdd.weights.WeightTable` interning those child
  weights,
* the :class:`~repro.tdd.cache.OperationCache` memo tables for
  addition, contraction, inner products and linear combinations
  (hit/miss counters), and the table of summed-level suffix ids the
  contraction memo is keyed by,
* the *gate table*, which hands out one diagram per gate content and
  wiring between collections (see :meth:`repro.gates.gate.Gate.to_tdd`),
* a weak registry of live :class:`~repro.tdd.tdd.TDD` handles that
  drives root-based mark-and-sweep garbage collection
  (:meth:`collect`), which also empties the memo and gate tables, and
* counters used by the benchmark harness (current/peak live nodes,
  total nodes made, nodes reclaimed).

The kernel is fully iterative (see :mod:`repro.tdd.apply`), so the
manager never touches the interpreter recursion limit.  It works on
plain ``(weight, node)`` pairs and builds nodes with
:meth:`~TDDManager.make_pair`; nodes keep their children as such
pairs.  The public edge constructors (:meth:`~TDDManager.zero_edge`,
:meth:`~TDDManager.scalar_edge`, :meth:`~TDDManager.make_edge`,
:meth:`~TDDManager.make_node`) return :class:`~repro.tdd.node.Edge`
named tuples for code outside the kernel.

Normalisation rule: when a node is created, its two
outgoing edge weights are divided by the weight of largest magnitude
(ties resolved toward the low edge), which becomes the weight of the
incoming edge.  The dominant child so gets the weight exactly ``1+0j``
and skips the weight table; the other normalised weight is snapped to
the table's representatives (``1.0`` among them, permanently), so
children equal up to float noise get identical keys.  Together with
interning this makes the representation canonical for a fixed index
order.
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterable, Optional, Tuple

from repro.indices.index import Index
from repro.indices.order import IndexOrder
from repro.tdd import weights as wt
from repro.tdd.cache import OperationCache
from repro.tdd.node import Edge, Node, Pair, TERMINAL_LEVEL


class TDDManager:
    """Owner of all nodes, caches and the index order for a family of TDDs.

    Long reachability runs call :meth:`collect` between operations to
    keep the working set, memo tables included, flat.
    """

    def __init__(self, order: Optional[IndexOrder] = None) -> None:
        self.order = order if order is not None else IndexOrder()
        self.terminal = Node(TERMINAL_LEVEL, None, None, 0)
        #: key of the last node interned (the terminal's is 0); never
        #: restarts, so no two nodes of this manager share a key
        self._last_key = 0
        self._unique: Dict[tuple, Node] = {}
        self.weights = wt.WeightTable()
        self.add_cache = OperationCache("add")
        self.cont_cache = OperationCache("cont")
        self.inner_cache = OperationCache("inner")
        #: counts of the n-ary walk, whose memo lives for one call
        self.combine_cache = OperationCache("combine")
        #: ``(level, id of the rest) -> id`` of every summed-level
        #: suffix met so far (see :meth:`suffix_ids`)
        self._suffixes: Dict[Tuple[int, int], int] = {}
        #: gate content and wiring -> gate TDD handle (see
        #: :meth:`repro.gates.gate.Gate.to_tdd`); emptied by
        #: :meth:`clear_caches`, so it pins nothing across a collection
        self.gate_table: Dict[tuple, object] = {}
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
        :meth:`make_pair`.
        """
        if weight == 0:
            return self.zero_edge()
        return Edge(complex(weight), node)

    def make_node(self, level: int, low: Pair, high: Pair) -> Edge:
        """:meth:`make_pair` for callers outside the kernel: the
        weights are made ``complex`` first and the result is an
        :class:`Edge`."""
        (w0, n0), (w1, n1) = low, high
        return Edge(*self.make_pair(level, (complex(w0), n0),
                                    (complex(w1), n1)))

    def make_pair(self, level: int, low: Pair, high: Pair) -> Pair:
        """Intern a node branching on ``level``; returns a normalised
        ``(weight, node)`` pair.

        Applies the two TDD reduction rules: edge weights are normalised
        by the largest-magnitude weight, and a node whose outgoing edges
        are identical is redundant (return the common edge).  The
        dominant child's normalised weight is exactly ``1+0j``; the
        other (relative) weight is interned in the weight table, and
        clamped to zero when negligible *relative to its sibling*, which
        is what keeps float cancellation noise out of the diagrams.  The
        redundancy test runs again on the interned weight, so children
        that only become equal there are not interned as a node either.

        This is the kernels' entry point: ``low`` and ``high`` are
        ``(weight, node)`` pairs with ``complex`` weights, and a zero
        result is ``(0j, terminal)``.
        """
        w0, n0 = low
        w1, n1 = high
        if w0 == 0 and w1 == 0:
            return (0j, self.terminal)
        if w0 == w1 and n0 is n1:
            return (w0, n0)
        # normalisation: divide by the larger-magnitude weight (tie: low)
        if abs(w0) >= abs(w1):
            norm = w0
            nw0 = 1 + 0j
            nw1 = self.weights.canonical(w1 / norm)
            if not nw1:
                n1 = self.terminal
            if nw1 == 1 + 0j and n0 is n1:
                return (norm, n0)
        else:
            norm = w1
            nw0 = self.weights.canonical(w0 / norm)
            nw1 = 1 + 0j
            if not nw0:
                n0 = self.terminal
            if nw0 == 1 + 0j and n0 is n1:
                return (norm, n0)
        key = (level, nw0, n0.key, nw1, n1.key)
        node = self._unique.get(key)
        if node is None:
            self._last_key += 1
            node = Node(level, (nw0, n0), (nw1, n1), self._last_key)
            self._unique[key] = node
            self.nodes_made += 1
            if len(self._unique) > self.peak_live_nodes:
                self.peak_live_nodes = len(self._unique)
        return (norm, node)

    def suffix_ids(self, levels: Tuple[int, ...]) -> list:
        """Ids of the suffixes ``levels[i:]`` of a summed-level tuple.

        Entry ``i`` is the id of ``levels[i:]`` and the last entry, 0,
        that of the empty suffix.  Ids are small ints interned
        manager-wide (one per distinct suffix, kept until
        :meth:`reset`), so a contraction memo key names the levels
        still to be summed without holding or hashing the tuple.
        """
        table = self._suffixes
        ids = [0] * (len(levels) + 1)
        current = 0
        for i in range(len(levels) - 1, -1, -1):
            key = (levels[i], current)
            current = table.get(key)
            if current is None:
                current = table[key] = len(table) + 1
            ids[i] = current
        return ids

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    @property
    def live_nodes(self) -> int:
        """Number of distinct non-terminal nodes currently interned."""
        return len(self._unique)

    def clear_caches(self) -> None:
        """Drop the operation memo tables and the gate table (keeps
        interned nodes)."""
        self.gate_table.clear()
        self.add_cache.clear()
        self.cont_cache.clear()
        self.inner_cache.clear()
        self.combine_cache.clear()

    def cache_counters(self) -> Dict[str, int]:
        """Cache counters, combined and per table, for instrumentation.

        The per-table ``add_*``/``cont_*`` counters feed the
        ``add_hit_rate``/``cont_hit_rate`` columns of the sweep CSV:
        addition and contraction caches behave very differently, and a
        combined rate hides which one is earning its memory.  The
        ``add_*`` counters count binary additions only.  The combined
        ``hits``/``misses`` also count the inner product memo and the
        per-call memo of the n-ary linear-combination walk, so moving
        a lookup between tables leaves them comparable.
        """
        caches = (self.add_cache, self.cont_cache, self.inner_cache,
                  self.combine_cache)
        return {
            "hits": sum(cache.hits for cache in caches),
            "misses": sum(cache.misses for cache in caches),
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
        """Drop all nodes, weights, caches and suffix ids.  Outstanding
        TDDs become invalid.  Node keys go on from where they were, so
        no later node reuses the key of a dropped one."""
        self._unique.clear()
        self.weights.clear()
        self.clear_caches()
        self._suffixes.clear()
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

    def collect(self, extra_roots: Iterable[Pair] = ()) -> int:
        """Root-based mark-and-sweep; returns the number of nodes freed.

        Every live :class:`~repro.tdd.tdd.TDD` handle (tracked weakly)
        pins the nodes reachable from its root; ``extra_roots`` pins
        additional ``(weight, node)`` pairs.  Everything else leaves the
        unique table.  The memo tables are emptied: keys are never
        reused, but a memo *value* can name a reclaimed node, which
        must not come back as a result, and entries that survive a
        collection are rarely hit again, so clearing costs less than
        filtering by live key.  The gate table is emptied *before*
        marking, so its handles pin no gate diagram that nothing else
        holds.

        Only call between operations: an apply in flight holds
        intermediate edges the registry cannot see, and sweeping those
        would break interning canonicity mid-computation.
        """
        self.clear_caches()
        marked = {self.terminal.key}
        stack = [node for roots in (self.live_roots(), extra_roots)
                 for weight, node in roots if weight != 0]
        while stack:
            node = stack.pop()
            if node.key in marked:
                continue
            marked.add(node.key)
            if node.is_terminal:
                continue
            for weight, child in (node.low, node.high):
                if weight != 0 and child.key not in marked:
                    stack.append(child)
        before = len(self._unique)
        self._unique = {key: node for key, node in self._unique.items()
                        if node.key in marked}
        reclaimed = before - len(self._unique)
        self.gc_runs += 1
        self.nodes_reclaimed += reclaimed
        return reclaimed

    # ------------------------------------------------------------------
    # operations (thin wrappers; implementations live in sibling modules)
    # ------------------------------------------------------------------
    def add(self, a: Pair, b: Pair) -> Edge:
        from repro.tdd.arithmetic import add_edges
        return Edge(*add_edges(self, a, b))

    def contract(self, a: Pair, b: Pair, sum_levels: Tuple[int, ...]) -> Edge:
        from repro.tdd.contraction import contract_edges
        return Edge(*contract_edges(self, a, b, sum_levels))

    def __repr__(self) -> str:
        return (f"TDDManager(indices={len(self.order)}, "
                f"live_nodes={self.live_nodes})")
