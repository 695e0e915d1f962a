"""Tensor decision diagrams (TDDs).

A TDD represents a tensor over binary indices as a rooted, weighted,
canonical DAG (Hong et al., TODAES 2022; paper Section II.B).  The
package provides:

* :class:`~repro.tdd.manager.TDDManager` — owns the index order, the
  unique table, the instrumented operation caches and the root-based
  garbage collector; every TDD belongs to exactly one manager.
* :class:`~repro.tdd.tdd.TDD` — an immutable handle (root edge + free
  index set) with ``to_numpy``, ``value``, ``size`` etc.; live handles
  pin their nodes across :meth:`TDDManager.collect`.
* the iterative apply engine (:mod:`repro.tdd.apply`) behind arithmetic
  (:mod:`repro.tdd.arithmetic`), contraction
  (:mod:`repro.tdd.contraction`), slicing (:mod:`repro.tdd.slicing`)
  and inner products (``TDD.inner``) — explicit work stacks, no
  interpreter recursion-limit games;
* structured constructors (:mod:`repro.tdd.construction`) and
  instrumented memo tables (:mod:`repro.tdd.cache`).
"""

from repro.tdd.cache import OperationCache
from repro.tdd.manager import TDDManager
from repro.tdd.tdd import TDD
from repro.tdd.node import Node, Edge

__all__ = ["OperationCache", "TDDManager", "TDD", "Node", "Edge"]
