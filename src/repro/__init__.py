"""repro — Image Computation for Quantum Transition Systems.

A complete reimplementation of Hong, Gao, Li, Ying & Ying, *"Image
Computation for Quantum Transition Systems"* (DATE 2025): tensor
decision diagrams with a fully iterative apply kernel (instrumented
operation caches, root-based garbage collection — see
``ARCHITECTURE.md``), quantum circuits as tensor networks, subspace
algebra, quantum transition systems, four image computation algorithms
(basic / addition partition / contraction partition / hybrid) and a
model-checking layer on top that runs on the symbolic engine or a
dense statevector reference.

The public API is organised around two first-class objects:

* :class:`~repro.mc.config.CheckerConfig` — one validated, frozen,
  JSON-round-trippable description of the whole engine configuration
  (backend, image method, per-method parameters,
  analysis direction and depth bound), and
* temporal **specifications** — Birkhoff-von Neumann propositions over
  named subspaces with ``AG``/``EF`` on top, written as text
  (``"AG (inv & ~bad)"``) or as ASTs (:mod:`repro.mc.logic`), checked
  by the single verb :meth:`~repro.mc.checker.ModelChecker.check`.

Quickstart::

    from repro import CheckerConfig, ModelChecker, models, parse_spec

    qts = models.grover_qts(4)        # registers atoms: inv, marked, ...
    config = CheckerConfig(method="contraction",
                           method_params={"k1": 4, "k2": 4})
    checker = ModelChecker(qts, config)

    result = checker.check("AG inv")  # one uniform CheckResult:
    result.holds                      #   the verdict ...
    result.reachable_dimension        #   ... the reachability trace
    result.witness                    #   ... violating/witness subspace
    result.stats.cache_hit_rate       #   ... and the kernel cost profile

    # the same check, identical verdict, on the dense statevector
    # reference (small instances only — the dense backend is 2^n):
    dense = ModelChecker(qts, CheckerConfig(backend="dense"))
    assert dense.check(parse_spec("AG inv")).holds == result.holds
    assert checker.cross_validate(spec="AG inv").ok

``CheckerConfig`` is the only configuration spelling: every engine
surface (``ModelChecker``, ``compute_image``, ``reachable_space``, the
sweep ``RunSpec``) takes one, and one fixpoint loop —
``reachable_space``, which images only the directions each round
adds — serves both backends.
"""

from repro.circuits.circuit import QuantumCircuit
from repro.gates.gate import Gate
from repro.gates import library as gates
from repro.image import (ImageEngine, ImageResult, compute_image,
                         make_computer)
from repro.indices.index import Index, wire
from repro.indices.order import IndexOrder
from repro.mc.checker import CheckResult, ModelChecker, cross_validate
from repro.mc.config import CheckerConfig
from repro.mc.logic import (Always, Atomic, Eventually, Join, Meet, Name,
                            Not, Proposition)
from repro.mc.reachability import (ReachabilityCache, ReachabilityTrace,
                                   reachable_space)
from repro.mc.specs import parse_spec, to_text
from repro.subspace.subspace import StateSpace, Subspace
from repro.subspace.projector import basis_decompose
from repro.systems import models
from repro.systems.operations import QuantumOperation
from repro.systems.qts import QuantumTransitionSystem
from repro.tdd.manager import TDDManager
from repro.tdd.tdd import TDD

__version__ = "1.0.0"

__all__ = [
    "QuantumCircuit", "Gate", "gates",
    "ImageEngine", "ImageResult",
    "compute_image", "make_computer",
    "Index", "wire", "IndexOrder",
    "cross_validate",
    "CheckerConfig", "CheckResult", "ModelChecker", "reachable_space",
    "ReachabilityCache", "ReachabilityTrace",
    "Always", "Atomic", "Eventually", "Join", "Meet", "Name", "Not",
    "Proposition", "parse_spec", "to_text",
    "StateSpace", "Subspace", "basis_decompose",
    "models", "QuantumOperation", "QuantumTransitionSystem",
    "TDDManager", "TDD",
    "__version__",
]
