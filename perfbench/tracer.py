"""Per-layer spans recorded from outside the program.

The tracer wraps public functions and methods of the ``repro`` layers
(:data:`TARGETS`) for the length of one traced job and restores them
afterwards; nothing under ``src/`` knows it is being traced.  Each span
records its calls, its duration and its *self* time (duration minus the
part covered by nested spans), plus how many calls returned something
other than ``None`` (accepted Gram-Schmidt vectors, store hits) and the
sum of integer results (nodes freed by garbage collection).

A target that no longer exists is reported as absent instead of failing
the run, so a later change may delete or rename a function and still be
measured.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

#: (layer, span name, module, attribute path) of every wrapped target
TARGETS = (
    ("systems", "qts_adjoint", "repro.systems.qts",
     "QuantumTransitionSystem.adjoint"),
    ("systems", "op_adjoint", "repro.systems.operations",
     "QuantumOperation.adjoint"),
    ("circuits", "circuit_to_tdd", "repro.circuits.network",
     "circuit_to_tdd"),
    ("circuits", "blocks_for", "repro.image.contraction",
     "ContractionImageComputer.blocks_for"),
    ("circuits", "parts_for", "repro.image.addition",
     "AdditionImageComputer.parts_for"),
    ("circuits", "slices_for", "repro.image.hybrid",
     "HybridImageComputer.slices_for"),
    ("circuits", "build_family", "repro.image.batched", "build_family"),
    ("image", "partial_image", "repro.image.base",
     "ImageComputerBase.partial_image"),
    ("image", "contract", "repro.image.sliced",
     "MonolithicExecutor.contract"),
    ("image", "sliced_contract", "repro.image.sliced",
     "SlicedExecutor.contract"),
    ("subspace", "add_state", "repro.subspace.subspace",
     "Subspace.add_state"),
    ("subspace", "project_state", "repro.subspace.subspace",
     "Subspace.project_state"),
    ("subspace", "join", "repro.subspace.subspace", "Subspace.join"),
    ("subspace", "complement", "repro.subspace.subspace",
     "Subspace.complement"),
    ("tdd", "collect", "repro.tdd.manager", "TDDManager.collect"),
    ("mc", "check", "repro.mc.checker", "ModelChecker.check"),
    ("mc", "reachable", "repro.mc.checker", "ModelChecker.reachable"),
    ("mc", "reachable_space", "repro.mc.reachability", "reachable_space"),
    ("mc", "advance", "repro.mc.drivers", "SequentialDriver.advance"),
    ("mc", "advance", "repro.mc.drivers", "OpShardedDriver.advance"),
    ("mc", "advance", "repro.mc.drivers", "FrontierDriver.advance"),
    ("mc", "witness", "repro.mc.witness", "extract_witness_trace"),
    ("store", "lookup", "repro.store.store", "ResultStore.lookup"),
    ("store", "store", "repro.store.store", "ResultStore.store"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))


@dataclass
class Span:
    """Aggregate of every call to one span name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    #: calls whose result was not None
    nonnull: int = 0
    #: sum of integer results
    int_sum: int = 0


class Tracer:
    """Install spans around :data:`TARGETS`; use as a context manager."""

    def __init__(self) -> None:
        self.spans = {}
        self.absent = []
        self._stack = []
        self._patches = []

    def reset(self) -> None:
        self.spans = {f"{layer}.{name}": Span()
                      for layer, name, *_ in TARGETS}

    # ------------------------------------------------------------------
    def __enter__(self) -> "Tracer":
        self.reset()
        self.absent = []
        for layer, name, module_name, path in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner, attr = module, path
                if "." in path:
                    class_name, attr = path.split(".")
                    owner = getattr(module, class_name)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(f"{layer}.{name}", original)
            if owner is module:
                # a function is also bound by name in every module that
                # imported it with ``from ... import``
                for other in list(sys.modules.values()):
                    if (getattr(other, "__name__", "").startswith("repro")
                            and getattr(other, attr, None) is original):
                        self._patch(other, attr, original, wrapper)
            else:
                self._patch(owner, attr, original, wrapper)
        return self

    def __exit__(self, *_exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _wrap(self, key: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                record = self.spans[key]
                record.calls += 1
                record.total_s += duration
                record.self_s += duration - children
                if result is not None:
                    record.nonnull += 1
                    if isinstance(result, int):
                        record.int_sum += result
        return span

    # ------------------------------------------------------------------
    def layer_self_s(self, layer: str) -> float:
        return sum(span.self_s for key, span in self.spans.items()
                   if key.startswith(layer + "."))
