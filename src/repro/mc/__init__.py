"""Model checking on quantum transition systems.

The front door is :class:`~repro.mc.checker.ModelChecker` configured by
one :class:`~repro.mc.config.CheckerConfig` and driven by
:meth:`~repro.mc.checker.ModelChecker.check`, which evaluates temporal
specifications (``"AG (inv & ~bad)"``, ``"EF target"`` — see
:mod:`repro.mc.specs`) over the Birkhoff-von Neumann proposition
algebra of :mod:`repro.mc.logic` and returns one uniform
:class:`~repro.mc.checker.CheckResult` on either backend (symbolic TDD
or dense statevector).  Reachability fixpoints, invariants and
cross-validation call the same engine entry points
(:func:`~repro.image.engine.compute_image` and
:func:`~repro.mc.reachability.reachable_space`, the one fixpoint
loop).
"""

from repro.mc.reachability import (ReachabilityCache, ReachabilityTrace,
                                   reachable_space)
from repro.mc.config import BACKENDS, CheckerConfig
from repro.mc.checker import (CheckResult, CrossValidation, ModelChecker,
                              cross_validate)
from repro.mc.logic import (Always, Atomic, Eventually, Join, Meet, Name,
                            Not, Proposition, TemporalSpec)
from repro.mc.specs import parse_spec, resolve, to_text
from repro.mc.witness import WitnessTrace, extract_witness_trace

__all__ = [
    "reachable_space", "ReachabilityCache", "ReachabilityTrace",
    "BACKENDS", "CheckerConfig", "CrossValidation", "cross_validate",
    "CheckResult", "ModelChecker",
    "Always", "Atomic", "Eventually", "Join", "Meet", "Name", "Not",
    "Proposition", "TemporalSpec",
    "parse_spec", "resolve", "to_text",
    "WitnessTrace", "extract_witness_trace",
]
