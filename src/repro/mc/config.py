"""Engine configuration as a first-class value: :class:`CheckerConfig`.

``CheckerConfig`` is the single source of truth for the engine knobs
(``backend`` / ``method`` / ``direction`` / ``bound`` plus per-method
parameters):

* construction **validates**: unknown backends/methods/directions,
  method parameters that do not belong to the chosen method or hold a
  value it cannot cut with, and tdd-only options combined with the
  dense backend all raise a :class:`~repro.errors.ConfigError` up
  front;
* it is **frozen** — a config can be shared between a checker, a sweep
  spec and an artifact without defensive copying;
* it **round-trips**: :meth:`to_json` / :meth:`from_json` and
  :meth:`as_dict` / :meth:`from_dict` for sweep artifacts,
  :meth:`from_cli_args` for the argparse namespaces of the CLI.

It is the only configuration spelling: :class:`~repro.mc.checker.
ModelChecker`, :func:`~repro.image.engine.make_engine`,
:class:`~repro.image.engine.ImageEngine`,
:func:`~repro.image.engine.compute_image`,
:func:`~repro.mc.reachability.reachable_space`, the CLI and
:class:`~repro.bench.sweep.RunSpec` all take one.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Mapping, Optional

from repro.errors import ConfigError
from repro.image.engine import (DIRECTIONS, METHOD_PARAMS, METHODS,
                                TABLE1_PARAMS)

#: the available computation engines (the dense statevector reference
#: is exponential — small sizes only)
BACKENDS = ("tdd", "dense")

#: settings that only the symbolic tdd backend interprets
_TDD_ONLY_FIELDS = ("method", "method_params")

#: the fixpoint schedules a stored config may still name (see
#: :meth:`CheckerConfig.from_dict`)
_LEGACY_DRIVERS = ("sequential", "opsharded", "frontier")

#: the execution strategies a stored config may still name
_LEGACY_STRATEGIES = ("monolithic", "sliced")


@dataclass(frozen=True)
class CheckerConfig:
    """One validated, immutable engine configuration.

    ``method_params`` are the image-method parameters, the names in
    :data:`METHOD_PARAMS`: ``k`` for addition, ``k1``/``k2`` for
    contraction, all three for hybrid (see
    :func:`~repro.image.engine.make_computer` for the shape each
    method cuts).  ``k`` is an integer ``>= 0``, ``k1`` and ``k2``
    integers ``>= 1``.  ``max_qubits`` raises the dense backend's size
    guard.
    ``direction`` selects forward (image) or backward (preimage,
    against the adjoint Kraus family) analysis and ``bound``
    depth-limits reachability fixpoints (0 = run to saturation) — both
    are honoured by *both* backends.  Every mismatch is rejected at
    construction time.
    """

    backend: str = "tdd"
    method: str = "contraction"
    method_params: Mapping[str, object] = field(default_factory=dict)
    max_qubits: Optional[int] = None
    direction: str = "forward"
    bound: int = 0

    def __post_init__(self) -> None:
        # freeze a private copy so a caller-held dict cannot mutate us
        object.__setattr__(self, "method_params", dict(self.method_params))
        self.validate()

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Reject unknown names and mismatched parameters loudly."""
        if self.backend not in BACKENDS:
            raise ConfigError(f"unknown backend {self.backend!r}; "
                              f"choose from {BACKENDS}")
        if self.method not in METHODS:
            raise ConfigError(f"unknown image method {self.method!r}; "
                              f"choose from {METHODS}")
        if self.direction not in DIRECTIONS:
            raise ConfigError(f"unknown direction {self.direction!r}; "
                              f"choose from {DIRECTIONS}")
        if not isinstance(self.bound, int) or self.bound < 0:
            raise ConfigError(f"bound must be a non-negative integer "
                              f"(0 = unbounded), got {self.bound!r}")
        allowed = METHOD_PARAMS[self.method]
        unknown = set(self.method_params) - allowed
        if unknown:
            hints = []
            for name in sorted(unknown):
                owners = sorted(method for method, params
                                in METHOD_PARAMS.items() if name in params)
                hints.append(f"{name!r}"
                             + (f" (a parameter of {', '.join(owners)})"
                                if owners else ""))
            raise ConfigError(
                f"method {self.method!r} does not take {', '.join(hints)}; "
                f"it accepts {sorted(allowed) if allowed else 'no parameters'}")
        for name, low in (("k", 0), ("k1", 1), ("k2", 1)):
            value = self.method_params.get(name, low)
            if (isinstance(value, bool) or not isinstance(value, int)
                    or value < low):
                raise ConfigError(f"{name} must be an integer >= {low}, "
                                  f"got {value!r}")
        if self.backend == "dense":
            offending = [name for name in _TDD_ONLY_FIELDS
                         if getattr(self, name) != _DEFAULTS[name]]
            if offending:
                raise ConfigError(
                    f"{', '.join(offending)} are tdd-only options; the "
                    f"dense backend would silently ignore them — remove "
                    f"them or use backend='tdd'")
            if self.max_qubits is not None and (
                    not isinstance(self.max_qubits, int)
                    or self.max_qubits < 1):
                raise ConfigError(f"max_qubits must be a positive "
                                  f"integer, got {self.max_qubits!r}")
        elif self.max_qubits is not None:
            raise ConfigError("max_qubits is a dense-only option; the "
                              "tdd backend has no dimension guard")

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_cli_args(cls, args) -> "CheckerConfig":
        """Build a config from an argparse namespace (strictly).

        Explicit tdd-only flags combined with ``--backend dense`` raise
        a :class:`~repro.errors.ConfigError` instead of vanishing (the
        silent-drop bug the old CLI had); flags still at their argparse
        defaults are treated as unset.
        """
        backend = getattr(args, "backend", "tdd")
        method = getattr(args, "method", "contraction")
        direction = getattr(args, "direction", "forward")
        bound = getattr(args, "bound", 0)
        method_params = {}
        for name in sorted(METHOD_PARAMS[method]):
            if hasattr(args, name):
                method_params[name] = getattr(args, name)
        if backend == "dense" and method == "contraction" and (
                method_params == TABLE1_PARAMS["contraction"]):
            # flags left at their CLI defaults were not asked for;
            # anything else reaches validate() and is rejected there
            method_params = {}
        return cls(backend=backend, method=method,
                   method_params=method_params,
                   direction=direction, bound=bound)

    def replace(self, **changes) -> "CheckerConfig":
        """A copy with the given fields replaced (re-validated)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # round-trips
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """A JSON-able dict; defaults are included for explicitness."""
        return {"backend": self.backend, "method": self.method,
                "method_params": dict(self.method_params),
                "max_qubits": self.max_qubits,
                "direction": self.direction, "bound": self.bound}

    @classmethod
    def from_dict(cls, data: Mapping) -> "CheckerConfig":
        """The inverse of :meth:`as_dict`; unknown fields raise.

        Older configs carry keys for knobs that are gone, and each is
        dropped when every value it may hold names today's computation:

        * a boolean ``batched`` (the batched weight kernel; every
          method now runs its own partition);
        * a ``driver`` naming one of the old fixpoint schedules
          (``sequential``, ``opsharded``, ``frontier``; all three
          reach the same space, and frontier is the one that remains);
        * a ``jobs`` that is ``null`` or a positive integer (the
          sliced strategy's worker pool; results were identical for
          every width);
        * a ``strategy`` of ``monolithic`` or ``sliced`` and a
          non-negative integer ``slice_depth`` (cofactor-split
          contraction; both strategies reach the same spaces, and every
          contraction is now one kernel call).

        Any other value of these keys is still an unknown field.
        """
        data = dict(data)
        if isinstance(data.get("batched"), bool):
            del data["batched"]
        if data.get("driver") in _LEGACY_DRIVERS:
            del data["driver"]
        if data.get("strategy") in _LEGACY_STRATEGIES:
            del data["strategy"]
        jobs = data.get("jobs")
        if "jobs" in data and (jobs is None
                               or (type(jobs) is int and jobs > 0)):
            del data["jobs"]
        depth = data.get("slice_depth")
        if type(depth) is int and depth >= 0:
            del data["slice_depth"]
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown CheckerConfig fields "
                              f"{sorted(unknown)}; known: {sorted(known)}")
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CheckerConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ConfigError(f"a CheckerConfig JSON document must be an "
                              f"object, got {type(data).__name__}")
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """A one-line human-readable echo (CLI output, CheckResult)."""
        parts = [f"backend={self.backend}"]
        if self.direction != "forward":
            parts.append(f"direction={self.direction}")
        if self.bound:
            parts.append(f"bound={self.bound}")
        if self.backend == "tdd":
            parts.append(f"method={self.method}")
            for name in sorted(self.method_params):
                parts.append(f"{name}={self.method_params[name]}")
        elif self.max_qubits is not None:
            parts.append(f"max_qubits={self.max_qubits}")
        return " ".join(parts)


#: the field defaults, used to detect "explicitly set" tdd-only
#: options — derived from the dataclass so the two cannot drift
_DEFAULTS = {f.name: (f.default_factory() if f.default is MISSING
                      else f.default)
             for f in fields(CheckerConfig)
             if f.name in _TDD_ONLY_FIELDS}
