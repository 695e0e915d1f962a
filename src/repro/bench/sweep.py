"""Declarative batch experiment runner.

A *sweep* is a list of fully-described configurations
(:class:`RunSpec`: circuit family × size × one validated
:class:`~repro.mc.config.CheckerConfig` × an optional property spec),
executed by :func:`run_sweep`:

* configurations fan out over a :mod:`concurrent.futures` process pool
  (``jobs > 1``) — every run builds its QTS inside its own worker, so
  runs are isolated and the measured time includes transition-TDD
  construction, matching the paper's methodology;
* a run either benchmarks one image computation (``spec=None``) or
  checks a temporal specification (``spec="AG inv"`` — see
  :mod:`repro.mc.specs`) and records the verdict, witness dimension
  and reachability trace alongside the kernel cost profile;
* results stream into a JSON artifact after every completed run and a
  CSV at the end, and a sweep is *resumable*: re-running against the
  same artifact directory skips configurations whose ``run_id`` is
  already recorded.

``table1``/``table2`` are thin wrappers over this module (their grids
are just sweep specs), and the CLI exposes it as ``python -m repro
sweep`` — see :func:`main` for the spec-file format.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence)

from repro.errors import ReproError
from repro.mc.checker import ModelChecker
from repro.mc.config import CheckerConfig
from repro.mc.reachability import ReachabilityCache
from repro.store import ResultStore
from repro.systems import models
from repro.utils.tables import format_table

#: the flat column schema of the CSV artifact (and of every record).
#: It is a compatibility contract, so the columns of knobs that are gone
#: stay and hold the one value the remaining code path has: ``jobs`` is
#: 1, ``driver`` is ``frontier``, ``strategy`` is ``monolithic`` with
#: the ``slice_depth`` of 2 every monolithic record has carried,
#: ``parallel_tasks``, ``pool_fallbacks`` and ``slices`` are 0, and so
#: is ``cache_evictions`` (the TDD memo tables have no size bound).
CSV_COLUMNS = (
    "run_id", "label", "model", "size", "method", "backend", "strategy",
    "jobs", "slice_depth", "driver", "direction", "bound", "spec",
    "verdict", "witness_dimension", "trace_length", "trace_valid",
    "iterations", "converged", "cache_warm", "store_hit", "dimension",
    "seconds",
    "max_nodes", "contractions", "additions", "cache_hits",
    "cache_misses", "cache_hit_rate", "add_hit_rate", "cont_hit_rate",
    "cache_evictions", "slices",
    "parallel_tasks", "pool_fallbacks", "gc_runs", "nodes_reclaimed",
    "peak_live_nodes", "live_nodes", "failed", "error",
)

# ----------------------------------------------------------------------
# specs
# ----------------------------------------------------------------------
class RunSpec:
    """One fully-described configuration: model + size + config + spec.

    ``config`` is the validated engine configuration
    (:class:`~repro.mc.config.CheckerConfig`; default: its defaults);
    ``spec`` an optional property to check (text, e.g. ``"AG inv"`` —
    without one the run benchmarks a single image computation);
    ``model_params`` go to the circuit builder (``iterations``,
    ``steps``, ``noise_probability``, ...).
    """

    def __init__(self, model: str, size: int,
                 config: Optional[CheckerConfig] = None,
                 spec: Optional[str] = None,
                 model_params: Optional[Mapping] = None,
                 label: Optional[str] = None) -> None:
        if model not in models.MODEL_BUILDERS:
            raise ReproError(f"unknown model {model!r}; choose from "
                             f"{sorted(models.MODEL_BUILDERS)}")
        self.model = model
        self.size = size
        self.config = config if config is not None else CheckerConfig()
        self.spec = spec
        self.model_params = dict(model_params or {})
        self.label = label if label is not None else f"{model}{size}"

    # ------------------------------------------------------------------
    @property
    def run_id(self) -> str:
        """Deterministic identity of this configuration (resume key).

        The format is stable, so existing artifacts resume: every id
        keeps the ``monolithic`` segment of the one contraction path,
        and no run names a fixpoint schedule.
        """
        def fmt(params: Mapping) -> str:
            return ",".join(f"{k}={params[k]}" for k in sorted(params))
        config = self.config
        parts = [f"{self.model}{self.size}", config.method, config.backend,
                 "monolithic"]
        if config.direction != "forward":
            parts.append(f"dir={config.direction}")
        if config.bound:
            parts.append(f"bound={config.bound}")
        if config.method_params:
            parts.append(fmt(config.method_params))
        if self.model_params:
            parts.append(fmt(self.model_params))
        if self.spec is not None:
            parts.append(f"check[{self.spec}]")
        return "/".join(parts)

    def as_dict(self) -> dict:
        return {"model": self.model, "size": self.size,
                "config": self.config.as_dict(),
                "spec": self.spec,
                "model_params": dict(self.model_params),
                "label": self.label}

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunSpec":
        """Parse the :meth:`as_dict` form.

        Engine settings live under ``"config"`` (a
        :meth:`CheckerConfig.as_dict <repro.mc.config.CheckerConfig.
        as_dict>` mapping, parsed by :meth:`CheckerConfig.from_dict
        <repro.mc.config.CheckerConfig.from_dict>`, which also reads
        configs written by older versions); a flat run dict carrying
        them at the top level is rejected.
        """
        data = dict(data)
        known = {"model", "size", "config", "spec", "model_params",
                 "label"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ReproError(
                f"unknown run fields {unknown}; engine settings go under "
                f"\"config\", e.g. {{\"model\": \"ghz\", \"size\": 3, "
                f"\"config\": {{\"method\": \"basic\"}}}}")
        if "config" in data:
            data["config"] = CheckerConfig.from_dict(data["config"])
        return cls(**data)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RunSpec)
                and other.model == self.model and other.size == self.size
                and other.config == self.config and other.spec == self.spec
                and other.model_params == self.model_params
                and other.label == self.label)

    def __repr__(self) -> str:
        return f"RunSpec({self.run_id!r})"


@dataclass
class SweepSpec:
    """A named list of runs — the unit :func:`run_sweep` executes."""

    name: str
    runs: List[RunSpec]

    # ------------------------------------------------------------------
    @classmethod
    def from_axes(cls, name: str,
                  model_names: Sequence[str],
                  sizes: Sequence[int],
                  methods: Sequence[str] = ("contraction",),
                  backends: Sequence[str] = ("tdd",),
                  specs: Sequence[Optional[str]] = (None,),
                  directions: Sequence[str] = ("forward",),
                  bounds: Sequence[int] = (0,),
                  method_params: Optional[Dict[str, dict]] = None,
                  model_params: Optional[dict] = None) -> "SweepSpec":
        """The cartesian product of the given axes.

        ``method_params`` maps a method name to its parameter dict
        (e.g. ``{"contraction": {"k1": 4, "k2": 4}}``);
        ``model_params`` applies to every run; ``specs`` adds
        property-check rows (``None`` = plain image benchmark);
        ``directions``/``bounds`` cross the grid with backward
        (preimage) analysis and depth-limited fixpoints.  The dense
        backend ignores methods, so crossing it with that axis would
        duplicate work — duplicate configurations are dropped (by
        ``run_id``).
        """
        method_params = method_params or {}
        runs: List[RunSpec] = []
        cells = itertools.product(model_names, sizes, specs, backends,
                                  methods, directions, bounds)
        for (model, size, spec_text, backend, method,
             direction, bound) in cells:
            if spec_text is None:
                # a plain image benchmark is a single step — a fixpoint
                # bound cannot affect it, so crossing that axis in
                # would only duplicate the measurement (the run_id
                # dedup below collapses the copies)
                bound = 0
            if backend == "dense":
                config = CheckerConfig(backend="dense",
                                       direction=direction, bound=bound)
            else:
                config = CheckerConfig(
                    method=method,
                    method_params=dict(method_params.get(method, {})),
                    direction=direction, bound=bound)
            runs.append(RunSpec(model=model, size=size, config=config,
                                spec=spec_text,
                                model_params=dict(model_params or {})))
        return cls(name=name, runs=_unique(runs))

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        """Parse a declarative spec.

        Either an explicit run list::

            {"name": "mine", "runs": [{"model": "ghz", "size": 4,
             "config": {"method": "basic"}, "spec": "AG init"}]}

        or axes to take the product of::

            {"name": "tiny", "models": ["ghz", "bv"], "sizes": [3, 4],
             "methods": ["basic"], "specs": ["AG init"],
             "method_params": {"contraction": {"k1": 4, "k2": 4}}}

        Older specs may carry a ``strategies`` axis and a
        ``slice_depth``; they are accepted under the rule of
        :meth:`CheckerConfig.from_dict
        <repro.mc.config.CheckerConfig.from_dict>` and ignored, as
        every strategy now runs the one contraction path.  Runs that
        differ only in them collapse into one (by ``run_id``).
        """
        name = data.get("name", "sweep")
        legacy = [{"strategy": s} for s in data.get("strategies", ())]
        if "slice_depth" in data:
            legacy.append({"slice_depth": data["slice_depth"]})
        for keys in legacy:
            CheckerConfig.from_dict(keys)  # raises on any other value
        if "runs" in data:
            return cls(name=name, runs=_unique(
                RunSpec.from_dict(r) for r in data["runs"]))
        try:
            model_names = data["models"]
            sizes = data["sizes"]
        except KeyError as missing:
            raise ReproError(f"sweep spec needs either 'runs' or the "
                             f"'models'/'sizes' axes (missing {missing})")
        return cls.from_axes(
            name, model_names, sizes,
            methods=data.get("methods", ("contraction",)),
            backends=data.get("backends", ("tdd",)),
            specs=data.get("specs", (None,)),
            directions=data.get("directions", ("forward",)),
            bounds=data.get("bounds", (0,)),
            method_params=data.get("method_params"),
            model_params=data.get("model_params"))

    @classmethod
    def from_json_file(cls, path: str) -> "SweepSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def as_dict(self) -> dict:
        return {"name": self.name,
                "runs": [run.as_dict() for run in self.runs]}


def _unique(runs: Iterable[RunSpec]) -> List[RunSpec]:
    """``runs`` in order, without repeats of a ``run_id``."""
    by_id: Dict[str, RunSpec] = {}
    for run in runs:
        by_id.setdefault(run.run_id, run)
    return list(by_id.values())


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def execute_run(spec: RunSpec,
                reach_cache: Optional[ReachabilityCache] = None) -> dict:
    """Run one configuration in-process and return its flat record.

    Builds a fresh QTS (construction time is part of the measurement),
    then either computes one image on the configured backend or — when
    the run carries a property ``spec`` — checks it through
    :meth:`~repro.mc.checker.ModelChecker.check`, and flattens the
    outcome into the :data:`CSV_COLUMNS` schema.

    ``reach_cache`` warm-starts the reachability fixpoint behind
    property-check rows: the reachable subspace depends only on the
    transition relation, the fixpoint seed, the direction and the
    bound — not on the image method — so a sweep crossing that axis
    pays the iteration ladder once per (model, size, spec, direction)
    cell and replays it from the cache for every other configuration.
    Warm rows carry ``cache_warm=True``; rows whose fixpoint was served by a
    *persistent* :class:`~repro.store.ResultStore` (``run_sweep``'s
    ``store_dir``) additionally carry ``store_hit=True`` — a re-run
    over an already-populated store recomputes no fixpoint at all.
    """
    config = spec.config
    record = {"model": spec.model, "size": spec.size,
              "method": config.method, "backend": config.backend,
              "strategy": "monolithic", "jobs": 1,
              "slice_depth": 2, "label": spec.label,
              "driver": "frontier", "direction": config.direction,
              "bound": config.bound, "spec": spec.spec or "",
              "verdict": "", "cache_warm": False, "store_hit": False,
              "run_id": spec.run_id, "failed": False, "error": ""}
    try:
        qts = models.build_model(spec.model, spec.size, **spec.model_params)
        checker = ModelChecker(qts, spec.config)
        if spec.spec is not None:
            result = checker.check(spec.spec, reach_cache=reach_cache)
            record["verdict"] = result.verdict
            record["witness_dimension"] = result.witness_dimension
            record["trace_length"] = result.trace_length
            record["trace_valid"] = (result.witness_trace.valid
                                     if result.witness_trace is not None
                                     else False)
            record["iterations"] = result.iterations
            record["converged"] = result.converged
            record["cache_warm"] = bool(
                result.stats.extra.get("cache_warm", False))
            record["store_hit"] = (
                result.stats.extra.get("cache_source") == "disk")
            record["dimension"] = result.reachable_dimension
            stats = result.stats.as_dict()
        else:
            result = checker.image()
            record["dimension"] = result.dimension
            stats = result.stats.as_dict()
    except Exception as exc:  # a failed cell must not sink the sweep
        record["failed"] = True
        record["error"] = f"{type(exc).__name__}: {exc}"
        for column in CSV_COLUMNS:
            record.setdefault(column, 0)
        return record
    for column in CSV_COLUMNS:
        if column not in record:
            record[column] = stats.get(column, 0)
    return record


#: per-worker-process warm-start cache: pool workers outlive single
#: runs, so configurations landing on the same worker share fixpoints
_WORKER_REACH_CACHE = ReachabilityCache()

#: per-worker-process handles on persistent stores, keyed by directory
#: (one SQLite connection per process; all workers share the same
#: on-disk store, so fixpoints flow *between* workers too)
_WORKER_STORES: Dict[str, ResultStore] = {}


def _worker_store(store_dir: str) -> ResultStore:
    store = _WORKER_STORES.get(store_dir)
    if store is None:
        store = _WORKER_STORES[store_dir] = ResultStore(store_dir)
    return store


def _execute_payload(payload: dict, warm_start: bool = True,
                     store_dir: Optional[str] = None) -> dict:
    """Process-pool entry point (a :class:`RunSpec` as a plain dict)."""
    if not warm_start:
        cache = None
    elif store_dir is not None:
        cache = _worker_store(store_dir)
    else:
        cache = _WORKER_REACH_CACHE
    return execute_run(RunSpec.from_dict(payload), reach_cache=cache)


@dataclass
class SweepResult:
    """Outcome of :func:`run_sweep`, in spec order."""

    spec: SweepSpec
    records: List[dict]
    skipped: int = 0
    json_path: Optional[str] = None
    csv_path: Optional[str] = None

    @property
    def failed(self) -> List[dict]:
        return [r for r in self.records if r.get("failed")]


def _artifact_paths(spec: SweepSpec, out_dir: str):
    return (os.path.join(out_dir, f"{spec.name}.json"),
            os.path.join(out_dir, f"{spec.name}.csv"))


def _load_existing(json_path: str) -> Dict[str, dict]:
    if not os.path.exists(json_path):
        return {}
    with open(json_path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return {record["run_id"]: record for record in data.get("records", [])}


def _write_json(json_path: str, spec: SweepSpec,
                by_id: Dict[str, dict]) -> None:
    # temp-file + rename: a sweep killed mid-write must not corrupt the
    # artifact it would later resume from
    payload = {"name": spec.name, "spec": spec.as_dict(),
               "records": list(by_id.values())}
    tmp_path = json_path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    os.replace(tmp_path, json_path)


def write_csv(csv_path: str, records: Iterable[dict]) -> None:
    with open(csv_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(CSV_COLUMNS),
                                extrasaction="ignore")
        writer.writeheader()
        for record in records:
            writer.writerow(record)


def run_sweep(spec: SweepSpec, jobs: int = 1,
              out_dir: Optional[str] = None, resume: bool = True,
              progress: Optional[Callable[[str], None]] = None,
              warm_start: bool = True,
              store_dir: Optional[str] = None) -> SweepResult:
    """Execute a sweep, optionally fanning runs out over a process pool.

    ``jobs`` is the number of *concurrent configurations*; each one
    runs :func:`execute_run` in its own worker process.  With
    ``out_dir`` set, the JSON artifact is rewritten after every
    completed run and ``resume=True`` (the default) skips run ids
    already present in it — a killed sweep continues where it stopped.

    ``warm_start=True`` (the default) shares reachability fixpoints
    between property-check rows that differ only in image method (see
    :class:`~repro.mc.reachability.ReachabilityCache`); warm rows carry
    ``cache_warm=True``.  Pass ``warm_start=False`` (CLI:
    ``--no-warm-start``) when the sweep's purpose is to *benchmark* the
    fixpoint itself — a warm-started row measures one confirming round,
    not the configured engine's full iteration ladder.

    ``store_dir`` (CLI: ``--store DIR``) replaces the sweep-lifetime
    in-memory cache with a persistent
    :class:`~repro.store.ResultStore` at that directory: fixpoints
    survive across sweep invocations and flow between pool workers, so
    a re-run over a populated store performs *zero* fixpoint
    recomputations for unchanged (system, seed, direction, bound)
    keys.  Rows served from disk carry ``store_hit=True``.
    """
    say = progress if progress is not None else (lambda _msg: None)
    json_path = csv_path = None
    by_id: Dict[str, dict] = {}
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        json_path, csv_path = _artifact_paths(spec, out_dir)
        if resume:
            by_id = _load_existing(json_path)
    wanted = {run.run_id for run in spec.runs}
    # keep only this spec's records, and retry failed cells instead of
    # resuming into a permanently-red sweep
    by_id = {rid: rec for rid, rec in by_id.items()
             if rid in wanted and not rec.get("failed")}
    pending = [run for run in spec.runs if run.run_id not in by_id]
    skipped = len(spec.runs) - len(pending)
    if skipped:
        say(f"resume: {skipped} of {len(spec.runs)} runs already recorded")

    def record_done(record: dict) -> None:
        by_id[record["run_id"]] = record
        if json_path is not None:
            _write_json(json_path, spec, by_id)
        if record["failed"]:
            state = "FAILED " + record["error"]
        elif record.get("verdict"):
            state = (f"{record['verdict']} "
                     f"(reachable dim={record['dimension']}) "
                     f"{record['seconds']:.2f}s")
        else:
            state = f"dim={record['dimension']} {record['seconds']:.2f}s"
        say(f"[{len(by_id)}/{len(spec.runs)}] {record['run_id']}: {state}")

    if jobs > 1 and len(pending) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {pool.submit(_execute_payload, run.as_dict(),
                                   warm_start, store_dir): run
                       for run in pending}
            remaining = set(futures)
            while remaining:
                done, remaining = wait(remaining,
                                       return_when=FIRST_COMPLETED)
                for future in done:
                    record_done(future.result())
    else:
        # one warm-start cache per sweep — or, with store_dir, the
        # persistent store: runs differing only in method reuse each
        # other's fixpoints, and with the store they also reuse every
        # previous invocation's
        reach_cache = close_me = None
        if warm_start and store_dir is not None:
            reach_cache = close_me = ResultStore(store_dir)
        elif warm_start:
            reach_cache = ReachabilityCache()
        try:
            for run in pending:
                record_done(execute_run(run, reach_cache=reach_cache))
        finally:
            if close_me is not None:
                close_me.close()

    records = [by_id[run.run_id] for run in spec.runs]
    if csv_path is not None:
        write_csv(csv_path, records)
    return SweepResult(spec=spec, records=records, skipped=skipped,
                       json_path=json_path, csv_path=csv_path)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def format_records(records: Sequence[dict]) -> str:
    headers = ["run", "dim", "verdict", "time [s]", "max#node",
               "cache hit%", "live/peak"]
    rows = []
    for record in records:
        if record.get("failed"):
            rows.append([record["run_id"], "-", "-", "-", "-", "-", "-"])
            continue
        rows.append([
            record["run_id"], str(record["dimension"]),
            record.get("verdict") or "-",
            f"{record['seconds']:.2f}", str(record["max_nodes"]),
            f"{100 * record['cache_hit_rate']:.0f}%",
            f"{record['live_nodes']}/{record['peak_live_nodes']}"])
    return format_table(headers, rows)


def _csv_ints(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part]


def _csv_names(text: str) -> List[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description="Batch experiment runner: fan a declarative sweep "
                    "spec (models x sizes x methods x backends x "
                    "property specs) over a process pool "
                    "with resumable JSON/CSV artifacts.")
    parser.add_argument("--spec", help="JSON sweep spec file (see "
                                       "SweepSpec.from_dict)")
    parser.add_argument("--name", default="sweep",
                        help="sweep name (artifact file stem)")
    parser.add_argument("--models", type=_csv_names, default=[],
                        help="comma-separated model names (axes mode)")
    parser.add_argument("--sizes", type=_csv_ints, default=[],
                        help="comma-separated qubit counts (axes mode)")
    parser.add_argument("--methods", type=_csv_names,
                        default=["contraction"])
    parser.add_argument("--backends", type=_csv_names, default=["tdd"])
    parser.add_argument("--check", action="append", default=[],
                        dest="checks", metavar="SPEC",
                        help="property spec to check on every "
                             "model/size cell (repeatable), e.g. "
                             "--check \"AG init\"")
    parser.add_argument("--directions", type=_csv_names,
                        default=["forward"],
                        help="comma-separated analysis directions "
                             "(forward,backward)")
    parser.add_argument("--bounds", type=_csv_ints, default=[0],
                        help="comma-separated fixpoint depth bounds "
                             "(0 = saturation)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="concurrent configurations (process pool)")
    parser.add_argument("--out", default=None,
                        help="artifact directory (JSON + CSV; enables "
                             "resume)")
    parser.add_argument("--no-resume", action="store_true",
                        help="ignore existing artifacts, recompute all")
    parser.add_argument("--no-warm-start", action="store_true",
                        help="disable fixpoint reuse between check rows "
                             "(use when benchmarking the fixpoint "
                             "itself; warm rows measure one confirming "
                             "round, not the full iteration ladder)")
    parser.add_argument("--store", default=None, metavar="DIR",
                        dest="store_dir",
                        help="persistent result-store directory: "
                             "fixpoints warm-start from it across "
                             "sweep invocations and are written back; "
                             "rows served from disk carry "
                             "store_hit=True (see 'repro cache')")
    args = parser.parse_args(argv)

    if args.spec:
        spec = SweepSpec.from_json_file(args.spec)
    elif args.models and args.sizes:
        spec = SweepSpec.from_axes(
            args.name, args.models, args.sizes, methods=args.methods,
            backends=args.backends,
            specs=(args.checks or [None]),
            directions=args.directions, bounds=args.bounds,
            method_params={"contraction": {"k1": 4, "k2": 4},
                           "addition": {"k": 1},
                           "hybrid": {"k": 1, "k1": 4, "k2": 4}})
    else:
        parser.error("provide --spec FILE, or --models and --sizes")

    result = run_sweep(spec, jobs=args.jobs, out_dir=args.out,
                       resume=not args.no_resume, progress=print,
                       warm_start=not args.no_warm_start,
                       store_dir=args.store_dir)
    print(f"Sweep {spec.name!r}: {len(result.records)} runs "
          f"({result.skipped} resumed, {len(result.failed)} failed)")
    print(format_records(result.records))
    if result.json_path:
        print(f"artifacts: {result.json_path}, {result.csv_path}")
    return 1 if result.failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
