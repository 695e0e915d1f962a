"""Command-line interface.

Subcommands:

* ``image``  — one-step image computation on a built-in model,
* ``reach``  — reachability fixpoint,
* ``check``  — check a temporal specification (``--spec "AG inv"``),
* ``invariant`` — check ``T(S0) <= S0`` (``--strict`` for equality),
* ``crosscheck`` — compare the tdd and dense backends on one image
  (or on one ``--spec`` check),
* ``sweep``  — batch experiment runner (declarative spec, process-pool
  fan-out, resumable JSON/CSV artifacts, property-check rows),
* ``cache``  — manage the persistent result store
  (``ls``/``stats``/``gc``/``export``/``import``, see
  :mod:`repro.store.cli`),
* ``table1`` / ``table2`` / ``smoke`` — forward to the benchmark
  harnesses (all thin wrappers over the sweep runner).

Engine flags build one validated
:class:`~repro.mc.config.CheckerConfig`: ``--backend {tdd,dense}``
(the dense statevector reference is exponential — small sizes only)
and the per-method parameters.  Mismatched combinations (tdd-only
knobs with ``--backend dense``) are rejected with a clear error
instead of being silently dropped.

Specs (``check``/``crosscheck --spec``) use the text language of
``repro.mc.specs``: ``AG``/``EF`` — optionally bounded, ``AG[<=k]`` /
``EF[<=k]`` — over atoms the model registers (``init`` always works;
e.g. grover registers ``inv``, ``marked``, ``plus``, ``ancilla_plus``)
combined with ``&``, ``|``, ``~`` and parentheses.

``image``/``reach``/``check`` accept ``--direction
{forward,backward}`` (backward = preimage analysis against the adjoint
Kraus family: ``reach`` computes the states that can *reach* the
initial set, ``check`` decides the spec from the event set backwards)
and ``--bound K`` (depth-limit the fixpoint to K image steps).
``reach``/``check`` accept ``--store DIR``: the fixpoint behind the
run is warm-started from (and, on a miss, recorded into) the
disk-backed content-addressed :class:`~repro.store.ResultStore` at
``DIR`` — only converged, unbounded fixpoints are admitted, so the
store never changes a verdict.  A hit is certified closed with one
image per class of proportional Kraus circuits and prints ``store =
hit (certified)``; when the certificate fails the fixpoint loop runs
from the stored space and the line reads ``hit``.  A verdict served
from the store that calls for a witness stands only when the witness
replays from the initial space; otherwise the entry is quarantined
and the run recomputed.  Every fixpoint runs the one frontier loop,
``repro.mc.reachability.reachable_space`` (each round images only the
directions the previous round added).  A failed ``AG`` / satisfied
``EF`` check also prints the counterexample witness trace — the
operation path whose forward replay reproduces the event.

Examples::

    python -m repro image grover --size 4 --method contraction
    python -m repro reach qrw --size 4
    python -m repro check grover --size 4 --spec "AG inv"
    python -m repro check grover --size 3 --spec "EF marked" --backend dense
    python -m repro check grover --size 3 --spec "AG plus" --direction backward
    python -m repro check qrw --size 4 --spec "EF[<=2] start"
    python -m repro check bitflip --spec "AG errors" --bound 3
    python -m repro image ghz --size 3 --backend dense
    python -m repro crosscheck grover --size 4
    python -m repro crosscheck grover --size 3 --spec "AG inv"
    python -m repro invariant grover --size 4 --initial invariant
    python -m repro sweep --models ghz,bv --sizes 3,4 --methods basic \\
        --jobs 2 --out results
    python -m repro check grover --size 3 --spec "AG inv" \\
        --store .repro-store
    python -m repro cache stats --store .repro-store
    python -m repro cache gc --store .repro-store --max-bytes 1000000
    python -m repro table1 --scale small
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional

from repro.errors import ReproError
from repro.image.engine import DIRECTIONS
from repro.mc.checker import ModelChecker, cross_validate
from repro.mc.config import BACKENDS, TABLE1_PARAMS, CheckerConfig
from repro.mc.reachability import cached_reachable, reachable_space
from repro.systems import models

#: model name -> builder(size, args); argparse options map onto the
#: keyword arguments of models.build_model
_MODELS: Dict[str, Callable] = {
    "ghz": lambda size, args: models.build_model("ghz", size),
    "grover": lambda size, args: models.build_model(
        "grover", size, initial=args.initial, iterations=args.iterations),
    "bv": lambda size, args: models.build_model("bv", size),
    "qft": lambda size, args: models.build_model("qft", size),
    "qrw": lambda size, args: models.build_model(
        "qrw", size, noise_probability=args.noise, steps=args.steps),
    "bitflip": lambda size, args: models.build_model("bitflip", size),
    "qpe": lambda size, args: models.build_model("qpe", size,
                                                 phase=args.phase),
    "wstate": lambda size, args: models.build_model("wstate", size),
    "adder": lambda size, args: models.build_model("adder", size),
    "hiddenshift": lambda size, args: models.build_model("hiddenshift",
                                                         size),
}


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("model", choices=sorted(_MODELS))
    parser.add_argument("--size", "--n", type=int, default=4,
                        help="qubit count (ignored for bitflip)")
    parser.add_argument("--method", default="contraction",
                        choices=["basic", "addition", "contraction",
                                 "hybrid"])
    parser.add_argument("--k", type=int,
                        default=TABLE1_PARAMS["addition"]["k"],
                        help="addition partition slice count")
    parser.add_argument("--k1", type=int,
                        default=TABLE1_PARAMS["contraction"]["k1"])
    parser.add_argument("--k2", type=int,
                        default=TABLE1_PARAMS["contraction"]["k2"])
    parser.add_argument("--initial", default="plus",
                        help="grover initial space (plus|invariant)")
    parser.add_argument("--iterations", type=int, default=1,
                        help="grover iterations per transition")
    parser.add_argument("--steps", type=int, default=1,
                        help="qrw steps per transition")
    parser.add_argument("--noise", type=float, default=0.1,
                        help="qrw coin bit-flip probability")
    parser.add_argument("--phase", type=float, default=0.625,
                        help="qpe phase to estimate")


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    # not part of _add_model_arguments: crosscheck always runs both
    # engines, so only commands that honour the flag accept it
    parser.add_argument("--backend", default="tdd", choices=list(BACKENDS),
                        help="computation engine (dense = exponential "
                             "statevector reference, small sizes only)")


def _add_store_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="persistent result store: warm-start the "
                             "fixpoint from DIR and record converged "
                             "unbounded results back into it (manage "
                             "with 'repro cache')")


def _add_direction_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--direction", default="forward",
                        choices=list(DIRECTIONS),
                        help="analysis orientation (backward = preimage "
                             "fixpoint against the adjoint Kraus family)")
    parser.add_argument("--bound", type=int, default=0,
                        help="depth-limit the fixpoint to K image steps "
                             "(0 = run to saturation)")


def _build(args):
    return _MODELS[args.model](args.size, args)


def _print_kernel_stats(stats) -> None:
    extra = stats.extra
    if "kraus_imaged" in extra:
        print(f"kraus      = {extra['kraus_imaged']} of "
              f"{extra['kraus_circuits']} circuits imaged")
    if extra.get("backend") == "dense":
        return  # no symbolic kernel involved
    lookups = stats.cache_hits + stats.cache_misses
    print(f"cache      = {stats.cache_hits}/{lookups} hits "
          f"({100 * stats.cache_hit_rate:.0f}%)")
    print(f"live nodes = {stats.live_nodes} after GC "
          f"(peak {stats.peak_live_nodes}, "
          f"reclaimed {stats.nodes_reclaimed})")


def _store_line(stats) -> Optional[str]:
    """How the ``--store`` treated this run (None: not consulted)."""
    extra = stats.extra
    if "cache_warm" not in extra:
        return None
    if extra["cache_warm"]:
        return "hit (certified)" if extra.get("cache_certified") else "hit"
    return "miss (recorded)" if extra["cache_stored"] else \
        "miss (not recorded)"


def _cmd_image(args) -> int:
    config = CheckerConfig.from_cli_args(args)
    result = ModelChecker(_build(args), config).image()
    print(f"model={args.model}{args.size} {config.describe()}")
    label = "T(S0)" if config.direction == "forward" else "T~(S0)"
    print(f"dim({label}) = {result.dimension}")
    print(f"time       = {result.stats.seconds:.3f} s")
    print(f"max #node  = {result.stats.max_nodes}")
    _print_kernel_stats(result.stats)
    return 0


def _open_store(args):
    """The ResultStore named by ``--store``, or ``None``.

    Imported lazily: commands that never touch the store should not
    pay for (or fail on) the sqlite machinery.
    """
    if getattr(args, "store", None) is None:
        return None
    from repro.store import ResultStore
    return ResultStore(args.store)


def _cmd_reach(args) -> int:
    config = CheckerConfig.from_cli_args(args)
    qts = _build(args)
    store = _open_store(args)
    try:
        trace = cached_reachable(
            store, qts, qts.initial, config.direction,
            lambda warm: reachable_space(qts, config, warm_start=warm),
            bound=config.bound)
    finally:
        if store is not None:
            store.close()
    print(f"model={args.model}{args.size} {config.describe()}")
    store_line = _store_line(trace.stats)
    if store_line is not None:
        if trace.stats.extra["cache_warm"]:
            store_line += f" (seed dim {trace.dimensions[0]})"
        print(f"store      = {store_line}")
    print(f"dimensions = {trace.dimensions}")
    print(f"converged  = {trace.converged} "
          f"({trace.iterations} iterations)")
    print(f"time       = {trace.stats.seconds:.3f} s")
    print(f"max #node  = {trace.stats.max_nodes}")
    _print_kernel_stats(trace.stats)
    return 0


def _cmd_check(args) -> int:
    config = CheckerConfig.from_cli_args(args)
    checker = ModelChecker(_build(args), config)
    store = _open_store(args)
    try:
        result = checker.check(args.spec,
                               max_iterations=args.max_iterations,
                               reach_cache=store)
    finally:
        if store is not None:
            store.close()
    print(f"model={args.model}{args.size} {config.describe()}")
    store_line = _store_line(result.stats)
    if store_line is not None:
        print(f"store      = {store_line}")
    print(f"spec       = {result.spec}")
    print(f"verdict    = {result.verdict}")
    print(f"reachable  = dim {result.reachable_dimension} "
          f"{result.dimensions} "
          f"(converged={result.converged}, "
          f"{result.iterations} iterations)")
    if result.witness is not None:
        role = ("overlap witness" if result.kind == "EF"
                else "violating directions")
        if result.direction == "backward":
            role = "initial directions reaching the event"
        print(f"witness    = dim {result.witness_dimension} ({role})")
    if result.witness_trace is not None:
        trace = result.witness_trace
        path = " -> ".join(trace.symbols) if trace.symbols else "<initial>"
        replay = "replay ok" if trace.valid else "REPLAY FAILED"
        dims = [s.dimension for s in trace.subspaces]
        print(f"trace      = {path} ({trace.length} steps, {replay}, "
              f"dims {dims})")
    print(f"time       = {result.stats.seconds:.3f} s")
    _print_kernel_stats(result.stats)
    return 0 if result.holds else 1


def _cmd_crosscheck(args) -> int:
    config = CheckerConfig.from_cli_args(args)
    report = cross_validate(_build(args), spec=args.spec or None,
                            config=config)
    print(f"model={args.model}{args.size} method={args.method}")
    if report.spec is not None:
        print(f"spec      = {report.spec}")
        print(f"tdd       = {report.tdd_verdict} "
              f"(reachable dim {report.tdd_dimension}, "
              f"{report.tdd_seconds:.3f} s)")
        print(f"dense     = {report.dense_verdict} "
              f"(reachable dim {report.dense_dimension}, "
              f"{report.dense_seconds:.3f} s)")
    else:
        print(f"tdd   dim = {report.tdd_dimension} "
              f"({report.tdd_seconds:.3f} s)")
        print(f"dense dim = {report.dense_dimension} "
              f"({report.dense_seconds:.3f} s)")
    print(f"agree     = {report.agree}")
    return 0 if report.agree else 1


def _cmd_invariant(args) -> int:
    # implemented on the unified check verb: T(S0) <= S0 is AG S0 from
    # S0 (plus an image-equality comparison when --strict)
    config = CheckerConfig.from_cli_args(args)
    checker = ModelChecker(_build(args), config)
    holds = checker.check_invariant(strict=args.strict)
    relation = "=" if args.strict else "<="
    print(f"T(S0) {relation} S0 for {args.model}{args.size} "
          f"({config.describe()}): {holds}")
    return 0 if holds else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="Image computation for quantum "
                                  "transition systems (DATE 2025)")
    sub = parser.add_subparsers(dest="command", required=True)

    image = sub.add_parser("image", help="one-step image computation")
    _add_model_arguments(image)
    _add_backend_argument(image)
    _add_direction_arguments(image)
    image.set_defaults(func=_cmd_image)

    reach = sub.add_parser("reach", help="reachability fixpoint")
    _add_model_arguments(reach)
    _add_backend_argument(reach)
    _add_direction_arguments(reach)
    _add_store_argument(reach)
    reach.set_defaults(func=_cmd_reach)

    check = sub.add_parser(
        "check", help="check a temporal specification (AG/EF over "
                      "registered subspace atoms, bounded AG[<=k]/"
                      "EF[<=k], forward or backward)")
    _add_model_arguments(check)
    _add_backend_argument(check)
    _add_direction_arguments(check)
    _add_store_argument(check)
    check.add_argument("--spec", required=True,
                       help="specification text, e.g. \"AG inv\", "
                            "\"EF marked\", \"AG (inv & ~bad)\", "
                            "\"EF[<=3] marked\"")
    check.add_argument("--max-iterations", type=int, default=0,
                       dest="max_iterations",
                       help="bound the reachability fixpoint "
                            "(0 = until the dimension saturates)")
    check.set_defaults(func=_cmd_check)

    invariant = sub.add_parser("invariant", help="check T(S0) <= S0")
    _add_model_arguments(invariant)
    _add_backend_argument(invariant)
    invariant.add_argument("--strict", action="store_true")
    invariant.set_defaults(func=_cmd_invariant)

    crosscheck = sub.add_parser(
        "crosscheck", help="compare tdd and dense backends on one image "
                           "or one --spec check")
    _add_model_arguments(crosscheck)
    crosscheck.add_argument("--spec", default=None,
                            help="cross-validate a spec check instead "
                                 "of an image")
    crosscheck.set_defaults(func=_cmd_crosscheck)

    sweep = sub.add_parser(
        "sweep", help="batch experiment runner (resumable, parallel)")
    sweep.set_defaults(func=lambda args: __import__(
        "repro.bench.sweep", fromlist=["main"]).main(args.sweep_args))

    cache = sub.add_parser(
        "cache", help="manage the persistent result store "
                      "(ls/stats/gc/export/import)")
    cache.set_defaults(func=lambda args: __import__(
        "repro.store.cli", fromlist=["main"]).main(args.cache_args))

    table1 = sub.add_parser("table1", help="regenerate Table I")
    table1.add_argument("--scale", default="small",
                        choices=["small", "medium", "paper"])
    table1.add_argument("--jobs", type=int, default=1)
    table1.add_argument("--out", default=None)
    table1.set_defaults(func=lambda args: __import__(
        "repro.bench.table1", fromlist=["main"]).main(
            ["--scale", args.scale, "--jobs", str(args.jobs)]
            + (["--out", args.out] if args.out else [])))

    table2 = sub.add_parser("table2", help="regenerate Table II")
    table2.add_argument("--qubits", type=int, default=7)
    table2.add_argument("--kmax", type=int, default=6)
    table2.add_argument("--jobs", type=int, default=1)
    table2.add_argument("--out", default=None)
    table2.set_defaults(func=lambda args: __import__(
        "repro.bench.table2", fromlist=["main"]).main(
            ["--qubits", str(args.qubits), "--kmax", str(args.kmax),
             "--jobs", str(args.jobs)]
            + (["--out", args.out] if args.out else [])))

    smoke = sub.add_parser("smoke", help="run the <60s smoke benchmark")
    smoke.add_argument("--model", default="grover")
    smoke.add_argument("--size", type=int, default=6)
    smoke.set_defaults(func=lambda args: __import__(
        "repro.bench.smoke", fromlist=["main"]).main(
            ["--model", args.model, "--size", str(args.size)]))

    # ``sweep`` and ``cache`` forward their whole tails to their
    # modules' own parsers so the flags live in one place
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "sweep":
        args = parser.parse_args(["sweep"])
        args.sweep_args = list(argv[1:])
    elif argv and argv[0] == "cache":
        args = parser.parse_args(["cache"])
        args.cache_args = list(argv[1:])
    else:
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
