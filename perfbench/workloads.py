"""The three benchmark workloads.

A workload turns the run's seed into inputs, builds them in
:meth:`setup` (timed as ``setup_s``), runs one *job* in :meth:`run`
(timed as ``job_s``) and reduces the job's result to a compact
:meth:`observe` record, which :meth:`verify` later compares with the
dense :meth:`answers` computed by :mod:`oracle`.  Jobs call only
``build_model``, ``CheckerConfig`` (``method``/``direction``),
``ModelChecker.check``/``reachable`` and ``ResultStore``; every other
engine setting stays at its default.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import oracle
from repro.mc.checker import ModelChecker
from repro.mc.config import CheckerConfig
from repro.store import ResultStore
from repro.systems.models import build_model

METHODS = ("basic", "addition", "contraction", "hybrid")
DIRECTIONS = ("forward", "backward")


def start_positions(num_qubits: int) -> tuple:
    """The qrw start positions a seed picks from.

    Positions 0, 1, half a cycle and half a cycle plus one give the same
    diagram sizes, so a seed changes the walk's input state without
    changing the amount of work and runs stay comparable.
    """
    half = 2 ** (num_qubits - 2)
    return (0, 1, half, half + 1)


def qrw(size: int, position: int):
    return build_model("qrw", size, noise_probability=0.1, steps=2,
                       start_position=position)


def per_method(max_nodes: dict) -> dict:
    """``max_nodes`` by image method, 0 for methods the job did not run."""
    return {method: max_nodes.get(method, 0) for method in METHODS}


def dense(subspace):
    """The projector of a result subspace as a dense matrix (or None)."""
    return None if subspace is None else subspace.to_dense()


def projector_problem(label: str, matrix, basis) -> list:
    if matrix is None:
        return [] if basis.shape[1] == 0 else [f"{label}: missing"]
    if oracle.same_space(matrix, basis):
        return []
    return [f"{label}: projector differs from the dense oracle"]


class Workload:
    """Common shape; subclasses set ``name`` and the hooks."""

    name = "abstract"

    def __init__(self, rng) -> None:
        self.rng = rng

    def inputs_text(self) -> str:
        return ""

    def setup(self):
        raise NotImplementedError

    def run(self, inputs):
        raise NotImplementedError

    def teardown(self, inputs) -> None:
        """Release what :meth:`setup` opened (outside every timing)."""

    def managers(self, inputs) -> list:
        raise NotImplementedError

    def observe(self, inputs, result) -> dict:
        raise NotImplementedError

    def answers(self) -> dict:
        raise NotImplementedError

    def verify(self, record: dict, answers: dict) -> list:
        raise NotImplementedError

    def run_checks(self, answers: dict) -> list:
        """Checks made once per run rather than per job."""
        return []

    def summary(self, answers: dict) -> dict:
        """The oracle's answers in the terms of ``spec.json``."""
        raise NotImplementedError


class Qrw6Reach(Workload):
    """Forward reachability of the noisy 6-qubit walk."""

    name = "qrw6-reach"

    def __init__(self, rng) -> None:
        super().__init__(rng)
        self.position = rng.choice(start_positions(6))

    def inputs_text(self) -> str:
        return f"start_position={self.position}"

    def setup(self):
        return qrw(6, self.position)

    def run(self, qts):
        return ModelChecker(qts, CheckerConfig()).reachable()

    def managers(self, qts) -> list:
        return [qts.manager]

    def observe(self, qts, trace) -> dict:
        return {"max_nodes": trace.stats.max_nodes,
                "peak_live_nodes": trace.stats.peak_live_nodes,
                "method_max_nodes": per_method(
                    {CheckerConfig().method: trace.stats.max_nodes}),
                "dimension": trace.subspace.dimension,
                "converged": trace.converged,
                "projector": dense(trace.subspace)}

    def answers(self) -> dict:
        reached = oracle.reach(self.setup())
        return {"dimension": reached.shape[1], "reached": reached}

    def summary(self, answers: dict) -> dict:
        return {"reachable_dimension": answers["dimension"]}

    def verify(self, record: dict, answers: dict) -> list:
        problems = []
        if not record["converged"]:
            problems.append("fixpoint did not converge")
        if record["dimension"] != answers["dimension"]:
            problems.append(f"dimension {record['dimension']} != "
                            f"{answers['dimension']}")
        return problems + projector_problem(
            "reachable space", record["projector"], answers["reached"])


class Grover10Inv(Workload):
    """``AG inv`` on two composed 10-qubit Grover iterations."""

    name = "grover10-inv"

    def setup(self):
        return build_model("grover", 10, iterations=2)

    def run(self, qts):
        return ModelChecker(qts, CheckerConfig()).check("AG inv")

    def managers(self, qts) -> list:
        return [qts.manager]

    def observe(self, qts, result) -> dict:
        return {"max_nodes": result.stats.max_nodes,
                "peak_live_nodes": result.stats.peak_live_nodes,
                "method_max_nodes": per_method(
                    {CheckerConfig().method: result.stats.max_nodes}),
                "holds": result.holds,
                "dimension": result.reachable_dimension,
                "has_witness": (result.witness is not None
                                or result.witness_trace is not None)}

    def answers(self) -> dict:
        return oracle.check_always(self.setup(), "inv")

    def summary(self, answers: dict) -> dict:
        return {"verdict": "holds" if answers["holds"] else "violated",
                "reachable_dimension": answers["dimension"]}

    def verify(self, record: dict, answers: dict) -> list:
        problems = []
        if record["holds"] != answers["holds"]:
            problems.append(f"verdict holds={record['holds']}")
        if record["dimension"] != answers["dimension"]:
            problems.append(f"dimension {record['dimension']} != "
                            f"{answers['dimension']}")
        if record["has_witness"] == answers["holds"]:
            problems.append("witness present/absent against the verdict")
        return problems

    def run_checks(self, answers: dict) -> list:
        # check() does not return the reachable space, so it is compared
        # once per run on a separate reachable() call; the projector is
        # built from the basis, as a dense 2^20-entry projector diagram
        # would take longer to expand than the check itself
        trace = ModelChecker(self.setup(), CheckerConfig()).reachable()
        basis = oracle.columns(trace.subspace)
        return projector_problem("reachable space", oracle.projector(basis),
                                 answers["reached"])


class Qrw5Sweep(Workload):
    """Eight ``AG start`` checks of the noisy 5-qubit walk over one store.

    One pass covers every method in both directions, each check on a
    freshly built model; per direction the first check misses the store
    and writes it, the other three hit it.  Every pass runs the checks
    in the same order, so passes are the same work: a miss costs about
    twice a hit, and which method pays it would otherwise move a run's
    median with the seed.
    """

    name = "qrw5-sweep"

    def __init__(self, rng, work_dir: str) -> None:
        super().__init__(rng)
        self.position = rng.choice(start_positions(5))
        self.work_dir = work_dir

    def inputs_text(self) -> str:
        return f"start_position={self.position}"

    def setup(self):
        order = [(m, d) for m in METHODS for d in DIRECTIONS]
        models = [qrw(5, self.position) for _ in order]
        os.makedirs(self.work_dir, exist_ok=True)
        root = tempfile.mkdtemp(prefix="store-", dir=self.work_dir)
        return {"order": order, "models": models,
                "store": ResultStore(root), "root": root}

    def run(self, inputs):
        store = inputs["store"]
        return [ModelChecker(qts, CheckerConfig(method=method,
                                                direction=direction))
                .check("AG start", reach_cache=store)
                for qts, (method, direction)
                in zip(inputs["models"], inputs["order"])]

    def teardown(self, inputs) -> None:
        inputs["store"].close()
        shutil.rmtree(inputs["root"], ignore_errors=True)

    def managers(self, inputs) -> list:
        return [qts.manager for qts in inputs["models"]]

    def observe(self, inputs, results) -> dict:
        checks = []
        method_max = {}
        for qts, (method, direction), result in zip(
                inputs["models"], inputs["order"], results):
            trace = result.witness_trace
            method_max[method] = max(method_max.get(method, 0),
                                     result.stats.max_nodes)
            checks.append({
                "label": f"{method}/{direction}",
                "direction": direction,
                "holds": result.holds,
                "dimension": result.reachable_dimension,
                "trace_length": trace.length if trace else None,
                "trace_valid": bool(trace and trace.valid),
                "replay": bool(trace and trace.states
                               and oracle.replay_escapes(qts, trace,
                                                         "start")),
                "witness": dense(result.witness)})
        return {"max_nodes": max(r.stats.max_nodes for r in results),
                "peak_live_nodes": max(r.stats.peak_live_nodes
                                       for r in results),
                "method_max_nodes": per_method(method_max),
                "checks": checks}

    def answers(self) -> dict:
        qts = qrw(5, self.position)
        forward = oracle.check_always(qts, "start")
        return {"holds": forward["holds"],
                "trace_length": forward["trace_length"],
                "forward": forward,
                "backward": oracle.check_always_backward(qts, "start")}

    def summary(self, answers: dict) -> dict:
        return {"verdict": "holds" if answers["holds"] else "violated",
                "trace_length": answers["trace_length"],
                "forward_reachable_dimension":
                    answers["forward"]["dimension"],
                "backward_reachable_dimension":
                    answers["backward"]["dimension"]}

    def verify(self, record: dict, answers: dict) -> list:
        problems = []
        for check in record["checks"]:
            label = check["label"]
            side = answers[check["direction"]]
            if check["holds"] != answers["holds"]:
                problems.append(f"{label}: verdict holds={check['holds']}")
            if check["dimension"] != side["dimension"]:
                problems.append(f"{label}: dimension {check['dimension']} "
                                f"!= {side['dimension']}")
            if not answers["holds"]:
                if check["trace_length"] != answers["trace_length"]:
                    problems.append(f"{label}: trace length "
                                    f"{check['trace_length']}")
                if not (check["trace_valid"] and check["replay"]):
                    problems.append(f"{label}: witness trace does not "
                                    f"replay to a violation")
            problems += projector_problem(f"{label} witness",
                                          check["witness"], side["witness"])
        return problems


def make_workload(name: str, rng, work_dir: str) -> Workload:
    if name == Qrw6Reach.name:
        return Qrw6Reach(rng)
    if name == Grover10Inv.name:
        return Grover10Inv(rng)
    if name == Qrw5Sweep.name:
        return Qrw5Sweep(rng, work_dir)
    raise KeyError(name)
