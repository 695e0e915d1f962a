"""Fixpoints that reach the whole space.

A backward ``AG start`` on the noisy walk grows from the 2^n - 1
dimensional complement of ``start`` to the full space.  Once a space
is full no image can add to it, so the fixpoint stops imaging; these
tests pin that the verdict, the dimension ladder and the witnesses are
still those of the dense reference, cold and warm.
"""

import functools

import pytest

from repro.image.engine import METHODS
from repro.mc.checker import ModelChecker
from repro.mc.config import CheckerConfig
from repro.store import ResultStore
from repro.systems import models

from tests.helpers import subspace_to_dense


def walk(size):
    return models.qrw_qts(size, 0.1, steps=2)


def outcome(result):
    """What a backward check must share with the dense reference."""
    trace = result.witness_trace
    return {"verdict": result.verdict, "dimensions": result.dimensions,
            "iterations": result.iterations,
            "converged": result.converged,
            "symbols": trace.symbols, "valid": trace.valid,
            "trace_dims": [s.dimension for s in trace.subspaces]}


@functools.lru_cache(maxsize=None)
def dense_reference(size):
    result = ModelChecker(walk(size), CheckerConfig(
        backend="dense", direction="backward")).check("AG start")
    return outcome(result), subspace_to_dense(result.witness)


@pytest.mark.parametrize("size", [3, 5])
@pytest.mark.parametrize("method", METHODS)
def test_backward_ag_start_matches_dense(size, method):
    result = ModelChecker(walk(size), CheckerConfig(
        method=method, direction="backward")).check("AG start")
    expected, witness = dense_reference(size)
    assert outcome(result) == expected
    assert expected["verdict"] == "violated" and expected["valid"]
    assert expected["converged"]
    assert expected["dimensions"][-1] == 2 ** size
    assert subspace_to_dense(result.witness).equals(witness)


@pytest.mark.parametrize("method", METHODS)
def test_saturated_warm_hit_equals_cold(tmp_path, method):
    config = CheckerConfig(method=method, direction="backward")
    with ResultStore(str(tmp_path / "store")) as store:
        cold = ModelChecker(walk(5), config).check("AG start",
                                                   reach_cache=store)
        warm = ModelChecker(walk(5), config).check("AG start",
                                                   reach_cache=store)
    assert not cold.stats.extra["cache_warm"]
    assert warm.stats.extra["cache_warm"]
    assert warm.verdict == cold.verdict
    assert warm.reachable_dimension == cold.reachable_dimension == 32
    # the warm fixpoint starts full and confirms in one round
    assert warm.dimensions == [32, 32]
    assert warm.iterations == 1 and warm.converged
    assert subspace_to_dense(warm.witness).equals(
        subspace_to_dense(cold.witness))
    assert warm.witness_trace.symbols == cold.witness_trace.symbols
    assert warm.witness_trace.valid
    # nothing is imaged on the warm side, yet the run held its
    # starting basis: max_nodes counts it
    assert warm.stats.contractions == 0
    assert 0 < warm.stats.max_nodes <= cold.stats.max_nodes
