"""The warm-start certificate and the witness guard on warm verdicts.

A cache hit whose entry adds no dimension to the seed is certified
closed by one image of a random-phase combination of its basis per
Kraus circuit (``reachable_space``); a failed certificate falls back to
the fixpoint loop.  A closed entry that is too large passes the
certificate, so a warm verdict that calls for a witness stands only
when the witness replays from the initial space.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from repro.config import GS_EPS
from repro.image.engine import METHODS, make_engine
from repro.mc.checker import ModelChecker
from repro.mc.config import CheckerConfig
from repro.mc.reachability import (ReachabilityCache, ReachabilityTrace,
                                   certificate_phases, reachable_space)
from repro.mc.specs import parse_spec, resolve
from repro.store import ResultStore
from repro.systems.models import build_model
from repro.utils.stats import StatsRecorder


def qrw5():
    """The noisy 5-qubit walk whose forward reachable space has dim 15."""
    return build_model("qrw", 5, noise_probability=0.1, steps=2,
                       start_position=1)


def grover4():
    return build_model("grover", 4)


CASES = {"qrw5 AG start": (qrw5, "AG start"),
         "grover4 AG inv": (grover4, "AG inv")}


@pytest.fixture(params=["memory", "disk"])
def make_cache(request, tmp_path):
    """A factory of fresh caches of one kind; stores are closed after."""
    opened = []

    def make():
        if request.param == "memory":
            return ReachabilityCache()
        store = ResultStore(tmp_path / f"store{len(opened)}")
        opened.append(store)
        return store
    yield make
    for store in opened:
        store.close()


def summary(result):
    trace = result.witness_trace
    return (result.verdict, result.reachable_dimension,
            trace.length if trace else None,
            trace.valid if trace else None)


def closed_space(qts, method="basic"):
    return reachable_space(qts, CheckerConfig(method=method)).subspace


def without(subspace, position):
    """The span of every basis vector but one (still orthonormal)."""
    basis = subspace.basis[:position] + subspace.basis[position + 1:]
    return subspace.space.adopt(basis)


def rotated_out(subspace, position, angle=1e-6):
    """The basis with one vector turned by ``angle`` towards a
    direction orthogonal to the whole space."""
    space = subspace.space
    outside = next(
        residual for residual in (
            state - subspace.project_state(state)
            for state in (space.basis_state(bits) for bits in
                          itertools.product((0, 1),
                                            repeat=space.num_qubits)))
        if residual.norm() > 0.1)
    outside = outside.scaled(1.0 / outside.norm())
    basis = list(subspace.basis)
    basis[position] = (basis[position].scaled(math.cos(angle))
                       + outside.scaled(math.sin(angle)))
    return space.span(basis)


def certify(qts, subspace, config=CheckerConfig()):
    engine = make_engine(qts, config)
    current = engine.lower(subspace)
    return engine.certify(current, certificate_phases(current.dimension),
                          StatsRecorder())


class TestCertifiedHits:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_certified_hit_equals_cold(self, make_cache, method, case):
        build, spec = CASES[case]
        config = CheckerConfig(method=method)
        cold = ModelChecker(build(), config).check(spec)
        cache = make_cache()
        ModelChecker(build(), CheckerConfig()).check(spec, reach_cache=cache)
        hit = ModelChecker(build(), config).check(spec, reach_cache=cache)
        extra = hit.stats.extra
        assert extra["cache_warm"] and extra["cache_certified"] is True
        assert "cache_certified" not in cold.stats.extra
        assert summary(hit) == summary(cold)
        dimension = cold.reachable_dimension
        assert hit.dimensions == [dimension, dimension]
        assert hit.iterations == 1 and hit.converged

    def test_dense_certified_hit_equals_cold(self, make_cache):
        config = CheckerConfig(backend="dense")
        cold = ModelChecker(qrw5(), config).check("AG start")
        cache = make_cache()
        ModelChecker(qrw5(), config).check("AG start", reach_cache=cache)
        hit = ModelChecker(qrw5(), config).check("AG start",
                                                 reach_cache=cache)
        assert hit.stats.extra["cache_certified"] is True
        assert summary(hit) == summary(cold)
        assert hit.dimensions == [15, 15]

    def test_saturated_hit_runs_no_certificate(self):
        # a full entry is closed with nothing to image: the loop's one
        # empty round answers, as before
        cache = ReachabilityCache()
        checks = [ModelChecker(qrw5(), CheckerConfig(direction="backward"))
                  .check("AG start", reach_cache=cache) for _ in range(2)]
        assert checks[1].dimensions == [32, 32]
        assert "cache_certified" not in checks[1].stats.extra


class TestRejectedEntries:
    @pytest.mark.parametrize("position", range(15))
    def test_entry_missing_a_vector_falls_back(self, position):
        qts = qrw5()
        reached = closed_space(qts)
        assert reached.dimension == 15
        partial = without(reached, position)
        assert certify(qts, partial) is False
        cache = ReachabilityCache()
        cache.store(qts, qts.initial, "forward", 0,
                    ReachabilityTrace(subspace=partial))
        cold = ModelChecker(qrw5(), CheckerConfig()).check("AG start")
        warm = ModelChecker(qts, CheckerConfig()).check("AG start",
                                                        reach_cache=cache)
        # without S0 itself (position 0) the seed grows when S0 joins
        # it, and the loop runs with no certificate attempted
        extra = warm.stats.extra
        assert extra["cache_warm"]
        if position == 0:
            assert "cache_certified" not in extra
        else:
            assert extra["cache_certified"] is False
        assert summary(warm) == summary(cold)
        assert warm.dimensions[-1] == 15

    @pytest.mark.parametrize("method", METHODS)
    def test_vector_rotated_out_fails_at_every_position(self, method):
        qts = qrw5()
        reached = closed_space(qts)
        assert 1e-6 > GS_EPS
        config = CheckerConfig(method=method)
        assert certify(qts, reached, config) is True
        for position in range(reached.dimension):
            assert certify(qts, rotated_out(reached, position),
                           config) is False, position

    def test_dense_certificate_rejects_a_rotated_vector(self):
        qts = qrw5()
        reached = closed_space(qts)
        dense = CheckerConfig(backend="dense")
        assert certify(qts, reached, dense) is True
        assert certify(qts, rotated_out(reached, 7), dense) is False


class TestDeterminism:
    def test_phases_repeat_and_have_unit_modulus(self):
        first, second = certificate_phases(15), certificate_phases(15)
        assert np.array_equal(first, second)
        assert np.allclose(np.abs(first), 1.0)
        assert len(set(np.round(first, 12))) == 15

    def test_two_runs_give_the_same_outcome(self):
        outcomes = []
        for _ in range(2):
            qts = qrw5()
            reached = closed_space(qts)
            outcomes.append((certify(qts, reached),
                             certify(qts, rotated_out(reached, 3)),
                             certify(qts, without(reached, 9))))
        assert outcomes[0] == outcomes[1] == (True, False, False)


class TestClosedSuperspaceTamper:
    """A closed entry larger than the reachable space passes any closure
    test; its verdict is caught by the witness that does not replay."""

    @pytest.mark.parametrize("witness_trace", [True, False])
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_tampered_entry_gets_the_cold_verdict(self, make_cache,
                                                  direction, witness_trace):
        config = CheckerConfig(direction=direction)
        cold = ModelChecker(grover4(), config).check(
            "AG inv", witness_trace=witness_trace)
        assert cold.holds
        qts = grover4()
        space = qts.space
        full = space.span(space.basis_state(bits) for bits in
                          itertools.product((0, 1), repeat=qts.num_qubits))
        target = resolve(parse_spec("AG inv"), qts).inner.denote(space)
        seed = qts.initial if direction == "forward" else target.complement()
        cache = make_cache()
        cache.store(qts, seed, direction, 0,
                    ReachabilityTrace(subspace=full, direction=direction))
        result = ModelChecker(qts, config).check(
            "AG inv", witness_trace=witness_trace, reach_cache=cache)
        assert result.holds
        assert result.reachable_dimension == cold.reachable_dimension
        assert result.dimensions == cold.dimensions
        assert result.witness_trace is None
        extra = result.stats.extra
        assert extra["cache_discarded"] and not extra["cache_warm"]
        assert extra["cache_stored"]
        if isinstance(cache, ResultStore):
            reasons = [r["reason"] for r in cache.quarantine_records()]
            assert reasons == ["witness"]
        # the honest entry replaced the tampered one
        again = ModelChecker(grover4(), config).check("AG inv",
                                                      reach_cache=cache)
        assert again.stats.extra["cache_warm"] and again.holds
        assert "cache_discarded" not in again.stats.extra
