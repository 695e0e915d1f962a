"""The BvN quantum-logic layer over model checking."""

import numpy as np
import pytest

from repro.mc.config import CheckerConfig
from repro.mc.logic import (Atomic, check_always,
                            check_eventually_overlaps, satisfies)
from repro.systems import models

from tests.helpers import MINUS, PLUS

#: the basic image method (no partitioning)
BASIC = CheckerConfig(method="basic")


def grover_props():
    qts = models.grover_qts(3, initial="invariant")
    space = qts.space
    one = np.array([0., 1.])
    marked = Atomic(space.span([space.product_state([one, one, MINUS])]),
                    "marked")
    plane = Atomic(qts.initial, "invariant_plane")
    return qts, space, marked, plane


class TestConnectives:
    def test_atomic_denote(self):
        qts, space, marked, plane = grover_props()
        assert marked.denote(space).dimension == 1

    def test_join_denote(self):
        qts, space, marked, plane = grover_props()
        assert (marked | plane).denote(space).dimension == 2

    def test_meet_denote(self):
        qts, space, marked, plane = grover_props()
        # the marked ray lies inside the plane: meet = marked
        meet = (marked & plane).denote(space)
        assert meet.dimension == 1

    def test_not_denote(self):
        qts, space, marked, plane = grover_props()
        assert (~marked).denote(space).dimension == 7

    def test_repr(self):
        qts, space, marked, plane = grover_props()
        text = repr((marked & ~plane) | plane)
        assert "marked" in text and "~" in text

    def test_cross_space_atomic_rejected(self):
        qts1, space1, marked, _ = grover_props()
        qts2 = models.grover_qts(3, initial="invariant")
        with pytest.raises(ValueError):
            marked.denote(qts2.space)


class TestSatisfaction:
    def test_state_in_subspace(self):
        qts, space, marked, plane = grover_props()
        one = np.array([0., 1.])
        state = space.product_state([one, one, MINUS])
        assert satisfies(state, marked, space)
        assert satisfies(state, plane, space)
        assert not satisfies(state, ~marked, space)

    def test_superposition_satisfies_join_not_atoms(self):
        qts, space, marked, plane = grover_props()
        psi = space.product_state([PLUS, PLUS, MINUS])
        assert satisfies(psi, plane, space)
        assert not satisfies(psi, marked, space)


class TestTemporal:
    def test_always_invariant_plane(self):
        qts, space, marked, plane = grover_props()
        assert check_always(qts, plane, BASIC)

    def test_always_marked_fails(self):
        qts, space, marked, plane = grover_props()
        assert not check_always(qts, marked, BASIC)

    def test_eventually_overlaps_marked(self):
        # from |++->, Grover reaches the marked state
        qts = models.grover_qts(3)
        space = qts.space
        one = np.array([0., 1.])
        marked = Atomic(space.span([space.product_state(
            [one, one, MINUS])]), "marked")
        assert check_eventually_overlaps(qts, marked, BASIC)

    def test_eventually_orthogonal_fails(self):
        # the Grover dynamics never leaves the |-> ancilla sector:
        # states with ancilla |+> stay unreachable
        qts = models.grover_qts(3)
        space = qts.space
        one = np.array([0., 1.])
        unreachable = Atomic(space.span([space.product_state(
            [one, one, PLUS])]), "ancilla_plus")
        assert not check_eventually_overlaps(qts, unreachable, BASIC)
