"""Unit tests for weight interning."""

import math

import numpy as np

from repro.config import WEIGHT_EPS, WEIGHT_TOL
from repro.tdd import weights as wt
from repro.tdd.manager import TDDManager
from repro.tdd.node import Edge

from tests.helpers import fresh_manager


def canonical(value: complex) -> complex:
    """Intern ``value`` in a table of its own."""
    return wt.WeightTable().canonical(value)


class TestCanonical:
    def test_snaps_real_and_imag_separately(self):
        table = wt.WeightTable()
        first = table.canonical(0.1234567890123456 + 1j * 0.9876543210987654)
        # a fresh value is its own representative, component by component
        assert first == 0.1234567890123456 + 1j * 0.9876543210987654
        # each component snaps on its own: the real part to the stored
        # 0.123..., the imaginary part to nothing close (a new one)
        second = table.canonical(0.1234567890123459 + 0.5j)
        assert second == complex(0.1234567890123456, 0.5)

    def test_clamps_tiny_real(self):
        assert canonical(1e-14 + 0.5j) == 0.5j

    def test_clamps_tiny_imag(self):
        assert canonical(0.5 + 1e-14j) == 0.5 + 0j

    def test_folds_negative_zero(self):
        value = canonical(complex(-0.0, -0.0))
        assert (value.real, value.imag) == (0.0, 0.0)
        assert not np.signbit(value.real)
        assert not np.signbit(value.imag)

    def test_folds_negative_zero_from_clamp(self):
        # a clamped negative component must not leave a -0.0 behind:
        # (re, im) keys distinguish 0.0 from -0.0 by their sign bit
        value = canonical(complex(-1e-14, 0.5))
        assert (value.real, value.imag) == (0.0, 0.5)
        assert not np.signbit(value.real)

    def test_clamp_runs_before_snap(self):
        # |component| < WEIGHT_EPS is zeroed even though a stored
        # representative lies within WEIGHT_TOL of it: the clamp fires
        # first, so the snap never sees it
        table = wt.WeightTable()
        above = WEIGHT_EPS + WEIGHT_TOL / 4
        below = WEIGHT_EPS - WEIGHT_TOL / 4
        assert table.component(above) == above
        assert abs(above - below) <= WEIGHT_TOL
        assert table.component(below) == 0.0
        assert table.canonical(complex(below, 1.0)) == 1j

    def test_keeps_values_above_eps(self):
        value = canonical(complex(WEIGHT_EPS * 10, 0))
        assert value.real != 0.0

    def test_exact_one(self):
        assert canonical(1 + 0j) == 1 + 0j


class TestWeightTable:
    def test_rounding_midpoint_gets_one_representative(self):
        # 2^-13 = 0.0001220703125 sits on a 12-decimal rounding
        # midpoint, so one ulp of noise used to give it two keys
        exact = 2.0 ** -13
        noisy = math.nextafter(exact, 1.0)
        assert round(exact, 12) != round(noisy, 12)
        table = wt.WeightTable()
        assert table.component(exact) == exact
        assert table.component(noisy) == exact
        assert len(table) == 2  # with the permanent 1.0

    def test_values_within_tolerance_share_a_representative(self):
        table = wt.WeightTable()
        base = 0.3
        assert table.component(base) == base
        assert table.component(base + 0.9 * WEIGHT_TOL) == base
        assert table.component(base - 0.9 * WEIGHT_TOL) == base
        assert table.component(-base) == -base
        assert table.component(-base - 0.5 * WEIGHT_TOL) == -base
        assert len(table) == 3  # with the permanent 1.0

    def test_values_farther_apart_do_not(self):
        table = wt.WeightTable()
        base = 0.3
        table.component(base)
        far = base + 3 * WEIGHT_TOL
        assert table.component(far) == far
        assert table.component(base - 3 * WEIGHT_TOL) != base
        assert len(table) == 4  # with the permanent 1.0

    def test_snaps_across_a_bucket_boundary(self):
        # values in adjacent buckets still share a representative,
        # whichever side of the boundary was met first
        edge = 7 * WEIGHT_TOL * 1e6
        below = edge - WEIGHT_TOL / 10
        above = edge + WEIGHT_TOL / 10
        assert below // WEIGHT_TOL != above // WEIGHT_TOL
        lower_first = wt.WeightTable()
        assert lower_first.component(below) == below
        assert lower_first.component(above) == below
        upper_first = wt.WeightTable()
        assert upper_first.component(above) == above
        assert upper_first.component(below) == above

    def test_managers_do_not_share_table_state(self):
        first = TDDManager()
        second = TDDManager()
        assert first.weights is not second.weights
        nearly = 0.25 - 2.5e-16
        assert first.weights.component(nearly) == nearly
        assert second.weights.component(0.25) == 0.25
        assert first.weights.component(0.25) == nearly

    def test_reset_clears_the_table(self):
        m = fresh_manager(["a"])
        m.make_node(0, m.scalar_edge(0.5), m.scalar_edge(0.75))
        assert len(m.weights) > 1
        m.reset()
        assert len(m.weights) == 1
        # 1.0 is re-seeded, so a near-1 weight still snaps to it
        assert m.weights.component(1.0 - WEIGHT_TOL / 2) == 1.0
        assert m.weights.component(1.0 + WEIGHT_TOL / 2) == 1.0

    def test_one_is_a_representative_from_the_start(self):
        # met first, a value just below 1 would otherwise have become
        # the representative of every later 1.0
        table = wt.WeightTable()
        assert table.component(math.nextafter(1.0, 0.0)) == 1.0
        assert table.component(1.0) == 1.0
        assert len(table) == 1

    def test_weights_one_ulp_apart_make_one_node(self):
        m = fresh_manager(["a"])
        exact = 2.0 ** -13
        noisy = math.nextafter(exact, 1.0)
        first = m.make_node(0, Edge(1.0, m.terminal), Edge(exact, m.terminal))
        second = m.make_node(0, Edge(1.0, m.terminal),
                             Edge(noisy, m.terminal))
        assert first.node is second.node
        assert m.live_nodes == 1


class TestRemovedApi:
    def test_approx_equal_is_gone(self):
        # removed dead API; kept here so a reintroduction is deliberate
        assert not hasattr(wt, "approx_equal")

    def test_module_level_canonical_is_gone(self):
        # interning is per manager; a module-level entry point would
        # invite shared mutable state
        assert not hasattr(wt, "canonical")

    def test_key_and_is_zero_are_gone(self):
        # weights are plain complex values that key the unique table as
        # they are; a tuple key or a zero test beside them is dead API
        assert not hasattr(wt, "key")
        assert not hasattr(wt, "is_zero")
