"""Unit tests for weight canonicalisation."""

import numpy as np

from repro.config import WEIGHT_DECIMALS, WEIGHT_EPS
from repro.tdd import weights as wt


class TestCanonical:
    def test_rounds_real_and_imag(self):
        value = wt.canonical(0.1234567890123456 + 1j * 0.9876543210987654)
        assert value == complex(round(0.1234567890123456, 12),
                                round(0.9876543210987654, 12))

    def test_clamps_tiny_real(self):
        assert wt.canonical(1e-14 + 0.5j) == 0.5j

    def test_clamps_tiny_imag(self):
        assert wt.canonical(0.5 + 1e-14j) == 0.5 + 0j

    def test_folds_negative_zero(self):
        value = wt.canonical(complex(-0.0, -0.0))
        assert wt.key(value) == (0.0, 0.0)

    def test_folds_negative_zero_from_clamp(self):
        # a clamped negative component must not leave a -0.0 behind:
        # (re, im) keys distinguish 0.0 from -0.0 by their sign bit
        value = wt.canonical(complex(-1e-14, 0.5))
        assert wt.key(value) == (0.0, 0.5)
        assert not np.signbit(value.real)

    def test_clamp_runs_before_round(self):
        # |component| < WEIGHT_EPS is zeroed even though rounding to
        # WEIGHT_DECIMALS digits alone would keep it: 5e-11 rounds to
        # 5e-11 at 12 digits, but the clamp (eps=1e-10) fires first
        component = WEIGHT_EPS / 2
        assert round(component, WEIGHT_DECIMALS) != 0.0
        assert wt.canonical(complex(component, 1.0)) == 1j

    def test_keeps_values_above_eps(self):
        value = wt.canonical(complex(WEIGHT_EPS * 10, 0))
        assert value.real != 0.0

    def test_exact_one(self):
        assert wt.canonical(1 + 0j) == 1 + 0j


class TestKeyAndZero:
    def test_key_is_hashable_tuple(self):
        key = wt.key(wt.canonical(0.25 - 0.75j))
        assert key == (0.25, -0.75)
        hash(key)

    def test_is_zero(self):
        assert wt.is_zero(0j)
        assert not wt.is_zero(1 + 0j)


class TestRemovedApi:
    def test_approx_equal_is_gone(self):
        # removed dead API; kept here so a reintroduction is deliberate
        assert not hasattr(wt, "approx_equal")
