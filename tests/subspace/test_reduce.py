"""Partial trace of projectors."""

import numpy as np
import pytest

from repro.errors import SubspaceError
from repro.mc.config import CheckerConfig
from repro.subspace.reduce import (reduced_density, reduced_density_matrix,
                                   reduced_support)

from tests.helpers import make_space, subspace_to_dense

#: the basic image method (no partitioning)
BASIC = CheckerConfig(method="basic")


class TestReducedDensity:
    def test_product_state_factorises(self):
        space = make_space(2)
        sub = space.span([space.basis_state([0, 1])])
        rho = reduced_density_matrix(sub, [0])
        assert np.allclose(rho, [[1, 0], [0, 0]])
        rho1 = reduced_density_matrix(sub, [1])
        assert np.allclose(rho1, [[0, 0], [0, 1]])

    def test_bell_state_reduces_to_mixed(self):
        space = make_space(2)
        bell = space.from_amplitudes(
            np.array([1, 0, 0, 1]) / np.sqrt(2))
        sub = space.span([bell])
        rho = reduced_density_matrix(sub, [0])
        assert np.allclose(rho, np.eye(2) / 2)

    def test_trace_preserved(self, rng):
        space = make_space(3)
        sub = space.span([space.from_amplitudes(rng.normal(size=8))
                          for _ in range(2)])
        rho = reduced_density_matrix(sub, [0, 2])
        # trace of the projector = dimension; partial trace keeps it
        assert np.isclose(np.trace(rho).real, sub.dimension)

    def test_matches_dense_partial_trace(self, rng):
        space = make_space(3)
        sub = space.span([space.from_amplitudes(
            rng.normal(size=8) + 1j * rng.normal(size=8))])
        got = reduced_density_matrix(sub, [0, 1])
        full = subspace_to_dense(sub).projector().reshape(2, 2, 2, 2, 2, 2)
        expect = np.einsum("abcdec->abde", full).reshape(4, 4)
        assert np.allclose(got, expect, atol=1e-8)

    def test_keep_all_is_projector(self, rng):
        space = make_space(2)
        sub = space.span([space.from_amplitudes(rng.normal(size=4))])
        rho = reduced_density_matrix(sub, [0, 1])
        assert np.allclose(rho, sub.to_dense(), atol=1e-9)

    def test_out_of_range_rejected(self):
        space = make_space(2)
        sub = space.span([space.basis_state([0, 0])])
        with pytest.raises(SubspaceError):
            reduced_density(sub, [5])


class TestReducedSupport:
    def test_bitflip_data_register(self):
        """The paper's III.A.2 property restricted to data qubits: the
        image's data-register support is exactly span{|000>}."""
        from repro.image.engine import compute_image
        from repro.systems import models
        qts = models.bitflip_qts()
        image = compute_image(qts, config=BASIC).subspace
        support = reduced_support(image, [0, 1, 2])
        assert support.dimension == 1
        expect = np.zeros(8)
        expect[0] = 1
        assert support.contains_vector(expect)

    def test_entangled_support_dimension(self):
        space = make_space(2)
        bell = space.from_amplitudes(np.array([1, 0, 0, 1]) / np.sqrt(2))
        sub = space.span([bell])
        support = reduced_support(sub, [0])
        assert support.dimension == 2  # maximally mixed

    def test_zero_subspace(self):
        space = make_space(2)
        support = reduced_support(space.zero_subspace(), [0])
        assert support.dimension == 0
