"""The compute_image entry point and method registry."""

import pytest

from repro.errors import ReproError
from repro.image.engine import METHODS, compute_image, make_computer
from repro.mc.config import CheckerConfig
from repro.systems import models

#: the basic image method (no partitioning)
BASIC = CheckerConfig(method="basic")


class TestRegistry:
    def test_methods_tuple(self):
        assert set(METHODS) == {"basic", "addition", "contraction",
                                "hybrid"}

    def test_make_computer_each_method(self):
        qts = models.ghz_qts(3)
        assert make_computer(qts, "basic").method == "basic"
        assert make_computer(qts, "addition", k=2).method == "addition"
        assert make_computer(qts, "contraction", k1=2,
                             k2=3).method == "contraction"

    def test_unknown_method(self):
        with pytest.raises(ReproError):
            make_computer(models.ghz_qts(3), "quantum-magic")

    def test_basic_rejects_params(self):
        with pytest.raises(ReproError):
            make_computer(models.ghz_qts(3), "basic", k=1)


class TestComputeImage:
    def test_records_time(self):
        result = compute_image(models.ghz_qts(3), config=BASIC)
        assert result.stats.seconds > 0

    def test_all_methods_same_dimension(self):
        dims = set()
        for method, params in (("basic", {}), ("addition", {"k": 1}),
                               ("contraction", {"k1": 2, "k2": 2})):
            result = compute_image(models.grover_qts(4),
                                   config=CheckerConfig(method=method,
                                                        method_params=params))
            dims.add(result.dimension)
        assert len(dims) == 1
