"""Benchmark helpers: run one image computation per measured round."""

from __future__ import annotations

import pytest

from repro.image.engine import compute_image
from repro.mc.config import CheckerConfig


@pytest.fixture
def image_bench(benchmark):
    """Benchmark ``compute_image`` on a freshly built QTS per round.

    Records the paper's second Table I column (peak TDD node count) in
    ``benchmark.extra_info`` so a single run reports both columns.
    """

    def run(builder, config: CheckerConfig, rounds: int = 1):
        results = {}

        def target():
            results["last"] = compute_image(builder(), config=config)
            return results["last"]

        benchmark.pedantic(target, rounds=rounds, iterations=1)
        result = results["last"]
        benchmark.extra_info["max_nodes"] = result.stats.max_nodes
        benchmark.extra_info["dimension"] = result.dimension
        benchmark.extra_info["method"] = config.method
        return result

    return run
