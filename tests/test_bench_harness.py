"""Unit tests for the Table I / Table II harness plumbing."""

from repro.bench.runner import BenchRow, run_image_benchmark
from repro.bench.table1 import (FAMILIES, TABLE1_METHODS, format_rows,
                                table1_rows)
from repro.bench.table2 import format_grid, sweep
from repro.mc.config import CheckerConfig
from repro.systems import models

#: the basic image method (no partitioning)
BASIC = CheckerConfig(method="basic")
#: the contraction method with small partition blocks
CONTRACTION_K2 = CheckerConfig(method="contraction",
                               method_params={"k1": 2, "k2": 2})


class TestRunner:
    def test_row_fields(self):
        row = run_image_benchmark(lambda: models.ghz_qts(4), "GHZ4",
                                  CONTRACTION_K2)
        assert row.benchmark == "GHZ4"
        assert row.dimension == 1
        assert row.seconds > 0
        assert row.max_nodes > 0
        assert not row.timed_out

    def test_soft_timeout_marks_row(self):
        row = run_image_benchmark(lambda: models.ghz_qts(6), "GHZ6", BASIC,
                                  timeout_seconds=0.0)
        assert row.timed_out
        assert row.cells() == ("GHZ6", "basic", "-", "-", "-", "-")

    def test_cells_format(self):
        row = BenchRow("X", "basic", 1.234, 42, 1,
                       cache_hit_rate=0.5, peak_live_nodes=100,
                       live_nodes=10)
        assert row.cells() == ("X", "basic", "1.23", "42", "50%", "10/100")

    def test_instrumentation_fields(self):
        row = run_image_benchmark(lambda: models.ghz_qts(4), "GHZ4",
                                  CONTRACTION_K2)
        assert 0.0 <= row.cache_hit_rate <= 1.0
        assert 0 < row.live_nodes <= row.peak_live_nodes


class TestTable1:
    def test_family_coverage(self):
        assert set(FAMILIES) == {"Grover", "QFT", "BV", "GHZ", "QRW"}
        assert set(TABLE1_METHODS) == {"basic", "addition", "contraction"}
        for family, (builder, size_map, skip) in FAMILIES.items():
            assert {"small", "medium", "paper"} <= set(size_map)

    def test_single_family_rows(self):
        rows = table1_rows(scale="small", families=["GHZ"])
        labels = {row.benchmark for row in rows}
        assert all(label.startswith("GHZ") for label in labels)
        # every size x method present
        assert len(rows) == len(labels) * len(TABLE1_METHODS)

    def test_format_rows_layout(self):
        rows = [
            BenchRow("GHZ5", "basic", 0.5, 10, 1),
            BenchRow("GHZ5", "addition", 0.4, 8, 1),
            BenchRow("GHZ5", "contraction", 0.1, 6, 1),
            BenchRow("GHZ9", "basic", 0, 0, 0, timed_out=True),
            BenchRow("GHZ9", "addition", 0, 0, 0, timed_out=True),
            BenchRow("GHZ9", "contraction", 0.2, 12, 1),
        ]
        text = format_rows(rows)
        lines = text.splitlines()
        assert lines[0].startswith("Benchmark")
        assert any("GHZ9" in line and "-" in line for line in lines)


class TestTable2:
    def test_sweep_shape(self):
        grid = sweep(num_qubits=4, kmax=2, iterations=1)
        assert len(grid) == 2
        assert all(len(row) == 2 for row in grid)
        assert all(cell >= 0 for row in grid for cell in row)

    def test_format_grid(self):
        text = format_grid([[0.1, 0.2], [0.3, 0.4]])
        lines = text.splitlines()
        assert lines[0].startswith("k1\\k2")
        assert len(lines) == 4
