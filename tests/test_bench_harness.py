"""Unit tests for the Table I / Table II harness plumbing."""

import pytest

from repro.bench.runner import BenchRow
from repro.bench.smoke import smoke_rows
from repro.bench.table1 import (FAMILIES, TABLE1_METHODS, format_rows,
                                table1_rows)
from repro.bench.table2 import format_grid, sweep
from repro.errors import ReproError
from repro.systems import models


class TestRunner:
    def test_row_fields(self):
        rows = smoke_rows("ghz", 4)
        assert [row.method for row in rows] == [
            "basic", "addition", "contraction", "hybrid"]
        for row in rows:
            assert row.benchmark == "ghz4"
            assert row.dimension == 1
            assert row.seconds > 0
            assert row.max_nodes > 0
            assert not row.timed_out

    def test_cells_format(self):
        row = BenchRow("X", "basic", 1.234, 42, 1,
                       cache_hit_rate=0.5, peak_live_nodes=100,
                       live_nodes=10)
        assert row.cells() == ("X", "basic", "1.23", "42", "50%", "10/100")

    def test_instrumentation_fields(self):
        for row in smoke_rows("ghz", 4):
            assert 0.0 <= row.cache_hit_rate <= 1.0
            assert 0 < row.live_nodes <= row.peak_live_nodes

    def test_failed_run_raises(self, monkeypatch):
        def broken(name, size, **options):
            raise ValueError("no such circuit")
        monkeypatch.setattr(models, "build_model", broken)
        with pytest.raises(ReproError, match="no such circuit"):
            smoke_rows("ghz", 4)


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
