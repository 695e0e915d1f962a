"""Regenerate a slice of the paper's Table I and Table II from code.

It prints the rows whose shapes ``tests/integration/test_scaling_trends.py``
checks, in the paper's layout (time + max TDD nodes per method) for a quick
visual comparison.  Use the module CLIs for the full grids:

    python -m repro.bench.table1 --scale medium
    python -m repro.bench.table2 --qubits 8 --kmax 8

Run:  python examples/table_rows.py
"""

from repro.bench.table1 import format_rows, table1_rows
from repro.bench.table2 import format_grid, sweep


def main() -> None:
    print("Table I (reproduction, small scale)")
    print(format_rows(table1_rows(scale="small")))
    print()
    print("Table II (reproduction, Grover 7 x2 iterations, k <= 4)")
    print(format_grid(sweep(num_qubits=7, kmax=4)))


if __name__ == "__main__":
    main()
