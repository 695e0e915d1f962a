"""The shapes of the paper's Table I and Table II at laptop scale.

This module is the one place that checks the paper's table shapes.
Absolute numbers differ (pure Python against the authors' C++ TDD
engine), but the shapes must hold: exponential against linear peak
node counts on QFT, the method ordering on the partition-sensitive
families, linear node growth on GHZ and BV, and the Table II plateau.

Each row of :data:`ROWS` is an instance, a method and a claim on that
cell's record.  The cells of the small Table I grid come from one
:func:`~repro.bench.table1.table1_rows` run; every other cell runs as
a sweep :class:`~repro.bench.sweep.RunSpec`.  A claim reads its own
record and, through ``cell``, the records of the cells it compares
against.  The basic images of QPE8 and HiddenShift12 take 1-2 s each;
``TestModels.test_image_methods_agree`` in
``tests/circuits/test_extensions.py`` checks both methods on those
families against the dense oracle instead.
"""

import re
from types import SimpleNamespace

import pytest

from repro.bench import table2
from repro.bench.sweep import RunSpec, execute_run
from repro.bench.table1 import FAMILIES, TABLE1_METHODS, table1_rows
from repro.mc.config import CheckerConfig


def config(method, **params):
    return CheckerConfig(method=method, method_params=params)


#: the paper's Table I settings, and the ablation variants
METHODS = {method: config(method, **params)
           for method, params in TABLE1_METHODS.items()}
METHODS.update({
    **{f"addition k={k}": config("addition", k=k) for k in (0, 2, 3)},
    **{f"hybrid k={k}": config("hybrid", k=k, k1=4, k2=4)
       for k in (0, 1, 2)},
})

#: instances outside the Table I families or their parameters:
#: (model, size, model params, property checked instead of an image)
INSTANCES = {
    "QRW8x6": ("qrw", 8, {"noise_probability": 0.1, "steps": 6}, None),
    "QRW4-reach": ("qrw", 4, {"noise_probability": 0.2}, "AG start"),
    "QPE8": ("qpe", 8, {"phase": 0.625}, None),
    "W12": ("wstate", 12, {}, None),
    "Adder4": ("adder", 4, {"a_value": 5, "b_value": 9}, None),
    "HiddenShift12": ("hiddenshift", 12, {}, None),
}


def run_spec(label, method):
    if label in INSTANCES:
        model, size, params, spec = INSTANCES[label]
    else:
        family, size = re.fullmatch(r"([A-Za-z]+)(\d+)", label).groups()
        (model, params), _sizes, _skip = FAMILIES[family]
        size, spec = int(size), None
    return RunSpec(model, size, METHODS[method], spec=spec,
                   model_params=params, label=label)


@pytest.fixture(scope="module")
def cell():
    """``cell(label, method)``: one cell's record, each run at most once."""
    records = {}
    for row in table1_rows("small"):
        assert not row.timed_out, row
        records[row.benchmark, row.method] = row

    def lookup(label, method):
        if (label, method) not in records:
            record = execute_run(run_spec(label, method))
            assert not record["failed"], record["error"]
            records[label, method] = SimpleNamespace(**record)
        return records[label, method]

    return lookup


def within(factor, label, method):
    """Claim: max #node at most ``factor`` times that of another cell."""
    return (f"nodes<={factor}x{label}-{method}",
            lambda r, cell: r.max_nodes
            <= factor * cell(label, method).max_nodes)


DIM1 = ("dim==1", lambda r, cell: r.dimension == 1)
SOME = ("dim>=1", lambda r, cell: r.dimension >= 1)
TABLE1 = tuple(TABLE1_METHODS)


def grover_basic_linear(r, cell):
    """basic's peak grows at most linearly over Grover 6, 8, 10."""
    six, eight = (cell(f"Grover{n}", "basic").max_nodes for n in (6, 8))
    return 0 < r.max_nodes - eight <= 1.25 * (eight - six)


ROWS = [
    # QFT: the paper's exponential-vs-linear headline
    *[("QFT10", method, *DIM1) for method in TABLE1],
    ("QFT10", "basic", "nodes>=2^10-1",
     lambda r, cell: r.max_nodes >= 2 ** 10 - 1),
    ("QFT10", "contraction", "nodes<100", lambda r, cell: r.max_nodes < 100),
    *[row for n in (16, 20) for row in (
        (f"QFT{n}", "contraction", *DIM1),
        (f"QFT{n}", "contraction", f"nodes<={8 * n}",
         lambda r, cell, n=n: r.max_nodes <= 8 * n))],
    ("QFT10", "basic", "nodes>=4xQFT6",
     lambda r, cell: r.max_nodes >= 4 * cell("QFT6", "basic").max_nodes),
    ("QFT10", "contraction", "nodes<=2xmax(QFT6,32)",
     lambda r, cell: r.max_nodes
     <= 2 * max(cell("QFT6", "contraction").max_nodes, 32)),
    *[(f"QFT{n}", "contraction", f"nodes<QFT{n}-basic",
       lambda r, cell, n=n: r.max_nodes < cell(f"QFT{n}", "basic").max_nodes)
      for n in (8, 10)],
    ("QFT8", "addition", *within(1, "QFT8", "basic")),
    # GHZ and BV: linear node growth under contraction
    *[row for family in ("GHZ", "BV") for row in (
        *[(f"{family}30", method, *DIM1) for method in TABLE1],
        *[(f"{family}{n}", "contraction", *DIM1)
          for n in (10, 20, 40, 60, 100)],
        (f"{family}100", "contraction",
         *within(6, f"{family}25", "contraction")),
        (f"{family}40", "contraction",
         *within(6, f"{family}10", "contraction")))],
    # Grover: basic stays linear, addition at or below basic
    *[("Grover8", method, *SOME) for method in TABLE1],
    ("Grover9", "contraction", *SOME),
    ("Grover10", "basic", "linear-growth", grover_basic_linear),
    ("Grover8", "addition", *within(1, "Grover8", "basic")),
    # QRW: contraction no slower and no larger than basic
    *[("QRW6", method, *SOME) for method in TABLE1],
    *[(f"QRW{n}", "contraction", *SOME) for n in (8, 10)],
    ("QRW8x6", "contraction", "seconds<=1.5xbasic",
     lambda r, cell: r.seconds <= 1.5 * cell("QRW8x6", "basic").seconds),
    ("QRW8x6", "contraction", *within(1, "QRW8x6", "basic")),
    ("QRW4-reach", "contraction", "converged",
     lambda r, cell: r.converged),
    # extension families
    ("QPE8", "contraction", *DIM1),
    ("HiddenShift12", "contraction", *DIM1),
    *[(label, method, *DIM1) for label in ("W12", "Adder4")
      for method in ("basic", "contraction")],
    # ablations on Grover8: hybrid slicing, addition k
    *[("Grover8", f"hybrid k={k}", *DIM1) for k in (0, 1, 2)],
    ("Grover8", "hybrid k=1", *within(2, "Grover8", "contraction")),
    *[("Grover8", f"addition k={k}", *SOME) for k in (0, 2, 3)],
]


@pytest.mark.parametrize(
    "label,method,claim,holds", ROWS,
    ids=[f"{label}-{method}-{claim}" for label, method, claim, _ in ROWS])
def test_table1_shape(cell, label, method, claim, holds):
    record = cell(label, method)
    assert holds(record, cell), (claim, record)


@pytest.fixture(scope="module")
def table2_grid():
    """Table II on Grover7 (two iterations), k1, k2 in 1..6."""
    return table2.sweep_stats(7, kmax=6)


@pytest.mark.parametrize("k2", range(1, 7))
@pytest.mark.parametrize("k1", range(1, 7))
def test_table2_cell_images(table2_grid, k1, k2):
    assert table2_grid[k1 - 1][k2 - 1]["dimension"] >= 1


def test_table2_plateau(table2_grid):
    """No cell with k1, k2 in {1, 2, 4} is an order of magnitude slower
    than the best of them."""
    times = {(k1, k2): table2_grid[k1 - 1][k2 - 1]["seconds"]
             for k1 in (1, 2, 4) for k2 in (1, 2, 4)}
    best = min(times.values())
    assert max(times.values()) <= max(10 * best, best + 1.0), times
