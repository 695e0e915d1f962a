"""Kernel fingerprint: node and cache counts of small fixpoints, pinned.

Each row runs one reachability fixpoint on a fresh model and pins what
the TDD kernel did along the way: the dimension ladder, ``max_nodes``
(the paper's Table I metric), the manager's ``peak_live_nodes`` and
``nodes_made``, and its :meth:`~repro.tdd.manager.TDDManager.cache_counters`.
A change to the kernel's object layout, memo keys or node ids must
leave every count exactly as it is; a change that alters the
algorithm shows here first, and its new values are recorded on
purpose.
"""

from __future__ import annotations

import pytest

from repro.mc.checker import ModelChecker
from repro.mc.config import CheckerConfig
from repro.systems.models import build_model

#: model key -> ``build_model`` arguments
MODELS = {
    "grover4": ("grover", 4, {}),
    "qrw4": ("qrw", 4, {"noise_probability": 0.1, "steps": 2}),
    "ghz5": ("ghz", 5, {}),
    "bitflip": ("bitflip", 0, {}),
}

#: method -> parameters small enough that every shape cuts these models
PARAMS = {
    "basic": {},
    "addition": {"k": 1},
    "contraction": {"k1": 2, "k2": 2},
    "hybrid": {"k": 1, "k1": 2, "k2": 2},
}

#: the ``cache_counters()`` entries pinned, in the order of each row
COUNTERS = ("add_hits", "add_misses", "cont_hits", "cont_misses",
            "inner_hits", "inner_misses", "hits", "misses", "gc_runs",
            "nodes_reclaimed")

#: (model, method, direction, ladder, max_nodes, peak_live_nodes,
#: nodes_made, counters)
#: ghz5 gains one dimension a round in both directions
GHZ5_LADDER = list(range(1, 17)) + [16]

RUNS = [
("grover4", "basic", "forward", [1, 2, 2], 27, 253, 285,
     (11, 80, 250, 304, 32, 46, 293, 436, 4, 256)),
    ("grover4", "basic", "backward", [1, 2, 2], 22, 182, 220,
     (7, 70, 166, 231, 32, 46, 205, 353, 4, 189)),
    ("grover4", "addition", "forward", [1, 2, 2], 19, 253, 297,
     (5, 79, 272, 330, 32, 46, 309, 461, 4, 259)),
    ("grover4", "addition", "backward", [1, 2, 2], 17, 170, 217,
     (3, 62, 180, 256, 32, 46, 215, 370, 4, 179)),
    ("grover4", "contraction", "forward", [1, 2, 2], 27, 124, 199,
     (3, 70, 125, 203, 32, 46, 160, 325, 4, 153)),
    ("grover4", "contraction", "backward", [1, 2, 2], 26, 154, 211,
     (7, 85, 142, 218, 32, 46, 181, 355, 4, 170)),
    ("grover4", "hybrid", "forward", [1, 2, 2], 21, 118, 200,
     (2, 59, 141, 193, 32, 46, 175, 304, 4, 156)),
    ("grover4", "hybrid", "backward", [1, 2, 2], 19, 143, 205,
     (11, 65, 160, 246, 32, 46, 203, 363, 4, 160)),
    ("qrw4", "basic", "forward", [1, 2, 4, 7, 7], 39, 476, 730,
     (33, 208, 460, 731, 390, 491, 883, 1465, 9, 671)),
    ("qrw4", "basic", "backward", [1, 3, 7, 7], 37, 384, 542,
     (23, 151, 336, 585, 243, 255, 602, 1019, 9, 494)),
    ("qrw4", "addition", "forward", [1, 2, 4, 7, 7], 23, 389, 728,
     (27, 241, 400, 671, 387, 488, 814, 1435, 9, 679)),
    ("qrw4", "addition", "backward", [1, 3, 7, 7], 21, 356, 537,
     (23, 181, 346, 592, 238, 247, 607, 1048, 9, 497)),
    ("qrw4", "contraction", "forward", [1, 2, 4, 7, 7], 20, 273, 949,
     (52, 311, 629, 1286, 390, 491, 1071, 2123, 9, 821)),
    ("qrw4", "contraction", "backward", [1, 3, 7, 7], 18, 179, 574,
     (13, 152, 316, 797, 243, 263, 572, 1240, 9, 465)),
    ("qrw4", "hybrid", "forward", [1, 2, 4, 7, 7], 18, 283, 989,
     (65, 319, 759, 1373, 387, 488, 1211, 2215, 9, 872)),
    ("qrw4", "hybrid", "backward", [1, 3, 7, 7], 18, 166, 534,
     (5, 163, 387, 755, 238, 247, 630, 1193, 9, 433)),
    ("ghz5", "basic", "forward", GHZ5_LADDER, 32, 493, 1934,
     (21, 814, 570, 1314, 676, 4526, 1267, 6917, 18, 1648)),
    ("ghz5", "basic", "backward", GHZ5_LADDER, 32, 430, 1397,
     (17, 589, 306, 696, 736, 4470, 1059, 6018, 18, 1116)),
    ("ghz5", "addition", "forward", GHZ5_LADDER, 32, 493, 1934,
     (21, 814, 570, 1314, 676, 4526, 1267, 6917, 18, 1648)),
    ("ghz5", "addition", "backward", GHZ5_LADDER, 32, 430, 1397,
     (17, 589, 306, 696, 736, 4470, 1059, 6018, 18, 1116)),
    ("ghz5", "contraction", "forward", GHZ5_LADDER, 32, 459, 1681,
     (14, 669, 427, 1295, 676, 4534, 1117, 6761, 18, 1392)),
    ("ghz5", "contraction", "backward", GHZ5_LADDER, 32, 438, 1522,
     (17, 589, 462, 1048, 736, 4470, 1215, 6370, 18, 1243)),
    ("ghz5", "hybrid", "forward", GHZ5_LADDER, 32, 459, 1681,
     (14, 669, 427, 1295, 676, 4534, 1117, 6761, 18, 1392)),
    ("ghz5", "hybrid", "backward", GHZ5_LADDER, 32, 438, 1522,
     (17, 589, 462, 1048, 736, 4470, 1215, 6370, 18, 1243)),
    ("bitflip", "basic", "forward", [3, 4, 4], 36, 500, 520,
     (0, 0, 257, 711, 15, 64, 272, 775, 6, 404)),
    ("bitflip", "basic", "backward", [3, 15, 15], 44, 549, 643,
     (0, 0, 181, 1108, 139, 228, 320, 1336, 17, 483)),
    ("bitflip", "addition", "forward", [3, 4, 4], 36, 600, 620,
     (0, 0, 282, 877, 15, 64, 297, 941, 6, 490)),
    ("bitflip", "addition", "backward", [3, 15, 15], 32, 524, 618,
     (0, 0, 230, 1219, 139, 228, 369, 1447, 17, 444)),
    ("bitflip", "contraction", "forward", [3, 4, 4], 8, 96, 220,
     (0, 0, 105, 307, 15, 64, 120, 371, 6, 162)),
    ("bitflip", "contraction", "backward", [3, 15, 15], 12, 228, 484,
     (0, 0, 105, 803, 139, 228, 244, 1031, 17, 355)),
    ("bitflip", "hybrid", "forward", [3, 4, 4], 10, 101, 231,
     (0, 0, 131, 322, 15, 64, 146, 386, 6, 168)),
    ("bitflip", "hybrid", "backward", [3, 15, 15], 12, 241, 510,
     (0, 0, 235, 852, 139, 228, 374, 1080, 17, 368)),
]


@pytest.mark.parametrize(
    "model, method, direction, ladder, max_nodes, peak, nodes_made, "
    "counters", RUNS, ids=[f"{row[0]}-{row[1]}-{row[2]}" for row in RUNS])
def test_kernel_fingerprint(model, method, direction, ladder, max_nodes,
                            peak, nodes_made, counters):
    name, size, options = MODELS[model]
    qts = build_model(name, size, **options)
    config = CheckerConfig(method=method, method_params=PARAMS[method],
                           direction=direction)
    trace = ModelChecker(qts, config).reachable()
    manager = qts.manager
    cache = manager.cache_counters()
    assert trace.dimensions == ladder
    assert trace.stats.max_nodes == max_nodes
    assert trace.stats.peak_live_nodes == peak
    assert manager.nodes_made == nodes_made
    assert tuple(cache[key] for key in COUNTERS) == counters


def test_grid_is_complete():
    assert {(row[0], row[1], row[2]) for row in RUNS} == {
        (model, method, direction) for model in MODELS for method in PARAMS
        for direction in ("forward", "backward")}
