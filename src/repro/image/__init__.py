"""Image computation for quantum transition systems (paper, Sections IV-V).

One computer, :class:`~repro.image.base.ImageComputerBase`, runs the
four interchangeable algorithms (the *method* axis) as four shapes of
one slice x block partition of each Kraus circuit (``n`` qubits):

* ``basic`` (``k = 0``, ``k1 = n``) — Algorithm 1: contract each Kraus
  circuit into one monolithic operator TDD, apply it to every basis
  state, join the results.
* ``addition`` (``k``, ``k1 = n``) — Section V.A: slice the k
  highest-degree internal indices of the circuit's index graph and sum
  the per-slice contributions.
* ``contraction`` (``k = 0``, ``k1``, ``k2``) — Section V.B: cut the
  circuit into blocks of at most k1 qubits and at most k2 crossing
  multi-qubit gates per column, contract each block into a small TDD,
  and contract the state through the block network.
* ``hybrid`` (``k``, ``k1``, ``k2``) — addition slicing over
  contraction-partitioned blocks (extension beyond the paper).

:func:`~repro.image.engine.make_computer` maps a method and its
parameters to that shape.  Use
:func:`~repro.image.engine.compute_image` for a one-shot entry point,
or :class:`~repro.image.engine.ImageEngine` to hold the method
computer across calls (operator diagrams are cached on the system
itself, keyed by the shape).
:func:`~repro.image.engine.make_engine` picks between that engine and
the dense reference (:class:`~repro.image.dense.DenseImageEngine`) by
``CheckerConfig.backend``.
"""

from repro.image.base import ImageComputerBase, ImageResult
from repro.image.dense import DenseImageEngine
from repro.image.engine import (ImageEngine, compute_image, make_computer,
                                make_engine, METHODS)

__all__ = [
    "ImageResult", "ImageComputerBase",
    "ImageEngine", "compute_image", "make_computer",
    "make_engine", "DenseImageEngine", "METHODS",
]
