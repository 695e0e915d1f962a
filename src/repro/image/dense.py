"""The dense reference engine: Kraus matrices on dense subspaces.

:class:`DenseImageEngine` is the statevector counterpart of
:class:`~repro.image.engine.ImageEngine`: images are explicit Kraus
matrices applied to dense basis vectors
(:class:`~repro.sim.subspace_dense.DenseSubspace`, closed by SVD), and
results are lifted back into TDD subspaces so both backends return the
same types.  It implements the same fixpoint-engine protocol
(:mod:`repro.mc.reachability`), so one fixpoint loop serves both
backends.
Exponential in the qubit count — small instances only.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import GS_EPS
from repro.errors import ReproError
from repro.image.base import ImageResult
from repro.sim.subspace_dense import DenseSubspace
from repro.subspace.subspace import Subspace
from repro.systems.qts import QuantumTransitionSystem
from repro.utils.stats import StatsRecorder
from repro.utils.timing import Stopwatch

#: dense simulation is exponential; refuse silly sizes loudly
DENSE_MAX_QUBITS = 14


class DenseImageEngine:
    """The dense engine for one system and one dense ``CheckerConfig``.

    ``config.max_qubits`` (default :data:`DENSE_MAX_QUBITS`) guards the
    size; ``config.direction="backward"`` computes preimages.
    """

    def __init__(self, qts: QuantumTransitionSystem, config) -> None:
        limit = (config.max_qubits if config.max_qubits is not None
                 else DENSE_MAX_QUBITS)
        if qts.num_qubits > limit:
            raise ReproError(
                f"dense backend refuses {qts.num_qubits} qubits "
                f"(> {limit}); it is exponential — use the tdd "
                f"backend, or raise max_qubits explicitly")
        self.qts = qts
        self.config = config
        #: every Kraus matrix of every operation (their adjoints in
        #: preimage mode); unlike the symbolic engine, which images one
        #: circuit per class of proportional ones, the oracle keeps them
        #: all, so it checks that reduction instead of sharing it
        self.kraus = [matrix if config.direction == "forward"
                      else matrix.conj().T
                      for op in qts.operations
                      for matrix in op.kraus_matrices()]

    # ------------------------------------------------------------------
    # the fixpoint-engine protocol (see repro.mc.reachability)
    # ------------------------------------------------------------------
    def lower(self, subspace: Subspace) -> DenseSubspace:
        vectors = [v.to_numpy().reshape(-1) for v in subspace.basis]
        return DenseSubspace.from_vectors(vectors,
                                          2 ** self.qts.num_qubits)

    def lift(self, dense: DenseSubspace,
             stats: StatsRecorder) -> Subspace:
        space = self.qts.space
        # the SVD columns are orthonormal: adopted, not spanned again
        result = space.adopt([space.from_amplitudes(dense.basis[:, column])
                              for column in range(dense.dimension)])
        stats.observe_nodes(result.projector.size())
        return result

    def image(self, source: DenseSubspace,
              stats: Optional[StatsRecorder] = None) -> DenseSubspace:
        self._record(stats)
        return source.image(self.kraus)

    def _record(self, stats: Optional[StatsRecorder]) -> None:
        # every Kraus matrix is imaged: the counts of the symbolic
        # engine's prepare_family, with nothing dropped
        if stats is not None:
            stats.extra["kraus_imaged"] = len(self.kraus)
            stats.extra["kraus_circuits"] = len(self.kraus)

    def extend(self, current: DenseSubspace, source: DenseSubspace,
               stats: Optional[StatsRecorder] = None) -> DenseSubspace:
        return current.join(self.image(source, stats))

    def new_directions(self, previous: DenseSubspace,
                       grown: DenseSubspace) -> DenseSubspace:
        # residuals of the grown basis against the previous space
        # (rank = the growth)
        residual = grown.basis - previous.projector() @ grown.basis
        return DenseSubspace.from_vectors(residual.T, grown.dim)

    def certify(self, current: DenseSubspace, phases: np.ndarray,
                stats: Optional[StatsRecorder] = None) -> bool:
        """The certificate of
        :meth:`~repro.image.engine.ImageEngine.certify` on the Kraus
        matrices: ``r`` is ``basis @ phases``."""
        self._record(stats)
        basis = current.basis
        mixed = basis @ phases
        for matrix in self.kraus:
            image = matrix @ mixed
            residual = image - basis @ (basis.conj().T @ image)
            if np.linalg.norm(residual) > GS_EPS:
                return False
        return True

    # ------------------------------------------------------------------
    def compute_image(self, subspace: Optional[Subspace] = None
                      ) -> ImageResult:
        """``T(S)`` (default ``S0``) with wall time and result size."""
        stats = StatsRecorder()
        stats.extra["backend"] = "dense"
        watch = Stopwatch().start()
        source = self.lower(subspace if subspace is not None
                            else self.qts.initial)
        result = self.lift(self.image(source, stats), stats)
        stats.seconds = watch.stop()
        return ImageResult(result, stats)

    def __repr__(self) -> str:
        return f"DenseImageEngine({self.config.describe()})"
