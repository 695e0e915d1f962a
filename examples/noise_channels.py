"""Image computation under different noise channels.

The paper's noisy example uses a bit-flip channel; this example runs
the same walk under every channel in the library — including the
non-unital amplitude damping, which genuinely *changes* the reachable
space (decay toward |0> re-populates states the unitary dynamics
cannot).

Run:  python examples/noise_channels.py
"""

from repro.circuits.library import qrw_step
from repro.image.engine import compute_image
from repro.mc.config import CheckerConfig
from repro.systems import noise
from repro.systems.qts import QuantumTransitionSystem

#: the contraction method at the paper's Table I setting
CONTRACTION_K4 = CheckerConfig(method="contraction",
                               method_params={"k1": 4, "k2": 4})


def build(channel: str, parameter: float) -> QuantumTransitionSystem:
    step = qrw_step(4)
    op = noise.noisy_operation("T", step, position=1, qubit=0,
                               channel=channel, parameter=parameter)
    qts = QuantumTransitionSystem(4, [op], name=f"qrw4+{channel}")
    qts.set_initial_basis_states([[0, 0, 1, 1]])  # coin 0, position 3
    return qts


def main() -> None:
    print("one-step image of |0>|3> under a noisy walk step")
    print(f"{'channel':20s} {'kraus':>5s} {'dim(T(S))':>9s} "
          f"{'max#node':>8s}")
    for channel in sorted(noise.CHANNELS):
        qts = build(channel, 0.25)
        result = compute_image(qts, config=CONTRACTION_K4)
        kraus = qts.operations[0].num_kraus
        print(f"{channel:20s} {kraus:5d} {result.dimension:9d} "
              f"{result.stats.max_nodes:8d}")

    # the headline: amplitude damping is non-unital, so unlike the
    # paper's bit-flip it enlarges the image
    flip = compute_image(build("bit_flip", 0.25)).subspace
    damp = compute_image(build("amplitude_damping", 0.25)).subspace
    print(f"\nbit-flip image dim = {flip.dimension}, "
          f"amplitude-damping image dim = {damp.dimension}")
    assert damp.dimension > flip.dimension


if __name__ == "__main__":
    main()
