"""The two nodes' full one-excitation models, written out as a test reference.

These are the H_eff of the ``clonesim.adiabatic`` module docstring on every
state a passage can reach, in plain numpy: no basis labels and nothing from
``adiabatic``, so they check the three-state block ``evolve`` integrates.

Source node, basis [gL, gR, eL, eR, g0 1_L, g0 1_R]: channel L is index 4,
channel R index 5.  Remote node, basis [gp0, e0, gL 1_R, gR 1_L]: channel R
is index 2, channel L index 3.
"""

import math

import numpy as np

SOURCE_CHANNELS = {"L": 4, "R": 5}
REMOTE_CHANNELS = {"L": 3, "R": 2}


def source_h_eff(om, g, delta=0.0, gamma=0.0, kappa=0.0):
    """-(Delta + i gamma/2) on eL, eR; Omega gL-eL, gR-eR; g eL-g0 1_L,
    eR-g0 1_R; -i kappa/2 on the photon states."""
    e, c = -(delta + 0.5j * gamma), -0.5j * kappa
    return np.array([
        [0, 0, om, 0, 0, 0],
        [0, 0, 0, om, 0, 0],
        [om, 0, e, 0, g, 0],
        [0, om, 0, e, 0, g],
        [0, 0, g, 0, c, 0],
        [0, 0, 0, g, 0, c],
    ], dtype=complex)


def remote_h_eff(om, g, delta=0.0, gamma=0.0, kappa=0.0):
    """-(Delta + i gamma/2) on e0; Omega gp0-e0; g e0-gL 1_R and e0-gR 1_L;
    -i kappa/2 on the photon states."""
    e, c = -(delta + 0.5j * gamma), -0.5j * kappa
    return np.array([
        [0, om, 0, 0],
        [om, e, g, g],
        [0, g, c, 0],
        [0, g, 0, c],
    ], dtype=complex)


def source_dark_states(om, g):
    """D1 = cos|gL> - sin|g0 1_L>, D2 = cos|gR> - sin|g0 1_R>, tan = Omega/g."""
    n = math.hypot(g, om)
    return (np.array([g / n, 0, 0, 0, -om / n, 0]),
            np.array([0, g / n, 0, 0, 0, -om / n]))


def remote_dark_state(om, g):
    """D = cos|gp0> - sin/sqrt(2) (|gL 1_R> + |gR 1_L>), tan = Omega/(sqrt(2) g)."""
    n = math.sqrt(2.0 * g * g + om * om)
    r = om / n / math.sqrt(2.0)
    return np.array([math.sqrt(2.0) * g / n, 0, -r, -r])
