"""Adiabatic passage of one atom-cavity node, photon out the mirror.

Ramping the classical drive rotates the dark state from the bare atom toward
the one-photon-in-cavity component, which then leaks out as a shaped pulse.
Slower ramps track the dark state better (less excited-state population,
less spontaneous loss).  Saves dark_state_passage.png next to the cwd when
matplotlib is importable.
"""

import numpy as np

from clonesim import PulseSchedule, Side, SystemParams, dark_states, evolve
from clonesim.adiabatic import alice_initial, pulse_shape_analytic
from clonesim.qstate import inner, normalize

print("how tracking improves with passage time (kappa = 0, pure rotation):")
p_closed = SystemParams(side=Side.ALICE, kappa=0.0, gamma=0.0)
for t_total in (25.0, 50.0, 100.0, 200.0):
    om = PulseSchedule(t_total=t_total)
    rep = evolve(alice_initial(0.6, 0.8), p_closed, om, dt=t_total / 1000)
    d1, d2 = dark_states(p_closed, om, t_total)
    target, _ = normalize(d1 * 0.6 + d2 * 0.8)
    final, _ = normalize(rep.final_state)
    print(f"  T = {t_total:5.0f}: |<dark|final>|^2 = {abs(inner(target, final))**2:.7f}, "
          f"peak excited population = {rep.excited_pop_max:.2e}")

print("\nnow with the cavity open (kappa = 1), default schedule:")
p = SystemParams(side=Side.ALICE)
om = PulseSchedule()
rep = evolve(alice_initial(0.6, 0.8), p, om, dt=0.05)
print(f"  emission probability: {rep.emission_prob:.6f}")
print(f"  spontaneous loss:     {rep.spont_loss:.6f}")
print(f"  closure |emit + loss + leftover - 1|: {rep.closure_error:.2e}")
w = rep.channel_weights
print(f"  channel split L/(L+R): {w['L'] / (w['L'] + w['R']):.6f}   (|a|^2 = 0.36)")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not available; skipping the figure")
else:
    analytic = pulse_shape_analytic(p, om, rep.t_grid)
    fig, ax = plt.subplots(figsize=(7, 4))
    ax.plot(rep.t_grid, np.abs(rep.pulse_shape) ** 2, label="integrated |f(t)|^2")
    ax.plot(rep.t_grid, np.abs(analytic) ** 2, "--", label="analytic prediction")
    ax.set_xlabel("t (units of 1/g)")
    ax.set_ylabel("output flux")
    ax.legend()
    fig.tight_layout()
    fig.savefig("dark_state_passage.png", dpi=120)
    print("\nwrote dark_state_passage.png")
