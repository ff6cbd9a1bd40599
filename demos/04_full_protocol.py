"""The complete protocol, ideal algebra beside integrated dynamics.

Both atoms ride their dark states; the two emitted photons interfere and the
two-fold coincidence heralds the clones.  The remote drive is sqrt(2) harder
so both envelopes match (same mixing angle trajectory), which is what makes
the photons indistinguishable.  Takes ~15 s for the default schedule.
Saves protocol_pulses.png when matplotlib is importable.
"""

import numpy as np

from clonesim import InputQubit, Mode, ProtocolConfig, run
from clonesim.adiabatic import pulse_overlap

q = InputQubit(0.6, 0.8)

ideal = run(ProtocolConfig(input=q, mode=Mode.ANALYTIC))
print("ideal passage (perfect, instantaneous emission):")
print(f"  clone fidelities:  {ideal.clone_fidelity_1:.9f}, {ideal.clone_fidelity_2:.9f}")
print(f"  remote flip:       {ideal.telenot_fidelity:.9f}")
print(f"  p_symmetric:       {ideal.p_symmetric:.9f}")
print(f"  p_operational:     {ideal.p_operational:.9f}")

print("\nintegrated dynamics (default schedule, T = 200/g)...")
dyn = run(ProtocolConfig(input=q, mode=Mode.DYNAMIC))
print(f"  clone fidelities:  {dyn.clone_fidelity_1:.9f}, {dyn.clone_fidelity_2:.9f}")
print(f"  remote flip:       {dyn.telenot_fidelity:.9f}")
print(f"  emission probs:    {dyn.emission_prob_alice:.6f}, {dyn.emission_prob_bob:.6f}")
print(f"  envelope overlap:  {dyn.overlap_visibility:.9f}")
print(f"  p_operational:     {dyn.p_operational:.9f}")
for note in dyn.diagnostics:
    print(f"  note: {note}")

da, db = dyn.dynamics_diags
ov = pulse_overlap(da.t_grid, da.pulse_shape, db.t_grid, db.pulse_shape)
print(f"\n|<f_A|f_B>|^2 between the two emitted envelopes: {ov:.9f}")
print(f"fidelity gap to the ideal constants: "
      f"{abs(dyn.clone_fidelity_1 - 5 / 6):.2e}, {abs(dyn.telenot_fidelity - 2 / 3):.2e}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping the figure")
else:
    fig, ax = plt.subplots(figsize=(7, 4))
    ax.plot(da.t_grid, np.abs(da.pulse_shape) ** 2, label="source node")
    ax.plot(db.t_grid, np.abs(db.pulse_shape) ** 2, "--", label="remote node (matched drive)")
    ax.set_xlabel("t (units of 1/g)")
    ax.set_ylabel("output flux")
    ax.legend()
    fig.tight_layout()
    fig.savefig("protocol_pulses.png", dpi=120)
    print("wrote protocol_pulses.png")
