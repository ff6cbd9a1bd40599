"""Walk through the exact cloning algebra, no dynamics involved.

An unknown qubit |q> = a|0> + b|1> meets one half of a singlet pair.
Post-selecting on the symmetric subspace of qubits 1 and 2 leaves two equally
good approximate copies plus an anti-clone on qubit 3.  Run me with

    python3 demos/01_ideal_cloning.py
"""

import numpy as np

from clonesim import InputQubit, clone, closed_form_output, fidelity_pure, inner, partial_trace
from clonesim.cloner import haar_qubit, orthogonal_state, qubit_state, Q1, Q2, Q3

q = InputQubit(0.6, 0.8)
print(f"input qubit: a = {q.a}, b = {q.b}")

out = clone(q)
print(f"\nsymmetric branch probability: {out.branch_prob:.12g}   (3/4, any input)")

f1 = fidelity_pure(partial_trace(out.state, [Q1]), qubit_state(Q1, q.a, q.b))
f2 = fidelity_pure(partial_trace(out.state, [Q2]), qubit_state(Q2, q.a, q.b))
fa = fidelity_pure(partial_trace(out.state, [Q3]), orthogonal_state(q))
print(f"clone 1 fidelity: {f1:.12g}   (5/6)")
print(f"clone 2 fidelity: {f2:.12g}   (5/6)")
print(f"anti-clone vs flipped state: {fa:.12g}   (2/3)")

ov = inner(closed_form_output(q), out.state)
print(f"\nclosed-form expression overlap with projected state: {abs(ov):.12g}")

print("\nthe same numbers for five random inputs:")
rng = np.random.default_rng(1)
for _ in range(5):
    r = haar_qubit(rng)
    o = clone(r)
    print(f"  |a|^2 = {abs(r.a)**2:.3f}: branch = {o.branch_prob:.9f}, "
          f"F = {fidelity_pure(partial_trace(o.state, [Q1]), qubit_state(Q1, r.a, r.b)):.9f}")
print("\nnothing here depends on the input state; that is the whole point.")
