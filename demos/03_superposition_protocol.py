"""Writing a chosen superposition of two unidentified set members.

There is no universal circuit that maps unknown states |phi_1>, |phi_2>
to the normalized combination alpha |phi_1> + beta |phi_2>.  When the
candidate set is known in advance and two CTC registers are available,
the no-go dissolves: each input is first collapsed onto its basis label
by the discrimination circuit, then a block-diagonal control unitary
writes the target combination onto a fresh ancilla, conditioned on the
two labels.  Nothing downstream ever reads the labels classically.
"""

import numpy as np

from ctcsim import (
    StateSet,
    StateVector,
    SuperpositionSpec,
    build_distinguisher,
    build_omega,
    build_u_prime,
    run_sweep,
)
from ctcsim.sampling import random_state_set

np.set_printoptions(precision=6, suppress=True)

S = 1 / np.sqrt(2)

# ---------------------------------------------------------------------------
# 1. The two-state example at balanced amplitudes.

states = StateSet((StateVector([1, 0]), StateVector([S, -S])))
spec = SuperpositionSpec(S, S)

print("1. target for (m, n) = (0, 1):",
      build_omega(states, 0, 1, spec).amplitudes.real)

sweep = run_sweep(states, [(0, 1)], spec)
print("   ancilla state: ", sweep.ancillas[0].real)
print("   fidelity to target:", sweep.fidelity[0])
# rows m and n of the member record belong to the pair; here N = 2
print("   decoded labels:", tuple(sweep.members.decoded.tolist()),
      "  fixed-point residuals:", tuple(sweep.members.residual.tolist()))
print()

# ---------------------------------------------------------------------------
# 2. The conditional unitary is one 8x8 block-diagonal operator.

uks = build_distinguisher(states).uks
u_prime = build_u_prime(states, spec, uks)
print("2. control unitary (8x8, blocks on the diagonal):")
print(u_prime.entries.real)
print()

# ---------------------------------------------------------------------------
# 3. Full sweep over every ordered pair, including the diagonal where
#    the protocol simply returns the input state.  One sweep serves
#    every pair, with one discrimination of each member.

print("3. sweep over all (m, n) at alpha = beta = 1/sqrt(2)")
sweep = run_sweep(states, [(m, n) for m in range(2) for n in range(2)], spec)
decoded = sweep.members.decoded.tolist()
for (m, n), fidelity in zip(sweep.pairs.tolist(), sweep.fidelity):
    print(f"   (m={m}, n={n}): fidelity={fidelity:.12f}"
          f"  decoded={(decoded[m], decoded[n])}")
print()

# ---------------------------------------------------------------------------
# 4. Complex amplitudes and a random 3-state set.

print("4. random 3-state set, complex amplitudes")
rng = np.random.default_rng(42)
random_set = random_state_set(3, rng)
spec = SuperpositionSpec(0.6 + 0.3j, -0.2 + 0.7j)
sweep = run_sweep(random_set, [(0, 1), (1, 2), (2, 0)], spec)
for (m, n), fidelity in zip(sweep.pairs.tolist(), sweep.fidelity):
    print(f"   (m={m}, n={n}): fidelity={fidelity:.12f}")
