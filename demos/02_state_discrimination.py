"""Discriminating nonorthogonal states through a CTC interaction.

No ordinary measurement can tell |0> from |-> with certainty; their
overlap is 1/2.  With a CTC register the circuit (controlled-U) . SWAP
does it deterministically: the self-consistency condition forces the
CTC state onto the basis label of whichever set member entered, and the
chronology-respecting output carries the same label out.
"""

import numpy as np

from ctcsim import (
    StateSet,
    StateVector,
    build_distinguisher,
    distinguish_members,
    state_fidelity,
)
from ctcsim.sampling import random_state_set

np.set_printoptions(precision=6, suppress=True)

S = 1 / np.sqrt(2)

# ---------------------------------------------------------------------------
# 1. The two-state example: {|0>, |->}.

states = StateSet((StateVector([1, 0]), StateVector([S, -S])))
print("1. set {|0>, |->}, overlap fidelity:",
      state_fidelity(states[0], states[1]))

bundle = build_distinguisher(states)
print("   U_0 (identity expected):\n", bundle.uks[0].real)
print("   U_1 (Hadamard expected):\n", bundle.uks[1].real)

print("   overlap table |<j|U_k|psi_j>|:\n", bundle.overlaps)
print("   minimum overlap (must stay well above zero):", bundle.condition2_min)
print()

# ---------------------------------------------------------------------------
# 2. Feed each member through the circuit and decode.

# Every member at once: one stacked solve, each label certified by
# eps_m = min_k |<m|U_k|psi_m>|^2 > 0 and a bound on |p - e_m|_1, and
# one record whose row j is member j.

print("2. discrimination runs")
members = distinguish_members(bundle)
for j in range(states.size):
    print(f"   input psi_{j}: decoded={members.decoded[j]}"
          f"  P(decoded)={members.fidelity_to_basis[j]:.12f}"
          f"  residual={members.residual[j]:.2e}"
          f"  eps={members.minorization[j]:.3f}"
          f"  certified={members.certified[j]}")
print()

# ---------------------------------------------------------------------------
# 3. The same machinery works for any distinct set, orthogonal or not.

print("3. a random 4-state set (pairwise fidelities below)")
rng = np.random.default_rng(7)
random_set = random_state_set(4, rng)
fids = [
    (i, j, round(state_fidelity(random_set[i], random_set[j]), 4))
    for i in range(4) for j in range(i + 1, 4)
]
print("  ", fids)
# no draw picks the unitaries: each U_k is a Gram-Schmidt completion, or,
# where that misses condition 2, the weighted polar factor
bundle = build_distinguisher(random_set)
decoded = distinguish_members(bundle).decoded.tolist()
print("   decoded labels:", decoded, "(expected [0, 1, 2, 3])")
