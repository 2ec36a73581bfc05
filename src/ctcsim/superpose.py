"""Deterministic superposition of two states drawn from a known set.

Two copies of the discrimination circuit first collapse the (unknown)
inputs psi_m and psi_n onto their basis labels via independent CTC
interactions.  A block-diagonal control unitary

    u_prime = sum_{i,j} |i><i| (x) |j><j| (x) U^{i,j}

then writes the normalized target gamma^{-1} (alpha psi_i + beta psi_j)
onto a fresh ancilla, conditioned on the two label registers.  The
labels m, n are never read classically after state preparation; they
are recovered only through the CTC dynamics.

With both label registers traced out, the block-diagonal u_prime leaves
the ancilla in sum_{i,j} p1_i p2_j |omega_ij><omega_ij|, omega_ij being
U^{i,j}|0>.  :func:`run_sweep` reads the ancilla off that sum without a
per-pair loop: the label distributions p1, p2 are the T_m p_m of one
stacked member solve, all N^2 targets come from one broadcast, and for
each first label m one batched product gives B_j = sum_i p1_i
|omega_ij><omega_ij| for every j, one product with the second labels
gives the density of every requested pair (m, .), and one stacked
``eigh`` gives their ancillas.  It returns one :class:`SweepResult`,
row k for the k-th requested pair.  Each ancilla is in the phase that
makes <omega_mn|ancilla> real and non-negative.  :func:`build_omega` is
the per-pair form of the targets and :func:`build_u_prime` the
unitary-level reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .discrimination import (DistinguisherBundle, MemberResults,
                             build_distinguisher, controlled_stack,
                             distinguish_members)
from .errors import DegenerateSuperposition, DimensionError, PurityLoss
from .linalg import (
    StateSet,
    StateVector,
    UnitaryMatrix,
    unitary_from_first_column,
)

# bound on gamma of the amplitudes scaled by :func:`unit_scaled`, so the
# degeneracy verdict depends only on alpha : beta
TOL_GAMMA = 1e-9

_PURITY_SECOND_EIG = 1e-6


@dataclass(frozen=True)
class SuperpositionSpec:
    """The two target amplitudes; the normalizer is derived per pair."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        if not np.isfinite([self.alpha, self.beta]).all():
            raise ValueError("amplitudes (alpha, beta) must be finite")
        if self.alpha == 0 and self.beta == 0:
            raise ValueError("amplitudes (alpha, beta) must not both be zero")


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Outcome of :func:`run_sweep`, row k for the k-th (m, n) of `pairs`:
    its target omega_mn in `expected`, its phase-aligned ancilla and
    |<omega_mn|ancilla>|^2.  Rows m and n of `members` hold its residuals
    and decoded labels."""

    bundle: DistinguisherBundle
    members: MemberResults
    pairs: np.ndarray
    ancillas: np.ndarray
    expected: np.ndarray
    fidelity: np.ndarray


def unit_scaled(alpha: complex, beta: complex) -> tuple[complex, complex]:
    """(alpha, beta) times the power of two that brings their largest
    real or imaginary part into [0.5, 1).

    The scale is exact, so alpha : beta is kept bit for bit.  The parts
    decide it because ``abs`` of a finite complex can overflow.
    """
    parts = (alpha.real, alpha.imag, beta.real, beta.imag)
    e = math.frexp(max(map(abs, parts)))[1]
    re_a, im_a, re_b, im_b = (math.ldexp(x, -e) for x in parts)
    return complex(re_a, im_a), complex(re_b, im_b)


def build_omega(states: StateSet, i: int, j: int,
                spec: SuperpositionSpec) -> StateVector:
    """Normalized target (alpha psi_i + beta psi_j) / gamma for i != j,
    and psi_i itself for i == j, whatever the amplitudes.

    The amplitudes are first brought to unit scale by :func:`unit_scaled`,
    so the target and the degeneracy verdict depend only on alpha : beta.
    gamma is the Euclidean norm of the scaled combination; if it falls
    below ``TOL_GAMMA`` the amplitudes cancel and
    :class:`DegenerateSuperposition` is raised.
    """
    if i == j:
        return states[i]
    alpha, beta = unit_scaled(spec.alpha, spec.beta)
    raw = alpha * states.amplitudes[i] + beta * states.amplitudes[j]
    gamma = float(np.linalg.norm(raw))
    if gamma < TOL_GAMMA:
        raise DegenerateSuperposition(i, j, gamma)
    return StateVector(raw / gamma)


def build_u_ij(states: StateSet, i: int, j: int, spec: SuperpositionSpec,
               uks: Sequence) -> UnitaryMatrix:
    """The conditional block U^{i,j} mapping |0> to the (i, j) target.

    Off the diagonal this is a Gram-Schmidt completion whose first
    column is the target state, with the set members as completion
    candidates in index order.  On the diagonal the target is psi_i
    itself, realized exactly as U_i^dagger with its columns 0 and i
    exchanged.
    """
    n = states.size
    if not (0 <= i < n and 0 <= j < n):
        raise DimensionError(f"block indices ({i}, {j}) out of range for N={n}")
    if i == j:
        order = list(range(n))
        order[0], order[i] = i, 0
        return UnitaryMatrix(np.asarray(uks[i], dtype=complex).conj().T[:, order])
    omega = build_omega(states, i, j, spec)
    return unitary_from_first_column(omega, states.amplitudes)


def build_u_prime(states: StateSet, spec: SuperpositionSpec,
                  uks: Sequence) -> UnitaryMatrix:
    """Block-diagonal control unitary over both label registers.

    The (i, j) block sits at block index i*N + j.  A degenerate pair
    propagates :class:`DegenerateSuperposition`, which carries the
    offending indices.
    """
    n = states.size
    return UnitaryMatrix(controlled_stack(
        [build_u_ij(states, i, j, spec, uks).entries for i, j in np.ndindex(n, n)]))


def pure_state_from_density(reduced) -> np.ndarray:
    """Dominant eigenvectors of a stack (..., d, d) of numerically pure
    reduced matrices, as the (..., d) array given by one stacked ``eigh``.

    Raises :class:`DimensionError` for an input that is not a stack of
    nonempty square matrices, and :class:`PurityLoss` when a second
    eigenvalue exceeds ``_PURITY_SECOND_EIG``, which would mean the
    reduction is genuinely mixed; the message carries the second
    eigenvalue of the first such matrix in the stack.
    """
    m = np.asarray(reduced, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] == 0:
        raise DimensionError(
            f"expected a stack of nonempty square matrices, got shape {m.shape}")
    w, v = np.linalg.eigh((m + m.conj().swapaxes(-1, -2)) / 2)
    if m.shape[-1] > 1:
        second = w[..., -2].ravel()
        mixed = np.flatnonzero(second > _PURITY_SECOND_EIG)
        if mixed.size:
            raise PurityLoss(f"reduced state has second eigenvalue "
                             f"{second[mixed[0]]:.3e}; expected pure")
    return v[..., -1]


def run_sweep(states: StateSet, pairs: Sequence[tuple[int, int]],
              spec: SuperpositionSpec, rng_seed: int = 0) -> SweepResult:
    """Superpose psi_m and psi_n on a fresh ancilla for each (m, n) in `pairs`.

    Every label is checked before any work: a bool, non-integer or
    out-of-range index raises :class:`DimensionError`.  All N^2 targets
    are then formed in one broadcast before the one discrimination
    bundle, so a cancelling pair raises :class:`DegenerateSuperposition`
    first, naming the first such pair in row-major order.  Every member
    is distinguished once, by one
    :func:`ctcsim.discrimination.distinguish_members`, and p1, p2 are
    rows m and n of its `labels`, the diagonals of the two CTC outputs:
    T_m p_m straight from its stacked solve for a certified member, with
    the residuals taken a few members at a time and no member settled on
    its own.

    The pairs are grouped by their first label m, in the order each m
    first appears.  For a group, one batched product forms B_j = sum_i
    p1_i |omega_ij><omega_ij| for all j, the density of each pair (m, n)
    is sum_j p2_j B_j, one product for the whole group, and one stacked
    :func:`pure_state_from_density` extracts the ancillas, so no array
    larger than N^3 is formed.  A :class:`PurityLoss` carries the second
    eigenvalue of the first mixed pair in the first group that has one,
    which for pairs in row-major order is the first mixed pair.

    Phase rule: each ancilla is multiplied by the phase that makes
    <omega_mn|ancilla> real and non-negative, and is left as ``eigh``
    returns it when that overlap is exactly 0.  The fidelity of each
    aligned ancilla to omega_mn is computed as one stacked product,
    clipped to [0, 1].
    """
    size = states.size
    for m, n in pairs:
        if any(isinstance(k, bool) or not isinstance(k, (int, np.integer))
               for k in (m, n)):
            raise DimensionError(f"block indices ({m!r}, {n!r}) must be integers")
        if not (0 <= m < size and 0 <= n < size):
            raise DimensionError(
                f"block indices ({m}, {n}) out of range for N={size}")
    pair_array = np.array(pairs, dtype=int).reshape(-1, 2)
    amps = states.amplitudes
    alpha, beta = unit_scaled(spec.alpha, spec.beta)
    targets = alpha * amps[:, None, :] + beta * amps[None, :, :]
    gammas = np.linalg.norm(targets, axis=2)
    # a diagonal target is the member itself, whatever the amplitudes
    np.fill_diagonal(gammas, 1.0)
    cancelling = np.argwhere(gammas < TOL_GAMMA)
    if len(cancelling):
        i, j = cancelling[0]
        raise DegenerateSuperposition(i, j, gammas[i, j])
    targets /= gammas[:, :, None]
    targets[np.arange(size), np.arange(size)] = amps
    bundle = build_distinguisher(states, rng_seed)
    members = distinguish_members(bundle)

    firsts, seconds = pair_array.T
    by_label = targets.transpose(1, 2, 0)
    adjoints = targets.transpose(1, 0, 2).conj()
    ancillas = np.empty((len(firsts), size), dtype=complex)
    for m in dict.fromkeys(firsts.tolist()):
        group = np.flatnonzero(firsts == m)
        blocks = (by_label * members.labels[m]) @ adjoints
        densities = (members.labels[seconds[group]]
                     @ blocks.reshape(size, size * size))
        ancillas[group] = pure_state_from_density(
            densities.reshape(-1, size, size))
    expected = targets[firsts, seconds]
    overlaps = (expected.conj() * ancillas).sum(axis=1)
    ancillas *= np.divide(overlaps.conj(), np.abs(overlaps),
                          out=np.ones_like(overlaps), where=overlaps != 0)[:, None]
    ancillas += 0.0  # a -0.0 part left by the phase prints as 0.0
    # a stacked vdot: an einsum or a row sum would round differently
    fidelity = np.abs((expected.conj()[:, None, :]
                       @ ancillas[:, :, None])[:, 0, 0]) ** 2
    return SweepResult(bundle, members, pair_array, ancillas, expected,
                       np.clip(fidelity, 0.0, 1.0))
