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
the ancilla in M = sum_{i,j} p1_i p2_j |omega_ij><omega_ij|, omega_ij
being U^{i,j}|0>.  Each omega_ij lies in span{psi_i, psi_j}, so
M = Psi C Psi^dagger, Psi's columns being the members and C an N x N
matrix of member coefficients.  :func:`run_sweep` reads the ancilla off
M without a per-pair loop and without forming M: the label distributions
p1, p2 are the T_m p_m of one stacked member solve, all N^2 targets come
from one broadcast, and two power steps in member coefficients, taken
for all pairs at once, give each pair's dominant eigenvector with a
residual certificate.  Only a pair whose certificate fails has its
density formed and passed to a stacked ``eigh``.  It returns one
:class:`SweepResult`, row k for the k-th requested pair.  Each ancilla
is in the phase that makes <omega_mn|ancilla> real and non-negative.
:func:`build_omega` is the per-pair form of the targets and
:func:`build_u_prime` the unitary-level reference.
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

# power steps c <- C G c per pair.  The start, the pair's target, sits an
# angle of order 1 - w off the dominant eigenvector, w = p1_m p2_n being
# its label weight, and each step scales that angle by lambda_2 / lambda_1,
# itself of order 1 - w, so two steps leave (1 - w)^3: below eps while
# 1 - w < 5e-6
_POWER_STEPS = 2

_EPS = np.finfo(float).eps


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
    and decoded labels.  `second_eig_bound` bounds the second eigenvalue
    of the pair's ancilla density, and `angle_bound` the sine of the
    angle between its ancilla and the density's dominant eigenvector; it
    is NaN for a pair whose ancilla came from the ``eigh`` fallback."""

    bundle: DistinguisherBundle
    members: MemberResults
    pairs: np.ndarray
    ancillas: np.ndarray
    expected: np.ndarray
    fidelity: np.ndarray
    second_eig_bound: np.ndarray
    angle_bound: np.ndarray


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


def _span_ancillas(amps: np.ndarray, p1: np.ndarray, p2: np.ndarray,
                   inv_gamma2: np.ndarray, alpha: complex, beta: complex,
                   start: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                               np.ndarray]:
    """Dominant eigenvectors of the P ancilla densities M = Psi C Psi^dagger
    in member coefficients, with one certificate a row.

    Psi's columns are the members, G = Psi^dagger Psi, and with
    W = diag(p1) Gamma diag(p2), Gamma = `inv_gamma2`,

        C = |alpha|^2 diag(W 1) + |beta|^2 diag(W^T 1) + alpha conj(beta) W
            + beta conj(alpha) W^T + diag(p1 p2).

    C is applied to all rows at once: one diagonal term and two products
    with the fixed Gamma, added in place, with one buffer for p2 x and
    then p1 x, so applying C holds its input and three P x N arrays.
    Each power step's input, and the certificate's overlaps, image and
    residual, are freed once used.  Each row starts
    from its target `start`, whose coefficients are alpha / gamma at m
    and beta / gamma at n (1 at m on the diagonal), and takes
    ``_POWER_STEPS`` steps c <- C G c.  They are carried on v = Psi c as
    v <- Psi (C (Psi^dagger v)), so they start from the target vector
    itself and need neither its coefficients nor G.  The certificate is
    taken on the returned unit v itself: with s = Psi^dagger v,
    rho = v^dagger M v = s^dagger C s and r = ||Psi C s - rho v||, and
    tr M = tr(C G) from G's diagonal alone, as every target off the
    diagonal has unit norm and a diagonal one carries its member's norm.
    M is positive semidefinite, so lambda_2 <= tr M - lambda_1 <=
    tr M - rho; then rho - lambda_2 >= 2 rho - tr M, and while that is
    positive Davis and Kahan (SIAM J. Numer. Anal. 7, 1970) give
    sin theta <= r / (2 rho - tr M) for the angle theta between v and
    the dominant eigenvector.

    Rounding allowances.  Each operation is taken to err by at most eps
    relatively (twice the unit roundoff, which covers the second-order
    terms and the extra rounding of complex products), and no quantity
    below passes through more than 6N + 8 such errors: N in each of the
    products with Psi^dagger, with Gamma (for C and for its diagonal),
    with Psi and in the final row sums, and a few scalings and sums.
    Let kappa = (6N + 8) eps.  With the absolute shadows h = |Psi|^T |v|,
    b = |C| h, |C| being the sum of the moduli of C's terms, and
    e = || |Psi| b ||, first-order error analysis (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, ch. 3) bounds

    - the computed M v by kappa e, and rho by kappa (h^T b + rho) <=
      d_rho = kappa (e + rho), as h^T b <= ||v|| e and rho's own term is
      the error of v's norm;
    - tr M by d_t = kappa p1^T S p2, where S holds each target's shadow
      norm || |alpha| |psi_i| + |beta| |psi_j| ||^2 / gamma_ij^2 off the
      diagonal and ||psi_i||^2 on it: rounding the target and gamma
      moves its unit norm relatively by at most (2N + 5) eps times that;
    - r by d_r = d_rho + kappa (e + rho + r), the first two terms from
      M v and rho v, the last from the norm.

    So lambda_2 <= tr M - rho + d_t + d_rho, the row's second eigenvalue
    bound, and sin theta <= (r + d_r) / (2 rho - tr M - 2 d_rho - d_t)
    + kappa, its angle bound, the last kappa for the phase applied
    afterwards.  The power steps' own rounding needs no allowance, as
    nothing is certified about them.  A row is certified when its second
    eigenvalue bound is at most ``_PURITY_SECOND_EIG``, its gap is
    positive and r is at most d_r: v is then an eigenvector of M up to
    the rounding of forming M v, which ``eigh`` of a formed M carries
    too, so the fallback could not place it better.  Only an uncertified
    row has its density formed, from the same C, and passed to
    :func:`pure_state_from_density`, which keeps the :class:`PurityLoss`
    verdict; its angle bound is NaN.

    Returns the unit ancillas, the second eigenvalue bounds and the
    angle bounds, row k for row k of `p1`, `p2` and `start`.
    """
    size = len(amps)
    kappa = (6 * size + 8) * _EPS
    ones = np.ones(size)
    cross = alpha * beta.conjugate()
    forward, backward = cross * inv_gamma2.T, cross.conjugate() * inv_gamma2
    both = p1 * p2
    diagonal = (abs(alpha) ** 2 * p1 * (p2 @ inv_gamma2.T)
                + abs(beta) ** 2 * p2 * (p1 @ inv_gamma2) + both)

    def apply_c(x):
        """diagonal x + p1 ((p2 x) forward) + p2 ((p1 x) backward) for
        every row x, summed in that order.  numpy casts a real factor to
        complex inside its loop, so each product rounds as with a complex
        copy of the factor."""
        scaled = p2 * x
        out = scaled @ forward
        out *= p1
        out += np.multiply(diagonal, x, out=scaled)
        term = np.multiply(p1, x, out=scaled) @ backward
        del scaled  # before the cast of p2 takes its own buffer
        term *= p2
        out += term
        return out

    def rows(x, y):
        """Re <x_k, y_k> for every row k."""
        product = x.conj()
        product *= y
        return product.real @ ones

    adjoint = amps.conj().T
    ancillas = start
    for _ in range(_POWER_STEPS):
        # rebinding frees the step's input before C is applied
        ancillas = ancillas @ adjoint
        ancillas = apply_c(ancillas) @ amps
    ancillas = ancillas / np.sqrt(rows(ancillas, ancillas))[:, None]
    overlaps = ancillas @ adjoint
    image = apply_c(overlaps)
    rho = rows(overlaps, image)
    del overlaps
    residual = image @ amps
    del image
    residual -= rho[:, None] * ancillas
    r = np.sqrt(rows(residual, residual))
    del residual
    moduli = np.abs(amps)
    shadow = moduli @ moduli.T
    norms2 = shadow.diagonal()
    trace = (p1 @ ones) * (p2 @ ones) + both @ (norms2 - 1.0)

    h = np.abs(ancillas) @ moduli.T
    b = diagonal * h + abs(cross) * (p1 * ((p2 * h) @ inv_gamma2.T)
                                     + p2 * ((p1 * h) @ inv_gamma2))
    e = np.linalg.norm(b @ moduli, axis=1)
    target_shadow = (abs(alpha) ** 2 * norms2[:, None] + abs(beta) ** 2 * norms2
                     + 2 * abs(cross) * shadow) * inv_gamma2
    d_rho = kappa * (e + rho)
    d_t = kappa * ((p2 @ target_shadow.T) * p1 + both * norms2) @ ones
    d_r = d_rho + kappa * (e + rho + r)
    second = trace - rho + d_t + d_rho
    gap = 2 * rho - trace - 2 * d_rho - d_t
    certified = (second <= _PURITY_SECOND_EIG) & (gap > 0) & (r <= d_r)
    angle = np.where(certified,
                     (r + d_r) / np.where(certified, gap, 1.0) + kappa, np.nan)
    if not certified.all():
        failed = np.flatnonzero(~certified)
        w = p1[failed, :, None] * inv_gamma2 * p2[failed, None, :]
        dense = cross * w + cross.conjugate() * w.swapaxes(1, 2)
        dense[:, np.arange(size), np.arange(size)] += diagonal[failed]
        ancillas[failed] = pure_state_from_density(amps.T @ dense @ amps.conj())
    return ancillas, second, angle


def run_sweep(states: StateSet, pairs: Sequence[tuple[int, int]],
              spec: SuperpositionSpec) -> SweepResult:
    """Superpose psi_m and psi_n on a fresh ancilla for each (m, n) in `pairs`.

    Every pair is checked before any work: one that is not two indices,
    or a bool, non-integer or out-of-range index, raises
    :class:`DimensionError`.  All N^2 targets are then formed in one
    broadcast before the one discrimination bundle, so a cancelling pair
    raises :class:`DegenerateSuperposition` first, naming the first such
    pair in row-major order.  The requested targets, `expected`, are
    taken then, and the N^3 array of all targets is dropped before the
    member solve.  Every member is distinguished once, by one
    :func:`ctcsim.discrimination.distinguish_members`, and p1, p2 are
    rows m and n of its `labels`, the diagonals of the two CTC outputs:
    T_m p_m straight from its stacked solve for a certified member, with
    the residuals taken a few members at a time and no member settled on
    its own.

    Each ancilla density sum_ij p1_i p2_j |omega_ij><omega_ij| lies in
    the span of the members, and :func:`_span_ancillas` finds its
    dominant eigenvector there for all pairs at once, by power steps in
    member coefficients from the pair's target, with a residual
    certificate per pair; only a pair that fails its certificate has its
    density formed and passed to :func:`pure_state_from_density`.  A
    :class:`PurityLoss` carries the second eigenvalue of the first mixed
    pair in the order of `pairs`.

    Phase rule: each ancilla is multiplied by the phase that makes
    <omega_mn|ancilla> real and non-negative, and is left as extracted
    when that overlap is exactly 0.  The fidelity of each aligned ancilla
    to omega_mn is computed as one stacked product, clipped to [0, 1];
    the conjugate targets are formed once, for the overlaps and the
    fidelity.
    """
    size = states.size
    for pair in pairs:
        try:
            m, n = pair
        except (TypeError, ValueError):
            raise DimensionError(
                f"pair {pair!r} is not two block indices") from None
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
    firsts, seconds = pair_array.T
    expected = targets[firsts, seconds]
    del targets
    bundle = build_distinguisher(states)
    members = distinguish_members(bundle)

    inv_gamma2 = gammas ** -2.0
    np.fill_diagonal(inv_gamma2, 0.0)
    ancillas, second, angle = _span_ancillas(
        amps, members.labels[firsts], members.labels[seconds], inv_gamma2,
        alpha, beta, expected)
    bra = expected.conj()
    overlaps = (bra * ancillas).sum(axis=1)
    ancillas *= np.divide(overlaps.conj(), np.abs(overlaps),
                          out=np.ones_like(overlaps), where=overlaps != 0)[:, None]
    ancillas += 0.0  # a -0.0 part left by the phase prints as 0.0
    # a stacked vdot: an einsum or a row sum would round differently
    fidelity = np.abs((bra[:, None, :] @ ancillas[:, :, None])[:, 0, 0]) ** 2
    return SweepResult(bundle, members, pair_array, ancillas, expected,
                       np.clip(fidelity, 0.0, 1.0), second, angle)
