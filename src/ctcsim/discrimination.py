"""Perfect discrimination of distinct states through a CTC interaction.

For N distinct (not necessarily orthogonal) states in N dimensions, a
SWAP followed by a controlled unitary

    total = ( sum_k |k><k| (x) U_k ) . SWAP

maps each set member onto its basis label on both outputs once the CTC
state settles on its unique fixed point.  The per-index unitaries must
satisfy two conditions: (1) U_k psi_k = |k>, and (2) every overlap
<j| U_k |psi_j> is nonzero, which is what makes the fixed point unique.

The U_k are held as one read-only (N, N, N) stack, U_k = uks[k].  For a
pure input psi, write phi_k = U_k psi and Phi = [phi_0 ... phi_{N-1}],
one product of the stack with psi.
The circuit's self-consistency map is sigma -> sum_k sigma_kk phi_k phi_k^dagger:
it reads only diag(sigma), so the CTC state is fixed by a distribution p
over the N labels.  Its diagonal closes on itself exactly when p = T p for
the column-stochastic label chain T[j, k] = |<j|phi_k>|^2 (the
Brun-Harrington-Wilde mechanism, PRL 102, 210402, 2009).  Every fixed
point, density matrix or not, is determined by its diagonal, so the
fixed space of the map has the dimension of the null space of T - I, and
the fixed point is unique exactly when that null space is one-dimensional.
:func:`distinguish` solves this N x N chain; the generic solver
:func:`ctcsim.deutsch.fixed_point` on the N^2 x N^2 circuit
:attr:`DistinguisherBundle.total` is its test oracle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import deutsch
from .errors import (Condition2Exhausted, DimensionError, InputNotInSetWarning,
                     NoFixedPointNumerical, NonUniqueFixedPoint)
from .linalg import (
    TOL_PSD,
    DensityMatrix,
    StateSet,
    UnitaryMatrix,
    _as_vector,
    condition2_room,
    condition2_threshold,
    unitary_from_first_column,
)
from .sampling import haar_state

MAX_ATTEMPTS = 64

_IN_SET_TOL = 1e-8


@dataclass(frozen=True)
class ConditionReport:
    """Measured construction conditions for a list of per-index unitaries.

    `overlaps[j, k] = |<j| U_k |psi_j>|`; `condition1_deviation[k]` is
    the Euclidean distance of U_k psi_k from the basis vector |k>.
    """

    overlaps: np.ndarray
    min_overlap: float
    condition1_deviation: np.ndarray


@dataclass(frozen=True)
class DistinguisherBundle:
    """The per-index unitaries of a discrimination circuit for one state set.

    `uks` is one read-only (N, N, N) array whose row k is U_k.
    `condition` holds both construction conditions measured on it.
    The N^2 x N^2 circuit :attr:`total` is assembled on first access only;
    :func:`distinguish` never needs it.
    """

    state_set: StateSet
    uks: np.ndarray
    condition: ConditionReport

    @property
    def condition2_min(self) -> float:
        return self.condition.min_overlap

    @cached_property
    def total(self) -> UnitaryMatrix:
        """The circuit ( sum_k |k><k| (x) U_k ) . SWAP, CR register first."""
        return UnitaryMatrix(
            controlled_stack(self.uks) @ swap_operator(self.state_set.size))


@dataclass(frozen=True)
class DistinguishResult:
    """Outcome of one discrimination run.

    `chain_gap` is the smallest singular value of T - I above
    ``deutsch.SVD_CUTOFF``: how far the uniqueness verdict sits from the
    cutoff (inf when every singular value is null, as for N = 1).
    """

    rho_ctc: DensityMatrix
    rho_out: DensityMatrix
    decoded: int
    fidelity_to_basis: float
    residual: float
    input_in_set: bool
    chain_gap: float


def swap_operator(dim: int) -> np.ndarray:
    """SWAP on two registers of equal dimension (first factor slow)."""
    eye = np.eye(dim * dim, dtype=complex).reshape(dim, dim, dim, dim)
    return eye.transpose(0, 1, 3, 2).reshape(dim * dim, dim * dim)


def controlled_stack(uks: Sequence) -> np.ndarray:
    """Block-diagonal sum_k |k><k| (x) U_k with the control register first."""
    mats = [np.asarray(u, dtype=complex) for u in uks]
    n = len(mats)
    d = mats[0].shape[0]
    if any(m.shape != (d, d) for m in mats):
        raise DimensionError("all controlled blocks must share one dimension")
    out = np.zeros((n * d, n * d), dtype=complex)
    for k, m in enumerate(mats):
        out[k * d:(k + 1) * d, k * d:(k + 1) * d] = m
    return out


def build_uk(states: StateSet, k: int, rng_seed: int = 0) -> UnitaryMatrix:
    """Construct U_k with U_k psi_k = |k> and all basis overlaps nonzero.

    psi_k is completed to a unitary by Gram-Schmidt (standard basis on
    the first attempt, Haar-random candidate vectors from the seeded
    generator on retries), whose columns 0 and k are exchanged to give
    V with column k psi_k, and U_k = V^dagger.  Condition
    (1) is then exact by construction.  Condition (2) is enforced as
    every overlap^2 above :func:`ctcsim.linalg.condition2_threshold`.
    It holds generically, so failures are retried up to ``MAX_ATTEMPTS``
    times before raising :class:`Condition2Exhausted`.
    """
    n = states.size
    if not 0 <= k < n:
        raise DimensionError(f"index {k} out of range for a set of {n} states")
    amps = states.amplitudes
    threshold = condition2_threshold(n)
    order = list(range(n))
    order[0], order[k] = k, 0
    rng = np.random.default_rng(rng_seed)
    worst = np.inf
    for attempt in range(MAX_ATTEMPTS):
        if attempt == 0:
            candidates: list[np.ndarray] = []
        else:
            candidates = [haar_state(n, rng).amplitudes for _ in range(n)]
        w = unitary_from_first_column(amps[k], candidates)
        u = w.entries[:, order].conj().T
        q = np.abs(np.einsum("jc,jc->j", u, amps)).min() ** 2
        worst = min(worst, q)
        if q > threshold:
            return UnitaryMatrix(u)
    raise Condition2Exhausted(
        f"no completion for index {k} reached overlap^2 > {threshold:.3e} "
        f"in {MAX_ATTEMPTS} attempts (best worst-case overlap^2 {worst:.3e})"
    )


def condition_report(states: StateSet, uks: Sequence) -> ConditionReport:
    """Measure both construction conditions for the given unitaries."""
    n = states.size
    try:
        mats = np.asarray(uks, dtype=complex)
    except ValueError:  # unitaries of unequal shapes
        mats = None
    if mats is None or mats.shape != (n, n, n):
        raise DimensionError(f"expected {n} unitaries of dim {n}")
    amps = states.amplitudes
    overlaps = np.abs(np.einsum("kjc,jc->jk", mats, amps))
    cond1 = np.linalg.norm(
        np.einsum("kjc,kc->kj", mats, amps) - np.eye(n), axis=1)
    return ConditionReport(
        overlaps=overlaps,
        min_overlap=float(overlaps.min()),
        condition1_deviation=cond1,
    )


def bundle_from_unitaries(states: StateSet, uks: Sequence) -> DistinguisherBundle:
    """Bundle the given unitaries with their measured construction conditions.

    No condition threshold is enforced here; the measured overlaps are
    recorded in the bundle for inspection.
    """
    condition = condition_report(states, uks)
    stack = np.array(uks, dtype=complex)
    stack.setflags(write=False)
    return DistinguisherBundle(state_set=states, uks=stack, condition=condition)


def build_distinguisher(states: StateSet, rng_seed: int = 0) -> DistinguisherBundle:
    """Construct per-index unitaries for every k and bundle them.

    The first k whose least room (:func:`ctcsim.linalg.condition2_room`)
    falls short raises :class:`Condition2Exhausted` before any completion.
    The bundle holds both measured construction conditions; its circuit
    :attr:`DistinguisherBundle.total` is assembled only when it is read.
    """
    room, least = condition2_room(states)
    k = int(np.argmax(room.min(axis=0) < least))
    j = int(np.argmin(room[:, k]))
    if room[j, k] < least:
        infidelity = room[j, k] / np.linalg.norm(states.amplitudes[j]) ** 2
        raise Condition2Exhausted(
            f"members {j} and {k} have 1 - F = {infidelity:.3e}, which keeps "
            f"overlap^2 of U_{k} from exceeding {condition2_threshold(len(room)):.3e}")
    uks = [build_uk(states, k, rng_seed).entries for k in range(states.size)]
    return bundle_from_unitaries(states, uks)


def distinguish(bundle: DistinguisherBundle, input_state) -> DistinguishResult:
    """Run one discrimination: solve the CTC fixed point and decode.

    The CR register is prepared in the input state psi.  With
    Phi = [U_0 psi ... U_{N-1} psi], the stationary distribution p of the
    label chain T = |Phi|^2 (elementwise) gives the CTC state
    sigma = Phi diag(p) Phi^dagger and the CR output
    sigma o (Phi^dagger Phi)^T (elementwise product), whose diagonal is
    diag(sigma).  p spans the null space of T - I, taken by SVD with cutoff
    ``deutsch.SVD_CUTOFF``: a null space of more than one dimension raises
    :class:`NonUniqueFixedPoint`, none at all, a negative weight below
    -(``TOL_PSD`` + N eps / gap), gap the chain gap, or a residual above
    ``deutsch.TOL_FIX`` raises :class:`NoFixedPointNumerical`.  The decoded
    label is the argmax of the output's diagonal.  Inputs outside the
    declared set are flagged with :class:`InputNotInSetWarning` but still
    computed.
    """
    vec = _as_vector(input_state)
    states = bundle.state_set
    if vec.size != states.size:
        raise DimensionError(
            f"input of dim {vec.size} does not match set dimension {states.size}"
        )
    fids = np.abs(states.amplitudes.conj() @ vec) ** 2
    in_set = bool((fids >= 1.0 - _IN_SET_TOL).any())
    if not in_set:
        warnings.warn(
            "input state matches no member of the declared set; "
            "the decoded index is not meaningful",
            InputNotInSetWarning,
            stacklevel=2,
        )
    phi = (bundle.uks @ vec).T
    chain = np.abs(phi) ** 2
    _, svals, vh, null_mask = deutsch.null_space(
        chain, "T", "stationary label distribution")
    null_dim = int(null_mask.sum())
    if null_dim > 1:
        raise NonUniqueFixedPoint(null_dim)
    kept = svals[~null_mask]
    chain_gap = float(kept.min()) if kept.size else float("inf")
    p = vh[null_mask][0]
    p = p / p.sum()
    # the null vector carries rounding of about N eps / gap
    weight_tol = TOL_PSD + states.size * np.finfo(float).eps / chain_gap
    if p.min() < -weight_tol:
        raise NoFixedPointNumerical(
            f"candidate fixed point has negative label weight {p.min():.3e} "
            f"< -{weight_tol:.3e}"
        )
    sigma = (phi * p) @ phi.conj().T
    mapped = (phi * np.diag(sigma).real) @ phi.conj().T
    residual = float(np.abs(sigma - mapped).max())
    if residual > deutsch.TOL_FIX:
        raise NoFixedPointNumerical(
            f"candidate fixed point has residual {residual:.3e} > {deutsch.TOL_FIX}"
        )
    rho_out = sigma * (phi.conj().T @ phi).T
    probs = np.diag(rho_out).real
    decoded = int(np.argmax(probs))
    return DistinguishResult(
        rho_ctc=DensityMatrix(sigma),
        rho_out=DensityMatrix(rho_out),
        decoded=decoded,
        fidelity_to_basis=float(probs[decoded]),
        residual=residual,
        input_in_set=in_set,
        chain_gap=chain_gap,
    )
