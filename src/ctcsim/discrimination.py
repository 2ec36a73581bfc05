"""Perfect discrimination of distinct states through a CTC interaction.

For N distinct (not necessarily orthogonal) states in N dimensions, a
SWAP followed by a controlled unitary

    total = ( sum_k |k><k| (x) U_k ) . SWAP

maps each set member onto its basis label on both outputs once the CTC
state settles on its unique fixed point.  The per-index unitaries must
satisfy two conditions: (1) U_k psi_k = |k>, and (2) every overlap
<j| U_k |psi_j> is nonzero, which is what makes the fixed point unique.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import deutsch
from .errors import Condition2Exhausted, DimensionError, InputNotInSetWarning
from .linalg import (
    DensityMatrix,
    StateSet,
    UnitaryMatrix,
    _as_vector,
    projector,
    state_fidelity,
    unitary_from_first_column,
)
from .sampling import haar_state

TOL_COND2 = 1e-6
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
    """A fully assembled discrimination circuit for one state set."""

    state_set: StateSet
    uks: tuple[UnitaryMatrix, ...]
    total: UnitaryMatrix
    condition2_min: float


@dataclass(frozen=True)
class DistinguishResult:
    """Outcome of one discrimination run."""

    rho_ctc: DensityMatrix
    rho_out: DensityMatrix
    decoded: int
    fidelity_to_basis: float
    residual: float
    unique: bool
    input_in_set: bool


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


def _index_swap_permutation(dim: int, k: int) -> np.ndarray:
    """Permutation matrix exchanging basis indices 0 and k."""
    p = np.eye(dim, dtype=complex)
    if k != 0:
        p[[0, k]] = p[[k, 0]]
    return p


def build_uk(states: StateSet, k: int, rng_seed: int = 0) -> UnitaryMatrix:
    """Construct U_k with U_k psi_k = |k> and all basis overlaps nonzero.

    The unitary V whose column k is psi_k is completed by Gram-Schmidt
    (standard basis on the first attempt, Haar-random candidate vectors
    from the seeded generator on retries) and U_k = V^dagger.  Condition
    (1) is then exact by construction; condition (2) holds generically,
    so failures are retried up to ``MAX_ATTEMPTS`` times before raising
    :class:`Condition2Exhausted`.
    """
    n = states.size
    if not 0 <= k < n:
        raise DimensionError(f"index {k} out of range for a set of {n} states")
    psi_k = states[k]
    perm = _index_swap_permutation(n, k)
    rng = np.random.default_rng(rng_seed)
    worst = np.inf
    for attempt in range(MAX_ATTEMPTS):
        if attempt == 0:
            candidates: list[np.ndarray] = []
        else:
            candidates = [haar_state(n, rng).amplitudes for _ in range(n)]
        w = unitary_from_first_column(psi_k, candidates)
        v = w.entries @ perm
        overlaps = [
            abs(np.vdot(v[:, j], states[j].amplitudes)) for j in range(n)
        ]
        worst = min(worst, min(overlaps))
        if min(overlaps) > TOL_COND2:
            return UnitaryMatrix(v.conj().T)
    raise Condition2Exhausted(
        f"no completion for index {k} reached overlap > {TOL_COND2} "
        f"in {MAX_ATTEMPTS} attempts (best worst-case overlap {worst:.3e})"
    )


def condition_report(states: StateSet, uks: Sequence) -> ConditionReport:
    """Measure both construction conditions for the given unitaries."""
    n = states.size
    mats = [np.asarray(u, dtype=complex) for u in uks]
    if len(mats) != n or any(m.shape != (n, n) for m in mats):
        raise DimensionError(f"expected {n} unitaries of dim {n}")
    overlaps = np.zeros((n, n))
    for j in range(n):
        for k in range(n):
            overlaps[j, k] = abs(mats[k][j] @ states[j].amplitudes)
    cond1 = np.array([
        np.linalg.norm(mats[k] @ states[k].amplitudes
                       - np.eye(n)[k]) for k in range(n)
    ])
    return ConditionReport(
        overlaps=overlaps,
        min_overlap=float(overlaps.min()),
        condition1_deviation=cond1,
    )


def bundle_from_unitaries(states: StateSet, uks: Sequence) -> DistinguisherBundle:
    """Assemble the SWAP-then-controlled circuit from given unitaries.

    No condition threshold is enforced here; the measured minimum
    overlap is recorded in the bundle for inspection.
    """
    report = condition_report(states, uks)
    total = controlled_stack(uks) @ swap_operator(states.size)
    return DistinguisherBundle(
        state_set=states,
        uks=tuple(
            u if isinstance(u, UnitaryMatrix) else UnitaryMatrix(np.asarray(u))
            for u in uks
        ),
        total=UnitaryMatrix(total),
        condition2_min=report.min_overlap,
    )


def build_distinguisher(states: StateSet, rng_seed: int = 0) -> DistinguisherBundle:
    """Construct per-index unitaries for every k and assemble the circuit."""
    uks = [build_uk(states, k, rng_seed) for k in range(states.size)]
    return bundle_from_unitaries(states, uks)


def distinguish(bundle: DistinguisherBundle, input_state) -> DistinguishResult:
    """Run one discrimination: solve the CTC fixed point and decode.

    The CR register is prepared in the input state, the fixed point of
    the bundle circuit is solved under the unique-solution policy, and
    the decoded label is the argmax of the basis-diagonal output
    probabilities.  Inputs outside the declared set are flagged with
    :class:`InputNotInSetWarning` but still computed.
    """
    vec = _as_vector(input_state)
    states = bundle.state_set
    if vec.size != states.size:
        raise DimensionError(
            f"input of dim {vec.size} does not match set dimension {states.size}"
        )
    in_set = any(
        state_fidelity(vec, s) >= 1.0 - _IN_SET_TOL for s in states
    )
    if not in_set:
        warnings.warn(
            "input state matches no member of the declared set; "
            "the decoded index is not meaningful",
            InputNotInSetWarning,
            stacklevel=2,
        )
    rho_cr = projector(vec)
    result = deutsch.fixed_point(bundle.total, rho_cr, policy="require_unique")
    rho_out = deutsch.output_state(bundle.total, rho_cr, result.fixed_point)
    probs = np.diag(rho_out.entries).real
    decoded = int(np.argmax(probs))
    return DistinguishResult(
        rho_ctc=result.fixed_point,
        rho_out=rho_out,
        decoded=decoded,
        fidelity_to_basis=float(probs[decoded]),
        residual=result.residual,
        unique=result.unique,
        input_in_set=in_set,
    )
