"""Perfect discrimination of distinct states through a CTC interaction.

For N distinct (not necessarily orthogonal) states in N dimensions, a
SWAP followed by a controlled unitary

    total = ( sum_k |k><k| (x) U_k ) . SWAP

maps each set member onto its basis label on both outputs once the CTC
state settles on its unique fixed point.  The per-index unitaries must
satisfy two conditions: (1) U_k psi_k = |k>, and (2) every overlap
<j| U_k |psi_j> is nonzero, which is what makes the fixed point unique.

A :class:`DistinguisherBundle` holds the U_k as its own read-only
(N, N, N) stack, U_k = uks[k], and measures both conditions on that
stack, so it cannot carry conditions of other unitaries;
:func:`build_distinguisher` hands it the stack it built, frozen, with no
copy.  On
the first attempt each U_k is the adjoint of a Gram-Schmidt completion of
psi_k by the standard basis, which has a closed form in the suffix sums
s_i = sum_{l >= i} |psi_k[l]|^2, so :func:`build_distinguisher` builds all
N of them from one outer product.  The per-k :func:`build_uk` runs only
where that form does not hold (Gram-Schmidt would skip a basis vector, as
for psi_k = |0>) or misses condition (2), met then by a weighted polar
factor; it is also the form's test oracle.
For a pure input psi, write phi_k = U_k psi and Phi = [phi_0 ... phi_{N-1}],
one product of the stack with psi.
The circuit's self-consistency map is sigma -> sum_k sigma_kk phi_k phi_k^dagger:
it reads only diag(sigma), so the CTC state is fixed by a distribution p
over the N labels.  Its diagonal closes on itself exactly when p = T p for
the column-stochastic label chain T[j, k] = |<j|phi_k>|^2 (the
Brun-Harrington-Wilde mechanism, PRL 102, 210402, 2009).  Every fixed
point, density matrix or not, is determined by its diagonal, so the
fixed space of the map has the dimension of the null space of T - I, and
the fixed point is unique exactly when that null space is one-dimensional.
:func:`distinguish` solves this N x N chain by SVD for any input; the
generic solver :func:`ctcsim.deutsch.fixed_point` on the N^2 x N^2 circuit
:attr:`DistinguisherBundle.total` is its test oracle.  For the set members
themselves the conditions settle uniqueness: condition (2) bounds row m of
member m's chain below by eps_m > 0 (Doeblin's minorization), so
:func:`distinguish_members` takes every member's p from one stacked
linear solve and certifies it with a bound on |p - e_m|_1.  The same pass
gives a certified member's labels T_m p and, from Phi_m formed a few
members at a time, its residual, so no member is settled on its own; a
member without that certificate takes the SVD path, which is its oracle.
A discrimination of the whole set thus holds the (N, N, N) complex stack
once and the chains in one real N^3 array.
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
    TOL_GS,
    TOL_NORM,
    TOL_PSD,
    DensityMatrix,
    StateSet,
    UnitaryMatrix,
    _as_vector,
    condition2_room,
    condition2_threshold,
    unitary_from_first_column,
)

_IN_SET_TOL = 1e-8

_EPS = np.finfo(float).eps

# members whose Phi_m are formed at once for the residual; the member
# solve's working arrays are freed by then, but three a chunk would set a
# new peak at N = 12 and four at N = 16
_CHUNK = 2
# complex entries of each product that is squared into the chains (at
# least one U_k's): two products at N = 12 and four at N = 16; twice as
# many entries would raise the peak of a distinguish at N = 16 by 7 %
_CHAIN_ENTRIES = 1024


@dataclass(frozen=True, eq=False)
class DistinguisherBundle:
    """The per-index unitaries of a discrimination circuit for one state set.

    `uks` is one read-only (N, N, N) stack whose row k is U_k: a copy of
    the given unitaries, which stay the caller's, or, in a bundle from
    :func:`build_distinguisher`, the stack it built, frozen and held with
    no copy.  Both construction conditions are measured on it when first
    read: `overlaps[j, k] = |<j| U_k |psi_j>|`, their least value
    `condition2_min`, and `condition1_deviation[k]`, the Euclidean
    distance of U_k psi_k from |k>.  No condition threshold is enforced
    here.  The N^2 x N^2 circuit :attr:`total` is assembled on first
    access only; :func:`distinguish` never needs it.
    """

    state_set: StateSet
    uks: np.ndarray

    def __post_init__(self):
        n = self.state_set.size
        try:
            stack = np.array(self.uks, dtype=complex)
        except ValueError:  # unitaries of unequal shapes
            stack = None
        if stack is None or stack.shape != (n, n, n):
            raise DimensionError(f"expected {n} unitaries of dim {n}")
        stack.setflags(write=False)
        object.__setattr__(self, "uks", stack)

    @classmethod
    def _adopt(cls, state_set: StateSet, stack: np.ndarray,
               overlaps: np.ndarray | None = None) -> DistinguisherBundle:
        """The bundle of `stack`, an (N, N, N) complex array made for it:
        frozen and held as it is, and `overlaps`, if given, taken as
        measured on it."""
        stack.setflags(write=False)
        bundle = cls.__new__(cls)
        object.__setattr__(bundle, "state_set", state_set)
        object.__setattr__(bundle, "uks", stack)
        if overlaps is not None:
            # where the cached property keeps its value
            bundle.__dict__["overlaps"] = overlaps
        return bundle

    @cached_property
    def overlaps(self) -> np.ndarray:
        return _overlaps(self.uks, self.state_set.amplitudes)

    @cached_property
    def condition2_min(self) -> float:
        return float(self.overlaps.min())

    @cached_property
    def condition1_deviation(self) -> np.ndarray:
        amps = self.state_set.amplitudes
        return np.linalg.norm(
            (self.uks @ amps[:, :, None])[..., 0] - np.eye(len(amps)), axis=1)

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


@dataclass(frozen=True, eq=False)
class MemberResults:
    """Outcome of :func:`distinguish_members`, row m for member m.

    `labels[m]` is the diagonal of member m's CR output, its label
    distribution: T_m p_m from the stacked solve for a certified member,
    from the SVD path's output otherwise; `decoded` its argmax and
    `fidelity_to_basis` the probability there.  `residual[m]` is the
    largest entry of sigma - map(sigma).  `minorization` is eps_m = min_k
    |<m|U_k|psi_m>|^2, `label_shift` the distance |p - e_m|_1 of the
    label distribution from the member's own label and `bound` its
    Doeblin bound, inf for a member that took the SVD path.
    """

    labels: np.ndarray
    decoded: np.ndarray
    fidelity_to_basis: np.ndarray
    residual: np.ndarray
    minorization: np.ndarray
    label_shift: np.ndarray
    bound: np.ndarray

    @property
    def certified(self) -> np.ndarray:
        """eps_m > 0 and the label distribution within its finite bound:
        the fixed point is unique and its label is the member's own."""
        return ((self.minorization > 0) & (self.label_shift <= self.bound)
                & (self.bound < np.inf))


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


def build_uk(states: StateSet, k: int) -> UnitaryMatrix:
    """Construct U_k with U_k psi_k = |k> and all basis overlaps nonzero.

    psi_k is completed by Gram-Schmidt with the standard basis to a
    unitary W, whose columns 0 and k are exchanged to give V with column k
    psi_k; U_k = V^dagger meets condition (1) exactly.  Condition (2) is
    every overlap^2 above the least room of
    :func:`ctcsim.linalg.condition2_room`, the bar ``validate`` sets.
    Where the completion misses it, rows j != k become the weighted polar
    factor (Q X Y^dagger)^dagger: Q is W's columns 1 ... N-1, r_j =
    Q^dagger psi_j, D = diag(1 / |r_j|^2) and X S Y^dagger = svd(R D).
    Its w_j maximise sum_j Re <w_j|r_j> / |r_j|^2 (Schoenemann,
    Psychometrika 31, 1966; Higham, Functions of Matrices, 2008, ch. 8),
    and <j|U_k|psi_j> = <w_j|r_j>.  Where they miss it too, or some r_j
    is zero, :class:`Condition2Exhausted` is raised.
    """
    n = states.size
    if not 0 <= k < n:
        raise DimensionError(f"index {k} out of range for a set of {n} states")
    amps = states.amplitudes
    _, least = condition2_room(states)
    order = list(range(n))
    order[0], order[k] = k, 0
    w = unitary_from_first_column(amps[k]).entries
    u = w[:, order].conj().T
    reached = np.abs(np.einsum("jc,jc->j", u, amps)).min() ** 2
    others = np.arange(n) != k
    r = w[:, 1:].conj().T @ amps[others].T
    room = np.linalg.norm(r, axis=0) ** 2
    if reached <= least and room.min() > 0:
        x, _, yh = np.linalg.svd(r / room)
        u[others] = (w[:, 1:] @ x @ yh).conj().T
        reached = np.abs(np.einsum("jc,jc->j", u, amps)).min() ** 2
    if reached > least:
        return UnitaryMatrix(u)
    raise Condition2Exhausted(
        f"no completion for index {k} reached overlap^2 > {least:.3e} "
        f"(least overlap^2 {reached:.3e})"
    )


def _first_completions(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every first-attempt U_k in closed form, and where the form holds.

    Gram-Schmidt of e_0 ... e_{N-2} after psi = c, with suffix sums
    s_i = sum_{l >= i} |c_l|^2, gives column i + 1 of W as
    (e_i - [l >= i] c conj(c_i) / s_i) sqrt(s_i / s_{i+1}): entry i is
    sqrt(s_{i+1} / s_i), entry l > i is -c_l conj(c_i) / sqrt(s_i s_{i+1}).
    Row r of U_k = V^dagger, V being W with columns 0 and k exchanged, is
    the conjugate of column r of W, so one outer product of
    [1, -c_0 / sqrt(s_0 s_1), ...] with conj(c) fills the upper triangle of
    every U_k (rows 0 and k exchanged) and the subdiagonal is set apart.
    The form holds for k unless psi_k is off unit norm by over
    ``TOL_NORM / 2`` or some s_{i+1} < (2 ``TOL_GS``)^2 s_i, a factor 2 in
    from where the loop would raise or skip a vector; there the returned
    U_k is zero.
    """
    n = len(amps)
    s = np.cumsum((np.abs(amps) ** 2)[:, ::-1], axis=1)[:, ::-1]
    served = ((s[:, 1:] >= (2 * TOL_GS) ** 2 * s[:, :-1]).all(axis=1)
              & (np.abs(np.sqrt(s[:, 0]) - 1) <= TOL_NORM / 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.ones((n, n), dtype=complex)
        coef[:, 1:] = -amps[:, :-1] / np.sqrt(s[:, :-1] * s[:, 1:])
        uks = np.matmul(coef[:, :, None], amps.conj()[:, None, :])
        uks[:, np.tri(n, n, -1, dtype=bool)] = 0
        sub = np.arange(1, n)
        uks[:, sub, sub - 1] = np.sqrt(s[:, 1:] / s[:, :-1])
    uks[~served] = 0
    ks = np.arange(n)
    row0 = uks[:, 0].copy()
    uks[:, 0] = uks[ks, ks]
    uks[ks, ks] = row0
    return uks, served


def _overlaps(uks: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """overlaps[j, k] = |<j| U_k |psi_j>| of the stack `uks`."""
    return np.abs(np.einsum("kjc,jc->jk", uks, amps))


def build_distinguisher(states: StateSet) -> DistinguisherBundle:
    """Construct per-index unitaries for every k and bundle them.

    The first k whose least room (:func:`ctcsim.linalg.condition2_room`)
    falls short raises :class:`Condition2Exhausted` before any completion.
    Every first attempt is built at once in closed form
    (:func:`_first_completions`); a k the form does not serve, or whose
    completion misses condition (2), is built by :func:`build_uk` into
    the same stack, which the bundle then holds with no copy.  The
    overlaps measured on the first completions decide condition (2), and
    in the common case, every k served, the bundle keeps them, so they
    are measured once; its circuit :attr:`DistinguisherBundle.total` is
    assembled only when it is read.
    """
    room, least = condition2_room(states)
    k = int(np.argmax(room.min(axis=0) < least))
    j = int(np.argmin(room[:, k]))
    if room[j, k] < least:
        infidelity = room[j, k] / np.linalg.norm(states.amplitudes[j]) ** 2
        raise Condition2Exhausted(
            f"members {j} and {k} have 1 - F = {infidelity:.3e}, which keeps "
            f"overlap^2 of U_{k} from exceeding {condition2_threshold(len(room)):.3e}")
    uks, served = _first_completions(states.amplitudes)
    overlaps = _overlaps(uks, states.amplitudes)
    served &= overlaps.min(axis=0) ** 2 > least
    if served.all():
        return DistinguisherBundle._adopt(states, uks, overlaps)
    for k in np.flatnonzero(~served):
        uks[k] = build_uk(states, int(k)).entries
    return DistinguisherBundle._adopt(states, uks)


def _svd_labels(chain: np.ndarray) -> tuple[np.ndarray, float]:
    """Stationary label distribution of the chain by SVD, and the chain gap."""
    _, svals, vh, null_mask = deutsch.null_space(
        chain, "T", "stationary label distribution")
    null_dim = int(null_mask.sum())
    if null_dim > 1:
        raise NonUniqueFixedPoint(null_dim)
    kept = svals[~null_mask]
    chain_gap = float(kept.min()) if kept.size else float("inf")
    p = vh[null_mask][0]
    return p / p.sum(), chain_gap


def _weight_error(least: float, tol: float) -> NoFixedPointNumerical:
    return NoFixedPointNumerical(
        f"candidate fixed point has negative label weight {least:.3e} "
        f"< -{tol:.3e}"
    )


def _residual_error(residual: float) -> NoFixedPointNumerical:
    return NoFixedPointNumerical(
        f"candidate fixed point has residual {residual:.3e} > {deutsch.TOL_FIX}"
    )


def _settle(phi: np.ndarray, p: np.ndarray, weight_tol: float):
    """CTC state, CR output, decoded label, its probability and the
    residual for the label distribution p, in the field order of
    :class:`DistinguishResult`; raises on a weight below -`weight_tol` or a
    residual above ``deutsch.TOL_FIX``."""
    if p.min() < -weight_tol:
        raise _weight_error(p.min(), weight_tol)
    phi_h = phi.conj().T
    sigma = (phi * p) @ phi_h
    mapped = (phi * sigma.diagonal().real) @ phi_h
    residual = float(np.abs(sigma - mapped).max())
    if residual > deutsch.TOL_FIX:
        raise _residual_error(residual)
    rho_out = sigma * (phi_h @ phi).T
    probs = rho_out.diagonal().real
    decoded = int(np.argmax(probs))
    return (DensityMatrix(sigma), DensityMatrix(rho_out), decoded,
            float(probs[decoded]), residual)


def _settle_by_svd(phi: np.ndarray):
    """The label distribution by :func:`_svd_labels`, the chain gap and
    :func:`_settle` on them."""
    p, chain_gap = _svd_labels(np.abs(phi) ** 2)
    # the SVD's p can sit ~20 times N eps / gap from e_m (up to ~91 eps on
    # Haar sets at gap ~1); TOL_PSD, not this term, covers that rounding
    weight_tol = TOL_PSD + len(p) * _EPS / chain_gap
    return p, chain_gap, _settle(phi, p, weight_tol)


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
    ``deutsch.TOL_FIX`` raises :class:`NoFixedPointNumerical`.  N eps / gap
    does not bound the SVD's rounding: on Haar sets its p lies up to ~91
    eps from e_m with a gap near 1, about 20 times that term, and
    ``TOL_PSD`` is what covers it.  The decoded label is the argmax of the
    output's diagonal.  Inputs outside the declared set are flagged with
    :class:`InputNotInSetWarning` but still computed.  Set members are
    served all at once by :func:`distinguish_members`, which this function
    is the oracle of.
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
    _, chain_gap, settled = _settle_by_svd((bundle.uks @ vec).T)
    return DistinguishResult(*settled, input_in_set=in_set, chain_gap=chain_gap)


def _member_chains(uks: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """Every member's label chain, t[k, j, m] = T_m[j, k] =
    |<j|U_k|psi_m>|^2, as re^2 + im^2 of the products of the stack `uks`
    with the set `amps`: a few U_k at a time, each product in one complex
    buffer of at most ``_CHAIN_ENTRIES`` entries (or one U_k's), so the
    chains take one real N^3 array and no N^3 complex product exists."""
    n = len(amps)
    t = np.empty((n, n, n))
    rows, chains = uks.reshape(n * n, n), t.reshape(n * n, n)
    step = n * max(1, _CHAIN_ENTRIES // (n * n))
    product = np.empty((min(step, n * n), n), dtype=complex)
    parts = product.view(float)
    for lo in range(0, n * n, step):
        size = min(step, n * n - lo)
        np.matmul(rows[lo:lo + size], amps.T, out=product[:size])
        np.square(parts[:size], out=parts[:size])
        np.add(parts[:size, 0::2], parts[:size, 1::2], out=chains[lo:lo + size])
    return t


def distinguish_members(bundle: DistinguisherBundle) -> MemberResults:
    """Discriminate every set member, certifying each label by minorization.

    For member m, with T_m[j, k] = |<j|U_k|psi_m>|^2, condition (1) makes
    column m of T_m nearly e_m and condition (2) bounds row m below by
    eps_m = min_k T_m[m, k] > 0: Doeblin's minorization condition, under
    which T_m contracts zero-sum vectors by 1 - eps_m in the 1-norm.  So
    the stationary distribution p is unique, and for column sums within
    delta_m of 1 (their rounding),

        |p - e_m|_1 <= (|T_m e_m - e_m|_1 + |T_m p - p|_1 + |1 - sum p|)
                       / (eps_m - delta_m),

    which `bound` states with N eps of rounding allowed for in each sum.

    The chains of all members are written straight into one real N^3
    array by :func:`_member_chains`, which multiplies a few U_k of the
    stack at a time with the set and squares each product in one small
    buffer, so the pass holds no N^3 complex array beside the stack.
    Every p comes from one stacked bordered solve, set up in place on the
    chains: row 0 of T_m - I replaced by ones, right-hand side e_0.  Its
    residual |T_m p - p|_1 is the column-sum rounding sum_k (c_k - 1) p_k
    of the replaced row plus the solve's own rounding.  A member whose
    eps_m does not exceed 2 delta_m + N eps (the bordered system may then
    be singular), or whose p misses its bound, has no certificate and
    takes the SVD path of :func:`distinguish` instead, with its
    exceptions.

    The bound is measured on the p the solve returned, so an error in p
    raises the bound with it: a minorized member with a bad p keeps its
    certificate, and the residual check raises
    :class:`NoFixedPointNumerical` rather than the SVD path taking over.

    A certified member is settled by the same stacked pass, with no
    per-member settle: the solve's check T_m p - p, row 0 from the
    replaced row, gives its labels diag(rho_out) = diag(sigma) = T_m p,
    and its residual is the largest entry of sigma - map(sigma) =
    -Phi_m diag(T_m p - p) Phi_m^dagger.  Those Phi_m are formed from the
    stack for two members at a time, after the solve's arrays are freed,
    so the residuals add no N^3 array of their own.  Negative label
    weights are checked against -(``TOL_PSD`` + N eps / eps_m), residuals
    against ``deutsch.TOL_FIX``, as in :func:`distinguish`, for all
    members at once.  Members without a certificate then take the SVD
    path, and the first member in member order that fails a check, or
    whose SVD path raises, is the one that raises.
    """
    states = bundle.state_set
    n = states.size
    # t[k, j, m] = T_m[j, k]
    t = _member_chains(bundle.uks, states.amplitudes)
    ks = np.arange(n)
    minorization = t[:, ks, ks].min(axis=0)
    column = t[ks, :, ks]
    column[ks, ks] -= 1
    column_miss = np.abs(column, out=column).sum(axis=1)
    drift = np.abs(t.sum(axis=1) - 1).max(axis=0)
    row0 = t[:, 0, :].copy()
    row0[0] -= 1
    minorized = minorization > 2 * drift + n * _EPS
    # the bordered systems, in place; a member without a certificate
    # solves the identity instead
    t[ks, ks] -= 1
    t[:, 0] = 1
    for m in np.flatnonzero(~minorized):
        t[:, :, m] = np.eye(n)
    bordered = t.transpose(2, 1, 0)
    e0 = np.zeros((n, 1))
    e0[0] = 1
    p = np.linalg.solve(bordered, e0)[..., 0]
    p /= p.sum(axis=1, keepdims=True)
    moved = np.matmul(bordered, p[..., None])[..., 0]
    moved[:, 0] = np.einsum("km,mk->m", row0, p)
    del t, bordered
    solve_miss = np.abs(moved).sum(axis=1)
    shift = np.abs(p - np.eye(n)).sum(axis=1)
    # what rounding may hide in the sums, the residual and the shift
    hidden = n * _EPS * (1 + column_miss + solve_miss + 2 * shift)
    bound = np.full(n, np.inf)
    np.divide(column_miss + solve_miss + np.abs(1 - p.sum(axis=1)) + hidden,
              minorization - drift - n * _EPS, out=bound, where=minorized)
    certified = (shift <= bound) & (bound < np.inf)
    # diag(rho_out) = diag(sigma) = T_m p_m
    labels = p + moved
    weight_tol = np.full(n, np.inf)
    np.divide(n * _EPS, minorization, out=weight_tol, where=certified)
    weight_tol += TOL_PSD
    negative = certified & (p.min(axis=1) < -weight_tol)
    # sigma - map(sigma) = -Phi_m diag(moved_m) Phi_m^dagger has the moduli
    # of phis^dagger diag(moved_m) phis, phis[c, k] = U_k psi_m for
    # m = lo + c, formed for _CHUNK members at a time
    residual = np.empty(n)
    uks = bundle.uks.reshape(n * n, n).T
    for lo in range(0, n, _CHUNK):
        chunk = slice(lo, lo + _CHUNK)
        phis = (states.amplitudes[chunk] @ uks).reshape(-1, n, n)
        gap = phis.conj().transpose(0, 2, 1) @ (moved[chunk, :, None] * phis)
        residual[chunk] = np.abs(gap).max(axis=(1, 2))
    failed = negative | (certified & (residual > deutsch.TOL_FIX))
    first = int(np.argmax(failed)) if failed.any() else n
    for m in np.flatnonzero(~certified[:first]):
        label_p, _, settled = _settle_by_svd((bundle.uks @ states.amplitudes[m]).T)
        shift[m] = np.abs(label_p - np.eye(n)[m]).sum()
        bound[m] = np.inf
        _, rho_out, _, _, residual[m] = settled
        labels[m] = rho_out.entries.diagonal().real
    if first < n and negative[first]:
        raise _weight_error(p[first].min(), weight_tol[first])
    if first < n:
        raise _residual_error(residual[first])
    decoded = labels.argmax(axis=1)
    return MemberResults(labels, decoded, labels[ks, decoded], residual,
                         minorization, shift, bound)
