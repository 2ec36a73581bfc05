"""Perfect discrimination of distinct states through a CTC interaction.

For N distinct (not necessarily orthogonal) states in N dimensions, a
SWAP followed by a controlled unitary

    total = ( sum_k |k><k| (x) U_k ) . SWAP

maps each set member onto its basis label on both outputs once the CTC
state settles on its unique fixed point.  The per-index unitaries must
satisfy two conditions: (1) U_k psi_k = |k>, and (2) every overlap
<j| U_k |psi_j> is nonzero, which is what makes the fixed point unique.

On the first attempt each U_k is the adjoint of a Gram-Schmidt completion
of psi_k by the standard basis, which has a closed form in the suffix sums
s_i = sum_{l >= i} |psi_k[l]|^2: a rank-one upper triangle plus a
subdiagonal, rows 0 and k exchanged (:func:`_first_completions`).  So
U_k psi costs O(N), one reversed cumulative sum, and a
:class:`DistinguisherBundle` holds each such U_k as its O(N) parameters.
The per-k :func:`build_uk` runs only where that form does not hold
(Gram-Schmidt would skip a basis vector, as for psi_k = |0>) or misses
condition (2), met then by a weighted polar factor; it is also the form's
test oracle, and only the U_k it builds are held dense.
For a pure input psi, write phi_k = U_k psi and Phi = [phi_0 ... phi_{N-1}].
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
gives a certified member's labels T_m p and its residual, so no member
is settled on its own; a member without that certificate takes the SVD
path, which is its oracle.  Both the bundle's conditions and the member
pass take Phi from the closed form, a block of members at a time, so a
discrimination of the whole set holds no N^3 array: the (N, N, N) stack
:attr:`DistinguisherBundle.uks` is formed only when it is read.
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
    condition2_threshold,
    unitary_from_first_column,
)

_IN_SET_TOL = 1e-8

_EPS = np.finfo(float).eps

# images U_k psi_m a block of the member pass may form (at least one
# member's N): N <= 8 in one block, three at N = 12 and four at N = 16
_BLOCK_IMAGES = 64
# elements of numpy's ufunc buffers in the member pass: a broadcast
# operand is otherwise buffered whole, up to 8192 elements, which would
# double a block's arrays
_BUFFER = 64


def _blocks(n: int) -> list[slice]:
    """The member blocks of a set of `n`: as few as hold at most
    ``_BLOCK_IMAGES // n`` members each (at least one), of even size."""
    count = -(-n // max(1, _BLOCK_IMAGES // n))
    return [slice(i * n // count, (i + 1) * n // count) for i in range(count)]


@dataclass(frozen=True, eq=False, init=False)
class DistinguisherBundle:
    """The per-index unitaries of a discrimination circuit for one state set.

    Built from given unitaries, it holds a read-only copy of them, which
    stay the caller's.  From :func:`build_distinguisher`, it holds each
    U_k of the closed form by its parameters coef[k] and sub[k]
    (:func:`_first_completions`), O(N) numbers, and only the U_k that
    :func:`build_uk` built as dense matrices, so no N^3 array.
    :func:`_images` applies every U_k to a block of states from these
    parts.  `uks`, the read-only (N, N, N) stack whose row k is U_k, is
    formed on first read and kept; :func:`distinguish` and
    :func:`distinguish_members` never read it.  Both construction
    conditions are measured from the same parts when first read:
    `overlaps[j, k] = |<j| U_k |psi_j>|`, their least value
    `condition2_min`, and `condition1_deviation[k]`, the Euclidean
    distance of U_k psi_k from |k>.  No condition threshold is enforced
    here.  The N^2 x N^2 circuit :attr:`total` is assembled on first
    access only.
    """

    state_set: StateSet

    def __init__(self, state_set: StateSet, uks: Sequence):
        n = state_set.size
        try:
            stack = np.array(uks, dtype=complex)
        except ValueError:  # unitaries of unequal shapes
            stack = None
        if stack is None or stack.shape != (n, n, n):
            raise DimensionError(f"expected {n} unitaries of dim {n}")
        stack.setflags(write=False)
        self._hold(state_set, None, None, np.arange(n), stack)
        # where the cached property keeps its value
        self.__dict__["uks"] = stack

    def _hold(self, state_set, coef, sub, dense_ks, dense):
        """Set the parts: the closed form's coefficients `coef` and
        subdiagonals `sub` (None if no U_k has it), and the dense U_k
        `dense[i]` of index `dense_ks[i]`."""
        for name, value in (("state_set", state_set), ("_coef", coef),
                            ("_sub", sub), ("_dense_ks", dense_ks),
                            ("_dense", dense)):
            object.__setattr__(self, name, value)

    @classmethod
    def _from_parts(cls, state_set, coef, sub, dense_ks,
                    dense) -> DistinguisherBundle:
        bundle = cls.__new__(cls)
        bundle._hold(state_set, coef, sub, dense_ks, dense)
        return bundle

    @cached_property
    def uks(self) -> np.ndarray:
        n = self.state_set.size
        stack = np.matmul(self._coef[:, :, None],
                          self.state_set.amplitudes.conj()[:, None, :])
        stack[:, np.tri(n, n, -1, dtype=bool)] = 0
        sub = np.arange(1, n)
        stack[:, sub, sub - 1] = self._sub[:, 1:]
        ks = np.arange(n)
        row0 = stack[:, 0].copy()
        stack[:, 0] = stack[ks, ks]
        stack[ks, ks] = row0
        stack[self._dense_ks] = self._dense
        stack.setflags(write=False)
        return stack

    @cached_property
    def overlaps(self) -> np.ndarray:
        return _measure_overlaps(self)

    @cached_property
    def condition2_min(self) -> float:
        return float(self.overlaps.min())

    @cached_property
    def condition1_deviation(self) -> np.ndarray:
        return _measure_deviation(self)

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
    least = states.least_room[2]
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


def _first_completions(amps: np.ndarray):
    """Every first-attempt U_k in closed form, and where the form holds.

    Gram-Schmidt of e_0 ... e_{N-2} after psi = c, with suffix sums
    s_i = sum_{l >= i} |c_l|^2, gives column i + 1 of W as
    (e_i - [l >= i] c conj(c_i) / s_i) sqrt(s_i / s_{i+1}): entry i is
    sqrt(s_{i+1} / s_i), entry l > i is -c_l conj(c_i) / sqrt(s_i s_{i+1}).
    Row r of U_k = V^dagger, V being W with columns 0 and k exchanged, is
    the conjugate of column r of W.  So, before rows 0 and k are
    exchanged, row r of U_k is coef[k, r] conj(c) on l >= r, with
    coef[k] = [1, -c_0 / sqrt(s_0 s_1), ...], and sub[k, r] =
    sqrt(s_r / s_{r-1}) at l = r - 1 (sub[k, 0] = 0):

        (U_k psi)_r = coef[k, r] sum_{l >= r} conj(c_l) psi_l
                      + sub[k, r] psi_{r-1}.

    Returns coef, sub (both N x N) and served, where the form holds: for
    k unless psi_k is off unit norm by over ``TOL_NORM / 2`` or some
    s_{i+1} < (2 ``TOL_GS``)^2 s_i, a factor 2 in from where the loop would
    raise or skip a vector; there the parameters are zero.
    """
    n = len(amps)
    s = np.cumsum((np.abs(amps) ** 2)[:, ::-1], axis=1)[:, ::-1]
    served = ((s[:, 1:] >= (2 * TOL_GS) ** 2 * s[:, :-1]).all(axis=1)
              & (np.abs(np.sqrt(s[:, 0]) - 1) <= TOL_NORM / 2))
    # divided only where served, so that an unserved k's zero suffix
    # sums raise no warning; its parameters stay zero
    rows = served[:, None]
    coef = np.zeros((n, n), dtype=complex)
    coef[:, 0] = served
    np.divide(-amps[:, :-1], np.sqrt(s[:, :-1] * s[:, 1:]), out=coef[:, 1:],
              where=rows)
    # complex, as the images it meets, so that numpy casts nothing
    sub = np.zeros((n, n), dtype=complex)
    sub[:, 1:] = np.sqrt(np.divide(s[:, 1:], s[:, :-1], out=np.zeros((n, n - 1)),
                                   where=rows))
    return coef, sub, served


def _images(bundle: DistinguisherBundle, psis: np.ndarray) -> np.ndarray:
    """images[b, k] = U_k psi_b for the rows psis[b], a (B, N, N) array.

    A U_k of the closed form takes one reversed cumulative sum of
    conj(c_l) psi_l (see :func:`_first_completions`); only the dense U_k
    are multiplied as matrices.  The member pass calls it with numpy's
    ufunc buffers cut to ``_BUFFER`` elements, so its broadcasts add no
    buffer the size of the images."""
    n = psis.shape[1]
    dense_ks = bundle._dense_ks
    # c_k[l] conj(psi_b[l]), conjugated in place
    images = bundle.state_set.amplitudes * psis.conj()[:, None, :]
    if dense_ks.size < n:
        np.conjugate(images, out=images)
        tail = images[..., ::-1]
        np.add.accumulate(tail, axis=2, out=tail)
        images *= bundle._coef
        # sub[k, r] psi_b[r - 1]; sub[k, 0] = 0 takes psi_b[-1]
        images += bundle._sub * psis[:, None, np.arange(-1, n - 1)]
        # rows 0 and k of each U_k exchanged, as the strided views of
        # entries (k, 0) and (k, k)
        flat = images.reshape(len(psis), n * n)
        first = flat[:, ::n].copy()
        flat[:, ::n] = flat[:, ::n + 1]
        flat[:, ::n + 1] = first
    if dense_ks.size:
        images[:, dense_ks] = np.einsum("kjc,bc->bkj", bundle._dense, psis)
    return images


def _measure_overlaps(bundle: DistinguisherBundle) -> np.ndarray:
    """overlaps[j, k] = |<j| U_k |psi_j>|.

    Row j of a closed-form U_k is row j of its triangle, but row k for
    j = 0 and row 0 for j = k (:func:`_first_completions`), so the
    overlaps take the suffix sums sum_{l >= j} conj(c_k[l]) psi_j[l]: one
    product with the upper triangle of the set.  The dense U_k are
    multiplied with the set."""
    amps = bundle.state_set.amplitudes
    n = len(amps)
    dense_ks = bundle._dense_ks
    overlaps = np.empty((n, n))
    if dense_ks.size < n:
        coef, sub, bra = bundle._coef, bundle._sub, amps.conj()
        ks = np.arange(n)
        # at[k, j] = <j| U_k |psi_j>, taking psi_j[j - 1] from the
        # subdiagonal of the set; psi_0[-1] meets sub[k, 0] = 0
        upper = np.triu(amps)
        at = coef * (bra @ upper.T) + sub * amps[ks, ks - 1]
        at[:, 0] = (coef[ks, ks] * (upper.conj() @ amps[0])
                    + sub[ks, ks] * amps[0, ks - 1])
        at[ks, ks] = coef[:, 0] * (bra * amps).sum(axis=1)
        overlaps[:] = np.abs(at.T)
    if dense_ks.size:
        overlaps[:, dense_ks] = np.abs(
            np.einsum("kjc,jc->jk", bundle._dense, amps))
    return overlaps


def _measure_deviation(bundle: DistinguisherBundle) -> np.ndarray:
    """The distances |U_k psi_k - |k>|: for a closed-form U_k, of its
    triangle's image of psi_k from |0>, rows 0 and k being exchanged."""
    amps = bundle.state_set.amplitudes
    n = len(amps)
    dense_ks = bundle._dense_ks
    own = np.empty((n, n), dtype=complex)
    if dense_ks.size < n:
        own[:] = np.cumsum((amps.conj() * amps)[:, ::-1], axis=1)[:, ::-1]
        own *= bundle._coef
        own += bundle._sub * amps[:, np.arange(n) - 1]
        own[:, 0] -= 1
    if dense_ks.size:
        own[dense_ks] = np.einsum("kjc,kc->kj", bundle._dense, amps[dense_ks])
        own[dense_ks, dense_ks] -= 1
    return np.linalg.norm(own, axis=1)


def build_distinguisher(states: StateSet) -> DistinguisherBundle:
    """Construct per-index unitaries for every k and bundle them.

    The first k whose least room (:attr:`ctcsim.linalg.StateSet.least_room`)
    falls short raises :class:`Condition2Exhausted` before any completion.
    Every first attempt is taken in closed form
    (:func:`_first_completions`); a k the form does not serve, or whose
    completion misses condition (2), is built dense by :func:`build_uk`.
    The conditions measured on the first completions decide condition
    (2); in the common case, every k served, the bundle keeps them, so
    they are measured once.  The (N, N, N) stack and the circuit
    :attr:`DistinguisherBundle.total` are formed only when they are read.
    """
    rooms, first, least = states.least_room
    k = int(np.argmax(rooms < least))
    j = int(first[k])
    if rooms[k] < least:
        infidelity = rooms[k] / np.linalg.norm(states.amplitudes[j]) ** 2
        raise Condition2Exhausted(
            f"members {j} and {k} have 1 - F = {infidelity:.3e}, which keeps "
            f"overlap^2 of U_{k} from exceeding {condition2_threshold(len(rooms)):.3e}")
    n = states.size
    coef, sub, served = _first_completions(states.amplitudes)
    bundle = DistinguisherBundle._from_parts(
        states, coef, sub, np.arange(0), np.zeros((0, n, n), dtype=complex))
    served &= bundle.overlaps.min(axis=0) ** 2 > least
    if served.all():
        return bundle
    rebuilt = np.flatnonzero(~served)
    coef[rebuilt] = 0
    sub[rebuilt] = 0
    dense = np.array([build_uk(states, int(k)).entries for k in rebuilt])
    return DistinguisherBundle._from_parts(states, coef, sub, rebuilt, dense)


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
    _, chain_gap, settled = _settle_by_svd(_images(bundle, vec[None])[0].T)
    return DistinguishResult(*settled, input_in_set=in_set, chain_gap=chain_gap)


def _residuals(images: np.ndarray, moved: np.ndarray) -> np.ndarray:
    """The largest entry of sigma - map(sigma) =
    -Phi_m diag(moved_m) Phi_m^dagger for each member of a block, as of
    G = images_m^dagger diag(moved_m) images_m, which has the same moduli.
    G is Hermitian, so its rows i < N/2 and its block i, j >= N/2 hold
    every modulus.  Each is formed from the weighted conjugate of its
    rows' half of the images, so that no more than a block of arrays
    exists beside them."""
    half = images.shape[2] // 2
    peaks = []
    for i, j in ((slice(half), slice(None)), (slice(half, None),) * 2):
        rows = images[:, :, i] * moved[:, :, None]
        np.conjugate(rows, out=rows)
        part = np.matmul(rows.transpose(0, 2, 1), images[:, :, j])
        # the rows are freed before the moduli take their place
        del rows
        peaks.append(np.abs(part).max(axis=(1, 2), initial=0))
        del part
    return np.maximum(*peaks)


def _member_block(bundle: DistinguisherBundle, block: slice, eye: np.ndarray,
                  p, moved, minorization, column_miss, drift,
                  residual) -> None:
    """Members `block` of :func:`distinguish_members`: their images and
    chains, the bordered solve for right-hand side e_0 (row 0 of `eye`)
    and its check, and the residuals, written into rows `block` of the
    pass's arrays."""
    amps = bundle.state_set.amplitudes
    n = len(amps)
    start = block.start
    images = _images(bundle, amps[block])
    # t[b, k, j] = T_m[j, k] = |<j|U_k|psi_m>|^2 for m = start + b
    t = np.square(images.real)
    t += np.square(images.imag)
    # T_m[m, k] as [k, b] and the column sums, each along its rows,
    # whatever the block size
    least = minorization[block] = t.diagonal(start, 0, 2).min(axis=0)
    sums = t.sum(axis=2)
    sums -= 1
    np.abs(sums, out=sums)
    worst = drift[block] = sums.max(axis=1)
    # the bordered systems, in place: T_m - I, then row 0 replaced by
    # ones; (T_m - I)[j, m] as [j, b]
    t -= eye
    column_miss[block] = np.abs(t.diagonal(start, 0, 1)).sum(axis=0)
    row0 = t[:, :, 0].copy()
    t[:, :, 0] = 1
    # a member without a certificate solves the identity instead; the
    # block's least eps_m and largest delta_m tell whether any lacks one
    # (Python's min and max are the quicker on a few members)
    if min(least.tolist()) <= 2 * max(worst.tolist()) + n * _EPS:
        t[least <= 2 * worst + n * _EPS] = eye
    bordered = t.transpose(0, 2, 1)
    solved = np.linalg.solve(bordered, eye[0])
    np.divide(solved, solved.sum(axis=1, keepdims=True), out=p[block])
    np.matmul(bordered, p[block, :, None], out=moved[block, :, None])
    moved[block, 0] = (row0 * p[block]).sum(axis=1)
    del t, bordered, solved
    residual[block] = _residuals(images, moved[block])


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

    Members are taken a block at a time (:func:`_blocks`), and each
    block's images U_k psi_m come from :func:`_images`, so the pass holds
    no N^3 array.  Every p of a block comes from one stacked bordered
    solve, set up in place on the block's chains: row 0 of T_m - I
    replaced by ones, right-hand side e_0.  Its residual |T_m p - p|_1 is
    the column-sum rounding sum_k (c_k - 1) p_k of the replaced row plus
    the solve's own rounding.  A member whose eps_m does not exceed
    2 delta_m + N eps (the bordered system may then be singular), or whose
    p misses its bound, has no certificate and takes the SVD path of
    :func:`distinguish` instead, with its exceptions.

    The bound is measured on the p the solve returned, so an error in p
    raises the bound with it: a minorized member with a bad p keeps its
    certificate, and the residual check raises
    :class:`NoFixedPointNumerical` rather than the SVD path taking over.

    A certified member is settled by the same pass, with no per-member
    settle: the solve's check T_m p - p, row 0 from the replaced row,
    gives its labels diag(rho_out) = diag(sigma) = T_m p, and its residual
    is the largest entry of sigma - map(sigma) =
    -Phi_m diag(T_m p - p) Phi_m^dagger, formed from the block's images.
    Negative label weights are checked against -(``TOL_PSD`` + N eps /
    eps_m), residuals against ``deutsch.TOL_FIX``, as in
    :func:`distinguish`, for all members at once.  Members without a
    certificate then take the SVD path, and the first member in member
    order that fails a check, or whose SVD path raises, is the one that
    raises.
    """
    amps = bundle.state_set.amplitudes
    n = len(amps)
    ks = np.arange(n)
    eye = np.eye(n)
    p, moved = np.empty((n, n)), np.empty((n, n))
    minorization, column_miss, drift, residual = np.empty((4, n))
    size = np.setbufsize(_BUFFER)
    try:
        for block in _blocks(n):
            _member_block(bundle, block, eye, p, moved, minorization,
                          column_miss, drift, residual)
    finally:
        np.setbufsize(size)
    minorized = minorization > 2 * drift + n * _EPS
    solve_miss = np.abs(moved).sum(axis=1)
    shift = np.abs(p - eye).sum(axis=1)
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
    # an uncertified member's tolerance is infinite
    negative = p.min(axis=1) < -weight_tol
    failed = negative | certified & (residual > deutsch.TOL_FIX)
    first = int(np.argmax(failed)) if failed.any() else n
    for m in np.flatnonzero(~certified[:first]):
        label_p, _, settled = _settle_by_svd(_images(bundle, amps[m:m + 1])[0].T)
        shift[m] = np.abs(label_p - eye[m]).sum()
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
