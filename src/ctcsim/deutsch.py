"""Fixed-point engine for the Deutsch closed-timelike-curve model.

A CTC state sigma interacting once with a chronology-respecting state
rho_cr under a joint unitary u (CR register first) must satisfy the
self-consistency condition

    sigma = Tr_CR[ u (rho_cr (x) sigma) u^dagger ],

and the chronology-respecting output is the complementary trace.  The
solver is spectral: the map preserves hermiticity, so it is linearized
as a real matrix L over real coordinates of Hermitian sigma, and the
eigenvalue-1 space is the null space of A = L - I.  This finds all fixed
points and therefore detects non-uniqueness, which an iterative solver
cannot.

A unique fixed point is first certified without an SVD.  B is A with
row 0 replaced by the trace row; B - A has rank one, so the two smallest
singular values of A satisfy

    s_(n-1)(A) >= s_min(B),    s_min(A) <= |A x| / |x|,

for x = B^-1 e_0, the fixed point at trace 1, taken by one LU solve.
A Cholesky factorization of fl(B^T B) - s I that runs to completion
proves s_min(B) > ``SVD_CUTOFF``, for a shift s that adds to
``SVD_CUTOFF``^2 a bound on the rounding of the product and of the
factorization (Rump, "Verification of positive definiteness", BIT 46,
2006).  When it completes and the second bound is at or below the
cutoff, exactly one singular value of A is null, the verdict an SVD
would give.  Otherwise the null space is taken by a full SVD, whose
null vectors are Hermitian matrices (Stewart, Introduction to the
Numerical Solution of Markov Chains, 1994, for the bordered system).

This path holds at most two n x n arrays, n = d^2: B overwrites L in
place, and L is restored, or assembled again, only for the SVD
(:func:`_certified_fixed_point`).

When the fixed space has more than one dimension, the ``max_entropy``
policy applies Deutsch's maximum-entropy rule.  It starts from the
closed-form Cesaro limit of the orbit of I/d, the spectral projection
of I/d onto the fixed space, whose support contains that of every fixed
state.  On that support it takes damped Newton steps over the traceless
fixed directions until the entropy gradient (the KKT certificate) is
below ``_KKT_TOL``.  If ``_MAX_NEWTON`` steps do not get it there, or
a step still leaves the cone after ``_MAX_HALVINGS`` halvings, it raises
:class:`NoFixedPointNumerical`.  Such a run holds L, then the SVD's two
n x n factors, and the k - 1 directions as complex d x d matrices, formed
and compressed to the support once (k the fixed-space dimension).  Each
Newton step takes one eigh of the trial state, one solve of the k - 1
Hessian system and one rotation of the directions into the new
eigenbasis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from .errors import DimensionError, NoFixedPointNumerical, NonUniqueFixedPoint
from .linalg import (
    SVD_CUTOFF,
    DensityMatrix,
    TOL_PSD,
    _as_matrix,
    partial_trace,
    tensor_product,
)

TOL_FIX = 1e-8

Policy = Literal["require_unique", "max_entropy"]
POLICIES = get_args(Policy)

_KKT_TOL = 1e-12
_MAX_NEWTON = 50
_MAX_HALVINGS = 60
# output pairs a slab of the assembly forms at once
_SLAB = 32
_SCALE = 1 / np.sqrt(2)


@dataclass(frozen=True)
class FixedPointResult:
    """A solution of the self-consistency condition.

    `residual` is the max-entry norm of sigma - map(sigma);
    `fixed_space_dim` is the dimension of the eigenvalue-1 eigenspace of
    the linearized map, and `unique` is true iff it is 1.
    `entropy_nats` comes from the spectrum that checked it PSD.
    """

    fixed_point: DensityMatrix
    residual: float
    fixed_space_dim: int
    unique: bool
    entropy_nats: float


def _split_dims(u: np.ndarray, rho_cr: np.ndarray) -> tuple[int, int]:
    cr_dim = rho_cr.shape[0]
    u_dim = u.shape[0]
    ctc_dim, rem = divmod(u_dim, cr_dim)
    if rem != 0 or ctc_dim < 1:
        raise DimensionError(
            f"unitary of dim {u_dim} does not factor over a CR register of dim {cr_dim}"
        )
    return cr_dim, ctc_dim


def _conjugate(u, rho_cr, sigma) -> tuple[np.ndarray, int, int]:
    u = _as_matrix(u)
    rho_cr = _as_matrix(rho_cr)
    sigma = _as_matrix(sigma)
    cr_dim, ctc_dim = _split_dims(u, rho_cr)
    if sigma.shape[0] != ctc_dim:
        raise DimensionError(
            f"CTC state of dim {sigma.shape[0]} does not match unitary "
            f"({cr_dim} x {ctc_dim})"
        )
    joint = u @ tensor_product(rho_cr, sigma) @ u.conj().T
    return joint, cr_dim, ctc_dim


def ctc_map(u, rho_cr, sigma) -> DensityMatrix:
    """One application of the self-consistency map to sigma."""
    joint, cr_dim, ctc_dim = _conjugate(u, rho_cr, sigma)
    return DensityMatrix(partial_trace(joint, cr_dim, ctc_dim, "second"))


def output_state(u, rho_cr, sigma) -> DensityMatrix:
    """Chronology-respecting output for a given CTC state sigma."""
    joint, cr_dim, ctc_dim = _conjugate(u, rho_cr, sigma)
    return DensityMatrix(partial_trace(joint, cr_dim, ctc_dim, "first"))


def consistency_residual(u, rho_cr, sigma) -> float:
    """Max-entry norm of sigma - map(sigma)."""
    sigma = _as_matrix(sigma)
    joint, cr_dim, ctc_dim = _conjugate(u, rho_cr, sigma)
    return float(np.abs(sigma - partial_trace(joint, cr_dim, ctc_dim, "second")).max())


def superoperator_matrix(u, rho_cr) -> np.ndarray:
    """Linearization L of the self-consistency map over vectorized sigma.

    Column-stacking convention: vec(map(sigma)) = L @ vec(sigma).  With u
    indexed u[(a, x), (b, y)], CR indices a, b and CTC indices x, y < d,
    L[x + d x', y + d y'] = sum_{a,b,b'} u[(a,x), (b,y)] rho_cr[b, b']
    conj(u[(a,x'), (b',y')]), taken by two tensor contractions.
    """
    u = _as_matrix(u)
    rho_cr = _as_matrix(rho_cr)
    cr_dim, ctc_dim = _split_dims(u, rho_cr)
    u4 = u.reshape(cr_dim, ctc_dim, cr_dim, ctc_dim)
    # t[x, y, x', y'], the sum above
    t = np.tensordot(np.tensordot(u4, rho_cr, ([2], [0])), u4.conj(),
                     ([0, 3], [0, 2]))
    return t.transpose(2, 0, 3, 1).reshape(ctc_dim**2, ctc_dim**2)


def _hermitian_index(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vec positions of the diagonal, the upper entries and their mirrors."""
    # the i < j pairs in np.triu_indices(dim, 1) order, at a quarter of its cost
    i, j = np.nonzero(np.arange(dim)[:, None] < np.arange(dim))
    return np.arange(dim) * (dim + 1), j * dim + i, i * dim + j


def _hermitian_superoperator(u, rho_cr) -> np.ndarray:
    """The map as a real matrix over orthonormal coordinates of Hermitian X:
    its diagonal, then sqrt(2) Re and sqrt(2) Im of its upper entries.

    Images are Hermitian, so only the output entries x <= x' are formed:
    t[p, y, y'] = sum_{a,b'} (u (rho_cr (x) I))[(a,x), (b',y)]
    conj(u[(a,x'), (b',y')]) for the pairs p = (x, x'), diagonal first,
    by a batched matmul of at most ``_SLAB`` pairs at a time, so that the
    complex temporaries stay a small share of the result.  Input
    coordinates take t[p, y, y] and t[p, y, y'] +- t[p, y', y] for y < y'.
    Pair p gives row p, and an off-diagonal pair row p + d(d-1)/2 too.
    The result is in Fortran order, the layout LAPACK reads.
    """
    u = _as_matrix(u)
    rho_cr = _as_matrix(rho_cr)
    cr_dim, dim = _split_dims(u, rho_cr)
    u4 = u.reshape(cr_dim, dim, cr_dim, dim)
    # left[x, y, (a, b')] and right[x', (a, b'), y']
    left = np.tensordot(u4, rho_cr, ([2], [0])).transpose(1, 2, 0, 3).reshape(
        dim, dim, cr_dim**2)
    right = u4.conj().transpose(1, 0, 2, 3).reshape(dim, cr_dim**2, dim)
    diag, up, low = _hermitian_index(dim)
    # the output pairs (x, x'): (x, x) from diag, then x < x' from low
    first, second = np.divmod(np.concatenate([diag, low]), dim)
    # t's columns in the order of the coordinates: t[p, y, y], then
    # t[p, y, y'] for y < y' under re and t[p, y', y] under im
    order = np.concatenate([diag, low, up])
    n, m, r2 = dim * dim, low.size, np.sqrt(2)
    real = np.empty((n, n), order="F")
    re, im = slice(dim, dim + m), slice(dim + m, n)
    for start in range(0, first.size, _SLAB):
        stop = min(start + _SLAB, first.size)
        t = np.matmul(left[first[start:stop]], right[second[start:stop]])
        t = t.reshape(-1, n)[:, order]
        plus, minus = t[:, re] + t[:, im], t[:, re] - t[:, im]
        # the slab's first k pairs are diagonal and fill one row each; the
        # others fill a row under re and one under im
        k = min(max(dim - start, 0), stop - start)
        if k:
            on = slice(start, start + k)
            real[on, :dim] = t[:k, :dim].real
            real[on, re] = plus[:k].real / r2
            real[on, im] = minus[:k].imag / -r2
        if start + k < stop:
            rre, rim = slice(start + k, stop), slice(start + k + m, stop + m)
            real[rre, :dim] = r2 * t[k:, :dim].real
            real[rim, :dim] = r2 * t[k:, :dim].imag
            real[rre, re] = plus[k:].real
            real[rim, re] = plus[k:].imag
            real[rre, im] = -minus[k:].imag
            real[rim, im] = minus[k:].real
        del t, plus, minus  # before the next slab's matmul allocates
    return real


def _hermitian(x: np.ndarray, index) -> np.ndarray:
    """Hermitian matrices from coordinates along the last axis of x."""
    diag, up, low = index
    dim, m = diag.size, up.size
    h = np.zeros(x.shape[:-1] + (dim * dim,), dtype=complex)
    # C order puts the upper entries at low and their mirrors at up; the
    # scale is the one numpy's complex division by sqrt(2) applies
    h.real[..., low] = h.real[..., up] = x[..., dim:dim + m] * _SCALE
    h.imag[..., low] = imag = x[..., dim + m:] * _SCALE
    h.imag[..., up] = -imag
    h.real[..., diag] = x[..., :dim]
    h += 0.0  # the signed zeros of the SVD and of -imag become 0.0
    return h.reshape(x.shape[:-1] + (dim, dim))


def von_neumann_entropy(state) -> float:
    """Entropy -Tr(rho ln rho) in nats."""
    m = _as_matrix(state)
    return _entropy(np.linalg.eigvalsh((m + m.conj().T) / 2))


def _entropy(w: np.ndarray) -> float:
    w = w[w > 1e-15]
    # + 0.0 turns the -0.0 of a pure state into 0.0
    return float(-(w * np.log(w)).sum()) + 0.0


def _finalize(u, rho_cr, sigma: np.ndarray, fixed_space_dim: int) -> FixedPointResult:
    # the checks are written to fail on NaN
    if not np.isfinite(sigma).all():
        raise NoFixedPointNumerical("candidate fixed point is not finite")
    spectrum = np.linalg.eigvalsh(sigma)
    if not spectrum[0] >= -TOL_PSD:
        raise NoFixedPointNumerical(
            f"candidate fixed point has negative eigenvalue {spectrum[0]:.3e}"
        )
    residual = consistency_residual(u, rho_cr, sigma)
    if not residual <= TOL_FIX:
        raise NoFixedPointNumerical(
            f"candidate fixed point has residual {residual:.3e} > {TOL_FIX}"
        )
    return FixedPointResult(DensityMatrix(sigma), residual, fixed_space_dim,
                            fixed_space_dim == 1, _entropy(spectrum))


def _max_entropy_fixed_point(right: np.ndarray, left: np.ndarray,
                             index) -> np.ndarray:
    """Entropy-maximizing element of the fixed-point set.

    `right` and `left` hold the real right and left null vectors of
    (L - I) as columns, `right` an orthonormal Hermitian basis of the
    fixed space.  R (Ul^T R)^-1 Ul^T maps I/d to the Cesaro limit of its
    orbit, whose support contains that of every fixed state.  A
    Householder reflection taking the basis traces to e_0 gives the
    orthonormal traceless directions D_i.  On the support the entropy is
    strictly concave over them, and Newton steps, halved while they leave
    the positive-definite cone, drive -Tr(D_i log sigma) to 0 in the
    eigenbasis of sigma.  A step still outside the cone after
    ``_MAX_HALVINGS`` halvings raises :class:`NoFixedPointNumerical`.
    """
    dim = index[0].size
    # Ul^T vec(I/d) sums the diagonal rows of Ul
    limit = right @ np.linalg.solve(left.T @ right, left[:dim].sum(axis=0) / dim)
    w, frame = np.linalg.eigh(_hermitian(limit, index))
    keep = w > TOL_PSD
    frame = frame[:, keep]
    lam = w[keep] / w[keep].sum()
    v = right[:dim].sum(axis=0)
    v[0] += math.copysign(math.sqrt(v @ v), v[0])
    basis = np.outer(right @ v, v[1:] * (-2 / (v @ v)))
    basis += right[:, 1:]
    directions = _hermitian(basis.T, index)
    del basis
    directions = frame.conj().T @ directions
    directions = directions @ frame
    directions += directions.conj().swapaxes(1, 2)
    directions *= 0.5
    r = lam.size
    for newton in range(_MAX_NEWTON):
        flat = directions.reshape(len(directions), r * r)
        log_lam = np.log(lam)
        grad = -(flat[:, :: r + 1].real @ log_lam)
        if grad.size == 0 or np.abs(grad).max() < _KKT_TOL:
            sigma = (frame * lam) @ frame.conj().T
            sigma += sigma.conj().T
            sigma *= 0.5
            return sigma
        # (log lam_a - log lam_b) / (lam_a - lam_b), 1 / lam_a at a tie
        gap = lam[:, None] - lam
        gamma = 2 / (lam[:, None] + lam)
        np.divide(log_lam[:, None] - log_lam, gap, out=gamma,
                  where=np.abs(gap) > 1e-12 * lam[-1])
        # minus the Hessian of the entropy over the directions
        hess = ((flat.conj() * gamma.ravel()) @ flat.T).real
        step = (np.linalg.solve(hess, grad) @ flat).reshape(r, r)
        for _ in range(_MAX_HALVINGS + 1):
            lam_t, q = np.linalg.eigh(np.diag(lam) + step)
            if lam_t[0] > 0:
                break
            step *= 0.5
        else:
            raise NoFixedPointNumerical(
                f"max-entropy Newton step {newton + 1} leaves the positive-"
                f"definite cone after {_MAX_HALVINGS} halvings: smallest "
                f"trial eigenvalue {lam_t[0]:.3e}"
            )
        lam, frame = lam_t, frame @ q
        directions = q.conj().T @ directions @ q
    raise NoFixedPointNumerical(
        f"max-entropy refinement not converged after {_MAX_NEWTON} Newton "
        f"steps: KKT gradient {np.abs(grad).max():.3e} > {_KKT_TOL}"
    )


def null_space(m: np.ndarray, name: str, what: str):
    """SVD ``(u, svals, vh)`` of m - I and the mask of its null singular values.

    A singular value is null at or below ``SVD_CUTOFF``.  With none null,
    :class:`NoFixedPointNumerical` is raised, naming the matrix `name`
    and the missing `what`.  :func:`fixed_point` calls it only for the
    fixed spaces that the bordered certificate leaves open: more than
    one dimension, none, a factorization of fl(B^T B) - s I that fails,
    a pre-check that proves it would fail, or |(L - I) x| >
    ``SVD_CUTOFF`` |x|.  It stays the oracle of that certificate.
    """
    uu, svals, vh = np.linalg.svd(m - np.eye(m.shape[0]))
    null_mask = svals <= SVD_CUTOFF
    if not null_mask.any():
        raise NoFixedPointNumerical(
            f"smallest singular value of ({name} - I) is {svals.min():.3e}; "
            f"no {what} found"
        )
    return uu, svals, vh, null_mask


def _certified_fixed_point(u, rho_cr) -> tuple[np.ndarray | None,
                                                np.ndarray | None]:
    """``(x, None)`` with x = B^-1 e_0 when the certificate of the module
    docstring holds for A = L - I, else ``(None, L)``, with L the real
    matrix of :func:`_hermitian_superoperator`.

    x has trace 1 and (A x)_i = 0 for i > 0, and (A x)_0 = 0 as well in
    exact arithmetic: the map preserves trace, so row 0 of A is minus the
    sum of the other diagonal rows.  No more than two n x n arrays are
    held at once, n = d^2:

    - L is assembled, then overwritten in place by B: its row 0 and its
      diagonal are saved, the diagonal becomes fl(l_ii - 1) and row 0 the
      trace row.  B is in Fortran order, so the LU solve copies it to
      LAPACK's layout without a transpose.  A x is fl(B x) with row 0
      taken from the saved row.
    - Writing back the saved row and diagonal restores L bit for bit.
      That is done when a pre-check proves s_min(B) <= tau for
      tau = ``SVD_CUTOFF``, which no Cholesky factorization below can
      pass; when B is singular; and when |A x| > tau |x|.
    - Otherwise C = fl(B^T B) is formed and B dropped, and the shifted
      Cholesky factorization reads C's Fortran-ordered view, its
      transpose.  Only if it fails is L assembled a second time, for the
      SVD.

    The pre-check moves no verdict.  Let v be the indicator of the
    diagonal rows 1 .. d-1.  Then s_min(B) = s_min(B^T) <= |v^T B| / |v|,
    and v^T B = v^T A = -(row 0 of A) by the trace argument above, so the
    bound is small when row 0 of L is e_0^T: the identity and the block
    channels, which conserve sigma_00, take this route.  The sum fl(v^T B)
    of d - 1 rows is off by at most gamma_(d-2) sqrt(d - 1) |B_(1..d-1)|_F.
    The test |fl(v^T B)| / sqrt(d - 1) + g |B_(1..d-1)|_F <= (1 - 2 g) tau,
    g = (n + 2) eps, passes only if s_min(B) <= tau: g is far above
    gamma_(d-2), and 1 - 2 g covers the relative error, below
    (n / 2 + 5) eps / 2, of the first norm, the division and the sum.  A
    Cholesky factorization that completed would prove s_min(B) > tau, so
    it fails whenever the pre-check passes.

    The Cholesky factorization of H = fl(C - s I) that runs to completion
    proves s_min(B) > tau for the shift s = tau^2 + (n + 2) eps tr C.
    With u = eps / 2 and gamma_k = k u / (1 - k u), the shift covers three
    roundings:

    - the product: each entry of C is an inner product of length n, so
      |C - B^T B| <= gamma_n |B|^T |B|, of 2-norm at most
      gamma_n |B|_F^2 <= gamma_n tr C / (1 - gamma_n);
    - the shift: a factorization that completes had h_ii > 0, so
      0 < s < c_ii, and each fl(c_ii - s) is off by at most u tr C;
    - the factorization: a completed Cholesky gives R^T R = H + dH with
      |dH| <= gamma_(n+1) |R|^T |R|, and |r_i|^2 <= h_ii / (1 - gamma_(n+1))
      for the columns r_i of R, so |dH|_2 <= gamma_(n+1) tr H /
      (1 - gamma_(n+1)) (Higham, Accuracy and Stability of Numerical
      Algorithms, 2002, ch. 10; Rump, "Verification of positive
      definiteness", BIT 46, 2006).

    Since R^T R is positive semidefinite, lambda_min(B^T B) >= s - (n + 1)
    eps tr C (1 + O(n eps)), and the spare eps tr C, with tr C >= dim >= 1
    from the trace row, outweighs the O(n eps) terms and the rounding of
    s itself while n < 10^7: lambda_min(B^T B) > tau^2.
    """
    real = _hermitian_superoperator(u, rho_cr)
    n = real.shape[0]
    row, diagonal = real[0].copy(), real.diagonal().copy()
    real.flat[::n + 1] = diagonal - 1.0
    real[0] = 0.0
    real[0, :math.isqrt(n)] = 1.0
    x = _bordered_solution(real, row)
    if x is None:
        real[0] = row
        real.flat[::n + 1] = diagonal
        return None, real
    gram = real.T @ real
    del real  # the factorization holds two n x n arrays of its own
    gram.flat[::n + 1] -= (SVD_CUTOFF**2
                           + (n + 2) * np.finfo(float).eps * gram.trace())
    try:
        np.linalg.cholesky(gram.T)
    except np.linalg.LinAlgError:
        del gram
        return None, _hermitian_superoperator(u, rho_cr)
    return x, None


def _bordered_solution(bordered: np.ndarray, row: np.ndarray) -> np.ndarray | None:
    """x = B^-1 e_0 for B = `bordered`, unless the pre-check of
    :func:`_certified_fixed_point` proves s_min(B) <= ``SVD_CUTOFF``, B is
    singular, or |A x| > ``SVD_CUTOFF`` |x|; `row` is row 0 of L."""
    n = bordered.shape[0]
    dim = math.isqrt(n)
    if dim > 1:
        # |v^T B| / |v| for v the indicator of the diagonal rows 1 .. d-1;
        # its first test spares the norm of the rows on most channels
        rows = bordered[1:dim]
        bound = np.linalg.norm(np.ones(dim - 1) @ rows) / np.sqrt(dim - 1)
        g = (n + 2) * np.finfo(float).eps
        if (bound <= SVD_CUTOFF and bound + g * np.linalg.norm(rows)
                <= (1 - 2 * g) * SVD_CUTOFF):
            return None
    e0 = np.zeros(n)
    e0[0] = 1.0
    try:
        x = np.linalg.solve(bordered, e0)
    except np.linalg.LinAlgError:
        return None
    ax = bordered @ x
    ax[0] = row @ x - x[0]
    if np.linalg.norm(ax) <= SVD_CUTOFF * np.linalg.norm(x):
        return x
    return None


def fixed_point(u, rho_cr, policy: Policy = "require_unique") -> FixedPointResult:
    """Solve the self-consistency condition for the CTC state.

    The fixed space is the null space of A = L - I over Hermitian sigma,
    with singular-value cutoff ``SVD_CUTOFF``: certified unique by the
    bordered solve of the module docstring, holding at most two n x n
    arrays, n = d^2, else taken by SVD (:func:`null_space`) from L,
    restored or assembled again.  Under ``require_unique`` a fixed space
    of more than one dimension raises :class:`NonUniqueFixedPoint`;
    under ``max_entropy`` the entropy-maximizing fixed density matrix is
    returned (:func:`_max_entropy_fixed_point`).  The Hermitian index of
    d is formed once a call, for every conversion to a matrix.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    x, real = _certified_fixed_point(u, rho_cr)
    index = _hermitian_index(math.isqrt(len(x if real is None else real)))
    if x is not None:
        return _finalize(u, rho_cr, _hermitian(x, index), 1)
    dim = index[0].size
    uu, _, vh, null_mask = null_space(real, "L", "fixed space")
    del real
    k = int(null_mask.sum())  # the null singular values are the last k
    if k == 1:
        x = vh[-1]
        trace = x[:dim].sum()
        if abs(trace) < 1e-12:
            raise NoFixedPointNumerical(
                "fixed-space eigenvector is traceless; no density-matrix solution"
            )
        return _finalize(u, rho_cr, _hermitian(x / trace, index), k)
    if policy == "require_unique":
        raise NonUniqueFixedPoint(k)
    sigma = _max_entropy_fixed_point(vh[-k:].T, uu[:, -k:], index)
    return _finalize(u, rho_cr, sigma, k)
