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

When the fixed space has more than one dimension, the ``max_entropy``
policy applies Deutsch's maximum-entropy rule.  It starts from the
closed-form Cesaro limit of the orbit of I/d, the spectral projection
of I/d onto the fixed space, whose support contains that of every fixed
state.  On that support it takes damped Newton steps over the traceless
fixed directions until the entropy gradient (the KKT certificate) is
below ``_KKT_TOL``.  If ``_MAX_NEWTON`` steps do not get it there, or
a step still leaves the cone after ``_MAX_HALVINGS`` halvings, it raises
:class:`NoFixedPointNumerical`.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class FixedPointResult:
    """A solution of the self-consistency condition.

    `residual` is the max-entry norm of sigma - map(sigma);
    `fixed_space_dim` is the dimension of the eigenvalue-1 eigenspace of
    the linearized map, and `unique` is true iff it is 1.
    """

    fixed_point: DensityMatrix
    residual: float
    fixed_space_dim: int
    unique: bool


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
    return float(np.abs(sigma - ctc_map(u, rho_cr, sigma).entries).max())


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
    by one batched matmul.  Input coordinates take t[p, y, y] and
    t[p, y, y'] +- t[p, y', y] for y < y'.
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
    t = np.matmul(left[first], right[second]).reshape(-1, dim * dim)
    # t[:, low] holds t[p, y, y'] for y < y', and t[:, up] t[p, y', y]
    minus, mirror, t = t[:, low], t[:, up], t[:, diag]
    plus = minus + mirror
    minus -= mirror
    del mirror
    n, m, r2 = dim * dim, low.size, np.sqrt(2)
    real = np.empty((n, n))
    re, im = slice(dim, dim + m), slice(dim + m, n)
    real[:dim, :dim] = t[:dim].real
    real[:dim, re] = plus[:dim].real / r2
    real[:dim, im] = minus[:dim].imag / -r2
    real[re, :dim] = r2 * t[dim:].real
    real[im, :dim] = r2 * t[dim:].imag
    real[re, re] = plus[dim:].real
    real[im, re] = plus[dim:].imag
    real[re, im] = -minus[dim:].imag
    real[im, im] = minus[dim:].real
    return real


def _hermitian(x: np.ndarray, dim: int) -> np.ndarray:
    """Hermitian matrices from coordinates along the last axis of x."""
    diag, up, low = _hermitian_index(dim)
    z = (x[..., dim:dim + up.size] + 1j * x[..., dim + up.size:]) / np.sqrt(2)
    vec = np.zeros(x.shape[:-1] + (dim * dim,), dtype=complex)
    vec[..., diag], vec[..., up], vec[..., low] = x[..., :dim], z, z.conj()
    # + 0.0 turns the signed zeros of conj() and of the SVD into 0.0
    return vec.reshape(x.shape[:-1] + (dim, dim)).swapaxes(-1, -2) + 0.0


def von_neumann_entropy(state) -> float:
    """Entropy -Tr(rho ln rho) in nats."""
    m = _as_matrix(state)
    w = np.linalg.eigvalsh((m + m.conj().T) / 2)
    w = w[w > 1e-15]
    # + 0.0 turns the -0.0 of a pure state into 0.0
    return float(-(w * np.log(w)).sum()) + 0.0


def _finalize(u, rho_cr, sigma: np.ndarray, fixed_space_dim: int) -> FixedPointResult:
    # the checks are written to fail on NaN
    if not np.isfinite(sigma).all():
        raise NoFixedPointNumerical("candidate fixed point is not finite")
    eigmin = np.linalg.eigvalsh(sigma).min()
    if not eigmin >= -TOL_PSD:
        raise NoFixedPointNumerical(
            f"candidate fixed point has negative eigenvalue {eigmin:.3e}"
        )
    residual = consistency_residual(u, rho_cr, sigma)
    if not residual <= TOL_FIX:
        raise NoFixedPointNumerical(
            f"candidate fixed point has residual {residual:.3e} > {TOL_FIX}"
        )
    return FixedPointResult(
        fixed_point=DensityMatrix(sigma),
        residual=residual,
        fixed_space_dim=fixed_space_dim,
        unique=fixed_space_dim == 1,
    )


def _max_entropy_fixed_point(right: np.ndarray, left: np.ndarray,
                             dim: int) -> np.ndarray:
    """Entropy-maximizing element of the fixed-point set.

    `right` and `left` hold the real right and left null vectors of
    (L - I) as columns; `right` is an orthonormal Hermitian basis of the
    fixed space.  The spectral projector R (Ul^T R)^-1 Ul^T maps I/d to
    the Cesaro limit of its orbit: a fixed state whose support contains
    the support of every fixed state.  On that support the entropy is
    strictly concave over the traceless fixed directions D_i, and Newton
    steps, halved while they leave the positive-definite cone, drive its
    gradient -Tr(D_i log sigma) to 0.  A step still outside the cone after
    ``_MAX_HALVINGS`` halvings raises :class:`NoFixedPointNumerical` at
    once, naming the step.
    """
    mixed = np.zeros(dim * dim)
    mixed[:dim] = 1 / dim
    limit = right @ np.linalg.solve(left.T @ right, left.T @ mixed)
    w, v = np.linalg.eigh(_hermitian(limit, dim))
    keep = w > TOL_PSD
    support = v[:, keep]

    _, _, vh = np.linalg.svd(right[:dim].sum(axis=0)[None, :])
    directions = _hermitian(vh[1:] @ right.T, dim)
    directions = support.conj().T @ directions @ support
    directions = (directions + directions.conj().transpose(0, 2, 1)) / 2

    lam = w[keep] / w[keep].sum()
    q = np.eye(lam.size, dtype=complex)
    sigma = np.diag(lam).astype(complex)
    for newton in range(_MAX_NEWTON):
        rotated = (q.conj().T @ directions @ q).reshape(len(directions), -1)
        log_lam = np.log(lam)
        grad = -(rotated[:, :: lam.size + 1].real @ log_lam)
        if grad.size == 0 or np.abs(grad).max() < _KKT_TOL:
            return support @ sigma @ support.conj().T
        gap = np.subtract.outer(lam, lam)
        flat = np.abs(gap) <= 1e-12 * lam.max()
        gamma = np.where(
            flat, 2 / np.add.outer(lam, lam),
            np.subtract.outer(log_lam, log_lam) / np.where(flat, 1.0, gap),
        )
        # minus the Hessian of the entropy over the directions
        hess = ((rotated.conj() * gamma.ravel()) @ rotated.T).real
        step = np.tensordot(np.linalg.solve(hess, grad), directions, axes=1)
        for _ in range(_MAX_HALVINGS + 1):
            trial = sigma + step
            lam_t, q_t = np.linalg.eigh(trial)
            if lam_t.min() > 0:
                sigma, lam, q = trial, lam_t, q_t
                break
            step = step / 2
        else:
            raise NoFixedPointNumerical(
                f"max-entropy Newton step {newton + 1} leaves the positive-"
                f"definite cone after {_MAX_HALVINGS} halvings: smallest "
                f"trial eigenvalue {lam_t.min():.3e}"
            )
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
    or |(L - I) x| > ``SVD_CUTOFF`` |x|.  It stays the oracle of that
    certificate.
    """
    uu, svals, vh = np.linalg.svd(m - np.eye(m.shape[0]))
    null_mask = svals <= SVD_CUTOFF
    if not null_mask.any():
        raise NoFixedPointNumerical(
            f"smallest singular value of ({name} - I) is {svals.min():.3e}; "
            f"no {what} found"
        )
    return uu, svals, vh, null_mask


def _certified_fixed_point(real: np.ndarray, dim: int) -> np.ndarray | None:
    """x = B^-1 e_0 when the certificate of the module docstring holds
    for A = `real` - I, else None.

    x has trace 1 and (A x)_i = 0 for i > 0, and (A x)_0 = 0 as well in
    exact arithmetic: the map preserves trace, so row 0 of A is minus the
    sum of the other diagonal rows.  x is taken by one LU solve; then a
    Cholesky factorization of H = fl(C - s I), C = fl(B^T B), that runs
    to completion proves s_min(B) > tau = ``SVD_CUTOFF`` for the shift
    s = tau^2 + (n + 2) eps tr C.  With u = eps / 2 and
    gamma_k = k u / (1 - k u), the shift covers three roundings:

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
    s itself while n < 10^7: lambda_min(B^T B) > tau^2.  B is factorized
    only after x passes |A x| <= tau |x|.
    """
    n = real.shape[0]
    bordered = real.copy()
    bordered.flat[::n + 1] -= 1.0
    bordered[0] = 0.0
    bordered[0, :dim] = 1.0
    e0 = np.zeros(n)
    e0[0] = 1.0
    try:
        x = np.linalg.solve(bordered, e0)
    except np.linalg.LinAlgError:
        return None
    if not (np.linalg.norm(real @ x - x)
            <= SVD_CUTOFF * np.linalg.norm(x)):
        return None
    gram = bordered.T @ bordered
    del bordered  # the factorization holds two more n x n arrays
    gram.flat[::n + 1] -= (SVD_CUTOFF**2
                           + (n + 2) * np.finfo(float).eps * gram.trace())
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return None
    return x


def fixed_point(u, rho_cr, policy: Policy = "require_unique") -> FixedPointResult:
    """Solve the self-consistency condition for the CTC state.

    The eigenvalue-1 eigenspace of the map on Hermitian matrices is the
    null space of the real A = L - I, with singular-value cutoff
    ``SVD_CUTOFF``.  A unique fixed point is taken from one LU solve of
    the bordered B, A with row 0 replaced by the trace row: x = B^-1 e_0
    is certified when a shifted Cholesky factorization proves
    s_(n-1)(A) >= s_min(B) > ``SVD_CUTOFF`` and s_min(A) <= |A x| / |x|
    <= ``SVD_CUTOFF``, which leave exactly one singular value null.
    Otherwise (B singular, the factorization failing or the residual
    too large) the null space is extracted by SVD (:func:`null_space`),
    and a one-dimensional one gives its null vector over its trace.  Under
    ``require_unique`` a multi-dimensional fixed space raises
    :class:`NonUniqueFixedPoint`; under ``max_entropy`` the
    entropy-maximizing fixed density matrix is returned.  It is found
    from the Cesaro limit of I/d, taken in closed form from the left and
    right null vectors, by Newton steps on that state's support; a KKT
    gradient still above ``_KKT_TOL`` after ``_MAX_NEWTON`` steps, or a
    step outside the positive-definite cone after ``_MAX_HALVINGS``
    halvings, raises :class:`NoFixedPointNumerical`.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    real = _hermitian_superoperator(u, rho_cr)
    dim = int(round(np.sqrt(real.shape[0])))
    x = _certified_fixed_point(real, dim)
    if x is not None:
        return _finalize(u, rho_cr, _hermitian(x, dim), 1)
    uu, _, vh, null_mask = null_space(real, "L", "fixed space")
    fixed_space_dim = int(null_mask.sum())
    if fixed_space_dim == 1:
        x = vh[null_mask][0]
        trace = x[:dim].sum()
        if abs(trace) < 1e-12:
            raise NoFixedPointNumerical(
                "fixed-space eigenvector is traceless; no density-matrix solution"
            )
        return _finalize(u, rho_cr, _hermitian(x / trace, dim), fixed_space_dim)
    if policy == "require_unique":
        raise NonUniqueFixedPoint(fixed_space_dim)
    sigma = _max_entropy_fixed_point(vh[null_mask].T, uu[:, null_mask], dim)
    return _finalize(u, rho_cr, sigma, fixed_space_dim)
