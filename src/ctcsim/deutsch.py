"""Fixed-point engine for the Deutsch closed-timelike-curve model.

A CTC state sigma interacting once with a chronology-respecting state
rho_cr under a joint unitary u (CR register first) must satisfy the
self-consistency condition

    sigma = Tr_CR[ u (rho_cr (x) sigma) u^dagger ],

and the chronology-respecting output is the complementary trace.  The
solver is spectral: the map is linearized over vectorized sigma, the
eigenvalue-1 space is extracted as the null space of (L - I) by SVD,
and the density-matrix solution is reconstructed from it.  This finds
all fixed points and therefore detects non-uniqueness, which an
iterative solver cannot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import DimensionError, NoFixedPointNumerical, NonUniqueFixedPoint
from .linalg import (
    DensityMatrix,
    TOL_PSD,
    _as_matrix,
    partial_trace,
    tensor_product,
)

TOL_FIX = 1e-8
SVD_CUTOFF = 1e-9

Policy = Literal["require_unique", "max_entropy"]

_ENTROPY_STOP = 1e-10
_MAX_SWEEPS = 200


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


def _unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return v.reshape(dim, dim, order="F")


def superoperator_matrix(u, rho_cr) -> np.ndarray:
    """Linearization L of the self-consistency map over vectorized sigma.

    Column-stacking convention: vec(map(sigma)) = L @ vec(sigma).  L is
    assembled from the Kraus form of the map, K_{a,b} = sqrt(p_b)
    (<a| (x) I) u (|chi_b> (x) I) with rho_cr = sum_b p_b
    |chi_b><chi_b|, so that L = sum_{a,b} conj(K_{a,b}) (x) K_{a,b}.
    """
    u = _as_matrix(u)
    rho_cr = _as_matrix(rho_cr)
    cr_dim, ctc_dim = _split_dims(u, rho_cr)
    weights, vectors = np.linalg.eigh((rho_cr + rho_cr.conj().T) / 2)
    # drop the rounding-noise weights eigh leaves on a pure rho_cr
    keep = weights > weights.max() * cr_dim * np.finfo(float).eps
    u4 = u.reshape(cr_dim, ctc_dim, cr_dim, ctc_dim)
    # blocks[a, :, :, b] = (<a| (x) I) u (|chi_b> (x) I); one Kraus op a row
    blocks = np.tensordot(u4, vectors[:, keep], axes=([2], [0]))
    kraus = (blocks * np.sqrt(weights[keep])).transpose(3, 0, 1, 2)
    kraus = kraus.reshape(-1, ctc_dim**2)
    L = (kraus.conj().T @ kraus).reshape(ctc_dim, ctc_dim, ctc_dim, ctc_dim)
    return L.transpose(0, 2, 1, 3).reshape(ctc_dim**2, ctc_dim**2)


def von_neumann_entropy(state) -> float:
    """Entropy -Tr(rho ln rho) in nats."""
    m = _as_matrix(state)
    w = np.linalg.eigvalsh((m + m.conj().T) / 2)
    w = w[w > 1e-15]
    return float(-(w * np.log(w)).sum())


def _density_from_vector(v: np.ndarray, dim: int) -> np.ndarray:
    """Turn a raw fixed-space eigenvector into a density matrix.

    Numerical eigenvectors carry an arbitrary global phase, which must
    be rotated out (via the trace) before Hermitization, or a phase
    near +-i would annihilate the Hermitian part entirely.
    """
    m = _unvec(v, dim)
    tr = m.trace()
    if abs(tr) < 1e-12:
        raise NoFixedPointNumerical(
            "fixed-space eigenvector is traceless; no density-matrix solution"
        )
    m = m * (tr.conjugate() / abs(tr))
    m = (m + m.conj().T) / 2
    return m / m.trace().real


def _finalize(u, rho_cr, sigma: np.ndarray, fixed_space_dim: int) -> FixedPointResult:
    eigmin = np.linalg.eigvalsh(sigma).min()
    if eigmin < -TOL_PSD:
        raise NoFixedPointNumerical(
            f"candidate fixed point has negative eigenvalue {eigmin:.3e}"
        )
    residual = consistency_residual(u, rho_cr, sigma)
    if residual > TOL_FIX:
        raise NoFixedPointNumerical(
            f"candidate fixed point has residual {residual:.3e} > {TOL_FIX}"
        )
    return FixedPointResult(
        fixed_point=DensityMatrix(sigma),
        residual=residual,
        fixed_space_dim=fixed_space_dim,
        unique=fixed_space_dim == 1,
    )


def _hermitian_fixed_basis(null_vecs: np.ndarray, dim: int) -> list[np.ndarray]:
    """Orthonormal Hermitian basis of the fixed subspace.

    The map preserves hermiticity, so the fixed space is closed under
    dagger and is spanned by Hermitian elements.
    """
    raw: list[np.ndarray] = []
    for v in null_vecs:
        b = _unvec(v, dim)
        raw.append((b + b.conj().T) / 2)
        raw.append((b - b.conj().T) / 2j)
    rows = np.array([
        np.concatenate([h.real.ravel(), h.imag.ravel()]) for h in raw
    ])
    _, svals, vh = np.linalg.svd(rows, full_matrices=False)
    basis = []
    for s, row in zip(svals, vh):
        if s <= 1e-10:
            continue
        re, im = row[: dim * dim], row[dim * dim:]
        basis.append((re + 1j * im).reshape(dim, dim))
    return basis


def _project_to_span(m: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    out = np.zeros_like(m)
    for h in basis:
        out = out + np.real(np.trace(h.conj().T @ m)) * h
    return out


def _entropy_or_neg_inf(sigma: np.ndarray) -> float:
    w = np.linalg.eigvalsh(sigma)
    if w.min() < -1e-12:
        return -np.inf
    w = w[w > 1e-15]
    return float(-(w * np.log(w)).sum())


def _line_max_entropy(sigma: np.ndarray, direction: np.ndarray) -> tuple[np.ndarray, float]:
    """Maximize entropy along sigma + t * direction inside the PSD cone."""

    def feasible(t: float) -> bool:
        return np.linalg.eigvalsh(sigma + t * direction).min() >= -1e-12

    def boundary(sign: float) -> float:
        t = sign * 0.25
        while feasible(t) and abs(t) < 1e6:
            t *= 2
        lo, hi = 0.0, t
        for _ in range(40):
            mid = (lo + hi) / 2
            if feasible(mid):
                lo = mid
            else:
                hi = mid
        return lo

    lo, hi = boundary(-1.0), boundary(+1.0)
    for _ in range(60):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if _entropy_or_neg_inf(sigma + m1 * direction) < _entropy_or_neg_inf(sigma + m2 * direction):
            lo = m1
        else:
            hi = m2
    t_best = (lo + hi) / 2
    here = _entropy_or_neg_inf(sigma)
    there = _entropy_or_neg_inf(sigma + t_best * direction)
    # refuse steps at the noise floor so the iterate cannot drift
    if there <= here + 1e-14:
        return sigma, here
    return sigma + t_best * direction, there


def _max_entropy_fixed_point(u, rho_cr, null_vecs: np.ndarray,
                             dim: int) -> np.ndarray:
    """Entropy-maximizing element of the fixed-point set.

    Start from the projection of the maximally mixed state onto the
    fixed subspace (falling back to a Cesaro-averaged orbit of it when
    that projection is not positive), then refine by gradient-free
    coordinate ascent along traceless fixed directions until the
    entropy improvement of a full sweep drops below 1e-10.
    """
    basis = _hermitian_fixed_basis(null_vecs, dim)
    sigma = _project_to_span(np.eye(dim) / dim, basis)
    tr = sigma.trace().real
    if abs(tr) < 1e-12 or np.linalg.eigvalsh(sigma / tr).min() < -1e-10:
        # Cesaro mean of the orbit of I/d converges into the fixed set
        # and every partial average is a valid density matrix.
        z = np.eye(dim, dtype=complex) / dim
        avg = z.copy()
        for t in range(1, 4000):
            z = ctc_map(u, rho_cr, z).entries
            avg = avg * (t / (t + 1)) + z / (t + 1)
            if t % 50 == 0 and consistency_residual(u, rho_cr, avg) < 1e-11:
                break
        sigma = _project_to_span(avg, basis)
        tr = sigma.trace().real
    sigma = (sigma + sigma.conj().T) / 2 / tr

    traces = np.array([h.trace().real for h in basis])
    _, _, vh = np.linalg.svd(traces[None, :])
    directions = []
    for row in vh[1:]:
        d = sum(c * h for c, h in zip(row, basis))
        directions.append((d + d.conj().T) / 2)

    best = _entropy_or_neg_inf(sigma)
    for _ in range(_MAX_SWEEPS):
        before = best
        for d in directions:
            sigma, best = _line_max_entropy(sigma, d)
        if best - before < _ENTROPY_STOP:
            break
    return sigma


def fixed_point(u, rho_cr, policy: Policy = "require_unique") -> FixedPointResult:
    """Solve the self-consistency condition for the CTC state.

    The eigenvalue-1 eigenspace of the linearized map is the null space
    of (L - I), extracted by SVD with singular-value cutoff
    ``SVD_CUTOFF``.  Under ``require_unique`` a multi-dimensional fixed
    space raises :class:`NonUniqueFixedPoint`; under ``max_entropy`` the
    entropy-maximizing fixed density matrix is returned.
    """
    if policy not in ("require_unique", "max_entropy"):
        raise ValueError(f"unknown policy {policy!r}")
    L = superoperator_matrix(u, rho_cr)
    dim = int(round(np.sqrt(L.shape[0])))
    _, svals, vh = np.linalg.svd(L - np.eye(dim * dim))
    null_mask = svals <= SVD_CUTOFF
    fixed_space_dim = int(null_mask.sum())
    if fixed_space_dim == 0:
        raise NoFixedPointNumerical(
            f"smallest singular value of (L - I) is {svals.min():.3e}; "
            "no fixed space found"
        )
    null_vecs = vh[null_mask].conj()
    if fixed_space_dim == 1:
        sigma = _density_from_vector(null_vecs[0], dim)
        return _finalize(u, rho_cr, sigma, fixed_space_dim)
    if policy == "require_unique":
        raise NonUniqueFixedPoint(fixed_space_dim)
    sigma = _max_entropy_fixed_point(u, rho_cr, null_vecs, dim)
    return _finalize(u, rho_cr, sigma, fixed_space_dim)
