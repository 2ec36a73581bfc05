"""Seeded random inputs for property tests and demos."""

from __future__ import annotations

import numpy as np

from .linalg import DensityMatrix, StateSet, StateVector, UnitaryMatrix

_MAX_PAIRWISE_FIDELITY = 0.9


def haar_state(dim: int, rng: np.random.Generator) -> StateVector:
    """Haar-random pure state."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(z / np.linalg.norm(z))


def haar_unitary(dim: int, rng: np.random.Generator) -> UnitaryMatrix:
    """Haar-random unitary via phase-fixed QR of a complex Gaussian."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return UnitaryMatrix(q * phases)


def random_density_matrix(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Full-rank random mixed state (normalized Wishart)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace())


def random_state_set(n: int, rng: np.random.Generator) -> StateSet:
    """N random distinct states in N dimensions.

    Resamples until every pairwise fidelity stays below
    ``_MAX_PAIRWISE_FIDELITY``, which keeps the discrimination problem
    numerically well separated without making the states orthogonal.
    """
    for _ in range(1000):
        states = StateSet(tuple(haar_state(n, rng) for _ in range(n)))
        fids = np.abs(states.amplitudes.conj() @ states.amplitudes.T) ** 2
        if fids[np.triu_indices(n, 1)].max(initial=0.0) < _MAX_PAIRWISE_FIDELITY:
            return states
    raise RuntimeError("could not sample a well-separated state set")
