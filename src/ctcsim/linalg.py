"""Dense complex linear algebra shared by every other module.

Conventions fixed here, once, for the whole package:

* Kronecker products are row-major with the first factor as the slow
  index.  A composite system therefore always stores the
  chronology-respecting register first and the CTC register second.
* Residuals are measured in the max-entry norm unless stated otherwise,
  and tolerances are absolute.
* Every unitary the constructions need is a basis completion by
  :func:`unitary_from_first_column`: two classical Gram-Schmidt passes
  per vector against all accepted columns at once.

The wrapper types (:class:`StateVector`, :class:`DensityMatrix`,
:class:`UnitaryMatrix`, :class:`StateSet`) enforce only structural shape
at construction.  Numeric invariants (normalization, hermiticity, unit
trace, positivity, unitarity, distinctness) are checked by
:func:`validate`, which reports instead of raising; operations that need
an invariant check it themselves at their boundary.  A
:class:`StateSet` holds its N members as the rows of one read-only
N x N array, which the constructions read whole.  A set is distinct when
every pair leaves condition (2) of the discrimination circuit the room
:func:`condition2_room` measures; its ``distinct`` residual is the least room.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Literal, Sequence

import numpy as np

from .errors import DimensionError, NormalizationError

TOL_NORM = 1e-10
TOL_HERM = 1e-10
TOL_UNI = 1e-10
TOL_GS = 1e-10
TOL_PSD = 1e-9
SVD_CUTOFF = 1e-9


def _frozen_complex_array(values, ndim: int, what: str) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if arr.ndim != ndim or arr.size == 0:
        raise DimensionError(f"{what} must be a nonempty {ndim}-d complex array")
    if ndim == 2 and arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{what} must be square, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class StateVector:
    """A pure state held as a complex amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "amplitudes",
            _frozen_complex_array(self.amplitudes, 1, "state vector"),
        )

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.amplitudes, dtype=dtype)


@dataclass(frozen=True, eq=False)
class _SquareMatrix:
    """A d x d complex matrix; subclasses name what it is expected to be."""

    entries: np.ndarray
    _what: ClassVar[str]

    def __post_init__(self):
        object.__setattr__(
            self, "entries",
            _frozen_complex_array(self.entries, 2, self._what),
        )

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.entries, dtype=dtype)


class DensityMatrix(_SquareMatrix):
    """A mixed or pure state held as a d x d complex matrix."""

    _what = "density matrix"


class UnitaryMatrix(_SquareMatrix):
    """An operator held as a d x d complex matrix, expected unitary."""

    _what = "unitary matrix"


@dataclass(frozen=True, eq=False)
class StateSet:
    """N states in an N-dimensional space, member k being row k of the
    read-only N x N array `amplitudes`; members read back as
    :class:`StateVector`.  `least_room` is measured on first read and
    kept, so that ``validate`` and the discrimination circuit built on
    the set share one :func:`condition2_room`."""

    amplitudes: np.ndarray

    def __post_init__(self):
        n = len(self.amplitudes)
        if n == 0:
            raise DimensionError("state set must contain at least one state")
        try:
            amps = np.array(self.amplitudes, dtype=complex)
        except ValueError:  # members of unequal lengths
            amps = None
        if amps is None or amps.shape != (n, n):
            raise DimensionError(
                f"a set of {n} states must live in a {n}-dimensional space"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def size(self) -> int:
        return len(self.amplitudes)

    def __len__(self) -> int:
        return len(self.amplitudes)

    def __iter__(self):
        return map(StateVector, self.amplitudes)

    def __getitem__(self, k: int) -> StateVector:
        return StateVector(self.amplitudes[k])

    @cached_property
    def least_room(self) -> tuple[np.ndarray, np.ndarray, float]:
        """For each member k, the least room min_j room[j, k] of
        :func:`condition2_room` and the first j that reaches it, and the
        least room condition (2) needs."""
        room, least = condition2_room(self)
        first = room.argmin(axis=0)
        rooms = room[first, np.arange(len(room))]
        rooms.setflags(write=False)
        first.setflags(write=False)
        return rooms, first, least


def _as_vector(v) -> np.ndarray:
    arr = np.asarray(v, dtype=complex)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionError("expected a nonempty 1-d complex vector")
    return arr


def _as_matrix(m) -> np.ndarray:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.size == 0:
        raise DimensionError("expected a nonempty 2-d complex matrix")
    return arr


def basis_state(dim: int, index: int) -> StateVector:
    """Computational basis vector |index> in `dim` dimensions."""
    if not 0 <= index < dim:
        raise DimensionError(f"basis index {index} out of range for dim {dim}")
    amp = np.zeros(dim, dtype=complex)
    amp[index] = 1.0
    return StateVector(amp)


def projector(state) -> np.ndarray:
    """Rank-1 projector |psi><psi| as a plain array."""
    v = _as_vector(state)
    return np.outer(v, v.conj())


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product with the first factor as the slow index.

    out[i*p + k, j*q + l] = a[i, j] * b[k, l] for b of shape (p, q).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or b.ndim != 2 or a.size == 0 or b.size == 0:
        raise DimensionError("tensor_product operands must be nonempty matrices")
    # np.kron's products, one an entry, at a fifth of its fixed cost
    return (a[:, None, :, None] * b[:, None]).reshape(len(a) * len(b), -1)


def partial_trace(m, dim_a: int, dim_b: int,
                  keep: Literal["first", "second"]) -> np.ndarray:
    """Trace out one factor of a (dim_a * dim_b)-dimensional operator.

    `keep="first"` returns the reduced operator on the slow (first)
    subsystem, `keep="second"` on the fast one.  The total trace is
    preserved.
    """
    m = _as_matrix(m)
    d = dim_a * dim_b
    if m.shape != (d, d):
        raise DimensionError(
            f"matrix of shape {m.shape} does not factor as {dim_a} x {dim_b}"
        )
    r = m.reshape(dim_a, dim_b, dim_a, dim_b)
    if keep == "first":
        return np.einsum("ijkj->ik", r)
    if keep == "second":
        return np.einsum("ijil->jl", r)
    raise ValueError(f"keep must be 'first' or 'second', got {keep!r}")


def unitary_from_first_column(first, candidates: Sequence = ()) -> UnitaryMatrix:
    """Complete a normalized vector to a unitary whose column 0 it is.

    The remaining columns come from the `candidates` in order, then the
    standard basis vectors in index order.  Each is projected off the
    columns accepted so far by two classical Gram-Schmidt passes, which
    keep the columns orthonormal to rounding (Giraud, Langou & Rozloznik,
    Comput. Math. Appl. 50, 2005); vectors whose residual drops below
    ``TOL_GS`` are skipped.  Column 0 equals `first` exactly.
    """
    v0 = _as_vector(first)
    if abs(np.linalg.norm(v0) - 1.0) > TOL_NORM:
        raise NormalizationError(
            f"first column has norm {np.linalg.norm(v0):.12g}, expected 1"
        )
    dim = v0.size
    pool: list[np.ndarray] = []
    for c in candidates:
        cv = _as_vector(c)
        if cv.size != dim:
            raise DimensionError(
                f"candidate of dim {cv.size} does not match first column dim {dim}"
            )
        pool.append(cv)
    pool.extend(np.eye(dim, dtype=complex))
    cols = np.zeros((dim, dim), dtype=complex)
    cols[:, 0] = v0
    filled = 1
    for vec in pool:
        if filled == dim:
            break
        q = cols[:, :filled]
        r = vec - q @ (q.conj().T @ vec)
        r -= q @ (q.conj().T @ r)
        nrm = np.linalg.norm(r)
        if nrm < TOL_GS:
            continue
        cols[:, filled] = r / nrm
        filled += 1
    if filled != dim:
        raise RuntimeError("basis completion failed to reach full rank")
    return UnitaryMatrix(cols)


def state_fidelity(a, b) -> float:
    """Squared overlap |<a|b>|^2; invariant under global phases."""
    va = _as_vector(a)
    vb = _as_vector(b)
    if va.size != vb.size:
        raise DimensionError(
            f"states of dims {va.size} and {vb.size} cannot overlap"
        )
    f = abs(np.vdot(va, vb)) ** 2
    return float(min(max(f, 0.0), 1.0))


@dataclass(frozen=True)
class InvariantCheck:
    """Outcome of one invariant: the measured residual and its threshold."""

    name: str
    passed: bool
    residual: float
    tolerance: float


@dataclass(frozen=True)
class ValidityReport:
    """Pass/fail per invariant of one domain object."""

    kind: str
    checks: tuple[InvariantCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[InvariantCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


def _check(name: str, residual: float, tolerance: float) -> InvariantCheck:
    residual = float(residual)
    return InvariantCheck(name, residual <= tolerance, residual, float(tolerance))


def condition2_threshold(n: int) -> float:
    """Least overlap^2 of condition (2): keeps chain gaps over ``SVD_CUTOFF``."""
    return float(10 * SVD_CUTOFF * np.sqrt(n - 1))


def condition2_room(states: StateSet) -> tuple[np.ndarray, float]:
    """``room[j, k] = |psi_j|^2 (1 - F_jk)`` (inf for j = k), which caps
    |<j|U_k|psi_j>|^2 once U_k psi_k = |k>, and the least room condition
    (2) needs: its threshold less 8 N eps, the rounding that room and the
    overlaps each carry.  A zero member has room 0."""
    amps = states.amplitudes
    n = len(amps)
    norms2 = np.linalg.norm(amps, axis=1) ** 2
    overlap2 = np.abs(amps.conj() @ amps.T) ** 2
    room = norms2[:, None] - overlap2 / np.maximum(norms2, np.finfo(float).tiny)
    np.fill_diagonal(room, np.inf)
    return room, float(condition2_threshold(n) - 8 * n * np.finfo(float).eps)


@np.errstate(all="ignore")
def validate(obj) -> ValidityReport:
    """Measure every invariant of a domain object; reports, never raises.

    A non-finite entry fails its checks with a nan residual, without
    numpy's floating-point warnings.
    """
    if isinstance(obj, StateVector):
        return ValidityReport("StateVector", (
            _check("norm", abs(np.linalg.norm(obj.amplitudes) - 1.0), TOL_NORM),
        ))
    if isinstance(obj, DensityMatrix):
        m = obj.entries
        herm = np.abs(m - m.conj().T).max()
        trace = abs(m.trace() - 1.0)
        eigmin = (np.linalg.eigvalsh((m + m.conj().T) / 2).min()
                  if np.isfinite(m).all() else np.nan)
        return ValidityReport("DensityMatrix", (
            _check("hermitian", herm, TOL_HERM),
            _check("unit_trace", trace, TOL_NORM),
            # np.maximum, unlike max, keeps a nan
            _check("positive_semidefinite", np.maximum(0.0, -eigmin), TOL_PSD),
        ))
    if isinstance(obj, UnitaryMatrix):
        u = obj.entries
        res = np.abs(u.conj().T @ u - np.eye(obj.dim)).max()
        return ValidityReport("UnitaryMatrix", (
            _check("unitary", res, TOL_UNI),
        ))
    if isinstance(obj, StateSet):
        worst_norm = np.abs(np.linalg.norm(obj.amplitudes, axis=1) - 1.0).max()
        rooms, _, least = obj.least_room
        worst = float(rooms.min())
        return ValidityReport("StateSet", (
            _check("members_normalized", worst_norm, TOL_NORM),
            InvariantCheck("distinct", worst >= least, worst, least),
        ))
    raise TypeError(f"validate() does not know the type {type(obj).__name__}")
