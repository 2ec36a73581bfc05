import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HADAMARD, PAULI_X, S
from ctcsim import sampling
from ctcsim import (
    DensityMatrix,
    DimensionError,
    NormalizationError,
    StateSet,
    StateVector,
    UnitaryMatrix,
    basis_state,
    partial_trace,
    projector,
    state_fidelity,
    tensor_product,
    unitary_from_first_column,
    validate,
)
from ctcsim.sampling import haar_state, random_state_set


# ---------------------------------------------------------------------------
# tensor_product


def test_tensor_identity_case():
    assert np.array_equal(tensor_product(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_composes_controlled_hadamard():
    built = (tensor_product(np.diag([1, 0]), np.eye(2))
             + tensor_product(np.diag([0, 1]), HADAMARD))
    expected = np.array([
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, S, S],
        [0, 0, S, -S],
    ], dtype=complex)
    assert np.abs(built - expected).max() < 1e-15


def test_tensor_matches_direct_multiplication():
    # oracle: multiply the two lifted factors directly as 4x4 matrices
    lhs = tensor_product(PAULI_X, np.eye(2)) @ tensor_product(np.eye(2), PAULI_X)
    assert np.abs(lhs - tensor_product(PAULI_X, PAULI_X)).max() == 0.0


def test_tensor_associative_on_random_factors():
    rng = np.random.default_rng(11)
    for _ in range(50):
        dims = rng.integers(2, 4, size=3)
        a, b, c = (
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for d in dims
        )
        left = tensor_product(a, tensor_product(b, c))
        right = tensor_product(tensor_product(a, b), c)
        assert np.abs(left - right).max() < 1e-12


def test_tensor_rejects_empty():
    with pytest.raises(DimensionError):
        tensor_product(np.zeros((0, 0)), np.eye(2))


# ---------------------------------------------------------------------------
# partial_trace


def test_partial_trace_product_state():
    m = tensor_product(projector(basis_state(2, 0)), projector(basis_state(2, 1)))
    reduced = partial_trace(m, 2, 2, "second")
    assert np.abs(reduced - projector(basis_state(2, 1))).max() < 1e-15


def test_partial_trace_bell_projector():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = S
    m = projector(bell)
    # oracle: sum the two diagonal 2x2 blocks by hand
    blocks = m.reshape(2, 2, 2, 2)
    by_hand = blocks[0, :, 0, :] + blocks[1, :, 1, :]
    reduced = partial_trace(m, 2, 2, "first")
    assert np.abs(reduced - by_hand).max() < 1e-15
    assert np.abs(reduced - np.eye(2) / 2).max() < 1e-15


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    for keep in ("first", "second"):
        assert abs(partial_trace(m, 3, 4, keep).trace() - m.trace()) < 1e-10


def test_partial_trace_of_product_factors():
    rng = np.random.default_rng(7)
    for da in (2, 3, 4):
        for db in (2, 3, 4):
            ga = rng.standard_normal((da, da)) + 1j * rng.standard_normal((da, da))
            gb = rng.standard_normal((db, db)) + 1j * rng.standard_normal((db, db))
            rho = ga @ ga.conj().T
            rho /= rho.trace()
            sig = gb @ gb.conj().T
            sig /= sig.trace()
            got = partial_trace(tensor_product(rho, sig), da, db, "first")
            assert np.abs(got - rho * sig.trace()).max() < 1e-12


def test_partial_trace_dimension_mismatch():
    with pytest.raises(DimensionError):
        partial_trace(np.eye(5), 2, 2, "first")


def test_partial_trace_bad_selector():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), 2, 2, "third")


# ---------------------------------------------------------------------------
# unitary_from_first_column


def test_completion_already_orthonormal_gives_identity():
    u = unitary_from_first_column(basis_state(2, 0),
                                  [basis_state(2, 0), basis_state(2, 1)])
    assert np.abs(u.entries - np.eye(2)).max() == 0.0


def test_completion_of_plus_state():
    plus = StateVector([S, S])
    u = unitary_from_first_column(plus, [])
    assert np.array_equal(u.entries[:, 0], plus.amplitudes)
    assert np.abs(u.entries.conj().T @ u.entries - np.eye(2)).max() < 1e-10


def test_completion_reproduces_reference_columns(zero_minus_set):
    # omega for {|0>, |->} at equal amplitudes; the reference second
    # column is fixed up to a phase
    raw = S * zero_minus_set[0].amplitudes + S * zero_minus_set[1].amplitudes
    omega = StateVector(raw / np.linalg.norm(raw))
    u = unitary_from_first_column(omega, zero_minus_set.amplitudes)
    assert np.abs(u.entries[:, 0] - omega.amplitudes).max() == 0.0
    ref_col1 = np.array([0.38268343236508978, 0.92387953251128674])
    overlap = np.vdot(ref_col1, u.entries[:, 1])
    phase = overlap / abs(overlap)
    assert np.abs(u.entries[:, 1] - phase * ref_col1).max() < 1e-12


def test_completion_always_unitary():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        dim = int(rng.integers(2, 7))
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        first = StateVector(z / np.linalg.norm(z))
        n_cand = int(rng.integers(0, dim + 2))
        cands = []
        for _ in range(n_cand):
            c = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            # occasionally feed a dependent candidate to exercise skipping
            if rng.random() < 0.3 and cands:
                c = cands[-1] * (1 + 1e-13)
            cands.append(c / np.linalg.norm(c))
        u = unitary_from_first_column(first, [StateVector(c) for c in cands])
        res = np.abs(u.entries.conj().T @ u.entries - np.eye(dim)).max()
        assert res <= 1e-10


def test_completion_skips_dependent_candidate_before_basis_fallback():
    # omega lies in span(psi_0, psi_1): psi_0 gives column 1, psi_1 leaves
    # no residual and is skipped, and psi_2 (not |0>) gives column 2
    rng = np.random.default_rng(7)
    psi = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    raw = 0.6 * psi[0] + (0.3 - 0.7j) * psi[1]
    omega = raw / np.linalg.norm(raw)
    u = unitary_from_first_column(omega, [StateVector(p) for p in psi]).entries
    q, r = np.linalg.qr(np.column_stack([omega, psi[0], psi[2]]))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    assert np.array_equal(u[:, 0], omega)
    assert np.abs(u - q).max() <= 1e-12


def test_completion_orthonormal_for_nearly_dependent_candidates():
    # each candidate leaves a residual of about 1e-8, above TOL_GS: one
    # Gram-Schmidt pass would lose orthogonality at about 1e-8
    rng = np.random.default_rng(11)
    for dim in (3, 6, 12):
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        first = z / np.linalg.norm(z)
        cands = []
        for _ in range(dim - 1):
            d = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            c = first + 1e-8 * d / np.linalg.norm(d)
            cands.append(c / np.linalg.norm(c))
        u = unitary_from_first_column(first, cands).entries
        assert np.abs(u.conj().T @ u - np.eye(dim)).max() <= 1e-12


def test_completion_rejects_unnormalized_first():
    with pytest.raises(NormalizationError):
        unitary_from_first_column(StateVector([1, 1]))


def test_completion_rejects_mismatched_candidate():
    with pytest.raises(DimensionError):
        unitary_from_first_column(basis_state(2, 0), [basis_state(3, 0)])


# ---------------------------------------------------------------------------
# state_fidelity


def test_fidelity_self_is_one():
    psi = StateVector([S, S * 1j])
    assert abs(state_fidelity(psi, psi) - 1.0) < 1e-14


def test_fidelity_orthogonal_is_zero():
    assert state_fidelity(basis_state(2, 0), basis_state(2, 1)) == 0.0


def test_fidelity_zero_minus_is_half(zero_minus_set):
    # direct inner product: <0|-> = 1/sqrt(2)
    f = state_fidelity(zero_minus_set[0], zero_minus_set[1])
    assert abs(f - 0.5) < 1e-14


@settings(derandomize=True, max_examples=50)
@given(st.floats(min_value=-10.0, max_value=10.0), st.integers(0, 2**31 - 1))
def test_fidelity_phase_invariant(theta, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    base = state_fidelity(a, b)
    assert abs(state_fidelity(np.exp(1j * theta) * a, b) - base) < 1e-12
    assert abs(state_fidelity(a, np.exp(1j * theta) * b) - base) < 1e-12


def test_fidelity_dimension_mismatch():
    with pytest.raises(DimensionError):
        state_fidelity(basis_state(2, 0), basis_state(3, 0))


# ---------------------------------------------------------------------------
# validate


def test_validate_identity_unitary():
    report = validate(UnitaryMatrix(np.eye(2)))
    assert report.passed
    assert report.checks[0].residual == 0.0


def test_validate_bad_trace_density():
    report = validate(DensityMatrix(np.diag([1.0, 0.5])))
    failed = {c.name for c in report.failures()}
    assert failed == {"unit_trace"}


def test_validate_non_psd_density():
    report = validate(DensityMatrix(np.diag([1.5, -0.5])))
    assert "positive_semidefinite" in {c.name for c in report.failures()}


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_validate_non_finite_density_fails_with_nan(entry):
    m = np.eye(4, dtype=complex) / 4
    m[1, 2] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = validate(DensityMatrix(m))
    (psd,) = [c for c in report.checks if c.name == "positive_semidefinite"]
    assert not psd.passed and np.isnan(psd.residual)
    assert not report.passed


def test_validate_duplicate_state_set():
    dup = StateSet((basis_state(2, 0), basis_state(2, 0)))
    report = validate(dup)
    assert {c.name for c in report.failures()} == {"distinct"}


def test_validate_good_state_set(zero_minus_set):
    assert validate(zero_minus_set).passed


def _pairwise_oracle(states):
    """Worst norm residual and least condition-2 room, one pair at a time."""
    norms = [abs(np.linalg.norm(s.amplitudes) - 1.0) for s in states]
    rooms = []
    for j, psi_j in enumerate(states):
        for k, psi_k in enumerate(states):
            if j != k:
                norm_j = np.vdot(psi_j.amplitudes, psi_j.amplitudes).real
                norm_k = np.vdot(psi_k.amplitudes, psi_k.amplitudes).real
                overlap = abs(np.vdot(psi_j.amplitudes, psi_k.amplitudes)) ** 2
                rooms.append(norm_j - (overlap / norm_k if norm_k else 0.0))
    return max(norms), min(rooms, default=np.inf)


def _haar_set(n, seed):
    rng = np.random.default_rng(seed)
    return StateSet(tuple(haar_state(n, rng) for _ in range(n)))


@pytest.mark.parametrize("states", [
    StateSet((basis_state(1, 0),)),
    StateSet((StateVector([1j]),)),
    StateSet((StateVector([2.0]),)),
    StateSet((basis_state(2, 0), basis_state(2, 0))),
    StateSet((StateVector([S, S]), StateVector([S * 1j, S * 1j]))),
    StateSet((StateVector([0.6, 0.8j, 0]), StateVector([0.6, 0.8j, 0]),
              basis_state(3, 2))),
    StateSet((StateVector([1, 1]), basis_state(2, 1))),
    StateSet((basis_state(2, 0), StateVector([1 - 1e-9, 1e-4]))),
    _haar_set(2, 0), _haar_set(5, 1), _haar_set(16, 2),
], ids=["N=1", "N=1-phase", "N=1-unnormalized", "duplicates",
        "duplicates-up-to-phase", "duplicates-among-three", "unnormalized",
        "near-parallel", "haar-2", "haar-5", "haar-16"])
def test_validate_state_set_matches_pairwise_oracle(states):
    # a pair is distinct when |psi_j|^2 (1 - F_jk) reaches the condition-2
    # threshold 10 SVD_CUTOFF sqrt(N - 1), less 8 N eps of rounding
    worst_norm, least_room = _pairwise_oracle(states)
    n = states.size
    eps = np.finfo(float).eps
    bound = 10 * 1e-9 * np.sqrt(n - 1) - 8 * n * eps
    norm, distinct = validate(states).checks
    assert (norm.name, distinct.name) == ("members_normalized", "distinct")
    assert abs(norm.residual - worst_norm) <= 4 * eps
    assert norm.passed == (norm.residual <= 1e-10)
    assert distinct.tolerance == bound
    assert distinct.passed == (distinct.residual >= bound)
    if n == 1:
        assert distinct.residual == np.inf
    else:
        assert abs(distinct.residual - least_room) <= 8 * eps
        assert distinct.passed == (least_room >= bound)


def _old_random_state_set(n, rng):
    """The pairwise acceptance loop `random_state_set` used to run."""
    for _ in range(1000):
        states = [haar_state(n, rng) for _ in range(n)]
        fids = [
            abs(np.vdot(states[i].amplitudes, states[j].amplitudes)) ** 2
            for i in range(n) for j in range(i + 1, n)
        ]
        if not fids or max(fids) < sampling._MAX_PAIRWISE_FIDELITY:
            return StateSet(tuple(states))
    raise RuntimeError("could not sample a well-separated state set")


@pytest.mark.parametrize("n", range(1, 10))
def test_random_state_set_matches_pairwise_acceptance(n):
    for seed in range(300):
        rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_state_set(n, rng)
        expected = _old_random_state_set(n, old_rng)
        assert all(np.array_equal(a.amplitudes, b.amplitudes)
                   for a, b in zip(got, expected, strict=True))
        # the same number of draws were taken
        assert rng.bit_generator.state == old_rng.bit_generator.state


def test_validate_unnormalized_vector():
    report = validate(StateVector([1, 1]))
    assert not report.passed


def test_state_set_requires_square_shape():
    with pytest.raises(DimensionError):
        StateSet((basis_state(3, 0), basis_state(3, 1)))


def test_state_set_is_one_read_only_array():
    rows = [[1, 0, 0], [S, S * 1j, 0], [0.6, 0, 0.8j]]
    array = np.array(rows, dtype=complex)
    sets = [StateSet(tuple(StateVector(r) for r in rows)), StateSet(rows),
            StateSet(array)]
    for states in sets:
        assert states.amplitudes.dtype == complex
        assert np.array_equal(states.amplitudes, array)
        assert not states.amplitudes.flags.writeable
        assert len(states) == states.size == 3
        members = list(states)
        for k in range(3):
            for member in (states[k], members[k]):
                assert isinstance(member, StateVector)
                assert np.array_equal(member.amplitudes, array[k])
        assert len(members) == 3
    # the set owns a copy; the caller's array stays writable
    assert array.flags.writeable


@pytest.mark.parametrize("members, message", [
    ((), "state set must contain at least one state"),
    ((basis_state(3, 0), basis_state(3, 1)),
     "a set of 2 states must live in a 2-dimensional space"),
    (np.eye(3)[:2], "a set of 2 states must live in a 2-dimensional space"),
    ((basis_state(2, 0), basis_state(3, 1)),
     "a set of 2 states must live in a 2-dimensional space"),
], ids=["empty", "non-square", "non-square-array", "unequal-lengths"])
def test_state_set_shape_errors(members, message):
    with pytest.raises(DimensionError) as err:
        StateSet(members)
    assert str(err.value) == message
