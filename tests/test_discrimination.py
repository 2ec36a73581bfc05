import dataclasses
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import HADAMARD, S, haar_rotated, near_parallel_set, planar_set
from ctcsim import (
    Condition2Exhausted,
    DimensionError,
    DistinguisherBundle,
    InputNotInSetWarning,
    NoFixedPointNumerical,
    NonUniqueFixedPoint,
    StateSet,
    StateVector,
    SuperpositionSpec,
    basis_state,
    build_distinguisher,
    build_uk,
    controlled_stack,
    distinguish,
    distinguish_members,
    projector,
    run_sweep,
    state_fidelity,
    swap_operator,
    tensor_product,
    validate,
)
from ctcsim import deutsch, discrimination
from ctcsim.linalg import TOL_NORM, condition2_room, condition2_threshold
from ctcsim.sampling import haar_state, random_state_set


def orthonormal_set(n):
    return StateSet(tuple(basis_state(n, k) for k in range(n)))


def test_swap_operator_exchanges_registers():
    rng = np.random.default_rng(0)
    for d in (2, 3):
        s = swap_operator(d)
        a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        b = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        assert np.abs(s @ np.kron(a, b) - np.kron(b, a)).max() < 1e-14


def test_build_uk_orthonormal_basis_is_identity():
    states = orthonormal_set(2)
    for k in (0, 1):
        uk = build_uk(states, k)
        assert np.abs(uk.entries - np.eye(2)).max() < 1e-14


def test_build_uk_example_reproduces_hadamard(zero_minus_set):
    u1 = build_uk(zero_minus_set, 1)
    assert np.abs(u1.entries - HADAMARD).max() < 1e-14
    u0 = build_uk(zero_minus_set, 0)
    assert np.abs(u0.entries - np.eye(2)).max() < 1e-14


def test_build_uk_conditions_on_random_set():
    rng = np.random.default_rng(7)
    states = random_state_set(3, rng)
    for k in range(3):
        uk = build_uk(states, k)
        mapped = uk.entries @ states[k].amplitudes
        assert np.linalg.norm(mapped - np.eye(3)[k]) < 1e-9
        for j in range(3):
            assert abs(uk.entries[j] @ states[j].amplitudes) > 1e-6


def test_build_uk_duplicate_states_exhaust_retries():
    dup = StateSet((basis_state(2, 0), basis_state(2, 0)))
    with pytest.raises(Condition2Exhausted):
        build_uk(dup, 0)


@pytest.mark.parametrize("n, delta", [
    (2, 2e-9), (3, 2e-9), (5, 2e-9), (8, 2e-9), (3, 1e-8), (5, 1e-8), (8, 1e-8),
])
def test_build_uk_fails_fast_below_condition2_bound(monkeypatch, n, delta):
    # U_k psi_k = |k> caps <j|U_k|psi_j>^2 at 1 - F_jk, here below the
    # condition-2 threshold, so no completion can help and none runs
    states = near_parallel_set(n, delta)
    assert not validate(states).passed
    completions = []
    for name in ("_first_completions", "unitary_from_first_column"):
        real = getattr(discrimination, name)
        monkeypatch.setattr(discrimination, name, lambda *a, real=real:
                            completions.append(a) or real(*a))
    threshold = 10 * deutsch.SVD_CUTOFF * np.sqrt(n - 1)
    with pytest.raises(Condition2Exhausted) as err:
        build_distinguisher(states)
    assert str(err.value) == (
        f"members 1 and 0 have 1 - F = {delta:.3e}, which keeps overlap^2 "
        f"of U_0 from exceeding {threshold:.3e}")
    assert completions == []


@pytest.mark.parametrize("n, delta", [
    (2, 1e-8), (2, 1e-7), (3, 1e-7), (5, 1e-7), (8, 1e-7),
], ids=["boundary-2", "2", "3", "5", "8"])
def test_near_parallel_sets_above_the_bound_decode(n, delta):
    # at N = 2 and 1 - F = 1e-8 the pair sits on the threshold itself; it
    # builds because build_uk, as validate, allows the 8 N eps of rounding
    states = near_parallel_set(n, delta)
    bundle = build_distinguisher(states)
    for j, psi in enumerate(states):
        assert distinguish(bundle, psi).decoded == j


def _builds_up_front(states):
    """False if build_distinguisher raises Condition2Exhausted before any
    completion, else True (a completion may still raise later)."""
    completions = []
    real = discrimination.unitary_from_first_column
    with mock.patch.object(discrimination, "unitary_from_first_column",
                           lambda *a: completions.append(1) or real(*a)):
        try:
            build_distinguisher(states)
        except Condition2Exhausted as err:
            if not completions:
                assert str(err).startswith("members ")
                return False
    return True


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(2, 8),
       st.one_of(st.floats(0.1, 10.0), st.sampled_from([1 - 1e-9, 1.0, 1 + 1e-9])))
def test_validate_passes_exactly_when_the_distinguisher_can_start(n, factor):
    # near-parallel sets whose least 1 - F sits at `factor` times the
    # condition-2 threshold, on both sides of it
    delta = factor * 10 * deutsch.SVD_CUTOFF * np.sqrt(n - 1)
    states = near_parallel_set(n, delta)
    assert validate(states).passed == _builds_up_front(states)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**31 - 1))
def test_validate_agrees_with_the_distinguisher_on_haar_sets(n, seed):
    rng = np.random.default_rng(seed)
    states = StateSet(tuple(haar_state(n, rng) for _ in range(n)))
    assert validate(states).passed == _builds_up_front(states)


def _bessel_sum(states):
    """max_k sum_{j != k} t / room[j, k]: at 1 or more, and with every
    r_j of U_k parallel, Bessel's inequality leaves no U_k that meets
    condition 2."""
    room, _ = condition2_room(states)
    return float((condition2_threshold(states.size) / room).sum(axis=0).max())


def _family_set(family, n, factor, rng):
    t = condition2_threshold(n)
    if family == "planar":
        return planar_set(n, factor)
    if family == "near-parallel":
        return haar_rotated(near_parallel_set(n, factor * t), rng)
    z = np.array([haar_state(n, rng).amplitudes for _ in range(n)])
    if family == "moved":
        # member 1 at room factor t from member 0, along its own part
        # orthogonal to member 0
        perp = z[1] - np.vdot(z[0], z[1]) * z[0]
        z[1] = (np.sqrt(1 - factor * t) * z[0]
                + np.sqrt(factor * t) * perp / np.linalg.norm(perp))
    return StateSet(z)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.sampled_from(["haar", "moved", "near-parallel", "planar"]),
       st.integers(2, 16), st.floats(1.0, 10.0), st.integers(0, 2**31 - 1))
def test_validated_sets_build_unless_no_completion_exists(family, n, factor,
                                                          seed):
    # the Bessel sum proves that no U_k exists only for planar sets; a
    # rotated near-parallel set at room near t also raises with a sum
    # above 1, though a U_k exists for it (ROADMAP item 9)
    states = _family_set(family, n, factor, np.random.default_rng(seed))
    assume(validate(states).passed)
    try:
        bundle = build_distinguisher(states)
    except Condition2Exhausted:
        assert _bessel_sum(states) >= 1
        return
    assert bundle.condition1_deviation.max() <= 1e-12
    gram = bundle.uks @ bundle.uks.conj().transpose(0, 2, 1)
    assert np.abs(gram - np.eye(n)).max() <= 1e-12
    assert (bundle.overlaps ** 2 > condition2_room(states)[1]).all()


def test_validated_near_parallel_set_builds():
    # twelve members at three times the least room validate allows: the
    # Gram-Schmidt completions of U_2 ... U_10 miss condition 2, and the
    # weighted polar factor meets it
    states = near_parallel_set(12, 3 * condition2_threshold(12))
    assert validate(states).passed
    bundle = build_distinguisher(states)
    assert bundle.condition2_min ** 2 > condition2_room(states)[1]
    assert distinguish_members(bundle).decoded.tolist() == list(range(12))


# four sets that validation accepts and a later stage refuses (ROADMAP
# items 2 and 9); the marks go when the edges close

@pytest.mark.xfail(raises=Condition2Exhausted, strict=True,
                   reason="planar edge: validate passes a set whose Bessel sum "
                          "exceeds 1, so no U_k exists; distinctness is not "
                          "yet taken from the construction")
def test_validated_planar_set_without_completion_builds():
    # sixteen members in one plane at spacing sqrt(3 t): every r_j of
    # U_k is parallel, so by Bessel's inequality condition 2 needs
    # sum_j t / room[j, k] < 1, and that sum reaches 1.013
    states = planar_set(16, 3.0)
    assert validate(states).passed
    assert _bessel_sum(states) > 1
    build_distinguisher(states)


@pytest.mark.xfail(raises=NoFixedPointNumerical, strict=True,
                   reason="norm edge: the label weight check has no room for "
                          "the norm error validate allows")
def test_validated_set_off_unit_norm_is_distinguished():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    z *= (1 + 0.95 * TOL_NORM * rng.choice([-1, 1], 8))[:, None]
    states = StateSet(z)
    assert validate(states).passed
    distinguish_members(build_distinguisher(states))


@pytest.mark.xfail(raises=NoFixedPointNumerical, strict=True,
                   reason="condition-2 edge: the member pass's label weight "
                          "check rejects a rotated near-parallel set that "
                          "distinguish decodes")
def test_validated_rotated_near_parallel_set_is_distinguished():
    # three members at room 2 t, Haar-rotated: the stacked member pass
    # finds a label weight of -3.3e-8 against its bound of -3.0e-8
    states = haar_rotated(near_parallel_set(3, 2 * condition2_threshold(3)),
                          np.random.default_rng(3))
    assert validate(states).passed
    bundle = build_distinguisher(states)
    assert [distinguish(bundle, member).decoded
            for member in states.amplitudes] == [0, 1, 2]
    distinguish_members(bundle)


@pytest.mark.xfail(raises=Condition2Exhausted, strict=True,
                   reason="rotated near-parallel gap: the weighted polar "
                          "factor misses a U_k that exists")
def test_validated_rotated_near_parallel_set_builds():
    # eight members at room 1.1 t: the set itself builds, and a rotation
    # keeps every overlap, so a U_k exists for the rotated set too
    states = near_parallel_set(8, 1.1 * condition2_threshold(8))
    build_distinguisher(states)
    rotated = haar_rotated(states, np.random.default_rng(0))
    assert validate(rotated).passed
    build_distinguisher(rotated)


def test_build_uk_index_out_of_range(zero_minus_set):
    with pytest.raises(DimensionError):
        build_uk(zero_minus_set, 2)


def test_bundle_conditions_orthonormal_identity():
    bundle = DistinguisherBundle(orthonormal_set(2), [np.eye(2), np.eye(2)])
    assert np.abs(bundle.overlaps - np.ones((2, 2))).max() < 1e-14
    assert bundle.condition2_min == pytest.approx(1.0)


def test_bundle_conditions_example_table(zero_minus_set):
    bundle = DistinguisherBundle(zero_minus_set, [np.eye(2), HADAMARD])
    expected = np.array([[1, S], [S, 1]])
    assert np.abs(bundle.overlaps - expected).max() < 1e-12
    assert bundle.condition2_min == pytest.approx(S)
    assert bundle.condition1_deviation.max() < 1e-12


@pytest.mark.parametrize("uks", [
    [np.eye(2)],
    [np.eye(2)] * 3,
    [np.eye(2), np.eye(3)],
    [np.eye(3), np.eye(3)],
    np.eye(2),
], ids=["too-few", "too-many", "unequal-shapes", "wrong-dim", "one-matrix"])
def test_bundle_rejects_wrong_count_or_shape(zero_minus_set, uks):
    with pytest.raises(DimensionError, match="expected 2 unitaries of dim 2"):
        DistinguisherBundle(zero_minus_set, uks)


def test_bundle_holds_a_read_only_copy(zero_minus_set):
    given = np.array([np.eye(2), HADAMARD])
    bundle = DistinguisherBundle(zero_minus_set, given)
    overlaps = bundle.overlaps.copy()
    given[1] = np.eye(2)
    assert np.array_equal(bundle.uks[1], HADAMARD)
    assert np.array_equal(bundle.overlaps, overlaps)
    assert given.flags.writeable
    assert not bundle.uks.flags.writeable
    with pytest.raises(ValueError):
        bundle.uks[0, 0, 0] = 2


def test_bundle_compares_and_hashes_by_identity(zero_minus_set):
    bundle = build_distinguisher(zero_minus_set)
    other = build_distinguisher(zero_minus_set)
    assert bundle == bundle
    assert bundle != other
    assert len({bundle, other}) == 2


def test_build_distinguisher_example_total(zero_minus_set):
    bundle = build_distinguisher(zero_minus_set)
    reference = (tensor_product(np.diag([1, 0]), np.eye(2))
                 + tensor_product(np.diag([0, 1]), HADAMARD)) @ swap_operator(2)
    assert np.abs(bundle.total.entries - reference).max() < 1e-12
    assert bundle.condition2_min == pytest.approx(S, abs=1e-12)


def test_bundle_invariants_on_random_sets():
    rng = np.random.default_rng(12)
    for n in (3, 4):
        for _ in range(3):
            states = random_state_set(n, rng)
            bundle = build_distinguisher(states)
            stacked = controlled_stack(bundle.uks)
            rebuilt = stacked @ swap_operator(n)
            assert np.abs(bundle.total.entries - rebuilt).max() < 1e-12
            eye = np.eye(n * n)
            assert np.abs(bundle.total.entries.conj().T
                          @ bundle.total.entries - eye).max() < 1e-10
            assert bundle.condition2_min > 1e-6
            assert bundle.condition1_deviation.max() <= 1e-9
            for j in range(n):
                for k in range(n):
                    direct = abs(bundle.uks[k][j] @ states[j].amplitudes)
                    assert abs(bundle.overlaps[j, k] - direct) <= 1e-14


def test_bundle_uks_is_one_read_only_stack():
    states = random_state_set(4, np.random.default_rng(8))
    bundle = build_distinguisher(states)
    expected = np.array([build_uk(states, k).entries for k in range(4)])
    assert np.abs(bundle.uks - expected).max() <= 1e-14
    assert not bundle.uks.flags.writeable
    given = [np.eye(2), HADAMARD]
    assert not DistinguisherBundle(
        StateSet([[1, 0], [S, -S]]), given).uks.flags.writeable
    assert given[0].flags.writeable


def test_build_distinguisher_is_deterministic():
    rng = np.random.default_rng(5)
    states = random_state_set(4, rng)
    b1 = build_distinguisher(states)
    b2 = build_distinguisher(states)
    assert np.array_equal(b1.total.entries, b2.total.entries)
    assert np.array_equal(b1.uks, b2.uks)


def test_distinguish_example_minus(zero_minus_set):
    bundle = build_distinguisher(zero_minus_set)
    result = distinguish(bundle, zero_minus_set[1])
    assert result.decoded == 1
    assert result.input_in_set
    expected = np.diag([0.0, 1.0])
    assert np.abs(result.rho_out.entries - expected).max() < 1e-8
    assert np.abs(result.rho_ctc.entries - expected).max() < 1e-8


def test_distinguish_orthonormal_basis():
    bundle = build_distinguisher(orthonormal_set(2))
    assert distinguish(bundle, basis_state(2, 0)).decoded == 0


def test_distinguish_every_member_of_random_set():
    rng = np.random.default_rng(21)
    states = random_state_set(3, rng)
    bundle = build_distinguisher(states)
    for j in range(3):
        result = distinguish(bundle, states[j])
        assert result.decoded == j
        assert result.fidelity_to_basis >= 1 - 1e-8
        assert result.residual <= 1e-8


def test_distinguish_flags_unknown_input():
    bundle = build_distinguisher(orthonormal_set(2))
    plus = StateVector([S, S])
    with pytest.warns(InputNotInSetWarning):
        result = distinguish(bundle, plus)
    assert not result.input_in_set


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1),
       st.floats(-14, -1), st.floats(0, 2 * np.pi))
def test_set_membership_matches_fidelity_oracle(n, seed, log_eps, phase):
    # a phased member pushed off by 10**log_eps: inside the set's
    # fidelity tolerance for small pushes, outside it for large ones
    rng = np.random.default_rng(seed)
    states = random_state_set(n, rng)
    bundle = build_distinguisher(states)
    member = states[int(rng.integers(n))].amplitudes
    push = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    psi = np.exp(1j * phase) * member + 10.0 ** log_eps * push
    psi /= np.linalg.norm(psi)
    fidelities = [state_fidelity(psi, s) for s in states]
    threshold = 1.0 - discrimination._IN_SET_TOL
    # the product and the per-member overlaps round differently
    assume(min(abs(f - threshold) for f in fidelities) > 1e-14)
    expected = max(fidelities) >= threshold
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = distinguish(bundle, StateVector(psi))
    assert result.input_in_set == expected
    flagged = [w for w in caught
               if issubclass(w.category, InputNotInSetWarning)]
    assert len(flagged) == (0 if expected else 1)


def test_distinguish_detects_condition2_violation():
    # Hand-built counterexample: conditions (1) hold but U_1 and U_2
    # shuffle the other basis states in a closed 2-cycle, so on input
    # psi_0 the self-consistency condition has a whole family of
    # solutions (|0><0| and (|1><1| + |2><2|)/2 among them).
    states = orthonormal_set(3)
    u1 = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)  # 0<->2
    u2 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)  # 0<->1
    bundle = DistinguisherBundle(states, [np.eye(3), u1, u2])
    assert bundle.condition2_min < 1e-6
    with pytest.raises(NonUniqueFixedPoint):
        distinguish(bundle, states[0])


def test_near_threshold_set_decodes_uniquely():
    # with condition 2 enforced as overlap > 1e-6 this set was accepted
    # (condition2_min 1.3e-5), and psi_2's label chain had a
    # two-dimensional null space
    vectors = np.array([[1, 0, 0], [0.3, 1, 0], [0.5, 0.6, 1e-5]], dtype=complex)
    states = StateSet(tuple(
        StateVector(v / np.linalg.norm(v)) for v in vectors))
    bundle = build_distinguisher(states)
    for j, psi in enumerate(states):
        result = distinguish(bundle, psi)
        assert result.decoded == j
        assert result.chain_gap > deutsch.SVD_CUTOFF


def test_near_parallel_set_decodes_every_member():
    # member 0's chain gap is 4.7e-7, so its null vector carries rounding
    # of about N eps / gap = 3.3e-9: a label weight of -1.05e-9 that a
    # fixed -TOL_PSD bound rejected
    rng = np.random.default_rng(0)
    base = haar_state(7, rng).amplitudes
    states = StateSet(tuple(
        StateVector(v / np.linalg.norm(v))
        for v in (base + 1e-3 * haar_state(7, rng).amplitudes
                  for _ in range(7))))
    bundle = build_distinguisher(states)
    for j, psi in enumerate(states):
        result = distinguish(bundle, psi)
        assert result.decoded == j
        assert result.residual <= deutsch.TOL_FIX
        assert result.fidelity_to_basis > 1 - 1e-8


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(2, 8), st.floats(min_value=1e-3, max_value=1.0),
       st.integers(0, 2**31 - 1))
def test_chain_gap_absorbing_bound(n, spread, seed):
    # nearly parallel states give small overlaps; member j's label chain
    # has j absorbing and keeps its gap at or above q / sqrt(N - 1), q the
    # smallest overlap^2, which build_uk holds above 10 SVD_CUTOFF sqrt(N - 1)
    rng = np.random.default_rng(seed)
    base = haar_state(n, rng).amplitudes
    states = StateSet(tuple(
        StateVector(v / np.linalg.norm(v))
        for v in (base + spread * haar_state(n, rng).amplitudes
                  for _ in range(n))))
    bundle = build_distinguisher(states)
    for j, psi in enumerate(states):
        q = bundle.overlaps[j].min() ** 2
        assert q > 10 * deutsch.SVD_CUTOFF * np.sqrt(n - 1)
        phi = np.array([u @ psi.amplitudes for u in bundle.uks]).T
        svals = np.linalg.svd(np.abs(phi) ** 2 - np.eye(n), compute_uv=False)
        assert svals[-1] <= deutsch.SVD_CUTOFF
        assert svals[-2] >= q / np.sqrt(n - 1)


def test_distinguish_dimension_mismatch(zero_minus_set):
    bundle = build_distinguisher(zero_minus_set)
    with pytest.raises(DimensionError):
        distinguish(bundle, basis_state(3, 0))


def _oracle_chain_gap(bundle, rho_cr, n):
    # T read off the diagonal-to-diagonal block of the dense superoperator
    L = deutsch.superoperator_matrix(bundle.total.entries, rho_cr)
    svals = np.linalg.svd(L[::n + 1, ::n + 1] - np.eye(n), compute_uv=False)
    kept = svals[svals > deutsch.SVD_CUTOFF]
    return kept.min() if kept.size else np.inf


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_chain_solve_matches_generic_oracle(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(3):
        states = random_state_set(n, rng)
        bundle = build_distinguisher(states)
        inputs = list(states) + [haar_state(n, rng)]
        results = []
        for k, psi in enumerate(inputs):
            if k < n:
                results.append(distinguish(bundle, psi))
            else:
                with pytest.warns(InputNotInSetWarning):
                    results.append(distinguish(bundle, psi))
        assert "total" not in vars(bundle)
        for psi, result in zip(inputs, results):
            rho_cr = projector(psi)
            oracle = deutsch.fixed_point(bundle.total.entries, rho_cr)
            out = deutsch.output_state(bundle.total.entries, rho_cr,
                                       oracle.fixed_point).entries
            probs = np.diag(out).real
            assert np.abs(result.rho_ctc.entries
                          - oracle.fixed_point.entries).max() <= 1e-12
            assert np.abs(result.rho_out.entries - out).max() <= 1e-12
            assert result.decoded == int(np.argmax(probs))
            assert abs(result.fidelity_to_basis - probs.max()) <= 1e-12
            assert result.residual <= deutsch.TOL_FIX
            assert oracle.residual <= deutsch.TOL_FIX
            assert abs(result.chain_gap
                       - _oracle_chain_gap(bundle, rho_cr, n)) <= 1e-12
        for k, result in enumerate(results[:n]):
            assert result.decoded == k


def test_chain_gap_on_example_and_single_state(zero_minus_set):
    # T - I is [[0, 1/2], [0, -1/2]] for |0> and [[-1/2, 0], [1/2, 0]] for |->,
    # both with singular values 1/sqrt(2) and 0
    bundle = build_distinguisher(zero_minus_set)
    for psi in zero_minus_set:
        assert distinguish(bundle, psi).chain_gap == pytest.approx(S, abs=1e-15)
    single = StateSet((basis_state(1, 0),))
    result = distinguish(build_distinguisher(single), single[0])
    assert result.decoded == 0
    assert result.chain_gap == np.inf


@pytest.mark.parametrize("module, name, value, match", [
    (deutsch, "SVD_CUTOFF", -1.0, "singular value"),
    (discrimination, "TOL_PSD", -2.0, "negative label weight"),
    (deutsch, "TOL_FIX", -1.0, "residual"),
])
def test_distinguish_failed_checks_raise(monkeypatch, module, name, value,
                                         match):
    states = random_state_set(4, np.random.default_rng(3))
    bundle = build_distinguisher(states)
    monkeypatch.setattr(module, name, value)
    with pytest.raises(NoFixedPointNumerical, match=match):
        distinguish(bundle, states[2])


# ---------------------------------------------------------------------------
# closed-form completions and the member path against their oracles


def _loop_stack(states):
    return np.array([build_uk(states, k).entries
                     for k in range(states.size)])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 12, 16, 24, 32])
def test_closed_form_completions_match_the_loop(monkeypatch, n):
    completions = []
    real = discrimination.unitary_from_first_column
    monkeypatch.setattr(discrimination, "unitary_from_first_column",
                        lambda *a: completions.append(1) or real(*a))
    rng = np.random.default_rng(200 + n)
    for _ in range(3):
        states = random_state_set(n, rng)
        completions.clear()
        bundle = build_distinguisher(states)
        assert completions == []
        assert np.abs(bundle.uks - _loop_stack(states)).max() <= 1e-14
        assert not bundle.uks.flags.writeable


def _first_completion_misses_condition2():
    # psi_1 is orthogonal to row 1 of the first-attempt U_0, so that U_0
    # has a zero overlap and build_uk takes the polar rows for k = 0
    rng = np.random.default_rng(4)
    psi0, psi2 = haar_state(3, rng).amplitudes, haar_state(3, rng).amplitudes
    u0 = discrimination.unitary_from_first_column(psi0).entries.conj().T
    psi1 = psi0 + u0[2].conj()
    return StateSet([psi0, psi1 / np.linalg.norm(psi1), psi2])


FALLBACK_SETS = [
    StateSet([[1, 0], [S, -S]]),
    StateSet([[0.6, 0.8j, 0], [S, 0, S], [0, 0.6, -0.8]]),
    _first_completion_misses_condition2(),
]
FALLBACK_IDS = ["zero-minus", "zero-trailing-amplitude", "polar-rows"]


def _gram_schmidt_uk(states, k):
    """build_uk's first attempt: the adjoint of the completion of psi_k
    with columns 0 and k exchanged."""
    order = list(range(states.size))
    order[0], order[k] = k, 0
    w = discrimination.unitary_from_first_column(states.amplitudes[k])
    return w.entries[:, order].conj().T


@pytest.mark.parametrize("states, fallback, polar", [
    (FALLBACK_SETS[0], [0], False),
    (FALLBACK_SETS[1], [0], False),
    (FALLBACK_SETS[2], [0], True),
], ids=FALLBACK_IDS)
def test_fallback_completions_are_the_loop_bit_for_bit(monkeypatch, states,
                                                       fallback, polar):
    # psi = e_0 and a zero trailing amplitude make Gram-Schmidt skip a
    # basis vector, where the closed form does not hold; the third set's
    # completion misses condition 2, and the polar rows serve its U_0
    looped = []
    monkeypatch.setattr(discrimination, "build_uk",
                        lambda states, k: looped.append(k) or build_uk(states, k))
    bundle = build_distinguisher(states)
    assert looped == fallback
    loop = _loop_stack(states)
    least = condition2_room(states)[1]
    for k in range(states.size):
        first = _gram_schmidt_uk(states, k)
        overlaps = np.abs(np.einsum("jc,jc->j", first, states.amplitudes))
        missed = overlaps.min() ** 2 <= least
        assert missed == (polar and k == 0)
        if k in fallback:
            assert np.array_equal(bundle.uks[k], loop[k])
            assert np.array_equal(bundle.uks[k], first) == (not missed)
        else:
            assert np.abs(bundle.uks[k] - loop[k]).max() <= 1e-14
    assert bundle.condition2_min ** 2 > least
    assert bundle.condition1_deviation.max() <= 1e-12


@pytest.mark.parametrize("states", FALLBACK_SETS + [
    random_state_set(n, np.random.default_rng(300 + n)) for n in (1, 2, 3, 8, 16)
], ids=FALLBACK_IDS + ["haar-1", "haar-2", "haar-3", "haar-8", "haar-16"])
def test_built_bundle_measures_what_a_rebuilt_bundle_measures(states):
    # the bundle of the given unitaries measures them as dense matrices,
    # the built bundle its closed-form U_k from their parameters: the two
    # round differently, by a few N eps
    bundle = build_distinguisher(states)
    rebuilt = DistinguisherBundle(states, bundle.uks)
    tol = 8 * states.size * np.finfo(float).eps
    assert np.abs(bundle.overlaps - rebuilt.overlaps).max() <= tol
    assert abs(bundle.condition2_min - rebuilt.condition2_min) <= tol
    assert np.abs(bundle.condition1_deviation
                  - rebuilt.condition1_deviation).max() <= tol


def _assert_members_match_the_svd_path(bundle):
    n = bundle.state_set.size
    eps = np.finfo(float).eps
    members = distinguish_members(bundle)
    for m, psi in enumerate(bundle.state_set):
        oracle = distinguish(bundle, psi)
        assert members.decoded[m] == oracle.decoded == m
        assert members.certified[m]
        minorization = members.minorization[m]
        assert minorization == pytest.approx(
            bundle.overlaps[m].min() ** 2, rel=1e-12)
        # the SVD's p sits within the bound plus its own residual over
        # the contraction 1 - (eps_m - delta_m)
        chain = np.abs(bundle.uks @ psi.amplitudes).T ** 2
        p, _ = discrimination._svd_labels(chain)
        drift = np.abs(chain.sum(axis=0) - 1).max()
        own = ((np.abs(chain @ p - p).sum() + abs(1 - p.sum()) + n * eps)
               / (minorization - drift - n * eps))
        shift = np.abs(p - np.eye(n)[m]).sum()
        assert shift <= members.bound[m] + own
        # the output is linear in p with entries of modulus <= 1; forming
        # it rounds by up to 2 N eps
        moved = members.label_shift[m] + shift + 4 * n * eps
        oracle_labels = np.diag(oracle.rho_out.entries).real
        assert np.abs(members.labels[m] - oracle_labels).max() <= moved
        assert abs(members.fidelity_to_basis[m]
                   - oracle.fidelity_to_basis) <= moved
        assert members.residual[m] <= deutsch.TOL_FIX


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(1, 16), st.integers(0, 2**31 - 1))
def test_member_path_matches_the_svd_path_on_haar_sets(n, seed):
    rng = np.random.default_rng(seed)
    states = StateSet(tuple(haar_state(n, rng) for _ in range(n)))
    _assert_members_match_the_svd_path(build_distinguisher(states))


@pytest.mark.parametrize("n, delta", [
    (2, 1e-8), (2, 1e-7), (3, 1e-7), (5, 1e-7), (8, 1e-7),
], ids=["boundary-2", "2", "3", "5", "8"])
def test_member_path_matches_the_svd_path_on_near_parallel_sets(n, delta):
    bundle = build_distinguisher(near_parallel_set(n, delta))
    _assert_members_match_the_svd_path(bundle)


def test_member_rows_come_in_member_order(zero_minus_set):
    members = distinguish_members(build_distinguisher(zero_minus_set))
    assert members.decoded[0] == 0 and members.label_shift[0] == 0.0
    assert members.minorization[0] == pytest.approx(0.5, abs=1e-15)
    assert members.decoded[1] == 1
    for field in dataclasses.fields(members):
        assert len(getattr(members, field.name)) == 2


def _uncertified_bundle():
    # U_2 exchanges |0> and |1>, so rows 0 and 1 of the chains of psi_0
    # and psi_1 hold a zero: no minorization, though each fixed point is
    # unique (the member's label absorbs the chain); psi_2's row is all ones
    states = orthonormal_set(3)
    u2 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    return DistinguisherBundle(states, [np.eye(3), np.eye(3), u2])


def test_members_without_minorization_take_the_svd_path():
    bundle = _uncertified_bundle()
    members = distinguish_members(bundle)
    assert members.decoded.tolist() == [0, 1, 2]
    assert members.certified.tolist() == [False, False, True]
    assert members.minorization.tolist() == [0.0, 0.0, 1.0]
    assert members.bound[:2].tolist() == [np.inf, np.inf]
    assert members.label_shift.tolist() == [0.0, 0.0, 0.0]
    for labels, psi in zip(members.labels, bundle.state_set):
        oracle = distinguish(bundle, psi)
        assert np.abs(labels - np.diag(oracle.rho_out.entries).real).max() <= 1e-15


def test_member_path_raises_on_a_non_unique_fixed_point():
    states = orthonormal_set(3)
    u1 = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)
    u2 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    bundle = DistinguisherBundle(states, [np.eye(3), u1, u2])
    with pytest.raises(NonUniqueFixedPoint):
        distinguish_members(bundle)


@pytest.mark.parametrize("module, name, value, match, certified_path", [
    (deutsch, "SVD_CUTOFF", -1.0, "singular value", False),
    (discrimination, "TOL_PSD", -2.0, "negative label weight", True),
    (deutsch, "TOL_FIX", -1.0, "residual", True),
])
def test_member_path_failed_checks_raise(monkeypatch, module, name, value,
                                         match, certified_path):
    # only the SVD path reads the singular-value cutoff; the certified
    # path checks weights and residuals as distinguish does
    haar = build_distinguisher(random_state_set(4, np.random.default_rng(3)))
    monkeypatch.setattr(module, name, value)
    for bundle, raises in ((haar, certified_path), (_uncertified_bundle(), True)):
        if raises:
            with pytest.raises(NoFixedPointNumerical, match=match):
                distinguish_members(bundle)
        else:
            assert distinguish_members(bundle).certified.all()


@pytest.mark.parametrize("n, seed", [(2, 2), (2, 23), (3, 108)])
def test_tight_certificates_hold_through_rounding(n, seed):
    # in two and three dimensions the contraction bound is nearly exact,
    # and the shift can exceed the bound by rounding unless allowed for
    states = random_state_set(n, np.random.default_rng(seed))
    members = distinguish_members(build_distinguisher(states))
    assert members.certified.all()
    assert (members.label_shift / members.bound).max() > 0.5


def test_bound_covers_an_inaccurate_solve(monkeypatch):
    # the bound is measured on the p the solve returned, so an error in
    # that p shows up in the bound, and the residual check still holds
    states = random_state_set(4, np.random.default_rng(3))
    bundle = build_distinguisher(states)
    exact = distinguish_members(bundle)
    real = np.linalg.solve

    def off_by_1e12(a, b):
        p = real(a, b)
        p[1, 0] += 1e-12
        return p

    monkeypatch.setattr(np.linalg, "solve", off_by_1e12)
    members = distinguish_members(bundle)
    assert members.certified.all()
    assert 1.9e-12 < members.label_shift[1] <= members.bound[1]
    assert members.bound[1] > 100 * exact.bound[1]
    assert members.decoded.tolist() == [0, 1, 2, 3]



def test_a_corrupted_solve_raises_on_the_residual_not_the_svd_path(monkeypatch):
    # the bound grows with the bad p, so member 1 keeps its certificate
    # and the residual check is what catches the error
    states = random_state_set(4, np.random.default_rng(3))
    bundle = build_distinguisher(states)
    real = np.linalg.solve

    def off_by_half(a, b):
        p = real(a, b)
        p[1, 0] += 0.5
        return p

    def no_svd(phi):
        raise AssertionError("a certified member took the SVD path")

    monkeypatch.setattr(np.linalg, "solve", off_by_half)
    monkeypatch.setattr(discrimination, "_settle_by_svd", no_svd)
    with pytest.raises(NoFixedPointNumerical,
                       match=r"^candidate fixed point has residual \d\.\d{3}e-0[12] >"):
        distinguish_members(bundle)


# ---------------------------------------------------------------------------
# certified members settled in the stacked pass


def _haar_bundle(n, seed):
    rng = np.random.default_rng(seed)
    states = StateSet(tuple(haar_state(n, rng) for _ in range(n)))
    return build_distinguisher(states)


def test_certified_members_are_not_settled_one_by_one(monkeypatch):
    def no_settle(*args):
        raise AssertionError("a certified member was settled on its own")

    monkeypatch.setattr(discrimination, "_settle", no_settle)
    assert distinguish_members(_haar_bundle(16, 16)).certified.all()
    states = random_state_set(8, np.random.default_rng(8))
    pairs = [(m, n) for m in range(8) for n in range(8)]
    spec = SuperpositionSpec(0.6 + 0.2j, -0.3 + 0.7j)
    sweep = run_sweep(states, pairs, spec)
    assert sweep.members.certified.all()
    assert sweep.fidelity.min() >= 1 - 1e-8


@pytest.mark.parametrize("n, seed", [(24, 24), (24, 25), (32, 32), (32, 33)])
def test_stacked_members_match_the_oracle_beyond_the_hypothesis_sizes(n, seed):
    bundle = _haar_bundle(n, seed)
    members = distinguish_members(bundle)
    assert members.certified.all()
    assert members.decoded.tolist() == list(range(n))
    eps = np.finfo(float).eps
    for m, psi in enumerate(bundle.state_set):
        oracle = distinguish(bundle, psi)
        assert oracle.decoded == m
        labels = np.diag(oracle.rho_out.entries).real
        assert np.abs(members.labels[m] - labels).max() <= 1e-12
        assert abs(members.residual[m] - oracle.residual) <= 8 * n * eps


@pytest.mark.parametrize("n", [16, 24, 32, 64])
def test_member_pass_holds_no_more_than_its_chain_stack(n):
    # a block of B <= max(64 // N, 1) members takes its images as one
    # complex B x N x N array, 16 B N^2 bytes.  Beside them the pass holds
    # either the block's chains and the solve's copy of them, or half the
    # weighted conjugate images and their product for the residual: two
    # blocks at most, plus numpy's small buffers and its results, within
    # 16 real N x N arrays: O(N^2), where the chains alone took 8 N^3
    # bytes
    bundle = _haar_bundle(n, n)
    distinguish_members(bundle)
    tracemalloc.start()
    try:
        distinguish_members(bundle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = 16 * max(discrimination._BLOCK_IMAGES // n, 1) * n * n
    assert peak <= 2 * block + 16 * 8 * n**2
    assert "uks" not in vars(bundle)


def _member_error(monkeypatch, bundle, shifts):
    # the message distinguish_members raises when the solve's p[m, k] is
    # off by shifts[m, k]
    real = np.linalg.solve

    def corrupt(a, b):
        p = real(a, b)
        for (m, k), shift in shifts.items():
            p[m, k] += shift
        return p

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "solve", corrupt)
        with pytest.raises(NoFixedPointNumerical) as raised:
            distinguish_members(bundle)
    return str(raised.value)


def test_the_first_failing_member_raises(monkeypatch):
    bundle = build_distinguisher(random_state_set(4, np.random.default_rng(3)))
    first = _member_error(monkeypatch, bundle, {(1, 0): 0.5})
    second = _member_error(monkeypatch, bundle, {(2, 0): 0.25})
    assert first.startswith("candidate fixed point has residual")
    assert second.startswith("candidate fixed point has residual")
    assert first != second
    both = _member_error(monkeypatch, bundle, {(1, 0): 0.5, (2, 0): 0.25})
    assert both == first
    # within one member the weight check comes first, and an earlier
    # member's residual comes before a later member's weight
    negative = {(1, 2): -0.5}
    assert _member_error(monkeypatch, bundle, negative).startswith(
        "candidate fixed point has negative label weight")
    assert _member_error(monkeypatch, bundle,
                         {**negative, (2, 0): 0.25}).startswith(
        "candidate fixed point has negative label weight")
    assert _member_error(monkeypatch, bundle,
                         {(1, 0): 0.5, (2, 3): -0.5}) == first


def test_members_without_minorization_raise_no_warning():
    # eps_m = 0 gives such a member no weight tolerance to divide out
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        members = distinguish_members(_uncertified_bundle())
    assert members.certified.tolist() == [False, False, True]


# ---------------------------------------------------------------------------
# the closed form against the dense single-product oracle, and the
# member blocks against one block of every member


def _single_product_images(bundle, psis):
    """U_k psi_b for every k and row b from one product of the whole
    (N, N, N) stack with the rows: the closed form's oracle."""
    n = psis.shape[1]
    return (psis @ bundle.uks.reshape(n * n, n).T).reshape(len(psis), n, n)


def _assert_closed_form_matches_the_single_product(monkeypatch, bundle):
    states = bundle.state_set
    amps, n = states.amplitudes, states.size
    tol = 8 * n * np.finfo(float).eps
    members = distinguish_members(bundle)
    assert "uks" not in vars(bundle)
    with monkeypatch.context() as patch:
        patch.setattr(discrimination, "_images", _single_product_images)
        oracle = distinguish_members(bundle)
    assert np.array_equal(members.decoded, oracle.decoded)
    assert np.array_equal(members.certified, oracle.certified)
    assert np.abs(members.labels - oracle.labels).max() <= 1e-12
    assert np.abs(members.fidelity_to_basis
                  - oracle.fidelity_to_basis).max() <= 1e-12
    assert np.abs(members.residual - oracle.residual).max() <= tol
    uks = bundle.uks
    overlaps = np.abs(np.einsum("kjc,jc->jk", uks, amps))
    deviation = np.linalg.norm((uks @ amps[:, :, None])[..., 0] - np.eye(n),
                               axis=1)
    assert np.abs(bundle.overlaps - overlaps).max() <= tol
    assert np.abs(bundle.condition1_deviation - deviation).max() <= tol
    psis = np.array([haar_state(n, np.random.default_rng(n + s)).amplitudes
                     for s in range(3)])
    assert np.abs(discrimination._images(bundle, psis)
                  - _single_product_images(bundle, psis)).max() <= tol
    assert np.abs(uks - _loop_stack(states)).max() <= 1e-14


@pytest.mark.parametrize("n", range(2, 49))
def test_closed_form_matches_the_single_product_on_haar_sets(monkeypatch, n):
    _assert_closed_form_matches_the_single_product(monkeypatch,
                                                   _haar_bundle(n, 1000 + n))


EDGE_SETS = [
    near_parallel_set(8, 1e-7),
    near_parallel_set(12, 3 * condition2_threshold(12)),
    planar_set(12, 3.0),
]
EDGE_IDS = ["near-parallel-8", "near-parallel-12-polar", "planar-12"]


@pytest.mark.parametrize("states", EDGE_SETS + FALLBACK_SETS,
                         ids=EDGE_IDS + FALLBACK_IDS)
def test_closed_form_matches_the_single_product_on_edge_sets(monkeypatch,
                                                             states):
    _assert_closed_form_matches_the_single_product(
        monkeypatch, build_distinguisher(states))


def _assert_members_match_the_single_product(monkeypatch, bundle):
    # the member blocks give what one block of every member gives, bit
    # for bit: every member is computed on its own within a block
    members = distinguish_members(bundle)
    n = bundle.state_set.size
    with monkeypatch.context() as patch:
        patch.setattr(discrimination, "_BLOCK_IMAGES", n * n)
        assert len(discrimination._blocks(n)) == 1
        oracle = distinguish_members(bundle)
    for field in dataclasses.fields(members):
        got, want = getattr(members, field.name), getattr(oracle, field.name)
        assert np.array_equal(got, want), field.name


@pytest.mark.parametrize("n", range(2, 49))
def test_member_results_are_the_single_product_bit_for_bit(monkeypatch, n):
    # every size from one block of all members to one member a block
    _assert_members_match_the_single_product(monkeypatch,
                                             _haar_bundle(n, 1000 + n))


@pytest.mark.parametrize("states", EDGE_SETS, ids=EDGE_IDS)
def test_edge_set_members_are_the_single_product_bit_for_bit(monkeypatch,
                                                             states):
    _assert_members_match_the_single_product(monkeypatch,
                                             build_distinguisher(states))


@pytest.mark.parametrize("states", FALLBACK_SETS + [
    random_state_set(n, np.random.default_rng(400 + n)) for n in (1, 2, 8, 16)
], ids=FALLBACK_IDS + ["haar-1", "haar-2", "haar-8", "haar-16"])
def test_built_bundle_holds_the_stack_it_built(states):
    # the closed form serves every U_k by its parameters but those that
    # build_uk rebuilt, U_0 of each fallback set, held dense; the stack
    # is formed on first read, frozen and kept
    bundle = build_distinguisher(states)
    n = states.size
    dense_ks = [0] if any(states is s for s in FALLBACK_SETS) else []
    assert bundle._dense_ks.tolist() == dense_ks
    assert bundle._dense.shape == (len(dense_ks), n, n)
    assert "uks" not in vars(bundle)
    uks = bundle.uks
    assert uks.shape == (n, n, n) and uks.dtype == complex
    assert not uks.flags.writeable
    assert bundle.uks is uks
    for i, k in enumerate(dense_ks):
        assert np.array_equal(uks[k], bundle._dense[i])


@pytest.mark.parametrize("states, measured", [
    (random_state_set(8, np.random.default_rng(8)), 1),
    (FALLBACK_SETS[2], 2),
], ids=["haar-8", "polar-rows"])
def test_built_bundle_measures_its_overlaps_once(monkeypatch, states, measured):
    # the overlaps that decide condition 2 are the bundle's, unless a
    # rebuilt U_k changed the unitaries after they were measured
    calls = []
    real = discrimination._measure_overlaps
    monkeypatch.setattr(discrimination, "_measure_overlaps",
                        lambda bundle: calls.append(1) or real(bundle))
    bundle = build_distinguisher(states)
    assert bundle.condition2_min > 0
    assert np.array_equal(bundle.overlaps, real(bundle))
    assert len(calls) == measured


def test_discrimination_allocates_no_stack_until_it_is_read():
    # a real N^3 array alone would take 8 N^3 bytes
    n = 32
    states = random_state_set(n, np.random.default_rng(32))
    tracemalloc.start()
    try:
        bundle = build_distinguisher(states)
        members = distinguish_members(bundle)
        distinguish(bundle, states[3])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert members.decoded.tolist() == list(range(n))
    assert peak < 8 * n**3
    assert "uks" not in vars(bundle)
    assert bundle.uks.shape == (n, n, n)


def test_constructed_bundle_shares_no_memory_with_its_input():
    states = random_state_set(4, np.random.default_rng(9))
    stack = np.array(build_distinguisher(states).uks)
    bundle = DistinguisherBundle(states, stack)
    assert bundle.uks is not stack
    assert not np.shares_memory(bundle.uks, stack)
    assert stack.flags.writeable
    assert not bundle.uks.flags.writeable
    stack[0] = 0
    assert np.abs(bundle.uks[0]).max() > 0
