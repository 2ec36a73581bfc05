import dataclasses
import tracemalloc
import types

import numpy as np
import pytest

from conftest import HADAMARD, PAULI_X, S, near_parallel_set
from ctcsim import (
    DegenerateSuperposition,
    DimensionError,
    PurityLoss,
    StateSet,
    StateVector,
    SuperpositionSpec,
    basis_state,
    build_distinguisher,
    build_omega,
    build_u_ij,
    build_u_prime,
    distinguish,
    distinguish_members,
    partial_trace,
    projector,
    pure_state_from_density,
    run_sweep,
    state_fidelity,
    tensor_product,
    validate,
)
from ctcsim import superpose
from ctcsim.linalg import condition2_threshold
from ctcsim.sampling import random_state_set


def balanced():
    return SuperpositionSpec(S, S)


def example_uks(states):
    return build_distinguisher(states).uks


def random_spec(rng, min_gamma=1e-3, states=None, pairs=None):
    """Random complex amplitudes kept away from degenerate normalizers."""
    while True:
        alpha, beta = (
            complex(rng.standard_normal(), rng.standard_normal())
            for _ in range(2)
        )
        if abs(alpha) + abs(beta) < 1e-3:
            continue
        spec = SuperpositionSpec(alpha, beta)
        if states is None:
            return spec
        ok = True
        for m, n in pairs:
            raw = (alpha * states[m].amplitudes
                   + beta * states[n].amplitudes)
            if np.linalg.norm(raw) <= min_gamma:
                ok = False
                break
        if ok:
            return spec


# ---------------------------------------------------------------------------
# build_omega


def test_omega_single_term_returns_member(zero_minus_set):
    spec = SuperpositionSpec(1, 0)
    for i in range(2):
        for j in range(2):
            omega = build_omega(zero_minus_set, i, j, spec)
            assert state_fidelity(omega, zero_minus_set[i]) > 1 - 1e-14


def test_omega_example_formula(zero_minus_set):
    alpha, beta = 0.8, -0.6
    omega = build_omega(zero_minus_set, 0, 1, SuperpositionSpec(alpha, beta))
    raw = np.array([alpha + beta * S, -beta * S])
    expected = raw / np.linalg.norm(raw)
    assert np.abs(omega.amplitudes - expected).max() < 1e-14


def test_omega_diagonal_is_the_member_bit_for_bit():
    rng = np.random.default_rng(404)
    states = random_state_set(4, rng)
    for spec in (SuperpositionSpec(1, -1), SuperpositionSpec(1, 1j),
                 SuperpositionSpec(0, 2), random_spec(rng)):
        for i in range(4):
            omega = build_omega(states, i, i, spec)
            assert np.array_equal(omega.amplitudes, states[i].amplitudes)
        diagonal = run_sweep(states, [(i, i) for i in range(4)], spec)
        assert np.array_equal(diagonal.expected, states.amplitudes)


def test_omega_exact_cancellation_raises():
    dup = StateSet((basis_state(2, 0), basis_state(2, 0)))
    with pytest.raises(DegenerateSuperposition) as err:
        build_omega(dup, 0, 1, SuperpositionSpec(1, -1))
    assert (err.value.i, err.value.j) == (0, 1)


def test_spec_rejects_double_zero():
    with pytest.raises(ValueError):
        SuperpositionSpec(0, 0)


# ---------------------------------------------------------------------------
# build_u_ij


def test_diagonal_block_zero_is_identity(zero_minus_set):
    u = build_u_ij(zero_minus_set, 0, 0, balanced(), example_uks(zero_minus_set))
    assert np.abs(u.entries - np.eye(2)).max() < 1e-12


def test_diagonal_block_one_is_hadamard_bitflip(zero_minus_set):
    u = build_u_ij(zero_minus_set, 1, 1, balanced(), example_uks(zero_minus_set))
    assert np.abs(u.entries - HADAMARD @ PAULI_X).max() < 1e-12


def test_off_diagonal_first_column(zero_minus_set):
    u = build_u_ij(zero_minus_set, 0, 1, balanced(), example_uks(zero_minus_set))
    expected = np.array([0.92387953251128674, -0.38268343236508967])
    assert np.abs(u.entries[:, 0] - expected).max() < 1e-12


def reference_block(i, j, alpha, beta):
    """The printed two-state matrices with norm-corrected normalizers."""
    if (i, j) == (0, 0):
        return np.eye(2, dtype=complex)
    if (i, j) == (1, 1):
        return HADAMARD @ PAULI_X
    if (i, j) == (1, 0):
        alpha, beta = beta, alpha
    g = np.sqrt(abs(alpha + beta * S) ** 2 + abs(beta) ** 2 / 2)
    return np.array([
        [alpha + beta * S, np.conj(beta) * S],
        [-beta * S, np.conj(alpha) + np.conj(beta) * S],
    ], dtype=complex) / g


def column_phase_deviation(constructed, reference):
    worst = 0.0
    for c in range(reference.shape[1]):
        overlap = np.vdot(reference[:, c], constructed[:, c])
        phase = overlap / abs(overlap) if abs(overlap) > 1e-12 else 1.0
        worst = max(worst, np.abs(constructed[:, c]
                                  - phase * reference[:, c]).max())
    return worst


def test_off_diagonal_blocks_match_reference_matrices(zero_minus_set):
    uks = example_uks(zero_minus_set)
    rng = np.random.default_rng(2024)
    pairs = [(S, S)] + [tuple(rng.standard_normal(2)) for _ in range(20)]
    for alpha, beta in pairs:
        if np.hypot(alpha, beta) < 1e-6:
            continue
        spec = SuperpositionSpec(alpha, beta)
        for i, j in ((0, 1), (1, 0)):
            constructed = build_u_ij(zero_minus_set, i, j, spec, uks).entries
            reference = reference_block(i, j, alpha, beta)
            assert column_phase_deviation(constructed, reference) < 1e-9


def test_diagonal_blocks_map_ancilla_to_member():
    rng = np.random.default_rng(77)
    states = random_state_set(3, rng)
    uks = build_distinguisher(states).uks
    spec = random_spec(rng)
    for i in range(3):
        u = build_u_ij(states, i, i, spec, uks)
        produced = u.entries @ basis_state(3, 0).amplitudes
        assert state_fidelity(produced, states[i]) > 1 - 1e-10


def test_off_diagonal_blocks_map_ancilla_to_omega():
    rng = np.random.default_rng(78)
    states = random_state_set(3, rng)
    uks = build_distinguisher(states).uks
    pairs = [(i, j) for i in range(3) for j in range(3) if i != j]
    spec = random_spec(rng, states=states, pairs=pairs)
    for i, j in pairs:
        u = build_u_ij(states, i, j, spec, uks)
        produced = u.entries @ basis_state(3, 0).amplitudes
        omega = build_omega(states, i, j, spec)
        assert state_fidelity(produced, omega) > 1 - 1e-10


# ---------------------------------------------------------------------------
# build_u_prime


def test_u_prime_blocks_match_example(zero_minus_set):
    uks = example_uks(zero_minus_set)
    spec = balanced()
    u = build_u_prime(zero_minus_set, spec, uks).entries
    for i in range(2):
        for j in range(2):
            lo = (2 * i + j) * 2
            block = u[lo:lo + 2, lo:lo + 2]
            expected = build_u_ij(zero_minus_set, i, j, spec, uks).entries
            assert np.abs(block - expected).max() == 0.0
    off_block_mask = np.ones_like(u, dtype=bool)
    for b in range(4):
        off_block_mask[b * 2:(b + 1) * 2, b * 2:(b + 1) * 2] = False
    assert np.abs(u[off_block_mask]).max() == 0.0


def test_u_prime_is_unitary_on_random_set():
    rng = np.random.default_rng(123)
    states = random_state_set(3, rng)
    uks = build_distinguisher(states).uks
    u = build_u_prime(states, random_spec(rng), uks)
    res = np.abs(u.entries.conj().T @ u.entries - np.eye(27)).max()
    assert res < 1e-10


def test_u_prime_selects_block_on_basis_inputs():
    rng = np.random.default_rng(55)
    for n in (2, 3):
        states = random_state_set(n, rng)
        uks = build_distinguisher(states).uks
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        spec = random_spec(rng, states=states, pairs=pairs)
        u = build_u_prime(states, spec, uks)
        for i in range(n):
            for j in range(n):
                ket = np.kron(
                    np.kron(np.eye(n)[i], np.eye(n)[j]), np.eye(n)[0])
                got = u.entries @ ket
                block = build_u_ij(states, i, j, spec, uks).entries
                expected = np.kron(np.kron(np.eye(n)[i], np.eye(n)[j]),
                                   block[:, 0])
                assert np.abs(got - expected).max() == 0.0


def test_u_prime_single_term_always_writes_psi_i():
    rng = np.random.default_rng(66)
    states = random_state_set(3, rng)
    uks = build_distinguisher(states).uks
    u = build_u_prime(states, SuperpositionSpec(1, 0), uks)
    for i in range(3):
        for j in range(3):
            ket = np.kron(np.kron(np.eye(3)[i], np.eye(3)[j]), np.eye(3)[0])
            out = (u.entries @ ket).reshape(9, 3)[3 * i + j]
            assert state_fidelity(out, states[i]) > 1 - 1e-10


def test_u_prime_annotates_degenerate_pair():
    dup = StateSet((basis_state(2, 0), basis_state(2, 0)))
    uks = [np.eye(2), np.eye(2)]
    with pytest.raises(DegenerateSuperposition) as err:
        build_u_prime(dup, SuperpositionSpec(1, -1), uks)
    assert (err.value.i, err.value.j) == (0, 1)


@pytest.mark.parametrize("scale",
                         [1.0, 2.0**-40, 2.0**600, 1e-10, 1e200, 1e-320])
def test_sweep_of_cancelling_duplicates_is_degenerate_at_any_scale(scale):
    # every target is formed before the distinguisher, which could not be
    # built for equal members
    dup = StateSet((basis_state(2, 0), basis_state(2, 0)))
    with pytest.raises(DegenerateSuperposition) as err:
        run_sweep(dup, [(0, 0)], SuperpositionSpec(scale, -scale))
    assert (err.value.i, err.value.j) == (0, 1)


def test_sweep_names_first_cancelling_pair_in_row_major_order():
    # members 0 and 2 are equal, so (0, 2) and (2, 0) cancel; the sweep
    # names (0, 2) whatever pairs were asked for
    a, b, _ = random_state_set(3, np.random.default_rng(17)).amplitudes
    states = StateSet([a, b, a])
    with pytest.raises(DegenerateSuperposition) as err:
        run_sweep(states, [(2, 0), (1, 1)], SuperpositionSpec(1, -1))
    assert (err.value.i, err.value.j) == (0, 2)


# ---------------------------------------------------------------------------
# run_sweep


def test_protocol_example_pair(zero_minus_set):
    sweep = run_sweep(zero_minus_set, [(0, 1)], balanced())
    assert sweep.pairs.tolist() == [[0, 1]]
    assert sweep.fidelity[0] >= 1 - 1e-8
    assert sweep.members.decoded[sweep.pairs[0]].tolist() == [0, 1]
    assert sweep.members.residual[sweep.pairs[0]].max() <= 1e-8
    omega = build_omega(zero_minus_set, 0, 1, balanced())
    assert state_fidelity(sweep.ancillas[0], omega) >= 1 - 1e-8


def test_protocol_diagonal_returns_member(zero_minus_set):
    rng = np.random.default_rng(10)
    for m in range(2):
        spec = random_spec(rng)
        sweep = run_sweep(zero_minus_set, [(m, m)], spec)
        assert state_fidelity(sweep.ancillas[0], zero_minus_set[m]) >= 1 - 1e-8


def test_protocol_diagonal_with_cancelling_amplitudes(zero_minus_set):
    # the diagonal rule never forms the combination, so alpha = -beta
    # still deterministically returns the input state
    sweep = run_sweep(zero_minus_set, [(1, 1)], SuperpositionSpec(1, -1))
    assert state_fidelity(sweep.ancillas[0], zero_minus_set[1]) >= 1 - 1e-8


def test_protocol_beta_only_returns_second_member(zero_minus_set):
    sweep = run_sweep(zero_minus_set, [(0, 1)], SuperpositionSpec(0, 1))
    assert state_fidelity(sweep.ancillas[0], zero_minus_set[1]) >= 1 - 1e-8


def test_protocol_report_invariants(zero_minus_set):
    sweep = run_sweep(zero_minus_set, [(1, 0)], balanced())
    assert sweep.fidelity[0] == state_fidelity(sweep.ancillas[0],
                                               sweep.expected[0])
    assert validate(StateVector(sweep.ancillas[0])).passed


def test_protocol_sweep_small_random_sets():
    rng = np.random.default_rng(909)
    for n in (2, 3):
        states = random_state_set(n, rng)
        pairs = [(m, k) for m in range(n) for k in range(n)]
        spec = random_spec(rng, states=states,
                           pairs=[p for p in pairs if p[0] != p[1]])
        sweep = run_sweep(states, pairs, spec)
        assert sweep.pairs.tolist() == list(map(list, pairs))
        assert sweep.fidelity.min() >= 1 - 1e-8
        assert np.array_equal(sweep.members.decoded[sweep.pairs], sweep.pairs)


def test_protocol_is_phase_robust():
    rng = np.random.default_rng(4242)
    states = random_state_set(3, rng)
    pairs = [(0, 1), (1, 2), (2, 2)]
    spec = random_spec(rng, states=states, pairs=[(0, 1), (1, 2)])
    base = run_sweep(states, pairs, spec).fidelity
    phased = StateSet(tuple(
        StateVector(np.exp(1j * rng.uniform(0, 2 * np.pi)) * s.amplitudes)
        for s in states
    ))
    shifted = run_sweep(phased, pairs, spec).fidelity
    assert np.abs(base - shifted).max() <= 1e-10


def dense_ancilla(states, u_prime, bundle, m, n):
    """Reference ancilla: u_prime on (out1 (x) out2 (x) |0><0|), labels traced."""
    size = states.size
    joint = tensor_product(
        tensor_product(distinguish(bundle, states[m]).rho_out.entries,
                       distinguish(bundle, states[n]).rho_out.entries),
        projector(basis_state(size, 0)),
    )
    evolved = u_prime.entries @ joint @ u_prime.entries.conj().T
    return pure_state_from_density(
        partial_trace(evolved, size * size, size, "second"))


def test_sweep_ancilla_matches_dense_u_prime_oracle():
    rng = np.random.default_rng(2718)
    for size in (2, 3, 4):
        states = random_state_set(size, rng)
        pairs = [(m, n) for m in range(size) for n in range(size)]
        spec = random_spec(rng, states=states,
                           pairs=[p for p in pairs if p[0] != p[1]])
        sweep = run_sweep(states, pairs, spec)
        u_prime = build_u_prime(states, spec, sweep.bundle.uks)
        assert sweep.pairs.tolist() == list(map(list, pairs))
        for (m, n), got, expected, fidelity in zip(
                pairs, sweep.ancillas, sweep.expected, sweep.fidelity):
            ref = dense_ancilla(states, u_prime, sweep.bundle, m, n)
            phase = np.vdot(got, ref)
            phase /= abs(phase)
            assert np.abs(phase * got - ref).max() < 1e-12
            assert abs(fidelity - state_fidelity(ref, expected)) < 1e-12


def shuffled_pairs(rng, size):
    """Every ordered pair once, `size` of them again, in random order."""
    pairs = [(m, n) for m in range(size) for n in range(size)]
    pairs += [pairs[k] for k in rng.integers(len(pairs), size=size)]
    return [pairs[k] for k in rng.permutation(len(pairs))]


def einsum_density(states, spec, p1, p2):
    """Reference density of one pair, sum_ij p1_i p2_j |omega_ij><omega_ij|,
    by one four-index einsum."""
    size = states.size
    targets = np.array([[states[i].amplitudes if i == j
                         else build_omega(states, i, j, spec).amplitudes
                         for j in range(size)] for i in range(size)])
    return np.einsum("i,j,ijk,ijl->kl", p1, p2, targets, targets.conj())


def test_sweep_matches_per_pair_einsum_oracle():
    rng = np.random.default_rng(3141)
    for size in [*range(2, 9), 12, 16]:
        states = random_state_set(size, rng)
        pairs = shuffled_pairs(rng, size)
        spec = random_spec(rng, states=states,
                           pairs=[p for p in pairs if p[0] != p[1]])
        sweep = run_sweep(states, pairs, spec)
        labels = distinguish_members(sweep.bundle).labels
        assert np.array_equal(sweep.members.labels, labels)
        assert sweep.pairs.tolist() == list(map(list, pairs))
        for (m, n), got, expected, fidelity in zip(
                pairs, sweep.ancillas, sweep.expected, sweep.fidelity):
            ref = pure_state_from_density(
                einsum_density(states, spec, labels[m], labels[n]))
            phase = np.vdot(ref, got)
            phase /= abs(phase)
            assert np.abs(got - phase * ref).max() < 1e-12
            omega = states[m] if m == n else build_omega(states, m, n, spec)
            assert np.abs(expected - omega.amplitudes).max() <= 1e-15
            # the stacked fidelity is np.vdot's, bit for bit
            assert fidelity == state_fidelity(got, expected)
            single = run_sweep(states, [(m, n)], spec)
            assert np.abs(single.ancillas[0] - got).max() < 1e-12
            assert abs(single.fidelity[0] - fidelity) < 1e-12


def test_sweep_ancilla_overlap_with_target_is_real_and_non_negative(
        zero_minus_set):
    eps = np.finfo(float).eps
    rng = np.random.default_rng(1618)
    sets = [(zero_minus_set, balanced())]
    for size in range(2, 9):
        states = random_state_set(size, rng)
        sets.append((states, random_spec(rng, states=states, pairs=[
            (m, n) for m in range(size) for n in range(size) if m != n])))
    for states, spec in sets:
        pairs = [(m, n) for m in range(states.size) for n in range(states.size)]
        sweep = run_sweep(states, pairs, spec)
        for expected, ancilla in zip(sweep.expected, sweep.ancillas):
            overlap = np.vdot(expected, ancilla)
            assert abs(overlap.imag) <= 4 * eps
            assert overlap.real >= 0
    # with exact labels the ancilla reads entry by entry as its target,
    # and its zero imaginary parts carry no sign
    sweep = run_sweep(zero_minus_set, [(0, 1), (1, 1)], balanced())
    assert np.abs(sweep.ancillas - sweep.expected).max() < 1e-12
    assert not np.signbit(sweep.ancillas.imag).any()


def test_sweep_raises_purity_loss_for_a_mixed_label(monkeypatch):
    rng = np.random.default_rng(2020)
    states = random_state_set(3, rng)
    spec = random_spec(rng, states=states, pairs=[(0, 1), (0, 2), (1, 2)])
    members = superpose.distinguish_members

    def uniform_label_one(bundle):
        record = members(bundle)
        labels = record.labels.copy()
        labels[1] = 1 / 3
        return dataclasses.replace(record, labels=labels)

    monkeypatch.setattr(superpose, "distinguish_members", uniform_label_one)
    assert run_sweep(states, [(0, 2), (2, 2)], spec).fidelity[0] > 1 - 1e-8
    # the first mixed pair in the order of the pairs is (0, 1) in
    # row-major order, and (2, 1) in the shuffled list, where it comes
    # before (0, 1)
    second = {m: np.linalg.eigvalsh(einsum_density(
        states, spec, np.eye(3)[m], np.full(3, 1 / 3)))[-2] for m in (0, 2)}
    assert f"{second[0]:.3e}" != f"{second[2]:.3e}"
    pairs = [(m, n) for m in range(3) for n in range(3)]
    with pytest.raises(PurityLoss, match=f"second eigenvalue {second[0]:.3e};"):
        run_sweep(states, pairs, spec)
    with pytest.raises(PurityLoss, match=f"second eigenvalue {second[2]:.3e};"):
        run_sweep(states, [(0, 0), (2, 1), (0, 1)], spec)


def test_sweep_certificates_bound_the_eigh_oracle():
    rng = np.random.default_rng(1970)
    sets = [random_state_set(n, rng) for n in (2, 3, 4, 6, 8)]
    # the least condition-2 room three times what validation allows
    sets += [near_parallel_set(n, 3 * condition2_threshold(n)) for n in (3, 5, 8)]
    for states in sets:
        assert validate(states).passed
        size = states.size
        pairs = [(m, n) for m in range(size) for n in range(size)]
        spec = random_spec(rng, states=states,
                           pairs=[p for p in pairs if p[0] != p[1]])
        sweep = run_sweep(states, pairs, spec)
        # every pair of these sets is certified, so none took the fallback
        assert np.isfinite(sweep.angle_bound).all()
        labels = sweep.members.labels
        for (m, n), got, second, angle in zip(
                pairs, sweep.ancillas, sweep.second_eig_bound,
                sweep.angle_bound):
            density = einsum_density(states, spec, labels[m], labels[n])
            assert second >= np.linalg.eigvalsh(density)[-2]
            ref = pure_state_from_density(density)
            # sin theta is the part of the ancilla orthogonal to ref
            assert angle >= np.linalg.norm(got - np.vdot(ref, got) * ref)
            assert angle <= 1e-12


def longdouble_ancilla(states, spec, p1, p2, start, steps=60):
    """Dominant eigenvector of sum_ij p1_i p2_j |omega_ij><omega_ij|, the
    targets formed and the density power-iterated from `start` in
    extended precision (np.clongdouble)."""
    amps = states.amplitudes.astype(np.clongdouble)
    alpha, beta = map(np.clongdouble, superpose.unit_scaled(spec.alpha, spec.beta))
    raw = alpha * amps[:, None, :] + beta * amps[None, :, :]
    targets = raw / np.sqrt((abs(raw) ** 2).sum(axis=2))[:, :, None]
    size = states.size
    targets[range(size), range(size)] = amps
    weights = np.outer(p1, p2).astype(np.longdouble)
    density = np.einsum("ij,ijk,ijl->kl", weights, targets, targets.conj())
    v = start.astype(np.clongdouble)
    for _ in range(steps):
        v = density @ v
        v /= np.sqrt((abs(v) ** 2).sum())
    return v


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="the reference needs a longdouble wider than float64")
def test_sweep_certificate_covers_the_error_at_small_gamma():
    # alpha : beta = 1 : -1.0001 on a near-parallel pair leaves gamma near
    # 2e-4, where C's terms of size 1 / gamma^2 cost the ancilla about
    # eps / gamma^2 of accuracy; the angle bound must still cover it
    states = near_parallel_set(2, 3 * condition2_threshold(2))
    spec = SuperpositionSpec(1, -1.0001)
    gamma = np.linalg.norm(states[0].amplitudes - 1.0001 * states[1].amplitudes)
    assert 1e-4 < gamma < 3e-4
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    sweep = run_sweep(states, pairs, spec)
    labels = sweep.members.labels
    for (m, n), got, angle in zip(pairs, sweep.ancillas, sweep.angle_bound):
        ref = longdouble_ancilla(states, spec, labels[m], labels[n], got)
        # sin theta is the part of the ancilla orthogonal to ref
        miss = float(np.sqrt((abs(got - np.vdot(ref, got) * ref) ** 2).sum()))
        assert np.isfinite(angle) and miss <= angle, (m, n, miss, angle)


def test_uncertified_pair_takes_the_eigh_fallback(monkeypatch):
    # labels 1e-7 off a basis vector leave the target, with no power
    # step, a residual far above rounding but a pure density
    rng = np.random.default_rng(77)
    states = random_state_set(3, rng)
    pairs = [(m, n) for m in range(3) for n in range(3)]
    spec = random_spec(rng, states=states,
                       pairs=[p for p in pairs if p[0] != p[1]])
    members = superpose.distinguish_members

    def blurred_labels(bundle):
        record = members(bundle)
        labels = (1 - 3e-7) * record.labels + 1e-7
        return dataclasses.replace(record, labels=labels)

    monkeypatch.setattr(superpose, "distinguish_members", blurred_labels)
    monkeypatch.setattr(superpose, "_POWER_STEPS", 0)
    sweep = run_sweep(states, pairs, spec)
    assert np.isnan(sweep.angle_bound).all()
    labels = sweep.members.labels
    for (m, n), got in zip(pairs, sweep.ancillas):
        ref = pure_state_from_density(
            einsum_density(states, spec, labels[m], labels[n]))
        phase = np.vdot(ref, got)
        assert np.abs(got - phase / abs(phase) * ref).max() < 1e-12


def test_pure_state_extraction_rejects_mixed_input():
    with pytest.raises(PurityLoss):
        pure_state_from_density(np.eye(2) / 2)


def test_pure_state_extraction_of_a_stack_matches_single_calls():
    rng = np.random.default_rng(31)
    stack = np.array([projector(random_state_set(4, rng)[0]) for _ in range(5)])
    got = pure_state_from_density(stack)
    assert got.shape == (5, 4)
    for rho, vec in zip(stack, got):
        assert np.array_equal(vec, pure_state_from_density(rho))
    stack[3] = np.diag([0.7, 0.3, 0, 0])
    stack[4] = np.eye(4) / 4
    with pytest.raises(PurityLoss, match="second eigenvalue 3.000e-01;"):
        pure_state_from_density(stack)


@pytest.mark.parametrize("shape", [(), (4,), (3, 4), (2, 3, 4), (0, 0)])
def test_pure_state_extraction_rejects_a_non_square_stack(shape):
    with pytest.raises(DimensionError):
        pure_state_from_density(np.zeros(shape))


def test_protocol_rejects_out_of_range_indices(zero_minus_set):
    with pytest.raises(DimensionError):
        run_sweep(zero_minus_set, [(0, 2)], balanced())


@pytest.mark.parametrize("bad", [(-1, 0), (0.5, 1), (np.float64(1), 0),
                                 (True, 0), (0, np.True_), ("1", 0),
                                 [(0, 1, 1)], [(0,)], [0, 1]])
def test_sweep_rejects_a_bad_index_before_any_work(zero_minus_set,
                                                   monkeypatch, bad):
    def no_work(*args):
        raise AssertionError("the sweep started before checking its pairs")

    # a list is the whole pair list, anything else a pair after a good one
    pairs = bad if isinstance(bad, list) else [(1, 1), bad]
    monkeypatch.setattr(superpose, "unit_scaled", no_work)
    with pytest.raises(DimensionError):
        run_sweep(zero_minus_set, pairs, balanced())


def test_sweep_takes_numpy_indices_and_an_empty_pair_list(zero_minus_set):
    ints = run_sweep(zero_minus_set, [(np.int64(0), np.int32(1))], balanced())
    rows = run_sweep(zero_minus_set, np.array([[0, 1]]), balanced())
    plain = run_sweep(zero_minus_set, [(0, 1)], balanced())
    for sweep in (ints, rows):
        assert sweep.pairs.tolist() == [[0, 1]]
        assert np.array_equal(sweep.ancillas, plain.ancillas)
        assert np.array_equal(sweep.fidelity, plain.fidelity)
    empty = run_sweep(zero_minus_set, [], balanced())
    assert empty.pairs.shape == (0, 2)
    assert empty.ancillas.shape == empty.expected.shape == (0, 2)
    assert empty.fidelity.shape == (0,)
    assert empty.members.decoded.tolist() == [0, 1]



@pytest.mark.parametrize("size", [16, 32])
def test_sweep_holds_a_fixed_number_of_pair_arrays(size):
    # a P x N complex array takes 16 N^3 bytes at P = N^2; the sweep
    # returns two (ancillas, expected) and holds a few more while it runs
    rng = np.random.default_rng(size)
    z = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    states = StateSet(z / np.linalg.norm(z, axis=1, keepdims=True))
    pairs = [(m, n) for m in range(size) for n in range(size)]
    spec = SuperpositionSpec(0.6 + 0.2j, -0.3 + 0.7j)
    run_sweep(states, pairs, spec)  # numpy's lazily built state is not measured
    tracemalloc.start()
    try:
        sweep = run_sweep(states, pairs, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sweep.fidelity.min() >= 1 - 1e-8
    assert peak <= 11 * 16 * size**3


# the package's public names; a deleted one must leave this list too
EXPORTS = """
    Condition2Exhausted CtcSimError DegenerateSuperposition DensityMatrix
    DimensionError DistinguishResult DistinguisherBundle FixedPointResult
    InputNotInSetWarning InvariantCheck MemberResults NoFixedPointNumerical
    NonUniqueFixedPoint NormalizationError PurityLoss StateSet StateVector
    SuperpositionSpec SweepResult UnitaryMatrix ValidityReport basis_state
    build_distinguisher build_omega build_u_ij build_u_prime build_uk
    consistency_residual controlled_stack ctc_map distinguish
    distinguish_members fixed_point output_state partial_trace projector
    pure_state_from_density run_sweep state_fidelity superoperator_matrix
    swap_operator tensor_product unitary_from_first_column validate
    von_neumann_entropy
""".split()


def test_package_exports_resolve_and_name_no_deleted_api():
    import ctcsim

    assert sorted(ctcsim.__all__) == sorted(EXPORTS)
    namespace = {}
    exec("from ctcsim import *", namespace)
    for name in ctcsim.__all__:
        assert namespace[name] is getattr(ctcsim, name), name
    # what else the package namespace holds is its submodules
    for name in set(vars(ctcsim)) - set(EXPORTS):
        assert name.startswith("_") or isinstance(getattr(ctcsim, name),
                                                  types.ModuleType), name
