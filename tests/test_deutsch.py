import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HADAMARD, S, damped_power_iteration
from ctcsim import (
    DimensionError,
    NoFixedPointNumerical,
    NonUniqueFixedPoint,
    basis_state,
    consistency_residual,
    ctc_map,
    fixed_point,
    output_state,
    projector,
    superoperator_matrix,
    swap_operator,
    tensor_product,
    validate,
    von_neumann_entropy,
)
from ctcsim import deutsch
from ctcsim.sampling import haar_state, haar_unitary, random_density_matrix

PLUS = np.array([S, S], dtype=complex)
MINUS = np.array([S, -S], dtype=complex)

# the two-state discrimination circuit: (|0><0| x I + |1><1| x H) . SWAP
EXAMPLE_U = (
    tensor_product(np.diag([1, 0]), np.eye(2))
    + tensor_product(np.diag([0, 1]), HADAMARD)
) @ swap_operator(2)


def conjugation_oracle(u, rho_cr, sigma, keep_ctc):
    """Independent route: explicit conjugation plus a block-sum trace."""
    da = rho_cr.shape[0]
    db = sigma.shape[0]
    big = u @ np.kron(rho_cr, sigma) @ u.conj().T
    blocks = big.reshape(da, db, da, db)
    if keep_ctc:
        return sum(blocks[a, :, a, :] for a in range(da))
    return np.array([[blocks[a, :, b, :].trace() for b in range(da)]
                     for a in range(da)])


def test_ctc_map_identity_fixes_everything():
    rng = np.random.default_rng(0)
    sigma = random_density_matrix(3, rng)
    out = ctc_map(np.eye(6), random_density_matrix(2, rng), sigma)
    assert np.abs(out.entries - sigma.entries).max() < 1e-12


def test_ctc_map_swap_copies_cr():
    out = ctc_map(swap_operator(2), projector(PLUS), projector(basis_state(2, 0)))
    assert np.abs(out.entries - projector(PLUS)).max() < 1e-12


def test_ctc_map_example_circuit_frozen_value():
    sigma = np.eye(2) / 2
    out = ctc_map(EXAMPLE_U, projector(MINUS), sigma)
    expected = np.array([[0.25, -0.25], [-0.25, 0.75]])
    assert np.abs(out.entries - expected).max() < 1e-12
    oracle = conjugation_oracle(EXAMPLE_U, projector(MINUS), sigma, keep_ctc=True)
    assert np.abs(out.entries - oracle).max() < 1e-12


def test_output_state_identity_returns_cr():
    rng = np.random.default_rng(1)
    rho = random_density_matrix(2, rng)
    out = output_state(np.eye(4), rho, np.eye(2) / 2)
    assert np.abs(out.entries - rho.entries).max() < 1e-12


def test_output_state_swap_returns_ctc():
    out = output_state(swap_operator(2), projector(basis_state(2, 0)),
                       projector(basis_state(2, 1)))
    assert np.abs(out.entries - projector(basis_state(2, 1))).max() < 1e-12


def test_output_state_example_at_consistent_sigma():
    # with the CTC settled on |1><1| the CR output is |1><1| as well
    rho = projector(MINUS)
    sigma = projector(basis_state(2, 1))
    assert consistency_residual(EXAMPLE_U, rho, sigma) < 1e-12
    out = output_state(EXAMPLE_U, rho, sigma)
    assert np.abs(out.entries - sigma).max() < 1e-12


def test_ctc_map_dimension_mismatch():
    with pytest.raises(DimensionError):
        ctc_map(np.eye(6), np.eye(2) / 2, np.eye(2) / 2)
    with pytest.raises(DimensionError):
        ctc_map(np.eye(4), np.eye(2) / 2, np.eye(3) / 3)


# ---------------------------------------------------------------------------
# superoperator_matrix


def matrix_unit_superoperator(u, rho_cr, d):
    """Independent linearization: apply the map to the d^2 matrix units."""
    L = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        for i in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            out = conjugation_oracle(u, rho_cr, unit, keep_ctc=True)
            L[:, j * d + i] = out.reshape(-1, order="F")
    return L


def test_superoperator_identity():
    L = superoperator_matrix(np.eye(6), np.eye(2) / 2)
    assert np.abs(L - np.eye(9)).max() < 1e-12


def test_superoperator_swap_structure():
    rng = np.random.default_rng(5)
    rho = random_density_matrix(2, rng).entries
    L = superoperator_matrix(swap_operator(2), rho)
    closed_form = np.outer(rho.reshape(-1, order="F"),
                           np.eye(2).reshape(-1, order="F"))
    assert np.abs(L - closed_form).max() < 1e-12
    assert np.abs(L - matrix_unit_superoperator(swap_operator(2), rho, 2)).max() < 1e-12


def test_superoperator_matches_map_on_random_inputs():
    rng = np.random.default_rng(17)
    for _ in range(20):
        da = int(rng.integers(2, 4))
        db = int(rng.integers(2, 4))
        u = haar_unitary(da * db, rng).entries
        rho = random_density_matrix(da, rng).entries
        L = superoperator_matrix(u, rho)
        for _ in range(5):
            sigma = random_density_matrix(db, rng).entries
            lhs = (L @ sigma.reshape(-1, order="F")).reshape(db, db, order="F")
            rhs = ctc_map(u, rho, sigma).entries
            assert np.abs(lhs - rhs).max() < 1e-12


def test_superoperator_against_matrix_unit_oracle():
    rng = np.random.default_rng(23)
    u = haar_unitary(6, rng).entries
    mixed = random_density_matrix(2, rng).entries
    pure = projector(haar_state(2, rng))
    for rho in (mixed, pure):
        L = superoperator_matrix(u, rho)
        assert np.abs(L - matrix_unit_superoperator(u, rho, 3)).max() < 1e-12


def test_map_is_cptp_on_random_inputs():
    rng = np.random.default_rng(99)
    count = 0
    for da in (2, 3, 4):
        for db in (2, 3, 4):
            for _ in range(56):
                u = haar_unitary(da * db, rng)
                rho = random_density_matrix(da, rng)
                sigma = random_density_matrix(db, rng)
                out = ctc_map(u, rho, sigma)
                assert validate(out).passed
                count += 1
    assert count >= 500


def test_map_is_linear():
    rng = np.random.default_rng(31)
    u = haar_unitary(6, rng)
    rho = random_density_matrix(2, rng)
    s1 = random_density_matrix(3, rng).entries
    s2 = random_density_matrix(3, rng).entries
    mixed = ctc_map(u, rho, (s1 + s2) / 2).entries
    parts = (ctc_map(u, rho, s1).entries + ctc_map(u, rho, s2).entries) / 2
    assert np.abs(mixed - parts).max() < 1e-12


# ---------------------------------------------------------------------------
# fixed_point


def test_fixed_point_identity_max_entropy():
    result = fixed_point(np.eye(4), np.eye(2) / 2, policy="max_entropy")
    assert result.fixed_space_dim == 4
    assert not result.unique
    assert np.abs(result.fixed_point.entries - np.eye(2) / 2).max() < 1e-10


def test_fixed_point_identity_requires_unique(monkeypatch):
    calls = _count_null_space(monkeypatch)
    with pytest.raises(NonUniqueFixedPoint) as err:
        fixed_point(np.eye(4), np.eye(2) / 2, policy="require_unique")
    assert err.value.fixed_space_dim == 4
    assert len(calls) == 1


def test_fixed_point_swap_returns_cr_state():
    rng = np.random.default_rng(2)
    for _ in range(5):
        rho = random_density_matrix(3, rng)
        result = fixed_point(swap_operator(3), rho)
        assert result.unique
        assert result.residual <= 1e-8
        assert np.abs(result.fixed_point.entries - rho.entries).max() < 1e-10


def test_fixed_point_example_circuit():
    result = fixed_point(EXAMPLE_U, projector(MINUS))
    assert result.unique
    expected = projector(basis_state(2, 1))
    assert np.abs(result.fixed_point.entries - expected).max() < 1e-8
    oracle, converged = damped_power_iteration(
        EXAMPLE_U, projector(MINUS), np.eye(2) / 2)
    assert converged
    assert np.abs(result.fixed_point.entries - oracle).max() < 1e-6


def test_fixed_point_agrees_with_power_iteration():
    rng = np.random.default_rng(314)
    compared = 0
    while compared < 30:
        da = int(rng.integers(2, 4))
        db = int(rng.integers(2, 4))
        u = haar_unitary(da * db, rng)
        rho = random_density_matrix(da, rng)
        result = fixed_point(u, rho, policy="max_entropy")
        oracle, converged = damped_power_iteration(
            u.entries, rho.entries, np.eye(db) / db)
        if not (converged and result.unique):
            continue
        assert np.abs(result.fixed_point.entries - oracle).max() < 1e-6
        compared += 1


def test_fixed_point_degenerate_dephasing_selects_mixed():
    # sigma -> (sigma + X sigma X) / 2 fixes every diagonal state; the
    # max-entropy policy must pick the maximally mixed one
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    u = (tensor_product(np.diag([1, 0]), np.eye(2))
         + tensor_product(np.diag([0, 1]), x))
    result = fixed_point(u, projector(PLUS), policy="max_entropy")
    assert result.fixed_space_dim == 2
    assert np.abs(result.fixed_point.entries - np.eye(2) / 2).max() < 1e-9
    assert abs(von_neumann_entropy(result.fixed_point) - np.log(2)) < 1e-9


def test_entropy_of_a_pure_state_is_plus_zero():
    assert math.copysign(1.0, von_neumann_entropy(projector([1, 0]))) == 1.0


def _ginibre_state(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _qr_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _swap(a, b):
    """SWAP taking |x>_a |y>_b to |y>_b |x>_a (first factor slow)."""
    s = np.zeros((a * b, a * b))
    for x in range(a):
        for y in range(b):
            s[y * a + x, x * b + y] = 1.0
    return s


def _entropy(m):
    w = np.linalg.eigvalsh(m)
    w = w[w > 0]
    return -(w * np.log(w)).sum()


def _block_channel_case(cr_dim):
    """Identity on |0>, (A (x) Bu) . SWAP on CR (x) B with dim B = cr_dim.

    The fixed set is {p |0><0| + (1 - p) omega} with omega = Bu rho Bu^dagger,
    and the entropy h(p) + (1 - p) S(omega) peaks at p = 1 / (1 + e^S(omega)).
    """
    rng = np.random.default_rng(cr_dim)
    ctc_dim = cr_dim + 1
    a, b = _qr_unitary(rng, cr_dim), _qr_unitary(rng, cr_dim)
    u = np.zeros((cr_dim * ctc_dim,) * 2, dtype=complex)
    zero = [c * ctc_dim for c in range(cr_dim)]
    block = [c * ctc_dim + 1 + j for c in range(cr_dim) for j in range(cr_dim)]
    u[zero, zero] = 1.0
    u[np.ix_(block, block)] = np.kron(a, b) @ _swap(cr_dim, cr_dim)
    rho = _ginibre_state(rng, cr_dim)
    omega = b @ rho @ b.conj().T
    p = 1.0 / (1.0 + np.exp(_entropy(omega)))
    expected = np.zeros((ctc_dim, ctc_dim), dtype=complex)
    expected[0, 0] = p
    expected[1:, 1:] = (1.0 - p) * omega
    return u, rho, expected


def _chain_case():
    """Distinguisher-shaped map sigma -> sum_k sigma_kk U_k rho U_k^dagger.

    Labels {0, 1} and {2, 3} are closed classes and label 4 is transient,
    so every fixed state is q sigma_0 (+) (1 - q) sigma_1, where sigma_c
    is its class's stationary mixture, and the max-entropy state (rank 4
    of 5) has q_c proportional to exp S(sigma_c).
    """
    rng = np.random.default_rng(7)
    n = 5
    rho = np.zeros((n, n), dtype=complex)
    rho[:2, :2] = _ginibre_state(rng, 2)
    to_second = np.eye(n)[:, [2, 3, 0, 1, 4]]
    unitaries = []
    for lift in (np.eye(n), to_second):
        for _ in range(2):
            v = np.eye(n, dtype=complex)
            v[:2, :2] = _qr_unitary(rng, 2)
            unitaries.append(lift @ v)
    unitaries.append(_qr_unitary(rng, n))
    u = sum(np.kron(np.diag(np.eye(n)[k]), uk)
            for k, uk in enumerate(unitaries)) @ _swap(n, n)
    taus = [uk @ rho @ uk.conj().T for uk in unitaries]
    classes = []
    for labels in ([0, 1], [2, 3]):
        t = np.array([[taus[k][j, j].real for k in labels] for j in labels])
        vals, vecs = np.linalg.eig(t)
        pi = vecs[:, np.argmin(np.abs(vals - 1))].real
        pi = pi / pi.sum()
        classes.append(sum(w * taus[k] for w, k in zip(pi, labels)))
    q = np.array([np.exp(_entropy(s)) for s in classes])
    q = q / q.sum()
    return u, rho, q[0] * classes[0] + q[1] * classes[1]


@pytest.mark.parametrize("case", [
    lambda: _block_channel_case(3),
    lambda: _block_channel_case(5),
    _chain_case,
], ids=["block-3x4", "block-5x6", "chain-two-classes"])
def test_max_entropy_matches_closed_form(case):
    u, rho, expected = case()
    result = fixed_point(u, rho, policy="max_entropy")
    assert result.fixed_space_dim == 2
    assert np.abs(result.fixed_point.entries - expected).max() < 1e-12


def test_max_entropy_failed_certificate_raises(monkeypatch):
    monkeypatch.setattr(deutsch, "_KKT_TOL", 0.0)
    u, rho, _ = _block_channel_case(3)
    with pytest.raises(NoFixedPointNumerical, match="KKT gradient"):
        fixed_point(u, rho, policy="max_entropy")


def _draining_channel_case():
    """Dephasing on |0>..|8> while |9>..|15> drain into |0>.

    The fixed states are the diagonal states on |0>..|8>, and the
    max-entropy one is I/9 there.  The Cesaro limit of I/16 puts 1/2 on
    |0>, so the first full Newton step leaves the positive-definite cone.
    """
    d = 16
    kraus = [np.outer(np.eye(d)[c], np.eye(d)[c]) for c in range(9)]
    kraus += [np.outer(np.eye(d)[0], np.eye(d)[t]) for t in range(9, d)]
    isometry = np.concatenate(kraus)  # the columns of u on CR state |0>
    u = np.hstack([isometry, np.linalg.svd(isometry)[0][:, d:]])
    return u, projector(basis_state(d, 0)), np.diag([1 / 9] * 9 + [0] * 7)


def test_max_entropy_halves_a_step_that_leaves_the_cone():
    u, rho, expected = _draining_channel_case()
    result = fixed_point(u, rho, policy="max_entropy")
    assert result.fixed_space_dim == 9
    assert np.abs(result.fixed_point.entries - expected).max() < 1e-12


def test_max_entropy_fails_at_the_step_that_fails(monkeypatch):
    monkeypatch.setattr(deutsch, "_MAX_HALVINGS", 0)
    u, rho, _ = _draining_channel_case()
    with pytest.raises(NoFixedPointNumerical,
                       match=r"Newton step 1 leaves the positive-definite cone "
                             r"after 0 halvings: smallest trial eigenvalue -"):
        fixed_point(u, rho, policy="max_entropy")


# ---------------------------------------------------------------------------
# the bordered certificate against the SVD path


def _svd_path(u, rho, policy="require_unique"):
    """fixed_point with the certificate turned off: its result or error."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(deutsch, "_certified_fixed_point",
                   lambda u, rho: (None, deutsch._hermitian_superoperator(u, rho)))
        try:
            return fixed_point(u, rho, policy=policy)
        except (NonUniqueFixedPoint, NoFixedPointNumerical) as err:
            return err


def _count_calls(monkeypatch, owner, name):
    """Record each call of owner.name as True when it returns, else False."""
    calls = []
    func = getattr(owner, name)

    def counted(*args):
        calls.append(False)
        out = func(*args)
        calls[-1] = True
        return out

    monkeypatch.setattr(owner, name, counted)
    return calls


def _count_null_space(monkeypatch):
    return _count_calls(monkeypatch, deutsch, "null_space")


def _haar_circuit(cr_dim, ctc_dim):
    rng = np.random.default_rng([cr_dim, ctc_dim])
    return (haar_unitary(cr_dim * ctc_dim, rng).entries,
            random_density_matrix(cr_dim, rng).entries)


def _gathered_superoperator(u, rho):
    """Oracle of _hermitian_superoperator: rows and columns of the complex
    L gathered into the Hermitian coordinates."""
    L = superoperator_matrix(u, rho)
    dim = int(round(np.sqrt(L.shape[0])))
    diag, up, low = deutsch._hermitian_index(dim)
    rows = L[np.concatenate([diag, up])]
    a, b = rows[:, up], rows[:, low]
    cols = np.concatenate(
        [rows[:, diag], (a + b) / np.sqrt(2), 1j * (a - b) / np.sqrt(2)], axis=1)
    return np.concatenate([
        cols[:dim].real, np.sqrt(2) * cols[dim:].real, np.sqrt(2) * cols[dim:].imag])


def _inverse_certificate(real, dim):
    """Oracle of _certified_fixed_point: x = B^-1 e_0 when
    1 / |B^-1|_F > SVD_CUTOFF >= |A x| / |x|, from an explicit inverse."""
    a = real - np.eye(real.shape[0])
    bordered = a.copy()
    bordered[0] = 0.0
    bordered[0, :dim] = 1.0
    try:
        inverse = np.linalg.inv(bordered)
    except np.linalg.LinAlgError:
        return None
    x = inverse[:, 0]
    if (1 / np.linalg.norm(inverse) > deutsch.SVD_CUTOFF
            and np.linalg.norm(a @ x) <= deutsch.SVD_CUTOFF * np.linalg.norm(x)):
        return x
    return None


@pytest.mark.parametrize("case", [
    lambda: _haar_circuit(2, 8),
    lambda: _haar_circuit(3, 8),
    lambda: _haar_circuit(4, 6),
    lambda: _haar_circuit(2, 16),
    lambda: _haar_circuit(2, 24),
    lambda: _haar_circuit(3, 3),
    lambda: (EXAMPLE_U, projector(MINUS)),
], ids=["haar-2x8", "haar-3x8", "haar-4x6", "haar-2x16", "haar-2x24",
        "haar-3x3", "example"])
def test_certified_fixed_point_matches_svd_path(monkeypatch, case):
    u, rho = case()
    oracle = _svd_path(u, rho)
    calls = _count_null_space(monkeypatch)
    result = fixed_point(u, rho)
    assert calls == []
    assert result.fixed_space_dim == oracle.fixed_space_dim == 1
    assert result.unique
    assert np.abs(result.fixed_point.entries
                  - oracle.fixed_point.entries).max() < 1e-12
    assert abs(result.residual - oracle.residual) < 1e-12


@pytest.mark.parametrize("case, policy, svd_calls", [
    (lambda: _haar_circuit(2, 8), "require_unique", 0),
    (lambda: _haar_circuit(2, 8), "max_entropy", 0),
    (lambda: (np.eye(16), _haar_circuit(2, 8)[1]), "max_entropy", 1),
    (lambda: _block_channel_case(3)[:2], "max_entropy", 1),
    (lambda: _block_channel_case(5)[:2], "max_entropy", 1),
], ids=["haar-unique", "haar-max-entropy", "identity", "block-3x4",
        "block-5x6"])
def test_full_svd_runs_only_when_the_certificate_fails(monkeypatch, case,
                                                       policy, svd_calls):
    u, rho = case()
    calls = _count_null_space(monkeypatch)
    fixed_point(u, rho, policy=policy)
    assert len(calls) == svd_calls


def test_failed_cutoff_is_never_certified(monkeypatch):
    monkeypatch.setattr(deutsch, "SVD_CUTOFF", -1.0)
    certified = []
    certify = deutsch._certified_fixed_point
    monkeypatch.setattr(deutsch, "_certified_fixed_point",
                        lambda u, rho: certified.append(certify(u, rho))
                        or certified[-1])
    u, rho = _haar_circuit(2, 8)
    with pytest.raises(NoFixedPointNumerical, match="smallest singular value"):
        fixed_point(u, rho)
    ((x, real),) = certified
    assert x is None
    assert np.array_equal(real, deutsch._hermitian_superoperator(u, rho))


def _near_identity_case(seed, cr_dim, ctc_dim, decades):
    """(1 - w) Phi + w id for a Haar circuit Phi: it keeps Phi's fixed
    space but scales its gap by 1 - w = 10^-decades."""
    rng = np.random.default_rng(seed)
    w = 1 - 10.0**-decades
    v = haar_unitary(cr_dim * ctc_dim, rng).entries
    u = (tensor_product(np.diag([1, 0]), v)
         + tensor_product(np.diag([0, 1]), np.eye(cr_dim * ctc_dim)))
    rho = tensor_product(np.diag([1 - w, w]),
                         random_density_matrix(cr_dim, rng).entries)
    return u, rho


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), cr_dim=st.integers(2, 3),
       ctc_dim=st.integers(2, 3), decades=st.floats(0, 12))
def test_certificate_agrees_with_svd_near_the_identity(seed, cr_dim, ctc_dim,
                                                        decades):
    # the scaled gap carries the verdict across the cutoff
    u, rho = _near_identity_case(seed, cr_dim, ctc_dim, decades)
    oracle = _svd_path(u, rho)
    real = deutsch._hermitian_superoperator(u, rho)
    x, restored = deutsch._certified_fixed_point(u, rho)
    if x is not None:
        svals = np.linalg.svd(real - np.eye(ctc_dim**2), compute_uv=False)
        assert (svals <= deutsch.SVD_CUTOFF).sum() == 1
    else:
        assert np.array_equal(restored, real)
    try:
        result = fixed_point(u, rho)
    except (NonUniqueFixedPoint, NoFixedPointNumerical) as err:
        assert type(err) is type(oracle)
        assert (getattr(err, "fixed_space_dim", None)
                == getattr(oracle, "fixed_space_dim", None))
        return
    assert isinstance(oracle, deutsch.FixedPointResult)
    assert result.fixed_space_dim == oracle.fixed_space_dim
    # both solvers are backward stable, so they part by the rounding of
    # the bordered solve, at most about d^2 eps |B^-1|_F
    bordered = real - np.eye(ctc_dim**2)
    bordered[0] = 0.0
    bordered[0, :ctc_dim] = 1.0
    tol = ctc_dim**2 * np.finfo(float).eps * np.linalg.norm(
        np.linalg.inv(bordered))
    assert np.abs(result.fixed_point.entries
                  - oracle.fixed_point.entries).max() <= tol


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), cr_dim=st.integers(2, 4),
       ctc_dim=st.integers(2, 12), pure=st.booleans())
def test_assembly_and_certificate_match_their_oracles(seed, cr_dim, ctc_dim,
                                                     pure):
    rng = np.random.default_rng(seed)
    u = haar_unitary(cr_dim * ctc_dim, rng).entries
    if pure:
        # the pure-state config form: a rank-1 rho_cr
        psi = haar_state(cr_dim, rng).amplitudes
        rho = np.outer(psi, psi.conj())
    else:
        rho = random_density_matrix(cr_dim, rng).entries
    real = deutsch._hermitian_superoperator(u, rho)
    oracle = _gathered_superoperator(u, rho)
    eps = np.finfo(float).eps
    assert np.abs(real - oracle).max() <= 8 * eps * np.linalg.norm(oracle)

    n = ctc_dim**2
    x, restored = deutsch._certified_fixed_point(u, rho)
    svals = np.linalg.svd(real - np.eye(n), compute_uv=False)
    if x is not None:
        assert (svals <= deutsch.SVD_CUTOFF).sum() == 1
    else:
        assert np.array_equal(restored, real)
    inverse_x = _inverse_certificate(real, ctc_dim)
    if inverse_x is not None:
        assert x is not None
        assert np.abs(x - inverse_x).max() <= 1e-12
    result, svd = fixed_point(u, rho), _svd_path(u, rho)
    assert result.fixed_space_dim == svd.fixed_space_dim == 1
    assert np.abs(result.fixed_point.entries
                  - svd.fixed_point.entries).max() <= 1e-12


def _pairwise_superoperator(u, rho):
    """Oracle of the slabbed _hermitian_superoperator: each output pair's
    rows from a matmul of its own, with the assembly's arithmetic."""
    cr_dim = rho.shape[0]
    dim = u.shape[0] // cr_dim
    u4 = u.reshape(cr_dim, dim, cr_dim, dim)
    left = np.tensordot(u4, rho, ([2], [0])).transpose(1, 2, 0, 3).reshape(
        dim, dim, cr_dim**2)
    right = u4.conj().transpose(1, 0, 2, 3).reshape(dim, cr_dim**2, dim)
    i, j = np.triu_indices(dim, 1)
    pairs = [(x, x) for x in range(dim)] + list(zip(i, j))
    r2 = np.sqrt(2)
    real = np.empty((dim * dim, dim * dim))
    for p, (x, x_) in enumerate(pairs):
        t = left[x] @ right[x_]
        plus, minus = t[i, j] + t[j, i], t[i, j] - t[j, i]
        if p < dim:
            real[p] = np.concatenate(
                [t.diagonal().real, plus.real / r2, minus.imag / -r2])
        else:
            real[p] = np.concatenate(
                [r2 * t.diagonal().real, plus.real, -minus.imag])
            real[p + i.size] = np.concatenate(
                [r2 * t.diagonal().imag, plus.imag, minus.real])
    return real


@pytest.mark.parametrize("slab", [None, 5], ids=["slab-32", "slab-5"])
@pytest.mark.parametrize("ctc_dim", [2, 5, 8, 9, 16])
def test_slabbed_assembly_is_the_pairwise_one_bit_for_bit(monkeypatch, slab,
                                                          ctc_dim):
    # at 5 pairs a slab, slab edges fall before and after the diagonal
    # pairs end; at 32, every slab edge falls after
    if slab is not None:
        monkeypatch.setattr(deutsch, "_SLAB", slab)
    u, rho = _haar_circuit(2, ctc_dim)
    real = deutsch._hermitian_superoperator(u, rho)
    assert real.flags.f_contiguous
    assert np.array_equal(real, _pairwise_superoperator(u, rho))
    oracle = _gathered_superoperator(u, rho)
    assert np.abs(real - oracle).max() <= (
        8 * np.finfo(float).eps * np.linalg.norm(oracle))


@pytest.mark.parametrize("ctc_dim", [16, 24])
def test_unique_fixed_point_holds_two_superoperators(ctc_dim):
    u, rho = _haar_circuit(2, ctc_dim)
    fixed_point(u, rho)  # numpy's lazily built state is not measured
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        result = fixed_point(u, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.unique
    assert peak <= 1.05 * 2 * ctc_dim**4 * 8


# the peak, in bytes, of the identity 2 x 16 under max_entropy (n = 256,
# 6.27 n^2 doubles) once its directions were formed and compressed once;
# it was 6 428 832 (12.3 n^2 doubles) before
MAX_ENTROPY_IDENTITY_PEAK = 3_284_856


def test_max_entropy_on_the_identity_holds_its_measured_peak():
    u, rho = np.eye(32), _haar_circuit(2, 16)[1]
    fixed_point(u, rho, policy="max_entropy")  # numpy's lazily built state
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        result = fixed_point(u, rho, policy="max_entropy")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.fixed_space_dim == 256
    assert np.abs(result.fixed_point.entries - np.eye(16) / 16).max() <= 1e-12
    assert peak <= 1.05 * MAX_ENTROPY_IDENTITY_PEAK, peak


@pytest.mark.parametrize("case, builds, factorizations", [
    (lambda: (np.eye(16), _haar_circuit(2, 8)[1]), 1, []),
    (lambda: _block_channel_case(3)[:2], 1, []),
    (lambda: _block_channel_case(5)[:2], 1, []),
    (lambda: _haar_circuit(2, 8), 1, [True]),
    (lambda: _near_identity_case(0, 2, 3, 8), 2, [False]),
], ids=["identity", "block-3x4", "block-5x6", "haar-2x8", "near-identity"])
def test_superoperator_is_assembled_again_only_after_a_failed_factorization(
        monkeypatch, case, builds, factorizations):
    # the identity and the block channels conserve sigma_00, so the
    # pre-check rules the factorization out and L is restored in place
    u, rho = case()
    oracle = _svd_path(u, rho, "max_entropy")
    assembled = _count_calls(monkeypatch, deutsch, "_hermitian_superoperator")
    factorized = _count_calls(monkeypatch, np.linalg, "cholesky")
    result = fixed_point(u, rho, policy="max_entropy")
    assert len(assembled) == builds
    assert factorized == factorizations
    assert result.fixed_space_dim == oracle.fixed_space_dim
    if factorizations != [True]:
        # the SVD ran on the restored or rebuilt L, which is L bit for bit
        assert np.array_equal(result.fixed_point.entries,
                              oracle.fixed_point.entries)
        assert result.residual == oracle.residual


def _hermitian_coordinates(x):
    """Diagonal, then sqrt(2) Re and sqrt(2) Im of the upper entries."""
    i, j = np.triu_indices(x.shape[0], 1)
    return np.concatenate([np.diag(x).real, np.sqrt(2) * x[i, j].real,
                           np.sqrt(2) * x[i, j].imag])


def _haar_case():
    rng = np.random.default_rng(41)
    return haar_unitary(9, rng).entries, random_density_matrix(3, rng).entries


def _diagonal_phase_case():
    rng = np.random.default_rng(43)
    u = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 8)))
    return u, _ginibre_state(rng, 2)


@pytest.mark.parametrize("case", [
    _haar_case,
    lambda: (np.eye(8), _ginibre_state(np.random.default_rng(42), 2)),
    _diagonal_phase_case,
    lambda: _block_channel_case(3)[:2],
], ids=["haar-3x3", "identity-2x4", "diagonal-phase-2x4", "block-3x4"])
def test_hermitian_restriction_matches_complex_path(case):
    u, rho = case()
    d = u.shape[0] // rho.shape[0]
    svals = np.linalg.svd(superoperator_matrix(u, rho) - np.eye(d * d),
                          compute_uv=False)
    result = fixed_point(u, rho, policy="max_entropy")
    assert result.fixed_space_dim == (svals <= deutsch.SVD_CUTOFF).sum()
    real = deutsch._hermitian_superoperator(u, rho)
    assert real.shape == (d * d, d * d) and not np.iscomplexobj(real)
    oracle = _gathered_superoperator(u, rho)
    assert np.abs(real - oracle).max() <= (
        8 * np.finfo(float).eps * np.linalg.norm(oracle))
    rng = np.random.default_rng(d)
    for _ in range(5):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        x = g + g.conj().T
        image = ctc_map(u, rho, x).entries
        assert np.abs(real @ _hermitian_coordinates(x)
                      - _hermitian_coordinates(image)).max() < 1e-12


def test_fixed_point_rejects_unknown_policy():
    with pytest.raises(ValueError):
        fixed_point(np.eye(4), np.eye(2) / 2, policy="largest")


def _half_nan():
    sigma = np.eye(2, dtype=complex) / 2
    sigma[0, 1] = np.nan
    return sigma


@pytest.mark.parametrize("sigma", [
    _half_nan(),
    np.full((4, 4), np.nan, dtype=complex),
], ids=["one-nan", "all-nan"])
def test_finalize_rejects_a_non_finite_candidate(sigma):
    # one NaN was accepted as unique with residual nan; an all-NaN 4 x 4
    # made eigvalsh raise LinAlgError
    d = sigma.shape[0]
    with pytest.raises(NoFixedPointNumerical, match="not finite"):
        deutsch._finalize(np.eye(2 * d), np.diag([1.0, 0.0]), sigma, 1)


def test_finalize_rejects_a_nan_residual():
    u = np.eye(4, dtype=complex)
    u[0, 0] = np.nan
    with pytest.raises(NoFixedPointNumerical, match="residual nan"):
        deutsch._finalize(u, np.diag([1.0, 0.0]), np.eye(2) / 2, 1)


# ---------------------------------------------------------------------------
# consistency_residual


def test_residual_of_solution_is_small():
    result = fixed_point(EXAMPLE_U, projector(MINUS))
    r = consistency_residual(EXAMPLE_U, projector(MINUS),
                             result.fixed_point.entries)
    assert r <= 1e-8


def test_residual_swap_orthogonal_states_is_one():
    r = consistency_residual(swap_operator(2), projector(basis_state(2, 0)),
                             projector(basis_state(2, 1)))
    assert abs(r - 1.0) < 1e-14


def test_residual_identity_is_zero():
    rng = np.random.default_rng(8)
    sigma = random_density_matrix(2, rng).entries
    assert consistency_residual(np.eye(4), np.eye(2) / 2, sigma) < 1e-15
