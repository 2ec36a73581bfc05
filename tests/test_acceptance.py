"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s, and on any
failure), so the suite doubles as a checklist.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import HADAMARD, PAULI_X, S, damped_power_iteration
from ctcsim import (
    DegenerateSuperposition,
    DistinguisherBundle,
    NonUniqueFixedPoint,
    StateSet,
    SuperpositionSpec,
    basis_state,
    build_distinguisher,
    build_omega,
    build_u_ij,
    distinguish,
    fixed_point,
    projector,
    run_sweep,
    swap_operator,
    tensor_product,
    validate,
)
from ctcsim.cli import main
from ctcsim.sampling import haar_unitary, random_density_matrix, random_state_set


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({name}): PASS")


def two_state_set():
    from ctcsim import StateVector

    return StateSet((StateVector([1, 0]), StateVector([S, -S])))


def printed_block(i, j, alpha, beta):
    """The worked-example matrices with norm-corrected normalizers."""
    if (i, j) == (1, 0):
        alpha, beta = beta, alpha
    g = np.sqrt(abs(alpha + beta * S) ** 2 + abs(beta) ** 2 / 2)
    return np.array([
        [alpha + beta * S, np.conj(beta) * S],
        [-beta * S, np.conj(alpha) + np.conj(beta) * S],
    ], dtype=complex) / g


def phase_aligned_deviation(got, want):
    overlap = np.vdot(want, got)
    phase = overlap / abs(overlap) if abs(overlap) > 1e-12 else 1.0
    return np.abs(got - phase * want).max()


def test_criterion_1_worked_example_reproduction():
    with criterion(1, "worked example reproduction"):
        states = two_state_set()
        bundle = build_distinguisher(states)
        reference_total = (
            tensor_product(np.diag([1, 0]), np.eye(2))
            + tensor_product(np.diag([0, 1]), HADAMARD)
        ) @ swap_operator(2)
        assert np.abs(bundle.total.entries - reference_total).max() <= 1e-12

        spec = SuperpositionSpec(S, S)
        u00 = build_u_ij(states, 0, 0, spec, bundle.uks)
        u11 = build_u_ij(states, 1, 1, spec, bundle.uks)
        assert np.abs(u00.entries - np.eye(2)).max() <= 1e-12
        assert np.abs(u11.entries - HADAMARD @ PAULI_X).max() <= 1e-12

        rng = np.random.default_rng(11)
        pairs = [(S, S)]
        while len(pairs) < 21:
            alpha, beta = rng.standard_normal(2)
            g1 = np.hypot(alpha + beta * S, beta * S)
            g2 = np.hypot(beta + alpha * S, alpha * S)
            if min(g1, g2) > 1e-3:
                pairs.append((alpha, beta))
        for alpha, beta in pairs:
            spec = SuperpositionSpec(alpha, beta)
            for i, j in ((0, 1), (1, 0)):
                got = build_u_ij(states, i, j, spec, bundle.uks).entries
                want = printed_block(i, j, alpha, beta)
                assert phase_aligned_deviation(got[:, 0], want[:, 0]) <= 1e-9


def test_criterion_2_distinguisher_correctness():
    with criterion(2, "distinguisher correctness"):
        for n in (2, 3, 4, 5):
            rng = np.random.default_rng(200 + n)
            for trial in range(20):
                states = random_state_set(n, rng)
                bundle = build_distinguisher(states)
                for j in range(n):
                    result = distinguish(bundle, states[j])
                    target = projector(basis_state(n, j))
                    assert result.residual <= 1e-8
                    assert np.abs(result.rho_ctc.entries - target).max() <= 1e-8
                    assert np.abs(result.rho_out.entries - target).max() <= 1e-8
                    assert result.decoded == j


def test_criterion_3_superposition_correctness():
    with criterion(3, "superposition correctness"):
        start = time.perf_counter()
        for n in (2, 3, 4):
            rng = np.random.default_rng(300 + n)
            for trial in range(10):
                states = random_state_set(n, rng)
                specs = []
                while len(specs) < 5:
                    alpha = complex(rng.standard_normal(), rng.standard_normal())
                    beta = complex(rng.standard_normal(), rng.standard_normal())
                    if abs(alpha) + abs(beta) < 1e-3:
                        continue
                    gammas = [
                        np.linalg.norm(alpha * states[m].amplitudes
                                       + beta * states[k].amplitudes)
                        for m in range(n) for k in range(n) if m != k
                    ]
                    if min(gammas) > 1e-3:
                        specs.append(SuperpositionSpec(alpha, beta))
                pairs = [(m, k) for m in range(n) for k in range(n)]
                for spec in specs:
                    sweep = run_sweep(states, pairs, spec)
                    assert sweep.fidelity.min() >= 1 - 1e-8
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"sweep took {elapsed:.1f} s"


def test_criterion_4_fixed_point_engine_properties():
    with criterion(4, "fixed-point engine properties"):
        rng = np.random.default_rng(400)
        checked = 0
        from ctcsim import ctc_map

        while checked < 500:
            da = int(rng.integers(2, 5))
            db = int(rng.integers(2, 5))
            u = haar_unitary(da * db, rng)
            rho = random_density_matrix(da, rng)
            sigma = random_density_matrix(db, rng)
            assert validate(ctc_map(u, rho, sigma)).passed
            checked += 1

        compared = 0
        while compared < 100:
            da = int(rng.integers(2, 4))
            db = int(rng.integers(2, 4))
            u = haar_unitary(da * db, rng)
            rho = random_density_matrix(da, rng)
            result = fixed_point(u, rho, policy="max_entropy")
            oracle, converged = damped_power_iteration(
                u.entries, rho.entries, np.eye(db) / db)
            if not (converged and result.unique):
                continue
            assert np.abs(result.fixed_point.entries - oracle).max() <= 1e-6
            compared += 1

        for _ in range(50):
            d = int(rng.integers(2, 5))
            rho = random_density_matrix(d, rng)
            result = fixed_point(swap_operator(d), rho)
            assert result.unique
            assert np.abs(result.fixed_point.entries - rho.entries).max() <= 1e-10


def test_criterion_5_degenerate_and_error_paths():
    with criterion(5, "degenerate and error paths"):
        with pytest.raises(ValueError):
            SuperpositionSpec(0, 0)

        dup = StateSet((basis_state(2, 0), basis_state(2, 0)))
        with pytest.raises(DegenerateSuperposition):
            build_omega(dup, 0, 1, SuperpositionSpec(1, -1))

        # condition (2) violated by construction: U_1 and U_2 satisfy
        # condition (1) but cycle the remaining basis states, so input
        # psi_0 admits a whole family of consistent CTC states
        states = StateSet(tuple(basis_state(3, k) for k in range(3)))
        u1 = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)
        u2 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
        bundle = DistinguisherBundle(states, [np.eye(3), u1, u2])
        assert bundle.condition2_min <= 1e-6
        with pytest.raises(NonUniqueFixedPoint):
            distinguish(bundle, states[0])
        probe = fixed_point(bundle.total.entries, projector(states[0]),
                            policy="max_entropy")
        assert probe.fixed_space_dim > 1
        assert not probe.unique


def test_criterion_6_byte_determinism(tmp_path):
    with criterion(6, "byte-for-byte determinism"):
        s17 = format(S, ".17g")
        pair_cfg = tmp_path / "pair.yaml"
        pair_cfg.write_text(
            "state_set:\n"
            "  - [[1, 0], [0, 0]]\n"
            f"  - [[{s17}, 0], [-{s17}, 0]]\n"
            f"alpha: [{s17}, 0]\n"
            f"beta: [{s17}, 0]\n"
        )
        fp_cfg = tmp_path / "fp.yaml"
        fp_cfg.write_text(
            "unitary:\n"
            "  - [[1, 0], [0, 0], [0, 0], [0, 0]]\n"
            "  - [[0, 0], [0, 0], [1, 0], [0, 0]]\n"
            "  - [[0, 0], [1, 0], [0, 0], [0, 0]]\n"
            "  - [[0, 0], [0, 0], [0, 0], [1, 0]]\n"
            f"rho_cr: [[{s17}, 0], [{s17}, 0]]\n"
        )

        import re

        def strip_timestamps(text):
            text = re.sub(r'"timestamp":"[^"]*"', '"timestamp":""', text)
            return "\n".join(
                line for line in text.splitlines()
                if not line.startswith("timestamp")
            )

        def collect(tag):
            chunks = []
            for k, argv in enumerate((
                ["superpose", str(pair_cfg)],
                ["superpose", str(pair_cfg), "--json"],
                ["distinguish", str(pair_cfg)],
                ["fixed-point", str(fp_cfg)],
                ["example"],
            )):
                out = tmp_path / f"{tag}_{k}.txt"
                code = main(argv + ["--out", str(out)])
                assert code == 0
                chunks.append(strip_timestamps(out.read_text()))
            return "\n".join(chunks)

        first = collect("a")
        second = collect("b")
        assert first == second
