"""Seeded inputs and independent output checks for the three workloads.

Everything here is the benchmark's own numpy code.  Inputs are drawn
from ``numpy.random.default_rng([seed, workload, config])`` and never
from ``ctcsim.sampling``, so a change to the program cannot change what
it is asked to do.  Checks recompute targets, self-consistency and
closed-form max-entropy states without calling into ``ctcsim``.

A workload is one round: an ordered list of :class:`Command`, each one
``ctcsim`` CLI call on a generated config file.  The benchmark repeats
whole rounds, so every run attempts the same operations in the same
proportions.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# acceptance thresholds of the independent checks
FIDELITY_FLOOR = 1.0 - 1e-8
RESIDUAL_CEIL = 1e-8
CLOSED_FORM_TOL = 1e-6
STATE_TOL = 1e-9

# superpose-sweep: one full sweep per N; N=10 would take ~40 s a command
SWEEP_SIZES = (4, 6, 8)
# distinguish-large: two of the three commands at N=16, so the command
# median lands on the N=16 solve instead of between the two sizes
DISTINGUISH_SIZES = (12, 16, 16)
# fixed-point-mix: (kind, cr_dim, ctc_dim, policy)
FIXED_POINT_CASES = (
    ("haar", 2, 8, "require_unique"),
    ("haar", 3, 8, "require_unique"),
    ("haar", 4, 6, "require_unique"),
    ("haar", 2, 16, "require_unique"),
    ("identity", 2, 8, "max_entropy"),
    ("block", 3, 4, "max_entropy"),
    ("block", 5, 6, "max_entropy"),
)


@dataclass(frozen=True)
class Command:
    """One CLI call of a round and the check of its report.

    `check` takes the parsed report and returns how many of the
    `entries` expected report entries failed.
    """

    label: str
    argv: tuple[str, ...]
    out: Path
    entries: int
    check: Callable[[dict], int]


# ---------------------------------------------------------------------------
# random inputs


def _haar_state(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z / np.linalg.norm(z)


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _mixed_state(rng: np.random.Generator, n: int) -> np.ndarray:
    """Full-rank density matrix G G^dagger / Tr from a Ginibre matrix."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _complex(rng: np.random.Generator) -> complex:
    return complex(rng.standard_normal(), rng.standard_normal())


def _swap(a: int, b: int) -> np.ndarray:
    """SWAP taking |x>_a |y>_b to |y>_b |x>_a (first factor slow)."""
    s = np.zeros((a * b, a * b))
    for x in range(a):
        for y in range(b):
            s[y * a + x, x * b + y] = 1.0
    return s


def _block_channel(rng: np.random.Generator, cr_dim: int, ctc_dim: int):
    """Circuit whose fixed set is {p |0><0| + (1 - p) omega}.

    The CTC space splits into |0> and a block B of dimension cr_dim.
    On |0> the circuit is the identity; on CR (x) B it is
    (A (x) Bu) . SWAP, which replaces the B part by omega = Bu rho Bu^dagger.
    Coherences between |0> and B shrink by at most the largest
    eigenvalue of rho < 1, so the fixed space is two-dimensional.
    """
    k = ctc_dim - 1
    if k != cr_dim:
        raise ValueError("block channel needs ctc_dim = cr_dim + 1")
    a = _haar_unitary(rng, cr_dim)
    b = _haar_unitary(rng, k)
    v = np.kron(a, b) @ _swap(cr_dim, k)
    u = np.zeros((cr_dim * ctc_dim,) * 2, dtype=complex)
    zero = [c * ctc_dim for c in range(cr_dim)]
    block = [c * ctc_dim + 1 + j for c in range(cr_dim) for j in range(k)]
    u[zero, zero] = 1.0
    u[np.ix_(block, block)] = v
    rho = _mixed_state(rng, cr_dim)
    omega = b @ rho @ b.conj().T
    w = np.linalg.eigvalsh(omega)
    p = 1.0 / (1.0 + np.exp(-(w * np.log(w)).sum()))
    sigma = np.zeros((ctc_dim, ctc_dim), dtype=complex)
    sigma[0, 0] = p
    sigma[1:, 1:] = (1.0 - p) * omega
    return u, rho, sigma


# ---------------------------------------------------------------------------
# config text in the CLI's own format: complex numbers as [re, im] pairs
# with every digit of the double


def _pair(z: complex) -> str:
    return f"[{float(z.real)!r}, {float(z.imag)!r}]"


def _row(v) -> str:
    return "[" + ", ".join(_pair(z) for z in v) + "]"


def _rows(m) -> str:
    return "".join(f"  - {_row(r)}\n" for r in m)


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# report parsing and checks


def _vec(node) -> np.ndarray:
    return np.array([complex(re, im) for re, im in node])


def _mat(node) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in node])


def _check_sweep(report: dict, states: np.ndarray, alpha: complex,
                 beta: complex) -> int:
    n = len(states)
    runs = {(r["m"], r["n"]): r for r in report.get("runs", [])}
    failed = 0
    for m in range(n):
        for k in range(n):
            run = runs.get((m, k))
            if run is None or run["decoded_indices"] != [m, k]:
                failed += 1
                continue
            if m == k:
                target = states[m]
            else:
                raw = alpha * states[m] + beta * states[k]
                target = raw / np.linalg.norm(raw)
            ancilla = _vec(run["ancilla_state"])
            if (abs(np.linalg.norm(ancilla) - 1.0) > STATE_TOL
                    or abs(np.vdot(target, ancilla)) ** 2 < FIDELITY_FLOOR):
                failed += 1
    return failed


def _check_distinguish(report: dict, n: int) -> int:
    runs = {r["input_index"]: r for r in report.get("runs", [])}
    failed = 0
    for j in range(n):
        run = runs.get(j)
        if (run is None or run["decoded"] != j
                or run["fidelity_to_basis"] < FIDELITY_FLOOR):
            failed += 1
    return failed


def _self_consistency_residual(u: np.ndarray, rho: np.ndarray,
                              sigma: np.ndarray) -> float:
    """Max-entry norm of Tr_CR[U (rho (x) sigma) U^dagger] - sigma."""
    c, d = rho.shape[0], sigma.shape[0]
    joint = u @ np.kron(rho, sigma) @ u.conj().T
    image = np.einsum("aiaj->ij", joint.reshape(c, d, c, d))
    return float(np.abs(image - sigma).max())


def _check_fixed_point(report: dict, u: np.ndarray, rho: np.ndarray,
                       expected: np.ndarray | None) -> int:
    runs = report.get("runs", [])
    if len(runs) != 1:
        return 1
    sigma = _mat(runs[0]["fixed_point"])
    d = u.shape[0] // rho.shape[0]
    if sigma.shape != (d, d):
        return 1
    ok = (
        np.abs(sigma - sigma.conj().T).max() <= STATE_TOL
        and abs(np.trace(sigma) - 1.0) <= STATE_TOL
        and np.linalg.eigvalsh((sigma + sigma.conj().T) / 2).min() >= -STATE_TOL
        and _self_consistency_residual(u, rho, sigma) <= RESIDUAL_CEIL
        and (expected is None
             or np.abs(sigma - expected).max() <= CLOSED_FORM_TOL)
    )
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# workloads


def _superpose_sweep(seed: int, workdir: Path) -> list[Command]:
    commands = []
    for idx, n in enumerate(SWEEP_SIZES):
        rng = np.random.default_rng([seed, 0, idx])
        states = np.array([_haar_state(rng, n) for _ in range(n)])
        alpha, beta = _complex(rng), _complex(rng)
        cfg = workdir / f"superpose-{idx}.yaml"
        _write(cfg, "state_set:\n" + _rows(states)
               + f"alpha: {_pair(alpha)}\nbeta: {_pair(beta)}\n"
               + f"rng_seed: {seed}\n")
        out = cfg.with_suffix(".out.yaml")
        commands.append(Command(
            label=f"superpose N={n}",
            argv=("superpose", str(cfg), "--out", str(out)),
            out=out,
            entries=n * n,
            check=lambda rep, s=states, a=alpha, b=beta: _check_sweep(rep, s, a, b),
        ))
    return commands


def _distinguish_large(seed: int, workdir: Path) -> list[Command]:
    commands = []
    for idx, n in enumerate(DISTINGUISH_SIZES):
        rng = np.random.default_rng([seed, 1, idx])
        states = np.array([_haar_state(rng, n) for _ in range(n)])
        cfg = workdir / f"distinguish-{idx}.yaml"
        _write(cfg, "state_set:\n" + _rows(states) + f"rng_seed: {seed}\n")
        out = cfg.with_suffix(".out.yaml")
        commands.append(Command(
            label=f"distinguish N={n}",
            argv=("distinguish", str(cfg), "--out", str(out)),
            out=out,
            entries=n,
            check=lambda rep, n=n: _check_distinguish(rep, n),
        ))
    return commands


def _fixed_point_mix(seed: int, workdir: Path) -> list[Command]:
    commands = []
    for idx, (kind, cr_dim, ctc_dim, policy) in enumerate(FIXED_POINT_CASES):
        rng = np.random.default_rng([seed, 2, idx])
        expected = None
        if kind == "haar":
            u = _haar_unitary(rng, cr_dim * ctc_dim)
            rho = _mixed_state(rng, cr_dim)
        elif kind == "identity":
            u = np.eye(cr_dim * ctc_dim, dtype=complex)
            rho = _mixed_state(rng, cr_dim)
            expected = np.eye(ctc_dim) / ctc_dim
        else:
            u, rho, expected = _block_channel(rng, cr_dim, ctc_dim)
        cfg = workdir / f"fixed-point-{idx}.yaml"
        _write(cfg, f"policy: {policy}\nunitary:\n" + _rows(u)
               + "rho_cr:\n" + _rows(rho))
        out = cfg.with_suffix(".out.yaml")
        commands.append(Command(
            label=f"fixed-point {kind} {cr_dim}x{ctc_dim} {policy}",
            argv=("fixed-point", str(cfg), "--out", str(out)),
            out=out,
            entries=1,
            check=lambda rep, u=u, rho=rho, e=expected: _check_fixed_point(rep, u, rho, e),
        ))
    return commands


_BUILDERS = {
    "superpose-sweep": _superpose_sweep,
    "distinguish-large": _distinguish_large,
    "fixed-point-mix": _fixed_point_mix,
}
WORKLOADS = tuple(_BUILDERS)


def build_round(workload: str, seed: int, workdir: Path) -> list[Command]:
    """Write the configs of one workload round and return its commands."""
    return _BUILDERS[workload](seed, workdir)
