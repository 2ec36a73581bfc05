import json

import numpy as np
import pytest
import yaml

from ctcsim import StateSet, StateVector, ctc_map
from ctcsim.cli import _fmt_float
from ctcsim.linalg import condition2_threshold
from ctcsim.sampling import haar_unitary

S = 1 / np.sqrt(2)
HADAMARD = np.array([[S, S], [S, -S]], dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


@pytest.fixture
def zero_minus_set() -> StateSet:
    """The canonical two-state example set {|0>, |->}."""
    return StateSet((StateVector([1, 0]), StateVector([S, -S])))


def near_parallel_set(n, delta):
    """Member j at infidelity j delta from member 0, which is |0>."""
    rows = np.zeros((n, n))
    rows[:, 0] = np.sqrt(1 - delta * np.arange(n))
    rows[1:, 1:] = np.diag(np.sqrt(delta * np.arange(1, n)))
    return StateSet(rows)


def planar_set(n, factor):
    """N members in the plane of |0> and |1>, at angles j sqrt(factor t),
    t = ``condition2_threshold(n)``, so that neighbours have room
    factor t."""
    angles = np.arange(n) * np.sqrt(factor * condition2_threshold(n))
    rows = np.zeros((n, n))
    rows[:, 0], rows[:, 1] = np.cos(angles), np.sin(angles)
    return StateSet(rows)


def haar_rotated(states, rng):
    """`states` rotated by the Haar unitary Q that `rng` draws, amplitudes
    ``amps @ Q.T``: a rotation keeps every overlap, so whether some U_k
    meets condition 2."""
    rotation = haar_unitary(states.size, rng).entries
    return StateSet(states.amplitudes @ rotation.T)


def damped_power_iteration(u, rho_cr, sigma0, max_iters=3000, tol=1e-12):
    """Independent fixed-point oracle: sigma <- (sigma + map(sigma)) / 2.

    Returns (sigma, converged).  Damping removes peripheral oscillation
    so the iteration settles whenever a nearby fixed point attracts.
    """
    sigma = np.asarray(sigma0, dtype=complex)
    for _ in range(max_iters):
        nxt = 0.5 * sigma + 0.5 * ctc_map(u, rho_cr, sigma).entries
        if np.abs(nxt - sigma).max() < tol:
            return nxt, True
        sigma = nxt
    return sigma, False


def as_lists(obj):
    """A report with every array replaced by its ``tolist()`` and every
    complex value by its [re, im] pair."""
    if isinstance(obj, dict):
        return {k: as_lists(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [as_lists(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return as_lists(obj.tolist())
    if isinstance(obj, complex):
        return [float(obj.real), float(obj.imag)]
    return obj


def json_text(obj):
    """An `as_lists` value as one line of a ``--json`` report writes it:
    the oracle of ``cli._json_lines``.  A float is its ``.17g`` text,
    with '.0' added after an integral value."""
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{json_text(v)}"
                              for k, v in obj.items()) + "}"
    if isinstance(obj, list):
        return "[" + ",".join(map(json_text, obj)) + "]"
    if isinstance(obj, float):
        text = format(obj, ".17g")
        return text + ".0" if text.lstrip("-").isdigit() else text
    return json.dumps(obj)


def json_lines(header, rows):
    """The ``--json`` report of `header` and the runs `rows`, one mapping
    a run: the header object's line, then one line a run, as
    `json_text` writes each."""
    return [json_text(as_lists(obj)) + "\n" for obj in [header, *rows]]


def run_rows(runs):
    """A command's runs, one column a key, as one mapping a run."""
    return [dict(zip(runs, row)) for row in zip(*runs.values())]


# a line width no report reaches; PyYAML's pure-Python emitter reads a
# width of -1 as 80
WIDTH = 10**9


class ReportDumper(getattr(yaml, "CSafeDumper", yaml.SafeDumper)):
    """PyYAML's dumper for reports: the oracle of ``cli._yaml_pieces``.

    Its line width defaults to `WIDTH`, unlimited, as a report writes each
    flow collection on one line: no reader of a report uses the line
    breaks libyaml's 80 columns would put inside a row."""

    def __init__(self, stream, width=None, **kwargs):
        super().__init__(stream, width=width or WIDTH, **kwargs)


ReportDumper.add_representer(
    float,
    lambda dumper, value: dumper.represent_scalar(
        "tag:yaml.org,2002:float", _fmt_float(value)
    ),
)
