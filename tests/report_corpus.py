"""Write every report of a fixed command set, for byte-for-byte diffs.

    PYTHONPATH=src python tests/report_corpus.py OUTDIR
    PYTHONPATH=src python tests/report_corpus.py --compare OLD NEW

For each command of :func:`commands` the report is written as YAML to
``OUTDIR/<name>.yaml`` and as ``--json`` to ``OUTDIR/<name>.json``, each
with its exit code and stderr in ``<file>.status``, and ``cli._timestamp``
fixed, so that two trees run on the same corpus can be compared with
``diff -r``.  The generated configs sit in ``OUTDIR/configs``.  Run as
a script, it pins BLAS to one thread, as the benchmark does.  Apart from
the test helpers that build the edge sets, it calls ``ctcsim.cli.main``
and patches ``cli._timestamp`` alone, so it runs against the ``ctcsim``
of any tree that ``PYTHONPATH`` names.

``--compare`` reads two such corpora for a change that may move floats
(:func:`compare_corpora`): every status file, key, integer, boolean and
string (names and digests) must be equal, and every fidelity within
``FIDELITY_MOVE``.  It prints the largest move of each float key and
exits 1 on any difference.

The commands: the seed-3 and seed-7 rounds of every benchmark workload,
every demo config (``fixed-point`` also under ``--policy max_entropy``),
``example`` with its defaults and at alpha 0.6, beta -0.8, ``superpose``
and ``distinguish`` on Haar sets at N = 12 and 32, and on two edge sets of
condition 2: ``near_parallel_set(12, 3 t)`` and the feasible planar set
at N = 8 and 3 t (t the condition-2 threshold).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from pathlib import Path

if __name__ == "__main__":
    # BLAS pools read these once, when numpy is first imported; with more
    # threads the rounding, and so the reports, can change between runs
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np  # noqa: E402
import yaml  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "tests")]

from benchmarks.workloads import WORKLOADS, build_round  # noqa: E402
from conftest import near_parallel_set, planar_set  # noqa: E402
from ctcsim import cli  # noqa: E402
from ctcsim.linalg import condition2_threshold  # noqa: E402

TIMESTAMP = "2000-01-01T00:00:00Z"
# the largest move a fidelity may make between two compared corpora
FIDELITY_MOVE = 1e-12
FIDELITY_KEYS = ("fidelity", "fidelity_to_basis")
DEMO_CONFIGS = ROOT / "demos" / "configs"


def _set_config(path: Path, amplitudes: np.ndarray) -> str:
    """A superpose/distinguish config of the rows, every digit kept."""
    pairs = [[f"[{float(z.real)!r}, {float(z.imag)!r}]" for z in row]
             for row in np.asarray(amplitudes, dtype=complex)]
    rows = "".join("  - [" + ", ".join(row) + "]\n" for row in pairs)
    path.write_text("state_set:\n" + rows
                    + "alpha: [0.6, 0.2]\nbeta: [-0.3, 0.7]\n",
                    encoding="utf-8")
    return str(path)


def _haar_rows(n: int, seed: int) -> np.ndarray:
    z = np.random.default_rng(seed).standard_normal((n, n, 2)) @ [1, 1j]
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def commands(workdir: Path) -> dict[str, list[str]]:
    """Every command of the corpus by name, its configs written to
    `workdir`; each argv is given without ``--json``."""
    out = {}
    for seed in (3, 7):
        for workload in WORKLOADS:
            bench = workdir / f"bench-{workload}-{seed}"
            bench.mkdir()
            for i, cmd in enumerate(build_round(workload, seed, bench)):
                argv = list(cmd.argv)
                at = argv.index("--out")
                out[f"bench-{workload}-{seed}-{i}"] = argv[:at] + argv[at + 2:]
    for cfg in sorted(DEMO_CONFIGS.glob("*.yaml")):
        command = ("fixed-point" if cfg.stem.startswith("fixed_point")
                   else cfg.stem.split("_")[0])
        out[f"demo-{cfg.stem}"] = [command, str(cfg)]
    swap = str(DEMO_CONFIGS / "fixed_point_swap.yaml")
    out["demo-fixed_point_swap-max_entropy"] = [
        "fixed-point", swap, "--policy", "max_entropy"]
    out["example-default"] = ["example"]
    out["example-0.6--0.8"] = ["example", "--alpha", "0.6", "--beta", "-0.8"]
    sets = {f"haar-{n}": _haar_rows(n, 40 + n) for n in (12, 32)}
    sets["near-parallel-12-3t"] = near_parallel_set(
        12, 3 * condition2_threshold(12)).amplitudes
    sets["planar-8-3t"] = planar_set(8, 3.0).amplitudes
    for name, rows in sets.items():
        cfg = _set_config(workdir / f"{name}.yaml", rows)
        for command in ("superpose", "distinguish"):
            out[f"{command}-{name}"] = [command, cfg]
    return out


def write_corpus(outdir: Path, names=None) -> list[str]:
    """Run the commands named (all by default) and write their reports to
    `outdir`; returns the names run."""
    outdir = Path(outdir)
    workdir = outdir / "configs"
    workdir.mkdir(parents=True)
    todo = commands(workdir)
    names = list(todo) if names is None else list(names)
    real = cli._timestamp
    cli._timestamp = lambda: TIMESTAMP
    try:
        for name in names:
            for suffix, extra in ((".yaml", []), (".json", ["--json"])):
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(stderr):
                    code = cli.main(todo[name] + extra)
                path = outdir / (name + suffix)
                path.write_text(stdout.getvalue(), encoding="utf-8")
                Path(f"{path}.status").write_text(
                    f"exit {code}\n{stderr.getvalue()}", encoding="utf-8")
    finally:
        cli._timestamp = real
    return names


def _documents(path: Path) -> list:
    """The parsed report: one YAML document, or one JSON value a line."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return [json.loads(line) for line in text.splitlines()]
    return [yaml.safe_load(text)]


def _walk(old, new, key: str, where: str, moves: dict, problems: list):
    """Compare two parsed values; a float's move is recorded under the
    nearest mapping key above it, any other difference in `problems`."""
    if isinstance(old, dict) and isinstance(new, dict):
        if list(old) != list(new):
            problems.append(f"{where}: keys {list(old)} != {list(new)}")
            return
        for k in old:
            _walk(old[k], new[k], str(k), f"{where}.{k}", moves, problems)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            problems.append(f"{where}: {len(old)} != {len(new)} items")
            return
        for i, (a, b) in enumerate(zip(old, new)):
            _walk(a, b, key, f"{where}[{i}]", moves, problems)
    elif type(old) is float and type(new) is float:
        same = old == new or (math.isnan(old) and math.isnan(new))
        move = 0.0 if same else abs(old - new)
        move = math.inf if math.isnan(move) else move
        moves[key] = max(moves.get(key, 0.0), move)
        if key in FIDELITY_KEYS and move > FIDELITY_MOVE:
            problems.append(f"{where}: fidelity moved by {move:.3e}")
    elif type(old) is not type(new) or old != new:
        problems.append(f"{where}: {old!r} != {new!r}")


def compare_corpora(old, new) -> tuple[list[str], dict[str, float]]:
    """Compare the corpora in directories `old` and `new`.

    Returns the differences that fail the comparison and the largest
    move of each float key.  Every report and status file must exist in
    both; status files (exit code and stderr) must be equal byte for
    byte; reports must have the same structure, keys and non-float
    values, and no fidelity may move by more than ``FIDELITY_MOVE``.
    """
    old, new = Path(old), Path(new)
    names = {p.name for p in old.iterdir() if p.is_file()}
    others = {p.name for p in new.iterdir() if p.is_file()}
    problems = [f"{name}: only in {old}" for name in sorted(names - others)]
    problems += [f"{name}: only in {new}" for name in sorted(others - names)]
    moves: dict[str, float] = {}
    for name in sorted(names & others):
        a, b = old / name, new / name
        if name.endswith(".status"):
            if a.read_bytes() != b.read_bytes():
                problems.append(f"{name}: status differs")
            continue
        _walk(_documents(a), _documents(b), "", name, moves, problems)
    return problems, moves


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        problems, moves = compare_corpora(argv[1], argv[2])
        for key in sorted(moves):
            print(f"{key:24s} largest move {moves[key]:.3e}")
        for problem in problems:
            print(f"DIFFERS {problem}")
        print(f"{len(problems)} differences")
        return 1 if problems else 0
    if len(argv) != 1:
        sys.exit(__doc__)
    print(f"{len(write_corpus(Path(argv[0])))} commands written")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
