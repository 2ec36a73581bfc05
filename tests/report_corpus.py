"""Write every report of a fixed command set, for byte-for-byte diffs.

    PYTHONPATH=src python tests/report_corpus.py OUTDIR

For each command of :func:`commands` the report is written as YAML to
``OUTDIR/<name>.yaml`` and as ``--json`` to ``OUTDIR/<name>.json``, each
with its exit code and stderr in ``<file>.status``, and ``cli._timestamp``
fixed, so that two trees run on the same corpus can be compared with
``diff -r``.  The generated configs sit in ``OUTDIR/configs``.  Run as
a script, it pins BLAS to one thread, as the benchmark does.  Apart from
the test helpers that build the edge sets, it calls ``ctcsim.cli.main``
and patches ``cli._timestamp`` alone, so it runs against the ``ctcsim``
of any tree that ``PYTHONPATH`` names.

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
import os
import sys
from pathlib import Path

if __name__ == "__main__":
    # BLAS pools read these once, when numpy is first imported; with more
    # threads the rounding, and so the reports, can change between runs
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "tests")]

from benchmarks.workloads import WORKLOADS, build_round  # noqa: E402
from conftest import near_parallel_set, planar_set  # noqa: E402
from ctcsim import cli  # noqa: E402
from ctcsim.linalg import condition2_threshold  # noqa: E402

TIMESTAMP = "2000-01-01T00:00:00Z"
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


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    print(f"{len(write_corpus(Path(sys.argv[1])))} commands written")
