"""End-to-end and per-layer benchmark of the ctcsim command line.

    python3 benchmarks/run.py --workload superpose-sweep --seed 1 \
        --seconds 12 --trace 0

One process, one caller, closed loop: ``ctcsim.cli.main`` is called
in-process on configs generated from ``--seed`` before timing starts,
and each call starts only after the previous one has returned and its
report has been checked.  Whole rounds of the workload's commands are
repeated until ``--seconds`` of wall clock have passed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json with
tracing off, as medians over the run of times rescaled to a reference
host speed (see ``hostspeed.py``).  ``--trace 1`` alternates untraced
and traced rounds and reports the per-layer metrics of one round plus the tracing overhead.
``--workload all`` runs the three workloads one after another.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# BLAS and OpenMP pools read these once, when numpy is first imported
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
for _var in THREAD_PINS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import yaml  # noqa: E402

from hostspeed import REFERENCE_S, HostClock  # noqa: E402
from tracing import Tracer, round_stats  # noqa: E402
from workloads import WORKLOADS, Command, build_round  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".ctcbench"
# set-up probes per run: two before timing, the rest spread over the
# timed rounds so that they sample more than one moment of the host
SETUP_PROBES = 12
SETUP_PROBES_FIRST = 2
_SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import ctcsim.cli; "
    "sys.stdout.write('ready\\n'); sys.stdout.flush()"
)
_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _import_cli():
    """Import ctcsim.cli from this checkout's sources, never elsewhere."""
    if not (SRC / "ctcsim" / "cli.py").is_file():
        raise SystemExit(f"benchmark: no ctcsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ctcsim.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "ctcsim":
        raise SystemExit(f"benchmark: imported ctcsim from {cli.__file__}")
    return cli


# ---------------------------------------------------------------------------
# environment


def _blas_threads():
    """Thread count the OpenBLAS linked into numpy reports, or None.

    dlsym on numpy's core extension also searches the libraries it
    loaded, which is where the BLAS lives.
    """
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def _environment() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas_threads = _blas_threads()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pyyaml": yaml.__version__,
        "yaml_libyaml": bool(getattr(yaml, "__with_libyaml__", False)),
        "blas": {k: {v: deps.get(k, {}).get(v)
                     for v in ("name", "version", "openblas configuration")}
                 for k in ("blas", "lapack")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_pins": {var: os.environ.get(var) for var in THREAD_PINS},
        "blas_threads": blas_threads,
        "pinned": blas_threads == 1,
    }


# ---------------------------------------------------------------------------
# measurement


def setup_probe() -> float:
    """Seconds from starting a fresh interpreter to ctcsim.cli imported."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", _SETUP_PROBE, str(SRC)],
        cwd=ROOT, stdout=subprocess.PIPE, env=os.environ.copy(),
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError("set-up probe failed to import ctcsim.cli")
    return elapsed


class Runner:
    """Runs commands through cli.main and keeps the operation tally.

    With a :class:`HostClock` set, calls are timed by it; without one,
    by the wall clock alone, and nothing else runs in the process.
    """

    def __init__(self, cli, commands: list[Command]):
        self.cli = cli
        self.commands = commands
        self.clock: HostClock | None = None
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # entries of successful calls that failed a check

    def invoke(self, cmd: Command) -> tuple[float, float, int]:
        """One CLI call on a fresh output path.

        Returns (wall seconds, seconds at reference speed, exit code);
        without a clock both times are the wall time.
        """
        cmd.out.unlink(missing_ok=True)
        if self.clock is None:
            t0 = time.perf_counter()
            rc = self.cli.main(list(cmd.argv))
            wall = time.perf_counter() - t0
            return wall, wall, rc
        rc, wall, scale = self.clock.measure(self.cli.main, list(cmd.argv))
        return wall, wall * scale, rc

    def verify(self, cmd: Command, rc: int) -> int:
        """Check the report of one call and tally it; returns entries verified."""
        failed = cmd.entries
        if rc == 0 and cmd.out.is_file():
            try:
                with open(cmd.out, encoding="utf-8") as fh:
                    report = yaml.load(fh, Loader=_Loader)
                failed = min(cmd.check(report), cmd.entries)
            except (yaml.YAMLError, KeyError, TypeError, ValueError) as exc:
                print(f"check error on {cmd.label}: {exc!r}", file=sys.stderr)
            self.wrong += failed
        if failed:
            print(f"FAILED {cmd.label}: exit {rc}, {failed}/{cmd.entries} entries",
                  file=sys.stderr)
        self.attempted += cmd.entries
        self.failed += failed
        return cmd.entries - failed

    def round(self) -> tuple[list[tuple[float, float]], int]:
        """One pass over the commands: ([(wall, reference) per call], verified)."""
        times, verified = [], 0
        for cmd in self.commands:
            wall, ref, rc = self.invoke(cmd)
            times.append((wall, ref))
            verified += self.verify(cmd, rc)
        return times, verified


def peak_memory_mb(runner: Runner) -> float:
    """tracemalloc peak of one command, maximum over one round (MB)."""
    peak = 0
    for cmd in runner.commands:
        tracemalloc.start()
        try:
            _, _, rc = runner.invoke(cmd)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        runner.verify(cmd, rc)
    return peak / 1e6


def end_to_end(cli, commands: list[Command], seconds: float) -> tuple[Runner, dict]:
    """Set-up time, memory pass, then whole timed rounds for `seconds`.

    Every timed call and set-up probe is rescaled to the reference host
    speed by :class:`HostClock`, and each timing metric is a median of
    the rescaled times over the whole run.
    """
    runner = Runner(cli, commands)
    setup_probe()  # unmeasured: fills the bytecode and file caches
    # the memory pass is one whole round and also warms lazy numpy/yaml
    # state; it runs without the clock, whose kernels would allocate too
    peak_mb = peak_memory_mb(runner)
    clock = runner.clock = HostClock()

    def probe() -> float:
        elapsed, _, scale = clock.measure(setup_probe, sample=False)
        return elapsed * scale

    setup = [probe() for _ in range(SETUP_PROBES_FIRST)]
    calls: list[list[tuple[float, float]]] = [[] for _ in commands]
    rounds = verified = 0
    start = time.perf_counter()
    while True:
        times, ok = runner.round()
        for c, t in zip(calls, times):
            c.append(t)
        verified += ok
        rounds += 1
        done = min(1.0, (time.perf_counter() - start) / seconds)
        while len(setup) < SETUP_PROBES_FIRST + (SETUP_PROBES - SETUP_PROBES_FIRST) * done:
            setup.append(probe())
        if done >= 1.0:
            break
    per_command = [statistics.median(ref for _, ref in c) for c in calls]
    values = {
        "setup_s": statistics.median(setup),
        "runs_per_s": verified / rounds / sum(per_command),
        "command_p50_s": statistics.median(ref for c in calls for _, ref in c),
        "peak_mem_mb": peak_mb,
    }
    kernels = sorted(clock.kernels)
    print(f"  {rounds} timed rounds of {len(commands)} commands, "
          f"{time.perf_counter() - start:.1f} s; {len(kernels)} calibration kernels "
          f"{kernels[0] * 1e3:.1f}-{kernels[-1] * 1e3:.1f} ms "
          f"(median {statistics.median(kernels) * 1e3:.1f}, "
          f"reference {REFERENCE_S * 1e3:.1f})")
    print("  median call per command at reference speed (wall): "
          + ", ".join(f"{ref:.4f} ({statistics.median(w for w, _ in c):.4f})"
                      for ref, c in zip(per_command, calls)))
    return runner, values


def per_layer(cli, commands: list[Command], seconds: float,
              trace_path: Path) -> tuple[Runner, dict]:
    """Alternate untraced and traced rounds for `seconds`.

    Calls run without the clock's kernels, so that spans hold ctcsim's
    time only; the clock times whole rounds from its edge kernels.
    """
    runner = Runner(cli, commands)
    tracer = Tracer()
    clock = HostClock()
    runner.round()  # warm-up, so neither side of the first pair pays it

    def timed_round() -> float:
        (times, _), _, scale = clock.measure(runner.round, sample=False)
        return sum(wall for wall, _ in times) * scale

    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(timed_round())
        tracer.install()
        tracer.start_round()
        try:
            traced.append(timed_round())
        finally:
            tracer.uninstall()
            tracer.end_round()
        if time.perf_counter() - start >= seconds:
            break
    tracer.write(trace_path)
    rounds = [round_stats(spans) for spans in tracer.rounds]
    names = set().union(*rounds)
    values = {}
    for name in sorted(names):
        samples = [r.get(name, 0.0) for r in rounds]
        if not name.endswith("_s") and len(set(samples)) > 1:
            print(f"warning: count {name} differs between rounds: {samples}",
                  file=sys.stderr)
        values[name] = statistics.median(samples)
    overhead = statistics.median(traced) - statistics.median(plain)
    values["trace.overhead_s"] = overhead
    values["trace.overhead_share"] = overhead / statistics.median(plain)
    print(f"  {len(plain)} untraced and {len(traced)} traced rounds; "
          f"spans written to {trace_path.relative_to(ROOT)}")
    return runner, values


# ---------------------------------------------------------------------------
# driver


def run_workload(cli, spec: dict, workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    workdir = WORK / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        commands = build_round(workload, seed, workdir)
        print(f"{workload} (seed {seed}): "
              + ", ".join(c.label for c in commands))
        if trace:
            runner, values = per_layer(
                cli, commands, seconds, WORK / f"trace-{workload}-seed{seed}.jsonl")
            wanted = spec["per_layer"]
        else:
            runner, values = end_to_end(cli, commands, seconds)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  attempted {runner.attempted}, failed {runner.failed}")
    return {"correct": runner.wrong == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured wall clock per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = _load_spec()
    cli = _import_cli()
    env = _environment()
    print("env " + json.dumps(env, sort_keys=True))
    if not env["pinned"]:
        print("warning: BLAS does not report running on one thread", file=sys.stderr)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    WORK.mkdir(exist_ok=True)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(cli, spec, w, args.seed, seconds, bool(args.trace))
               for w in workloads}
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
