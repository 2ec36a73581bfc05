import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import WIDTH, ReportDumper, as_lists, json_lines, run_rows
# report_corpus puts the repository root on the path, for the benchmark's
# own config writer
from report_corpus import build_round
from ctcsim import cli, deutsch, discrimination, linalg, superpose
from ctcsim.cli import main
from ctcsim.sampling import haar_unitary, random_density_matrix, random_state_set

S_17 = format(1 / np.sqrt(2), ".17g")
DEMO_CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"

PAIR_CONFIG = f"""\
state_set:
  - [[1, 0], [0, 0]]
  - [[{S_17}, 0], [-{S_17}, 0]]
alpha: [{S_17}, 0]
beta: [{S_17}, 0]
"""

BASIS_CONFIG = """\
state_set:
  - [[1, 0], [0, 0]]
  - [[0, 0], [1, 0]]
alpha: 1
beta: 0
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    return str(path)


def strip_timestamp(text):
    return "".join(
        line for line in text.splitlines(keepends=True)
        if not line.startswith("timestamp")
    )


def test_superpose_sweep_passes(tmp_path, capsys):
    cfg = write(tmp_path, "pair.yaml", PAIR_CONFIG)
    assert main(["superpose", cfg]) == 0
    report = yaml.safe_load(capsys.readouterr().out)
    assert len(report["runs"]) == 4
    for run in report["runs"]:
        assert run["fidelity"] >= 1 - 1e-8
        assert run["decoded_indices"] == [run["m"], run["n"]]


def test_superpose_single_pair(tmp_path, capsys):
    cfg = write(tmp_path, "one.yaml", PAIR_CONFIG + "m: 0\nn: 1\n")
    assert main(["superpose", cfg]) == 0
    report = yaml.safe_load(capsys.readouterr().out)
    assert [(r["m"], r["n"]) for r in report["runs"]] == [(0, 1)]


def test_superpose_rejects_zero_amplitudes(tmp_path, capsys):
    cfg = write(tmp_path, "zero.yaml",
                BASIS_CONFIG.replace("alpha: 1", "alpha: 0")
                .replace("beta: 0", "beta: 0.0"))
    assert main(["superpose", cfg]) == 2
    assert "alpha" in capsys.readouterr().err


def test_superpose_rejects_duplicate_states(tmp_path, capsys):
    dup = """\
state_set:
  - [[1, 0], [0, 0]]
  - [[1, 0], [0, 0]]
alpha: 1
beta: -1
"""
    cfg = write(tmp_path, "dup.yaml", dup)
    assert main(["superpose", cfg]) == 2
    assert "distinct" in capsys.readouterr().err


def _near_parallel_config(n, delta):
    # member j at infidelity j delta from member 0, which is |0>
    rows = np.zeros((n, n))
    rows[:, 0] = np.sqrt(1 - delta * np.arange(n))
    rows[1:, 1:] = np.diag(np.sqrt(delta * np.arange(1, n)))
    return yaml.safe_dump({"state_set": [[[float(x), 0.0] for x in row]
                                         for row in rows]})


@pytest.mark.parametrize("n, delta", [
    (2, 2e-9), (3, 2e-9), (5, 2e-9), (8, 2e-9), (3, 1e-8), (5, 1e-8), (8, 1e-8),
])
def test_sets_below_the_condition2_bound_fail_validation(tmp_path, capsys,
                                                        monkeypatch, n, delta):
    # 1 - F below 10 SVD_CUTOFF sqrt(N - 1) can never be built, so it is
    # rejected before any U_k completion
    monkeypatch.setattr(cli, "build_distinguisher", None)
    cfg = write(tmp_path, "near.yaml", _near_parallel_config(n, delta))
    assert main(["distinguish", cfg]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: state_set fails validation: distinct (residual ")


@pytest.mark.parametrize("n, delta", [
    (2, 1e-8), (2, 1e-7), (3, 1e-7), (5, 1e-7), (8, 1e-7),
], ids=["boundary-2", "2", "3", "5", "8"])
def test_sets_above_the_condition2_bound_decode(tmp_path, capsys, n, delta):
    cfg = write(tmp_path, "near.yaml", _near_parallel_config(n, delta))
    assert main(["distinguish", cfg]) == 0
    report = yaml.safe_load(capsys.readouterr().out)
    assert [r["decoded"] for r in report["runs"]] == list(range(n))


def test_zero_member_is_a_config_error_without_warnings(tmp_path, capsys):
    cfg = write(tmp_path, "zero.yaml",
                "state_set:\n  - [[1, 0], [0, 0]]\n  - [[0, 0], [0, 0]]\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["distinguish", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: state_set fails validation: ")
    assert "members_normalized" in err and "distinct (residual 0.0," in err


@pytest.mark.parametrize("body", ["[" * 50000 + "1" + "]" * 50000,
                                  "\n" + "- " * 50000 + "1"],
                         ids=["flow", "block"])
def test_deeply_nested_config_is_a_config_error(tmp_path, body):
    # libyaml's composer overflows the C stack from about 25,000 levels,
    # so this runs in a process of its own
    cfg = write(tmp_path, "deep.yaml", "state_set: " + body + "\n")
    src = Path(cli.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-m", "ctcsim", "distinguish", cfg],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 2
    assert out.stderr.startswith("config error: nesting deeper than 1000 levels")


def test_superpose_sweep_builds_one_distinguisher(tmp_path, capsys,
                                                  monkeypatch):
    calls = {"build_distinguisher": 0, "distinguish_members": 0,
             "distinguish": 0, "build_u_prime": 0, "fixed_point": 0}

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in ((superpose, "build_distinguisher"),
                         (cli, "build_distinguisher"),
                         (superpose, "distinguish_members"),
                         (cli, "distinguish_members"),
                         (discrimination, "distinguish"),
                         (superpose, "build_u_prime"),
                         (deutsch, "fixed_point")):
        count(module, name)
    states = random_state_set(3, np.random.default_rng(31))
    cfg = write(tmp_path, "three.yaml", yaml.safe_dump({
        "state_set": [[[float(z.real), float(z.imag)] for z in s.amplitudes]
                      for s in states],
        "alpha": [0.6, 0.1], "beta": [-0.3, 0.7],
    }))
    assert main(["superpose", cfg]) == 0
    assert len(yaml.safe_load(capsys.readouterr().out)["runs"]) == 9
    assert calls == {"build_distinguisher": 1, "distinguish_members": 1,
                     "distinguish": 0, "build_u_prime": 0, "fixed_point": 0}


@pytest.mark.parametrize("command", ["distinguish", "superpose"])
def test_state_set_commands_measure_the_room_once(tmp_path, capsys,
                                                  monkeypatch, command):
    # validate and the discrimination circuit built on the set share one
    # measurement of condition 2's room, kept on the StateSet
    calls = []
    real = linalg.condition2_room
    counted = lambda states: calls.append(states) or real(states)
    monkeypatch.setattr(linalg, "condition2_room", counted)
    # where a module of its own might call it
    monkeypatch.setattr(discrimination, "condition2_room", counted,
                        raising=False)
    cfg = haar_config(tmp_path, 5, 55, alpha=[0.6, 0.2], beta=[-0.3, 0.7])
    assert main([command, cfg]) == 0
    assert capsys.readouterr().out
    assert len(calls) == 1


def test_distinguish_builds_no_superoperator(tmp_path, capsys, monkeypatch):
    calls = {"fixed_point": 0, "superoperator_matrix": 0}
    for name in calls:
        real = getattr(deutsch, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(deutsch, name, counted)
    states = random_state_set(4, np.random.default_rng(41))
    cfg = write(tmp_path, "four.yaml", yaml.safe_dump({
        "state_set": [[[float(z.real), float(z.imag)] for z in s.amplitudes]
                      for s in states],
    }))
    assert main(["distinguish", cfg]) == 0
    report = yaml.safe_load(capsys.readouterr().out)
    assert [r["decoded"] for r in report["runs"]] == [0, 1, 2, 3]
    assert calls == {"fixed_point": 0, "superoperator_matrix": 0}


@pytest.mark.parametrize("argv", [
    ["superpose", "CFG", "--policy", "max_entropy"],
    ["distinguish", "CFG", "--policy", "max_entropy"],
    ["example", "--policy", "max_entropy"],
    ["fixed-point", "CFG", "--tolerance", "distinct=1"],
    ["example", "--tolerance", "distinct=1"],
    ["fixed-point", "CFG", "--seed", "1"],
    # tolerances are fixed
    ["distinguish", "CFG", "--json", "--tolerance", "success_fidelity=inf"],
    ["superpose", "CFG", "--tolerance", "success_fidelity=nan"],
    ["superpose", "CFG", "--tolerance", "success_fidelity=-1e-3"],
    ["superpose", "CFG", "--tolerance", "sharpness=1"],
    ["superpose", "CFG", "--tolerance", "success_fidelity=0.5"],
    ["distinguish", "CFG", "--tolerance", "distinct=-1e-9"],
    # no run draws from a seed, so no command takes one
    ["superpose", "CFG", "--seed", "0"],
    ["distinguish", "CFG", "--seed", "0"],
    ["example", "--seed", "0"],
])
def test_unread_flags_are_not_accepted(tmp_path, argv):
    cfg = write(tmp_path, "pair.yaml", PAIR_CONFIG)
    with pytest.raises(SystemExit) as err:
        main([cfg if a == "CFG" else a for a in argv])
    assert err.value.code == 2


@pytest.mark.parametrize("command", ["superpose", "distinguish"])
def test_rng_seed_is_ignored_as_any_unread_key(tmp_path, capsys, command):
    # configs written for the seeded commands still run, and run the same
    reports = []
    for extra in ("", "rng_seed: -5\n"):
        assert main([command, write(tmp_path, "pair.yaml", PAIR_CONFIG + extra)]) == 0
        reports.append(strip_timestamp(capsys.readouterr().out))
    assert reports[0] == reports[1]


NON_SQUARE_CONFIG = "unitary: [[1, 0, 0], [0, 1, 0]]\nrho_cr: [1, 0]\n"
# an integer beyond float range
HUGE = "9" * 400


@pytest.mark.parametrize("argv, config", [
    (["fixed-point", "CFG"], NON_SQUARE_CONFIG),
    (["superpose", "CFG"],
     PAIR_CONFIG.replace(f"alpha: [{S_17}, 0]", "alpha: .nan")),
    (["superpose", "CFG"],
     PAIR_CONFIG.replace(f"beta: [{S_17}, 0]", "beta: [0, .inf]")),
    (["example", "--alpha", "nan"], PAIR_CONFIG),
    (["example", "--beta", "inf"], PAIR_CONFIG),
    (["distinguish", "CFG"], PAIR_CONFIG + "tolerances: {distinct: .inf}\n"),
    (["superpose", "CFG"], PAIR_CONFIG + "tolerances: {success_fidelity: -1}\n"),
    (["superpose", "CFG"], PAIR_CONFIG + "tolerances: [1, 2]\n"),
    (["distinguish", "CFG"], PAIR_CONFIG + "tolerances: 5\n"),
    (["superpose", "CFG"], PAIR_CONFIG + "tolerances: abc\n"),
    (["distinguish", "CFG"], PAIR_CONFIG + "tolerances: [[distinct, 0.5]]\n"),
    (["distinguish", "CFG"], PAIR_CONFIG.encode() + b"# caf\xe9\n"),
    (["superpose", "CFG"],
     PAIR_CONFIG.replace(f"alpha: [{S_17}, 0]", f"alpha: {HUGE}")),
    (["distinguish", "CFG"],
     PAIR_CONFIG.replace("- [[1, 0], [0, 0]]", f"- [[1, 0], [0, {HUGE}]]")),
    (["fixed-point", "CFG"],
     f"unitary: [[[1, 0], [0, 0]], [[0, 0], [1, {HUGE}]]]\nrho_cr: [1, 0]\n"),
    (["fixed-point", "CFG"], f"unitary: [[1, 0], [0, 1]]\nrho_cr: [{HUGE}, 0]\n"),
    (["distinguish", "CFG"], PAIR_CONFIG + f"tolerances: {{distinct: {HUGE}}}\n"),
    (["superpose", "CFG"], PAIR_CONFIG + "tolerances: {success_fidelity: 0.5}\n"),
    (["distinguish", "CFG"], PAIR_CONFIG + "tolerances: {}\n"),
    (["fixed-point", "CFG"],
     "unitary: [[1, 0], [0, 1]]\nrho_cr: [1, 0]\ntolerances: {distinct: 0}\n"),
    (["distinguish", "CFG"], PAIR_CONFIG + "policy: max_entropy\n"),
    (["distinguish", "CFG"], PAIR_CONFIG + "policy: bogus\n"),
], ids=["non-square-unitary", "superpose-nan-alpha", "superpose-inf-beta",
        "example-nan-alpha", "example-inf-beta",
        "distinguish-inf-tolerance-config",
        "superpose-negative-tolerance-config", "tolerances-list",
        "tolerances-number", "tolerances-string", "tolerances-pair-list",
        "non-utf8-byte", "huge-alpha", "huge-state-set-entry",
        "huge-unitary-pair", "huge-rho-cr", "huge-tolerance-config",
        "tolerances-success-fidelity", "tolerances-empty",
        "fixed-point-tolerances", "distinguish-max-entropy-policy",
        "distinguish-unknown-policy"])
def test_bad_inputs_are_config_errors(tmp_path, capsys, argv, config):
    cfg = write(tmp_path, "bad.yaml", config)
    assert main([cfg if a == "CFG" else a for a in argv]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_superpose_rejects_max_entropy_config(tmp_path, capsys):
    cfg = write(tmp_path, "me.yaml", PAIR_CONFIG + "policy: max_entropy\n")
    assert main(["superpose", cfg]) == 2
    assert "require_unique" in capsys.readouterr().err


@pytest.mark.parametrize("policy", ["max_entropy", "bogus"])
def test_state_set_commands_reject_a_policy_alike(tmp_path, capsys, policy):
    cfg = write(tmp_path, "policy.yaml", PAIR_CONFIG + f"policy: {policy}\n")
    errors = []
    for command in ("superpose", "distinguish"):
        assert main([command, cfg]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("config error: ")


def test_superpose_malformed_config_reports_line(tmp_path, capsys):
    cfg = write(tmp_path, "bad.yaml",
                "state_set:\n  - [[1, 0], [0, 0]\nalpha: 1\n")
    assert main(["superpose", cfg]) == 2
    assert "line" in capsys.readouterr().err


def test_superpose_json_lines(tmp_path, capsys):
    cfg = write(tmp_path, "pair.yaml", PAIR_CONFIG)
    assert main(["superpose", cfg, "--json"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    header = json.loads(lines[0])
    assert header["command"] == "superpose" and header["format"] == 2
    for line in lines[1:]:
        assert json.loads(line)["fidelity"] >= 1 - 1e-8


def test_report_is_deterministic(tmp_path):
    cfg = write(tmp_path, "pair.yaml", PAIR_CONFIG)
    out1 = tmp_path / "r1.yaml"
    out2 = tmp_path / "r2.yaml"
    assert main(["superpose", cfg, "--out", str(out1)]) == 0
    assert main(["superpose", cfg, "--out", str(out2)]) == 0
    assert strip_timestamp(out1.read_text()) == strip_timestamp(out2.read_text())


class _PurePythonDumper(yaml.SafeDumper):
    pass


_PurePythonDumper.add_representer(
    float, ReportDumper.yaml_representers[float])


def haar_config(tmp_path, n, seed, **extra):
    """A config of `n` seeded random states, as [re, im] pairs."""
    states = random_state_set(n, np.random.default_rng(seed))
    return write(tmp_path, f"haar{n}.yaml", yaml.safe_dump({
        "state_set": [[[float(z.real), float(z.imag)] for z in s.amplitudes]
                      for s in states],
        **extra,
    }))


@pytest.mark.parametrize("command", ["superpose", "fixed-point", "distinguish",
                                     "example", "superpose-haar5",
                                     "distinguish-haar12"])
def test_report_dumper_matches_pure_python_dumper(tmp_path, capsys,
                                                  monkeypatch, command):
    # the report the command printed, with its arrays as lists, dumped
    # again by libyaml's and by PyYAML's pure-Python emitter: distinguish
    # runs are flow mappings, example runs hold 3-d arrays; a five-state
    # sweep's header rows run past column 80, and twelve states give
    # distinguish runs two-digit indices, which bring their flow mappings
    # to column 80, all on one line
    if command == "superpose-haar5":
        argv = ["superpose", haar_config(tmp_path, 5, 55, alpha=[0.6, 0.2],
                                         beta=[-0.3, 0.7])]
    elif command == "distinguish-haar12":
        argv = ["distinguish", haar_config(tmp_path, 12, 12)]
    elif command == "superpose":
        argv = [command, write(tmp_path, "pair.yaml", PAIR_CONFIG)]
    elif command == "fixed-point":
        argv = [command, write(tmp_path, "fp.yaml", yaml.safe_dump({
            "unitary": np.eye(4).tolist(),
            "rho_cr": [[0.6, 0], [0.8, 0]],
            "policy": "max_entropy",
        }))]
    elif command == "distinguish":
        argv = [command, str(DEMO_CONFIGS / "distinguish_three_state.yaml")]
    else:
        argv = [command]
    reports = []
    emit = cli._yaml_pieces
    monkeypatch.setattr(cli, "_yaml_pieces",
                        lambda header, runs: reports.append((header, runs))
                        or emit(header, runs))
    assert main(argv) == 0
    ((header, runs),) = reports
    report = as_lists({**header, "runs": run_rows(runs)})
    printed = capsys.readouterr().out
    for dumper in (ReportDumper, _PurePythonDumper):
        assert printed == yaml.dump(report, Dumper=dumper, sort_keys=False,
                                    default_flow_style=None, width=WIDTH)


def distinguish_large_configs(tmp_path, seed=7):
    """The configs of one round of the benchmark's distinguish-large, as
    it writes them: seeded Haar sets at N = 12, 16 and 16, each amplitude
    an [re, im] pair of 17-digit floats on a row a member."""
    return [cmd.argv[1] for cmd in build_round("distinguish-large", seed,
                                               tmp_path)]


@pytest.mark.parametrize("index", [0, 1], ids=["N=12", "N=16"])
def test_benchmark_distinguish_report_is_the_report_dumpers(tmp_path, capsys,
                                                           index):
    # at the benchmark's sizes the condition_overlaps rows hold 12 or 16
    # floats, and the runs are flow mappings whose residuals, near 1e-16,
    # take the writer's exponent branch
    cfg = distinguish_large_configs(tmp_path)[index]
    assert main(["distinguish", cfg]) == 0
    printed = capsys.readouterr().out
    assert printed == yaml.dump(yaml.safe_load(printed), Dumper=ReportDumper,
                                sort_keys=False, default_flow_style=None)


def test_distinguish_report_writes_each_flow_collection_on_one_line(
        tmp_path, capsys):
    # the seed-7 N = 16 config: a line for each of the report's seven
    # keys, runs included, for each of the 16 condition_overlaps rows and
    # for each of the 16 runs
    cfg = distinguish_large_configs(tmp_path)[1]
    assert main(["distinguish", cfg]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 39


@pytest.mark.parametrize("argv", [
    ["superpose", str(DEMO_CONFIGS / "superpose_two_state.yaml")],
    ["distinguish", str(DEMO_CONFIGS / "distinguish_three_state.yaml")],
    ["fixed-point", str(DEMO_CONFIGS / "fixed_point_swap.yaml")],
    ["example"],
], ids=["superpose", "distinguish", "fixed-point", "example"])
def test_report_floats_take_one_pass_for_the_header_and_one_for_the_runs(
        capsys, monkeypatch, argv):
    # the header and the runs are each one template, whose floats one
    # _float_codes pass sorts, however many arrays they hold
    calls = []
    float_codes = cli._float_codes
    monkeypatch.setattr(cli, "_float_codes",
                        lambda a: calls.append(a.shape) or float_codes(a))
    assert main(argv) == 0
    assert capsys.readouterr().out
    assert 1 <= len(calls) <= 2, calls


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["yaml", "json"])
def test_sweep_floats_take_two_passes_in_either_format(tmp_path, capsys,
                                                      monkeypatch, flags):
    # the 64 runs of an N = 8 sweep are one template in either format, so
    # their arrays take one _float_codes pass, and the header one more
    cfg = haar_config(tmp_path, 8, 8, alpha=[0.6, 0.2], beta=[-0.3, 0.7])
    calls = []
    float_codes = cli._float_codes
    monkeypatch.setattr(cli, "_float_codes",
                        lambda a: calls.append(a.shape) or float_codes(a))
    assert main(["superpose", cfg, *flags]) == 0
    assert len(capsys.readouterr().out.splitlines()) >= 64
    assert len(calls) == 2, len(calls)


def test_main_reuses_one_parser(monkeypatch, capsys):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    assert main(["example"]) == 0
    assert main(["example", "--alpha", "0.6", "--beta", "0.8"]) == 0
    assert len(builds) == 1


def test_import_builds_no_parser():
    # argparse's help strings go through gettext, which imports locale
    code = "import sys, ctcsim.cli; print('locale' in sys.modules)"
    src = Path(cli.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout == "False\n"


def test_report_floats_round_trip(tmp_path, capsys):
    cfg = write(tmp_path, "pair.yaml", PAIR_CONFIG)
    assert main(["superpose", cfg]) == 0
    report = yaml.safe_load(capsys.readouterr().out)
    # reparsing must reproduce binary doubles exactly
    assert report["condition2_min"] == 1 / np.sqrt(2)
    assert report["alpha"][0] == 1 / np.sqrt(2)


def test_distinguish_example(tmp_path, capsys):
    cfg = write(tmp_path, "pair.yaml", PAIR_CONFIG)
    assert main(["distinguish", cfg]) == 0
    report = yaml.safe_load(capsys.readouterr().out)
    decoded = [r["decoded"] for r in report["runs"]]
    assert decoded == [0, 1]
    assert all(r["unique"] for r in report["runs"])
    assert all(r["residual"] <= 1e-8 for r in report["runs"])


def test_distinguish_orthonormal(tmp_path, capsys):
    cfg = write(tmp_path, "basis.yaml", BASIS_CONFIG)
    assert main(["distinguish", cfg]) == 0
    report = yaml.safe_load(capsys.readouterr().out)
    assert [r["decoded"] for r in report["runs"]] == [0, 1]


def test_distinguish_random_five_state_set(tmp_path, capsys):
    from ctcsim.sampling import random_state_set

    rng = np.random.default_rng(1234)
    states = random_state_set(5, rng)
    literals = [
        [[float(z.real), float(z.imag)] for z in s.amplitudes]
        for s in states
    ]
    cfg = write(tmp_path, "five.yaml", yaml.safe_dump({
        "state_set": literals, "alpha": 1, "beta": 0,
    }))
    assert main(["distinguish", cfg]) == 0
    report = yaml.safe_load(capsys.readouterr().out)
    assert [r["decoded"] for r in report["runs"]] == list(range(5))


def test_fixed_point_swap(tmp_path, capsys):
    swap = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    cfg = write(tmp_path, "fp.yaml", yaml.safe_dump({
        "unitary": [[[float(x), 0.0] for x in row] for row in swap],
        "rho_cr": [[0.70710678118654746, 0], [0.70710678118654746, 0]],
    }))
    assert main(["fixed-point", cfg]) == 0
    report = yaml.safe_load(capsys.readouterr().out)
    run = report["runs"][0]
    assert run["unique"]
    fp = np.array([[complex(re, im) for re, im in row]
                   for row in run["fixed_point"]])
    plus = np.array([1, 1]) / np.sqrt(2)
    assert np.abs(fp - np.outer(plus, plus)).max() < 1e-10


def test_pure_fixed_point_has_zero_entropy(tmp_path, capsys):
    text = (DEMO_CONFIGS / "fixed_point_swap.yaml").read_text()
    cfg = write(tmp_path, "pure.yaml", text.replace(
        "rho_cr: [[0.70710678118654746, 0], [0.70710678118654746, 0]]",
        "rho_cr: [[1, 0], [0, 0]]"))
    assert main(["fixed-point", cfg]) == 0
    assert "\n  entropy_nats: 0.0\n" in capsys.readouterr().out
    assert main(["fixed-point", cfg, "--json"]) == 0
    assert '"entropy_nats":0.0}' in capsys.readouterr().out


def test_fixed_point_identity_max_entropy(tmp_path, capsys):
    eye4 = [[[1.0 if r == c else 0.0, 0.0] for c in range(4)] for r in range(4)]
    cfg = write(tmp_path, "fpid.yaml", yaml.safe_dump({
        "unitary": eye4,
        "rho_cr": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
        "policy": "max_entropy",
    }))
    assert main(["fixed-point", cfg]) == 0
    report = yaml.safe_load(capsys.readouterr().out)
    run = report["runs"][0]
    assert run["fixed_space_dim"] == 4
    fp = np.array([[complex(re, im) for re, im in row]
                   for row in run["fixed_point"]])
    assert np.abs(fp - np.eye(2) / 2).max() < 1e-10
    assert abs(run["entropy_nats"] - np.log(2)) < 1e-9


def test_fixed_point_example_distinguisher(tmp_path, capsys):
    s = 1 / np.sqrt(2)
    c = np.kron(np.diag([1, 0]), np.eye(2)) + np.kron(
        np.diag([0, 1]), np.array([[s, s], [s, -s]]))
    swap = np.zeros((4, 4))
    for a in range(2):
        for b in range(2):
            swap[b * 2 + a, a * 2 + b] = 1
    u = c @ swap
    cfg = write(tmp_path, "fpex.yaml", yaml.safe_dump({
        "unitary": [[[float(x.real), float(x.imag)] for x in row] for row in u],
        "rho_cr": [[float(s), 0], [float(-s), 0]],
    }))
    assert main(["fixed-point", cfg]) == 0
    report = yaml.safe_load(capsys.readouterr().out)
    fp = np.array([[complex(re, im) for re, im in row]
                   for row in report["runs"][0]["fixed_point"]])
    assert np.abs(fp - np.diag([0.0, 1.0])).max() < 1e-8


def test_fixed_point_rejects_non_unitary(tmp_path, capsys):
    cfg = write(tmp_path, "bad.yaml", yaml.safe_dump({
        "unitary": [[1, 0], [0, 0.5]],
        "rho_cr": [[1, 0], [0, 0]],
    }))
    assert main(["fixed-point", cfg]) == 2


@pytest.mark.parametrize("rho_cr", [
    "[[.inf, 0], [0, 0]]",
    "[[[.nan, 0], [0, 0]], [[0, 0], [1, 0]]]",
], ids=["pure-inf", "density-nan"])
def test_non_finite_rho_cr_is_a_config_error_without_warnings(tmp_path, capsys,
                                                             rho_cr):
    cfg = write(tmp_path, "nonfinite.yaml",
                "unitary: [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]\n"
                f"rho_cr: {rho_cr}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fixed-point", cfg]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: rho_cr ")
    assert err.rstrip().endswith("positive_semidefinite")


def test_fixed_point_non_unique_is_protocol_error(tmp_path, capsys):
    eye4 = [[1.0 if r == c else 0.0 for c in range(4)] for r in range(4)]
    cfg = write(tmp_path, "fpnu.yaml", yaml.safe_dump({
        "unitary": eye4,
        "rho_cr": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
    }))
    assert main(["fixed-point", cfg]) == 3


def test_fixed_point_without_numerical_solution_is_protocol_error(
        capsys, monkeypatch):
    monkeypatch.setattr(deutsch, "TOL_FIX", -1.0)
    assert main(["fixed-point", str(DEMO_CONFIGS / "fixed_point_swap.yaml")]) == 3
    assert capsys.readouterr().err.startswith(
        "protocol error: NoFixedPointNumerical: candidate fixed point has residual")


def test_example_default_run(capsys):
    assert main(["example"]) == 0
    report = yaml.safe_load(capsys.readouterr().out)
    assert report["max_deviation"] < 1e-9
    by_block = {(b["i"], b["j"]): b for b in report["runs"]}
    assert by_block[(0, 0)]["deviation"] == 0.0
    assert by_block[(1, 1)]["deviation"] < 1e-12


def test_example_alpha_only(capsys):
    assert main(["example", "--alpha", "1", "--beta", "0"]) == 0
    report = yaml.safe_load(capsys.readouterr().out)
    block = {(b["i"], b["j"]): b for b in report["runs"]}[(0, 1)]
    col0 = [row[0] for row in block["constructed"]]
    assert col0 == [[1.0, 0.0], [0.0, 0.0]]


def test_example_balanced_column(capsys):
    assert main(["example"]) == 0
    report = yaml.safe_load(capsys.readouterr().out)
    block = {(b["i"], b["j"]): b for b in report["runs"]}[(0, 1)]
    col0 = np.array([complex(re, im) for re, im in
                     [row[0] for row in block["constructed"]]])
    assert np.abs(col0 - np.array([0.9238795325112867,
                                   -0.3826834323650897])).max() < 1e-9


def test_example_rejects_zero_amplitudes(capsys):
    assert main(["example", "--alpha", "0", "--beta", "0"]) == 2


def _zero_fidelity(monkeypatch):
    real = cli.run_sweep

    def unfaithful(*args):
        sweep = real(*args)
        return dataclasses.replace(sweep, fidelity=np.zeros_like(sweep.fidelity))

    monkeypatch.setattr(cli, "run_sweep", unfaithful)


def _misdecode(monkeypatch):
    real = cli.distinguish_members

    def misdecoded(bundle):
        members = real(bundle)
        return dataclasses.replace(members,
                                   decoded=np.full_like(members.decoded, -1))

    monkeypatch.setattr(cli, "distinguish_members", misdecoded)


def _no_deviation_allowed(monkeypatch):
    monkeypatch.setattr(cli, "_EXAMPLE_DEVIATION", 0.0)


@pytest.mark.parametrize("argv, fail_verdict", [
    (["superpose", str(DEMO_CONFIGS / "superpose_two_state.yaml")],
     _zero_fidelity),
    (["distinguish", str(DEMO_CONFIGS / "distinguish_three_state.yaml")],
     _misdecode),
    # fixed-point has no verdict of its own
    (["fixed-point", str(DEMO_CONFIGS / "fixed_point_swap.yaml")], None),
    (["example"], _no_deviation_allowed),
], ids=["superpose", "distinguish", "fixed-point", "example"])
def test_main_stamps_writes_and_exits(tmp_path, capsys, monkeypatch, argv,
                                      fail_verdict):
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert printed.startswith(f"command: {argv[0]}\nformat: 2\ntimestamp: '")
    report = yaml.safe_load(printed)
    # inputs are named by digest, and the spec is in the header once;
    # example's state_set is the construction's own set, not an input
    assert not {"seed", "unitary", "rho_cr"} & set(report)
    assert ("state_set" in report) == (argv[0] == "example")
    assert not any({"alpha", "beta"} & set(run) for run in report["runs"])

    out = tmp_path / "report.yaml"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    written = out.read_text(encoding="utf-8")
    assert strip_timestamp(written) == strip_timestamp(printed)

    assert main(argv + ["--json"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + len(report["runs"])
    header = json.loads(lines[0])
    assert list(header)[:3] == ["command", "format", "timestamp"]
    assert list(header) == list(report)[:-1]
    assert [list(json.loads(line)) for line in lines[1:]] == list(
        map(list, report["runs"]))

    if fail_verdict is not None:
        fail_verdict(monkeypatch)
        assert main(argv) == 3
        failed = yaml.safe_load(capsys.readouterr().out)
        assert list(failed) == list(report)
        assert list(map(list, failed["runs"])) == list(map(list, report["runs"]))


@pytest.mark.parametrize("argv", [
    ["superpose", str(DEMO_CONFIGS / "superpose_two_state.yaml")],
    ["distinguish", str(DEMO_CONFIGS / "distinguish_three_state.yaml")],
    ["example", "--alpha", "0.6", "--beta", "-0.8"],
], ids=["superpose-sweep", "distinguish", "example"])
def test_json_lines_are_header_and_run_objects(capsys, monkeypatch, argv):
    # line 1 is the stamped header's object, and each later line one run's
    monkeypatch.setattr(cli, "_timestamp", lambda: "2000-01-01T00:00:00Z")
    args = cli._parser().parse_args(argv)
    header, runs, _ = args.func(args)
    header = {"command": argv[0], "format": 2, "timestamp": cli._timestamp(),
              **header}
    rows = run_rows(runs)
    assert main(argv + ["--json"]) == 0
    out = capsys.readouterr().out
    assert out == "".join(json_lines(header, rows))
    assert [json.loads(line) for line in out.splitlines()] == [
        as_lists(header), *map(as_lists, rows)]


def config_sha256(node, outer=False):
    """The digest a report names a config array by, recomputed with numpy
    and hashlib alone: the array of the [re, im] pairs `node` holds, with
    `outer` the density matrix of that vector, its shape as little-endian
    int64 values, then its C-ordered little-endian complex128 entries."""
    a = np.array(node, dtype=float).view(complex)[..., 0]
    if outer:
        a = np.outer(a, a.conj())
    digest = hashlib.sha256(np.array(a.shape, dtype="<i8").tobytes())
    digest.update(np.ascontiguousarray(a, dtype="<c16").tobytes())
    return digest.hexdigest()


MIXED_CONFIG = {
    "unitary": [[[1.0 if r == c else 0.0, 0.0] for c in range(4)]
                for r in range(4)],
    "rho_cr": [[[0.6, 0.0], [0.0, 0.2]], [[0.0, -0.2], [0.4, 0.0]]],
    "policy": "max_entropy",
}


@pytest.mark.parametrize("command, config", [
    ("superpose", DEMO_CONFIGS / "superpose_two_state.yaml"),
    ("distinguish", DEMO_CONFIGS / "distinguish_three_state.yaml"),
    ("fixed-point", DEMO_CONFIGS / "fixed_point_swap.yaml"),
    ("fixed-point", None),
], ids=["superpose", "distinguish", "fixed-point-vector", "fixed-point-matrix"])
def test_inputs_are_named_by_their_sha256(tmp_path, capsys, command, config):
    if config is None:
        config = write(tmp_path, "mixed.yaml", yaml.safe_dump(MIXED_CONFIG))
    cfg = yaml.safe_load(Path(config).read_text())
    if command == "fixed-point":
        vector = not isinstance(cfg["rho_cr"][0][0], list)
        expected = {"unitary_sha256": config_sha256(cfg["unitary"]),
                    "rho_cr_sha256": config_sha256(cfg["rho_cr"], vector)}
    else:
        expected = {"state_set_sha256": config_sha256(cfg["state_set"])}
    assert main([command, str(config)]) == 0
    report = yaml.safe_load(capsys.readouterr().out)
    assert main([command, str(config), "--json"]) == 0
    header = json.loads(capsys.readouterr().out.splitlines()[0])
    for key, digest in expected.items():
        assert report[key] == header[key] == digest


@pytest.mark.parametrize("target", ["missing/report.yaml", "."],
                         ids=["missing-directory", "directory"])
def test_unwritable_out_is_config_error(tmp_path, capsys, target):
    assert main(["example", "--out", str(tmp_path / target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: cannot write report: ")


def _command_returning(monkeypatch, runs):
    """Make every command hand main a one-key header and `runs`."""
    parser = cli._parser()

    class Parser:
        def parse_args(self, argv):
            args = parser.parse_args(argv)
            args.func = lambda args: ({"policy": "require_unique"}, runs, True)
            return args

    monkeypatch.setattr(cli, "_parser", Parser)


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["yaml", "json"])
@pytest.mark.parametrize("runs", [
    {"m": [0, 1, 2], "x": [1.0, 2.0, None]},
    {"m": [0, 1, 2], "x": np.zeros((3, 2), dtype=bool)},
    {"m": [0, 1], "a": [np.ones(2), np.ones(3)]},
], ids=["last-entry", "bool-array", "shapes-differ"])
def test_rejected_column_writes_no_byte(tmp_path, capsys, monkeypatch,
                                        flags, runs):
    # the writer checks every entry before the first piece: a rejected
    # column leaves no --out file and prints nothing
    _command_returning(monkeypatch, runs)
    out = tmp_path / "report"
    assert main(["example", *flags, "--out", str(out)]) == 1
    assert not out.exists()
    assert main(["example", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("internal error: TypeError: ") == 2


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["yaml", "json"])
def test_sweep_report_is_written_as_it_is_formatted(tmp_path, monkeypatch,
                                                   flags):
    # every run's text is formatted just before it is written, so no two
    # runs are written after the same number of formatted rows
    cfg = haar_config(tmp_path, 16, 16, alpha=[0.6, 0.2], beta=[-0.3, 0.7])
    rows = []
    formatted = cli._formatted

    def counted(*args, **kwargs):
        for text in formatted(*args, **kwargs):
            rows.append(text)
            yield text

    class Stdout:
        def __init__(self):
            self.written = []

        def writelines(self, pieces):
            self.written += [(piece, len(rows)) for piece in pieces]

        def flush(self):
            pass

    monkeypatch.setattr(cli, "_formatted", counted)
    monkeypatch.setattr(sys, "stdout", Stdout())
    assert main(["superpose", cfg, *flags]) == 0
    written = sys.stdout.written
    # YAML: the header, "runs:", a piece per run and the last newline;
    # JSON: the header's line and a line per run
    runs = written[1:] if flags else written[2:-1]
    assert len(runs) == 256
    counts = [count for _, count in runs]
    assert counts == sorted(set(counts))
    assert counts[-1] == len(rows)
    assert counts[0] == 2  # the header's row and the first run's


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["yaml", "json"])
def test_reader_that_closes_early_is_no_program_fault(tmp_path, flags):
    # an N = 12 sweep writes more than a pipe holds, so a reader that
    # closes after its first line breaks the pipe while the report is
    # still being written
    cfg = haar_config(tmp_path, 12, 12, alpha=[0.6, 0.2], beta=[-0.3, 0.7])
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.Popen(
        [sys.executable, "-m", "ctcsim", "superpose", cfg, *flags],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)})
    first = proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert first.startswith(b"command: superpose" if not flags else b'{"command"')
    assert stderr == b""


@pytest.mark.parametrize("workload", ["superpose-sweep", "distinguish-large",
                                      "fixed-point-mix"])
def test_benchmark_configs_read_as_arrays_without_warnings(tmp_path, workload):
    for cmd in build_round(workload, 7, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = cli._load_config(cmd.argv[1])
            arrays = {key: cfg[key] for key in ("state_set", "alpha", "beta",
                                               "unitary", "rho_cr") if key in cfg}
            assert all(isinstance(a, np.ndarray) for a in arrays.values()), cfg
            for key, node in arrays.items():
                cli._parse_array(node, key, 0 if key in ("alpha", "beta") else 2)


def second_call_peak(argv):
    """The tracemalloc peak of ``main(argv)`` on its second call, as the
    first also builds one-time state such as the parser (about 0.2 MB)."""
    assert main(argv) == 0
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


@pytest.mark.parametrize("n", [32, 64])
def test_distinguish_holds_one_stack_and_one_real_chain_array(tmp_path, n):
    # the bound of one U_k stack, 16 N^3 bytes, and one real N^3 chain
    # array; a discrimination now holds neither, and the parsed config is
    # not held beside its arrays.  The config is one JSON line, its state
    # set one numeric row read as a float array: a block-style config of
    # N = 32 takes more to load
    states = random_state_set(n, np.random.default_rng(n))
    cfg = write(tmp_path, f"haar{n}.json", json.dumps({"state_set": [
        [[z.real, z.imag] for z in s.amplitudes.tolist()] for s in states]}))
    peak = second_call_peak(["distinguish", cfg, "--out", str(tmp_path / "out")])
    assert peak < 1.8 * 16 * n**3


# the second-call peaks, in bytes, of the seed-7 distinguish-large
# configs at N = 12 and 16 (45.6 and 71.0 KB) before the member pass took
# fewer numpy calls a block and the writer less fixed cost a template,
# measured as this test measures them
WARM_DISTINGUISH_PEAKS = {0: 45_632, 1: 70_963}


@pytest.mark.parametrize("index", [0, 1], ids=["N=12", "N=16"])
def test_warm_distinguish_peak_holds_at_its_measured_value(tmp_path, index):
    # an allocation added to the member pass or the writer shows here
    # before it reaches the benchmark's peak_mem_mb, which the N = 16
    # command sets when the round runs warm
    cfg = distinguish_large_configs(tmp_path)[index]
    peak = second_call_peak(["distinguish", cfg, "--out", str(tmp_path / "out")])
    assert peak <= 1.02 * WARM_DISTINGUISH_PEAKS[index], peak


def test_fixed_point_holds_no_config_beside_its_superoperators(tmp_path):
    # a Haar 2 x 16 circuit: two n x n arrays, n = 16^2, and 64 KB for the
    # parsed arrays and the report; the config's nested lists of [re, im]
    # pairs, about 150 KB, are dropped once parsed
    rng = np.random.default_rng(32)
    pairs = lambda m: [[[v.real, v.imag] for v in row] for row in m.tolist()]
    cfg = write(tmp_path, "haar2x16.json", json.dumps({
        "unitary": pairs(haar_unitary(32, rng).entries),
        "rho_cr": pairs(random_density_matrix(2, rng).entries)}))
    peak = second_call_peak(["fixed-point", cfg, "--out", str(tmp_path / "out")])
    assert peak < 2 * 256**2 * 8 + 64 * 1024


def run_at_scale(tmp_path, capsys, command, x):
    """Exit code and report of `command` at alpha = beta = x, without the
    timestamp and the alpha/beta echo."""
    if command == "superpose":
        text = (PAIR_CONFIG
                .replace(f"alpha: [{S_17}, 0]", f"alpha: [{x:.17e}, 0]")
                .replace(f"beta: [{S_17}, 0]", f"beta: [{x:.17e}, 0]"))
        argv = ["superpose", write(tmp_path, "scaled.yaml", text)]
    else:
        argv = ["example", "--alpha", repr(x), "--beta", repr(x)]
    code = main(argv)
    lines = capsys.readouterr().out.splitlines(keepends=True)
    return code, "".join(
        line for line in lines
        if not line.lstrip(" -").startswith(("timestamp:", "alpha:", "beta:")))


@pytest.mark.parametrize("command", ["superpose", "example"])
@pytest.mark.parametrize("scale", [2.0**-40, 2.0**600])
def test_amplitude_scale_leaves_runs_unchanged(tmp_path, capsys, command, scale):
    unit = run_at_scale(tmp_path, capsys, command, 1.0)
    assert unit[0] == 0
    assert run_at_scale(tmp_path, capsys, command, scale) == unit


@pytest.mark.parametrize("scale",
                         [1.0, 2.0**-40, 2.0**600, 1e-10, 1e200, 1e-320])
def test_only_cancelling_amplitudes_are_degenerate_at_any_scale(tmp_path, capsys,
                                                               scale):
    # the cancelling half is test_superpose's library-level sweep: a set
    # whose members could cancel is not distinct and fails validation
    for command in ("superpose", "example"):
        assert run_at_scale(tmp_path, capsys, command, scale)[0] == 0


def test_fixed_point_command_decomposes_sigma_once(tmp_path, monkeypatch):
    # the PSD check's spectrum also gives entropy_nats; the seed-7 Haar
    # 2 x 8 config of the benchmark's fixed-point-mix
    cmd = build_round("fixed-point-mix", 7, tmp_path)[0]
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    assert main(list(cmd.argv)) == 0
    assert shapes.count((8, 8)) == 1, shapes
    report = yaml.safe_load(Path(cmd.out).read_text())
    run = report["runs"][0]
    sigma = np.array([[complex(*z) for z in row] for row in run["fixed_point"]])
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    assert run["entropy_nats"] == deutsch.von_neumann_entropy(sigma)


# the second-call peaks, in bytes, of the seed-7 fixed-point-mix configs:
# the Haar 2 x 16 command sets the benchmark's peak_mem_mb; the identity
# 2 x 8 under max_entropy peaked at 474 037 B before its directions were
# formed and compressed once; the block 5 x 6 peaked at 211 769 B inside
# the config read while rows were read as nested lists
WARM_FIXED_POINT_PEAKS = {3: (1_080_511, 1.01), 6: (177_634, 1.02),
                          4: (277_725, 1.02)}


@pytest.mark.parametrize("index", [3, 6, 4],
                         ids=["haar-2x16", "block-5x6", "identity-2x8"])
def test_warm_fixed_point_peak_holds_at_its_measured_value(tmp_path, index):
    cmd = build_round("fixed-point-mix", 7, tmp_path)[index]
    peak = second_call_peak(list(cmd.argv))
    bound, slack = WARM_FIXED_POINT_PEAKS[index]
    assert peak <= slack * bound, peak
