import json

import pytest
import yaml

from report_corpus import TIMESTAMP, compare_corpora, main, write_corpus

# one benchmark command, a demo, example and an edge set of condition 2
SUBSET = ["bench-distinguish-large-3-0", "demo-distinguish_three_state",
          "example-default", "distinguish-near-parallel-12-3t"]
SUFFIXES = (".yaml", ".json", ".yaml.status", ".json.status")


def test_report_corpus_is_byte_deterministic(tmp_path):
    for run in ("a", "b"):
        assert write_corpus(tmp_path / run, SUBSET) == SUBSET
    for name in SUBSET:
        for suffix in SUFFIXES:
            first = (tmp_path / "a" / (name + suffix)).read_bytes()
            assert first == (tmp_path / "b" / (name + suffix)).read_bytes()
        status = (tmp_path / "a" / f"{name}.yaml.status").read_text()
        assert status == "exit 0\n"
        assert f"timestamp: '{TIMESTAMP}'\n" in (
            tmp_path / "a" / f"{name}.yaml").read_text()


def test_json_lines_hold_the_yaml_report(tmp_path):
    # line 1 of --json is the YAML report's header, and line k + 2 its
    # run k
    write_corpus(tmp_path, SUBSET)
    for name in SUBSET:
        report = yaml.safe_load((tmp_path / f"{name}.yaml").read_text())
        runs = report.pop("runs")
        lines = (tmp_path / f"{name}.json").read_text().splitlines()
        assert len(lines) == 1 + len(runs)
        assert json.loads(lines[0]) == report
        for line, run in zip(lines[1:], runs):
            assert json.loads(line) == run


def _hand_corpus(path, fidelity=0.75, residual=1e-17, decoded=1, stderr=""):
    # one --json report (a header line and one run), its YAML twin and
    # their status files
    path.mkdir()
    header = {"command": "distinguish", "state_set_sha256": "ab12"}
    run = {"decoded": decoded, "unique": True, "residual": residual,
           "fidelity_to_basis": fidelity}
    (path / "r.json").write_text(
        json.dumps(header) + "\n" + json.dumps(run) + "\n", encoding="utf-8")
    (path / "r.yaml").write_text(
        yaml.safe_dump({**header, "runs": [run]}, sort_keys=False),
        encoding="utf-8")
    for name in ("r.json.status", "r.yaml.status"):
        (path / name).write_text(f"exit 0\n{stderr}", encoding="utf-8")
    return path


def test_compare_lists_float_moves_and_fails_on_any_other_difference(tmp_path):
    old = _hand_corpus(tmp_path / "old")
    same = _hand_corpus(tmp_path / "same", fidelity=0.75 + 4e-13,
                        residual=3e-17)
    problems, moves = compare_corpora(old, same)
    assert problems == []
    assert moves["residual"] == pytest.approx(2e-17)
    assert 3e-13 < moves["fidelity_to_basis"] < 5e-13
    assert main(["--compare", str(old), str(same)]) == 0
    changed = {
        "fidelity": dict(fidelity=0.75 + 2e-12),
        "decoded": dict(decoded=2),
        "stderr": dict(stderr="warning\n"),
    }
    for name, change in changed.items():
        new = _hand_corpus(tmp_path / name, **change)
        problems, _ = compare_corpora(old, new)
        assert len(problems) == 2, problems  # the YAML and the --json report
        assert main(["--compare", str(old), str(new)]) == 1
    (same / "r.json").unlink()
    assert compare_corpora(old, same)[0] == [f"r.json: only in {old}"]
