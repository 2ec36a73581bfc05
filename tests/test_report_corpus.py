import json

import yaml

from report_corpus import TIMESTAMP, write_corpus

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
