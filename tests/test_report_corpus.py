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
