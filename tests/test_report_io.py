"""The report emitter and the config reader against PyYAML as oracle.

`cli._yaml_report` must print what ``yaml.dump`` prints with libyaml's
emitter, and `cli._read_config` must return what ``yaml.load`` returns,
under libyaml's parser and under PyYAML's pure-Python one.
"""

import json
import math
import re
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import ReportDumper, as_lists, run_rows
from ctcsim import cli


class _Pure(yaml.SafeDumper):
    pass


_Pure.add_representer(float, ReportDumper.yaml_representers[float])

LOADERS = [yaml.SafeLoader]
if hasattr(yaml, "CSafeLoader"):
    LOADERS.append(yaml.CSafeLoader)


def dump(report, dumper):
    return yaml.dump(report, Dumper=dumper, sort_keys=False,
                     default_flow_style=None)


# ---------------------------------------------------------------------------
# report emitter

FLOATS = st.floats() | st.sampled_from([
    -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1.7976931348623157e308,
    1e22, 1e16, 1e17, math.inf, -math.inf, math.nan,
])
NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_-]{0,11}", fullmatch=True) \
    | st.sampled_from(["yes", "No", "on", "OFF", "true", "null", "Null",
                       "y", "n", "command", "max_entropy"])
# a key of 78 or more characters puts the first flow item past column 80
KEYS = NAMES | st.builds(lambda name, n: (name + "k" * n)[:100], NAMES,
                         st.integers(70, 100))
STAMPS = st.datetimes(min_value=datetime(1000, 1, 1)).map(
    lambda t: t.strftime("%Y-%m-%dT%H:%M:%SZ"))
SCALARS = (FLOATS | st.integers() | st.booleans() | st.none() | NAMES
           | STAMPS)
# rows of up to 12 floats of up to 24 characters cross column 80
ROWS = st.lists(FLOATS, max_size=12)
PAIRS = st.lists(FLOATS, min_size=2, max_size=2)
FLOW_MAPS = st.dictionaries(KEYS, SCALARS, max_size=6)


def _values(children):
    return (st.lists(children, max_size=4)
            | st.dictionaries(KEYS, children, max_size=4))


VALUES = st.recursive(SCALARS | ROWS | PAIRS | FLOW_MAPS, _values,
                      max_leaves=16)
REPORTS = st.dictionaries(KEYS, VALUES, min_size=1, max_size=6)


def check_emitter(report):
    text = cli._yaml_report(report)
    assert text == dump(report, ReportDumper)
    # PyYAML's Python emitter single-quotes a tagged scalar, `!!float 'inf'`
    # where libyaml writes `!!float inf`, which also moves its line breaks
    if "!!float" not in text:
        assert text == dump(report, _Pure)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(REPORTS)
def test_emitter_matches_both_dumpers(report):
    check_emitter(report)


@pytest.mark.parametrize("report", [
    {"row": [0.12345678901234566] * 9},
    {"runs": [{"key": [[-0.12345678901234566, 1e-300] for _ in range(4)]}]},
    {"k" * 78: [1.0, 2.0], "l" * 78: [1.0], "m" * 77: {"a": 1},
     "n" * 79: [[0.5]]},
    {"deep": [[[[0.5, -0.0]] for _ in range(5)] for _ in range(2)]},
    {"runs": [{"input_index": 0, "decoded": 0,
               "residual": 2.2204460492503131e-16, "unique": True,
               "fidelity_to_basis": 0.99999999999999978,
               "note": None, "when": "2000-01-01T00:00:00Z"}]},
    {"empty": [], "none": {}, "nested_empty": [[], {}], "flags": [True, False]},
    {"tagged": [math.inf, -math.inf, math.nan, 1e22, -1e300, 5e-324]},
    {"k" * 78: 0.0, "A": 0.0},
    {"yes" + "k" * 70: 0.0, "A": 0.0},
], ids=["wrapped-row", "wrapped-pairs", "first-item-wrap", "nested-blocks",
        "flow-mapping", "empty-collections", "non-finite-and-tagged",
        "root-flow-wraps", "root-flow-fits"])
def test_emitter_matches_dumper_on_shapes(report):
    check_emitter(report)


# report arrays: the shapes commands print, with integral floats among
# the entries; rows of up to 12 entries cross column 80
ARRAY_FLOATS = FLOATS | st.integers(-2**60, 2**60).map(float)
ARRAY_SHAPES = (st.tuples(st.integers(1, 12))
                | st.tuples(st.integers(1, 6), st.just(2))
                | st.tuples(st.integers(1, 4), st.integers(1, 12))
                | st.tuples(st.integers(1, 3), st.integers(1, 4), st.just(2)))
ARRAYS = hnp.arrays(np.float64, ARRAY_SHAPES, elements=ARRAY_FLOATS)
ARRAY_REPORTS = st.dictionaries(
    KEYS, st.recursive(SCALARS | ROWS | ARRAYS, _values, max_leaves=12),
    min_size=1, max_size=6)


def check_arrays(report):
    lists = as_lists(report)
    check_emitter(lists)
    assert cli._yaml_report(report) == cli._yaml_report(lists)
    assert cli._json_dumps(report) == cli._json_dumps(lists)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ARRAY_REPORTS)
def test_array_reports_match_both_dumpers(report):
    check_arrays(report)


def _deep(value, depth):
    """`value` inside `depth` levels of one-item sequences and mappings."""
    for k in range(depth):
        value = {f"k{k}": value} if k % 2 else [value]
    return value


PAIRS_4x3 = np.arange(24.0).reshape(4, 3, 2) / 7
ROW_OF_12 = -np.arange(1, 13) / 3


@pytest.mark.parametrize("report", [
    {"unitary": PAIRS_4x3, "rho_cr": np.eye(2)},
    {"runs": [{"ancilla": PAIRS_4x3[0], "overlaps": np.outer(ROW_OF_12, ROW_OF_12)}]},
    {"state_set": [PAIRS_4x3[0], PAIRS_4x3[1]], "row": ROW_OF_12},
    {"k" * 78: ROW_OF_12, "l" * 76: np.ones((2, 2)), "m" * 90: PAIRS_4x3},
    {"deep": _deep(PAIRS_4x3, 60), "deep_row": _deep(ROW_OF_12, 41)},
    {"four": PAIRS_4x3.reshape(2, 2, 3, 2), "column": np.ones((3, 1))},
    {"special": np.array([[math.inf, -math.inf], [math.nan, 1e22],
                          [-0.0, 5e-324], [1e308, 2.0**53]])},
    {"empty": np.zeros(0), "empty_rows": np.zeros((2, 0)),
     "ints": np.arange(3)},
    # rows of three 24-character floats: 76 characters fit after "- [" at
    # column 2, not at column 4
    {"a": {"k": [np.full((2, 3), -2.2250738585072014e-308)]},
     "b": [[np.full((2, 3), 1.2345678901234567e-300)]],
     "c": [np.full((2, 3), -1.2345678901234567e-300)]},
], ids=["fixed-point", "sweep-run", "state-set", "long-keys", "past-column-80",
        "four-axes", "tagged", "other-arrays", "longest-rows-in-sequences"])
def test_array_reports_match_dumper_on_shapes(report):
    check_arrays(report)


def _row_before_last(chars):
    """Floats whose flow row up to its last item takes `chars` characters."""
    # with its ", ", 0.5 takes 5 characters and 10.5 takes 6
    sixes = chars % 5
    return [0.5] * ((chars - 6 * sixes) // 5) + [10.5] * sixes + [0.5]


@pytest.mark.parametrize("chars", range(66, 84))
def test_array_rows_at_the_wrap_column(chars):
    # the last comma of these rows lands on either side of column 80
    row = _row_before_last(chars)
    check_arrays({"a": np.array(row), "b": np.array([row, row[::-1]]),
                  "c": [np.array([[row], [row]])]})


ZERO_AXIS = np.array(0.5)


@pytest.mark.parametrize("report", [
    {"a": (1.0, 2.0)},
    {"a": "two words"},
    {"a": "x: y"},
    {"a": b"bytes"},
    {1: "int key"},
    [1.0],
    {"a": np.array(1.5)},
    {"runs": [{"a": np.ones(2), "b": np.array(1.5)},
              {"a": np.ones(2), "b": np.array(2.5)}]},
    {"runs": [{"a": np.ones(2), "b": ZERO_AXIS}, {"a": np.ones(2), "b": ZERO_AXIS}]},
    {"runs": [{"a": np.ones(2), "b": 1.5}, {"a": np.ones(2), "b": np.array(2.5)}]},
], ids=["tuple", "spaced-string", "colon-string", "bytes", "int-key",
        "list-root", "zero-axis-array", "zero-axis-array-in-runs",
        "shared-zero-axis-array-in-runs", "zero-axis-array-in-one-run"])
def test_emitter_rejects_other_shapes(report):
    with pytest.raises(TypeError):
        cli._yaml_report(report)


# complex values: written as their [re, im] pairs, the form `as_lists`
# gives them, in YAML and in JSON

def check_complex(report):
    pairs = as_lists(report)
    text = cli._yaml_report(report)
    assert text == dump(pairs, ReportDumper)
    if "!!float" not in text:
        assert text == dump(pairs, _Pure)
    assert cli._json_dumps(report) == cli._json_dumps(pairs)


COMPLEX_4x3 = (np.arange(12.0) - 5.5j * np.arange(12.0)[::-1]).reshape(4, 3) / 7


@pytest.mark.parametrize("report", [
    {"alpha": 0.6 - 0.8j, "beta": np.complex128(1j), "one": complex(1, 0)},
    {"zeros": complex(-0.0, 0.0), "neg": complex(0.0, -0.0),
     "both": complex(-0.0, -0.0)},
    {"inf": complex(math.inf, -math.inf), "nan": complex(math.nan, 1e22),
     "tiny": complex(5e-324, -1e308)},
    {"vector": COMPLEX_4x3[0], "row": COMPLEX_4x3.ravel()},
    {"matrix": COMPLEX_4x3, "cube": COMPLEX_4x3.reshape(2, 2, 3)},
    {"transposed": COMPLEX_4x3.T, "strided": COMPLEX_4x3[::2, ::-1],
     "real_part": COMPLEX_4x3.real},
    {"state_set": [COMPLEX_4x3[0], COMPLEX_4x3[1]],
     "mixed": [1 + 2j, 0.5, [3j, -1.0], "name"]},
    {"runs": [{"alpha": 0.5j, "residual": 1e-17}, {"a": 1j, "b": 2 - 0j}],
     "nested": {"z": {"w": complex(-0.0, math.inf)}}},
    {"k" * 78: 1 + 1j, "l" * 76: COMPLEX_4x3[:2],
     "wide": np.full(8, 0.12345678901234566 - 0.98765432109876543j)},
    {"empty": np.zeros(0, complex), "empty_rows": np.zeros((2, 0), complex),
     "zero_axis": np.array(0.25 - 1j)},
], ids=["scalars", "signed-zeros", "non-finite-and-tagged", "vectors",
        "matrices", "non-contiguous", "in-lists", "in-mappings",
        "past-column-80", "empty-and-0-d"])
def test_complex_values_are_written_as_pairs(report):
    check_complex(report)


COMPLEXES = st.builds(complex, FLOATS, FLOATS)
COMPLEX_ARRAYS = hnp.arrays(np.complex128, ARRAY_SHAPES, elements=COMPLEXES)
COMPLEX_REPORTS = st.dictionaries(
    KEYS, st.recursive(SCALARS | COMPLEXES | COMPLEX_ARRAYS, _values,
                       max_leaves=12),
    min_size=1, max_size=6)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(COMPLEX_REPORTS)
def test_complex_reports_match_both_dumpers(report):
    check_complex(report)


# block sequences of mappings with the same keys, as a command's runs,
# which the writer lays out key by key: values of one shape and dtype in
# every item, one complex value shared by every item, scalar rows and
# scalars, nested so deep that rows wrap, and after a header as
# `_yaml_pieces` writes them from their columns
RUN_SHAPES = st.sampled_from([(3,), (4, 2), (2, 3), (2, 2, 2), (12,), (3, 12)])
HEADERS = st.dictionaries(KEYS.filter(lambda key: key != "runs"),
                          SCALARS | ARRAYS, max_size=4)


def _stack(column):
    """`column` as one array with a leading item axis, when its values
    are arrays of one shape and dtype, else as it is."""
    if (all(isinstance(v, np.ndarray) for v in column)
            and len({(v.shape, v.dtype) for v in column}) == 1):
        return np.stack(column)
    return column


def check_stack(header, rows):
    """`_yaml_pieces` of `header` and the columns of `rows`, mappings with
    the same keys, each column given as a list and as one array stack,
    against both dumpers of ``{**header, "runs": rows}``."""
    report = as_lists({**header, "runs": rows})
    lists = {key: [row[key] for row in rows] for key in rows[0]}
    for runs in (lists, {key: _stack(column) for key, column in lists.items()}):
        text = "".join(cli._yaml_pieces(header, runs))
        assert text == dump(report, ReportDumper)
        if "!!float" not in text:
            assert text == dump(report, _Pure)


@st.composite
def same_key_runs(draw):
    size = draw(st.integers(2, 5))
    keys = draw(st.lists(KEYS, min_size=1, max_size=5, unique=True))
    shared = draw(COMPLEXES)
    columns = []
    for k in range(len(keys)):
        # the first key always holds a collection, so every item is a
        # block mapping
        kind = draw(st.sampled_from(
            ["float", "complex", "shared"] + (["row", "scalar"] if k else [])))
        if kind == "shared":
            columns.append([shared] * size)
            continue
        if kind in ("float", "complex"):
            shape = draw(RUN_SHAPES)
            value = (hnp.arrays(np.float64, shape, elements=ARRAY_FLOATS)
                     if kind == "float" else
                     hnp.arrays(np.complex128, shape, elements=COMPLEXES))
        else:
            value = ROWS if kind == "row" else FLOATS
        columns.append(draw(st.lists(value, min_size=size, max_size=size)))
    runs = [dict(zip(keys, values)) for values in zip(*columns)]
    return (draw(HEADERS), runs,
            {draw(KEYS): _deep(runs, draw(st.integers(0, 20)))})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(same_key_runs())
def test_same_key_runs_match_both_dumpers(drawn):
    header, runs, report = drawn
    check_arrays(report)
    check_stack(header, runs)


SHARED = np.arange(4.0).reshape(2, 2) / 3
# rows of .17g texts of the greatest length, 24 characters
LONG_PAIRS = np.full(3, -1.2345678901234567e-308 + 1.2345678901234567e-300j)


@pytest.mark.parametrize("runs", [
    [{"a": np.ones(3), "b": 0.5}, {"a": np.ones(4), "b": 1.5}],
    [{"a": COMPLEX_4x3[0], "b": 1}, {"a": PAIRS_4x3[0, 0], "b": 2}],
    [{"a": np.ones(2), "b": 1}, {"a": np.ones(2), "c": 1}],
    [{"a": np.ones(2), "b": 1}, {"b": 1, "a": np.ones(2)}],
    [{"a": np.ones(2)}, {"a": np.ones(2), "b": 1}],
    [{"a": np.arange(3), "b": np.zeros(0)}, {"a": np.arange(3), "b": np.zeros(0)}],
    [{"a": np.zeros((2, 0), complex)}, {"a": np.zeros((2, 0), complex)}],
    [{"a": PAIRS_4x3, "b": 1 + 2j, "c": [0.5, -1.0]}],
    [{"a": 0.5, "b": 1}, {"a": 1.5, "b": 2}],
    [{"a": [0.5], "b": 1, "c": "name"}, {"a": 1.5, "b": 1, "c": "name"}],
    [{"a": [0.5], "b": 1}, {"a": 1.5, "b": 2}],
    [{"a": SHARED, "b": 0.5}, {"a": SHARED, "b": 1.5}],
    [{"a": 0.5 - 1j, "b": np.ones((3, 12))}, {"a": 0.5 - 1j, "b": -np.ones((3, 12))}],
    [{"a": np.full((2, 3), -2.2250738585072014e-308), "b": LONG_PAIRS},
     {"a": np.full((2, 3), 1.2345678901234567e-300), "b": LONG_PAIRS.copy()}],
    [{"a": [{"x": np.ones(2), "y": 1}, {"x": np.zeros(2), "y": 2}]},
     {"a": [{"x": np.ones(2), "y": 3}]}],
    [{}, {}],
    [{"a": 1.5 + 0j}, {"a": 2.5 - 0j}, {"a": 1j}],
    [{"a": {"z": 1}}, {"a": {"z": 2}}],
    ["name", {"a": np.ones(2)}, {"a": np.ones(2)}],
    [{"a": np.ones(2)}, [np.ones(2)], {"a": np.ones(2)}],
    [{"a": np.full(2, float(k)), "b": k} for k in range(3)],
], ids=["shapes-differ", "dtypes-differ", "keys-differ", "keys-reordered",
        "keys-added", "int-and-empty", "empty-complex-rows", "one-item",
        "scalar-items", "shared-scalars", "scalar-in-one-item", "shared-array",
        "shared-complex-and-wide-rows", "longest-floats", "nested-runs", "empty-items",
        "complex-scalars", "mappings", "scalar-first", "sequence-between",
        "distinct-rows"])
@pytest.mark.parametrize("depth", [0, 3, 30])
def test_same_key_runs_match_dumper_on_shapes(runs, depth):
    check_arrays({"runs": _deep(runs, depth)})
    # as a stack after a header: of scalars alone, with arrays, or nested
    # `depth` deep
    if not (all(isinstance(run, dict) for run in runs)
            and len(set(map(tuple, runs))) == 1 and runs[0]):
        return
    header = {0: {"command": "distinguish", "seed": 0, "passed": True},
              3: {"seed": 3, "state_set": COMPLEX_4x3},
              30: {"deep": _deep(ROW_OF_12, 30)}}[depth]
    if any(len({isinstance(run[key], cli._COLLECTIONS) for run in runs}) > 1
           for key in runs[0]):
        # items that are block mappings in some runs and flow mappings in
        # others share no layout
        with pytest.raises(TypeError):
            cli._yaml_pieces(header, {key: [run[key] for run in runs]
                                      for key in runs[0]})
        return
    check_stack(header, runs)


@pytest.mark.parametrize("runs", [
    [{"a": 1.5}, {"a": 2.5}],
    {},
    {"a": []},
    {"a": [1.5, 2.5], "b": [1.5]},
    {"a": [np.ones(2), 1.5]},
], ids=["list-of-mappings", "no-columns", "no-runs", "unequal-columns",
        "mixed-kinds"])
def test_runs_other_than_columns_are_rejected(runs):
    with pytest.raises(TypeError):
        cli._yaml_pieces({"seed": 0}, runs)


# floats whose .17g text holds no '.', which the report completes with
# '.0' (1.0, 1e16) or tags (inf, 1e+17, 1e-306), and floats beside them
# whose .17g text holds one (1e-05 is 1.0000000000000001e-05), in runs
SPECIAL_FLOATS = st.sampled_from([
    1.0, 0.0, -0.0, -3.0, 1e15, 1e16, 1e17, 1e22, math.inf, -math.inf,
    math.nan, 1.0000000000001002e16, 12345678901234568.0, 2.0**60,
    1e-306, 5e-306, -7e-304, 1e-05, 4e-32, 5e-324, 1e-320,
    -2.2250738585072014e-308, 1.7976931348623157e308,
])
RUN_FLOATS = st.floats(-1, 1) | SPECIAL_FLOATS


@st.composite
def special_runs(draw):
    size = draw(st.integers(2, 5))
    shape = draw(RUN_SHAPES)
    real = hnp.arrays(np.float64, shape, elements=RUN_FLOATS)
    state = hnp.arrays(np.complex128, shape,
                       elements=st.builds(complex, RUN_FLOATS, RUN_FLOATS))
    rows = [{
        "m": draw(st.integers(-2**53, 2**53)),
        "labels": draw(st.lists(st.integers(0, 99), min_size=2, max_size=2)),
        # an int array, which a stack holds as a sweep's decoded indices
        "decoded": np.array(draw(st.lists(st.integers(0, 99), min_size=2,
                                          max_size=2))),
        "residuals": draw(st.lists(RUN_FLOATS, min_size=2, max_size=2)),
        "fidelity": draw(RUN_FLOATS),
        "amplitude": draw(st.builds(complex, RUN_FLOATS, RUN_FLOATS)),
        "real": draw(real),
        "state": draw(state),
    } for _ in range(size)]
    return draw(HEADERS), rows, {"runs": _deep(rows, draw(st.integers(0, 3)))}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(special_runs())
def test_special_floats_in_same_key_runs_match_both_dumpers(drawn):
    header, rows, report = drawn
    check_arrays(report)
    check_complex(report)
    check_stack(header, rows)


def test_identity_fixed_point_report_matches_both_dumpers(tmp_path):
    # the identity's report holds integral floats in every array: its
    # unitary's 1.0 and 0.0 entries and its max-entropy fixed point's
    # zeros
    path = tmp_path / "identity.yaml"
    path.write_text(yaml.safe_dump({
        "unitary": np.eye(16).tolist(),
        "rho_cr": [[[0.75, 0], [0, 0]], [[0, 0], [0.25, 0]]],
        "policy": "max_entropy",
    }))
    args = cli._parser().parse_args(["fixed-point", str(path)])
    header, runs, ok = args.func(args)
    assert ok
    header = {"command": "fixed-point", **header}
    assert "1.0, 0.0" in "".join(cli._yaml_pieces(header, runs))
    check_stack(header, run_rows(runs))
    report = {**header, "runs": run_rows(runs)}
    check_arrays(report)
    check_complex(report)


# ---------------------------------------------------------------------------
# config reader

DOCUMENTS = [
    # YAML 1.1 numbers
    "a: 0", "a: -0", "a: +12", "a: 010", "a: 0o10", "a: 0x1F", "a: 0b101",
    "a: 1_000", "a: 1:30", "a: 1.5", "a: -0.0", "a: 1.", "a: .5", "a: -.5",
    "a: 1e5", "a: 1.0e5", "a: 1.0e+5", "a: 6.8523015e+5", "a: 685.230_15e+03",
    "a: 190:20:30.15", "a: .inf", "a: -.Inf", "a: .NaN", "a: 00.5",
    "a: 123456789012345678901234567890", "a: 1.7976931348623157e+309",
    # bools, nulls and strings
    "a: yes", "a: No", "a: on", "a: OFF", "a: true", "a: y", "a: ~",
    "a: null", "a:", "a: ''", "a: '1.5'", 'a: "1"', "a: hello world",
    "a: |\n  block\n", "a: >\n  folded\n  text\n", "a: '2001-12-14'",
    "a: 2001-12-14", "a: 2001-12-14t21:59:43.10-05:00",
    # keys, duplicates and layout
    "1: a\nyes: b\n~: c\n1.5: d\n", "a: 1\na: 2\n", "a: {b: 1}\na: 3\n",
    "a:\n- [1, 2]\n- {x: [3, 4.5]}\n", "[1, [2, [3, 4]]]", "hello", "",
    "# only a comment\n", "---\na: 1\n...\n", "%YAML 1.1\n---\na: 1\n",
    # JSON configs
    '{"state_set": [[[1, 0], [0, 0]], [[0.5, -0.25], [1e-3, 0]]], '
    '"alpha": 1, "rng_seed": 0}',
    # delegated to yaml.load
    "a: &x [1, 2]\nb: *x\n", "base: &b {x: 1}\nd:\n  <<: *b\n  y: 2\n",
    "a: !!str 1\nb: !!float 2\n", "? [1, 2]\n: 3\n", "{[1, 2]: 3}",
    "a: =\n", "=: 1\n", "a: 2001-02-30\n", "a: 1\n---\nb: 2\n",
    "a: *undefined\n", "a: !!int foo\n", "a: !!binary aGVsbG8=\n",
    # numeric rows: numbers json.loads reads but YAML 1.1 does not, or
    # the reverse, and huge ints
    "a: [1e5, 2]\n", "a: [1.5e5]\n", "- [1.0E+5, -2.5e-3]\n", "a: [-0, 0]\n",
    "a: [01, 2]\n", "a: [+1]\n", "a: [1.]\n", "a: [.5]\n", "a: [1, 2,]\n",
    "a: [123456789012345678901234567890, -0.0, [5e-324]]\n",
    "a: [1, " + "9" * 4301 + "]\n", "- [" + "1" * 4300 + "]\n",
    # rows whose placeholder does not come back whole, or never is one
    "a: |\n  - [1, 2]\n", "a: x\n  - [1, 2]\n", "a: 'x\n  - [1, 2]\n  y'\n",
    "a: [1, 2]\n  b\n", "a: [1, 2] # note\n", "a: [1, 2]\r\nb: [3]\r\n",
    "a: {b: 1,\n  c: [1, 2]\n  }\n", "a: [\n  - [1, 2]\n  ]\n",
    "a: &x [1.5, 2]\nb: [3, 4]\nc: *x\n", "a: !!seq [1, 2]\n",
    "- &r [1]\n- *r\n",
    # rows read in bulk
    "a: [1]\na: [2, 3]\n", "a: [1]\n---\nb: [2]\n", "yes: [1]\nNo: [2]\n",
    "- [1, 2]\n- - [3, 4]\n  - [5, 6]\n- k: [7.5]\n- - - []\n",
    "a:\n  - [[1, 0], [0, 1]]\n  - [ ]\nb:   [1,2]   \n", "[1, 2]\n",
    "a: [1, 2]\nb:\n  c: [[0.5, -0.25]]\n  d: yes\n",
    # rows under anchors, aliases, tags, merge keys and non-scalar keys
    "a: &x\n  - [1, 2]\nb: *x\n", "base: &b\n  r: [1, 2]\nd:\n  <<: *b\n  y: [3.5]\n",
    "a: !!seq\n  - [1, 2]\n", "? - [1, 2]\n: 3\n", "a: [1, 2]\nb: =\n",
    # strings equal to the placeholder
    "name: x,\na: [1, 2]\nb: x,\n",
    # rows in flow mappings, as in JSON configs, and strings equal to
    # their placeholder
    '{"a": [1, 2.5], "b": [[1, 0], [0, -0.0]], "c": 3}',
    '{"a": [1, 2], "a": [3]}', "{a: [1, 2], b: {c: [3.5], d: x_}, e: 'x_'}\n",
    "a: {b: [1, 2], c: [[3]]}\nd: [{e: [4]}]\n", '[{"a": [1, 2]}, {"b": [3]}]',
    '{"a": [1e5, 2], "b": [1.5e+5], "c": [01], "d": [.5]}',
    '{"a": [1, 2] , "b":[3]}', '{"a": [1, 2]\n, "b": [3]}',
    '{"a b": [1], "\\"": [2], "": [3]}',
    # rows that look like flow-mapping values and are not
    'x, "a": [1, 2], y\n', "a, b: [1, 2], c\n", "a, b: [1, 2]}\n",
    "a: 'q, \"b\": [1, 2], c'\n", "a: \"{b: [1, 2]}\"\n",
    "{a: [1, 2], b: [3}\n",
]


def _typed(obj):
    """Values and their exact types, nested; nan compares equal to nan."""
    if isinstance(obj, dict):
        return ("dict", [(_typed(k), _typed(v)) for k, v in obj.items()])
    if isinstance(obj, list):
        return ("list", [_typed(x) for x in obj])
    return (type(obj).__name__, repr(obj))


def _outcome(read, text):
    try:
        return _typed(read(text))
    except Exception as exc:  # noqa: BLE001 - the outcome is compared
        return (type(exc).__name__, str(exc))


@pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("text", DOCUMENTS)
def test_reader_matches_yaml_load(monkeypatch, loader, text):
    monkeypatch.setattr(cli, "_Loader", loader)
    expected = _outcome(lambda t: yaml.load(t, Loader=loader), text)
    assert _outcome(cli._read_config, text) == expected


@pytest.mark.parametrize("text", [
    "a: 1\n", "a: [1, 2.5]\n", "a: {b: -0.0}\n", "- 1\n", "a: yes\n",
    "name: x,\na: [1, 2]\nb: x,\n",
    '{"a": [1, 2.5], "b": [[1, 0]], "c": "x_"}',
])
def test_reader_takes_no_second_path(monkeypatch, text):
    loads = _spy_loads(monkeypatch, cli._Loader)
    monkeypatch.setattr(yaml, "load", None)
    cli._read_config(text)
    assert len(loads) == 1


MALFORMED = [
    "state_set:\n  - [[1, 0], [0, 0]\nalpha: 1\n",
    "a: [1, 2\n",
    "a: {b: 1\n",
    "a: 'unterminated\n",
    "a:\n  - 1\n b: 2\n",
    "\tbad: tab\n",
    "a: b: c\n",
    "- 1\n- 2\nx: 3\n",
    "{a: 1}}\n",
    "a: *undefined\n",
    "a: 1\n---\nb: 2\n",
    "a: =\n",
    "a: &x [1, 2\n",
    "state_set: [[1, 0], [0, 1]]\nalpha: [1, 0\n",
    # numeric rows before, around and after the error
    "state_set:\n  - [[1, 0], [0, 0]]\n  - [[0, 0], [1, 0]\nalpha: [1, 0]\n",
    "a: [1, 2]\nb: [3, 4]\n c: [5]\n",
    "a: [1, 2]\n  b\n",
    "a: [1, 2]\n- [3]\n",
    "- [1, 2]\n- [3, 4]\nx: [5]\n",
    "a: [1]\n---\nb: [2]\n",
    "a: |\n  - [1, 2]\n b: [3]\n",
    "a: [1, 2]\nb: {c: [3]\n",
]


def _parent_message(text):
    """The ConfigError text of a load through ``yaml.load`` alone."""
    try:
        yaml.load(text, Loader=cli._Loader)
    except yaml.YAMLError as exc:
        mark = exc.problem_mark
        return (f"parse failure at line {mark.line + 1}, column "
                f"{mark.column + 1}: {exc.problem}")
    raise AssertionError("document parsed")


def _spy_loads(monkeypatch, loader):
    """The text of each load `cli._read_config` makes through `loader`."""
    loads = []

    class Spy(loader):
        def __init__(self, stream):
            loads.append(stream)
            super().__init__(stream)

    monkeypatch.setattr(cli, "_Loader", Spy)
    return loads


def _haar_pairs(rng, shape):
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


def _rows(matrix):
    """Rows of [re, im] pairs with every digit, as configs are written."""
    return "".join(
        "  - [" + ", ".join(f"[{z.real!r}, {z.imag!r}]" for z in row) + "]\n"
        for row in matrix.tolist())


DEMO_CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"


def _skeleton(text):
    """`text` with each flow sequence that ends a line replaced by `x,`."""
    return re.sub(r"\[.*\](?= *$)", "x,", text, flags=re.MULTILINE)


def _benchmark_shaped_configs():
    rng = np.random.default_rng(3)
    states = _rows(_haar_pairs(rng, (6, 6)))
    u, _ = np.linalg.qr(_haar_pairs(rng, (8, 8)))
    yield ("state_set:\n" + states + "alpha: [0.6, -0.25]\nbeta: [-1.5, 0.0]\n"
           "rng_seed: 7\n")
    yield "state_set:\n" + states + "rng_seed: 0\n"
    yield ("policy: max_entropy\nunitary:\n" + _rows(u)
           + "rho_cr:\n" + _rows(np.diag([0.25 + 0j, 0.75])))
    for path in sorted(DEMO_CONFIGS.glob("*.yaml")):
        yield path.read_text(encoding="utf-8")


@pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
def test_benchmark_shaped_configs_take_the_masked_parse(monkeypatch, loader):
    texts = list(_benchmark_shaped_configs())
    assert len(texts) == 6
    expected = [_typed(yaml.load(text, Loader=loader)) for text in texts]
    loads = _spy_loads(monkeypatch, loader)
    monkeypatch.setattr(yaml, "load", None)
    for text, value in zip(texts, expected):
        loads.clear()
        assert _typed(cli._read_config(text)) == value
        # one load, of the skeleton, which spliced every row
        assert loads == [cli._mask_rows(text)[0]] and loads[0] != text
        assert loads[0] == _skeleton(text)


@pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
def test_json_configs_take_the_masked_parse(monkeypatch, loader):
    # the same configs written as JSON, on one line, as CI writes them
    texts = [json.dumps(yaml.safe_load(text))
             for text in _benchmark_shaped_configs()]
    expected = [_typed(yaml.load(text, Loader=loader)) for text in texts]
    loads = _spy_loads(monkeypatch, loader)
    monkeypatch.setattr(yaml, "load", None)
    for text, value in zip(texts, expected):
        loads.clear()
        assert _typed(cli._read_config(text)) == value
        # one load, of the skeleton, which spliced every array
        assert loads == [cli._mask_rows(text)[0]]
        assert "[" not in loads[0] and "x_" in loads[0]


@pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
def test_bom_configs_take_the_masked_parse(monkeypatch, tmp_path, loader):
    # libyaml's marks do not count a byte-order mark
    texts = list(_benchmark_shaped_configs())
    expected = [_typed(yaml.load(text, Loader=loader)) for text in texts]
    path = tmp_path / "bom.yaml"
    loads = _spy_loads(monkeypatch, loader)
    monkeypatch.setattr(yaml, "load", None)
    for text, value in zip(texts, expected):
        path.write_text("\ufeff" + text, encoding="utf-8")
        loads.clear()
        assert _typed(cli._load_config(str(path))) == value
        assert loads == [cli._mask_rows(text)[0]] and loads[0] != text
        assert loads[0] == _skeleton(text)


@pytest.mark.parametrize("text", [
    "a: |\n  - [1, 2]\n", "a: x\n  - [1, 2]\n", "a: 'x\n  - [1, 2]\n  y'\n",
    "a: {b: 1,\n  c: [1, 2]\n  }\n", "a: [\n  - [1, 2]\n  ]\n",
    "a: [1, 2]\nb: {c: 1,\n  d: [3, 4]\n  }\n",
])
def test_rows_not_spliced_are_read_again(monkeypatch, text):
    # rows inside block scalars, multi-line scalars and flow collections
    expected = _outcome(lambda t: yaml.load(t, Loader=cli._Loader), text)
    loads = _spy_loads(monkeypatch, cli._Loader)
    assert _outcome(cli._read_config, text) == expected
    # a masked load, then the plain one
    assert loads == [cli._mask_rows(text)[0], text] and loads[0] != text


# the per-token rule the reader once applied to a row with an exponent:
# YAML 1.1 reads every number of the row as a decimal int or float
_DECIMAL = re.compile(r"[-+]?(?:0|[1-9][0-9]*|[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?)")


def _every_token_decimal(row):
    return all(map(_DECIMAL.fullmatch, re.findall(r"[^][, ]+", row)))


JSON_NUMBERS = st.builds(
    "".join,
    st.tuples(st.sampled_from(["", "-"]),
              st.from_regex(r"0|[1-9][0-9]{0,3}", fullmatch=True),
              st.just("") | st.from_regex(r"\.[0-9]{1,3}", fullmatch=True),
              st.just("") | st.from_regex(r"[eE][-+]?[0-9]{1,3}", fullmatch=True)))
JSON_ROWS = st.lists(
    st.recursive(JSON_NUMBERS,
                 lambda c: st.lists(c, max_size=3).map(
                     lambda xs: "[" + ", ".join(xs) + "]"),
                 max_leaves=8),
    max_size=4).map(lambda xs: "[" + ", ".join(xs) + "]")


@settings(max_examples=500, deadline=None, derandomize=True)
@given(JSON_ROWS)
def test_rows_are_masked_exactly_when_yaml_reads_decimals(row):
    masked, rows = cli._mask_rows(f"a: {row}\n")
    if _every_token_decimal(row):
        assert (masked, rows) == ("a: x,\n", {3: json.loads(row)})
    else:
        assert (masked, rows) == (f"a: {row}\n", {})


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_config_errors_are_unchanged(tmp_path, text):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(cli.ConfigError) as err:
        cli._load_config(str(path))
    assert str(err.value) == _parent_message(text)
    assert re.match(r"parse failure at line \d+, column \d+: ", str(err.value))


@pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("text", MALFORMED)
def test_bom_malformed_config_errors_are_unchanged(monkeypatch, tmp_path,
                                                  loader, text):
    monkeypatch.setattr(cli, "_Loader", loader)
    path = tmp_path / "bad.yaml"
    path.write_text("\ufeff" + text, encoding="utf-8")
    with pytest.raises(cli.ConfigError) as err:
        cli._load_config(str(path))
    assert str(err.value) == _parent_message("\ufeff" + text)


# ---------------------------------------------------------------------------
# numeric parsing


def _walk_complex(node, where):
    """The reading of one number, bare or [re, im], as the test oracle."""
    if isinstance(node, bool):
        raise cli.ConfigError(f"{where}: expected a number or [re, im] pair")
    if isinstance(node, (int, float)):
        parts = (node,)
    elif (isinstance(node, list) and len(node) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                    for x in node)):
        parts = node
    else:
        raise cli.ConfigError(f"{where}: expected a number or [re, im] pair")
    try:
        return complex(*parts)
    except OverflowError:
        raise cli.ConfigError(f"{where}: number beyond float range") from None


def _walk_vector(node, where):
    """The per-entry reading of a vector node, as the test oracle."""
    if not isinstance(node, list) or not node:
        raise cli.ConfigError(f"{where}: expected a nonempty list of amplitudes")
    return np.array([_walk_complex(x, f"{where}[{k}]")
                     for k, x in enumerate(node)], dtype=complex)


def _walk_matrix(node, where):
    if not isinstance(node, list) or not node:
        raise cli.ConfigError(f"{where}: expected a nonempty list of rows")
    rows = [_walk_vector(row, f"{where}[{k}]") for k, row in enumerate(node)]
    if any(r.size != rows[0].size for r in rows):
        raise cli.ConfigError(f"{where}: rows have unequal lengths")
    return np.array(rows, dtype=complex)


# the oracle of cli._parse_array at depths 0, 1 and 2
WALKS = (_walk_complex, _walk_vector, _walk_matrix)


def _parsed(parse, node, *depth):
    try:
        value = parse(node, "x", *depth)
    except cli.ConfigError as exc:
        return ("ConfigError", str(exc))
    arr = np.asarray(value)
    # compare bit patterns, so -0.0 and nan count
    return (type(value).__name__, arr.dtype.str, arr.shape, arr.tobytes())


LEAVES = (st.floats() | st.integers(-2**70, 2**70) | st.booleans()
          | st.none() | st.sampled_from(["1.5", "x", -0.0])
          | st.integers(2**1024, 2**1100) | st.integers(-2**1100, -2**1024))
NODES = st.recursive(LEAVES, lambda c: st.lists(c, max_size=4), max_leaves=20)
REGULAR = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.floats() | st.integers(-9, 9), min_size=n, max_size=n)
    | st.floats(), min_size=1, max_size=4))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(NODES | REGULAR | st.lists(REGULAR, min_size=1, max_size=3))
def test_numeric_parse_matches_entry_walk(node):
    for depth, walk in enumerate(WALKS):
        assert _parsed(cli._parse_array, node, depth) == _parsed(walk, node)


@pytest.mark.parametrize("node", [
    [1, 0.5], [[1, 0], [0, -0.0]], [[1, 0], 2], [True, 1.0], [[1, True]],
    [[1, 0], [0, 1, 2]], ["1.5", 0], [None], [[]], [[1, 0, 0]],
    [[[1, 0], [0, 1]], [[0, 0], [1, 0]]], [[[1, 0]], [1]], [[1, 2], [[0, 1], 3]],
    [[[1, 0, 0]]], [[[[1, 0]]]], [10**400], 2.5, True, [1, 2, 3],
], ids=str)
def test_numeric_parse_cases(node):
    for depth, walk in enumerate(WALKS):
        assert _parsed(cli._parse_array, node, depth) == _parsed(walk, node)


@pytest.mark.parametrize("node, depth, where", [
    (10**400, 0, "x"), ([0, -10**400], 0, "x"), ([10**400], 1, "x[0]"),
    ([1, [2, 10**400]], 1, "x[1]"), ([[1, 0], [0, 10**400]], 2, "x[1][1]"),
    ([[[1, 0], [-10**400, 0]]], 2, "x[0][1]"),
], ids=["number", "pair", "vector", "vector-pair", "matrix", "matrix-pair"])
def test_numbers_beyond_float_range_are_config_errors(node, depth, where):
    with pytest.raises(cli.ConfigError) as err:
        cli._parse_array(node, "x", depth)
    assert str(err.value) == f"{where}: number beyond float range"


# ---------------------------------------------------------------------------
# nesting depth


def _nested(kind, levels):
    """A mapping around `levels` - 1 nested sequences: `levels` in all."""
    n = levels - 1
    if kind == "flow":
        return "a: " + "[" * n + "1" + "]" * n + "\n"
    return "a:\n" + "- " * n + "1\n"


# PyYAML's pure-Python composer raises RecursionError from about 500 levels
@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="needs libyaml")
@pytest.mark.parametrize("kind", ["flow", "block"])
def test_nesting_beyond_the_limit_is_a_config_error(monkeypatch, kind):
    assert list(cli._read_config(_nested(kind, cli._MAX_DEPTH))) == ["a"]
    loads = _spy_loads(monkeypatch, cli._Loader)
    monkeypatch.setattr(yaml, "load", None)
    with pytest.raises(cli.ConfigError) as err:
        cli._read_config(_nested(kind, cli._MAX_DEPTH + 1))
    assert str(err.value) == f"nesting deeper than {cli._MAX_DEPTH} levels"
    # one pass over the parser's events, no load
    assert len(loads) == 1


@pytest.mark.parametrize("text", [
    'name: "' + "[{-:?" * 300 + '"\n',
    "name: '" + "[" * 2000 + "'\n",
    "a: |\n" + "  " + "- " * 2000 + "\n",
    "# " + "[" * 2000 + "\na: [1, 2]\n",
])
def test_nesting_marks_inside_scalars_and_comments_load(text):
    assert _outcome(cli._read_config, text) == _outcome(
        lambda t: yaml.load(t, Loader=cli._Loader), text)


def test_nesting_too_deep_for_the_pure_python_loader_is_a_config_error(
        monkeypatch, tmp_path):
    # its composer recurses about two frames a level, below _MAX_DEPTH
    monkeypatch.setattr(cli, "_Loader", yaml.SafeLoader)
    path = tmp_path / "deep.yaml"
    path.write_text(_nested("block", 600))
    with pytest.raises(cli.ConfigError) as err:
        cli._load_config(str(path))
    assert str(err.value) == "nesting too deep to load"


def test_malformed_config_with_many_marks_keeps_its_error(tmp_path):
    text = "a: [" + "-1, " * 1200 + "\nb: 2\n"
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(cli.ConfigError) as err:
        cli._load_config(str(path))
    assert str(err.value) == _parent_message(text)
