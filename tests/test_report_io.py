"""The report writer and the config reader against PyYAML as oracle.

`cli._yaml_pieces` must print what ``yaml.dump`` prints with libyaml's
emitter for every kind of value a command hands it, `cli._json_lines`
what ``conftest.json_lines`` prints for the header and each run, and
both must raise
TypeError for any other; `cli._read_config` must return what
``yaml.load`` returns, under libyaml's parser and under PyYAML's
pure-Python one.
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

from conftest import ReportDumper, as_lists, json_lines, run_rows
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
# report writer

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
SCALARS = FLOATS | st.integers() | st.booleans() | NAMES | STAMPS
COMPLEXES = st.builds(complex, FLOATS, FLOATS)
# report arrays: the shapes commands print, with integral floats among
# the entries; rows of up to 12 entries of up to 24 characters cross
# column 80
ARRAY_FLOATS = FLOATS | st.integers(-2**60, 2**60).map(float)
ARRAY_SHAPES = (st.tuples(st.integers(1, 12))
                | st.tuples(st.integers(1, 6), st.just(2))
                | st.tuples(st.integers(1, 4), st.integers(1, 12))
                | st.tuples(st.integers(1, 3), st.integers(1, 4), st.just(2)))
ARRAYS = hnp.arrays(np.float64, ARRAY_SHAPES, elements=ARRAY_FLOATS)
COMPLEX_ARRAYS = hnp.arrays(np.complex128, ARRAY_SHAPES, elements=COMPLEXES)
# a run's arrays: a sweep's pairs and states, an example's blocks
RUN_SHAPES = st.sampled_from([(3,), (4, 2), (2, 3), (2, 2, 2), (12,), (3, 12)])
EXACT_INTS = st.integers(-2**53, 2**53)


def dump(report, dumper):
    return yaml.dump(report, Dumper=dumper, sort_keys=False,
                     default_flow_style=None)


def _finite(obj):
    if isinstance(obj, dict):
        return all(map(_finite, obj.values()))
    if isinstance(obj, list):
        return all(map(_finite, obj))
    return not isinstance(obj, float) or math.isfinite(obj)


def _other_form(runs):
    """`runs` with each array column as a list of its rows, and each list
    of arrays of one shape and dtype as one array."""
    other = {}
    for key, column in runs.items():
        if isinstance(column, np.ndarray):
            column = list(column)
        elif (all(isinstance(v, np.ndarray) for v in column)
              and len({(v.shape, v.dtype) for v in column}) == 1):
            column = np.stack(column)
        other[key] = column
    return other


def check_report(header, runs):
    """`_yaml_pieces(header, runs)` and `_json_lines(header, runs)`, with
    each column given as a list and as one array where it holds arrays:
    the YAML against both dumpers of the report it stands for, and the
    JSON lines against :func:`json_lines`, the header's line and then a
    line a run, and, where every number is finite, as ``json.loads``
    reads them."""
    rows = run_rows(runs)
    report = as_lists({**header, "runs": rows})
    objects = [as_lists(obj) for obj in [header, *rows]]
    lines = json_lines(header, rows)
    for columns in (runs, _other_form(runs)):
        text = "".join(cli._yaml_pieces(header, columns))
        assert text == dump(report, ReportDumper)
        assert list(cli._json_lines(header, columns)) == lines
        # PyYAML's Python emitter single-quotes a tagged scalar, `!!float
        # 'inf'` where libyaml writes `!!float inf`, which also moves its
        # line breaks
        if "!!float" not in text:
            assert text == dump(report, _Pure)
    for line, obj in zip(lines, objects):
        if _finite(obj):
            # an int array's entries come back as ints, not as floats
            assert _typed(json.loads(line)) == _typed(obj)


def check_rejected(header, runs):
    # the call alone raises, its iterator never taken: both templates of
    # either format are compiled before the first piece, so main writes
    # no byte of a rejected report
    with pytest.raises(TypeError):
        cli._yaml_pieces(header, runs)
    with pytest.raises(TypeError):
        cli._json_lines(header, runs)


@st.composite
def reports(draw, header_values, kinds, block=False):
    """A header of `header_values` and runs whose columns are of `kinds`:
    ``int``, ``float``, ``bool`` or ``name`` lists, or ``floats``,
    ``complexes`` or ``ints`` stacks; with `block` the
    first column is a stack, so every run is a block mapping."""
    header = draw(st.dictionaries(KEYS.filter(lambda key: key != "runs"),
                                  header_values, max_size=5))
    size = draw(st.integers(1, 5))
    keys = draw(st.lists(KEYS, min_size=1, max_size=5, unique=True))
    runs = {}
    for k, key in enumerate(keys):
        kind = draw(st.sampled_from(
            ["floats", "complexes", "ints"] if block and not k else kinds))
        if kind in ("floats", "complexes", "ints"):
            dtype, elements = {"floats": (np.float64, ARRAY_FLOATS),
                               "complexes": (np.complex128, COMPLEXES),
                               "ints": (np.int64, EXACT_INTS)}[kind]
            shape = (size,) + draw(RUN_SHAPES)
            runs[key] = draw(hnp.arrays(dtype, shape, elements=elements))
        else:
            value = {"int": st.integers(), "float": FLOATS,
                     "bool": st.booleans(), "name": NAMES | STAMPS}[kind]
            runs[key] = draw(st.lists(value, min_size=size, max_size=size))
    return header, runs


RUN_KINDS = ["int", "float", "bool", "name", "floats", "complexes", "ints"]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(reports(SCALARS | COMPLEXES | ARRAYS | COMPLEX_ARRAYS, RUN_KINDS))
def test_emitter_matches_both_dumpers(drawn):
    check_report(*drawn)


PAIRS_4x3 = np.arange(24.0).reshape(4, 3, 2) / 7
ROW_OF_12 = -np.arange(1, 13) / 3
COMPLEX_4x3 = (np.arange(12.0) - 5.5j * np.arange(12.0)[::-1]).reshape(4, 3) / 7
# a complex value every run would hold, as a sweep's alpha: a header value
SHARED_Z = 0.5 - 1j
# a run of a distinguish report, at the width of a two-digit index
FLOW_RUN = {"input_index": [0, 11], "decoded": [0, 11],
            "residual": [2.2204460492503131e-16, 0.0], "unique": [True, False],
            "fidelity_to_basis": [0.99999999999999978, 1.0]}


@pytest.mark.parametrize("header, runs", [
    ({"row": np.full(9, 0.12345678901234566)},
     {"residuals": np.full((2, 9), 0.12345678901234566)}),
    ({"seed": 0}, {"key": np.tile([-0.12345678901234566, 1e-300], (1, 4, 1))}),
    ({"k" * 78: np.array([1.0, 2.0]), "l" * 78: np.array([1.0]),
      "m" * 77: 1 + 1j, "n" * 79: np.array([[0.5]])},
     {"k" * 78: np.array([[1.0, 2.0]])}),
    ({"deep": np.tile([0.5, -0.0], (2, 5, 1, 1))},
     {"deep": np.tile([0.5, -0.0], (1, 2, 5, 1, 1))}),
    ({"command": "distinguish", "seed": 0},
     {**FLOW_RUN, "note": ["max_entropy", "yes"],
      "when": ["2000-01-01T00:00:00Z"] * 2}),
    # a header with no entry
    ({}, {"flags": [True, False]}),
    ({"tagged": np.array([math.inf, -math.inf, math.nan, 1e22, -1e300, 5e-324]),
      "alpha": complex(math.inf, math.nan)},
     {"residual": [math.inf, math.nan, 1e22], "unique": [True] * 3}),
    # runs of scalars are flow mappings
    ({"seed": 0}, {"k" * 78: [0.0], "A": [0.0]}),
    ({"seed": 0}, {"yes" + "k" * 70: [0.0], "A": [0.0]}),
], ids=["wrapped-row", "wrapped-pairs", "first-item-wrap", "nested-blocks",
        "flow-mapping", "empty-collections", "non-finite-and-tagged",
        "root-flow-wraps", "root-flow-fits"])
def test_emitter_matches_dumper_on_shapes(header, runs):
    check_report(header, runs)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(reports(SCALARS | ARRAYS, ["float", "int", "floats", "ints"]))
def test_array_reports_match_both_dumpers(drawn):
    check_report(*drawn)


@pytest.mark.parametrize("header, runs", [
    ({"policy": "require_unique", "unitary": PAIRS_4x3, "rho_cr": np.eye(2)},
     {"fixed_point": COMPLEX_4x3[None, :3, :3], "residual": [1e-17],
      "fixed_space_dim": [1], "unique": [True], "entropy_nats": [0.0]}),
    ({"seed": 3}, {"ancilla": PAIRS_4x3[None, 0],
                   "overlaps": np.outer(ROW_OF_12, ROW_OF_12)[None]}),
    ({"state_set": PAIRS_4x3[:2], "row": ROW_OF_12},
     {"m": [0, 1], "n": [1, 0], "decoded_indices": np.array([[0, 1], [1, 0]])}),
    ({"k" * 78: ROW_OF_12, "l" * 76: np.ones((2, 2)), "m" * 90: PAIRS_4x3},
     {"k" * 78: ROW_OF_12[None], "m" * 90: PAIRS_4x3[None]}),
    # keys of 100 characters put every first item past column 80
    ({"p" * 100: ROW_OF_12},
     {"p" * 100: np.stack([ROW_OF_12, -ROW_OF_12]), "q" * 99: np.ones((2, 3, 2))}),
    ({"four": PAIRS_4x3.reshape(2, 2, 3, 2), "column": np.ones((3, 1))},
     {"four": PAIRS_4x3.reshape(1, 2, 2, 3, 2)}),
    ({"special": np.array([[math.inf, -math.inf], [math.nan, 1e22],
                           [-0.0, 5e-324], [1e308, 2.0**53]])},
     {"special": np.array([[math.nan, 1e-306], [-1e16, 2.0**60]])[None]}),
    # int arrays, up to 2**53, and rows of them that wrap
    ({"ints": np.arange(3), "bounds": np.array([-2**53, 2**53]),
      "small": np.arange(3, dtype=np.uint8)},
     {"decoded": np.arange(6).reshape(3, 2), "wide": np.full((3, 2, 13), 2**53)}),
    # rows of three 24-character floats: 76 characters fit after "- [" at
    # column 0, in the header, not at column 2, in a run
    ({"a": np.full((2, 3), -2.2250738585072014e-308)},
     {"b": np.full((2, 2, 3), 1.2345678901234567e-300),
      "c": np.full((2, 2, 3), -2.2250738585072014e-308)}),
], ids=["fixed-point", "sweep-run", "state-set", "long-keys", "past-column-80",
        "four-axes", "tagged", "other-arrays", "longest-rows-in-sequences"])
def test_array_reports_match_dumper_on_shapes(header, runs):
    check_report(header, runs)


def _row_before_last(chars):
    """Floats whose flow row up to its last item takes `chars` characters."""
    # with its ", ", 0.5 takes 5 characters and 10.5 takes 6
    sixes = chars % 5
    return [0.5] * ((chars - 6 * sixes) // 5) + [10.5] * sixes + [0.5]


@pytest.mark.parametrize("chars", range(66, 84))
def test_array_rows_at_the_wrap_column(chars):
    # the last comma of these rows lands on either side of column 80, in
    # the header and, two columns further in, in a run
    row = _row_before_last(chars)
    check_report({"a": np.array(row), "b": np.array([row, row[::-1]])},
                 {"a": np.array([row]), "c": np.array([[[row], [row]]])})


ZERO_AXIS = np.array(0.5)
ONE_RUN = {"m": [0]}


@pytest.mark.parametrize("header, runs", [
    ({"a": (1.0, 2.0)}, ONE_RUN),
    ({"a": "two words"}, ONE_RUN),
    ({"a": "x: y"}, ONE_RUN),
    ({"a": b"bytes"}, ONE_RUN),
    ({1: "int key"}, ONE_RUN),
    ([1.0], ONE_RUN),
    ({"a": np.array(1.5)}, ONE_RUN),
    ({}, {"a": [np.ones(2)] * 2, "b": [np.array(1.5), np.array(2.5)]}),
    ({}, {"a": [np.ones(2)] * 2, "b": [ZERO_AXIS, ZERO_AXIS]}),
    ({}, {"a": [np.ones(2)] * 2, "b": [1.5, np.array(2.5)]}),
    ({}, {"a": [np.ones(2), np.ones(3)]}),
    ({}, {"a": [np.ones(2), np.ones(2, complex)]}),
    ({}, {"a": [np.ones(2), np.ones(2, np.int64)]}),
    # a complex value, which is a header value only, one object in every
    # run or not, in flow or block runs
    ({}, {"a": [1.5j, complex(0, 1.5)]}),
    ({}, {"a": [0.5, 1j]}),
    ({}, {1: [0.5]}),
    ({"alpha": SHARED_Z}, {"alpha": [SHARED_Z] * 3, "m": [0, 1, 2]}),
    ({}, {"a": [PAIRS_4x3], "b": [1 + 2j]}),
    ({}, {"state": COMPLEX_4x3[:2], "alpha": [SHARED_Z] * 2}),
], ids=["tuple", "spaced-string", "colon-string", "bytes", "int-key",
        "list-root", "zero-axis-array", "zero-axis-array-in-runs",
        "shared-zero-axis-array-in-runs", "zero-axis-array-in-one-run",
        "shapes-differ", "dtypes-differ", "float-and-int-arrays",
        "complex-per-run", "complex-after-float", "int-key-in-runs",
        "complex-shared", "complex-in-one-run", "complex-shared-in-blocks"])
def test_emitter_rejects_other_shapes(header, runs):
    check_rejected(header, runs)


# kinds no command hands the writer, and that it no longer writes
@pytest.mark.parametrize("value", [
    [1.0, 2.0], (1.0, 2.0), {"b": 1.0}, None, b"bytes",
    np.zeros(0), np.zeros((2, 0), complex), np.array(0.5), np.array(0.25 - 1j),
    np.array([True, False]), np.array([0, 2**53 + 1]), np.array([-2**53 - 1]),
    np.array([1.0, "x"], dtype=object),
], ids=["list", "tuple", "mapping", "none", "bytes", "empty", "empty-rows",
        "zero-axis", "complex-zero-axis", "bools", "int-beyond-2**53",
        "int-below--2**53", "objects"])
def test_removed_kinds_are_rejected_by_both_writers(value):
    check_rejected({"a": value}, ONE_RUN)
    check_rejected({}, {"a": [value, value]})


# complex values: written as their [re, im] pairs, the form `as_lists`
# gives them, in YAML and in JSON
WIDE_Z = 0.12345678901234566 - 0.98765432109876543j
COMPLEX_CASES = {
    "scalars": ({"alpha": 0.6 - 0.8j, "beta": np.complex128(1j), "one": complex(1, 0)},
                {"m": [0, 1, 2]}),
    "signed-zeros": ({"zeros": complex(-0.0, 0.0), "neg": complex(0.0, -0.0),
                      "both": complex(-0.0, -0.0)},
                     {"i": [0, 1]}),
    "non-finite-and-tagged": (
        {"inf": complex(math.inf, -math.inf), "nan": complex(math.nan, 1e22),
         "tiny": complex(5e-324, -1e308), "z": complex(math.nan, math.inf)},
        {"state": np.array([[complex(math.inf, 1e-306)], [complex(-0.0, 1e17)]])}),
    "vectors": ({"vector": COMPLEX_4x3[0], "row": COMPLEX_4x3.ravel()},
                {"vector": COMPLEX_4x3}),
    "matrices": ({"matrix": COMPLEX_4x3, "cube": COMPLEX_4x3.reshape(2, 2, 3)},
                 {"matrix": COMPLEX_4x3.reshape(2, 2, 3)}),
    "non-contiguous": ({"transposed": COMPLEX_4x3.T, "strided": COMPLEX_4x3[::2, ::-1],
                        "real_part": COMPLEX_4x3.real},
                       {"strided": COMPLEX_4x3.T[::2], "real": COMPLEX_4x3.real[::-2]}),
    # runs given as lists of arrays
    "in-lists": ({"state_set": COMPLEX_4x3[:2], "alpha": SHARED_Z},
                 {"state": [COMPLEX_4x3[0], COMPLEX_4x3[1]]}),
    # complex header values before runs that are block mappings
    "in-mappings": ({"z": complex(-0.0, math.inf), "alpha": 0.5j},
                    {"state": COMPLEX_4x3[:2], "residual": [1e-17, 0.0]}),
    "past-column-80": ({"k" * 78: 1 + 1j, "l" * 76: COMPLEX_4x3[:2],
                        "wide": np.full(8, WIDE_Z)},
                       {"wide": np.full((2, 8), WIDE_Z)}),
    "empty-and-0-d": ({"empty": np.zeros(0, complex),
                       "empty_rows": np.zeros((2, 0), complex),
                       "zero_axis": np.array(0.25 - 1j)}, ONE_RUN),
}


@pytest.mark.parametrize("case", COMPLEX_CASES)
def test_complex_values_are_written_as_pairs(case):
    header, runs = COMPLEX_CASES[case]
    if case == "empty-and-0-d":
        # empty and 0-d arrays are no command's values
        for key, value in header.items():
            check_rejected({key: value}, runs)
        return
    check_report(header, runs)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(reports(SCALARS | COMPLEXES | COMPLEX_ARRAYS, ["float", "complexes"]))
def test_complex_reports_match_both_dumpers(drawn):
    check_report(*drawn)


# runs as block mappings, which the writer lays out key by key: values
# of one shape and dtype in every run, scalars, and keys long enough that
# rows wrap
@settings(max_examples=200, deadline=None, derandomize=True)
@given(reports(SCALARS | ARRAYS, RUN_KINDS, block=True))
def test_same_key_runs_match_both_dumpers(drawn):
    check_report(*drawn)


SHARED = np.arange(4.0).reshape(2, 2) / 3
# rows of .17g texts of the greatest length, 24 characters
LONG_PAIRS = np.full(3, -1.2345678901234567e-308 + 1.2345678901234567e-300j)

# runs given as one mapping a run, turned into columns by `_columns`
RUN_CASES = {
    "shapes-differ": [{"a": np.ones(3), "b": 0.5}, {"a": np.ones(4), "b": 1.5}],
    "dtypes-differ": [{"a": COMPLEX_4x3[0], "b": 1}, {"a": PAIRS_4x3[0, 0], "b": 2}],
    "keys-differ": [{"a": np.ones(2), "b": 1}, {"a": np.ones(2), "c": 1}],
    "keys-reordered": [{"a": np.ones(2), "b": 1}, {"b": 1, "a": np.ones(2)}],
    "keys-added": [{"a": np.ones(2)}, {"a": np.ones(2), "b": 1}],
    "int-and-empty": [{"a": np.arange(3), "b": np.zeros(0)}] * 2,
    "empty-complex-rows": [{"a": np.zeros((2, 0), complex)}] * 2,
    "one-item": [{"a": PAIRS_4x3, "b": 1.5, "c": np.array([0.5, -1.0])}],
    "scalar-items": [{"a": 0.5, "b": 1}, {"a": 1.5, "b": 2}],
    "shared-scalars": [{"a": 0.5, "b": 1, "c": "name"},
                       {"a": 1.5, "b": 1, "c": "name"}],
    "scalar-in-one-item": [{"a": [0.5], "b": 1}, {"a": 1.5, "b": 2}],
    "shared-array": [{"a": SHARED, "b": 0.5}, {"a": SHARED, "b": 1.5}],
    "shared-complex-and-wide-rows": [{"a": SHARED_Z, "b": np.ones((3, 12))},
                                     {"a": SHARED_Z, "b": -np.ones((3, 12))}],
    "longest-floats": [{"a": np.full((2, 3), -2.2250738585072014e-308),
                        "b": LONG_PAIRS},
                       {"a": np.full((2, 3), 1.2345678901234567e-300),
                        "b": LONG_PAIRS.copy()}],
    "nested-runs": [{"a": [{"x": np.ones(2), "y": 1}, {"x": np.zeros(2), "y": 2}]},
                    {"a": [{"x": np.ones(2), "y": 3}]}],
    "empty-items": [{}, {}],
    "complex-scalars": [{"a": 1.5 + 0j}, {"a": 2.5 - 0j}, {"a": 1j}],
    "mappings": [{"a": {"z": 1}}, {"a": {"z": 2}}],
    "scalar-first": [{"a": "name"}, {"a": np.ones(2)}, {"a": np.ones(2)}],
    "sequence-between": [{"a": np.ones(2)}, {"a": [np.ones(2)]}, {"a": np.ones(2)}],
    "distinct-rows": [{"a": np.full(2, float(k)), "b": k} for k in range(3)],
}
# the cases whose columns are of unequal lengths, hold no column, or
# hold values no command hands the writer, complex numbers included
REJECTED_RUNS = {
    "shapes-differ", "dtypes-differ", "keys-differ", "keys-added",
    "int-and-empty", "empty-complex-rows", "scalar-in-one-item",
    "nested-runs", "empty-items", "complex-scalars", "mappings",
    "scalar-first", "sequence-between", "shared-complex-and-wide-rows",
}
# headers by their seed: of scalars alone, with an array, or with a
# key at the column-80 edge
HEADERS_BY_SEED = {0: {"command": "distinguish", "seed": 0, "passed": True},
                   3: {"seed": 3, "state_set": COMPLEX_4x3},
                   30: {"seed": 30, "k" * 78: ROW_OF_12}}


def _columns(rows):
    """The columns of `rows`, a key each in the order keys first appear,
    with the values of the rows that hold the key."""
    keys = dict.fromkeys(key for row in rows for key in row)
    return {key: [row[key] for row in rows if key in row] for key in keys}


@pytest.mark.parametrize("case", RUN_CASES)
@pytest.mark.parametrize("seed", HEADERS_BY_SEED)
def test_same_key_runs_match_dumper_on_shapes(case, seed):
    header, runs = HEADERS_BY_SEED[seed], _columns(RUN_CASES[case])
    if case in REJECTED_RUNS:
        check_rejected(header, runs)
    else:
        check_report(header, runs)


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
RUN_COMPLEXES = st.builds(complex, RUN_FLOATS, RUN_FLOATS)


@st.composite
def special_runs(draw):
    size = draw(st.integers(2, 5))
    shape = draw(RUN_SHAPES)

    def stack(dtype, elements, shape):
        return draw(hnp.arrays(dtype, (size,) + shape, elements=elements))

    runs = {
        "m": draw(st.lists(EXACT_INTS, min_size=size, max_size=size)),
        # int arrays, as a sweep's decoded indices
        "labels": stack(np.int64, st.integers(0, 99), (2,)),
        "residuals": stack(np.float64, RUN_FLOATS, (2,)),
        "fidelity": draw(st.lists(RUN_FLOATS, min_size=size, max_size=size)),
        "real": stack(np.float64, RUN_FLOATS, shape),
        "state": stack(np.complex128, RUN_COMPLEXES, shape),
    }
    header = draw(st.dictionaries(KEYS.filter(lambda key: key != "runs"),
                                  RUN_FLOATS | RUN_COMPLEXES
                                  | hnp.arrays(np.float64, ARRAY_SHAPES,
                                               elements=RUN_FLOATS),
                                  max_size=4))
    return header, runs


@settings(max_examples=200, deadline=None, derandomize=True)
@given(special_runs())
def test_special_floats_in_same_key_runs_match_both_dumpers(drawn):
    check_report(*drawn)


def test_identity_fixed_point_report_matches_both_dumpers(tmp_path):
    # the identity's report holds integral floats: its max-entropy fixed
    # point's zeros
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
    assert "[0.0, 0.0]" in "".join(cli._yaml_pieces(header, runs))
    check_report(header, runs)


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
