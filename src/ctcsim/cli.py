"""Command-line front end: config ingestion, runs, reports.

Configs and reports share one human-readable structured-text format
(YAML-compatible key-value with nested lists; JSON configs parse too).
Complex numbers are serialized as two-element [re, im] arrays and every
float is printed with 17 significant digits so that reparsing
reproduces the binary double.

Reports are in format 2: each says what ran once.  The header holds the
command, ``format: 2``, the timestamp and the run's parameters, with
each input array named by its SHA-256 (:func:`_sha256`) rather than
printed, and the runs hold what each run computed.  Reports do not go
through PyYAML's Python object layers.  They are rendered by
:func:`_yaml_pieces` byte for byte as ``yaml.dump`` with libyaml would
write them, 80-column wrap included, or with ``--json`` by
:func:`_json_lines` as the header's JSON object on the first line and
one object per run on each line after it.  The writer takes what the
commands hand it and nothing else: a header whose values are floats,
ints, names, digests, the timestamp, complex numbers and float or
complex arrays, and runs as columns with an entry per run: lists of
floats, ints, bools or names, and float, complex or int arrays (ints
within 2**53) whose leading axis is the run.  Any other value, a
complex number in the runs, a nested list or mapping, None, an empty,
0-d or bool array or arrays that differ in shape or dtype, raises
TypeError.  A complex value is written as its [re, im] pair, by the
writer alone.  One compiler lays out a stack of values, one per item,
as a template with a slot per number: the header is a stack of one, and
the runs are one stack with an item per run.  Its value rules
(:func:`_stacked`, :func:`_scalar_item` and the checks beside them) are
shared by two layouts: :func:`_compile` for YAML, a run a block mapping
when a column holds arrays and a flow mapping otherwise, and
:func:`_json_entries` for JSON, with arrays as nested lists and every
key quoted.  So both formats reject the same values.  A scalar with one
text in every item is written into the template once.  A template's
numbers are one float matrix, a row per item; one numpy pass finds the
few floats, such as ``inf`` or ``1e+22``, that ``%.17g`` or ``%.1f``
would not write, and each item is one ``%`` of its row.  A YAML flow
row that might reach column 80 is filled with separators and broken by
:func:`_flow`.  Each writer compiles both templates before it returns,
so a rejected value raises TypeError before the first byte, and returns
an iterator whose pieces, a run each, are formatted as they are taken.
:func:`main` streams it with ``writelines``, an ``--out`` file in
write-through mode, so no two runs' texts are held at once.

Configs are read by :func:`_read_config` as ``yaml.load`` reads them,
with YAML 1.1's scalar rules.  A numeric row, one flow sequence of
numbers, is read by one ``json.loads`` when YAML 1.1 reads every number
in it as a decimal, and replaced by a placeholder: the one
``yaml.load`` reads only the text outside the numeric rows.  A row is
either a line's value after block-sequence dashes or a plain key
(``- [..]``, ``- - [..]``, ``key: [..]``, ``- key: [..]``), replaced by
``x,``, or a key's value inside a flow mapping (``{"key": [..], ..}``,
as in a JSON config), replaced by ``x_``.  A config file is read in
text mode, whose universal newlines turn CRLF into LF before rows are
looked for.  If the load fails, or a placeholder does not come back as
a scalar of its own (a row inside a block scalar or a multi-line
scalar; ``x,`` inside a flow collection), the original text is loaded
again without placeholders.
Every complex value of a config is read by :func:`_parse_array`: a
number is a YAML int or float, never a bool, a complex value is a bare
number or an [re, im] pair, and a number beyond float range is a config
error that names its entry, as is a config nested over ``_MAX_DEPTH``
levels deep (or too deep for PyYAML's pure-Python loader) or with a
(fixed) ``tolerances`` key.

Each subcommand returns its report header, its runs as a mapping of
columns and its verdict, and ignores any config key it does not read;
:func:`main` stamps the header, writes the report and picks the exit
code.  Exit codes: 0 success, 2
validation/config error (an unwritable ``--out`` included), 3 protocol
error (degenerate superposition, non-unique fixed point, no numerical
fixed point, exhausted unitary construction) or a command's own failed
verdict, after its whole report is written, 1 internal error.  A
reader that closes stdout early, such as ``head``, leaves the report cut
short and the command's exit code as it is.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import os
import re
import sys
from datetime import datetime, timezone

import numpy as np
import yaml

from . import deutsch, linalg
from .discrimination import build_distinguisher, distinguish_members
from .errors import (
    Condition2Exhausted,
    CtcSimError,
    DegenerateSuperposition,
    NoFixedPointNumerical,
    NonUniqueFixedPoint,
)
from .linalg import StateSet, validate
from .superpose import SuperpositionSpec, build_u_ij, run_sweep, unit_scaled

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_PROTOCOL = 3

_SUCCESS_FIDELITY = 1e-6

_EXAMPLE_DEVIATION = 1e-9


class ConfigError(Exception):
    """Anything wrong with the config or flags; maps to exit code 2."""


# ---------------------------------------------------------------------------
# config parsing


# libyaml's C parser when PyYAML was built with it
_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_RESOLVER = yaml.resolver.Resolver()
_STR_TAG = "tag:yaml.org,2002:str"


# a numeric row: a flow sequence of numbers that ends its line, after
# block-sequence dashes or a plain key (group 1), or that is a value in a
# flow mapping, after its plain or double-quoted key, as in a JSON config
# (group 2)
_ROW = re.compile(
    r"^ *(?:- +)*(?:- +|[A-Za-z_][A-Za-z0-9_-]*: +)(\[[][0-9eE.+, -]*\]) *$"
    r'|[{,] *(?:"[^"\\\n]*"|[A-Za-z_][A-Za-z0-9_-]*): +'
    r"(\[[][0-9eE.+, -]*\])(?= *[,}])",
    re.MULTILINE)
# an exponent YAML 1.1 reads as part of a string: no fraction before it
# or no sign after it (JSON reads 1e5 and 1.5e5 as numbers)
_STRING_EXPONENT = re.compile(r"(?<![.0-9])[0-9]+[eE]|[eE][0-9]")
# the plain scalar each masked row becomes, by its group; ``,`` ends a
# plain scalar in a flow collection, so a line's placeholder there cannot
# come back whole, while a flow mapping's comes back whole in either
_PLACEHOLDERS = ("x,", "x_")


def _mask_rows(text: str) -> tuple[str, dict]:
    """`text` with its numeric rows masked, and the rows by the start
    index of their placeholder in the masked text.

    Each row that ``json.loads`` reads, and whose numbers YAML 1.1 also
    reads as decimals, is replaced by its group's placeholder, so the
    masked text is the config's skeleton.
    """
    rows = {}
    pieces = []
    end = start = 0
    for match in _ROW.finditer(text):
        group = match.lastindex
        row = match.group(group)
        try:
            value = json.loads(row)
        except (ValueError, RecursionError):
            continue
        # most rows hold no exponent; the substring test skips their search
        if ("e" in row or "E" in row) and _STRING_EXPONENT.search(row):
            continue
        pieces += (text[end:match.start(group)], _PLACEHOLDERS[group - 1])
        start += len(pieces[-2])
        rows[start] = value
        start += len(pieces[-1])
        end = match.end(group)
    pieces.append(text[end:])
    return "".join(pieces), rows


# libyaml's composer overflows the C stack from about 25,000 levels
_MAX_DEPTH = 1000


def _check_depth(masked: str) -> None:
    """ConfigError past ``_MAX_DEPTH`` levels, counted on libyaml's event stream
    (no recursion) unless `masked` has few of the ``[{-:?`` that open each
    level (placeholders hold none); parse errors are left to the load."""
    if sum(map(masked.count, "[{-:?")) <= _MAX_DEPTH:
        return
    depth = 0
    try:
        for event in yaml.parse(masked, Loader=_Loader):
            depth += (isinstance(event, yaml.CollectionStartEvent)
                      - isinstance(event, yaml.CollectionEndEvent))
            if depth > _MAX_DEPTH:
                raise ConfigError(f"nesting deeper than {_MAX_DEPTH} levels")
    except yaml.YAMLError:
        pass


def _read_config(text: str):
    """The object ``yaml.load(text, Loader=_Loader)`` returns.

    The masked text, the config's skeleton, is loaded once, and each
    scalar equal to the placeholder that starts at a row's index is
    replaced by its row.  If that load raises or leaves a row unused (a
    row inside a block scalar or a multi-line scalar, or a line's row
    inside a flow collection), the original text is loaded again, so
    values and errors are those of a plain load.  The masked text's
    nesting is checked first; ``json.loads`` nests a row no deeper than
    the recursion limit.
    """
    masked, rows = _mask_rows(text)
    _check_depth(masked)

    def splice(loader, node):
        if node.value in _PLACEHOLDERS and node.start_mark.index in rows:
            return rows.pop(node.start_mark.index)
        return loader.construct_yaml_str(node)

    loader = _Loader(masked)
    loader.yaml_constructors = {**loader.yaml_constructors, _STR_TAG: splice}
    try:
        data = loader.get_single_data()
        if not rows:
            return data
    except Exception:  # noqa: BLE001 - the plain load below raises it again
        pass
    finally:
        loader.dispose()
    return yaml.load(text, Loader=_Loader)


def _load_config(path: str) -> dict:
    try:
        # utf-8-sig drops a byte-order mark, which libyaml's marks do not count
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    try:
        data = _read_config(text)
    except RecursionError:  # PyYAML's pure-Python composer recurses
        raise ConfigError("nesting too deep to load") from None
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = (
            f"line {mark.line + 1}, column {mark.column + 1}"
            if mark is not None else "unknown position"
        )
        problem = getattr(exc, "problem", None) or str(exc)
        raise ConfigError(f"parse failure at {where}: {problem}")
    if not isinstance(data, dict):
        raise ConfigError("config must be a key-value mapping at top level")
    if "tolerances" in data:
        raise ConfigError("tolerances are fixed; remove the tolerances key")
    return data


# a config number: a YAML int or float, never a bool
_NUMBER_TYPES = frozenset((int, float))
_LIST_OF = {1: "amplitudes", 2: "rows"}


def _parse_array(node, where: str, depth: int):
    """`node` as a complex number (depth 0), vector (1) or matrix (2).

    A well-formed node, lists nested `depth` deep ending in numbers or
    `depth + 1` deep ending in [re, im] pairs, is read by one
    ``np.array``; any other, mixed forms included, is read entry by
    entry, and its first bad entry is a ConfigError that names it.
    """
    if not depth:
        parts = node if isinstance(node, list) and len(node) == 2 else [node]
        if not set(map(type, parts)) <= _NUMBER_TYPES:
            raise ConfigError(f"{where}: expected a number or [re, im] pair")
        try:
            return complex(*parts)
        except OverflowError:
            raise ConfigError(f"{where}: number beyond float range") from None
    if not isinstance(node, list) or not node:
        raise ConfigError(
            f"{where}: expected a nonempty list of {_LIST_OF[depth]}")
    try:
        arr = np.array(node, dtype=float)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if (arr is not None and arr.size and arr.ndim >= depth
            and arr.shape[depth:] in ((), (2,))):
        leaves = node
        for _ in range(arr.ndim - 1):
            leaves = itertools.chain.from_iterable(leaves)
        if set(map(type, leaves)) <= _NUMBER_TYPES:
            if arr.ndim > depth:
                return arr.view(complex)[..., 0]
            return arr.astype(complex)
    entries = [_parse_array(x, f"{where}[{k}]", depth - 1) for k, x in enumerate(node)]
    if depth > 1 and any(r.size != entries[0].size for r in entries):
        raise ConfigError(f"{where}: rows have unequal lengths")
    return np.array(entries, dtype=complex)


def _parse_state_set(cfg: dict) -> StateSet:
    if "state_set" not in cfg:
        raise ConfigError("config is missing the state_set key")
    node = cfg["state_set"]
    if not isinstance(node, list) or not node:
        raise ConfigError("state_set: expected a nonempty list of vectors")
    amplitudes = _parse_array(node, "state_set", 2)
    try:
        return StateSet(amplitudes)
    except CtcSimError as exc:
        raise ConfigError(f"state_set: {exc}")


def _parse_spec(cfg: dict) -> SuperpositionSpec:
    if "alpha" not in cfg or "beta" not in cfg:
        raise ConfigError("config is missing alpha/beta amplitudes")
    alpha = _parse_array(cfg["alpha"], "alpha", 0)
    beta = _parse_array(cfg["beta"], "beta", 0)
    try:
        return SuperpositionSpec(alpha, beta)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _parse_policy(cfg: dict, args) -> str:
    policy = getattr(args, "policy", None) or cfg.get("policy", "require_unique")
    if policy not in deutsch.POLICIES:
        raise ConfigError(f"unknown policy {policy!r}")
    return policy


def _read_state_set_config(args) -> tuple[dict, StateSet]:
    """The config and its validated state set; every label is solved
    under ``require_unique``, so no other policy is accepted."""
    cfg = _load_config(args.config)
    policy = _parse_policy(cfg, args)
    if policy != "require_unique":
        raise ConfigError("superpose and distinguish solve every label under "
                          f"require_unique, not {policy!r}")
    states = _parse_state_set(cfg)
    report = validate(states)
    if not report.passed:
        lines = ", ".join(
            f"{c.name} (residual {_fmt_float(c.residual)}, "
            f"tolerance {_fmt_float(c.tolerance)})"
            for c in report.failures()
        )
        raise ConfigError(f"state_set fails validation: {lines}")
    return cfg, states


# ---------------------------------------------------------------------------
# report rendering


def _fmt_float(x: float) -> str:
    return _float_text(format(float(x), ".17g"))


def _float_text(s: str, tag: str = "") -> str:
    """A float's ``.17g`` text `s` as a report prints it: with '.0' after
    an integral value, and `tag` before any other text that holds no '.'
    (``inf``, ``nan``, ``1e+22``)."""
    if "." in s:
        return s
    return s + ".0" if s.lstrip("-").isdigit() else tag + s


# strings a report holds: keys, names and SHA-256 digests, plain unless
# YAML 1.1 reads them as another type, and the quoted timestamp
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_-]{0,99}|[0-9a-f]{64}")
_STAMP = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z")
_FLOAT_TAG = "!!float "
_WIDTH = 80  # libyaml's best_width
_INDENT = 2  # libyaml's best_indent


def _scalar_text(x) -> str:
    """A float, bool, int, name, digest or timestamp as libyaml writes it."""
    if isinstance(x, float):
        # a float YAML 1.1 would not resolve implicitly carries its tag
        return _float_text(format(x, ".17g"), _FLOAT_TAG)
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, str):
        if _NAME.fullmatch(x):
            plain = _RESOLVER.resolve(yaml.ScalarNode, x, (True, False)) == _STR_TAG
            return x if plain else f"'{x}'"
        if _STAMP.fullmatch(x):
            return f"'{x}'"
    raise TypeError(f"cannot serialize {type(x).__name__} {x!r} as a report value")


@functools.lru_cache(maxsize=256)
def _key_head(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"cannot serialize a {type(key).__name__} key")
    return _scalar_text(key) + ":"


def _column(text: str) -> int:
    """The column after `text`, which starts a line or holds a line break."""
    return len(text) - 1 - text.rfind("\n")


# a float's .17g text, '.0' or tag added, takes at most 24 characters
_FLOAT_CHARS = 24
# ints a float holds exactly, written by %d from a float column
_EXACT_INT = 2**53
# a slot's format by its code, the character that marks the slot in a
# layout: a float (0), an integral float below 1e16 (1), a float written
# by its own text (2), an int held as a float (3) and a text (4)
_FORMATS = ("%.17g", "%.1f", "%s", "%d", "%s")
_ODD, _INT, _TEXT = 2, 3, 4
# one number's or text's place in a layout
_SLOT = "\0"
# a wrap group: the items of a flow collection that might reach column
# 80, with ", " between them and a _GROUP on each side, whose line breaks
# _flow decides once their texts are known; no item holds a comma
_GROUP = "\x1d"


class _Template:
    """A layout compiled for `size` items: its pieces, with a _SLOT per
    number or text; each slot's code and float column, a row per item (a
    _TEXT slot's texts come from its iterator in `texts`); each wrap
    group's (column, indent); and `tag`, written before a float's text
    where it holds no '.'."""

    def __init__(self, size: int, tag: str):
        self.size, self.tag = size, tag
        self.layout, self.codes, self.columns = [], bytearray(), []
        self.texts, self.groups = [], []


def _compile(t: _Template, head: str, values, indent: int) -> None:
    """Append to `t`'s layout `head`, text whose last line ends in an
    entry's ``key:``, and the layout of `values`, the entry's value in
    each item, in the block mapping at `indent`: scalars, or float,
    complex or int arrays of one shape and dtype, given as a list or as
    one array whose leading axis is the item.  Any other value raises
    TypeError."""
    if isinstance(values, np.ndarray) or isinstance(values[0], np.ndarray):
        _arrays(t, head, values, indent)
    else:
        t.layout.append(f"{head} {_scalar_item(t, values, _scalar_text)[0]}")


def _scalar_item(t: _Template, values: list, text):
    """The text of scalars `values` in `t`'s layout, each value's own
    written by `text`, and its greatest length: a _SLOT, whose column
    `t` now holds, unless there is one value or every value's text is
    the same."""
    types = set(map(type, values))
    code = _number_code(values, types) if len(values) > 1 else None
    if code is not None:
        t.columns.append(np.array(values, dtype=float)[:, None])
        t.codes.append(code)
        # the longest int text is the smallest or the largest int's
        return _SLOT, (max(len(str(min(values))), len(str(max(values))))
                       if code == _INT else _FLOAT_CHARS)
    if len(types) == 1 and values.count(values[0]) == len(values):
        # equal values of one type, such as bools or names, have one text
        texts = [text(values[0])]
    else:
        texts = list(map(text, values))
    if texts.count(texts[0]) == len(texts):
        return texts[0], len(texts[0])
    t.texts.append((len(t.codes), iter(texts)))
    t.codes.append(_TEXT)
    t.columns.append(np.zeros((t.size, 1)))
    return _SLOT, max(map(len, texts))


def _runs(t: _Template, runs: dict) -> None:
    """The runs, a block sequence with an item per run in `t`, laid out
    key by key from their columns: each run a block mapping if a column
    holds arrays, else a flow mapping of scalars."""
    heads = list(map(_key_head, runs))
    columns = list(runs.values())
    if any(isinstance(c, np.ndarray) or isinstance(c[0], np.ndarray)
           for c in columns):
        for i, (head, column) in enumerate(zip(heads, columns)):
            _compile(t, ("\n  " if i else "\n- ") + head, column, _INDENT)
        return
    items = [_scalar_item(t, column, _scalar_text) for column in columns]
    items = [(f"{head} {text}", len(head) + 1 + width)
             for head, (text, width) in zip(heads, items)]
    body, group = _flow_items(_column("\n- {"), items, _INDENT)
    t.layout.append("\n- {" + body + "}")
    if group:
        t.groups.append(group)


def _flow_items(col: int, items: list, indent: int):
    """The text between the brackets, opened at column `col`, of a flow
    collection of `items`, each a text and its greatest length, and its
    wrap group: (`col`, `indent`), or None where no line can break."""
    body = ", ".join([text for text, _ in items])
    # the column after the last comma decides whether any line breaks
    last = col + sum(width + 2 for _, width in items[:-1]) - 1
    if max(col, last) <= _WIDTH:
        return body, None
    return _GROUP + body + _GROUP, (col, indent)


def _number_code(values: list, types: set):
    """The slot code of `values`, whose types are `types`: 0 if every
    value is a float, _INT if every one is an int a float holds exactly,
    else None."""
    if all(issubclass(t, float) for t in types):
        return 0
    if types == {int} and -_EXACT_INT <= min(values) and max(values) <= _EXACT_INT:
        return _INT
    return None


def _arrays(t: _Template, head: str, values, indent: int) -> None:
    """Arrays of one shape and dtype laid out after `head` as their
    lists, with a _SLOT per number."""
    shape = _stacked(t, values)
    if len(shape) == 1:
        lead, col, wrap = head + " ", _column(head) + 2, indent + _INDENT
    else:
        # a block sequence under a key is not indented
        lead = head + "\n" + " " * indent
        # every row is a flow sequence after a dash in this column
        dashes = indent + _INDENT * (len(shape) - 2)
        col, wrap = dashes + 3, dashes + _INDENT
    body, group = _flow_items(col, [(_SLOT, _FLOAT_CHARS)] * shape[-1], wrap)
    row = f"[{body}]"
    for depth in reversed(range(len(shape) - 1)):
        line = "\n" + " " * (indent + _INDENT * depth)
        row = line.join(["- " + row] * shape[depth])
    t.layout.append(lead + row)
    if group:
        t.groups += [group] * math.prod(shape[:-1])


def _stacked(t: _Template, values):
    """Stack `values`, float, complex or int arrays of one shape and
    dtype, nonempty and of one axis or more, into `t`: a float64 matrix
    with a row per value, stacked once unless they are one array already,
    and a slot code per number, _INT for ints, which must lie within
    2**53.  Returns the shape of one value, a complex one's with its
    [re, im] pairs along a new last axis."""
    if not (isinstance(values, np.ndarray)
            or all(map(isinstance, values, itertools.repeat(np.ndarray)))
            and len({(v.shape, v.dtype) for v in values}) == 1):
        raise TypeError("arrays that differ in type, shape or dtype")
    stacked = values[0][None] if len(values) == 1 else np.asarray(values)
    if not stacked.size or stacked.ndim < 2:
        raise TypeError("cannot serialize an empty or 0-d array")
    kind, code = stacked.dtype.kind, 0
    if kind == "c":
        pairs = np.ascontiguousarray(stacked, dtype=complex).view(np.float64)
        stacked = pairs.reshape(stacked.shape + (2,))
    elif kind in "iu":
        if stacked.min() < -_EXACT_INT or stacked.max() > _EXACT_INT:
            raise TypeError("cannot serialize an int array beyond 2**53")
        code = _INT
    elif kind != "f":
        raise TypeError(f"cannot serialize a {stacked.dtype} array")
    matrix = stacked.reshape(len(stacked), -1).astype(float, copy=False)
    t.columns.append(matrix)
    t.codes += bytes([code]) * matrix.shape[1]
    return stacked.shape[1:]


def _filled(t: _Template):
    """Yield the text of each item of `t`: its layout filled by one `%` of
    its row, and each wrap group broken by :func:`_flow`.  The template
    is spent: its numbers live on only in the matrix."""
    matrix = np.concatenate([np.zeros((t.size, 0)), *t.columns], axis=1)
    layout = "".join(t.layout)
    t.layout = t.columns = None
    for text in _formatted(layout, matrix, t.codes, t.tag, t.texts):
        if t.groups:
            parts = text.split(_GROUP)
            parts[1::2] = map(_flow, t.groups, parts[1::2])
            text = "".join(parts)
        yield text


def _formatted(layout: str, matrix, kinds, tag: str, texts):
    """Yield each row of `matrix` written into `layout`, whose k-th _SLOT
    takes column k: a float, or as the code byte ``kinds[k]`` says, an int
    held as a float (_INT) or a text (_TEXT), taken for each row from
    the iterator paired with k in `texts`.  A float is written as
    :func:`_float_text` writes its ``.17g`` text, `tag` included: by
    ``%.17g``, by ``%.1f`` for an integral value below 1e16, or for the
    few others, found by :func:`_float_codes`, by its own text.  Each
    pattern of codes takes its own template, made once."""
    marks = np.frombuffer(layout.replace("%", "%%").encode(), np.uint8).copy()
    slots = np.flatnonzero(marks == 0)
    kinds = np.frombuffer(kinds, dtype=np.int8)
    codes = np.where(kinds != 0, kinds, _float_codes(matrix))
    templates = {}
    for values, row_codes in zip(matrix, codes):
        row = values.tolist()
        for k, column in texts:
            row[k] = next(column)
        key = row_codes.tobytes()
        if key not in templates:
            # each slot's mark becomes its code, and each code that the
            # row holds its format
            marks[slots] = row_codes
            template = marks.tobytes().decode()
            for code, form in enumerate(_FORMATS):
                if code in key:
                    template = template.replace(chr(code), form)
            templates[key] = template, (np.flatnonzero(row_codes == _ODD).tolist()
                                        if _ODD in key else ())
        template, odd = templates[key]
        for k in odd:
            row[k] = _float_text(format(row[k], ".17g"), tag)
        yield template % tuple(row)


def _float_codes(a):
    """Per float of `a`, whose ``.17g`` text :func:`_float_text` keeps
    when it holds a '.': 0 where it does, 1 for an integral value below
    1e16 (``%.1f`` writes its '.0'), and 2 for the others: non-finite and
    larger integral values, and values below 1e-4 whose exponent form
    has a one-digit mantissa (``1e-306``), found by its distance from an
    integer and taken for every value below 1e-300, whose scale a float
    does not hold exactly."""
    whole = a == np.trunc(a)
    mag = np.abs(a)
    fits = mag < 1e16
    whole &= fits
    codes = whole.view(np.int8)
    # a non-integral value from 1e-4 up to 1e16 is written with its '.'
    rest = np.flatnonzero(~(whole | fits & (mag >= 1e-4)))
    if rest.size:
        codes.reshape(-1)[rest] = 2
        t = mag.reshape(-1)[rest]
        # the finite values below 1e-4 whose scale a float holds, the
        # only ones whose mantissa is taken, so that nothing warns
        tiny = (t < 1e-4) & (t >= 1e-300)
        t = t[tiny]
        mantissa = t / 10.0 ** np.floor(np.log10(t))
        plain = np.abs(mantissa - np.rint(mantissa)) > 1e-13
        codes.reshape(-1)[rest[tiny][plain]] = 0
    return codes


def _flow(group: tuple, text: str) -> str:
    """The items of a flow collection, `text` with ", " between them,
    as they go between its brackets, for its wrap group (col, indent):
    its opening bracket ends at column col, and a line breaks before an
    item once the column passes 80, going on at indent.  So a line ends
    at its first comma past column 80, found by one search a line; a
    bracket past column 80 puts even the first item on a new line."""
    col, indent = group
    lead = ""
    if col > _WIDTH:
        lead, col = "\n" + " " * indent, indent
    end = text.find(",", max(_WIDTH - col, 0))
    if end < 0:
        return lead + text
    lines = []
    start, room = 0, max(_WIDTH - indent, 0)
    while end >= 0:
        lines.append(text[start:end + 1])
        start = end + 2
        end = text.find(",", start + room)
    lines.append(text[start:])
    return lead + ("\n" + " " * indent).join(lines)


def _run_count(header: dict, runs: dict) -> int:
    """The number of runs; TypeError unless the header and the runs are
    mappings and the runs columns of one nonzero length."""
    if not (isinstance(header, dict) and isinstance(runs, dict)):
        raise TypeError("a report's header and runs are mappings")
    sizes = set(map(len, runs.values()))
    if len(sizes) != 1 or 0 in sizes:
        raise TypeError("runs are columns of one nonzero length")
    return sizes.pop()


def _header_columns(header: dict) -> dict:
    """The header as columns of one item, each complex number as the
    float array of its [re, im] pair, laid out as any other array; in
    the runs, a complex number is a scalar no report writes."""
    return {key: [np.array([value.real, value.imag])
                  if isinstance(value, complex) else value]
            for key, value in header.items()}


def _yaml_pieces(header: dict, runs: dict):
    """The report ``{**header, "runs": rows}``, the k-th of `rows` mapping
    each key of `runs` to the k-th entry of its column, as ``yaml.dump``
    writes it with libyaml's safe dumper and :func:`_fmt_float` as its
    float representer, as an iterator of pieces to be written in order:
    the header's text, then one piece for each run, each formatted as it
    is taken.  The header's values, and the columns' entries, are the
    kinds :func:`_compile` takes; both templates are compiled before the
    iterator is returned, so any other kind raises TypeError here."""
    size = _run_count(header, runs)
    t = _Template(1, _FLOAT_TAG)
    # the root's block mapping, however plain the header's values, as the
    # runs follow them
    for i, (key, values) in enumerate(_header_columns(header).items()):
        _compile(t, "\n" * bool(i) + _key_head(key), values, 0)
    stack = _Template(size, _FLOAT_TAG)
    _runs(stack, runs)
    return itertools.chain(_filled(t), ["\n" * bool(header) + _key_head("runs")],
                           _filled(stack), ["\n"])


def _json_text(x) -> str:
    """A scalar :func:`_scalar_text` takes, as JSON: a float without its
    tag, a name or the timestamp in double quotes."""
    if isinstance(x, float):
        return _fmt_float(x)
    text = _scalar_text(x)
    return f'"{x}"' if isinstance(x, str) else text


def _json_entries(t: _Template, columns: dict) -> None:
    """Append to `t`'s layout the entries of a JSON object, without its
    braces: each key of `columns` quoted, and its values, the key's entry
    in each item, of the kinds :func:`_compile` takes, arrays as nested
    lists with a _SLOT per number."""
    for i, (key, values) in enumerate(columns.items()):
        _key_head(key)
        if isinstance(values, np.ndarray) or isinstance(values[0], np.ndarray):
            text = _SLOT
            for n in reversed(_stacked(t, values)):
                text = "[" + ",".join([text] * n) + "]"
        else:
            text = _scalar_item(t, values, _json_text)[0]
        t.layout.append(f'{"," * bool(i)}"{key}":{text}')


def _json_lines(header: dict, runs: dict):
    """The ``--json`` report as an iterator of lines: the header object,
    then one object per run, holding its entry of every column, compiled
    as :func:`_yaml_pieces` compiles the YAML report, the header a stack
    of one and the runs one stack.  Both templates are compiled before
    the iterator is returned, so a report the compiler rejects raises
    TypeError here."""
    size = _run_count(header, runs)
    t = _Template(1, "")
    _json_entries(t, _header_columns(header))
    stack = _Template(size, "")
    _json_entries(stack, runs)
    return ("{" + text + "}\n" for text in itertools.chain(_filled(t), _filled(stack)))


def _sha256(a: np.ndarray) -> str:
    """The SHA-256 of `a`'s shape, as little-endian int64 values, then of
    its C-ordered little-endian complex128 entries, in lowercase hex."""
    digest = hashlib.sha256(np.array(a.shape, dtype="<i8"))
    digest.update(np.ascontiguousarray(a, dtype="<c16"))
    return digest.hexdigest()


def _timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


# ---------------------------------------------------------------------------
# subcommands


def cmd_superpose(args) -> tuple[dict, dict, bool]:
    """Run the superposition protocol for one pair or a full sweep."""
    cfg, states = _read_state_set_config(args)
    spec = _parse_spec(cfg)

    size = states.size
    if ("m" in cfg) != ("n" in cfg):
        raise ConfigError("give both m and n, or neither for a full sweep")
    if "m" in cfg:
        m, n = cfg["m"], cfg["n"]
        for label, value in (("m", m), ("n", n)):
            if not isinstance(value, int) or isinstance(value, bool) \
                    or not 0 <= value < size:
                raise ConfigError(f"{label} must be an index in [0, {size})")
        pairs = [(m, n)]
    else:
        pairs = [(m, n) for m in range(size) for n in range(size)]
    del cfg  # parsed: its nested lists are not held across the run

    sweep = run_sweep(states, pairs, spec)
    # scalars as Python lists, as the writer rejects numpy scalars
    m, n = sweep.pairs.T.tolist()
    runs = {
        "m": m,
        "n": n,
        "decoded_indices": sweep.members.decoded[sweep.pairs],
        "fixed_point_residuals": sweep.members.residual[sweep.pairs],
        "fidelity": sweep.fidelity.tolist(),
        "ancilla_state": sweep.ancillas,
        "expected_state": sweep.expected,
    }
    header = {
        "policy": "require_unique",
        "alpha": spec.alpha,
        "beta": spec.beta,
        "state_set_sha256": _sha256(states.amplitudes),
        "condition_overlaps": sweep.bundle.overlaps,
        "condition2_min": sweep.bundle.condition2_min,
        "condition1_deviation": sweep.bundle.condition1_deviation,
    }
    return header, runs, bool((sweep.fidelity >= 1 - _SUCCESS_FIDELITY).all())


def cmd_distinguish(args) -> tuple[dict, dict, bool]:
    """Discriminate every set member and report the decoded labels."""
    cfg, states = _read_state_set_config(args)
    del cfg  # parsed: its nested lists are not held across the run

    bundle = build_distinguisher(states)
    members = distinguish_members(bundle)
    indices = np.arange(states.size)
    runs = {
        "input_index": indices.tolist(),
        "decoded": members.decoded.tolist(),
        "residual": members.residual.tolist(),
        "unique": members.certified.tolist(),
        "fidelity_to_basis": members.fidelity_to_basis.tolist(),
    }
    header = {
        "state_set_sha256": _sha256(states.amplitudes),
        "condition_overlaps": bundle.overlaps,
        "condition2_min": bundle.condition2_min,
    }
    return header, runs, bool((members.decoded == indices).all())


def cmd_fixed_point(args) -> tuple[dict, dict, bool]:
    """Solve the self-consistency condition for a user-supplied circuit."""
    policy, u, rho = _read_circuit_config(args)
    result = deutsch.fixed_point(u, rho, policy=policy)
    runs = {
        "fixed_point": result.fixed_point.entries[None],
        "residual": [float(result.residual)],
        "fixed_space_dim": [result.fixed_space_dim],
        "unique": [bool(result.unique)],
        "entropy_nats": [result.entropy_nats],
    }
    header = {"policy": policy, "unitary_sha256": _sha256(u),
              "rho_cr_sha256": _sha256(rho)}
    return header, runs, True


def _read_circuit_config(args) -> tuple[str, np.ndarray, np.ndarray]:
    """The policy, the validated unitary and rho_cr of a fixed-point
    config; the config itself is not held past parsing."""
    cfg = _load_config(args.config)
    policy = _parse_policy(cfg, args)
    if "unitary" not in cfg:
        raise ConfigError("config is missing the unitary key")
    u = _parse_array(cfg["unitary"], "unitary", 2)
    if u.shape[0] != u.shape[1]:
        raise ConfigError("unitary must be square")
    (check,) = validate(linalg.UnitaryMatrix(u)).checks
    if not check.passed:
        raise ConfigError(
            f"unitary fails U^dagger U = I by {_fmt_float(check.residual)}"
        )
    if "rho_cr" not in cfg:
        raise ConfigError("config is missing the rho_cr key")
    node = cfg["rho_cr"]
    # a density matrix must use [re, im] entries (triple nesting);
    # double nesting is read as a pure-state vector
    if (isinstance(node, list) and node and isinstance(node[0], list)
            and node[0] and isinstance(node[0][0], list)):
        rho = _parse_array(node, "rho_cr", 2)
        how = "a density matrix"
    else:
        vec = _parse_array(node, "rho_cr", 1)
        # a non-finite amplitude is left to validation, without warnings
        with np.errstate(all="ignore"):
            rho = np.outer(vec, vec.conj())
        how = f"a pure-state vector of {vec.size} amplitudes"
    if rho.shape[0] != rho.shape[1]:
        raise ConfigError("rho_cr must be square")
    dm_report = validate(linalg.DensityMatrix(rho))
    if not dm_report.passed:
        names = ", ".join(c.name for c in dm_report.failures())
        raise ConfigError(
            f"rho_cr (read as {how}) fails density-matrix validation: {names}"
        )
    if u.shape[0] % rho.shape[0] != 0:
        raise ConfigError(
            f"unitary dim {u.shape[0]} does not factor over rho_cr dim {rho.shape[0]}"
        )
    return policy, u, rho


def _example_states() -> StateSet:
    s = 1 / np.sqrt(2)
    return StateSet([[1, 0], [s, -s]])


def _example_reference(i: int, j: int, alpha: complex, beta: complex) -> np.ndarray:
    s = 1 / np.sqrt(2)
    eye = np.eye(2, dtype=complex)
    if (i, j) == (0, 0):
        return eye
    if (i, j) == (1, 1):
        hadamard = np.array([[s, s], [s, -s]], dtype=complex)
        flip = np.array([[0, 1], [1, 0]], dtype=complex)
        return hadamard @ flip
    alpha, beta = unit_scaled(alpha, beta)
    if (i, j) == (1, 0):
        alpha, beta = beta, alpha
    g = np.sqrt(abs(alpha + beta * s) ** 2 + abs(beta) ** 2 / 2)
    return np.array([
        [alpha + beta * s, np.conj(beta) * s],
        [-beta * s, np.conj(alpha) + np.conj(beta) * s],
    ], dtype=complex) / g


def _column_phase_deviation(constructed: np.ndarray,
                            reference: np.ndarray) -> float:
    """Max-entry deviation with one free global phase per column."""
    worst = 0.0
    for c in range(reference.shape[1]):
        con = constructed[:, c]
        ref = reference[:, c]
        overlap = np.vdot(ref, con)
        phase = overlap / abs(overlap) if abs(overlap) > 1e-12 else 1.0
        worst = max(worst, float(np.abs(con - phase * ref).max()))
    return worst


def cmd_example(args) -> tuple[dict, dict, bool]:
    """Reproduce the canonical two-state construction at given amplitudes."""
    try:
        spec = SuperpositionSpec(args.alpha, args.beta)
    except ValueError as exc:
        raise ConfigError(str(exc))
    states = _example_states()
    bundle = build_distinguisher(states)
    # the blocks U_ij, row by row
    i, j = [0, 0, 1, 1], [0, 1, 0, 1]
    constructed = np.array([build_u_ij(states, a, b, spec, bundle.uks).entries
                            for a, b in zip(i, j)])
    reference = np.array([_example_reference(a, b, spec.alpha, spec.beta)
                          for a, b in zip(i, j)])
    deviation = [float(np.abs(con - ref).max()) if a == b
                 else _column_phase_deviation(con, ref)
                 for a, b, con, ref in zip(i, j, constructed, reference)]
    # a NaN deviation is the worst
    worst = float(np.max(deviation))
    runs = {"i": i, "j": j, "constructed": constructed,
            "reference": reference, "deviation": deviation}
    header = {
        "alpha": spec.alpha,
        "beta": spec.beta,
        "state_set": states.amplitudes,
        "max_deviation": worst,
    }
    return header, runs, worst < _EXAMPLE_DEVIATION


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the report to PATH instead of stdout")
    parser.add_argument("--json", action="store_true",
                        help="emit the header, then each run, as one JSON "
                             "object a line")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctcsim",
        description="Simulate Deutsch-CTC circuits: fixed points, state "
                    "discrimination, and superposition of set members.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    state_set = argparse.ArgumentParser(add_help=False)
    state_set.add_argument("config")

    p = sub.add_parser("superpose", parents=[state_set],
                       help="run the superposition protocol from a config")
    _add_common(p)
    p.set_defaults(func=cmd_superpose)

    p = sub.add_parser("distinguish", parents=[state_set],
                       help="discriminate every member of a state set")
    _add_common(p)
    p.set_defaults(func=cmd_distinguish)

    p = sub.add_parser("fixed-point",
                       help="solve the self-consistency condition directly")
    p.add_argument("config")
    p.add_argument("--policy", choices=deutsch.POLICIES,
                   default=None, help="fixed-point selection policy")
    _add_common(p)
    p.set_defaults(func=cmd_fixed_point)

    p = sub.add_parser("example",
                       help="reproduce the two-state worked construction")
    p.add_argument("--alpha", type=float, default=1 / np.sqrt(2),
                   help="real target amplitude for the first state")
    p.add_argument("--beta", type=float, default=1 / np.sqrt(2),
                   help="real target amplitude for the second state")
    _add_common(p)
    p.set_defaults(func=cmd_example)

    return parser


# built on first use: argparse's gettext and locale work stays out of import
@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        header, runs, ok = args.func(args)
        header = {"command": args.command, "format": 2,
                  "timestamp": _timestamp(), **header}
        pieces = (_json_lines if args.json else _yaml_pieces)(header, runs)
        # each piece is formatted as it is written, so the report's text is
        # never held at once
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    # each piece goes to the byte buffer as it is written,
                    # not held with others until 8 KB of text is pending
                    fh.reconfigure(write_through=True)
                    fh.writelines(pieces)
            except OSError as exc:
                raise ConfigError(f"cannot write report: {exc}")
        else:
            try:
                sys.stdout.writelines(pieces)
                sys.stdout.flush()
            except BrokenPipeError:
                # the reader closed early: point stdout at devnull, so the
                # interpreter's last flush of what is left stays quiet
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
        return EXIT_OK if ok else EXIT_PROTOCOL
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DegenerateSuperposition, NonUniqueFixedPoint,
            NoFixedPointNumerical, Condition2Exhausted) as exc:
        print(f"protocol error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except Exception as exc:  # noqa: BLE001 - last-resort mapping to exit 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
