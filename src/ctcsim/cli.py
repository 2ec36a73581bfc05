"""Command-line front end: config ingestion, seeded runs, reports.

Configs and reports share one human-readable structured-text format
(YAML-compatible key-value with nested lists; JSON configs parse too).
Complex numbers are serialized as two-element [re, im] arrays and every
float is printed with 17 significant digits so that reparsing
reproduces the binary double.

Reports do not go through PyYAML's Python object layers.  They
are written by :func:`_yaml_report`, which lays out what they hold
(mappings, flow sequences of numbers, nested block sequences, block
sequences of mappings or of flow mappings, and scalars) byte for byte as
``yaml.dump`` with libyaml would, 80-column wrap included; any other
value raises TypeError.  A complex value is written as its [re, im]
pair, by the writer and :func:`_json_dumps` alone.  The writer recurses
over the report: each entry follows its head, text whose last line ends
in its ``key:`` or ``-`` and so gives its column.  A block sequence of
mappings with the same keys, such as a command's runs, is laid out key
by key by :func:`_mappings`.  Each key's head and the layout of its
values are decided once: the arrays of one shape and dtype are stacked
into one, and a value that is the same object in every item (a sweep's
``alpha`` and ``beta``) is written once.  Each item is then written as
one string that formats only its own floats, since the texts of a whole
key's floats at once would raise a sweep's peak memory.  An array, on
its own or as one item's value, is laid out as its ``tolist()`` would
be, one recursion level per leading axis down to flow rows along its
last axis, rows that cannot reach column 80 joined directly; it is
joined into one string as soon as it is written, so its many row
strings are freed before the next array.  A ``--json`` report writes
its header's text once and each run after it.

Configs are read by :func:`_read_config` as ``yaml.load`` reads them,
with YAML 1.1's scalar rules.  A numeric row, a line whose value is one
flow sequence of numbers after block-sequence dashes or a plain key
(``- [..]``, ``- - [..]``, ``key: [..]``, ``- key: [..]``), is read by
one ``json.loads`` when YAML 1.1 reads every number in it as a decimal,
and replaced by the placeholder ``x,``: the one ``yaml.load`` reads only
the text outside the numeric rows.  A config file is read in text mode,
whose universal newlines turn CRLF into LF before rows are looked for.
If the load fails, or a placeholder does not come back as a scalar of
its own (a row inside a block scalar, a multi-line scalar or a flow
collection), the original text is loaded again without placeholders.
Every complex value of a config is read by :func:`_parse_array`: a
number is a YAML int or float, never a bool, a complex value is a bare
number or an [re, im] pair, and a number beyond float range is a config
error that names its entry, as is a config nested over ``_MAX_DEPTH``
levels deep (or too deep for PyYAML's pure-Python loader) or with a
(fixed) ``tolerances`` key.

Each subcommand returns its report header, runs and verdict; :func:`main`
stamps the header, writes the report and picks the exit code.  Exit
codes: 0 success, 2 validation/config error (an unwritable ``--out``
included), 3 protocol error (degenerate superposition, non-unique fixed
point, no numerical fixed point, exhausted unitary construction) or a
command's own failed verdict, after its whole report is written, 1
internal error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
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
# block-sequence dashes or a plain key
_ROW = re.compile(
    r"^ *(?:- +)*(?:- +|[A-Za-z_][A-Za-z0-9_-]*: +)(\[[][0-9eE.+, -]*\]) *$",
    re.MULTILINE)
# an exponent YAML 1.1 reads as part of a string: no fraction before it
# or no sign after it (JSON reads 1e5 and 1.5e5 as numbers)
_STRING_EXPONENT = re.compile(r"(?<![.0-9])[0-9]+[eE]|[eE][0-9]")
# the plain scalar each masked row becomes; ``,`` ends a plain scalar in
# a flow collection, so a placeholder there cannot come back whole
_PLACEHOLDER = "x,"


def _mask_rows(text: str) -> tuple[str, dict]:
    """`text` with its numeric rows masked, and the rows by the start
    index of their placeholder in the masked text.

    Each row that ``json.loads`` reads, and whose numbers YAML 1.1 also
    reads as decimals, is replaced by ``_PLACEHOLDER``, so the masked
    text is the config's skeleton.
    """
    rows = {}
    pieces = []
    end = start = 0
    for match in _ROW.finditer(text):
        row = match.group(1)
        try:
            value = json.loads(row)
        except (ValueError, RecursionError):
            continue
        # most rows hold no exponent; the substring test skips their search
        if ("e" in row or "E" in row) and _STRING_EXPONENT.search(row):
            continue
        pieces.append(text[end:match.start(1)])
        start += len(pieces[-1])
        rows[start] = value
        start += len(_PLACEHOLDER)
        end = match.end(1)
    pieces.append(text[end:])
    return _PLACEHOLDER.join(pieces), rows


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
    row inside a block scalar, a multi-line scalar or a flow
    collection), the original text is loaded again, so values and errors
    are those of a plain load.  The masked text's nesting is checked first;
    ``json.loads`` nests a row no deeper than the recursion limit.
    """
    masked, rows = _mask_rows(text)
    _check_depth(masked)

    def splice(loader, node):
        if node.value == _PLACEHOLDER and node.start_mark.index in rows:
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


def _parse_seed(cfg: dict, args) -> int:
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = cfg.get("rng_seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


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


# strings a report holds: keys and names, plain unless YAML 1.1 reads
# them as another type, and the quoted timestamp
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_-]{0,99}")
_STAMP = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z")
_FLOAT_TAG = "!!float "
_WIDTH = 80  # libyaml's best_width
_INDENT = 2  # libyaml's best_indent


def _scalar_text(x):
    """A scalar as libyaml writes it, or None for a collection or complex."""
    if isinstance(x, float):
        # a float YAML 1.1 would not resolve implicitly carries its tag
        return _float_text(format(x, ".17g"), _FLOAT_TAG)
    if isinstance(x, (list, dict, np.ndarray, complex)):
        return None
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if x is None:
        return "null"
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


def _entry(out: list, head: str, value, text, indent: int) -> None:
    """`value` after `head`, text whose last line ends in the ``key:`` or
    ``-`` of an entry of the block collection at `indent`; `text` is its
    scalar text, None for a collection."""
    if text is not None:
        out.append(f"{head} {text}")
        return
    if isinstance(value, (np.ndarray, complex)):
        _array(out, head, value, indent)
        return
    mapping = isinstance(value, dict)
    heads = list(map(_key_head, value)) if mapping else itertools.repeat("-")
    values = value.values() if mapping else value
    texts = list(map(_scalar_text, values))
    if None in texts:
        prefix = _block_prefix(head, indent, mapping)
        if mapping or not _mappings(out, prefix, value):
            _block(out, prefix, heads, values, texts)
    elif mapping:
        items = [f"{h} {t}" for h, t in zip(heads, texts)]
        out.append(_flow(head + " {", items, "}", indent + _INDENT))
    else:
        out.append(_flow(head + " [", texts, "]", indent + _INDENT))


def _block_prefix(head: str, indent: int, mapping: bool) -> str:
    """`head` and the start of the first item of the block collection after
    it: on the dash's line, or on a new line, not indented for a sequence
    under a key."""
    if head.endswith("-"):
        return head + " "
    return head + "\n" + " " * (indent + _INDENT if mapping else indent)


def _block(out: list, prefix: str, heads, values, texts: list) -> None:
    """A block collection whose first item starts with `prefix` and every
    other on a new line at the first one's column."""
    indent = _column(prefix)
    line = "\n" + " " * indent
    for i, (head, v, t) in enumerate(zip(heads, values, texts)):
        _entry(out, (line if i else prefix) + head, v, t, indent)


def _mappings(out: list, prefix: str, items: list) -> bool:
    """A block sequence of block mappings with the same keys, whose first
    item starts with `prefix`, laid out key by key: each key's head and
    the layout of its values are decided once, and each item is written
    as one string.  False, with nothing written, for one item, which
    shares nothing, and unless every item is a mapping with the first
    one's keys and some key holds a collection in every item."""
    # a first item of scalars alone is a flow mapping, as a distinguish run is
    if (len(items) < 2 or not isinstance(items[0], dict)
            or None not in map(_scalar_text, items[0].values())):
        return False
    keys = list(items[0])
    if not all(isinstance(item, dict) and list(item) == keys for item in items):
        return False
    dashes = _column(prefix)
    indent = dashes + _INDENT
    renders = []
    block = False
    for key in keys:
        head = " " * indent + _key_head(key)
        render, collections = _key_renderer(
            head, [item[key] for item in items], indent)
        renders.append((render, "\n" + head))
        block = block or collections
    if not block:
        return False
    (lead, _), *rest = renders
    # each item's first key follows its dash, at the column of the others
    key = _key_head(keys[0])
    line = "\n" + " " * dashes
    for i in range(len(items)):
        parts = [lead((line if i else prefix) + "- " + key, i)]
        parts += [render(head, i) for render, head in rest]
        out.append("".join(parts))
    return True


def _key_renderer(head: str, values: list, indent: int):
    """``render(h, i)``, `values[i]` after `h` as :func:`_entry` writes it,
    for heads `h` whose last line is as long as `head`'s, a line's start
    ending in ``key:``; and whether every value is a collection.  There
    are two or more values."""
    first = values[0]
    if all(v is first for v in values):
        # the same object in every item, as the runs of a sweep share the
        # spec's alpha and beta, is written once
        text = _scalar_text(first)
        tail = _text(head, first, text, indent)[len(head):]
        return (lambda h, i: h + tail), text is None
    kinds = set(map(type, values))
    if kinds == {complex} or (kinds == {np.ndarray} and len(
            {(v.shape, v.dtype) for v in values}) == 1):
        return _arrays(head, values, indent), True
    texts = list(map(_scalar_text, values))

    def render(h, i):
        text = texts[i]
        return f"{h} {text}" if text is not None else _text(h, values[i], None, indent)

    return render, texts.count(None) == len(texts)


def _text(head: str, value, text, indent: int) -> str:
    """What :func:`_entry` writes, in one string."""
    out = []
    _entry(out, head, value, text, indent)
    return "".join(out)


def _array(out: list, head: str, arr, indent: int) -> None:
    """A numeric array or complex number after `head`, in one string."""
    out.append(_arrays(head, [arr], indent)(head, 0))


def _arrays(head: str, values: list, indent: int):
    """``render(h, i)``, `values[i]` after `h` laid out in one string as
    :func:`_entry` lays out its list, for heads `h` whose last line is as
    long as `head`'s.  The values are numeric arrays, or complex numbers,
    of one shape and dtype; a complex one is written as [re, im] pairs
    along a new axis.  They are stacked and their layout decided once,
    and each call formats only its own value's floats: the texts of all
    values at once would raise the peak memory of a sweep's report."""
    stacked = np.asarray(values[0])[None] if len(values) == 1 else np.array(values)
    if np.iscomplexobj(stacked):
        pairs = np.ascontiguousarray(stacked, dtype=complex).view(np.float64)
        stacked = pairs.reshape(stacked.shape + (2,))
    shape = stacked.shape[1:]
    if not shape:
        raise TypeError("cannot serialize a 0-d array as a report value")
    if stacked.dtype != np.float64 or not stacked.size:
        return lambda h, i: _text(h, stacked[i].tolist(), None, indent)
    flat = stacked.reshape(len(stacked), -1)

    def texts(i):
        return [s if "." in s else _float_text(s, _FLOAT_TAG)
                for s in map(format, flat[i].tolist(), itertools.repeat(".17g"))]

    if len(shape) == 1:
        return lambda h, i: _flow(h + " [", texts(i), "]", indent + _INDENT)
    width = shape[-1]
    dashes = _column(_block_prefix(head, indent, False))
    # a .17g float takes at most 24 characters, so rows of at most `width`
    # of them end before column 80 and cannot wrap
    if len(shape) == 2 and width * (24 + 2) - 2 <= _WIDTH - 1 - dashes:
        between = "]\n" + " " * dashes + "- ["

        def render(h, i):
            rows = map(", ".join, zip(*[iter(texts(i))] * width))
            return _block_prefix(h, indent, False) + "- [" + between.join(rows) + "]"

        return render

    def render(h, i):
        # the row pieces are joined at once, so they are freed before the next value
        pieces = []
        _rows(pieces, _block_prefix(h, indent, False), shape[:-1],
              zip(*[iter(texts(i))] * width))
        return "".join(pieces)

    return render


def _rows(out: list, prefix: str, shape: tuple, rows) -> None:
    """A block sequence of `shape[0]` items, whose first starts with
    `prefix`: nested sequences down to the flow rows drawn from `rows`."""
    indent = _column(prefix)
    line = "\n" + " " * indent
    if len(shape) > 1:
        for i in range(shape[0]):
            _rows(out, (line if i else prefix) + "- ", shape[1:], rows)
        return
    # a row of at most `fits` characters ends by column 80 after its last
    # comma, so it cannot wrap; past column 80, fits < 3 and every row
    # goes through _flow
    fits = _WIDTH - 1 - indent
    for i, row in enumerate(itertools.islice(rows, shape[0])):
        head = (line if i else prefix) + "-"
        body = ", ".join(row)
        if len(body) <= fits:
            out.append(f"{head} [{body}]")
        else:
            out.append(_flow(head + " [", row, "]", indent + _INDENT))


def _flow(opening: str, texts, close: str, indent: int) -> str:
    """A flow collection of `texts` after `opening`, which ends in its
    bracket; a line breaks before an item once the column passes 80, and
    goes on at `indent`."""
    col = _column(opening)
    body = ", ".join(texts)
    # the column after the last comma decides whether any line breaks
    if not texts or (col <= _WIDTH
                     and col + len(body) - len(texts[-1]) - 1 <= _WIDTH):
        return opening + body + close
    pieces = [opening]
    sep = ""
    for t in texts:
        if col > _WIDTH:
            sep += "\n" + " " * indent
            col = indent
        elif sep:
            sep += " "
            col += 1
        pieces.append(sep + t)
        col += len(t) + 1  # and the comma before the next item
        sep = ","
    pieces.append(close)
    return "".join(pieces)


def _yaml_report(report: dict) -> str:
    """What ``yaml.dump(report, sort_keys=False, default_flow_style=None)``
    returns with libyaml's safe dumper and :func:`_fmt_float` as its float
    representer, for a report whose lists and dicts are distinct objects
    (the dumper would alias a repeated one)."""
    if not isinstance(report, dict):
        raise TypeError("a report is a mapping")
    heads = list(map(_key_head, report))
    texts = list(map(_scalar_text, report.values()))
    if None not in texts:
        # a root flow mapping goes on at column 2 when it breaks
        items = [f"{h} {t}" for h, t in zip(heads, texts)]
        return _flow("{", items, "}", _INDENT) + "\n"
    out = []
    _block(out, "", heads, report.values(), texts)
    out.append("\n")
    return "".join(out)


def _json_dumps(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, complex):
        return f"[{_fmt_float(obj.real)},{_fmt_float(obj.imag)}]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_json_dumps(x) for x in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(
            f"{json.dumps(str(k))}:{_json_dumps(v)}" for k, v in obj.items()
        ) + "}"
    if isinstance(obj, np.ndarray):
        return _json_dumps(obj.tolist())
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


# ---------------------------------------------------------------------------
# subcommands


def cmd_superpose(args) -> tuple[dict, list, bool]:
    """Run the superposition protocol for one pair or a full sweep."""
    cfg, states = _read_state_set_config(args)
    spec = _parse_spec(cfg)
    seed = _parse_seed(cfg, args)

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

    sweep = run_sweep(states, pairs, spec, seed)
    # Python scalars, as the writer rejects numpy ones; the runs share one
    # float object per member, and the pairs go by columns, since P
    # two-item lists would raise the tracemalloc peak
    residuals = sweep.members.residual.tolist()
    decoded = sweep.members.decoded.tolist()
    columns = zip(*sweep.pairs.T.tolist(), sweep.fidelity.tolist(),
                  sweep.ancillas, sweep.expected)
    runs = [{
        "m": m,
        "n": n,
        "alpha": spec.alpha,
        "beta": spec.beta,
        "decoded_indices": [decoded[m], decoded[n]],
        "fixed_point_residuals": [residuals[m], residuals[n]],
        "fidelity": fidelity,
        "ancilla_state": ancilla,
        "expected_state": expected,
    } for m, n, fidelity, ancilla, expected in columns]
    header = {
        "seed": seed,
        "policy": "require_unique",
        "alpha": spec.alpha,
        "beta": spec.beta,
        "state_set": states.amplitudes,
        "condition_overlaps": sweep.bundle.overlaps,
        "condition2_min": sweep.bundle.condition2_min,
        "condition1_deviation": sweep.bundle.condition1_deviation,
    }
    return header, runs, all(r["fidelity"] >= 1 - _SUCCESS_FIDELITY for r in runs)


def cmd_distinguish(args) -> tuple[dict, list, bool]:
    """Discriminate every set member and report the decoded labels."""
    cfg, states = _read_state_set_config(args)
    seed = _parse_seed(cfg, args)

    bundle = build_distinguisher(states, seed)
    members = distinguish_members(bundle)
    columns = zip(members.decoded.tolist(), members.residual.tolist(),
                  members.certified.tolist(), members.fidelity_to_basis.tolist())
    runs = [{
        "input_index": j,
        "decoded": decoded,
        "residual": residual,
        "unique": unique,
        "fidelity_to_basis": fidelity,
    } for j, (decoded, residual, unique, fidelity) in enumerate(columns)]
    header = {
        "seed": seed,
        "state_set": states.amplitudes,
        "condition_overlaps": bundle.overlaps,
        "condition2_min": bundle.condition2_min,
    }
    return header, runs, all(r["decoded"] == r["input_index"] for r in runs)


def cmd_fixed_point(args) -> tuple[dict, list, bool]:
    """Solve the self-consistency condition for a user-supplied circuit."""
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

    result = deutsch.fixed_point(u, rho, policy=policy)
    run = {
        "fixed_point": result.fixed_point.entries,
        "residual": float(result.residual),
        "fixed_space_dim": result.fixed_space_dim,
        "unique": bool(result.unique),
        "entropy_nats": deutsch.von_neumann_entropy(result.fixed_point),
    }
    header = {"policy": policy, "unitary": u, "rho_cr": rho}
    return header, [run], True


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


def cmd_example(args) -> tuple[dict, list, bool]:
    """Reproduce the canonical two-state construction at given amplitudes."""
    try:
        spec = SuperpositionSpec(args.alpha, args.beta)
    except ValueError as exc:
        raise ConfigError(str(exc))
    seed = _parse_seed({}, args)
    states = _example_states()
    bundle = build_distinguisher(states, seed)
    blocks = []
    worst = 0.0
    for i in range(2):
        for j in range(2):
            constructed = build_u_ij(states, i, j, spec, bundle.uks).entries
            reference = _example_reference(i, j, spec.alpha, spec.beta)
            if i == j:
                deviation = float(np.abs(constructed - reference).max())
            else:
                deviation = _column_phase_deviation(constructed, reference)
            worst = max(worst, deviation)
            blocks.append({
                "i": i,
                "j": j,
                "constructed": constructed,
                "reference": reference,
                "deviation": deviation,
            })
    header = {
        "seed": seed,
        "alpha": spec.alpha,
        "beta": spec.beta,
        "state_set": states.amplitudes,
        "max_deviation": worst,
    }
    return header, blocks, worst < _EXAMPLE_DEVIATION


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the report to PATH instead of stdout")
    parser.add_argument("--json", action="store_true",
                        help="emit one JSON report object per run")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctcsim",
        description="Simulate Deutsch-CTC circuits: fixed points, state "
                    "discrimination, and superposition of set members.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None,
                        help="override the rng_seed from the config")
    state_set = argparse.ArgumentParser(add_help=False)
    state_set.add_argument("config")

    p = sub.add_parser("superpose", parents=[seeded, state_set],
                       help="run the superposition protocol from a config")
    _add_common(p)
    p.set_defaults(func=cmd_superpose)

    p = sub.add_parser("distinguish", parents=[seeded, state_set],
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

    p = sub.add_parser("example", parents=[seeded],
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
        header = {"command": args.command, "timestamp": _timestamp(), **header}
        if args.json:
            # each line is {**header, "run": run}; the header, never empty,
            # is written once
            opening = _json_dumps(header)[:-1] + ',"run":'
            text = "\n".join(opening + _json_dumps(run) + "}"
                             for run in runs) + "\n"
        else:
            text = _yaml_report({**header, "runs": runs})
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ConfigError(f"cannot write report: {exc}")
        else:
            sys.stdout.write(text)
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
