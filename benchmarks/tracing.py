"""Span tracing of ctcsim's public functions, installed from outside.

The program carries no instrumentation.  :class:`Tracer` replaces each
public function of the traced modules with a wrapper at every module
binding in the ``ctcsim`` package (``cli.run_protocol``,
``superpose.distinguish``, ``deutsch.superoperator_matrix``, ...), so
calls inside the package are seen as well as calls from the CLI.

A span is ``[name, start, end, parent, detail]``; `parent` is the index
of the enclosing span in the same round or -1, and `detail` holds the
few per-call facts the layer metrics need (policy, an input
fingerprint, bytes of the result).  Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

PACKAGE = "ctcsim"
# traced layers; from cli only its entry point, so that config parsing,
# validation and report rendering count as cli.main's own time
LAYERS = ("cli", "superpose", "discrimination", "deutsch", "linalg")
_CLI_ENTRY = ("main",)


def _fingerprint(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(np.asarray(a, dtype=complex))
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _fixed_point_detail(args: dict) -> dict:
    return {"tag": args["policy"],
            "key": _fingerprint(args["u"], args["rho_cr"])}


def _distinguisher_detail(args: dict) -> dict:
    return {"key": _fingerprint(*args["states"])}


# facts taken from the bound arguments before the call, and from the result
_BEFORE = {
    "deutsch.fixed_point": _fixed_point_detail,
    "discrimination.build_distinguisher": _distinguisher_detail,
}
_AFTER = {
    "deutsch.superoperator_matrix": lambda out: {"bytes": np.asarray(out).nbytes},
    "superpose.build_u_prime": lambda out: {"bytes": np.asarray(out).nbytes},
}


class Tracer:
    """Wraps ctcsim's public functions and records one span per call."""

    def __init__(self):
        self.spans: list[list] = []
        self.rounds: list[list[list]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _targets(self) -> dict[object, str]:
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            names = _CLI_ENTRY if layer == "cli" else [
                name for name, obj in vars(mod).items()
                if inspect.isfunction(obj) and not name.startswith("_")
                and obj.__module__ == mod.__name__
            ]
            for name in names:
                targets[getattr(mod, name)] = f"{layer}.{name}"
        return targets

    def _wrap(self, fn, name: str):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        signature = inspect.signature(fn)
        stack = self._stack

        def traced(*args, **kwargs):
            detail = None
            if before is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                detail = before(bound.arguments)
            spans = self.spans
            idx = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, detail]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter()
            if after is not None:
                span[4] = {**(detail or {}), **after(out)}
            return out

        return traced

    def install(self) -> None:
        """Patch every binding of every traced function in the package."""
        targets = self._targets()
        wrappers = {fn: self._wrap(fn, name) for fn, name in targets.items()}
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(obj) if callable(obj) else None
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def start_round(self) -> None:
        self.spans = []

    def end_round(self) -> None:
        self.rounds.append(self.spans)
        self.spans = []

    def write(self, path: Path) -> None:
        """Write every recorded span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for r, spans in enumerate(self.rounds):
                for name, start, end, parent, detail in spans:
                    fh.write(json.dumps({
                        "round": r, "name": name, "start": start, "end": end,
                        "parent": parent, "detail": detail,
                    }) + "\n")


def round_stats(spans: list[list]) -> dict[str, float]:
    """Per-function statistics of one round of spans.

    For each span name: ``calls``, ``total_s`` and ``self_s`` (duration
    minus the duration of direct children); ``<tag>.self_s`` split by
    policy where recorded; ``useful_ratio`` (distinct input fingerprints
    over calls) and ``bytes_computed`` where recorded.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats: dict[str, float] = defaultdict(float)
    keys: dict[str, set] = defaultdict(set)
    for i, (name, start, end, _, detail) in enumerate(spans):
        own = end - start - child[i]
        stats[f"{name}.calls"] += 1
        stats[f"{name}.total_s"] += end - start
        stats[f"{name}.self_s"] += own
        if detail:
            if "tag" in detail:
                stats[f"{name}.{detail['tag']}.self_s"] += own
            if "key" in detail:
                keys[name].add(detail["key"])
            if "bytes" in detail:
                stats[f"{name}.bytes_computed"] += detail["bytes"]
    for name, distinct in keys.items():
        stats[f"{name}.useful_ratio"] = len(distinct) / stats[f"{name}.calls"]
    return dict(stats)
