"""Spans around the public functions of the artifact modules.

`install` rebinds every public function in the artifact module namespaces
(the package itself included) to one wrapper per function object, so calls
made through any binding, and calls between modules or inside one module,
are all recorded.  Spans are kept in memory as
[name, start, end, parent index, attrs] and written out at the end of a pass.
A span is named after the module that defines the function, which is its
layer: "condensation.boundary_character", "characters.snap_value".
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = (
    "groups",
    "characters",
    "quantum_double",
    "cocycles",
    "condensation",
    "modular",
    "lattice",
    "serialize",
    "cli",
)


def _stack_bytes(args, out):
    return {"bytes": int(out.nbytes), "key": [args[0].label, list(out.shape)]}


def _character_bytes(args, out):
    return {"bytes": int(out.values.nbytes)}


def _fusion_size(args, out):
    return {"anyons": int(out.shape[0])}


def _patch_dims(args, out):
    return {"dims": [int(d) for d in args[0].dims]}


# Attributes read off a span's arguments and result, for the floors and the
# computed array sizes.
ATTRS = {
    "quantum_double.character_stack": _stack_bytes,
    "condensation.boundary_character": _character_bytes,
    "quantum_double.fusion_verlinde": _fusion_size,
    "lattice.apply_ribbon": _patch_dims,
}


class Recorder:
    """In-memory span list for one pass; recording is paused while `active` is False."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[list] = []
        self.active = True
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, out)
            return out

        return traced

    def write(self, fh) -> None:
        for i, (name, start, end, parent, attrs) in enumerate(self.spans):
            row = {"run": self.run_id, "id": i, "name": name, "start": start,
                   "end": end, "parent": parent}
            if attrs:
                row["attrs"] = attrs
            fh.write(json.dumps(row) + "\n")


def install(recorder: Recorder) -> None:
    """Wrap every public artifact function wherever it is bound."""
    modules = [importlib.import_module("artifact")]
    modules += [importlib.import_module(f"artifact.{layer}") for layer in LAYERS]
    wrapped: dict = {}
    for module in modules:
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            home = value.__module__.split(".")
            if home[0] != "artifact" or len(home) != 2:
                continue
            if value not in wrapped:
                wrapped[value] = recorder.wrap(value, f"{home[1]}.{value.__name__}")
            setattr(module, attr, wrapped[value])


def self_times(spans) -> list[float]:
    """Per span: its duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def outermost(spans) -> list[bool]:
    """Per span: True when no ancestor has the same name (recursion counted once)."""
    out = []
    for name, _, _, parent, _ in spans:
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        out.append(parent < 0)
    return out
