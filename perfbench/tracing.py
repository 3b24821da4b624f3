"""Outside-in tracing of edgehar's public functions.

Tracer.install wraps every function named in the ``__all__`` of the traced
modules, plus the methods in METHODS, in every edgehar namespace that holds
it: ``quantize`` imports ``forward_batch`` by name, so ``quantize.forward_batch``
gets its own wrapper. Nothing inside ``src/`` changes. Each call records a span
(name, start, end, parent span, stage id); generators record one span per
yielded item. Spans stay in memory until ``dump``.

A span's self time is its duration minus the durations of its direct
children. Calls on one thread nest, so the children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import re
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("daq", "model", "train", "quantize", "engine", "persist")
METHODS = (("daq", "Session", "run_until"),)

_WHERE = re.compile(r"branch '([^']+)' layer (\d+)")


def _qconv_name(args, kwargs) -> str:
    where = kwargs.get("where", args[5] if len(args) > 5 else "")
    m = _WHERE.fullmatch(where)
    return f"engine.qconv_layer.{m[1]}.{m[2]}" if m else "engine.qconv_layer"


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


# Span names that take their name from an argument, and functions whose
# frame count (batch size) is recorded with each call.
_NAMERS = {"engine.qconv_layer": _qconv_name}
_FRAMES = {
    "train.backward": lambda a, kw: len(_arg(a, kw, 3, "y")),
    "model.forward_batch": lambda a, kw: len(next(iter(_arg(a, kw, 2, "inputs").values()))),
}


def _name_of(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Tracer:
    """Collects spans from wrapped edgehar functions."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, stage, frames]
        self._stack: list[int] = []
        self.stage_id = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, frames: int = 0) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.stage_id, frames])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def stage(self, call):
        """Run one CLI stage invocation as a root ``cli`` span with a new id."""
        self.stage_id += 1
        idx = self._open("cli")
        try:
            return call()
        finally:
            self._close(idx)

    def _wrap(self, fn):
        name = _name_of(fn)
        namer = _NAMERS.get(name)
        frames_of = _FRAMES.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        idx = tracer._open(name)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            tracer._close(idx)
                        yield item
                finally:
                    gen.close()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(
                namer(args, kwargs) if namer else name,
                frames_of(args, kwargs) if frames_of else 0,
            )
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, package: str = "edgehar") -> None:
        """Wrap the traced functions wherever the package's modules hold them."""
        mods = {n: sys.modules[f"{package}.{n}"] for n in MODULES}
        targets = {}
        for mod in mods.values():
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and _name_of(obj).split(".")[0] in MODULES:
                    targets[id(obj)] = obj
        for fn in targets.values():
            self._restore += patch(package, fn, self._wrap(fn))
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(mods[mod_name], cls_name)
            orig = cls.__dict__[meth]
            self._restore.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(orig))

    def uninstall(self) -> None:
        unpatch(self._restore)

    # -- results -----------------------------------------------------------

    def summary(self, stages: set[int] | None = None) -> dict[str, dict[str, float]]:
        """Per span name: summed self time, call count and frames.

        ``stages`` restricts the summary to the given stage ids.
        """
        child = defaultdict(float)
        for name, t0, t1, parent, stage, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "frames": 0})
        for idx, (name, t0, t1, _, stage, frames) in enumerate(self.spans):
            if stages is not None and stage not in stages:
                continue
            row = out[name]
            row["self_s"] += (t1 - t0) - child[idx]
            row["calls"] += 1
            row["frames"] += frames
        return dict(out)

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, stage."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, stage, _ in self.spans:
                fh.write(json.dumps([name, t0, t1, parent, stage]) + "\n")


def patch(package: str, old, new) -> list[tuple[object, str, object]]:
    """Replace ``old`` by ``new`` in every module of ``package`` that holds it.

    Returns the undo list for ``unpatch``.
    """
    undo = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == package or name.startswith(package + ".")):
            continue
        for attr, obj in list(vars(mod).items()):
            if obj is old:
                undo.append((mod, attr, old))
                setattr(mod, attr, new)
    return undo


def unpatch(undo: list[tuple[object, str, object]]) -> None:
    for holder, attr, obj in reversed(undo):
        setattr(holder, attr, obj)
    undo.clear()


def module_self_times(summary: dict[str, dict[str, float]]) -> dict[str, float]:
    """Self time summed per module (the first component of each span name)."""
    out = defaultdict(float)
    for name, row in summary.items():
        out[name.split(".")[0]] += row["self_s"]
    return dict(out)
