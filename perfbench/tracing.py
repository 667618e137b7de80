"""Per-layer tracing from outside the package.

`Tracer.install()` replaces every public function of the traced gbei
modules with a timing wrapper, in every gbei module namespace that binds
it: `report` and `ideals` import `classify`, `cut_set_census`, `buchberger`
and others by name, and `poly` reaches `normal_form` through its own
globals, so patching only the defining module would miss most calls.
`Tracer.restore()` puts the originals back.

Each call is one span (function id, start, end, parent span).  Spans stay
in memory and are written out by `write_spans` when the run ends.  A stack
of open spans gives self time: a span's duration minus the durations of
its direct children.  Generator functions get one span per `next()`.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter_ns

LAYERS = ("cli", "report", "graphs", "ideals", "poly", "homology")


class Stat:
    __slots__ = ("calls", "total_ns", "self_ns", "nonzero", "yielded")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.nonzero = 0
        self.yielded = 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.stats: list[Stat] = []
        # flat span records: function id, start ns, end ns, parent span index
        self.spans = array("q")
        self._stack: list[list[int]] = []  # [span index, child ns]
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, fid: int) -> list[int]:
        index = len(self.spans) // 4
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.extend((fid, perf_counter_ns(), 0, parent))
        frame = [index, 0]
        self._stack.append(frame)
        return frame

    def _close(self, fid: int, frame: list[int]) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        base = frame[0] * 4
        self.spans[base + 2] = end
        duration = end - self.spans[base + 1]
        stat = self.stats[fid]
        stat.calls += 1
        stat.total_ns += duration
        stat.self_ns += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        self.stats.append(Stat())
        stat = self.stats[fid]

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = self._open(fid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(fid, frame)
                    stat.yielded += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open(fid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(fid, frame)
            if result:
                stat.nonzero += 1
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every traced layer."""
        modules = [sys.modules[f"gbei.{layer}"] for layer in LAYERS]
        namespaces = [m for key, m in list(sys.modules.items()) if key == "gbei" or key.startswith("gbei.")]
        for layer, mod in zip(LAYERS, modules):
            for attr, fn in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patched.append((ns, key, fn))
                            setattr(ns, key, wrapper)

    def restore(self) -> None:
        for ns, key, fn in reversed(self._patched):
            setattr(ns, key, fn)
        self._patched.clear()

    def stat(self, name: str) -> Stat:
        return self.stats[self.names.index(name)]

    def layer_self_ns(self, layer: str) -> int:
        return sum(s.self_ns for n, s in zip(self.names, self.stats) if n.split(".")[0] == layer)

    def write_spans(self, path) -> None:
        """Binary span dump: a header line naming the functions in id order,
        then native int64 quadruples (function id, start ns, end ns, parent
        span index, -1 for a root)."""
        with open(path, "wb") as fh:
            fh.write(("\t".join(self.names) + "\n").encode())
            self.spans.tofile(fh)
