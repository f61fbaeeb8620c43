"""Spans recorded from outside ppc, by wrapping the public names it calls.

`Tracer.patch_function` replaces a function in every module namespace that
binds it (synthesis, evaluation and cli import helpers by name, so
patching the defining module alone would miss their calls). Methods are
wrapped on their class or instance. Each span records its name, start,
end, parent, the item it belongs to and whether it raised. Spans live in
per-thread arrays with a thread-local parent stack, so recording takes no
lock; they are written out after the run.

A span's self time is its duration minus the time its direct children
cover. Children share their parent's thread and nest inside it, so that
is the sum of their durations.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import threading
import time
from array import array
from dataclasses import dataclass, field

_clock = time.perf_counter


class _ThreadSpans:
    def __init__(self, thread: int):
        self.thread = thread
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.failed = array("b")
        self.stack: list[int] = []
        self.current_item = -1

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.item.append(self.current_item)
        self.failed.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(_clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _clock()
        self.stack.pop()


@dataclass
class SpanStats:
    durations: list = field(default_factory=list)
    self_times: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    ends: list = field(default_factory=list)
    failed: int = 0

    @property
    def count(self) -> int:
        return len(self.durations)

    def median_us(self) -> float:
        return 1e6 * statistics.median(self.durations) if self.durations else 0.0


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadSpans] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.items: list[str] = []
        self._item_ids: dict[str, int] = {}
        self._patches: list[tuple] = []

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            with self._lock:
                spans = _ThreadSpans(len(self._threads))
                self._threads.append(spans)
            self._local.spans = spans
        return spans

    def _intern(self, table: list, ids: dict, key: str) -> int:
        with self._lock:
            if key not in ids:
                ids[key] = len(table)
                table.append(key)
            return ids[key]

    def set_item(self, item: str) -> None:
        """Later spans on this thread belong to `item` until it is set again."""
        self._spans().current_item = self._intern(self.items, self._item_ids, item)

    def wrap(self, fn, name: str, item_of=None):
        name_id = self._intern(self.names, self._name_ids, name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer._spans()
            if item_of is not None:
                item = item_of(*args, **kwargs)
                if item is not None:
                    tracer.set_item(item)
            idx = spans.open(name_id)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                spans.failed[idx] = 1
                raise
            finally:
                spans.close(idx)

        return traced

    @contextlib.contextmanager
    def span(self, name: str, item: str | None = None):
        if item is not None:
            self.set_item(item)
        spans = self._spans()
        idx = spans.open(self._intern(self.names, self._name_ids, name))
        try:
            yield
        except BaseException:
            spans.failed[idx] = 1
            raise
        finally:
            spans.close(idx)

    # --- patching ------------------------------------------------------------

    def patch_function(self, module_name: str, attr: str, name: str, item_of=None) -> None:
        """Wrap `module.attr` in every loaded ppc module that binds it."""
        original = getattr(sys.modules[module_name], attr)
        traced = self.wrap(original, name, item_of)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "ppc" or mod_name.startswith("ppc."):
                if mod.__dict__.get(attr) is original:
                    self._patches.append((mod, attr, original, True))
                    setattr(mod, attr, traced)

    def patch_attr(self, owner, attr: str, name: str, item_of=None) -> None:
        """Wrap a method on its class, or a bound method on one instance."""
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        self._patches.append((owner, attr, original, had_own))
        setattr(owner, attr, self.wrap(original, name, item_of))

    def restore(self) -> None:
        for owner, attr, original, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # --- results ---------------------------------------------------------------

    def stats(self) -> dict[str, SpanStats]:
        out: dict[str, SpanStats] = {}
        for spans in self._threads:
            n = len(spans.name)
            child = [0.0] * n
            for i in range(n):
                p = spans.parent[i]
                if p >= 0:
                    child[p] += spans.end[i] - spans.start[i]
            for i in range(n):
                st = out.setdefault(self.names[spans.name[i]], SpanStats())
                dur = spans.end[i] - spans.start[i]
                st.durations.append(dur)
                st.self_times.append(dur - child[i])
                st.starts.append(spans.start[i])
                st.ends.append(spans.end[i])
                st.failed += spans.failed[i]
        return out

    def span_count(self) -> int:
        return sum(len(s.name) for s in self._threads)

    def write(self, path) -> None:
        """One header line, then `thread,name,start,end,parent,item,failed` rows."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"# names={self.names!r} items={len(self.items)}\n")
            for s in self._threads:
                f.writelines(
                    f"{s.thread},{s.name[i]},{s.start[i]:.9f},{s.end[i]:.9f},"
                    f"{s.parent[i]},{s.item[i]},{s.failed[i]}\n"
                    for i in range(len(s.name))
                )


class NullTracer:
    """Tracing off: the benchmark's own span sites cost one no-op call."""

    def span(self, name: str, item: str | None = None):
        return contextlib.nullcontext()
