"""Spans around calls into the waveclust layers, recorded from outside.

``Tracer.install`` replaces every public function of every traced module
with a wrapper that records one span per call: its name
(``<layer>.<function>``), start, end, parent span and thread. The wrapper
is also bound under every other name the package holds for the same
function object (``waveclust.dissimilarity.smooth_spectrum``,
``waveclust.cli.kmeans``, the package's re-exports), so calls between
layers are caught where they cross. ``Tracer.uninstall`` restores the
originals. The benchmark opens its own spans (``step.*``) around the steps
of a workload with ``Tracer.span``.

Spans stay in memory until ``write``. Parents are tracked per thread; the
``ThreadPoolExecutor`` the package's modules use is replaced too, so a task
run on a pool worker is a child of the span that submitted it.
"""

import contextlib
import concurrent.futures
import itertools
import json
import sys
import threading
import time
import types
from collections import defaultdict

#: The layers, in the order the package builds on them. ``rng`` and
#: ``errors`` do no measurable work and stay unwrapped.
LAYERS = ("simulation", "data", "dwt", "cwt", "dissimilarity",
          "feature_selection", "clustering", "evaluation", "io", "cli")


class Tracer:
    """In-memory span recorder for the waveclust layers."""

    def __init__(self):
        self.spans = []  # (span id, parent id, name, start, end, thread)
        self.bytes_written = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched = []  # (namespace, attribute, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end,
                               threading.get_ident()))

    def _wrap(self, name, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, start, end,
                                     threading.get_ident()))
                if after is not None:
                    after(args)

        return wrapper

    def _pool(self):
        """A ThreadPoolExecutor whose tasks run as children of the span
        that submitted them."""
        tracer = self
        base = concurrent.futures.ThreadPoolExecutor

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else 0

                def task(*task_args, **task_kwargs):
                    local = tracer._stack()
                    local.append(parent)
                    try:
                        return fn(*task_args, **task_kwargs)
                    finally:
                        local.pop()

                return super().submit(task, *args, **kwargs)

        return TracedPool

    def _count_written(self, args):
        """Bytes of the file an ``io.write_*`` call just wrote."""
        try:
            with open(args[0], "rb") as handle:
                self.bytes_written += handle.seek(0, 2)
        except (OSError, TypeError, IndexError):
            pass

    def install(self):
        """Wrap the public functions of every layer, wherever bound."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        namespaces = [m for key, m in sorted(sys.modules.items())
                      if key == "waveclust" or key.startswith("waveclust.")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"waveclust.{layer}"]
            for attr, obj in vars(module).items():
                if (attr.startswith("_")
                        or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != module.__name__):
                    continue
                after = (self._count_written
                         if layer == "io" and attr.startswith("write_")
                         else None)
                wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj, after)
        wrappers[id(concurrent.futures.ThreadPoolExecutor)] = self._pool()
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((namespace, attr, obj))
                    setattr(namespace, attr, wrapper)

    def uninstall(self):
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched = []

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def summary(self):
        """Per span name: call count, inclusive seconds and self seconds.

        A span's self time is its duration minus the part of it that its
        direct children cover; children running at once on pool threads
        count once.
        """
        children = defaultdict(list)
        for sid, parent, name, start, end, _ in self.spans:
            if parent:
                children[parent].append((start, end))
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        for sid, parent, name, start, end, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - _covered(children.get(sid, ()))
        return calls, total, own

    def total_under(self, name, ancestor):
        """Seconds in spans called ``name`` that run inside a span called
        ``ancestor``."""
        by_id = {s[0]: s for s in self.spans}
        total = 0.0
        for sid, parent, span_name, start, end, _ in self.spans:
            if span_name != name:
                continue
            while parent and by_id[parent][2] != ancestor:
                parent = by_id[parent][1]
            if parent:
                total += end - start
        return total

    def write(self, path, meta):
        """Write every span, one JSON object per line, after a header."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"meta": meta, "bytes_written":
                                     self.bytes_written}) + "\n")
            for sid, parent, name, start, end, thread in sorted(
                    self.spans, key=lambda s: s[3]):
                handle.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": round(start - origin, 9),
                    "end": round(end - origin, 9), "thread": thread,
                }) + "\n")


def _covered(intervals):
    """Length of the union of ``(start, end)`` intervals."""
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


def maybe_span(tracer, name):
    """``tracer.span(name)``, or a no-op when the round is untraced."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name)
