"""In-memory span recorder for the benchmark.

A span is a named interval with the index of the span that was open when
it started (its parent, or -1).  Spans stay in memory; the caller writes
them out once, at the end of a run.  ``instrument`` wraps functions of the
program so that every call opens a span, and puts the original functions
back on exit, so code that runs outside the ``with`` block is never traced.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

NO_PARENT = -1


class Recorder:
    """Spans as parallel lists: name, start, end and parent index."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._open = []

    def __len__(self):
        return len(self.names)

    def open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else NO_PARENT)
        self.ends.append(None)
        self._open.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx):
        self.ends[idx] = self.clock()
        if self._open.pop() != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    @contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def duration(self, idx):
        return self.ends[idx] - self.starts[idx]

    def children(self):
        """Child span indices per span, in start order."""
        kids = [[] for _ in self.names]
        for idx, parent in enumerate(self.parents):
            if parent != NO_PARENT:
                kids[parent].append(idx)
        return kids

    def self_times(self):
        """Per span: its duration minus the durations of its direct children.

        Children of one span run one after another on one thread, so their
        durations never overlap and their sum is the time they cover.
        """
        out = [self.duration(i) for i in range(len(self))]
        for idx, parent in enumerate(self.parents):
            if parent != NO_PARENT:
                out[parent] -= self.duration(idx)
        return out

    def ancestors(self, idx):
        parent = self.parents[idx]
        while parent != NO_PARENT:
            yield parent
            parent = self.parents[parent]

    def busy(self):
        """Per name: (calls, busy seconds, self seconds).

        Busy time counts a span only when no ancestor has the same name, so
        recursive calls are not counted twice.
        """
        selfs = self.self_times()
        out = {}
        for idx, name in enumerate(self.names):
            calls, busy, own = out.get(name, (0, 0.0, 0.0))
            if not any(self.names[a] == name for a in self.ancestors(idx)):
                busy += self.duration(idx)
            out[name] = (calls + 1, busy, own + selfs[idx])
        return out

    def to_json(self):
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
            ],
            "busy": {k: {"calls": c, "s": b, "self_s": o} for k, (c, b, o) in sorted(self.busy().items())},
        }


def traced_function(recorder, name, fn):
    """``fn`` with a span named ``name`` around each call."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = recorder.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(idx)

    return traced


@contextmanager
def instrument(recorder, functions, namespaces):
    """Open a span on every call of the given functions while inside the block.

    ``functions`` maps a span name to ``(owner, attribute)``; the owner is a
    module or a class.  A module function is replaced wherever one of
    ``namespaces`` (modules) holds a reference to it, so names bound by
    ``from module import function`` are traced too; a method is replaced
    on its class.  Every replaced attribute is restored on exit.
    """
    patches = []
    try:
        for name, (owner, attr) in functions.items():
            original = vars(owner)[attr]
            traced = traced_function(recorder, name, original)
            holders = [owner] if isinstance(owner, type) else namespaces
            for holder in holders:
                for key, val in list(vars(holder).items()):
                    if val is original:
                        patches.append((holder, key, val))
                        setattr(holder, key, traced)
        yield patches
    finally:
        for holder, key, val in reversed(patches):
            setattr(holder, key, val)
