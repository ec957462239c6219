"""Span recorder for the traced benchmark rounds, and its reduction.

The program is traced from outside: each function at a layer boundary is
replaced, at the module attribute where its caller looks it up, by a
wrapper that records one span per call.  A span is (name, start, end,
parent, thread); a per-thread parent stack makes spans nest correctly on
the suite's pool threads.  Spans stay in per-thread integer arrays in
memory and are written out once, when the round ends.

``reduce_spans`` turns the written spans into per-layer figures: calls,
busy time, self time (a span's duration minus the time its child spans
cover) and the split of calls and busy time by parent span.
"""

import threading
import time
from array import array

import numpy as np

ROOT = "<root>"


class _ThreadBuffer:
    def __init__(self, thread_index):
        self.thread = thread_index
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.stack = []
        self.counters = {}


class Tracer:
    """Records spans and counters from wrapped program functions."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._local = threading.local()
        self._buffers = []
        self._lock = threading.Lock()
        self._patched = []

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _ThreadBuffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key, n=1):
        """Add ``n`` to a counter of the calling thread."""
        c = self._buffer().counters
        c[key] = c.get(key, 0) + n

    def wrap(self, module, attr, name, observe=None):
        """Replace ``module.attr`` by a span-recording wrapper.

        ``observe(tracer, args, result)`` runs after a call returns, outside
        the span, to record counters from the arguments or the result.
        """
        fn = getattr(module, attr)
        sid = self._name_id(name)
        clock = time.perf_counter_ns
        buffer = self._buffer

        def traced(*args, **kwargs):
            buf = buffer()
            idx = len(buf.start)
            buf.name.append(sid)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.end.append(0)
            buf.stack.append(idx)
            buf.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[idx] = clock()
                buf.stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def restore(self):
        """Put every wrapped attribute back."""
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def span_count(self):
        return sum(len(b.start) for b in self._buffers)

    def counters(self):
        total = {}
        for b in self._buffers:
            for k, v in b.counters.items():
                total[k] = total.get(k, 0) + v
        return total

    def save(self, path):
        """Write all spans to one ``.npz``; parents index within a thread."""
        cols = {"name": [], "start": [], "end": [], "parent": [],
                "thread": []}
        for b in self._buffers:
            n = len(b.start)
            cols["name"].append(np.frombuffer(b.name, dtype=np.int64))
            cols["start"].append(np.frombuffer(b.start, dtype=np.int64))
            cols["end"].append(np.frombuffer(b.end, dtype=np.int64))
            cols["parent"].append(np.frombuffer(b.parent, dtype=np.int64))
            cols["thread"].append(np.full(n, b.thread, dtype=np.int64))
        arrays = {k: (np.concatenate(v) if v else np.empty(0, np.int64))
                  for k, v in cols.items()}
        np.savez(path, names=np.array(self.names, dtype=str), **arrays)


def reduce_spans(path):
    """Per-layer figures from a saved span file.

    Returns ``{name: {"calls", "busy_s", "self_s", "by_parent":
    {parent_name: {"calls", "busy_s"}}}}``.  Parent indices are local to
    a thread, so they are shifted by each thread's offset first.
    """
    with np.load(path) as f:
        names = [str(n) for n in f["names"]]
        name = f["name"]
        dur = (f["end"] - f["start"]).astype(np.float64) * 1e-9
        parent = f["parent"].copy()
        thread = f["thread"]
    n = name.shape[0]
    if n:
        # spans of one thread are contiguous; make parents global indices
        starts = np.searchsorted(thread, np.arange(thread.max() + 1))
        has = parent >= 0
        parent[has] += starts[thread[has]]
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=n)
    self_t = dur - child
    pname = np.where(has, name[np.where(has, parent, 0)], -1)
    out = {}
    for sid, label in enumerate(names):
        mine = name == sid
        if not mine.any():
            continue
        split = {}
        for pid in np.unique(pname[mine]):
            sel = mine & (pname == pid)
            key = ROOT if pid < 0 else names[pid]
            split[key] = {"calls": int(sel.sum()),
                          "busy_s": float(dur[sel].sum())}
        out[label] = {"calls": int(mine.sum()),
                      "busy_s": float(dur[mine].sum()),
                      "self_s": float(self_t[mine].sum()),
                      "by_parent": split}
    return out
