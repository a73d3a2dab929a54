"""Outside-in span recorder.

Layers are traced by replacing a public function with a timing wrapper
in the namespace of the module that calls it (or on the class, for
methods), so no package source changes.  Each span records its name,
start, end, parent span and operation id; spans stay in memory until
the run ends.  A span's self time is its duration minus the durations
of its direct children (calls are nested and single-threaded, so the
children never overlap).
"""

import functools
import gzip
import json
from time import perf_counter


class SpanRecorder:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.ops = []
        self.nested = []          # an enclosing span has the same name
        self.counts = []          # (operation id, counter name, value)
        self._stack = []
        self._active = {}
        self._patches = []
        self._op = -1

    # -- recording -------------------------------------------------------

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self._op)
        self.nested.append(self._active.get(name, 0) > 0)
        self._active[name] = self._active.get(name, 0) + 1
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx):
        self.ends[idx] = perf_counter()
        self._stack.pop()
        self._active[self.names[idx]] -= 1

    def run_op(self, op_id, name, fn):
        """Call fn() as the root span of operation op_id."""
        self._op = op_id
        idx = self._open(name)
        try:
            return fn()
        finally:
            self._close(idx)
            self._op = -1

    def wrap(self, fn, name, count=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = rec._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(idx)
            if count is not None:
                rec.counts.append((rec.ops[idx], *count(args, result)))
            return result

        return traced

    def install(self, targets):
        """targets: (owner, attribute, span name[, count]) tuples."""
        for owner, attr, name, *count in targets:
            orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._patches.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(orig, name, *count))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- analysis ----------------------------------------------------------

    def durations(self):
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self):
        dur = self.durations()
        out = list(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                out[p] -= dur[i]
        return out

    def select(self, ops):
        """Indices of the spans that belong to the given operation ids."""
        ops = set(ops)
        return [i for i, o in enumerate(self.ops) if o in ops]

    def totals(self, idxs):
        """{name: (inclusive seconds, calls, self seconds)} over idxs.

        Inclusive time and calls count only outermost spans of a name,
        so a recursive layer is not counted twice.
        """
        dur = self.durations()
        slf = self.self_times()
        out = {}
        for i in idxs:
            incl, calls, own = out.get(self.names[i], (0.0, 0, 0.0))
            if not self.nested[i]:
                incl += dur[i]
                calls += 1
            out[self.names[i]] = (incl, calls, own + slf[i])
        return out

    def counter_totals(self, ops):
        """{counter name: sum of its values} over the given operation ids."""
        ops = set(ops)
        out = {}
        for op, key, value in self.counts:
            if op in ops:
                out[key] = out.get(key, 0) + value
        return out

    def first_children(self, names):
        """{(parent index, name): first child span of that name}."""
        out = {}
        for j, p in enumerate(self.parents):
            if p >= 0 and self.names[j] in names:
                out.setdefault((p, self.names[j]), j)
        return out

    def write(self, path):
        """All spans as one JSON object of parallel arrays, gzip-compressed."""
        data = {"names": self.names, "starts": self.starts, "ends": self.ends,
                "parents": self.parents, "ops": self.ops}
        with gzip.open(path, "wt") as fh:
            json.dump(data, fh)
