"""Spans recorded from outside the program, around its public functions.

Each wrapped call appends one span (name, start, end, parent) to flat
arrays kept in memory; counts and self times are derived from them and the
spans are written out beside them.
"""

from __future__ import annotations

import functools
import json
import time
from array import array


class Tracer:
    """Spans go to flat arrays; flush() (called between operations, when no
    span is open) folds them into per-name counts and self times and
    appends them to the spans file, so memory stays bounded."""

    def __init__(self, path):
        self.path = path
        self.names = []
        self.name_id = {}
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.extra = {}  # exact counts other than calls
        self.totals = {}  # name id -> [calls, self seconds]
        self._offset = 0  # index of the first span held in the arrays
        self._stack = []
        self._out = open(path + ".bin", "wb")

    def _id(self, name):
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def add(self, key, value):
        self.extra[key] = self.extra.get(key, 0) + value

    def wrap(self, name, fn, on_call=None):
        """Return fn wrapped in a span; on_call(tracer, args, result) may
        add exact counts."""
        nid = self._id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.kind)
            self.kind.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(self._offset + idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self.start[idx] = t0
                stack.pop()
            if on_call is not None:
                on_call(self, args, result)
            return result

        return traced

    def patch(self, owners, attr, name, on_call=None):
        """Replace attr on every owner (module or class) by one traced
        function, so calls through any imported alias are recorded."""
        traced = self.wrap(name, getattr(owners[0], attr), on_call)
        for owner in owners:
            setattr(owner, attr, traced)

    def pending(self):
        return len(self.kind)

    def flush(self):
        """Fold the held spans into the totals and append them to the spans
        file as one chunk: a uint32 count, then kind and parent (int32) and
        start and end (float64 seconds) arrays.  A span's self time is its
        duration minus the time its direct children cover."""
        if self._stack:
            raise RuntimeError("flush with a span open")
        n, base = len(self.kind), self._offset
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p - base] += self.end[i] - self.start[i]
        for i in range(n):
            row = self.totals.setdefault(self.kind[i], [0, 0.0])
            row[0] += 1
            row[1] += self.end[i] - self.start[i] - child[i]
        self._out.write(array("I", [n]).tobytes())
        for arr in (self.kind, self.parent, self.start, self.end):
            arr.tofile(self._out)
            del arr[:]
        self._offset += n

    def summary(self):
        """{name: {"calls": int, "self_ms": float}} over every span."""
        return {
            self.names[k]: {"calls": calls, "self_ms": secs * 1e3}
            for k, (calls, secs) in self.totals.items()
        }

    def close(self):
        """Flush, then write the names, counts and self times as JSON."""
        self.flush()
        self._out.close()
        with open(self.path + ".json", "w", encoding="utf-8") as fh:
            json.dump(
                {"names": self.names, "layers": self.summary(), "counts": self.extra},
                fh,
                indent=1,
            )


def read(path):
    """Every span of a spans file: (kind, parent, start, end) arrays; kind
    indexes the names in the JSON file beside it."""
    out = [array("i"), array("i"), array("d"), array("d")]
    with open(path, "rb") as fh:
        while True:
            head = fh.read(4)
            if not head:
                return out
            (n,) = array("I", head)
            for arr in out:
                arr.fromfile(fh, n)


def install(tracer):
    """Wrap the layer boundaries named in the benchmark's layer table."""
    from sixthgroups import coding, graphs, presentation, randomgraph, reduction, words
    import sixthgroups

    P = presentation.Presentation
    CT = coding.CodingTable

    def letters_in(t, args, result):
        t.add("presentation.dehn_reduce.letters_in", len(args[1]))

    def found(t, args, result):
        t.add("reduction.aut_canonical_check.found", result is not None)

    def accepted(t, args, result):
        t.add("coding.sigma_ns_nonempty.accepted", bool(result[0]))

    def max_vertex(t, args, result):
        t.extra["randomgraph.max_vertex"] = max(
            t.extra.get("randomgraph.max_vertex", 0), *result.values()
        )

    tracer.patch([words, presentation, reduction], "reduce_word", "words.reduce_word")
    tracer.patch(
        [reduction, coding, sixthgroups], "relators_from_graph", "presentation.build"
    )
    for method in ("dehn_reduce", "order", "cyclic_dehn_reduce", "equal"):
        tracer.patch(
            [P], method, f"presentation.{method}",
            letters_in if method == "dehn_reduce" else None,
        )
    tracer.patch([reduction], "aut_canonical_check", "reduction.aut_canonical_check", found)
    tracer.patch([reduction], "is_homomorphism", "reduction.is_homomorphism")
    tracer.patch([graphs, reduction, coding], "automorphisms", "graphs.automorphisms")
    for method in ("enumerate_to", "code_of", "word_of", "star"):
        tracer.patch([CT], method, f"coding.{method}")
    tracer.patch([coding], "sigma_ns_nonempty", "coding.sigma_ns_nonempty", accepted)
    for fn in ("nth_prime", "prime_factors", "prime_index", "extension_witness"):
        tracer.patch([randomgraph], fn, f"randomgraph.{fn}")
    tracer.patch([randomgraph], "embed_graph", "randomgraph.embed_graph", max_vertex)
