"""In-memory span recorder for the traced benchmark run.

A span is one call across a layer boundary: its layer, start and end
(``time.perf_counter``), the span open around it (its parent, -1 for a
root) and the operation it belongs to.  Spans are kept in flat arrays while
the run goes on and are summarized or written out when it ends.  A layer's
self time is the time of its spans minus the time covered by their child
spans; calls on one thread nest, so the children of a span never overlap.
"""

from __future__ import annotations

import functools
import json
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


class SpanRecorder:
    def __init__(self):
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self.operation = -1  # index of the operation now running
        self._stack = [-1]

    def layer_id(self, name: str) -> int:
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return self._layer_ids[name]

    def open(self, layer_id: int) -> int:
        index = len(self.start)
        self.layer.append(layer_id)
        self.parent.append(self._stack[-1])
        self.op.append(self.operation)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")

    def wrap(self, fn, layer: str, calls: str | None = None, count=None):
        """``fn`` recording one ``layer`` span per call.  ``calls`` names a
        counter raised by every call; ``count(result)`` gives the counts to
        add for a call that returns."""
        layer_id = self.layer_id(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(layer_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
                if calls is not None:
                    self.counts[calls] += 1
            if count is not None:
                self.counts.update(count(result))
            return result

        return traced

    @contextmanager
    def patched(self, targets):
        """Replace each (owner, attribute, layer, calls, count) by its traced
        form for the duration of the block.  A property is traced through
        its getter."""
        saved = []
        try:
            for owner, attr, layer, calls, count in targets:
                original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
                if isinstance(original, property):
                    traced = property(self.wrap(original.fget, layer, calls, count))
                else:
                    traced = self.wrap(original, layer, calls, count)
                setattr(owner, attr, traced)
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Self time per layer, summed over all spans."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * len(dur)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += dur[index]
        out = dict.fromkeys(self.layers, 0.0)
        for index, layer_id in enumerate(self.layer):
            out[self.layers[layer_id]] += dur[index] - covered[index]
        return out

    def root_time(self) -> float:
        """Time of all root spans, which the self times add up to."""
        return sum(e - s for s, e, p in zip(self.start, self.end, self.parent) if p < 0)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"layers": self.layers, "layer": list(self.layer),
                       "parent": list(self.parent), "op": list(self.op),
                       "start": list(self.start), "end": list(self.end)}, fh)
