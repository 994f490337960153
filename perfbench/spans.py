"""In-memory spans around calls into the package's public functions.

The benchmark records spans from its own files only: :class:`Tracer` swaps a
module attribute (or a class method) for a wrapper that opens a span, calls
the original and closes the span.  Each span keeps its name, start, end,
parent span and the equation it belongs to; spans stay in memory until the
run ends and :meth:`Tracer.dump` writes them out.

A span's self time is its duration minus the time its direct children
cover, so self times of all spans inside one equation add up to the time
the equation spent inside traced calls.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    """Span recorder; inert until :meth:`install` patches the targets."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one row per span: [name id, start s, end s, parent index, equation]
        self.spans: list[list] = []
        self.payloads: dict[int, tuple] = {}  # span index -> (args, result)
        self.capture: set[str] = set()  # span names whose (args, result) are kept
        self.equation: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- recording ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self._name_id(name), self.clock(), None, parent, self.equation])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def parent_name(self) -> str | None:
        if not self._stack:
            return None
        return self.names[self.spans[self._stack[-1]][0]]

    def wrap(self, fn, name: str, only_under: str | None = None):
        """A wrapper of ``fn`` that records one span per call.

        With ``only_under`` the span is recorded only when the innermost open
        span has that name; other calls pass straight through.
        """
        tracer = self

        def traced(*args, **kwargs):
            if only_under is not None and tracer.parent_name() != only_under:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if name in tracer.capture:
                tracer.payloads[idx] = (args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching -------------------------------------------------------

    def install(self, targets) -> list[str]:
        """Patch ``(owner, attribute, span name, only_under)`` targets.

        A target whose attribute is missing (for a class: not defined on the
        class itself) raises ``AttributeError`` with every target patched so
        far restored, so a renamed function cannot make its span read 0.
        Returns the span names that were installed.
        """
        installed = []
        for owner, attr, name, only_under in targets:
            original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if original is None:
                self.uninstall()
                raise AttributeError(f"span {name}: {getattr(owner, '__name__', owner)}.{attr} not found")
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, only_under))
            installed.append(name)
        return installed

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis -------------------------------------------------------

    def span_name(self, idx: int) -> str:
        return self.names[self.spans[idx][0]]

    def self_times(self, weights: dict, duration=lambda start, end: end - start) -> dict:
        """Self seconds per span name, summed over the spans of some equations.

        ``weights`` maps each equation id to include onto a factor that its
        spans' self times are multiplied by (1.0 for plain wall time);
        ``duration(start, end)`` gives a span's length.
        """
        length = {}
        child = defaultdict(float)
        for idx, (_nid, start, end, parent, eq) in enumerate(self.spans):
            if eq in weights:
                length[idx] = duration(start, end)
                if parent is not None:
                    child[parent] += length[idx]
        totals: dict[str, float] = defaultdict(float)
        for idx, span_len in length.items():
            row = self.spans[idx]
            totals[self.names[row[0]]] += (span_len - child[idx]) * weights[row[4]]
        return dict(totals)

    def covered(self, weights: dict, duration=lambda start, end: end - start) -> float:
        """Weighted length of the top-level spans of the given equations."""
        return sum(
            duration(row[1], row[2]) * weights[row[4]]
            for row in self.spans
            if row[3] is None and row[4] in weights
        )

    def dump(self, path) -> None:
        """Write the names table and every span as compact JSON."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "equation"],
                    "names": self.names,
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )
