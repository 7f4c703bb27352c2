"""In-memory span recording around calls into the program's layers.

The traced run installs wrappers from this file around public functions
of each layer (selector, contextualizer, label model, end model, engine
commands, checkpoint I/O, data generation) and removes them afterwards;
nothing under ``src/`` changes.  A span records its name, start, end and
the span that was open on the same thread when it began.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from perfbench.arith import self_time


@dataclass
class Span:
    name: str
    start: float
    end: float | None = None
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; patches layer functions while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        span = Span(name, time.perf_counter(), parent=stack[-1] if stack else None, attrs=attrs)
        self.spans.append(span)
        stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn, annotate=None):
        """``fn`` recording a span per call; ``annotate(span, self_arg)``
        may add attributes after the call returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    annotate(span, args[0] if args else None)
                return result

        return traced

    def patch(self, owner, attr: str, name: str, annotate=None) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by a traced
        wrapper until :meth:`unpatch`."""
        own = vars(owner).get(attr)
        self._patches.append((owner, attr, own))
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), annotate))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    @contextmanager
    def installed(self, targets):
        """Patch every ``(owner, attr, name[, annotate])`` target for the
        duration of the block."""
        try:
            for target in targets:
                self.patch(*target)
            yield self
        finally:
            self.unpatch()

    # ------------------------------------------------------------------ #
    # reading the spans back
    # ------------------------------------------------------------------ #
    def named(self, prefix: str) -> list[Span]:
        return [s for s in self.spans if s.name.startswith(prefix)]

    def total_s(self, prefix: str) -> float:
        return sum(s.seconds for s in self.named(prefix))

    def breakdown(self, root_prefix: str) -> dict:
        """Time of root spans split into direct children by name, plus self.

        Returns ``{"roots": n, "root_s": total, "self_s": total,
        "child_spans": {name: [Span]}}`` over every span whose name starts
        with ``root_prefix`` and whose parent is not itself such a span.
        """
        roots = [
            i
            for i, s in enumerate(self.spans)
            if s.name.startswith(root_prefix)
            and (s.parent is None or not self.spans[s.parent].name.startswith(root_prefix))
        ]
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {"roots": len(roots), "root_s": 0.0, "self_s": 0.0, "child_spans": {}}
        for i in roots:
            root = self.spans[i]
            kids = children.get(i, [])
            out["root_s"] += root.seconds
            out["self_s"] += self_time(root.start, root.end, [(k.start, k.end) for k in kids])
            for k in kids:
                out["child_spans"].setdefault(k.name, []).append(k)
        return out
