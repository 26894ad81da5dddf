"""In-memory span recorder for the traced run.

A span has a name, start and end (``time.perf_counter`` seconds), the id
of the span open around it, and an optional replicate id shared by every
span of one ROC replicate.  Spans stay in memory and are written once, at
the end of the run.  The layer of a span is the part of its name before
the first dot (``scoring.arc_posterior_from_counts`` -> ``scoring``).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    rep: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects nested spans; the innermost open span is the parent."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, rep: str | None = None):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[sid] = Span(sid, name, start, end, parent, rep)

    def closed(self) -> list[Span]:
        if self._open:
            raise RuntimeError(f"{len(self._open)} spans still open")
        return self.spans  # type: ignore[return-value]

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        spans = self.closed()
        child = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        return {s.id: s.duration - child[s.id] for s in spans}

    def write(self, fh, **tags) -> None:
        """One JSON object per span, with ``tags`` added to each."""
        for s in self.closed():
            fh.write(json.dumps({**tags, **asdict(s)}) + "\n")
