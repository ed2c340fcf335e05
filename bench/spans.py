"""Spans recorded by the benchmark around its calls into each layer.

Kept in memory and written as Chrome-trace JSON when the workload ends.
Nothing inside ``src/repro`` is instrumented: a layer's self time is the
difference between spans that include it and spans that do not.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "cell")

    def __init__(self, name: str, parent: Optional[int], cell: Optional[str]):
        self.name = name
        self.parent = parent
        self.cell = cell
        self.start = 0.0
        self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Spans:
    """Span recorder for one workload process.

    With ``keep`` false a span is still timed for its caller but not
    recorded: the untraced run shares the code and keeps nothing."""

    def __init__(self, workload: str, keep: bool) -> None:
        self.workload = workload
        self.keep = keep
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, cell: Optional[str] = None) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        s = Span(name, parent, cell)
        if self.keep:
            self._open.append(len(self.spans))
            self.spans.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            if self.keep:
                self._open.pop()

    def durations(self, name: str) -> List[float]:
        return [s.duration for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def write_chrome_trace(self, path: Path) -> None:
        events = [
            {
                "name": s.name,
                "ph": "X",
                "ts": s.start * 1e6,
                "dur": s.duration * 1e6,
                "pid": self.workload,
                "tid": 0,
                "args": {"id": i, "parent": s.parent, "cell": s.cell,
                         "workload": self.workload},
            }
            for i, s in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))
