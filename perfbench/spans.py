"""In-memory spans recorded around calls into transodb (Dapper's span model,
cut down to one process): each span has a name, a parent, a trace id (the
index of its root span, one root per benchmark request), and start and end
times from ``perf_counter_ns``. Spans stay in flat arrays until the run
ends and are then written out in one go."""

from __future__ import annotations

import gzip
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.trace = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def begin(self, name: str) -> int:
        index = len(self.start)
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        self.name_id.append(nid)
        self.parent.append(parent)
        self.trace.append(self.trace[parent] if parent >= 0 else index)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        if self._stack.pop() != index:
            raise RuntimeError("spans must finish in reverse order of begin")

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.finish(index)

    def self_ns(self) -> array:
        """Each span's duration minus the time its direct children cover."""
        out = array("q", (e - s for s, e in zip(self.start, self.end)))
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                out[parent] -= self.end[index] - self.start[index]
        return out

    def durations(self, name: str, root: str | None = None) -> list[int]:
        """Durations in ns of spans called ``name``, optionally only inside
        traces whose root span is called ``root``."""
        nid = self._name_ids.get(name)
        rid = self._name_ids.get(root) if root is not None else None
        return [
            self.end[i] - self.start[i]
            for i in range(len(self.start))
            if self.name_id[i] == nid and (root is None or self.name_id[self.trace[i]] == rid)
        ]

    def self_by_module(self, root: str) -> dict[str, int]:
        """Self time in ns, summed per module (the name's first component),
        over every trace whose root span is called ``root``."""
        rid = self._name_ids.get(root)
        selfs = self.self_ns()
        out: dict[str, int] = {}
        for i in range(len(self.start)):
            if self.name_id[self.trace[i]] == rid:
                module = self.names[self.name_id[i]].split(".", 1)[0]
                out[module] = out.get(module, 0) + selfs[i]
        return out

    def write(self, path: Path) -> None:
        """Gzipped TSV, one span per line: id, parent, trace, name, start_ns, end_ns."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("id\tparent\ttrace\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.parent[i]}\t{self.trace[i]}\t{self.names[self.name_id[i]]}"
                          f"\t{self.start[i]}\t{self.end[i]}\n")
