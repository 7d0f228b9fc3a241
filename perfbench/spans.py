"""In-memory spans recorded around calls into the program's modules.

A span has a name, a start, an end, the span open around it (its parent) and
the unit of work it belongs to: one training step or one utterance. Spans
are kept in memory while the workload runs and written out once at the end.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, (job, unit)]
        self.counts: list[tuple[str, float, int]] = []  # (name, value, job)
        self.job = 0  # one traced call of pretrain, extract or contaminate
        self.unit: object = None  # None marks job-level work such as set-up
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        record = [name, time.perf_counter(), None, parent, (self.job, self.unit)]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value: float) -> None:
        self.counts.append((name, value, self.job))

    def _self_times(self) -> list[float]:
        """Duration of each span minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def units(self) -> list:
        return sorted({s[4] for s in self.spans if s[4][1] is not None})

    def jobs(self) -> list[int]:
        return sorted({s[4][0] for s in self.spans})

    def per_unit(self, name: str, self_time: bool = False) -> float:
        """Median over units of the time spent in spans called `name` within
        the unit; a unit without such a span contributes zero."""
        units = self.units()
        if not units:
            return 0.0
        selfs = self._self_times() if self_time else None
        totals: dict = defaultdict(float)
        for i, (n, start, end, _, unit) in enumerate(self.spans):
            if n == name and unit[1] is not None:
                totals[unit] += selfs[i] if self_time else end - start
        return float(statistics.median(totals.get(u, 0.0) for u in units))

    def per_job(self, name: str) -> float:
        """Median over jobs of the total time in spans called `name`."""
        totals: dict = defaultdict(float)
        for n, start, end, _, (job, _) in self.spans:
            if n == name:
                totals[job] += end - start
        return float(statistics.median(totals.get(j, 0.0) for j in self.jobs()))

    def job_count(self, name: str) -> float:
        """Median over jobs of the summed count called `name`."""
        totals: dict = defaultdict(float)
        for n, value, job in self.counts:
            if n == name:
                totals[job] += value
        return float(statistics.median(totals.get(j, 0.0) for j in self.jobs()))

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def write(self, path: str) -> None:
        selfs = self._self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, (job, unit)) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "self": selfs[i], "parent": parent, "job": job,
                                     "unit": unit}) + "\n")
            for name, value, job in self.counts:
                fh.write(json.dumps({"count": name, "value": value, "job": job}) + "\n")
