"""Timing from outside the program: marks, order statistics, machine record.

End-to-end numbers come from the program's public entry points
(`trainer.pretrain`, `trainer.extract`, `trainer.contaminate_corpus`) run as
they are. Boundaries inside a call are read from what the call already does
in the open: its log records (`pase.trainer` logs one record per training
step) and the files and directories it opens (seen through a Python audit
hook). Nothing in the program is wrapped or replaced.
"""

from __future__ import annotations

import ctypes
import logging
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field

from metrics import WORKLOAD_NAMES, layer_metrics, overhead_metrics
from spans import Tracer


class Marks:
    """Timestamps of file opens, directory creations and trainer log records.

    One instance per process: an audit hook cannot be removed once added, so
    the hook stays installed and records only while `armed()` is active.
    """

    def __init__(self) -> None:
        self.events: list[tuple[float, str, str]] = []
        self._armed = False
        self._handler = _MarkHandler(self)
        sys.addaudithook(self._audit)

    def _audit(self, event: str, args: tuple) -> None:
        if self._armed and event in ("open", "os.mkdir"):
            path = args[0]
            path = os.fsdecode(path) if isinstance(path, (str, bytes, os.PathLike)) else str(path)
            self.events.append((time.perf_counter(), event, path))

    @contextmanager
    def armed(self):
        """Record into a fresh list for the duration of the block."""
        self.events = []
        logger = logging.getLogger("pase.trainer")
        old_level = logger.level
        logger.addHandler(self._handler)
        logger.setLevel(logging.INFO)
        self._armed = True
        try:
            yield self.events
        finally:
            self._armed = False
            logger.removeHandler(self._handler)
            logger.setLevel(old_level)


class _MarkHandler(logging.Handler):
    def __init__(self, marks: Marks) -> None:
        super().__init__(logging.INFO)
        self._marks = marks

    def emit(self, record: logging.LogRecord) -> None:
        if self._marks._armed:
            self._marks.events.append((time.perf_counter(), "log", record.getMessage()))


def times_of(events, kind: str, predicate) -> list[float]:
    return [t for t, k, detail in events if k == kind and predicate(detail)]


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile that still
    has ten samples above it. With ten samples or fewer no percentile has,
    so the largest sample stands in and the percentile reads 100."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return float(ordered[-1]), 100.0, n
    return float(ordered[n - 11]), 100.0 * (n - 10) / n, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _openblas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_record(load_at_start: tuple[float, float, float]) -> dict:
    """What a result must carry so that numbers from two machines are never
    compared silently."""
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _openblas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "loadavg_at_start": list(load_at_start),
    }


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    sizes: object  # corpora.Sizes
    work: str  # absolute directory for cached inputs, inside the checkout
    marks: Marks

    @property
    def jobs(self) -> str:
        """Where job calls write their outputs; removed after the run."""
        return os.path.join(self.work, "jobs")


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)  # (name, ok, detail)
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    report: list = field(default_factory=list)  # figures under the workload's own names
    samples: dict = field(default_factory=dict)  # raw per-call and per-unit times
    tracer: object = None  # spans.Tracer of a traced run

    def check(self, name: str, ok: bool, detail: str = "", counts: bool = False) -> None:
        """Record a check. A check with `counts` that no failed step or
        utterance already reflects is one attempted unit of its own."""
        self.checks.append((name, bool(ok), detail))
        if counts:
            self.attempted += 1
            self.failed += not ok

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(ok for _, ok, _ in self.checks)


def summarize(out: Outcome, workload: str, calls: list[dict], per_call: int, unit: str,
              audio_seconds: list[float] | None = None) -> None:
    """End-to-end metrics and report lines from the calls that completed all
    their units. Each call holds its "setup" and "wall" seconds and the
    seconds of each unit of work in order; `audio_seconds` gives each unit's
    audio length, for real-time factors."""
    ok = [c for c in calls if c["setup"] is not None and len(c["units"]) == per_call]
    if not ok:
        return
    setups = [c["setup"] for c in ok]
    walls = [c["wall"] for c in ok]
    units = [u for c in ok for u in c["units"]]
    t_value, t_pct, n = tail(units)
    out.samples = {"setup_s": setups, "wall_s": walls, "latency_s": units}
    out.metrics = {
        "setup_s": (median(setups), "s"),
        "wall_s": (median(walls), "s"),
        "latency_s.p50": (median(units), "s"),
        "latency_s.tail": (t_value, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    names = WORKLOAD_NAMES[workload]
    lat = names["latency_s"]
    out.report = [
        f"{workload} setup_s = {median(setups):.4f} s  (median of {len(setups)} calls)",
        f"{workload} {names['wall_s']} = {median(walls):.4f} s  (median of {len(walls)} calls)",
        f"{workload} {lat}.p50 = {median(units):.4f} s  (over {n} {unit})",
        f"{workload} {lat}.tail = {t_value:.4f} s  (p{t_pct:.0f} of {n} {unit})",
    ]
    if audio_seconds is not None:
        rtf = [t / a for t, a in zip(units, audio_seconds * len(ok))]
        r_value, r_pct, _ = tail(rtf)
        out.report += [
            f"{workload} {names['rtf']}.p50 = {median(rtf):.5f} s/s  (over {n} {unit})",
            f"{workload} {names['rtf']}.tail = {r_value:.5f} s/s  (p{r_pct:.0f} of {n} {unit})",
        ]
    out.report.append(f"{workload} peak_rss_mb = {out.metrics['peak_rss_mb'][0]:.1f} MB")


def traced_run(ctx, out: Outcome, call, job, per_job: int, unit_span: str) -> Outcome:
    """The traced run shared by every workload.

    `call(label)` makes and scores one untraced job call and returns its
    times as `summarize` takes them. `job(tracer, label)` runs and scores
    one traced job and returns its wall seconds, probes left out; `per_job`
    units count as failed when it raises. An untraced warm-up call, whose
    times are dropped, comes first, so that the untraced reference call and
    the traced jobs both start warm and the overhead holds no first-call
    costs. Traced jobs repeat until `ctx.seconds` have passed since the start.
    """
    start = time.perf_counter()
    call("warm-up call")
    untraced = call("untraced call")
    tracer = Tracer()
    walls = []
    while not walls or time.perf_counter() - start < ctx.seconds:
        tracer.job = len(walls)
        label = f"traced job {len(walls)}"
        try:
            walls.append(job(tracer, label))
        except Exception:  # a failed job counts against error_rate
            sys.stderr.write(traceback.format_exc())
            out.attempted += per_job
            out.failed += per_job
            out.check(f"{label} completes", False)
            break
    if walls and untraced["units"]:
        out.metrics = layer_metrics(tracer)
        traced = {
            "setup_s": median(tracer.durations("trainer.setup")),
            "wall_s": median(walls),
            "latency_s.p50": median(tracer.durations(unit_span)),
        }
        reference = {"setup_s": untraced["setup"], "wall_s": untraced["wall"],
                     "latency_s.p50": median(untraced["units"])}
        out.metrics.update(overhead_metrics(traced, reference))
    out.tracer = tracer
    return out
