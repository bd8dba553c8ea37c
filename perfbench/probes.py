"""Timing wrappers around the public entry points, and shared phases.

Used by both the benchmark process and the system-under-test process
(``sut.py``).  Every wrapper only times a call it forwards unchanged.
"""

from __future__ import annotations

import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Dict, List

#: BLAS threads pinned in every process the benchmark starts.
BLAS_THREADS = 1
BLAS_ENV = {
    name: str(BLAS_THREADS)
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    )
}


class Timings:
    """Named lists of measured seconds."""

    def __init__(self):
        self.samples: Dict[str, List[float]] = {}

    def add(self, name: str, seconds: float) -> None:
        self.samples.setdefault(name, []).append(seconds)

    def wrap(self, obj, attr: str, name: str, after=None) -> None:
        """Replace ``obj.attr`` by a forwarding wrapper that times each call."""
        inner = getattr(obj, attr)

        def timed(*args, **kwargs):
            started = time.perf_counter()
            result = inner(*args, **kwargs)
            self.add(name, time.perf_counter() - started)
            if after is not None:
                after(args, result)
            return result

        setattr(obj, attr, timed)

    def get(self, name: str) -> List[float]:
        return self.samples.get(name, [])


class TimedBackend:
    """Forwarding proxy around the backend handed to ``Gateway``.

    Times every ``recommend_batch`` (and opens a ``backend_batch`` span
    when a tracer is set); everything else is forwarded untouched.
    """

    def __init__(self, backend, timings: Timings, tracer=None):
        self._backend = backend
        self._timings = timings
        self.tracer = tracer

    def recommend_batch(self, users, k=10, histories=None):
        started = time.perf_counter()
        if self.tracer is None:
            rows = self._backend.recommend_batch(users, k=k, histories=histories)
        else:
            with self.tracer.span("backend_batch", tags={"rows": len(users)}):
                rows = self._backend.recommend_batch(
                    users, k=k, histories=histories
                )
        self._timings.add("batch", time.perf_counter() - started)
        return rows

    def swap_model(self, model, *args, **kwargs):
        started = time.perf_counter()
        result = self._backend.swap_model(model, *args, **kwargs)
        self._timings.add("swap", time.perf_counter() - started)
        return result

    @property
    def generation(self) -> int:
        return self._backend.generation

    def __getattr__(self, name):
        return getattr(self._backend, name)


def replay_stream(target, model, events, store_dir: Path, timings: Timings) -> Dict:
    """Drain *events* through a ``StreamingPipeline`` publishing into *target*.

    Returns ingest throughput and the per-event freshness: from the
    event entering the pipeline to the end of the first publish whose
    snapshot contains it.
    """
    from repro.streaming import CheckpointStore, OnlineUpdater, StreamingPipeline

    updater = OnlineUpdater(model)
    store = CheckpointStore(store_dir)
    pipeline = StreamingPipeline(
        target, updater=updater, batch_size=256, swap_every=4, store=store
    )
    entered: List[float] = []
    applied = [0]
    published: List[tuple] = []  # (end time, events applied before it)

    def stamped(stream):
        for event in stream:
            entered.append(time.perf_counter())
            yield event

    def count_applied(args, _result):
        applied[0] += args[0].n_events

    timings.wrap(updater, "apply", "apply", after=count_applied)
    timings.wrap(updater, "snapshot", "snapshot")
    timings.wrap(store, "save", "checkpoint")
    timings.wrap(
        pipeline.swapper, "publish", "publish",
        after=lambda _a, _r: published.append((time.perf_counter(), applied[0])),
    )
    started = time.perf_counter()
    stats = pipeline.run(stamped(events))
    wall = time.perf_counter() - started
    freshness = []
    cursor = 0
    for index, enter in enumerate(entered):
        while cursor < len(published) and published[cursor][1] <= index:
            cursor += 1
        if cursor < len(published):
            freshness.append(published[cursor][0] - enter)
    return {
        "events": int(stats.events),
        "wall_s": wall,
        "events_per_s": stats.events / wall if wall > 0 else 0.0,
        "freshness_s": freshness,
        "publishes": len(published),
    }


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of *pid* in MiB, 0 when unreadable."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def fingerprint(root: Path) -> Dict[str, object]:
    """Where a result was measured: machine, interpreter, BLAS, commit."""
    import numpy as np

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # noqa: BLE001 - older numpy: report unknown
        pass
    commit = "unknown"
    try:
        # The ceiling keeps git from adopting a repository above *root*.
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
        )
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass  # no git: not a git checkout
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "commit": commit,
    }
