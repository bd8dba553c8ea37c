"""Open-loop HTTP load generator: seeded Poisson arrivals, pipelined sockets.

``repro.gateway.LoadGenerator`` is closed-loop: a slow gateway receives
less load.  Here every request has a due time fixed in advance; the
sender writes it at that time on one of a few keep-alive connections
(HTTP/1.1 pipelining, round-robin), whatever is still outstanding, and
its latency runs from the due time to the response.  A stall anywhere
— in the system or in this generator — therefore shows up in the
latency of every request queued behind it.

One asyncio loop, one thread, at most ``n_conns`` connections.
"""

from __future__ import annotations

import asyncio
import gc
import json
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.gateway.wire import HttpError, encode_request, read_response

INF = float("inf")


@dataclass
class Phase:
    """What one open-loop phase measured (seconds throughout)."""

    rate: float
    duration: float
    due: List[float] = field(default_factory=list)
    done: List[float] = field(default_factory=list)  # inf when not completed
    latency: List[float] = field(default_factory=list)  # inf = failed/shed
    lateness: List[float] = field(default_factory=list)
    status: List[str] = field(default_factory=list)
    bodies: List[Optional[dict]] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.status)

    def count(self, *labels: str) -> int:
        return sum(1 for s in self.status if s in labels)

    @property
    def ok(self) -> int:
        return self.count("200")

    @property
    def shed(self) -> int:
        return self.count("429")

    @property
    def failed(self) -> int:
        return self.attempted - self.ok - self.shed

    def backlog_at(self, t: float) -> int:
        """Requests due by offset *t* and not yet answered at *t*."""
        return sum(1 for d, e in zip(self.due, self.done) if d <= t < e)

    def backlog_grew(self, limit_s: float) -> bool:
        """Backlog at the end exceeds the midpoint's by more than a limit's worth."""
        mid = self.backlog_at(self.duration / 2)
        end = self.backlog_at(self.duration)
        return end > mid + max(2.0, self.rate * limit_s)

    def counts(self) -> dict:
        return {
            "attempted": self.attempted, "ok": self.ok,
            "shed": self.shed, "failed": self.failed,
        }


async def _reader(reader, queue: asyncio.Queue, phase: Phase, t0: float) -> None:
    while True:
        item = await queue.get()
        if item is None:
            return
        index = item
        try:
            response = await read_response(reader)
        except (HttpError, OSError, asyncio.IncompleteReadError):
            phase.status[index] = "transport_error"
            while not queue.empty():  # everything behind it is lost too
                rest = queue.get_nowait()
                if rest is not None:
                    phase.status[rest] = "transport_error"
            return
        now = time.monotonic() - t0
        phase.status[index] = str(response.status)
        if response.status == 200:
            phase.done[index] = now
            phase.latency[index] = now - phase.due[index]
            phase.bodies[index] = json.loads(response.body)
        else:
            phase.done[index] = now


async def run_phase(
    host: str,
    port: int,
    offsets: Sequence[float],
    bodies: Sequence[bytes],
    *,
    rate: float,
    duration: float,
    n_conns: int,
    drain_s: float,
    keep_bodies: bool = True,
    stall: Optional[Tuple[float, float]] = None,
) -> Phase:
    """Send ``bodies[i]`` to ``POST /v1/recommend`` at ``offsets[i]``.

    Waits up to *drain_s* after the last send for outstanding answers;
    what is still missing then counts as failed (``timeout``).  *stall*
    ``(at, seconds)`` blocks the generator itself once, at offset *at*
    (the self-test's injected generator stall).
    """
    n = len(offsets)
    phase = Phase(
        rate=rate, duration=duration, due=list(offsets),
        done=[INF] * n, latency=[INF] * n, lateness=[0.0] * n,
        status=["timeout"] * n, bodies=[None] * n,
    )
    # The generator's own collector pauses would show up as system latency.
    gc.collect()
    gc.disable()
    try:
        return await _run(
            host, port, offsets, bodies, phase, n_conns, drain_s, keep_bodies, stall
        )
    finally:
        gc.enable()


async def _run(host, port, offsets, bodies, phase, n_conns, drain_s, keep_bodies, stall):
    conns = [await asyncio.open_connection(host, port) for _ in range(n_conns)]
    queues = [asyncio.Queue() for _ in conns]
    t0 = time.monotonic()
    readers = [
        asyncio.ensure_future(_reader(r, q, phase, t0))
        for (r, _w), q in zip(conns, queues)
    ]
    try:
        for index, (due, body) in enumerate(zip(offsets, bodies)):
            if stall is not None and due >= stall[0]:
                time.sleep(stall[1])  # deliberately blocks the loop
                stall = None
            wait = t0 + due - time.monotonic()
            if wait > 0:
                await asyncio.sleep(wait)
            slot = index % n_conns
            writer = conns[slot][1]
            phase.lateness[index] = max(0.0, time.monotonic() - t0 - due)
            try:
                writer.write(encode_request("POST", "/v1/recommend", body))
            except (OSError, RuntimeError):
                phase.status[index] = "transport_error"
                continue
            queues[slot].put_nowait(index)
        for queue in queues:
            queue.put_nowait(None)
        await asyncio.wait(readers, timeout=drain_s)
    finally:
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for _r, writer in conns:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass
    if not keep_bodies:
        phase.bodies = []
    return phase
