"""Self-tests of the benchmark's own helpers (run at the start of every run).

``python3 perfbench/selftest.py`` runs them alone; ``run.py`` refuses
to measure when one fails.
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

from stats import (
    link_orphans, percentile, poisson_schedule, self_times,
    supported_percentile, tail_percentile,
)


def check_schedule() -> None:
    a = poisson_schedule(500.0, 2.0, seed=7)
    assert a == poisson_schedule(500.0, 2.0, seed=7), "schedule not replayable"
    assert a != poisson_schedule(500.0, 2.0, seed=8), "seed ignored"
    assert all(x < y for x, y in zip(a, a[1:])) and 0 <= a[0] and a[-1] < 2.0
    assert 800 < len(a) < 1200, f"rate off: {len(a)} arrivals for 1000 expected"


def check_percentiles() -> None:
    assert supported_percentile(1000) == 99.0
    assert supported_percentile(999) == 95.0
    assert supported_percentile(100) == 90.0
    assert supported_percentile(40) == 75.0
    assert supported_percentile(5) == 50.0
    values = list(range(1, 1001))
    q, value = tail_percentile(values)
    assert q == 99.0 and abs(value - percentile(values, 99.0)) < 1e-9
    assert sum(v > value for v in values) >= 10
    assert percentile([1.0, 3.0], 50) == 2.0


def check_self_time() -> None:
    spans = [
        {"span_id": "r", "parent_id": None, "name": "root", "start": 0.0, "duration_s": 10.0},
        {"span_id": "a", "parent_id": "r", "name": "a", "start": 1.0, "duration_s": 3.0},
        {"span_id": "b", "parent_id": "r", "name": "b", "start": 3.0, "duration_s": 3.0},
        {"span_id": "c", "parent_id": "r", "name": "c", "start": 9.0, "duration_s": 4.0},
        {"span_id": "d", "parent_id": "a", "name": "d", "start": None, "duration_s": 0.5},
    ]
    own = self_times(spans)
    # a and b overlap on [3, 4): together [1, 6); c is clipped to [9, 10).
    assert abs(own["r"] - 4.0) < 1e-9, own
    assert abs(own["a"] - 2.5) < 1e-9, own  # start-less child: its duration
    assert abs(own["b"] - 3.0) < 1e-9 and abs(own["d"] - 0.5) < 1e-9, own
    requests = [
        {"span_id": "h1", "trace_id": "t1", "parent_id": None, "name": "http_request", "start": 0.0, "duration_s": 5.0},
        {"span_id": "h2", "trace_id": "t2", "parent_id": None, "name": "http_request", "start": 1.0, "duration_s": 5.0},
        {"span_id": "x1", "trace_id": "t3", "parent_id": None, "name": "backend_batch", "start": 0.5, "duration_s": 4.0},
        {"span_id": "x2", "trace_id": "t4", "parent_id": None, "name": "backend_batch", "start": 1.5, "duration_s": 4.0},
    ]
    assert link_orphans(requests, "http_request", "backend_batch") == 2
    assert requests[2]["parent_id"] == "h1" and requests[3]["parent_id"] == "h2"
    assert abs(self_times(requests)["h1"] - 1.0) < 1e-9


async def _stall_run():
    from loadgen import run_phase

    async def answer(reader, writer):
        from repro.gateway.wire import Response, encode_response, read_request

        while True:
            request = await read_request(reader)
            if request is None:
                break
            payload = json.loads(request.body)
            writer.write(encode_response(
                Response.json_payload(200, {"user": payload["user"], "items": []})
            ))
            await writer.drain()
        writer.close()

    server = await asyncio.start_server(answer, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    offsets = [i * 0.005 for i in range(80)]  # 200/s for 0.4 s
    bodies = [json.dumps({"user": i}).encode() for i in range(80)]
    try:
        return offsets, await run_phase(
            "127.0.0.1", port, offsets, bodies, rate=200.0, duration=0.4,
            n_conns=1, drain_s=2.0, stall=(0.1, 0.15),
        )
    finally:
        server.close()
        await server.wait_closed()


def check_stall() -> None:
    offsets, phase = asyncio.run(_stall_run())
    assert phase.ok == len(offsets), phase.counts()
    before = [l for d, l in zip(offsets, phase.latency) if d < 0.09]
    queued = [l for d, l in zip(offsets, phase.latency) if 0.1 <= d < 0.2]
    # Everything due during the stall waits until it ends (0.25 s); its
    # latency counts from the due time, so it grows with the wait.
    assert max(before) < 0.05, before
    assert min(queued) > 0.04 and queued[0] > 0.13, queued[:3]
    assert all(x >= y - 0.006 for x, y in zip(queued, queued[1:])), queued
    assert max(phase.lateness) > 0.13


CHECKS = (check_schedule, check_percentiles, check_self_time, check_stall)


def run_all() -> list:
    """Names of the failed checks (empty when all pass)."""
    failed = []
    for check in CHECKS:
        try:
            check()
        except AssertionError as exc:
            failed.append(f"{check.__name__}: {exc}")
    return failed


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    problems = run_all()
    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "ok" if not problems else f"{len(problems)} failed")
    sys.exit(1 if problems else 0)
