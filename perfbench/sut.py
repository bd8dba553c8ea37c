"""The system under test: a ``Gateway`` in its own process.

Started by ``run.py`` as ``python3 perfbench/sut.py <config.json>``.
It loads the bundle, builds the backend (a ``RecommenderService`` or an
item-partitioned ``ShardRouter``), starts the gateway on an ephemeral
port and prints one JSON line ``{"event": "ready", ...}``.  It then
answers one JSON command per stdin line with one JSON line on stdout:

* ``{"cmd": "trace", "on": bool}`` — attach or detach the tracer;
* ``{"cmd": "stream", ...}`` — replay held-out purchases through a
  ``StreamingPipeline`` that hot-swaps into the live backend, and return
  the pages each replay's final generation serves to ``users``;
* ``{"cmd": "report", "spans": path}`` — per-layer counters, timings
  and peak RSS; spans are written to *path* with ``write_trace_jsonl``;
* ``{"cmd": "stop"}`` — shut down and exit.
"""

import time

STARTED = time.perf_counter()

import asyncio  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

_t = time.perf_counter()
import repro  # noqa: E402,F401

IMPORT_S = time.perf_counter() - _t

from repro.data.transactions import TransactionLog  # noqa: E402
from repro.gateway import Gateway, GatewayConfig  # noqa: E402
from repro.obs.tracing import TraceBuffer, Tracer, write_trace_jsonl  # noqa: E402
from repro.serving import ModelBundle, RecommenderService, ShardRouter  # noqa: E402
from repro.streaming import events_from_transactions  # noqa: E402

from probes import Timings, TimedBackend, replay_stream, vm_hwm_mb  # noqa: E402
from stats import tail_percentile  # noqa: E402


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _histogram(registry, name):
    for inst in registry.instruments():
        if inst.name == name and inst.kind == "histogram":
            return inst
    return None


def _counter_total(registry, name, **labels) -> float:
    total = 0.0
    for inst in registry.instruments():
        if inst.name == name and inst.kind == "counter" and all(
            inst.labels.get(k) == v for k, v in labels.items()
        ):
            total += inst.value
    return total


class Sut:
    def __init__(self, config):
        self.timings = Timings()
        started = time.perf_counter()
        bundle = ModelBundle.load(config["bundle"])
        self.load_s = time.perf_counter() - started
        log = TransactionLog.load(config["log"])
        self.model = bundle.model
        self.model.attach_log(log)
        self.tracer = None
        if config["trace"]:
            self.tracer = Tracer(prefix="sut", buffer=TraceBuffer(maxlen=2_000_000))
        router = config.get("router")
        if router is None:
            self.backend = RecommenderService(self.model, history_log=log)
        else:
            self.backend = ShardRouter(
                self.model, history_log=log, **router
            )
        self.proxy = TimedBackend(self.backend, self.timings)
        self.gateway = Gateway(self.proxy, GatewayConfig(), tracer=self.tracer)
        self.set_trace(False)

    def set_trace(self, on: bool) -> None:
        tracer = self.tracer if on else None
        self.gateway.tracer = tracer
        self.gateway.coalescer.tracer = tracer
        self.proxy.tracer = tracer
        self.backend.tracer = tracer

    def stream(self, command):
        """Replay held-out events ``replays`` times, each from the served model.

        Returns per-replay ingest rates and freshness p99s (the caller
        takes their medians), the pooled event count, and the pages the
        final generation of each replay serves to ``users`` (off the clock).
        """
        log = TransactionLog.load(command["events"])
        events = list(events_from_transactions(log))[: command["max_events"]]
        users = command["users"]
        out = {
            "events": 0, "publishes": 0, "events_per_s": [],
            "freshness_p99_s": [], "final_pages": [],
        }
        for replay in range(command["replays"]):
            one = replay_stream(
                self.proxy, self.model, events,
                Path(command["store"]) / str(replay), self.timings,
            )
            out["events"] += one["events"]
            out["publishes"] += one["publishes"]
            out["events_per_s"].append(one["events_per_s"])
            out["freshness_p99_s"].append(tail_percentile(one["freshness_s"])[1])
            rows = self.backend.recommend_batch(users, k=command["k"])
            out["final_pages"].append([[int(i) for i in row[row >= 0]] for row in rows])
        return out

    def report(self, command):
        registry = self.gateway.registry
        rss = [vm_hwm_mb(os.getpid())] + [
            vm_hwm_mb(child.pid) for child in multiprocessing.active_children()
        ]
        out = {"rss_mb": sum(rss), "rss_each_mb": rss, "timings": self.timings.samples}
        wait = _histogram(registry, "repro_gateway_coalesce_wait_seconds")
        rows = _histogram(registry, "repro_gateway_batch_rows")
        out["coalesce_wait_p50_s"] = wait.percentile(50) if wait and wait.count else 0.0
        out["batch_rows_mean"] = rows.sum / rows.count if rows and rows.count else 0.0
        out["requests"] = _counter_total(
            registry, "repro_gateway_requests_total", route="/v1/recommend"
        )
        out["shed"] = _counter_total(registry, "repro_gateway_shed_total")
        stats = self.backend.stats
        stats = stats() if callable(stats) else stats.as_dict()
        out["backend_stats"] = {
            key: stats[key] for key in (
                "requests", "cache_hits", "cache_misses", "nodes_scored",
            )
        }
        out["n_items"] = int(self.model.n_items)
        if self.tracer is not None and command.get("spans"):
            spans = self.tracer.buffer.drain()
            records = []
            for span in spans:
                record = span.as_dict()
                record["start"] = span.start or None
                records.append(record)
            write_trace_jsonl(command["spans"], records)
            out["spans"] = len(records)
        return out

    async def serve(self) -> None:
        await self.gateway.start()
        _emit({
            "event": "ready", "port": self.gateway.port, "import_s": IMPORT_S,
            "load_s": self.load_s, "startup_s": time.perf_counter() - STARTED,
        })
        loop = asyncio.get_running_loop()
        try:
            while True:
                line = await loop.run_in_executor(None, sys.stdin.readline)
                if not line:
                    return
                command = json.loads(line)
                name = command["cmd"]
                if name == "stop":
                    return
                if name == "trace":
                    self.set_trace(bool(command["on"]))
                    _emit({"ok": True})
                elif name == "stream":
                    _emit(await loop.run_in_executor(None, self.stream, command))
                elif name == "report":
                    _emit(self.report(command))
                else:
                    _emit({"error": f"unknown command {name!r}"})
        finally:
            await self.gateway.stop()
            if isinstance(self.backend, ShardRouter):
                self.backend.close()


def main() -> int:
    config = json.loads(Path(sys.argv[1]).read_text())
    sut = Sut(config)
    asyncio.run(sut.serve())
    return 0


if __name__ == "__main__":
    sys.exit(main())
