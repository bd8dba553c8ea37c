"""The workloads: ``edge-zipf`` and ``catalog-ivf``.

Each returns a :class:`Result`: end-to-end values, per-layer values,
request accounting per phase, and the output checks it made.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from loadgen import Phase, run_phase
from probes import BLAS_ENV, Timings
from stats import (
    highest_passing, percentile, poisson_schedule, rate_ladder, self_times,
    link_orphans, tail_percentile,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-ups per run; ``setup_s`` (and ``cold_start_s``) report the median.
SETUP_REPS = 3
#: Seed of the synthetic catalog and log; ``--seed`` drives the train/test
#: split, training, traffic and the checked users.  Of seeds 0-15 it gives
#: the catalogs closest to the nominal shapes: 770 items on ``edge-zipf``
#: (768 nominal), 100,161 on ``catalog-ivf`` (100,000 nominal).
DATA_SEED = 9
K = 10
#: Users whose pages after the streaming replays are checked.
STREAM_USERS = 64


def _seed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def _ms(values) -> List[float]:
    return [v * 1000.0 for v in values]


def _p(values, q: float) -> float:
    return percentile(values, q) if values else 0.0


def _tail(values) -> float:
    return tail_percentile(values)[1] if values else 0.0


@dataclass
class Result:
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    phases: Dict[str, Dict[str, int]] = field(default_factory=dict)
    checks: Dict[str, bool] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Shared steps
# ----------------------------------------------------------------------
def train_tf(taxonomy, log, config, timings: Timings, traced: bool):
    """``SerialTrainer(update="batch").train`` with its wall time recorded."""
    from repro import TaxonomyFactorModel
    from repro.core.sampling import TripleStore
    from repro.train import SerialTrainer

    model = TaxonomyFactorModel(taxonomy, config)
    original = TripleStore.sample_negatives
    if traced:
        timings.wrap(TripleStore, "sample_negatives", "negatives")
    try:
        started = time.perf_counter()
        result = SerialTrainer(model, update="batch").train(log)
        wall = time.perf_counter() - started
    finally:
        TripleStore.sample_negatives = original
    timings.add("train_examples", sum(epoch.n_examples for epoch in result.history))
    timings.add("train_wall", wall)
    for epoch in result.history:
        timings.add("epoch", epoch.seconds)
    return model


def save_bundle(model, directory: Path, timings: Timings) -> None:
    from repro.serving import ModelBundle

    started = time.perf_counter()
    ModelBundle(model).save(directory)
    timings.add("save", time.perf_counter() - started)


def zipf_users(n_users: int, count: int, seed: int) -> np.ndarray:
    from repro.gateway import zipfian_weights

    cumulative = np.cumsum(zipfian_weights(n_users, 1.0))
    rng = np.random.default_rng(seed)
    users = np.searchsorted(cumulative, rng.random(count), side="right")
    return np.minimum(users, n_users - 1)


class SutProcess:
    """``sut.py`` in a child process, driven over its stdin/stdout."""

    def __init__(self, config: dict, run_dir: Path, tag: str):
        path = run_dir / f"sut-{tag}.json"
        path.write_text(json.dumps(config))
        self.stderr = open(run_dir / f"sut-{tag}.log", "w")
        env = dict(os.environ, **BLAS_ENV)
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "sut.py"), str(path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.stderr,
            text=True, env=env, cwd=str(ROOT),
        )
        self.ready = self._read()
        self.port = int(self.ready["port"])

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"system under test exited (code {self.proc.poll()}); "
                f"see {self.stderr.name}"
            )
        return json.loads(line)

    def call(self, **command) -> dict:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def post(self, body: bytes) -> dict:
        """One ``POST /v1/recommend`` on a fresh connection; the 200 body."""
        from repro.gateway.wire import encode_request, read_response

        async def once():
            reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
            try:
                writer.write(encode_request("POST", "/v1/recommend", body))
                await writer.drain()
                return await read_response(reader)
            finally:
                writer.close()

        response = asyncio.run(once())
        if response.status != 200:
            raise RuntimeError(f"request answered {response.status}")
        return json.loads(response.body)

    def first_response(self, body: bytes) -> float:
        """Seconds from spawn to the first 200 answer."""
        self.post(body)
        return time.perf_counter() - self.started

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(json.dumps({"cmd": "stop"}) + "\n")
                self.proc.stdin.flush()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.stderr.close()


# ----------------------------------------------------------------------
# Serving workloads: Gateway in its own process, open-loop traffic
# ----------------------------------------------------------------------
class ServingWorkload:
    """Set up, drive and check one gateway-fronted deployment."""

    name: str
    limit_s: float
    nominal_rate: float
    #: ``(lowest, highest, ratio)`` of the fixed geometric rate ladder.
    ladder_args: tuple
    users_per_request = 1
    #: Lowest acceptable ``recall_at_10`` of the served pages against exact.
    recall_floor = 1.0
    #: ``(metric, floor, users)``: the trained model must reach *floor* on
    #: the held-out purchases of a seeded sample of *users* test users;
    #: about three quarters of the lowest value seeds 1-10 gave
    #: (Recall@10 0.245-0.329 here).
    held_out_floor = ("recall_at_10", 0.18, 256)
    #: Held-out events per streaming replay, and replays per run.
    stream_events = 4096
    stream_replays = 12
    #: Share of ``--seconds`` spent at the nominal rate; the rest is the ladder.
    nominal_share = 0.6

    def __init__(self, seed: int, seconds: float, traced: bool, run_dir: Path):
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.run_dir = run_dir
        self.timings = Timings()
        self.n_conns = max(1, min(2, os.cpu_count() or 1))
        self.result = Result()
        self._router: Optional[dict] = None

    # -- hooks ----------------------------------------------------------
    def dataset(self):
        raise NotImplementedError

    def train_config(self):
        raise NotImplementedError

    def sut_router(self, model) -> Optional[dict]:
        return None

    def reference(self, model, log):
        """An in-process service the served rows must equal byte-for-byte:
        the SUT's retrieval mode in one process (a shard fleet's pages
        equal the single process's)."""
        from repro import RecommenderService

        router = self._router or {}
        return RecommenderService(
            model, history_log=log, retrieval=router.get("retrieval", "exact"),
            nprobe=router.get("nprobe"),
        )

    # -- phases ---------------------------------------------------------
    def body(self, users) -> bytes:
        if self.users_per_request == 1:
            return json.dumps({"user": int(users[0]), "k": K}).encode()
        return json.dumps({"users": [int(u) for u in users], "k": K}).encode()

    def set_up(self, rep: int):
        """One full set-up; returns the live SUT and what it served from."""
        from repro import SyntheticConfig, generate_dataset, train_test_split

        started = time.perf_counter()
        config = self.dataset()
        # One catalog and purchase log per workload, whatever the seed: the
        # taxonomy generator draws the top-level fan-out once, which would
        # otherwise change the catalog size (and all work) by up to +-20%.
        data = generate_dataset(SyntheticConfig(seed=_seed(DATA_SEED, 1), **config))
        split = train_test_split(data.log, mu=0.5, seed=_seed(self.seed, 2))
        model = train_tf(
            data.taxonomy, split.train, self.train_config(), self.timings,
            self.traced,
        )
        bundle = self.run_dir / f"bundle-{rep}"
        save_bundle(model, bundle, self.timings)
        split.train.save(self.run_dir / f"train-{rep}.json")
        split.test.save(self.run_dir / f"test-{rep}.json")
        derived = time.perf_counter()
        if self._router is None:
            self._router = self.sut_router(model)
        started += time.perf_counter() - derived  # bench bookkeeping, not set-up
        sut = SutProcess(
            {
                "bundle": str(bundle), "log": str(self.run_dir / f"train-{rep}.json"),
                "trace": self.traced, "router": self._router,
            },
            self.run_dir, str(rep),
        )
        try:
            first_users = [0] * self.users_per_request
            cold = sut.first_response(self.body(first_users))
        except BaseException:
            sut.stop()
            raise
        self.timings.add("setup", time.perf_counter() - started)
        self.timings.add("cold_start", cold)
        self.timings.add("import", sut.ready["import_s"])
        self.timings.add("load", sut.ready["load_s"])
        return sut, model, split

    def schedule(self, rate: float, duration: float, tag: int):
        offsets = poisson_schedule(rate, duration, _seed(self.seed, 10, tag))
        users = zipf_users(
            self.n_users, len(offsets) * self.users_per_request,
            _seed(self.seed, 11, tag),
        ).reshape(len(offsets), self.users_per_request)
        return offsets, users

    def phase(self, sut, rate, duration, tag, keep=True) -> tuple:
        offsets, users = self.schedule(rate, duration, tag)
        bodies = [self.body(row) for row in users]
        phase = asyncio.run(run_phase(
            "127.0.0.1", sut.port, offsets, bodies, rate=rate,
            duration=duration, n_conns=self.n_conns,
            drain_s=max(1.0, 8 * self.limit_s), keep_bodies=keep,
        ))
        return phase, users

    def collect_pages(self, phase: Phase, users, pages: Dict[int, List[int]]) -> bool:
        """Record every answered row; False if one user got two pages."""
        consistent = True
        for body, row_users in zip(phase.bodies, users):
            if body is None:
                continue
            rows = [body["items"]] if "user" in body else body["items"]
            for user, items in zip(row_users, rows):
                seen = pages.setdefault(int(user), items)
                consistent &= seen == items
        return consistent

    def stream_users(self, events) -> List[int]:
        """A seeded set of users the replayed events touch."""
        touched = sorted({int(event.user) for event in events})
        rng = np.random.default_rng(_seed(self.seed, 20))
        chosen = rng.choice(touched, size=min(STREAM_USERS, len(touched)), replace=False)
        return sorted(int(u) for u in chosen)

    def check_pages(self, model, split, reference, nominal, every) -> None:
        """Served rows against in-process services, computed off the clock.

        *every* answered row must equal the *reference* service's row;
        ``recall_at_10`` scores the *nominal* phases' pages (the same
        users in every run with this seed) against the exact ranking;
        the trained model's held-out ranking quality must clear its floor.
        """
        from repro import RecommenderService
        from repro.eval.protocol import evaluate_model, evaluate_topk
        from repro.eval.recall import recall_vs_reference

        users = sorted(every)
        rows = reference.recommend_batch(users, k=K)
        self.result.checks["rows_equal_reference"] = all(
            every[u] == [int(i) for i in row[row >= 0]]
            for u, row in zip(users, rows)
        )
        exact_service = RecommenderService(model, history_log=split.train)
        users = sorted(nominal)
        exact = exact_service.recommend_batch(users, k=K)
        served = np.full_like(exact, -1)
        short = 0
        for row, user in enumerate(users):
            items = nominal[user]
            served[row, : len(items)] = items
            short += len(items) < int((exact[row] >= 0).sum())
        self.result.notes["recall_at_10"] = recall_vs_reference(served, exact)
        self.result.notes["short_pages"] = short
        self.result.checks["recall_at_10_above_floor"] = (
            self.result.notes["recall_at_10"] >= self.recall_floor
        )
        name, floor, n_users = self.held_out_floor
        test_users = split.test_users()
        rng = np.random.default_rng(_seed(self.seed, 21))
        sample = np.sort(rng.choice(
            test_users, size=min(n_users, test_users.size), replace=False
        ))
        if name == "recall_at_10":
            held_out = evaluate_topk(exact_service, split, k=K, users=sample).recall
        else:
            held_out = evaluate_model(model, split, users=sample, batch_size=32).auc
        self.result.notes[f"held_out_{name}"] = held_out
        self.result.checks[f"held_out_{name}_above_floor"] = held_out >= floor

    def check_stream(self, model, service, events, users, replay_pages, served) -> None:
        """The streamed model, against an in-process replay of the same events.

        Every replay starts from the served bundle, so each one's final
        generation must serve the same pages, equal to those of an
        in-process ``StreamingPipeline`` over the reference *service*
        (which it swaps); and the replay must have changed those pages.
        """
        from repro.streaming import OnlineUpdater, StreamingPipeline

        before = service.recommend_batch(users, k=K)
        StreamingPipeline(
            service, updater=OnlineUpdater(model), batch_size=256, swap_every=4,
        ).run(iter(events))
        after = [[int(i) for i in row[row >= 0]] for row in service.recommend_batch(users, k=K)]
        checks = self.result.checks
        checks["stream_replays_agree"] = all(pages == after for pages in replay_pages)
        checks["stream_final_pages_equal_reference"] = served == after
        checks["stream_changed_pages"] = after != [
            [int(i) for i in row[row >= 0]] for row in before
        ]

    def passes(self, phase: Phase) -> bool:
        _q, tail = tail_percentile(phase.latency, 99.0)
        return (
            phase.failed == 0 and tail <= self.limit_s
            and not phase.backlog_grew(self.limit_s)
        )

    def run(self) -> Result:
        from repro.streaming import events_from_transactions

        res = self.result
        sut = None
        try:
            for rep in range(SETUP_REPS):
                if sut is not None:
                    sut.stop()
                sut, model, split = self.set_up(rep)
            self.n_users = int(model.n_users)
            run_started = time.perf_counter()
            # The nominal-rate phase runs in two halves, before and after
            # the ladder, so it samples more of the machine's speed swings.
            half_s = self.nominal_share * self.seconds / 2
            # Ladder probes depend on timing, so only the nominal phases'
            # pages (fixed by the seed) feed recall.
            pages: Dict[int, List[int]] = {}
            probe_pages: Dict[int, List[int]] = {}
            consistent = True
            base = None
            if self.traced:
                # Tracing overhead: an untraced nominal phase, then traced.
                base, _ = self.phase(sut, self.nominal_rate, half_s, 1, keep=False)
                sut.call(cmd="trace", on=True)
            nominal, users = self.phase(sut, self.nominal_rate, half_s, 0)
            # Peak RSS while serving at the nominal rate: before the ladder,
            # whose overload probes queue requests in proportion to how slow
            # the machine happens to be, and before the replays' swap peaks.
            # Per-layer spans also come from this phase only.
            spans_path = self.run_dir / "spans.jsonl"
            serving_rss = sut.call(
                cmd="report", spans=str(spans_path) if self.traced else None
            )["rss_mb"]
            consistent &= self.collect_pages(nominal, users, pages)
            ladder = rate_ladder(*self.ladder_args)
            n_probes = max(1, math.ceil(math.log2(len(ladder) + 1)))
            probe_s = max(0.5, (self.seconds - 2 * half_s) / n_probes - 0.3)
            probes: List[Phase] = []

            def probe(rate):
                phase, probe_users = self.phase(
                    sut, rate, probe_s, 100 + len(probes)
                )
                probes.append(phase)
                nonlocal consistent
                consistent &= self.collect_pages(phase, probe_users, probe_pages)
                return self.passes(phase)

            max_rate, probe_log = highest_passing(ladder, probe)
            # Each probe is judged at the highest percentile up to p99 its
            # sample count supports; the report names it per probe.
            probe_log = [
                {"rate": rate, "passed": ok, "percentile": q,
                 "tail_ms": round(tail * 1000, 2), "failed": p.failed,
                 "backlog_mid": p.backlog_at(p.duration / 2),
                 "backlog_end": p.backlog_at(p.duration)}
                for (rate, ok), p in zip(probe_log, probes)
                for q, tail in [tail_percentile(p.latency)]
            ]
            nominal2, users = self.phase(sut, self.nominal_rate, half_s, 2)
            consistent &= self.collect_pages(nominal2, users, pages)
            res.phases["nominal"] = {
                key: nominal.counts()[key] + nominal2.counts()[key]
                for key in ("attempted", "ok", "shed", "failed")
            }
            latencies = nominal.latency + nominal2.latency
            measured_s = time.perf_counter() - run_started
            res.phases["ladder"] = {
                key: sum(p.counts()[key] for p in probes)
                for key in ("attempted", "ok", "shed", "failed")
            }
            events = list(events_from_transactions(split.test))[: self.stream_events]
            stream_users = self.stream_users(events)
            stream = sut.call(
                cmd="stream", events=str(self.run_dir / f"test-{SETUP_REPS - 1}.json"),
                max_events=self.stream_events, replays=self.stream_replays,
                store=str(self.run_dir / "checkpoints"),
                users=stream_users, k=K,
            )
            report = sut.call(cmd="report")
            # The final generation, through the whole served path.
            served_final = sut.post(json.dumps({"users": stream_users, "k": K}).encode())
        finally:
            if sut is not None:
                sut.stop()
        res.phases["stream"] = {
            "attempted": stream["events"], "ok": stream["events"],
            "shed": 0, "failed": 0,
        }
        consistent &= all(
            probe_pages.get(user, items) == items for user, items in pages.items()
        )
        res.checks["pages_consistent_across_requests"] = consistent
        checks_started = time.perf_counter()
        reference = self.reference(model, split.train)
        self.check_pages(model, split, reference, pages, {**probe_pages, **pages})
        self.check_stream(
            model, reference, events, stream_users,
            stream["final_pages"], served_final["items"],
        )
        res.notes["checks_s"] = round(time.perf_counter() - checks_started, 3)
        t = self.timings
        q, p99 = tail_percentile(latencies)
        res.notes.update(
            latency_tail_percentile=q, nominal_samples=len(latencies),
            nominal_rate=self.nominal_rate, limit_ms=self.limit_s * 1000,
            ladder_probes=probe_log, measured_s=round(measured_s, 3),
            stream_publishes=stream["publishes"], stream_events=stream["events"],
            rss_each_mb=report["rss_each_mb"], rss_after_stream_mb=report["rss_mb"],
        )
        res.end_to_end = {
            "setup_s": statistics.median(t.get("setup")),
            "latency_p50_ms": _p(latencies, 50) * 1000,
            "latency_p99_ms": p99 * 1000,
            "max_rate_rps": max_rate or 0.0,
            "recall_at_10": res.notes["recall_at_10"],
            "train_examples_per_s": sum(t.get("train_examples")) / sum(t.get("train_wall")),
            "ingest_events_per_s": statistics.median(stream["events_per_s"]),
            "freshness_p99_s": statistics.median(stream["freshness_p99_s"]),
            "cold_start_s": statistics.median(t.get("cold_start")),
            "peak_rss_mb": serving_rss,
        }
        if self.traced:
            sut_timings = report["timings"]
            self.per_layer(report, sut_timings, spans_path, nominal, probes, base)
        return res

    def per_layer(self, report, sut_timings, spans_path, nominal, probes, base):
        from repro.obs.tracing import read_trace_jsonl

        t = self.timings
        records = read_trace_jsonl(spans_path) if spans_path.exists() else []
        link_orphans(records, "http_request", "backend_batch")
        own = self_times(records)
        by_id = {r["span_id"]: r for r in records}
        kids: Dict[str, List[dict]] = {}
        for rec in records:
            if rec.get("parent_id") in by_id:
                kids.setdefault(rec["parent_id"], []).append(rec)
        server_self = [
            own[r["span_id"]] for r in records
            if r["name"] == "http_request" and r["span_id"] in kids
        ]
        http = [r["duration_s"] for r in records if r["name"] == "http_request"]
        queue_wait = [r["duration_s"] for r in records if r["name"] == "queue_wait"]
        scans = [r["duration_s"] for r in records if r["name"] == "scan"]
        merges = [r["duration_s"] for r in records if r["name"] == "merge"]
        fanout = []
        for rec in records:
            children = kids.get(rec["span_id"], [])
            if rec["name"] != "recommend_batch" or not any(
                c["name"] == "scan" for c in children
            ):
                continue
            per_shard: Dict[object, float] = {}
            for child in children:
                if child["name"] in ("queue_wait", "scan"):
                    shard = child["tags"].get("shard")
                    per_shard[shard] = per_shard.get(shard, 0.0) + child["duration_s"]
            merge = sum(c["duration_s"] for c in children if c["name"] == "merge")
            fanout.append(rec["duration_s"] - max(per_shard.values()) - merge)
        stats = report["backend_stats"]
        lookups = stats["cache_hits"] + stats["cache_misses"]
        rows = stats["requests"]
        all_lateness = nominal.lateness + [x for p in probes for x in p.lateness]
        traced_p50 = _p(nominal.latency, 50)
        base_p50 = _p(base.latency, 50)
        client_p50 = traced_p50
        negatives = sum(t.get("negatives"))
        self.result.per_layer = {
            "gateway.batching.coalesce_wait_ms.p50": report["coalesce_wait_p50_s"] * 1000,
            "gateway.batching.batch_rows.mean": report["batch_rows_mean"],
            "gateway.server.self_ms.p50": _p(_ms(server_self), 50),
            "gateway.server.self_ms.p99": _tail(_ms(server_self)),
            "gateway.admission.shed_share": report["shed"] / max(1.0, report["requests"]),
            "serving.service.batch_ms.p50": _p(_ms(sut_timings.get("batch", [])), 50),
            "serving.service.batch_ms.p99": _tail(_ms(sut_timings.get("batch", []))),
            "serving.service.cache_hit_ratio": stats["cache_hits"] / lookups if lookups else 0.0,
            "serving.service.swap_ms.p50": _p(_ms(sut_timings.get("swap", [])), 50),
            "serving.service.swap_ms.max": max(_ms(sut_timings.get("swap", [0.0]))),
            "serving.sharding.queue_wait_ms.p50": _p(_ms(queue_wait), 50),
            "serving.sharding.queue_wait_ms.p99": _tail(_ms(queue_wait)),
            "serving.sharding.merge_ms.p50": _p(_ms(merges), 50),
            "serving.sharding.fanout_ms.p50": _p(_ms(fanout), 50),
            "serving.index.scan_ms.p50": _p(_ms(scans), 50),
            "serving.index.scan_ms.p99": _tail(_ms(scans)),
            "serving.index.scored_fraction": stats["nodes_scored"] / max(1.0, rows * report["n_items"]),
            "serving.index.short_pages": float(self.result.notes["short_pages"]),
            "serving.bundle.save_s": statistics.median(t.get("save")),
            "serving.bundle.load_s": statistics.median(t.get("load")),
            "repro.import_s": statistics.median(t.get("import")),
            "core.sampling.negatives_s": negatives / SETUP_REPS,
            "core.sgd.update_s": (sum(t.get("epoch")) - negatives) / SETUP_REPS,
            "train.epoch_s.mean": statistics.mean(t.get("epoch")),
            "streaming.updater.apply_ms.p50": _p(_ms(sut_timings.get("apply", [])), 50),
            "streaming.updater.apply_ms.p99": _tail(_ms(sut_timings.get("apply", []))),
            "streaming.updater.snapshot_ms.p50": _p(_ms(sut_timings.get("snapshot", [])), 50),
            "streaming.swap.publish_ms.p50": _p(_ms(sut_timings.get("publish", [])), 50),
            "streaming.swap.publish_ms.p99": _tail(_ms(sut_timings.get("publish", []))),
            "streaming.swap.checkpoint_ms.p50": _p(_ms(sut_timings.get("checkpoint", [])), 50),
            "loadgen.lateness_ms.p99": _tail(_ms(all_lateness)),
            "obs.tracing.overhead_share": (traced_p50 - base_p50) / base_p50 if base_p50 else 0.0,
            "obs.unattributed_share": max(0.0, 1.0 - _p(http, 50) / client_p50) if client_p50 else 0.0,
        }


class EdgeZipf(ServingWorkload):
    """Single-user requests over one exact ``RecommenderService``."""

    name = "edge-zipf"
    limit_s = 0.025
    nominal_rate = 150.0
    ladder_args = (100.0, 1600.0, 1.10)
    users_per_request = 1

    def dataset(self):
        return {"n_users": 4000, "mean_transactions": 5.0}

    def train_config(self):
        from repro import TrainConfig

        return TrainConfig(factors=16, epochs=8, sibling_ratio=0.5, seed=_seed(self.seed, 3))


class CatalogIvf(ServingWorkload):
    """32-user batches through an item-partitioned IVF shard fleet."""

    name = "catalog-ivf"
    limit_s = 0.250
    nominal_rate = 10.0
    ladder_args = (4.0, 64.0, 1.10)
    users_per_request = 32
    stream_events = 1024
    stream_replays = 4
    recall_floor = 0.95
    #: Held-out Recall@10 is ~0.005 with 2k users on 100k items and 0 on
    #: some seeds, so the model is held to its AUC instead: 0.754-0.870
    #: on seeds 1-10 where a random ranking scores 0.5; the floor keeps
    #: about three quarters of the lowest margin over random.  Each user's
    #: AUC ranks all 100k items, hence the smaller sample.
    held_out_floor = ("auc", 0.69, 64)
    #: IVF probes 1% of the taxonomy cells (the archived gate point).
    probe_fraction = 0.01

    def dataset(self):
        return {
            "n_users": 2000, "mean_transactions": 5.0,
            "branching": (20, 10, 10), "items_per_leaf": 50,
        }

    def train_config(self):
        from repro import TrainConfig

        return TrainConfig(factors=16, epochs=4, sibling_ratio=0.5, seed=_seed(self.seed, 3))

    def sut_router(self, model):
        from repro.serving.index import SubtreeIndex

        fs = model.factor_set
        cells = SubtreeIndex(
            fs.effective_items(), fs.bias_of_items(), model.taxonomy, approx=True
        ).n_cells
        return {
            "n_shards": max(1, os.cpu_count() or 1), "partition": "items",
            "retrieval": "ivf", "nprobe": max(1, round(self.probe_fraction * cells)),
        }


WORKLOADS = {
    "edge-zipf": EdgeZipf,
    "catalog-ivf": CatalogIvf,
}
