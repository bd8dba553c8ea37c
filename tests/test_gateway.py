"""Tests for the HTTP serving edge (``repro.gateway``).

Covers the wire format, the coalescer's routing/determinism contract,
admission control (shed + drain), the server's routes and error mapping,
drain-during-swap coherence (no response ever pairs a row with a retired
generation), the load generator's seeded determinism, and the
``ShardRequest`` payload migration with deadline propagation.
"""

from __future__ import annotations

import asyncio
import json
import time

import numpy as np
import pytest

from repro.gateway import (
    SHAPES,
    AdmissionController,
    Coalescer,
    Gateway,
    GatewayConfig,
    LoadGenerator,
    Overloaded,
    zipfian_weights,
)
from repro.gateway.loadgen import shape_diurnal, shape_flash
from repro.gateway.wire import (
    HttpError,
    Request,
    Response,
    encode_request,
    encode_response,
    read_request,
    read_response,
)
from repro.obs.metrics import MetricsRegistry
from repro.serving import RecommenderService
from repro.serving.sharding import (
    DeadlineExceeded,
    ShardRequest,
    ShardRouter,
    _ShardLink,
    _WorkerState,
)


class FakeBackend:
    """Deterministic in-process backend: row ``i`` repeats ``users[i]``."""

    def __init__(self, n_users=100, delay_s=0.0):
        self.generation = 0
        self.n_users = n_users
        self.delay_s = delay_s
        self.calls = []

    def recommend_batch(self, users, k=10, histories=None):
        if self.delay_s:
            time.sleep(self.delay_s)
        self.calls.append(list(users))
        return np.asarray(
            [[-1] * k if u is None else [int(u)] * k for u in users],
            dtype=np.int64,
        )

    def swap_model(self, model, popularity=None):
        self.generation += 1


class DeadlineBackend(FakeBackend):
    """Records the ``deadline`` keyword the coalescer forwards."""

    def __init__(self):
        super().__init__()
        self.deadlines = []

    def recommend_batch(self, users, k=10, histories=None, deadline=None):
        self.deadlines.append(deadline)
        return super().recommend_batch(users, k=k, histories=histories)


async def _roundtrip(port, method, path, payload=None):
    """One HTTP exchange on a fresh connection."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        body = b"" if payload is None else json.dumps(payload).encode()
        writer.write(encode_request(method, path, body))
        await writer.drain()
        return await read_response(reader)
    finally:
        writer.close()


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------
class TestWire:
    def _serve_bytes(self, blob):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(blob)
            reader.feed_eof()
            return await read_request(reader)

        return asyncio.run(run())

    def test_request_roundtrip(self):
        blob = encode_request(
            "POST", "/v1/recommend?x=1", json.dumps({"user": 3}).encode()
        )
        request = self._serve_bytes(blob)
        assert request.method == "POST"
        assert request.path == "/v1/recommend"
        assert request.query == "x=1"
        assert request.json() == {"user": 3}
        assert request.keep_alive  # HTTP/1.1 default

    def test_clean_eof_returns_none(self):
        assert self._serve_bytes(b"") is None

    def test_partial_head_is_400(self):
        with pytest.raises(HttpError) as excinfo:
            self._serve_bytes(b"POST /v1/recommend HTTP/1.1\r\n")
        assert excinfo.value.status == 400

    def test_malformed_request_line_is_400(self):
        with pytest.raises(HttpError) as excinfo:
            self._serve_bytes(b"NONSENSE\r\n\r\n")
        assert excinfo.value.status == 400

    def test_oversized_body_is_413(self):
        blob = encode_request("POST", "/v1/recommend", b"x" * 100)

        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(blob)
            reader.feed_eof()
            return await read_request(reader, max_body_bytes=10)

        with pytest.raises(HttpError) as excinfo:
            asyncio.run(run())
        assert excinfo.value.status == 413

    def test_bad_json_body_is_400(self):
        request = Request(method="POST", path="/", body=b"{nope")
        with pytest.raises(HttpError) as excinfo:
            request.json()
        assert excinfo.value.status == 400

    def test_response_roundtrip_with_headers(self):
        blob = encode_response(
            Response.json_payload(429, {"e": 1}, headers={"Retry-After": "2"})
        )

        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(blob)
            reader.feed_eof()
            return await read_response(reader)

        response = asyncio.run(run())
        assert response.status == 429
        assert response.headers["retry-after"] == "2"
        assert response.json() == {"e": 1}


# ----------------------------------------------------------------------
# Coalescer
# ----------------------------------------------------------------------
class TestCoalescer:
    def test_interleaved_submits_route_rows_to_the_right_client(self):
        """Many concurrent clients, shuffled arrival order, one answer each."""
        backend = FakeBackend()

        async def run():
            coalescer = Coalescer(backend, max_batch=8, max_delay_s=0.01)
            users = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3]
            results = await asyncio.gather(
                *(coalescer.submit(u, k=4) for u in users)
            )
            return users, results

        users, results = asyncio.run(run())
        for user, result in zip(users, results):
            assert result.row.tolist() == [user] * 4
        # Coalescing actually happened: fewer backend calls than clients.
        assert 1 <= len(backend.calls) <= len(users) // 4

    def test_rows_bit_identical_to_single_user_reference(self):
        """PR 5 determinism: coalescing changes batching, never content."""
        backend = FakeBackend()
        reference = {
            u: backend.recommend_batch([u], k=6)[0].tolist() for u in range(10)
        }
        backend.calls.clear()

        async def run():
            coalescer = Coalescer(backend, max_batch=4, max_delay_s=0.005)
            return await asyncio.gather(
                *(coalescer.submit(u, k=6) for u in range(10))
            )

        for user, result in enumerate(asyncio.run(run())):
            assert result.row.tolist() == reference[user]

    def test_max_delay_flushes_partial_batch(self):
        backend = FakeBackend()

        async def run():
            coalescer = Coalescer(backend, max_batch=1000, max_delay_s=0.01)
            started = time.monotonic()
            result = await coalescer.submit(5, k=3)
            return result, time.monotonic() - started

        result, elapsed = asyncio.run(run())
        assert result.row.tolist() == [5, 5, 5]
        assert result.batch_size == 1
        assert elapsed < 5.0  # flushed by the timer, not stuck forever

    def test_distinct_k_buckets_do_not_mix(self):
        backend = FakeBackend()

        async def run():
            coalescer = Coalescer(backend, max_batch=2, max_delay_s=0.01)
            return await asyncio.gather(
                coalescer.submit(1, k=3),
                coalescer.submit(2, k=5),
                coalescer.submit(3, k=3),
                coalescer.submit(4, k=5),
            )

        a, b, c, d = asyncio.run(run())
        assert len(a.row) == 3 and len(c.row) == 3
        assert len(b.row) == 5 and len(d.row) == 5

    def test_backend_failure_propagates_to_every_waiter(self):
        class Exploding:
            generation = 0

            def recommend_batch(self, users, k=10, histories=None):
                raise RuntimeError("scan failed")

        async def run():
            coalescer = Coalescer(Exploding(), max_batch=2, max_delay_s=0.01)
            return await asyncio.gather(
                coalescer.submit(1), coalescer.submit(2),
                return_exceptions=True,
            )

        results = asyncio.run(run())
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_deadline_forwarded_only_when_every_member_has_one(self):
        backend = DeadlineBackend()

        async def run():
            coalescer = Coalescer(backend, max_batch=2, max_delay_s=0.01)
            far = time.monotonic() + 60.0
            await asyncio.gather(
                coalescer.submit(1, deadline=far),
                coalescer.submit(2, deadline=far + 5.0),
            )
            await asyncio.gather(
                coalescer.submit(3, deadline=far), coalescer.submit(4)
            )
            return far

        far = asyncio.run(run())
        # First batch carried the tightest member deadline …
        assert backend.deadlines[0] == pytest.approx(far)
        # … but a mixed batch forwards none (no early-failing its
        # unbounded members).
        assert backend.deadlines[1] is None

    def test_batch_size_metric_recorded(self):
        registry = MetricsRegistry()
        backend = FakeBackend()

        async def run():
            coalescer = Coalescer(
                backend, max_batch=4, max_delay_s=0.01, registry=registry
            )
            await asyncio.gather(*(coalescer.submit(u) for u in range(4)))

        asyncio.run(run())
        series = [
            m
            for m in registry.snapshot()["metrics"]
            if m["name"] == "repro_gateway_batch_rows"
        ]
        assert series and series[0]["count"] >= 1


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_sheds_past_max_inflight(self):
        async def run():
            admission = AdmissionController(max_inflight=1, retry_after_s=0.2)
            async with admission.slot():
                with pytest.raises(Overloaded) as excinfo:
                    await admission.acquire()
                return excinfo.value

        exc = asyncio.run(run())
        assert exc.retry_after_s == pytest.approx(0.2)
        assert exc.retry_after_header == "1"

    def test_zero_inflight_sheds_everything(self):
        async def run():
            admission = AdmissionController(max_inflight=0)
            with pytest.raises(Overloaded):
                await admission.acquire()

        asyncio.run(run())

    def test_drain_waits_for_idle_and_parks_arrivals(self):
        """The 0-stale/0-dropped choreography, observed step by step."""
        events = []

        async def run():
            admission = AdmissionController(max_inflight=8)

            async def request(name, hold_s):
                async with admission.slot():
                    events.append(f"{name}:admitted")
                    await asyncio.sleep(hold_s)
                events.append(f"{name}:done")

            async def swap():
                await asyncio.sleep(0.01)  # let early requests get admitted
                async with admission.drain():
                    events.append(f"swap:quiet(inflight={admission.inflight})")
                events.append("swap:done")

            early = asyncio.create_task(request("early", 0.05))
            swapper = asyncio.create_task(swap())
            await asyncio.sleep(0.02)  # drain is now parked across the door
            late = asyncio.create_task(request("late", 0.0))
            await asyncio.sleep(0.005)
            assert admission.draining and admission.queued == 1
            await asyncio.gather(early, swapper, late)

        asyncio.run(run())
        assert events.index("early:done") < events.index("swap:quiet(inflight=0)")
        assert events.index("swap:quiet(inflight=0)") < events.index("late:admitted")

    def test_drain_queue_bound_sheds_excess_waiters(self):
        async def run():
            admission = AdmissionController(max_inflight=8, max_queued=1)
            async with admission.slot():
                drain_task = asyncio.create_task(self._drain(admission))
                await asyncio.sleep(0.01)  # drain parked, waiting for idle
                waiter = asyncio.create_task(admission.acquire())
                await asyncio.sleep(0.01)
                with pytest.raises(Overloaded):
                    await admission.acquire()  # queue already full
                waiter.cancel()
                drain_task.cancel()

        asyncio.run(run())

    @staticmethod
    async def _drain(admission):
        async with admission.drain():
            pass


# ----------------------------------------------------------------------
# The server, end to end over real sockets
# ----------------------------------------------------------------------
class TestGatewayServer:
    def test_recommend_healthz_metrics_and_errors(self):
        backend = FakeBackend(n_users=42)

        async def run():
            async with Gateway(
                backend, GatewayConfig(max_delay_s=0.001)
            ) as gateway:
                health = await _roundtrip(gateway.port, "GET", "/healthz")
                rec = await _roundtrip(
                    gateway.port, "POST", "/v1/recommend", {"user": 7, "k": 4}
                )
                batch = await _roundtrip(
                    gateway.port, "POST", "/v1/recommend",
                    {"users": [1, 2], "k": 3},
                )
                metrics = await _roundtrip(gateway.port, "GET", "/metrics")
                missing = await _roundtrip(gateway.port, "GET", "/nope")
                wrong_method = await _roundtrip(gateway.port, "GET", "/v1/recommend")
                bad_k = await _roundtrip(
                    gateway.port, "POST", "/v1/recommend", {"user": 1, "k": 0}
                )
                return health, rec, batch, metrics, missing, wrong_method, bad_k

        health, rec, batch, metrics, missing, wrong_method, bad_k = asyncio.run(run())
        assert health.status == 200
        assert health.json() == {
            "status": "ok", "generation": 0, "inflight": 0, "users": 42,
        }
        assert rec.status == 200
        assert rec.json()["items"] == [7, 7, 7, 7]
        assert rec.json()["generation"] == 0
        assert batch.status == 200
        assert batch.json()["items"] == [[1, 1, 1], [2, 2, 2]]
        assert metrics.status == 200
        assert "repro_gateway_request_latency_seconds" in metrics.body.decode()
        assert "repro_gateway_requests_total" in metrics.body.decode()
        assert missing.status == 404
        assert wrong_method.status == 405
        assert bad_k.status == 400

    def test_keep_alive_serves_many_requests_on_one_connection(self):
        backend = FakeBackend()

        async def run():
            async with Gateway(
                backend, GatewayConfig(max_delay_s=0.001)
            ) as gateway:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", gateway.port
                )
                statuses = []
                try:
                    for user in range(5):
                        writer.write(encode_request(
                            "POST", "/v1/recommend",
                            json.dumps({"user": user}).encode(),
                        ))
                        await writer.drain()
                        response = await read_response(reader)
                        statuses.append(response.status)
                finally:
                    writer.close()
                return statuses

        assert asyncio.run(run()) == [200] * 5

    def test_overload_answers_429_with_retry_after(self):
        backend = FakeBackend()

        async def run():
            config = GatewayConfig(max_inflight=0, retry_after_s=0.25)
            async with Gateway(backend, config) as gateway:
                shed = await _roundtrip(
                    gateway.port, "POST", "/v1/recommend", {"user": 1}
                )
                health = await _roundtrip(gateway.port, "GET", "/healthz")
                return shed, health

        shed, health = asyncio.run(run())
        assert shed.status == 429
        assert shed.headers["retry-after"] == "1"
        assert health.status == 200  # health bypasses admission

    def test_expired_deadline_answers_504(self):
        backend = FakeBackend(delay_s=0.05)

        async def run():
            async with Gateway(
                backend, GatewayConfig(max_delay_s=0.0)
            ) as gateway:
                return await _roundtrip(
                    gateway.port, "POST", "/v1/recommend",
                    {"user": 1, "deadline_ms": 1},
                )

        assert asyncio.run(run()).status == 504

    def test_malformed_json_answers_400(self):
        backend = FakeBackend()

        async def run():
            async with Gateway(backend, GatewayConfig()) as gateway:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", gateway.port
                )
                try:
                    writer.write(encode_request("POST", "/v1/recommend", b"{nope"))
                    await writer.drain()
                    return await read_response(reader)
                finally:
                    writer.close()

        assert asyncio.run(run()).status == 400


# ----------------------------------------------------------------------
# Drain-during-swap: the 0-stale / 0-dropped contract
# ----------------------------------------------------------------------
class TestSwapUnderLoad:
    def test_no_response_pairs_a_row_with_a_retired_generation(
        self, tf_model, mf_model, split
    ):
        """Hammer the gateway while the model hot-swaps underneath it.

        Generations alternate between two real models; every 200
        response's items must equal the reference rows of the generation
        it claims to have been served by.  A stale pair (old rows, new
        generation — or the reverse) means the drain leaked a request
        across a publication.
        """
        service = RecommenderService(tf_model, history_log=split.train)
        references = {
            0: RecommenderService(tf_model, history_log=split.train),
            1: RecommenderService(mf_model, history_log=split.train),
        }
        users = list(range(12))
        k = 8
        expected = {
            parity: {
                u: ref.recommend_batch([u], k=k)[0].tolist() for u in users
            }
            for parity, ref in references.items()
        }
        mismatches = []
        statuses = []

        async def client(gateway, user):
            for _ in range(12):
                response = await _roundtrip(
                    gateway.port, "POST", "/v1/recommend", {"user": user, "k": k}
                )
                statuses.append(response.status)
                if response.status != 200:
                    continue
                payload = response.json()
                parity = payload["generation"] % 2
                if payload["items"] != [
                    i for i in expected[parity][user] if i >= 0
                ]:
                    mismatches.append((user, payload["generation"]))

        async def swapper(gateway):
            for generation in range(1, 5):
                await asyncio.sleep(0.01)
                model = mf_model if generation % 2 else tf_model
                seen = await gateway.swap_model(model)
                assert seen == generation

        async def run():
            config = GatewayConfig(
                max_batch=8, max_delay_s=0.001, max_inflight=64, max_queued=256
            )
            async with Gateway(service, config) as gateway:
                await asyncio.gather(
                    swapper(gateway),
                    *(client(gateway, u) for u in users),
                )

        asyncio.run(run())
        assert mismatches == []  # 0 stale
        assert statuses and all(s == 200 for s in statuses)  # 0 dropped
        assert service.generation == 4

    def test_draining_healthz_reports_state(self):
        backend = FakeBackend()

        async def run():
            async with Gateway(backend, GatewayConfig()) as gateway:
                async with gateway.admission.drain():
                    response = await _roundtrip(gateway.port, "GET", "/healthz")
                    return response.json()["status"]

        assert asyncio.run(run()) == "draining"


# ----------------------------------------------------------------------
# Load generator
# ----------------------------------------------------------------------
class TestLoadGenerator:
    def test_zipfian_weights_normalized_and_head_heavy(self):
        weights = zipfian_weights(100, exponent=1.0)
        assert weights.sum() == pytest.approx(1.0)
        assert weights[0] > weights[1] > weights[50]
        flat = zipfian_weights(10, exponent=0.0)
        np.testing.assert_allclose(flat, 0.1)

    def test_shapes_are_bounded_and_named(self):
        assert set(SHAPES) == {"constant", "diurnal", "flash"}
        for shape in SHAPES.values():
            for frac in np.linspace(0.0, 1.0, 21):
                assert 0.0 < shape(float(frac)) <= 1.0
        assert shape_flash(0.5) == 1.0 and shape_flash(0.05) == pytest.approx(0.3)
        assert shape_diurnal(0.5) == pytest.approx(1.0)

    def test_user_draws_replay_for_a_fixed_seed(self):
        from repro.utils.rng import derive_seed, ensure_rng

        first = LoadGenerator("127.0.0.1", 1, n_users=500, seed=99)
        second = LoadGenerator("127.0.0.1", 1, n_users=500, seed=99)
        other = LoadGenerator("127.0.0.1", 1, n_users=500, seed=100)
        rng_a = ensure_rng(derive_seed(99, 0))
        rng_b = ensure_rng(derive_seed(99, 0))
        rng_c = ensure_rng(derive_seed(100, 0))
        draws_a = [first.draw_user(rng_a) for _ in range(200)]
        draws_b = [second.draw_user(rng_b) for _ in range(200)]
        draws_c = [other.draw_user(rng_c) for _ in range(200)]
        assert draws_a == draws_b
        assert draws_a != draws_c

    def test_active_clients_follows_the_shape(self):
        generator = LoadGenerator(
            "127.0.0.1", 1, concurrency=10, shape="flash"
        )
        assert generator.active_clients(0.5) == 10
        assert generator.active_clients(0.05) == 3
        assert generator.active_clients(0.0) >= 1

    def test_short_closed_loop_run_against_a_live_gateway(self):
        backend = FakeBackend(n_users=50)

        async def run():
            registry = MetricsRegistry()
            async with Gateway(
                backend, GatewayConfig(max_delay_s=0.001), registry=registry
            ) as gateway:
                generator = LoadGenerator(
                    "127.0.0.1", gateway.port,
                    n_users=50, duration_s=0.3, concurrency=4, seed=7,
                    registry=registry,
                )
                return await generator.run(), registry

        report, registry = asyncio.run(run())
        assert report.ok > 0
        assert report.errors == 0
        assert report.generations == [0]
        assert report.qps > 0
        assert report.p99_ms >= report.p50_ms >= 0
        names = {m["name"] for m in registry.snapshot()["metrics"]}
        assert "repro_gateway_client_latency_seconds" in names

    def test_report_as_dict_is_json_serializable(self):
        report = LoadGenerator("h", 1).__class__  # class exists
        from repro.gateway.loadgen import LoadReport

        payload = LoadReport(requests=3, ok=2, shed=1).as_dict()
        assert json.loads(json.dumps(payload)) == payload


# ----------------------------------------------------------------------
# ShardRequest payloads + deadline propagation (satellite of this PR)
# ----------------------------------------------------------------------
class TestShardRequest:
    def test_request_defaults_and_version(self):
        users = np.asarray([1, 2], dtype=np.int64)
        request = ShardRequest(users=users, k=5, deadline=123.0)
        assert request.version == 1
        assert request.users is users
        assert request.k == 5 and request.deadline == 123.0
        assert request.histories is None and request.span_context is None

    def test_check_deadline_raises_typed_error_when_expired(self):
        _WorkerState._check_deadline(None)
        _WorkerState._check_deadline(time.monotonic() + 60.0)
        with pytest.raises(DeadlineExceeded):
            _WorkerState._check_deadline(time.monotonic() - 0.01)

    def test_link_decodes_expired_status_as_deadline_exceeded(self):
        link = _ShardLink(index=0, process=None, conn=None)
        with pytest.raises(DeadlineExceeded, match="shard 0"):
            link._decode("expired", "too late")
        with pytest.raises(Exception, match="request failed"):
            link._decode("error", "boom")
        assert link._decode("ok", 42) == 42

    def test_router_rejects_already_expired_deadline(self, tf_model, split):
        with ShardRouter(tf_model, n_shards=2, history_log=split.train) as router:
            with pytest.raises(DeadlineExceeded):
                router.recommend_batch(
                    [1, 2], k=5, deadline=time.monotonic() - 1.0
                )
            # A generous deadline serves normally, bit-identical.
            rows = router.recommend_batch(
                [1, 2], k=5, deadline=time.monotonic() + 60.0
            )
            baseline = router.recommend_batch([1, 2], k=5)
            np.testing.assert_array_equal(rows, baseline)
            assert router.n_users == tf_model.factor_set.n_users


# ----------------------------------------------------------------------
# Gateway over a shard fleet (integration)
# ----------------------------------------------------------------------
class TestGatewayOverFleet:
    def test_gateway_serves_router_rows_and_maps_expiry_to_504(
        self, tf_model, split
    ):
        with ShardRouter(tf_model, n_shards=2, history_log=split.train) as router:
            reference = router.recommend_batch([3], k=6)[0]

            async def run():
                async with Gateway(
                    router, GatewayConfig(max_delay_s=0.001)
                ) as gateway:
                    ok = await _roundtrip(
                        gateway.port, "POST", "/v1/recommend", {"user": 3, "k": 6}
                    )
                    expired = await _roundtrip(
                        gateway.port, "POST", "/v1/recommend",
                        {"user": 3, "k": 6, "deadline_ms": 0},
                    )
                    return ok, expired

            ok, expired = asyncio.run(run())
            assert ok.status == 200
            assert ok.json()["items"] == [int(i) for i in reference if i >= 0]
            assert expired.status == 504
