"""Tests for the compile-plan service (repro.serve)."""

import asyncio
import json
import time

import pytest

from repro.core.cache import CompileCache
from repro.core.compiler import compile_program
from repro.analysis.autotune import Candidate
from repro.serve import (
    PlanClient,
    PlanRequest,
    PlanService,
    PlanServiceError,
    ServeError,
    reset_serve_stats,
    serve_stats,
)
from repro.serve.service import MAX_RANKS, MAX_SIZE_BYTES


@pytest.fixture(autouse=True)
def clean_serve_stats():
    reset_serve_stats()
    yield
    reset_serve_stats()


def small_request(**overrides):
    """A 4-rank generic-topology ask — the cheapest compile we have."""
    doc = {"collective": "allreduce", "size_bytes": 1 << 20,
           "topology": "generic", "nodes": 1, "gpus_per_node": 4}
    doc.update(overrides)
    return PlanRequest(**doc)


def make_service(**overrides):
    """A service over a private memory-only cache (test isolation)."""
    kwargs = {"cache": CompileCache(), "autotune": False}
    kwargs.update(overrides)
    return PlanService(**kwargs)


def slow_compile(delay, calls):
    """A compile_fn seam that sleeps, then compiles for real."""

    def fn(program, options):
        calls.append(program.name)
        time.sleep(delay)
        return compile_program(program, options)

    return fn


class TestRequestValidation:
    def test_unknown_collective_rejected(self):
        with pytest.raises(ServeError, match="unknown collective"):
            PlanRequest.from_doc({"collective": "allscatter", "size": 1})

    def test_missing_size_rejected(self):
        with pytest.raises(ServeError, match="integer 'size'"):
            PlanRequest.from_doc({"collective": "allreduce"})

    def test_bad_protocol_rejected(self):
        with pytest.raises(ServeError, match="unknown protocol"):
            PlanRequest.from_doc({"collective": "allreduce", "size": 1,
                                  "protocol": "TURBO"})

    def test_size_alias_and_family_key(self):
        request = PlanRequest.from_doc(
            {"collective": "allreduce", "size_bytes": 4096})
        assert request.size_bytes == 4096
        # Sizes never split families; GPU count only matters when the
        # topology is generic.
        other = PlanRequest.from_doc(
            {"collective": "allreduce", "size": 1, "gpus_per_node": 4})
        assert request.family_key() == other.family_key()


class TestDedupInFlight:
    def test_concurrent_identical_requests_share_one_compile(self):
        calls = []
        service = make_service(compile_fn=slow_compile(0.1, calls))
        request = small_request()

        async def body():
            plans = await asyncio.gather(
                *(service.plan(request) for _ in range(6)))
            await service.stop()
            return plans

        plans = asyncio.run(body())
        assert len(calls) == 1
        assert all(p == plans[0] for p in plans)
        stats = serve_stats()
        assert stats["requests"] == 6
        assert stats["cold_misses"] == 1
        assert stats["dedup_inflight"] == 5

    def test_distinct_families_do_not_dedup(self):
        calls = []
        service = make_service(compile_fn=slow_compile(0.05, calls))

        async def body():
            await asyncio.gather(
                service.plan(small_request()),
                service.plan(small_request(collective="allgather")))
            await service.stop()

        asyncio.run(body())
        assert len(calls) == 2
        assert serve_stats()["dedup_inflight"] == 0

    def test_warm_requests_hit_the_plan_table(self):
        service = make_service()
        request = small_request()

        async def body():
            first = await service.plan(request)
            second = await service.plan(request)
            await service.stop()
            return first, second

        first, second = asyncio.run(body())
        assert first["plan_id"] == second["plan_id"]
        stats = serve_stats()
        assert stats["plan_hits"] == 1
        assert stats["cold_misses"] == 1


class TestBackgroundPromotion:
    def test_cold_miss_then_promote(self):
        service = make_service(
            autotune=True,
            tune_sizes=(1 << 20,),
            tune_space=(Candidate(1, 1, "LL"), Candidate(1, 2, "LL")),
        )
        request = small_request()

        async def body():
            cold = await service.plan(request)
            await service.drain_background()
            warm = await service.plan(request)
            await service.stop()
            return cold, warm

        cold, warm = asyncio.run(body())
        assert cold["tuned"] is False
        assert warm["tuned"] is True
        assert warm["origin"] == "tuned"
        assert warm["predicted_us"] > 0
        stats = serve_stats()
        assert stats["tune_runs"] == 1
        assert stats["promotions"] == 1

    def test_pinned_protocol_restricts_the_space(self):
        service = make_service(
            autotune=True,
            tune_sizes=(1 << 20,),
            tune_space=(Candidate(1, 1, "LL"), Candidate(1, 2, "Simple")),
        )
        request = small_request(protocol="Simple")

        async def body():
            await service.plan(request)
            await service.drain_background()
            plan = await service.plan(request)
            await service.stop()
            return plan

        plan = asyncio.run(body())
        assert plan["protocol"] == "Simple"

    def test_tuned_family_agrees_with_plan_table(self, monkeypatch):
        """The service's promoted table and plan_table() pick the same
        winner for one TuningResult, at every tuned size and at every
        row boundary +-1."""
        from repro.analysis import plan_table
        from repro.serve import service as service_module

        results = []
        real_tune = service_module.tune_async

        async def capture(*args, **kwargs):
            results.append(await real_tune(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(service_module, "tune_async", capture)
        sizes = (4 << 10, 64 << 10, 1 << 20, 16 << 20)
        service = make_service(autotune=True, tune_sizes=sizes)
        request = small_request()

        async def body(probes):
            await service.plan(request)
            await service.drain_background()
            (result,) = results
            table = plan_table(result)
            probes.update(s + d for s in sizes for d in (-1, 0, 1))
            probes.update(edge + d for lo, hi, _ in table.rows
                          for edge in (lo, hi) if edge != float("inf")
                          for d in (-1, 0, 1) if edge + d >= 0)
            labels = {}
            for size in sorted(probes):
                plan = await service.plan(small_request(
                    size_bytes=size, include_xml=False))
                labels[size] = (plan["label"], table.select(size).label)
            await service.stop()
            return table, labels

        table, labels = asyncio.run(body(set()))
        assert len(table.rows) > 1  # the probe crosses a boundary
        for size, (served, tabled) in labels.items():
            assert served == tabled, size


    def test_parallel_tunes_promote_every_family(self):
        """Background tunes with worker processes, started while the
        event loop and executor threads are live, finish and promote."""
        service = make_service(
            autotune=True, tune_jobs=2, tune_sizes=(64 << 10, 1 << 20),
            tune_space=(Candidate(1, 1, "LL"), Candidate(1, 2, "Simple")),
        )
        requests = [small_request(collective=c)
                    for c in ("allreduce", "allgather", "reducescatter")]

        async def body():
            await asyncio.gather(*(service.plan(r) for r in requests))
            await asyncio.wait_for(service.drain_background(), timeout=120)
            stats = service.stats()
            await service.stop()
            return stats

        stats = asyncio.run(body())
        assert stats["families"] == 3
        assert stats["tuned_families"] == 3
        assert stats["serve"]["tune_errors"] == 0


class TestShieldedCancellation:
    def test_cancelled_waiter_does_not_kill_the_shared_compile(self):
        calls = []
        service = make_service(compile_fn=slow_compile(0.2, calls))
        request = small_request()

        async def body():
            waiter = asyncio.ensure_future(service.plan(request))
            await asyncio.sleep(0.05)
            waiter.cancel()
            try:
                await waiter
            except asyncio.CancelledError:
                pass
            # The shielded compile keeps going and lands in the table.
            await service.drain_background()
            plan = await service.plan(request)
            await service.stop()
            return plan

        plan = asyncio.run(body())
        assert plan["algorithm"]
        assert len(calls) == 1
        assert serve_stats()["plan_hits"] == 1

    def test_client_disconnect_mid_request_leaves_service_healthy(self):
        calls = []
        service = make_service(compile_fn=slow_compile(0.3, calls))
        request = small_request()

        async def body():
            await service.start("127.0.0.1", 0)
            host, port = service.address
            # A raw client that asks, then slams the connection shut
            # while the service is still compiling.
            reader, writer = await asyncio.open_connection(host, port)
            doc = {"op": "plan", "collective": "allreduce",
                   "size": 1 << 20, "topology": "generic",
                   "gpus_per_node": 4}
            writer.write(json.dumps(doc).encode() + b"\n")
            await writer.drain()
            await asyncio.sleep(0.05)
            writer.transport.abort()
            # A well-behaved client right behind it still gets served.
            async with PlanClient(host, port) as client:
                plan = await client.plan(
                    "allreduce", 1 << 20, topology="generic",
                    gpus_per_node=4)
                assert await client.ping()
            await service.stop()
            return plan

        plan = asyncio.run(body())
        assert plan["algorithm"]
        # One compile served both the aborted and the healthy client.
        assert len(calls) == 1


class TestWireProtocol:
    def run_with_server(self, coro_fn, **service_kwargs):
        service = make_service(**service_kwargs)

        async def body():
            await service.start("127.0.0.1", 0)
            host, port = service.address
            try:
                return await coro_fn(service, host, port)
            finally:
                await service.stop()

        return asyncio.run(body())

    def test_plan_roundtrip_with_raw_xml_framing(self):
        async def body(service, host, port):
            async with PlanClient(host, port) as client:
                full = await client.plan(
                    "allreduce", 1 << 20, topology="generic",
                    gpus_per_node=4)
                bare = await client.plan(
                    "allreduce", 1 << 20, topology="generic",
                    gpus_per_node=4, include_xml=False)
            return full, bare

        full, bare = self.run_with_server(body)
        assert full["xml"].startswith("<algo")
        assert "xml" not in bare and "xml_bytes" not in bare
        assert bare["plan_id"] == full["plan_id"]

    def test_revalidation_answers_with_a_match(self):
        async def body(service, host, port):
            async with PlanClient(host, port) as client:
                first = await client.plan(
                    "allreduce", 1 << 20, topology="generic",
                    gpus_per_node=4)
                second = await client.plan(
                    "allreduce", 1 << 20, topology="generic",
                    gpus_per_node=4)
            return first, second

        first, second = self.run_with_server(body)
        # The second response was a short 'match' line; the client
        # rebuilt the payload from its cache, byte-for-byte.
        assert second == first
        assert serve_stats()["not_modified"] == 1

    def test_stats_ping_and_errors_over_the_wire(self):
        async def body(service, host, port):
            reader, writer = await asyncio.open_connection(host, port)

            async def ask(raw):
                writer.write(raw)
                await writer.drain()
                return json.loads(await reader.readline())

            pong = await ask(b'{"op":"ping"}\n')
            garbage = await ask(b'this is not json\n')
            unknown = await ask(b'{"op":"dance"}\n')
            bad = await ask(b'{"op":"plan","collective":"nope","size":1}\n')
            stats = await ask(b'{"op":"stats"}\n')
            writer.close()
            return pong, garbage, unknown, bad, stats

        pong, garbage, unknown, bad, stats = self.run_with_server(body)
        assert pong == {"ok": True, "pong": True}
        assert garbage["ok"] is False and "bad request" in garbage["error"]
        assert unknown["ok"] is False and "unknown op" in unknown["error"]
        assert bad["ok"] is False and "unknown collective" in bad["error"]
        assert stats["ok"] is True
        assert stats["stats"]["serve"]["errors"] == 3

    def test_non_integer_fields_answer_with_errors(self):
        bad_fields = [
            ("nodes", "abc"), ("nodes", None), ("nodes", []),
            ("gpus_per_node", "abc"), ("gpus_per_node", None),
            ("gpus_per_node", []), ("gpus_per_node", float("nan")),
            ("size", float("inf")),
            ("size", True), ("size", 1.5),
            ("nodes", True), ("nodes", 1.5),
            ("gpus_per_node", True), ("gpus_per_node", 2.5),
        ]

        async def body(service, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            answers = []
            for name, value in bad_fields:
                doc = {"op": "plan", "collective": "allreduce",
                       "size": 1024, name: value}
                writer.write(json.dumps(doc).encode() + b"\n")
                await writer.drain()
                answers.append(json.loads(await reader.readline()))
            writer.write(b'{"op":"ping"}\n')
            await writer.drain()
            pong = json.loads(await reader.readline())
            writer.close()
            return answers, pong

        answers, pong = self.run_with_server(body)
        for (name, _value), answer in zip(bad_fields, answers):
            assert answer["ok"] is False
            assert name in answer["error"]
        assert pong == {"ok": True, "pong": True}

    def test_oversized_fields_answer_with_errors(self):
        # Each field past its ceiling, alone over one live connection:
        # 33 NDv4 nodes and 17 DGX-2 nodes are 264 and 272 ranks.
        oversized = [
            ("size", {"size": 1e30}),
            ("size", {"size": MAX_SIZE_BYTES + 1}),
            ("size", {"size": 10 ** 30}),
            ("nodes", {"nodes": 33}),
            ("nodes", {"nodes": 17, "topology": "dgx2"}),
            ("nodes", {"nodes": 10 ** 12}),
            ("gpus_per_node", {"topology": "generic",
                               "gpus_per_node": MAX_RANKS + 1}),
            ("gpus_per_node", {"topology": "generic", "nodes": 2,
                               "gpus_per_node": 129}),
        ]

        async def body(service, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            answers = []
            for _name, fields in oversized:
                doc = {"op": "plan", "collective": "allreduce",
                       "size": 1024, **fields}
                writer.write(json.dumps(doc).encode() + b"\n")
                await writer.drain()
                answers.append(json.loads(await reader.readline()))
            writer.write(b'{"op":"ping"}\n')
            await writer.drain()
            pong = json.loads(await reader.readline())
            writer.close()
            return answers, pong

        answers, pong = self.run_with_server(body)
        for (name, _fields), answer in zip(oversized, answers):
            assert answer["ok"] is False
            assert name in answer["error"]
        assert pong == {"ok": True, "pong": True}
        # Each was refused before any compile started.
        stats = serve_stats()
        assert stats["errors"] == len(oversized)
        assert stats["cold_misses"] == 0

    def test_largest_allowed_request_is_accepted(self):
        request = PlanRequest.from_doc(
            {"collective": "allreduce", "size": MAX_SIZE_BYTES,
             "nodes": MAX_RANKS // 8})
        assert request.nodes * 8 == MAX_RANKS
        assert request.size_bytes == MAX_SIZE_BYTES

    def test_client_raises_on_service_error(self):
        async def body(service, host, port):
            async with PlanClient(host, port) as client:
                with pytest.raises(PlanServiceError,
                                   match="unknown collective"):
                    await client.request(
                        {"op": "plan", "collective": "nope", "size": 1})

        self.run_with_server(body)

    def test_shutdown_op_stops_the_server(self):
        async def body(service, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            serve_task = asyncio.ensure_future(
                service.serve_until_shutdown())
            await asyncio.sleep(0)
            writer.write(b'{"op":"shutdown"}\n')
            await writer.drain()
            response = json.loads(await reader.readline())
            await asyncio.wait_for(serve_task, timeout=5)
            writer.close()
            return response

        response = self.run_with_server(body)
        assert response == {"ok": True, "stopping": True}


class TestTracerBound:
    def test_warm_requests_add_no_spans(self):
        service = make_service()
        request = small_request(include_xml=False)

        async def body():
            await service.plan(request)
            before = len(list(service.tracer.walk()))
            for _ in range(1000):
                await service.plan(request)
            await service.stop()
            return before, len(list(service.tracer.walk()))

        before, after = asyncio.run(body())
        assert before == after == 1
        assert serve_stats()["plan_hits"] == 1000


class TestMetricsIntegration:
    def test_serve_section_appears_in_metrics_dict(self):
        from repro.observe import metrics_dict, metrics_text

        service = make_service()

        async def body():
            await service.plan(small_request())
            await service.plan(small_request())
            await service.stop()

        asyncio.run(body())
        metrics = metrics_dict(service.tracer)
        assert metrics["serve"]["requests"] == 2
        assert metrics["serve"]["plan_hits"] == 1
        assert "serve.request" in metrics["spans"]
        assert "plan service: 2 request(s)" in metrics_text(metrics)
