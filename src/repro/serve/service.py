"""The compile-plan service: NCCL-style runtime selection as a server.

The paper's model is "compile many specialized algorithms offline,
select per call at runtime"; this module makes that selection a
long-running, multi-tenant *service* instead of an in-process library
call. A :class:`PlanService` accepts (collective, topology preset,
size, constraints) requests over newline-delimited JSON and answers
with a ready-to-register plan — the MSCCL-IR XML plus selection
metadata — while doing three things no library call gets for free:

* **In-flight deduplication.** Concurrent identical requests (same
  plan *family*: collective x topology x constraints) ride one
  compile. The first request starts it; every other request awaits the
  same task and is counted in ``dedup_inflight``. A client that
  disconnects mid-wait never cancels the shared compile
  (:func:`asyncio.shield`) — the plan still lands for everyone else.
* **Two-tier cache serving.** Cold compiles run in a thread pool
  through the process-wide :class:`~repro.core.cache.CompileCache`, so
  a plan any previous process compiled is a disk hit (milliseconds),
  and a plan this process saw is a memory hit. Warm requests never
  touch the compiler at all: the plan table holds pre-serialized
  response payloads, so serving is a dict lookup plus a socket write.
* **Background autotuning.** The first request of a family returns a
  provisional single-candidate plan immediately; a background task
  then runs :func:`~repro.analysis.autotune.tune_async` over a
  candidate space (sharded across the worker pool when ``tune_jobs``
  > 1) and *promotes* the per-size winners into the plan table. Later
  requests transparently get the tuned plan for their size.

Each family's plans sit in one :class:`~repro.runtime.plans.PlanTable`
of response-ready :class:`PlanSpan` rows — the same size-range
selector the :class:`~repro.runtime.api.Communicator` uses, tiled from
the tuner's winners by the same :meth:`~repro.runtime.plans.PlanTable.
tiled`. A promotion swaps in a new table; tables never change in place.

Counters (requests, hits, dedup, promotions, ...) live in
:mod:`repro.serve.stats` and surface through
:func:`repro.observe.metrics_dict`. Cold and deduplicated requests
also land as ``serve.request`` spans on the service's tracer; table
hits are only counted (``plan_hits``), so the tracer grows with
compiles, not with requests.
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import algorithms
from ..analysis.autotune import Candidate, TuningResult, tune_async
from ..core.cache import CompileCache, default_compile_cache
from ..core.compiler import CompilerOptions, compile_program
from ..core.errors import MscclError
from ..observe.tracer import Tracer
from ..runtime.plans import PlanTable
from ..topology import presets
from ..topology.model import Topology
from .stats import bump, serve_stats

KiB = 1024
MiB = 1024 * 1024

# Responses are one JSON line each and a tuned plan's XML can run to
# megabytes, far past asyncio's 64 KiB default readline limit — both
# ends of the protocol size their stream buffers with this instead.
STREAM_LIMIT = 32 * MiB

PROTOCOLS = ("Simple", "LL", "LL128")

# Request ceilings, so one ask cannot start an unbounded compile: the
# paper's largest scale (256 A100 GPUs) and a 1 TiB buffer.
MAX_RANKS = 256
MAX_SIZE_BYTES = 2 ** 40

# Sizes the background tuner scores each candidate on; the plan table
# tiles the sizes between grid points (PlanTable.tiled).
DEFAULT_TUNE_SIZES = (64 * KiB, 1 * MiB, 16 * MiB)

# A deliberately small space: the service's job is to answer fast and
# refine in the background, not to exhaust the paper's full grid. Pass
# tune_space= for a bigger search (e.g. autotune.default_space()).
DEFAULT_TUNE_SPACE = (
    Candidate(1, 1, "LL"),
    Candidate(1, 2, "LL"),
    Candidate(1, 1, "Simple"),
    Candidate(1, 4, "Simple"),
    Candidate(2, 2, "LL"),
    Candidate(2, 4, "Simple"),
)


class ServeError(MscclError):
    """A request the service cannot satisfy (bad field, unknown name)."""


# -- plan-family builders -------------------------------------------------
# Module-level and parameterized by plain data so functools.partial over
# them pickles: the background tuner can shard candidate compiles across
# worker processes.

def _allreduce_builder(num_nodes, gpus_per_node, *, channels=1,
                       instances=1, protocol="Simple"):
    if num_nodes > 1:
        return algorithms.hierarchical_allreduce(
            num_nodes, gpus_per_node, instances=instances,
            protocol=protocol, intra_parallel=channels)
    return algorithms.ring_allreduce(
        gpus_per_node, channels=channels, instances=instances,
        protocol=protocol)


def _allgather_builder(num_nodes, gpus_per_node, *, channels=1,
                       instances=1, protocol="Simple"):
    return algorithms.ring_allgather(
        num_nodes * gpus_per_node, channels=channels,
        instances=instances, protocol=protocol)


def _reducescatter_builder(num_nodes, gpus_per_node, *, channels=1,
                           instances=1, protocol="Simple"):
    return algorithms.ring_reducescatter(
        num_nodes * gpus_per_node, channels=channels,
        instances=instances, protocol=protocol)


def _alltoall_builder(num_nodes, gpus_per_node, *, channels=1,
                      instances=1, protocol="Simple"):
    # channels is accepted for signature uniformity; the alltoall
    # algorithms parallelize via instances only.
    del channels
    if num_nodes > 1:
        return algorithms.twostep_alltoall(
            num_nodes, gpus_per_node, instances=instances,
            protocol=protocol)
    return algorithms.naive_alltoall(
        gpus_per_node, instances=instances, protocol=protocol,
        gpus_per_node=gpus_per_node)


def _broadcast_builder(num_nodes, gpus_per_node, *, channels=1,
                       instances=1, protocol="Simple"):
    del channels
    return algorithms.tree_broadcast(
        num_nodes * gpus_per_node, instances=instances,
        protocol=protocol)


COLLECTIVES: Dict[str, Callable] = {
    "allreduce": _allreduce_builder,
    "allgather": _allgather_builder,
    "reducescatter": _reducescatter_builder,
    "alltoall": _alltoall_builder,
    "broadcast": _broadcast_builder,
}

# GPUs per node of each preset (a generic request names its own).
_PRESET_GPUS = {name: build(1).num_ranks
                for name, build in presets.PRESETS.items()}


@dataclass(frozen=True)
class PlanRequest:
    """One (collective, topology, size, constraints) ask.

    ``protocol`` pins the protocol (otherwise the tuner picks per
    size); ``gpus_per_node`` only matters for the ``generic`` topology
    (presets fix their own GPU count). ``include_xml=False`` returns
    metadata only — for clients that select first and fetch lazily.
    ``if_plan`` revalidates: when it names the plan_id the request
    resolves to, the response is a tiny ``match`` line instead of the
    payload (plans are immutable, so a client-cached copy stays good).
    """

    collective: str
    size_bytes: int
    topology: str = "ndv4"
    nodes: int = 1
    gpus_per_node: int = 8
    protocol: Optional[str] = None
    include_xml: bool = True
    if_plan: Optional[str] = None

    @classmethod
    def from_doc(cls, doc: Dict) -> "PlanRequest":
        collective = doc.get("collective")
        if collective not in COLLECTIVES:
            raise ServeError(
                f"unknown collective {collective!r}; choose from "
                f"{', '.join(sorted(COLLECTIVES))}")
        topology = doc.get("topology", "ndv4")
        if topology != "generic" and topology not in presets.PRESETS:
            raise ServeError(
                f"unknown topology {topology!r}; choose from "
                f"generic, {', '.join(sorted(presets.PRESETS))}")
        size = _int_field(doc.get("size", doc.get("size_bytes")),
                          "request needs an integer 'size' in bytes")
        if not 0 <= size <= MAX_SIZE_BYTES:
            raise ServeError(
                f"size must be in [0, {MAX_SIZE_BYTES}] bytes, got {size}")
        nodes = _int_field(doc.get("nodes", 1),
                           "'nodes' must be an integer")
        if nodes < 1:
            raise ServeError(f"nodes must be >= 1, got {nodes}")
        gpus = _int_field(doc.get("gpus_per_node", 8),
                          "'gpus_per_node' must be an integer")
        if gpus < 2:
            raise ServeError(f"gpus_per_node must be >= 2, got {gpus}")
        ranks = nodes * (gpus if topology == "generic"
                         else _PRESET_GPUS[topology])
        if ranks > MAX_RANKS:
            raise ServeError(
                f"nodes * gpus_per_node must be <= {MAX_RANKS} ranks, "
                f"got {ranks}")
        protocol = doc.get("protocol")
        if protocol is not None and protocol not in PROTOCOLS:
            raise ServeError(
                f"unknown protocol {protocol!r}; choose from "
                f"{', '.join(PROTOCOLS)}")
        return cls(collective=collective, size_bytes=size,
                   topology=topology, nodes=nodes, gpus_per_node=gpus,
                   protocol=protocol,
                   include_xml=bool(doc.get("include_xml", True)),
                   if_plan=doc.get("if_plan"))

    def family_key(self) -> Tuple:
        """Everything but the size: requests differing only in size
        share one compiled family (the plan table selects per size)."""
        gpus = self.gpus_per_node if self.topology == "generic" else None
        return (self.collective, self.topology, self.nodes, gpus,
                self.protocol)

    def build_topology(self) -> Topology:
        if self.topology == "generic":
            return presets.generic(self.gpus_per_node, self.nodes)
        return presets.PRESETS[self.topology](self.nodes)


class PlanSpan:
    """One row's plan in a family's plan table, response-ready.

    Both response forms are serialized once at creation, so the warm
    path costs a table lookup plus a socket write — no JSON encoding, no
    XML serialization, no compiler. On the wire the XML travels as a
    raw length-prefixed blob *after* the JSON header line (the header
    carries ``xml_bytes``): embedding megabytes of XML inside a JSON
    string would make both ends escape and re-parse it, which is most
    of a warm request's cost.
    """

    __slots__ = ("payload", "_json_full", "_json_bare", "_wire_full",
                 "_wire_bare", "_wire_match")

    def __init__(self, payload: Dict):
        self.payload = payload
        self._json_full = json.dumps(payload, separators=(",", ":"))
        bare = {k: v for k, v in payload.items() if k != "xml"}
        self._json_bare = json.dumps(bare, separators=(",", ":"))
        xml_raw = payload["xml"].encode()
        head = dict(bare)
        head["xml_bytes"] = len(xml_raw)
        self._wire_full = (
            b'{"ok":true,"plan":'
            + json.dumps(head, separators=(",", ":")).encode()
            + b"}\n" + xml_raw)
        self._wire_bare = (
            b'{"ok":true,"plan":' + self._json_bare.encode() + b"}\n")
        self._wire_match = (
            b'{"ok":true,"plan":{"plan_id":"'
            + payload["plan_id"].encode() + b'","match":true}}\n')

    def payload_json(self, include_xml: bool) -> str:
        return self._json_full if include_xml else self._json_bare

    def wire_bytes(self, include_xml: bool) -> bytes:
        return self._wire_full if include_xml else self._wire_bare


class PlanFamily:
    """Everything the service knows about one plan family.

    ``table`` covers every size from 0 to infinity: the provisional
    plan as one row, then the tuned rows :func:`_tuned_table` tiles.
    """

    __slots__ = ("key", "builder", "topology", "sizing_chunks",
                 "table", "tuned", "tune_scheduled")

    def __init__(self, key: Tuple, builder: Callable,
                 topology: Topology, sizing_chunks: int,
                 table: PlanTable[PlanSpan]):
        self.key = key
        self.builder = builder
        self.topology = topology
        self.sizing_chunks = sizing_chunks
        self.table = table
        self.tuned = False
        self.tune_scheduled = False


def _plan_payload(ir, *, label: str, sizing_chunks: int, origin: str,
                  tuned: bool, predicted_us: Optional[float]) -> Dict:
    xml = ir.to_xml()
    return {
        "algorithm": ir.name,
        "collective": ir.collective,
        "ranks": ir.num_ranks,
        "protocol": ir.protocol,
        "label": label,
        "sizing_chunks": sizing_chunks,
        "origin": origin,
        "tuned": tuned,
        "predicted_us": (None if predicted_us is None
                         else round(predicted_us, 3)),
        # Plans are immutable content: the id names these exact bytes,
        # so clients can cache by it and revalidate with 'if_plan'.
        "plan_id": hashlib.sha256(xml.encode()).hexdigest()[:16],
        "xml": xml,
    }


def _tuned_table(result: TuningResult) -> PlanTable[PlanSpan]:
    """The tuner's winners as response-ready rows; each row predicts
    the time of the first tuned size it won."""
    return PlanTable.tiled(
        result.sizes, result.best.__getitem__,
        lambda winner, first: PlanSpan(_plan_payload(
            result.compiled[winner], label=winner.label,
            sizing_chunks=result.sizing_chunks, origin="tuned",
            tuned=True, predicted_us=result.times[(winner, first)])))


class PlanService:
    """The asyncio plan server; see the module docstring.

    ``compile_fn`` is a seam for tests (inject latency or failures);
    it must accept ``(program, options)`` like
    :func:`~repro.core.compiler.compile_program`. ``tune_jobs`` > 1
    shards background-tuning compiles and simulations across the
    :mod:`repro.analysis.parallel` worker pool.
    """

    def __init__(self, *, cache: Optional[CompileCache] = None,
                 autotune: bool = True,
                 tune_jobs: Optional[int] = None,
                 tune_sizes: Optional[Sequence[int]] = None,
                 tune_space: Optional[Sequence[Candidate]] = None,
                 executor_workers: int = 4,
                 tracer: Optional[Tracer] = None,
                 compile_fn: Optional[Callable] = None):
        self.cache = cache if cache is not None else default_compile_cache()
        self.autotune = autotune
        self.tune_jobs = tune_jobs
        self.tune_sizes = list(tune_sizes or DEFAULT_TUNE_SIZES)
        self.tune_space = list(tune_space or DEFAULT_TUNE_SPACE)
        self.tracer = tracer or Tracer()
        self._compile = compile_fn or compile_program
        self._executor = ThreadPoolExecutor(
            max_workers=executor_workers,
            thread_name_prefix="repro-serve")
        self._families: Dict[Tuple, PlanFamily] = {}
        self._inflight: Dict[Tuple, "asyncio.Task"] = {}
        self._background: set = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping: Optional[asyncio.Event] = None

    # -- request path ----------------------------------------------------

    async def plan(self, request: PlanRequest) -> Dict:
        """The plan payload for one request (library-level entry)."""
        return json.loads(await self.plan_json(request))

    async def plan_json(self, request: PlanRequest) -> str:
        """The pre-serialized (inline-JSON) payload for one request."""
        span = await self._resolve(request)
        return span.payload_json(request.include_xml)

    async def plan_response(self, request: PlanRequest) -> bytes:
        """The pre-encoded wire response: JSON header line, then the
        XML as a raw blob of ``xml_bytes`` bytes when requested. A
        matching ``if_plan`` collapses the whole thing to one short
        ``match`` line."""
        span = await self._resolve(request)
        if (request.if_plan is not None
                and request.if_plan == span.payload["plan_id"]):
            bump("not_modified")
            return span._wire_match
        return span.wire_bytes(request.include_xml)

    async def _resolve(self, request: PlanRequest) -> PlanSpan:
        bump("requests")
        key = request.family_key()
        family = self._families.get(key)
        if family is not None:
            # Counted, not traced: a span per hit would grow the tracer
            # with every request for the life of the process.
            bump("plan_hits")
            return family.table.select(request.size_bytes)
        start = time.perf_counter() * 1e6
        task = self._inflight.get(key)
        if task is not None:
            source = "dedup"
            bump("dedup_inflight")
        else:
            source = "cold"
            bump("cold_misses")
            task = asyncio.ensure_future(self._build_family(request))
            self._inflight[key] = task
            task.add_done_callback(
                lambda _t, key=key: self._inflight.pop(key, None))
        # shield: a cancelled waiter (client hung up) must not kill the
        # compile other waiters are parked on.
        family = await asyncio.shield(task)
        span = family.table.select(request.size_bytes)
        end = time.perf_counter() * 1e6
        self.tracer.emit(
            "serve.request", start, end, cat="serve",
            collective=request.collective, topology=request.topology,
            nodes=request.nodes, size_bytes=request.size_bytes,
            source=source, label=span.payload["label"],
        )
        return span

    async def _build_family(self, request: PlanRequest) -> PlanFamily:
        loop = asyncio.get_running_loop()
        family = await loop.run_in_executor(
            self._executor, self._compile_family, request)
        self._families[family.key] = family
        if self.autotune:
            self._schedule_tune(family)
        return family

    def _compile_family(self, request: PlanRequest) -> PlanFamily:
        """Executor-thread body: compile the family's default plan."""
        topology = request.build_topology()
        builder = functools.partial(
            COLLECTIVES[request.collective], request.nodes,
            topology.machine.gpus_per_node)
        protocol = request.protocol or "Simple"
        program = builder(channels=1, instances=1, protocol=protocol)
        options = CompilerOptions(
            max_threadblocks=topology.machine.sm_count,
            cache=self.cache)
        algo = self._compile(program, options)
        # last_hit_tier is thread-local, so this reads *this* compile's
        # tier even while sibling executor threads compile concurrently.
        if getattr(algo, "cache_hit", False):
            tier = self.cache.last_hit_tier
            origin = ("cache-disk" if tier == "disk" else "cache-memory")
        else:
            origin = "compiled"
        sizing = algo.sizing_chunks()
        payload = _plan_payload(
            algo.ir, label=f"ch=1 r=1 {protocol}", sizing_chunks=sizing,
            origin=origin, tuned=False, predicted_us=None)
        return PlanFamily(request.family_key(), builder, topology,
                          sizing, PlanTable().appended(PlanSpan(payload)))

    # -- background autotuning -------------------------------------------

    def _space_for(self, request_protocol: Optional[str]
                   ) -> List[Candidate]:
        if request_protocol is None:
            return list(self.tune_space)
        return [c for c in self.tune_space
                if c.protocol == request_protocol] or [
                    Candidate(1, 2, request_protocol)]

    def _schedule_tune(self, family: PlanFamily) -> None:
        if family.tune_scheduled:
            return
        family.tune_scheduled = True
        task = asyncio.ensure_future(self._tune_family(family))
        self._background.add(task)
        task.add_done_callback(self._background.discard)

    async def _tune_family(self, family: PlanFamily) -> None:
        bump("tune_runs")
        protocol = family.key[-1]
        try:
            result = await tune_async(
                family.builder, family.topology, self.tune_sizes,
                family.sizing_chunks, space=self._space_for(protocol),
                jobs=self.tune_jobs, executor=self._executor)
            table = await asyncio.get_running_loop().run_in_executor(
                self._executor, _tuned_table, result)
        except asyncio.CancelledError:
            raise
        except (MscclError, ValueError):
            bump("tune_errors")
            return
        family.table = table
        family.tuned = True
        bump("promotions")

    async def drain_background(self) -> None:
        """Wait for every in-flight compile and background tune."""
        while True:
            tasks = list(self._inflight.values()) + list(self._background)
            if not tasks:
                return
            await asyncio.gather(*tasks, return_exceptions=True)

    # -- stats -----------------------------------------------------------

    def stats(self) -> Dict:
        return {
            "serve": serve_stats(),
            "families": len(self._families),
            "tuned_families": sum(
                1 for f in self._families.values() if f.tuned),
            "compile_cache": self.cache.stats(),
        }

    # -- the wire protocol -----------------------------------------------

    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> asyncio.AbstractServer:
        """Bind and start accepting; ``port=0`` picks a free port."""
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_client, host, port, limit=STREAM_LIMIT)
        return self._server

    @property
    def address(self) -> Tuple[str, int]:
        sock = self._server.sockets[0]
        name = sock.getsockname()
        return name[0], name[1]

    async def serve_until_shutdown(self, host: str = "127.0.0.1",
                                   port: int = 0) -> None:
        """Run until a client sends ``{"op": "shutdown"}``."""
        if self._server is None:
            await self.start(host, port)
        await self._stopping.wait()
        await self.stop()

    async def stop(self) -> None:
        for task in list(self._background) + list(self._inflight.values()):
            task.cancel()
        await asyncio.gather(
            *self._background, *self._inflight.values(),
            return_exceptions=True)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._executor.shutdown(wait=False)
        if self._stopping is not None:
            self._stopping.set()

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                out = await self._handle_line(line)
                if out is None:  # shutdown
                    writer.write(b'{"ok":true,"stopping":true}\n')
                    await writer.drain()
                    if self._stopping is not None:
                        self._stopping.set()
                    break
                writer.write(out)
                await writer.drain()
        except asyncio.CancelledError:
            bump("cancelled")
            raise
        except (ConnectionResetError, BrokenPipeError, OSError):
            # The client went away mid-request; any compile it started
            # is shielded and still lands for other waiters.
            bump("cancelled")
        finally:
            try:
                writer.close()
            except Exception:
                pass

    async def _handle_line(self, line: bytes) -> Optional[bytes]:
        try:
            msg = json.loads(line)
            if not isinstance(msg, dict):
                raise ValueError("request must be a JSON object")
        except ValueError as error:
            bump("errors")
            return _error_bytes(f"bad request: {error}")
        op = msg.get("op", "plan")
        if op == "plan":
            try:
                request = PlanRequest.from_doc(msg)
                return await self.plan_response(request)
            except ServeError as error:
                bump("errors")
                return _error_bytes(str(error))
            except MscclError as error:
                bump("errors")
                return _error_bytes(f"compilation failed: {error}")
        if op == "stats":
            doc = {"ok": True, "stats": self.stats()}
            return json.dumps(doc, separators=(",", ":")).encode() + b"\n"
        if op == "ping":
            return b'{"ok":true,"pong":true}\n'
        if op == "shutdown":
            return None
        bump("errors")
        return _error_bytes(f"unknown op {op!r}")


def _int_field(value, message: str) -> int:
    """``int(value)``, or a :class:`ServeError` the client sees.

    ``true`` and non-integral numbers such as ``1.5`` are errors, not
    silently 1: ``int()`` alone would accept and truncate them.
    """
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise ServeError(message)
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ServeError(message) from None


def _error_bytes(message: str) -> bytes:
    doc = {"ok": False, "error": message}
    return json.dumps(doc, separators=(",", ":")).encode() + b"\n"
