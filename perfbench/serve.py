"""serve-open: an open loop of plan asks against a plan-service child
process (``python -m repro.tools serve --port 0``, the ``repro-tools
serve`` entry point, default settings).

Seeded Poisson arrivals at a base rate, then a short ladder of higher
rates, over three pipelined connections. Most asks repeat
a few warm families (plan-table hits and ``if_plan`` revalidations); a
fixed small share are families the service has not seen, arriving
through the whole run, each asked twice at once (a cold compile and an
in-flight duplicate) and then tuned in the background.

The open loop is the load, and it gives the output checks and the
per-layer ``serve.*`` metrics. The end-to-end figures come from
closed-loop probes on an otherwise idle service before and after it,
in reference time (see ``common.Clock``)."""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import statistics
import sys
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.analysis.sweep import chunk_bytes_for
from repro.core.ir import MscclIr
from repro.runtime.simulator import IrSimulator
from repro.serve.service import STREAM_LIMIT
from repro.topology import presets

from .common import Context, now
from .helpers import (backlog_grew, geomean, item_medians,
                      log_spaced_sizes, open_loop_times, poisson_arrivals,
                      rng_for, summarize)
from .layers import PER_LAYER
from .spans import Recorder

KiB, MiB = 1024, 1024 * 1024
WARM_FAMILIES = (
    {"collective": "allreduce", "topology": "ndv4", "nodes": 1},
    {"collective": "allreduce", "topology": "ndv4", "nodes": 2},
    {"collective": "allgather", "topology": "ndv4", "nodes": 1},
    {"collective": "alltoall", "topology": "ndv4", "nodes": 1},
    {"collective": "reducescatter", "topology": "ndv4", "nodes": 1},
)
WARM_SIZES = tuple(32 * KiB * 2 ** k for k in range(11))
# Broadcast is left out: its compile is too short to time above the
# interpreter's 5 ms thread-switch jitter.
NEW_COLLECTIVES = ("allreduce", "allgather", "reducescatter", "alltoall")
NEW_PROTOCOLS = ("Simple", "LL", "LL128")
NEW_GPUS = (6, 7, 8)
# Asks per second. Base-rate segments alternate with the ladder's steps,
# and the ladder runs twice, so base-rate asks are sampled across the
# whole run. Each step is followed by a gap with no arrivals (rate 0),
# in which the backlog a high rate leaves behind drains before the next
# base segment. Each segment's share of the run:
BASE_RATE = 150.0
LADDER = (200.0, 400.0, 800.0)
BASE_SHARE, STEP_SHARE, GAP_SHARE = 0.067, 0.027, 0.013
SEGMENTS = tuple(
    segment for step in LADDER * 3
    for segment in ((BASE_RATE, BASE_SHARE), (step, STEP_SHARE),
                    (0.0, GAP_SHARE)))
# A ladder step is met when its warm tail latency stays under this
# limit and nothing due in it is answered later than this after it.
LIMIT_MS = 50.0
DEDUP_GAP_S = 0.002
SPIN_S = 0.002
# Fixed, so the workload is the same on any machine: a cold ask and its
# in-flight duplicate hold two connections while the third stays warm.
CONNECTIONS = 3
# Service start-ups before the run (set-up; all but the first find the
# warm families on the disk tier). Disk probes: start-ups without
# background tuning, half before the run and half after it, so the disk
# samples span the run instead of one moment of it.
SETUPS = 3
DISK_PROBES = 6
# End-to-end probes, half before the open loop and half after it, each
# timed in reference time (see common.Clock) on an otherwise idle
# service: open-loop latencies on this 2-vCPU host moved by 2x between
# runs minutes apart, with the host's speed and the vCPUs' wake-ups.
# Warm probes pipeline WARM_BATCH revalidations for one warm family on
# one connection and take the time per ask; cold probes ask every family
# of COLD_FAMILIES once from a fresh service with an empty cache and
# no background tuning.
WARM_PROBES = 10
WARM_BATCH = 1000
COLD_PROBES = 4
COLD_FAMILIES = tuple(
    {"collective": c, "topology": "generic", "nodes": 1,
     "gpus_per_node": 8, "protocol": p}
    for c in NEW_COLLECTIVES for p in NEW_PROTOCOLS)
START_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0


@dataclass
class Ask:
    id: int
    kind: str          # "warm", "cold" or "dedup"
    family: Tuple
    doc: Dict
    due: float         # schedule seconds; absolute once sent
    segment: int       # index into phase_windows()
    sent: Optional[float] = None
    done: Optional[float] = None
    outcome: Optional[str] = None  # table/revalidate/cold/dedup/error
    nbytes: int = 0


def _family_key(doc: Dict) -> Tuple:
    return (doc["collective"], doc["topology"], doc.get("nodes", 1),
            doc.get("gpus_per_node", 8), doc.get("protocol"))


def new_families(seed: int) -> List[Dict]:
    """Every (collective, pinned protocol, GPU count) family on one
    generic node, in seeded order: the mix is fixed, the order not."""
    rng = rng_for("serve-open/families", seed)
    families = [{"collective": c, "topology": "generic", "nodes": 1,
                 "gpus_per_node": g, "protocol": p}
                for c in NEW_COLLECTIVES for p in NEW_PROTOCOLS
                for g in NEW_GPUS]
    rng.shuffle(families)
    return families


def phase_windows(seconds: float) -> List[Tuple[float, float, float]]:
    """(rate, start, end) of each segment of SEGMENTS, in schedule
    seconds."""
    windows, start = [], 0.0
    for rate, share in SEGMENTS:
        windows.append((rate, start, start + share * seconds))
        start += share * seconds
    return windows


def schedule(seed: int, seconds: float) -> List[Ask]:
    """The seeded open-loop schedule, sorted by due time."""
    rng = rng_for("serve-open", seed)
    windows = phase_windows(seconds)
    asks: List[Ask] = []
    for segment, (rate, start, end) in enumerate(windows):
        if not rate:
            continue
        for due in poisson_arrivals(rng, rate, start, end - start):
            doc = dict(rng.choice(WARM_FAMILIES), op="plan",
                       size=rng.choice(WARM_SIZES))
            asks.append(Ask(0, "warm", _family_key(doc), doc, due,
                            segment))
    fresh = new_families(seed)
    # One new family per equal slot of the run, away from the slot's
    # edges, so one family's background tune is mostly over before the
    # next family's cold compile.
    width = windows[-1][2] / len(fresh)
    for index, family in enumerate(fresh):
        due = width * (index + rng.uniform(0.25, 0.75))
        segment = next(i for i, (_r, _s, end) in enumerate(windows)
                       if due < end)
        doc = dict(family, op="plan", size=rng.choice(WARM_SIZES))
        asks.append(Ask(0, "cold", _family_key(doc), doc, due, segment))
        asks.append(Ask(0, "dedup", _family_key(doc), doc,
                        due + DEDUP_GAP_S, segment))
    asks.sort(key=lambda ask: (ask.due, ask.kind))
    for index, ask in enumerate(asks):
        ask.id = index
    return asks


# -- the service child ----------------------------------------------------

def _cpu_split() -> Tuple[set, set]:
    """(client CPUs, service CPUs): the first CPU for the client and the
    rest for the service. Left to the scheduler, the two processes
    shared one CPU in some runs and not in others, which moved the
    pipelined warm probes by half between runs."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[0]}, set(cpus[1:])


class Service:
    """A plan-service child process and its address."""

    def __init__(self, root: Path, cache_dir: Path, autotune: bool = True):
        self.root = root
        self.cache_dir = cache_dir
        self.autotune = autotune
        self.proc = None
        self.port = None

    async def start(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"),
                   REPRO_CACHE_DIR=str(self.cache_dir), REPRO_JOBS="1")
        argv = ["-m", "repro.tools", "serve", "--port", "0"]
        if not self.autotune:
            argv.append("--no-autotune")
        service_cpus = _cpu_split()[1]
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable, *argv, cwd=str(self.root), env=env,
            stdout=asyncio.subprocess.DEVNULL,
            stderr=asyncio.subprocess.PIPE,
            preexec_fn=lambda: os.sched_setaffinity(0, service_cpus))
        line = await asyncio.wait_for(self.proc.stderr.readline(),
                                      START_TIMEOUT_S)
        text = line.decode()
        if "listening on" not in text:
            await self.stop()
            raise RuntimeError(f"service did not start: {text!r}")
        self.port = int(text.rsplit(":", 1)[1])

    async def stop(self, ask: bool = True) -> None:
        """Ask the service to shut down (or, with ``ask=False``, send it
        SIGTERM); kill it if it will not stop; wait for it to end."""
        if self.proc is None:
            return
        if not ask and self.proc.returncode is None:
            self.proc.terminate()
        elif self.port is not None and self.proc.returncode is None:
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", self.port)
                writer.write(b'{"op":"shutdown"}\n')
                await writer.drain()
                await asyncio.wait_for(reader.readline(), 10)
                writer.close()
            except (OSError, asyncio.TimeoutError):
                pass
        try:
            await asyncio.wait_for(
                asyncio.gather(self.proc.stderr.read(), self.proc.wait()),
                DRAIN_TIMEOUT_S)
        except asyncio.TimeoutError:
            self.proc.kill()
            await self.proc.wait()
        self.proc = None


class Connection:
    """One pipelined connection: asks go out in order, and responses
    come back in the same order."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.pending: deque = deque()

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=STREAM_LIMIT)
        return cls(reader, writer)

    def send(self, ask: Ask, doc: Dict) -> None:
        self.pending.append(ask)
        self.writer.write(json.dumps(doc, separators=(",", ":")).encode()
                          + b"\n")

    async def receive(self) -> Tuple[Ask, Dict]:
        """The next response: (its ask, the decoded response)."""
        line = await self.reader.readline()
        if not line:
            raise ConnectionError("service closed the connection")
        response = json.loads(line)
        nbytes = len(line)
        plan = response.get("plan")
        if isinstance(plan, dict) and "xml_bytes" in plan:
            raw = await self.reader.readexactly(plan.pop("xml_bytes"))
            plan["xml"] = raw.decode()
            nbytes += len(raw)
        ask = self.pending.popleft()
        ask.done = now()
        ask.nbytes = nbytes
        return ask, response

    async def request(self, doc: Dict) -> Dict:
        """One closed-loop request on an idle connection."""
        ask = Ask(-1, "setup", (), doc, 0.0, -1)
        self.send(ask, doc)
        return (await self.receive())[1]

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass


# -- the run --------------------------------------------------------------

class Client:
    """Drives the schedule, keeps the client-side plan cache (plan_id
    per exact ask, for ``if_plan``), and collects every plan seen."""

    def __init__(self, ctx: Context, connections: List[Connection]):
        self.ctx = ctx
        self.connections = connections
        self.known: Dict[Tuple, str] = {}
        self.plans: Dict[str, Dict] = {}
        self.first_cold: Dict[Tuple, Dict] = {}
        self.start = 0.0

    async def run(self, asks: List[Ask]) -> None:
        readers = [asyncio.ensure_future(self._read(c))
                   for c in self.connections]
        try:
            await self._generate(asks)
            await asyncio.wait_for(self._answered(asks), DRAIN_TIMEOUT_S)
        except asyncio.TimeoutError:
            pass
        finally:
            for task in readers:
                task.cancel()
            await asyncio.gather(*readers, return_exceptions=True)

    async def _answered(self, asks: List[Ask]) -> None:
        while any(ask.done is None for ask in asks):
            await asyncio.sleep(0.01)

    async def _generate(self, asks: List[Ask]) -> None:
        start = self.start = now()
        cold_conn: Dict[Tuple, Connection] = {}
        for ask in asks:
            due = start + ask.due
            # The selector's timeout has millisecond granularity: sleep
            # short of the due time, then yield to the readers until it.
            if due - now() > SPIN_S:
                await asyncio.sleep(due - now() - SPIN_S)
            await asyncio.sleep(0)
            while now() < due:
                await asyncio.sleep(0)
            doc = dict(ask.doc)
            exact = (ask.family, doc["size"])
            if ask.kind == "warm" and exact in self.known:
                doc["if_plan"] = self.known[exact]
            if ask.kind == "warm":
                # Keep warm asks off connections a compile holds up.
                choices = [c for c in self.connections
                           if not any(a.kind != "warm" for a in c.pending)]
            else:
                choices = [c for c in self.connections
                           if c is not cold_conn.get(ask.family)]
            conn = min(choices or self.connections,
                       key=lambda c: len(c.pending))
            if ask.kind == "cold":
                cold_conn[ask.family] = conn
            ask.sent = now()
            ask.due += start
            conn.send(ask, doc)
            if self.ctx.recorder is not None:
                self.ctx.recorder.add("gen.send", ask.due, ask.sent,
                                      request=str(ask.id))

    async def _read(self, conn: Connection) -> None:
        while True:
            ask, response = await conn.receive()
            self._classify(ask, response)

    def _classify(self, ask: Ask, response: Dict) -> None:
        plan = response.get("plan") if response.get("ok") else None
        if not isinstance(plan, dict):
            ask.outcome = "error"
            return
        if plan.get("match"):
            ask.outcome = "revalidate"
            return
        ask.outcome = ask.kind if ask.kind != "warm" else "table"
        if "xml" in plan:
            self.plans.setdefault(plan["plan_id"], plan)
            self.known[(ask.family, ask.doc["size"])] = plan["plan_id"]
            if ask.kind == "cold":
                self.first_cold.setdefault(ask.family, plan)


async def _warm_asks(conn: Connection) -> List[float]:
    """Ask for every warm family in turn; each ask's wall ms."""
    samples = []
    for family in WARM_FAMILIES:
        t0 = now()
        response = await conn.request(dict(family, op="plan", size=MiB))
        if not response.get("ok"):
            raise RuntimeError(f"set-up ask failed: {response}")
        samples.append((now() - t0) * 1e3)
    return samples


async def _stats(conn: Connection) -> Dict:
    return (await conn.request({"op": "stats"}))["stats"]


async def _settle(conn: Connection) -> Dict:
    """Wait until every background tune has finished; final stats."""
    deadline = now() + DRAIN_TIMEOUT_S
    while True:
        stats = await _stats(conn)
        serve = stats["serve"]
        idle = (serve["tune_runs"]
                == serve["promotions"] + serve["tune_errors"])
        if idle or now() > deadline:
            return stats
        await asyncio.sleep(0.05)


async def _start(root: Path, cache_dir: Path, autotune: bool = True):
    """Start a service and connect to it; returns both."""
    service = Service(root, cache_dir, autotune)
    try:
        await service.start()
        conn = await Connection.open(service.port)
    except BaseException:
        await service.stop(ask=False)
        raise
    return service, conn


async def _probe_disk(root: Path, cache_dir: Path, ctx: Context,
                      disk_ms: Dict[Tuple, List[float]]):
    """A start-up without background tuning that finds the warm families
    on the disk tier; records each family's ask latency in reference ms
    (see common.Clock)."""
    service, conn = await _start(root, cache_dir, autotune=False)
    try:
        t0 = ctx.clock.start()
        samples = await _warm_asks(conn)
        wall, ref = ctx.clock.stop(t0)
    finally:
        await conn.close()
        await service.stop(ask=False)
    for family, sample in zip(WARM_FAMILIES, samples):
        disk_ms.setdefault(_family_key(family), []).append(
            sample * ref / wall)


async def _probe_warm(conn: Connection, ctx: Context,
                      warm_ms: Dict[Tuple, List[float]]) -> None:
    """One pipelined batch of ``if_plan`` revalidations per warm family
    on an idle service; records each family's reference ms per ask.

    Revalidations, the open loop's commonest warm ask, because a plan
    table hit's cost is mostly copying the plan's XML, which moved by
    up to 2x between runs, well beyond what the calibration loop
    follows."""
    for family in WARM_FAMILIES:
        docs = [dict(family, op="plan", size=size) for size in WARM_SIZES]
        plan_ids = []
        for doc in docs:
            response = await conn.request(doc)
            plan = response.get("plan") or {}
            ctx.check("plan_id" in plan,
                      f"warm probe {family}: {response.get('error')}")
            plan_ids.append(plan.get("plan_id"))
        asks = [Ask(-1, "probe", _family_key(family),
                    dict(docs[index % len(docs)],
                         if_plan=plan_ids[index % len(docs)]), 0.0, -1)
                for index in range(WARM_BATCH)]
        t0 = ctx.clock.start()
        for ask in asks:
            conn.send(ask, ask.doc)
        responses = [(await conn.receive())[1] for _ in asks]
        _wall, ref = ctx.clock.stop(t0)
        for response in responses:
            plan = response.get("plan") or {}
            ctx.check(bool(plan.get("match")),
                      f"warm probe {family}: no revalidation: "
                      f"{response.get('error')}")
        warm_ms.setdefault(_family_key(family), []).append(
            ref / len(asks))


async def _probe_cold(root: Path, ctx: Context, order: List[Dict],
                      cold_ms: Dict[Tuple, List[float]]) -> None:
    """A fresh service with an empty cache and no background tuning,
    asked for each family of ``order`` in turn; records each ask's
    reference ms."""
    service, conn = await _start(root, ctx.fresh_dir("serve-cold-"),
                                 autotune=False)
    try:
        for family in order:
            doc = dict(family, op="plan", size=MiB)
            t0 = ctx.clock.start()
            response = await conn.request(doc)
            _wall, ref = ctx.clock.stop(t0)
            ctx.check(bool(response.get("ok")),
                      f"cold probe {family}: {response.get('error')}")
            cold_ms.setdefault(_family_key(doc), []).append(ref)
    finally:
        await conn.close()
        await service.stop(ask=False)


async def _main(ctx: Context, root: Path) -> Dict:
    cache_dir = ctx.fresh_dir("serve-cache-")
    setups, disk_ms, warm_ms, cold_ms = [], {}, {}, {}
    cold_order = list(COLD_FAMILIES)
    rng_for("serve-open/cold", ctx.seed).shuffle(cold_order)
    service = None
    try:
        # Start-ups over one cache directory: the first compiles the
        # warm families, the later ones find them on the disk tier.
        for index in range(SETUPS):
            t0 = ctx.clock.start()
            service, conn = await _start(root, cache_dir)
            await _warm_asks(conn)
            setups.append(ctx.clock.stop(t0)[1] / 1e3)
            if index < SETUPS - 1:
                await conn.close()
                await service.stop(ask=False)
                service = None
            if index == 0:
                for _ in range(DISK_PROBES // 2):
                    await _probe_disk(root, cache_dir, ctx, disk_ms)
                for _ in range(COLD_PROBES // 2):
                    await _probe_cold(root, ctx, cold_order, cold_ms)
        await _settle(conn)
        for _ in range(WARM_PROBES // 2):
            await _probe_warm(conn, ctx, warm_ms)
        await conn.close()
        connections = [await Connection.open(service.port)
                       for _ in range(CONNECTIONS)]
        asks = schedule(ctx.seed, ctx.seconds)
        client = Client(ctx, connections)
        await client.run(asks)
        stats = await _settle(connections[0])
        for _ in range(WARM_PROBES - WARM_PROBES // 2):
            await _probe_warm(connections[0], ctx, warm_ms)
        for conn in connections:
            await conn.close()
        await service.stop()
        service = None
        for _ in range(DISK_PROBES - DISK_PROBES // 2):
            await _probe_disk(root, cache_dir, ctx, disk_ms)
        for _ in range(COLD_PROBES - COLD_PROBES // 2):
            await _probe_cold(root, ctx, cold_order, cold_ms)
    finally:
        if service is not None:
            await service.stop()
    return {"setups": setups, "disk_ms": disk_ms, "warm_ms": warm_ms,
            "cold_ms": cold_ms, "asks": asks, "client": client,
            "stats": stats}


def run(ctx: Context) -> Dict[str, float]:
    root = Path(__file__).resolve().parent.parent
    os.sched_setaffinity(0, _cpu_split()[0])
    result = asyncio.run(_main(ctx, root))
    asks: List[Ask] = result["asks"]
    client: Client = result["client"]

    latency: Dict[str, List[float]] = {}
    lags = []
    for ask in asks:
        ctx.attempt()
        if ask.done is None or ask.outcome in (None, "error"):
            ctx.fail(f"ask {ask.id} ({ask.kind} {ask.family}) "
                     f"{'timed out' if ask.done is None else 'failed'}")
            continue
        total, lag = open_loop_times(ask.due, ask.sent, ask.done)
        latency.setdefault(ask.outcome, []).append(total * 1e3)
        lags.append(lag * 1e3)
        if ctx.recorder is not None:
            ctx.recorder.add(f"serve.{ask.outcome}", ask.due, ask.done,
                             request=str(ask.id))
    _check_plans(ctx, client)
    sim_latency = _simulate(ctx, client)

    windows = phase_windows(ctx.seconds)
    warm = [a for a in asks if a.kind == "warm" and a.done is not None]
    # Warm latency at the base rate, summarised per base segment; the
    # medians over segments damp a moment when the machine stalled.
    base_segments = [
        summarize([(a.done - a.due) * 1e3 for a in warm
                   if a.segment == index])
        for index, (rate, _start, _end) in enumerate(windows)
        if rate == BASE_RATE]
    # Asks that found no plan yet: a family's cold ask and its in-flight
    # duplicate both wait for the same compile.
    cold = [(a.done - a.due) * 1e3 for a in asks
            if a.kind in ("cold", "dedup") and a.done is not None]
    max_rps = _max_rps(warm, windows, client.start)
    ctx.details.update({
        "setups_s": result["setups"],
        "asks": len(asks),
        "serve_warm_ms_per_base_segment": base_segments,
        "serve_cold_ms": summarize(cold),
        "serve_disk_ms": summarize(
            [sample for samples in result["disk_ms"].values()
             for sample in samples]),
        "serve_max_rps": max_rps,
        "gen_lag_ms": summarize(lags),
        "by_outcome_ms": {k: summarize(v) for k, v in latency.items()},
        "service_stats": result["stats"]["serve"],
    })
    hit_ms = statistics.median(seg["median"] for seg in base_segments)
    warm_tail_ms = statistics.median(seg["tail"] for seg in base_segments)
    # The end-to-end figures come from the probes: each family's median
    # over its probes, then the mean (and for the tail, the maximum)
    # over families, as on the other workloads.
    warm_probe = item_medians(result["warm_ms"])
    cold_probe = item_medians(result["cold_ms"])
    ctx.details.update({
        "warm_probe_ref_ms_per_ask": _labelled(warm_probe),
        "cold_probe_ref_ms": _labelled(cold_probe),
        "open_loop_warm_p50_ms": hit_ms,
        "open_loop_warm_tail_ms": warm_tail_ms,
    })
    if not ctx.trace:
        return {
            "setup_s": statistics.median(result["setups"]),
            "sim_latency_us": sim_latency,
            "cold_ms": statistics.mean(cold_probe.values()),
            "disk_ms": statistics.mean(
                item_medians(result["disk_ms"]).values()),
            "hit_ms": statistics.mean(warm_probe.values()),
            "hit_tail_ms": max(warm_probe.values()),
        }
    metrics = {name: 0.0 for name in PER_LAYER}
    for outcome, name in (("table", "serve.table_ms"),
                          ("dedup", "serve.dedup_wait_ms"),
                          ("cold", "serve.cold_ms"),
                          ("revalidate", "serve.revalidate_ms")):
        if latency.get(outcome):
            metrics[name] = statistics.median(latency[outcome])
    serve_stats = result["stats"]["serve"]
    metrics["serve.hit_ratio"] = serve_stats["hit_rate"]
    metrics["serve.promotions"] = serve_stats["promotions"]
    metrics["serve.tune_runs"] = serve_stats["tune_runs"]
    answered = [a for a in asks if a.done is not None]
    metrics["serve.response_bytes"] = (sum(a.nbytes for a in answered)
                                       / len(answered))
    metrics["serve.max_rps"] = max_rps
    metrics["serve.warm_p99_ms"] = warm_tail_ms
    metrics["gen.lag_p99_ms"] = summarize(lags)["tail"]
    metrics["trace.overhead"] = _span_overhead(hit_ms)
    return metrics


def _labelled(by_family: Dict[Tuple, float]) -> Dict[str, float]:
    return {"/".join(map(str, family)): value
            for family, value in by_family.items()}


def _max_rps(warm: List[Ask], windows, origin: float) -> float:
    """Highest rate whose warm tail stays under LIMIT_MS with no growing
    backlog in any of its segments; 0 when even the base rate misses."""
    best = 0.0
    for rate in sorted({window[0] for window in windows} - {0.0}):
        segments = [i for i, window in enumerate(windows)
                    if window[0] == rate]
        step = [a for a in warm if a.segment in segments]
        if not step:
            continue
        tail = summarize([(a.done - a.due) * 1e3 for a in step])["tail"]
        grew = any(
            backlog_grew([a.due for a in step if a.segment == i],
                         [a.done for a in step if a.segment == i],
                         origin + windows[i][2], LIMIT_MS / 1e3)
            for i in segments)
        if tail <= LIMIT_MS and not grew:
            best = max(best, rate)
    return best


def _check_plans(ctx: Context, client: Client) -> None:
    """Every served plan re-imports, and its plan_id names its XML."""
    for plan_id, plan in client.plans.items():
        xml = plan["xml"]
        ctx.check(hashlib.sha256(xml.encode()).hexdigest()[:16] == plan_id,
                  f"plan {plan_id}: id does not match its XML")
        with ctx.checked(f"plan {plan_id}: re-import"):
            MscclIr.from_xml(xml)


def _simulate(ctx: Context, client: Client) -> float:
    """Geomean simulated latency of each new family's first plan, at
    11 seeded sizes (one per log-stratum of 32 KiB-32 MiB)."""
    sizes = log_spaced_sizes(rng_for("serve-open/sim", ctx.seed), 11,
                             32 * KiB, 32 * MiB)
    latencies = []
    for family, plan in sorted(client.first_cold.items(), key=str):
        ir = MscclIr.from_xml(plan["xml"])
        topology = presets.generic(family[3], family[2])
        for size in sizes:
            with ctx.checked(f"simulate {family} {size}"):
                latencies.append(IrSimulator(ir, topology).run(
                    chunk_bytes=chunk_bytes_for(
                        size, plan["sizing_chunks"])).time_us)
    return geomean(latencies)


def _span_overhead(warm_p50_ms: float) -> float:
    """While the asks run, tracing adds one recorded span per ask on
    the client (the rest are recorded afterwards); its measured cost
    against a warm ask's median latency."""
    probe = Recorder()
    count = 20000
    t0 = now()
    for index in range(count):
        probe.add("probe", 0.0, 1.0, request=str(index))
    per_span_ms = (now() - t0) / count * 1e3
    return 1.0 + per_span_ms / warm_p50_ms
