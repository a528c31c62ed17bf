"""Scheduling: from Instruction DAG to MSCCL-IR (paper section 5).

Three phases:

1. **Channel assignment.** Communication edges are grouped into chains
   (edges joined by fused instructions must share a channel). Each chain
   derives a key from its user directive (``ch=``) and its parallel
   instance; keys map to dense channel numbers, with linear probing when
   a chain's pairings (a fused instruction binds a send connection to a
   receive connection on one thread block) would conflict.

2. **Thread block assignment.** Instructions are sorted into a global
   topological order with a priority heap keyed on depth (max hops from
   a root — enabled earlier first) and reverse depth (max hops to a leaf
   — more downstream work first). Thread blocks are created per unique
   (send peer, receive peer, channel) connection pair; local operations
   go to the thread block whose latest assigned instruction is earliest.
   Assigning in topological order guarantees the sequential order inside
   every thread block cannot create a cycle, so the IR is deadlock-free.

3. **Cross-thread-block synchronization.** Processing edges that cross
   thread blocks become explicit ``depends`` entries (the ``dep``
   modifier of the paper's IR), implemented by the runtime's semaphores.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..observe.tracer import maybe_span
from .errors import SchedulingError
from .instructions import Instruction, InstructionDAG
from .ir import GpuProgram, IrInstruction, MscclIr, ThreadBlock

_MAX_CHANNEL_PROBES = 1024


@dataclass
class _TbRecord:
    """A thread block being built during assignment."""

    rank: int
    tb_id: int
    channel: int
    send_peer: Optional[int] = None
    recv_peer: Optional[int] = None
    members: List[Instruction] = field(default_factory=list)
    last_pos: int = -1


class _UnionFind:
    def __init__(self) -> None:
        self._parent: Dict[int, int] = {}

    def find(self, x: int) -> int:
        parent = self._parent.setdefault(x, x)
        if parent != x:
            root = self.find(parent)
            self._parent[x] = root
            return root
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[max(ra, rb)] = min(ra, rb)


def _dag_order(instrs: List[Instruction]):
    """Successors, in-degrees, depth from the roots and reverse depth to
    the leaves of every instruction, over processing and communication
    edges."""
    successors: Dict[int, List[int]] = {i.instr_id: [] for i in instrs}
    indegree: Dict[int, int] = {}
    depth: Dict[int, int] = {}
    for instr in instrs:  # ids are a topological order
        preds = [d for d in instr.deps if d in successors]
        if instr.recv_match is not None and instr.recv_match in successors:
            preds.append(instr.recv_match)
        for pred in preds:
            successors[pred].append(instr.instr_id)
        indegree[instr.instr_id] = len(preds)
        depth[instr.instr_id] = (
            1 + max(depth[p] for p in preds) if preds else 0
        )
    rev: Dict[int, int] = {}
    for instr in reversed(instrs):
        succ = successors[instr.instr_id]
        rev[instr.instr_id] = 1 + max((rev[s] for s in succ), default=-1)
    return successors, indegree, depth, rev


def _assign_channels(instrs: List[Instruction]) -> None:
    """Phase 1: give every communication edge a concrete channel."""
    by_id = {i.instr_id: i for i in instrs}
    # A communication edge is identified by its receiving instruction's
    # id. Fused instructions tie their incoming and outgoing edges.
    uf = _UnionFind()
    edges = set()
    for instr in instrs:
        receives = instr.receives
        if receives:
            edges.add(instr.instr_id)
        if instr.sends and instr.send_match is not None:
            edges.add(instr.send_match)
            if receives:
                uf.union(instr.instr_id, instr.send_match)

    chains: Dict[int, List[int]] = {}
    for edge in edges:
        chains.setdefault(uf.find(edge), []).append(edge)

    # Gather each chain's directive, instance, and member instructions.
    # Instance k of S prefers channels in order of its offset k/S, kept
    # exact as k * (lcm / S) over the lcm of every instance count.
    denominator = math.lcm(1, *{i.instance[1] for i in instrs})
    chain_infos = []
    for root, edge_ids in chains.items():
        members: List[Instruction] = []
        directives = set()
        for edge in edge_ids:
            recv_side = by_id[edge]
            members.append(recv_side)
            send_side = by_id[recv_side.recv_match]
            members.append(send_side)
            for m in (recv_side, send_side):
                if m.channel_directive is not None:
                    directives.add(m.channel_directive)
        if len(directives) > 1:
            raise SchedulingError(
                f"conflicting channel directives {sorted(directives)} in "
                "one fused chain; use compatible ch= values"
            )
        base = directives.pop() if directives else 0
        k, total = members[0].instance
        key = (base, k * (denominator // total), total)
        order = min(m.trace_key for m in members)
        chain_infos.append((key, order, root, members))

    # Dense preference channels from sorted unique keys.
    unique_keys = sorted({info[0] for info in chain_infos})
    preference = {key: i for i, key in enumerate(unique_keys)}

    # Pairing registry: a fused instruction on (rank, channel) binds its
    # send connection to its receive connection; conflicting bindings on
    # the same channel are impossible to place on one thread block.
    pair_by_send: Dict[Tuple[int, int, int], int] = {}
    pair_by_recv: Dict[Tuple[int, int, int], int] = {}

    def pairings_of(members: List[Instruction]):
        return [
            (m.rank, m.send_peer, m.recv_peer)
            for m in members
            if m.sends and m.receives
        ]

    def feasible(channel: int, pairings) -> bool:
        for rank, send_peer, recv_peer in pairings:
            bound = pair_by_send.get((rank, channel, send_peer))
            if bound is not None and bound != recv_peer:
                return False
            bound = pair_by_recv.get((rank, channel, recv_peer))
            if bound is not None and bound != send_peer:
                return False
        return True

    def commit(channel: int, pairings) -> None:
        for rank, send_peer, recv_peer in pairings:
            pair_by_send[(rank, channel, send_peer)] = recv_peer
            pair_by_recv[(rank, channel, recv_peer)] = send_peer

    for key, _order, _root, members in sorted(
            chain_infos, key=lambda info: (preference[info[0]], info[1])):
        start = preference[key]
        pairings = pairings_of(members)
        for probe in range(_MAX_CHANNEL_PROBES):
            channel = start + probe
            if feasible(channel, pairings):
                break
        else:
            raise SchedulingError(
                "could not find a conflict-free channel after "
                f"{_MAX_CHANNEL_PROBES} probes"
            )
        commit(channel, pairings)
        for member in members:
            if member.channel is not None and member.channel != channel:
                raise SchedulingError(
                    f"instruction {member!r} pulled into two chains with "
                    f"channels {member.channel} and {channel}"
                )
            member.channel = channel


def schedule(idag: InstructionDAG, *, name: str, collective_name: str,
             protocol: str, num_ranks: int, in_place: bool,
             input_chunks, output_chunks, scratch_chunks,
             max_threadblocks: Optional[int] = None,
             tracer=None) -> MscclIr:
    """Phases 2 and 3: build the MSCCL-IR from a fused Instruction DAG.

    ``input_chunks``/``output_chunks``/``scratch_chunks`` are callables
    rank -> chunk count. ``max_threadblocks`` bounds thread blocks per
    GPU (the SM count constraint of cooperative kernel launch).
    ``tracer`` (a :class:`repro.observe.Tracer`) records the scheduler's
    internal phases as nested spans.
    """
    instrs = idag.live()
    with maybe_span(tracer, "assign_channels", cat="compiler",
                    instructions=len(instrs)) as chan_span:
        _assign_channels(instrs)
        if chan_span is not None:
            chan_span.args["channels"] = len({
                i.channel for i in instrs if i.channel is not None
            })
    successors, indegree, depth, rev = _dag_order(instrs)
    by_id = {i.instr_id: i for i in instrs}

    # Global topological order via a priority heap.
    def priority(instr: Instruction):
        return (depth[instr.instr_id], -rev[instr.instr_id],
                instr.trace_key, instr.instr_id)

    heap = [
        (priority(i), i.instr_id) for i in instrs
        if indegree[i.instr_id] == 0
    ]
    heapq.heapify(heap)

    tbs_by_rank: Dict[int, List[_TbRecord]] = {
        r: [] for r in range(num_ranks)
    }
    send_owner: Dict[Tuple[int, int, int], _TbRecord] = {}
    recv_owner: Dict[Tuple[int, int, int], _TbRecord] = {}
    placement: Dict[int, Tuple[_TbRecord, int]] = {}
    position = 0
    scheduled = 0

    # Fused instructions statically bind a send connection to a recv
    # connection on one thread block. Precompute those bindings so that
    # when a lone send or recv claims a connection first, its thread
    # block is reserved with BOTH peers — otherwise a later fused
    # instruction could find its two connections stranded on different
    # blocks.
    bound_recv_of_send: Dict[Tuple[int, int, int], int] = {}
    bound_send_of_recv: Dict[Tuple[int, int, int], int] = {}
    for instr in instrs:
        if instr.sends and instr.receives:
            channel = instr.channel if instr.channel is not None else 0
            bound_recv_of_send[(instr.rank, instr.send_peer, channel)] = \
                instr.recv_peer
            bound_send_of_recv[(instr.rank, instr.recv_peer, channel)] = \
                instr.send_peer

    def new_tb(rank: int, channel: int) -> _TbRecord:
        tb = _TbRecord(rank=rank, tb_id=len(tbs_by_rank[rank]),
                       channel=channel)
        tbs_by_rank[rank].append(tb)
        return tb

    def claim(tb: _TbRecord, send_key, recv_key, instr) -> None:
        """Attach the instruction's connections (and any statically
        bound partner connections) to the thread block."""
        rank = tb.rank
        channel = tb.channel
        if send_key:
            if tb.send_peer is not None and tb.send_peer != send_key[1]:
                raise SchedulingError(
                    f"thread block {tb.tb_id} on rank {rank} would need "
                    f"two send peers ({tb.send_peer}, {send_key[1]})"
                )
            tb.send_peer = send_key[1]
            send_owner[send_key] = tb
            bound = bound_recv_of_send.get(send_key)
            if bound is not None and tb.recv_peer is None:
                partner = (rank, bound, channel)
                if recv_owner.get(partner) is None:
                    tb.recv_peer = bound
                    recv_owner[partner] = tb
        if recv_key:
            if tb.recv_peer is not None and tb.recv_peer != recv_key[1]:
                raise SchedulingError(
                    f"thread block {tb.tb_id} on rank {rank} would need "
                    f"two recv peers ({tb.recv_peer}, {recv_key[1]})"
                )
            tb.recv_peer = recv_key[1]
            recv_owner[recv_key] = tb
            bound = bound_send_of_recv.get(recv_key)
            if bound is not None and tb.send_peer is None:
                partner = (rank, bound, channel)
                if send_owner.get(partner) is None:
                    tb.send_peer = bound
                    send_owner[partner] = tb

    def tb_for(instr: Instruction) -> _TbRecord:
        rank = instr.rank
        sends, receives = instr.sends, instr.receives
        if not sends and not receives:
            # Local op: freest thread block (earliest last instruction).
            existing = tbs_by_rank[rank]
            if not existing:
                return new_tb(rank, channel=0)
            return min(existing, key=lambda tb: (tb.last_pos, tb.tb_id))
        channel = instr.channel if instr.channel is not None else 0
        send_key = (rank, instr.send_peer, channel) if sends else None
        recv_key = (rank, instr.recv_peer, channel) if receives else None
        tb_s = send_owner.get(send_key) if send_key else None
        tb_r = recv_owner.get(recv_key) if recv_key else None
        if tb_s is not None and tb_r is not None and tb_s is not tb_r:
            raise SchedulingError(
                f"instruction {instr!r} needs send connection {send_key} "
                f"and recv connection {recv_key}, already owned by "
                "different thread blocks"
            )
        tb = tb_s or tb_r
        if tb is None and not (sends and receives):
            # Pair one-directional traffic with the opposite direction to
            # the same peer on the same channel (as NCCL's p2p transport
            # does) to halve thread block consumption — but only when no
            # static fused binding lays claim to either side.
            if sends and send_key not in bound_recv_of_send:
                tb = next(
                    (t for t in tbs_by_rank[rank]
                     if t.channel == channel and t.send_peer is None
                     and t.recv_peer == instr.send_peer
                     and (rank, t.recv_peer, channel)
                     not in bound_send_of_recv), None,
                )
            elif receives and recv_key not in bound_send_of_recv:
                tb = next(
                    (t for t in tbs_by_rank[rank]
                     if t.channel == channel and t.recv_peer is None
                     and t.send_peer == instr.recv_peer
                     and (rank, t.send_peer, channel)
                     not in bound_recv_of_send), None,
                )
        if tb is None:
            tb = new_tb(rank, channel)
        claim(tb, send_key, recv_key, instr)
        return tb

    with maybe_span(tracer, "place_threadblocks", cat="compiler",
                    instructions=len(instrs)) as place_span:
        while heap:
            _, instr_id = heapq.heappop(heap)
            instr = by_id[instr_id]
            tb = tb_for(instr)
            placement[instr_id] = (tb, len(tb.members))
            tb.members.append(instr)
            tb.last_pos = position
            position += 1
            scheduled += 1
            for succ in successors[instr_id]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    heapq.heappush(heap, (priority(by_id[succ]), succ))
        if place_span is not None:
            place_span.args["threadblocks"] = sum(
                len(tbs) for tbs in tbs_by_rank.values()
            )

    if scheduled != len(instrs):
        raise SchedulingError(
            "instruction DAG contains a cycle: scheduled "
            f"{scheduled} of {len(instrs)} instructions"
        )

    if max_threadblocks is not None:
        for rank, tbs in tbs_by_rank.items():
            if len(tbs) > max_threadblocks:
                raise SchedulingError(
                    f"rank {rank} needs {len(tbs)} thread blocks, but the "
                    f"GPU only has {max_threadblocks} SMs; reduce channels "
                    "or parallelization"
                )

    # Phase 3: cross thread block dependencies.
    ir = MscclIr(
        name=name,
        collective=collective_name,
        protocol=protocol,
        num_ranks=num_ranks,
        in_place=in_place,
    )
    has_dep_flags: Dict[Tuple[int, int, int], bool] = {}
    ir_instrs: Dict[int, IrInstruction] = {}
    # The IR's exact fractions, built once per distinct instance, and
    # each distinct lineage sorted once (an op's instances share it).
    fractions: Dict[Tuple[int, int], Tuple[Fraction, Fraction]] = {}
    lineages: Dict[frozenset, tuple] = {}
    for rank in range(num_ranks):
        gpu = GpuProgram(
            rank=rank,
            input_chunks=input_chunks(rank),
            output_chunks=output_chunks(rank),
            scratch_chunks=scratch_chunks(rank),
        )
        for tb in tbs_by_rank[rank]:
            ir_tb = ThreadBlock(
                tb_id=tb.tb_id,
                send_peer=tb.send_peer,
                recv_peer=tb.recv_peer,
                channel=tb.channel,
            )
            for step, instr in enumerate(tb.members):
                depends: Dict[int, int] = {}
                for dep_id in instr.deps:
                    if dep_id not in placement:
                        continue
                    dep_tb, dep_step = placement[dep_id]
                    if dep_tb is tb:
                        continue  # implicit via sequential execution
                    if dep_tb.rank != rank:
                        continue  # satisfied by the communication edge
                    previous = depends.get(dep_tb.tb_id, -1)
                    depends[dep_tb.tb_id] = max(previous, dep_step)
                dep_list = sorted(depends.items())
                for dep_tb_id, dep_step in dep_list:
                    has_dep_flags[(rank, dep_tb_id, dep_step)] = True
                count = 0
                if instr.src is not None:
                    count = instr.src[2]
                if instr.dst is not None:
                    count = max(count, instr.dst[2])
                frac = fractions.get(instr.instance)
                if frac is None:
                    frac = fractions[instr.instance] = instr.fraction
                lineage = lineages.get(instr.lineage)
                if lineage is None and instr.lineage:
                    lineage = lineages[instr.lineage] = tuple(
                        sorted(instr.lineage))
                ir_instr = IrInstruction(
                    step=step,
                    op=instr.op,
                    src=instr.src,
                    dst=instr.dst,
                    count=count,
                    frac_lo=frac[0],
                    frac_hi=frac[1],
                    depends=dep_list,
                    lineage=lineage,
                )
                ir_tb.instructions.append(ir_instr)
                ir_instrs[instr.instr_id] = ir_instr
            gpu.threadblocks.append(ir_tb)
        ir.gpus.append(gpu)

    for (rank, tb_id, step), flag in has_dep_flags.items():
        ir.gpus[rank].threadblocks[tb_id].instructions[step].has_dep = flag

    # Tag every receive with the index of the message it consumes on its
    # connection. A connection's sender is a single thread block, so
    # wire order is the sender's program order; the matching receive may
    # be scheduled at a different relative position on its own thread
    # block (the runtime's FIFO slots are indexed, not first-come).
    sequence: Dict[Tuple[int, int, int], int] = {}
    for rank in range(num_ranks):
        for tb in tbs_by_rank[rank]:
            for instr in tb.members:
                if instr.sends and instr.send_match is not None:
                    conn = (rank, instr.send_peer, tb.channel)
                    seq = sequence.get(conn, 0)
                    sequence[conn] = seq + 1
                    ir_instrs[instr.send_match].recv_seq = seq
    return ir
