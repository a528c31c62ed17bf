"""Peephole instruction fusion (paper section 4.3).

Three rewrites combine a receive-side instruction with a dependent send
so intermediate values flow through registers instead of global memory:

* ``recv`` + ``send``  ->  ``rcs``   (recvCopySend)
* ``rrc``  + ``send``  ->  ``rrcs``  (recvReduceCopySend)
* ``rrc``  + ``send``  ->  ``rrs``   (recvReduceSend) when the locally
  reduced value is never read again and is later overwritten, so the
  local store can be elided entirely.

When several sends depend on one receive, the send on the longest path
through the Instruction DAG is fused (it gates the most downstream
work).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from .instructions import Instruction, InstructionDAG, Op


def _reverse_depths(idag: InstructionDAG) -> Dict[int, int]:
    """Longest path (in edges) from each instruction to any leaf.

    Edges: processing dependencies and send->recv communication edges.
    Instruction ids are already a topological order (lowering only adds
    edges from lower to higher ids), so one reverse sweep suffices.
    """
    depths: Dict[int, int] = {}
    successors: Dict[int, Set[int]] = {
        i.instr_id: set() for i in idag.live()
    }
    for instr in idag.live():
        for dep in instr.deps:
            successors[dep].add(instr.instr_id)
        if instr.send_match is not None:
            successors[instr.instr_id].add(instr.send_match)
    for instr in reversed(idag.live()):
        succ = successors[instr.instr_id]
        depths[instr.instr_id] = (
            1 + max(depths[s] for s in succ) if succ else 0
        )
    return depths


class _ChainTracker:
    """Channel chains as the scheduler will later see them.

    ``_assign_channels`` identifies each communication edge by its
    receiving instruction's id and unions a fused instruction's
    incoming edge with its outgoing edge — transitively, so a chain of
    rcs/rrcs hops must agree on a single explicit ``ch=`` directive. A
    pairwise directive check at fusion time is not enough: two fusions
    that look compatible locally can join chains whose *other* ends
    carry different directives. This tracker mirrors the scheduler's
    union-find so such fusions are skipped instead of exploding later
    as a ``SchedulingError``.
    """

    def __init__(self, by_id: List[Optional[Instruction]]):
        self._by_id = by_id
        self._parent: Dict[int, int] = {}
        self._dirs: Dict[int, Set[int]] = {}

    def _register(self, edge: int) -> None:
        if edge in self._parent:
            return
        self._parent[edge] = edge
        dirs: Set[int] = set()
        recv_side = self._by_id[edge]
        if recv_side is not None:
            if recv_side.channel_directive is not None:
                dirs.add(recv_side.channel_directive)
            if recv_side.recv_match is not None:
                send_side = self._by_id[recv_side.recv_match]
                if (send_side is not None
                        and send_side.channel_directive is not None):
                    dirs.add(send_side.channel_directive)
        self._dirs[edge] = dirs

    def _find(self, edge: int) -> int:
        self._register(edge)
        root = edge
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[edge] != root:  # path compression
            self._parent[edge], edge = root, self._parent[edge]
        return root

    def can_merge(self, incoming_edge: int, outgoing_edge: int) -> bool:
        """Would fusing these edges leave at most one directive?"""
        merged = (self._dirs[self._find(incoming_edge)]
                  | self._dirs[self._find(outgoing_edge)])
        return len(merged) <= 1

    def merge(self, incoming_edge: int, outgoing_edge: int) -> None:
        ra = self._find(incoming_edge)
        rb = self._find(outgoing_edge)
        if ra != rb:
            self._parent[rb] = ra
            self._dirs[ra] |= self._dirs.pop(rb)


def _pick_send(receiver: Instruction, candidates: List[Instruction],
               rev_depth: Dict[int, int]) -> Instruction:
    """The send to fuse: the one on the longest downstream path."""
    return max(
        candidates,
        key=lambda s: (rev_depth[s.instr_id], -s.instr_id),
    )


def fuse(idag: InstructionDAG) -> InstructionDAG:
    """Apply all peephole fusions in place and return the DAG."""
    rev_depth = _reverse_depths(idag)
    dependents: Dict[int, Set[int]] = {
        i.instr_id: set() for i in idag.live()
    }
    for instr in idag.live():
        for dep in instr.deps:
            dependents[dep].add(instr.instr_id)

    by_id = idag.instructions  # list indexed by instr_id; fused slots None
    chains = _ChainTracker(by_id)

    for receiver in list(idag.live()):
        if receiver.op not in (Op.RECV, Op.RECV_REDUCE_COPY):
            continue
        candidates = []
        for dep_id in sorted(dependents[receiver.instr_id]):
            cand = by_id[dep_id]
            if cand is None or cand.op is not Op.SEND:
                continue
            if cand.rank != receiver.rank:
                continue
            if cand.src != receiver.dst:
                continue
            if cand.instance != receiver.instance:
                continue
            # Fusing ties the receiver's incoming communication edge to
            # the send's outgoing one in the scheduler's channel
            # assignment; both (transitive) chains must agree on one
            # explicit ch= directive.
            if (cand.send_match is not None
                    and not chains.can_merge(receiver.instr_id,
                                             cand.send_match)):
                continue
            # Fusing moves the send to the receiver's position: every
            # other prerequisite of the send must already be satisfied
            # there.
            extra = cand.deps - {receiver.instr_id}
            if not extra <= receiver.deps:
                continue
            candidates.append(cand)
        if not candidates:
            continue

        send = _pick_send(receiver, candidates, rev_depth)
        if send.send_match is not None:
            chains.merge(receiver.instr_id, send.send_match)
        _fuse_pair(receiver, send, by_id, dependents)

    return idag


def _fuse_pair(receiver: Instruction, send: Instruction,
               by_id: List[Optional[Instruction]],
               dependents: Dict[int, Set[int]]) -> None:
    """Merge ``send`` into ``receiver`` and rewrite the graph."""
    if receiver.op is Op.RECV:
        receiver.op = Op.RECV_COPY_SEND
    else:
        # rrs when the reduced value is never read by anything but this
        # send and the location is later fully overwritten; otherwise
        # the local copy must be kept (rrcs).
        true_readers = {
            d for d in dependents[receiver.instr_id]
            if by_id[d] is not None
            and receiver.instr_id in by_id[d].true_deps
        }
        if true_readers == {send.instr_id} and receiver.overwritten:
            receiver.op = Op.RECV_REDUCE_SEND
        else:
            receiver.op = Op.RECV_REDUCE_COPY_SEND

    receiver.send_peer = send.send_peer
    receiver.send_match = send.send_match
    receiver.lineage |= send.lineage
    receiver.fused_ids.append(send.instr_id)
    receiver.fused_ids.extend(send.fused_ids)
    if receiver.channel_directive is None:
        receiver.channel_directive = send.channel_directive
    remote_recv = by_id[send.send_match]
    remote_recv.recv_match = receiver.instr_id

    # Inherit the send's remaining dependencies and dependents.
    receiver.deps |= send.deps - {receiver.instr_id}
    receiver.true_deps |= send.true_deps - {receiver.instr_id}
    for dep_id in send.deps:
        if dep_id != receiver.instr_id and by_id[dep_id] is not None:
            dependents[dep_id].discard(send.instr_id)
            dependents[dep_id].add(receiver.instr_id)
    for dependent_id in dependents[send.instr_id]:
        dependent = by_id[dependent_id]
        if dependent is None:
            continue
        dependent.deps.discard(send.instr_id)
        dependent.deps.add(receiver.instr_id)
        if send.instr_id in dependent.true_deps:
            dependent.true_deps.discard(send.instr_id)
            dependent.true_deps.add(receiver.instr_id)
        dependents[receiver.instr_id].add(dependent_id)
    dependents[send.instr_id] = set()
    dependents[receiver.instr_id].discard(send.instr_id)
    by_id[send.instr_id] = None
