"""MSCCL-IR: the executable form the runtime interprets (paper Fig. 4).

The IR is a tree: a program contains one ``GpuProgram`` per rank, each a
list of ``ThreadBlock``s. A thread block has at most one send peer and
one receive peer, a channel identifying its connections, and a sequence
of ``IrInstruction``s executed in order. Cross-thread-block ordering is
expressed with ``depends`` entries naming (thread block, step) pairs
that must complete first.

The IR serializes to JSON (lossless) and to an msccl-tools-style XML
for eyeballing against the reference implementation's format.

The compile cache keeps IRs in a third, internal form: a *frozen* IR
(:func:`freeze_ir`), an immutable nested-tuple snapshot with one row
per instruction. :func:`expand_ir` rebuilds a private ``MscclIr`` from
it without parsing anything, and :func:`encode_frozen_ir` /
:func:`decode_frozen_ir` map it to and from compact JSON values for the
cache's disk tier.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple
from xml.etree import ElementTree

from .buffers import Buffer
from .instructions import Op

LocalSpan = Tuple[Buffer, int, int]


@dataclass
class IrInstruction:
    """One interpreter step (paper Figure 5's Instruction struct).

    ``recv_seq`` tags receiving instructions with the index of the
    message they consume on their connection (per kernel iteration):
    the runtime's FIFO slots are indexed, so a receive matches its
    specific slot rather than whatever arrives first.
    """

    step: int
    op: Op
    src: Optional[LocalSpan] = None
    dst: Optional[LocalSpan] = None
    count: int = 1
    frac_lo: Fraction = Fraction(0)
    frac_hi: Fraction = Fraction(1)
    depends: List[Tuple[int, int]] = field(default_factory=list)
    has_dep: bool = False  # some other thread block waits on this step
    recv_seq: Optional[int] = None
    # Chunk lineage: origin chunks (rank, buffer name, index) whose data
    # this instruction moves. JSON serializes it as lists; XML as a
    # compact extension attribute ("rank:buffer:index,..." per step).
    lineage: Optional[Tuple[Tuple[int, str, int], ...]] = None

    def to_dict(self) -> dict:
        def span(s):
            return None if s is None else [s[0].value, s[1], s[2]]

        return {
            "step": self.step,
            "op": self.op.value,
            "src": span(self.src),
            "dst": span(self.dst),
            "count": self.count,
            "frac": [
                [self.frac_lo.numerator, self.frac_lo.denominator],
                [self.frac_hi.numerator, self.frac_hi.denominator],
            ],
            "depends": list(self.depends),
            "has_dep": self.has_dep,
            "recv_seq": self.recv_seq,
            "lineage": (None if self.lineage is None
                        else [list(origin) for origin in self.lineage]),
        }


@dataclass
class ThreadBlock:
    """A sequentially-executed instruction list with two connections."""

    tb_id: int
    send_peer: Optional[int] = None
    recv_peer: Optional[int] = None
    channel: int = 0
    instructions: List[IrInstruction] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "id": self.tb_id,
            "send_peer": self.send_peer,
            "recv_peer": self.recv_peer,
            "channel": self.channel,
            "instructions": [i.to_dict() for i in self.instructions],
        }


@dataclass
class GpuProgram:
    """All thread blocks of one rank plus its buffer sizes (in chunks)."""

    rank: int
    input_chunks: int
    output_chunks: int
    scratch_chunks: int
    threadblocks: List[ThreadBlock] = field(default_factory=list)

    def buffer_chunks(self, buffer: Buffer) -> int:
        if buffer is Buffer.INPUT:
            return self.input_chunks
        if buffer is Buffer.OUTPUT:
            return self.output_chunks
        return self.scratch_chunks

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "input_chunks": self.input_chunks,
            "output_chunks": self.output_chunks,
            "scratch_chunks": self.scratch_chunks,
            "threadblocks": [tb.to_dict() for tb in self.threadblocks],
        }


@dataclass
class MscclIr:
    """The complete executable program."""

    name: str
    collective: str
    protocol: str
    num_ranks: int
    in_place: bool
    gpus: List[GpuProgram] = field(default_factory=list)

    # -- queries -----------------------------------------------------------
    def threadblock_count(self) -> int:
        return sum(len(g.threadblocks) for g in self.gpus)

    def instruction_count(self) -> int:
        return sum(
            len(tb.instructions)
            for g in self.gpus
            for tb in g.threadblocks
        )

    def max_threadblocks_per_gpu(self) -> int:
        return max((len(g.threadblocks) for g in self.gpus), default=0)

    def channels_used(self) -> int:
        channels = {
            tb.channel for g in self.gpus for tb in g.threadblocks
        }
        return len(channels)

    def connections(self) -> List[Tuple[int, int, int]]:
        """All (src_rank, dst_rank, channel) connections in the program."""
        conns = set()
        for gpu in self.gpus:
            for tb in gpu.threadblocks:
                if tb.send_peer is not None:
                    conns.add((gpu.rank, tb.send_peer, tb.channel))
        return sorted(conns)

    def op_histogram(self) -> Dict[str, int]:
        """Opcode -> occurrence count, for tests and diagnostics."""
        histogram: Dict[str, int] = {}
        for gpu in self.gpus:
            for tb in gpu.threadblocks:
                for instr in tb.instructions:
                    histogram[instr.op.value] = (
                        histogram.get(instr.op.value, 0) + 1
                    )
        return histogram

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "collective": self.collective,
            "protocol": self.protocol,
            "num_ranks": self.num_ranks,
            "in_place": self.in_place,
            "gpus": [g.to_dict() for g in self.gpus],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @staticmethod
    def from_json(text: str) -> "MscclIr":
        return MscclIr.from_dict(json.loads(text))

    @staticmethod
    def from_dict(data: dict) -> "MscclIr":
        ir = MscclIr(
            name=data["name"],
            collective=data["collective"],
            protocol=data["protocol"],
            num_ranks=data["num_ranks"],
            in_place=data["in_place"],
        )
        for gd in data["gpus"]:
            gpu = GpuProgram(
                rank=gd["rank"],
                input_chunks=gd["input_chunks"],
                output_chunks=gd["output_chunks"],
                scratch_chunks=gd["scratch_chunks"],
            )
            for td in gd["threadblocks"]:
                tb = ThreadBlock(
                    tb_id=td["id"],
                    send_peer=td["send_peer"],
                    recv_peer=td["recv_peer"],
                    channel=td["channel"],
                )
                for idx in td["instructions"]:
                    def span(s):
                        if s is None:
                            return None
                        return (Buffer(s[0]), s[1], s[2])

                    (lo_n, lo_d), (hi_n, hi_d) = idx["frac"]
                    tb.instructions.append(IrInstruction(
                        step=idx["step"],
                        op=Op(idx["op"]),
                        src=span(idx["src"]),
                        dst=span(idx["dst"]),
                        count=idx["count"],
                        frac_lo=Fraction(lo_n, lo_d),
                        frac_hi=Fraction(hi_n, hi_d),
                        depends=[tuple(d) for d in idx["depends"]],
                        has_dep=idx["has_dep"],
                        recv_seq=idx.get("recv_seq"),
                        lineage=(None if idx.get("lineage") is None
                                 else tuple(tuple(o)
                                            for o in idx["lineage"])),
                    ))
                gpu.threadblocks.append(tb)
            ir.gpus.append(gpu)
        return ir

    @staticmethod
    def from_xml(text: str) -> "MscclIr":
        """Parse MSCCL XML: our own dialect or the reference one.

        Delegates to :func:`repro.core.interop.import_xml`, which also
        accepts the reference-dialect spellings (``i``/``o``/``s``
        buffer names, ``nop``/``copy``/``send`` op aliases, scalar
        ``depid="-1"``) and raises :class:`~repro.core.errors.
        XmlImportError` naming the offending element and attribute on
        malformed input.
        """
        from .interop import import_xml
        return import_xml(text)

    def to_xml(self) -> str:
        """msccl-tools-style XML rendering (for human inspection)."""
        root = ElementTree.Element("algo", {
            "name": self.name,
            "proto": self.protocol,
            "nchannels": str(self.channels_used()),
            "ngpus": str(self.num_ranks),
            "coll": self.collective,
            "inplace": "1" if self.in_place else "0",
        })
        for gpu in self.gpus:
            gpu_el = ElementTree.SubElement(root, "gpu", {
                "id": str(gpu.rank),
                "i_chunks": str(gpu.input_chunks),
                "o_chunks": str(gpu.output_chunks),
                "s_chunks": str(gpu.scratch_chunks),
            })
            for tb in gpu.threadblocks:
                tb_el = ElementTree.SubElement(gpu_el, "tb", {
                    "id": str(tb.tb_id),
                    "send": str(-1 if tb.send_peer is None else tb.send_peer),
                    "recv": str(-1 if tb.recv_peer is None else tb.recv_peer),
                    "chan": str(tb.channel),
                })
                for instr in tb.instructions:
                    attrs = {
                        "step": str(instr.step),
                        "type": instr.op.value,
                        "cnt": str(instr.count),
                    }
                    # Span counts usually equal the instruction count;
                    # when they differ (variable-size chunks, e.g.
                    # alltoallv) emit explicit overrides so round-trips
                    # are lossless instead of silently conflating them.
                    if instr.src is not None:
                        attrs["srcbuf"] = instr.src[0].value
                        attrs["srcoff"] = str(instr.src[1])
                        if instr.src[2] != instr.count:
                            attrs["scnt"] = str(instr.src[2])
                    if instr.dst is not None:
                        attrs["dstbuf"] = instr.dst[0].value
                        attrs["dstoff"] = str(instr.dst[1])
                        if instr.dst[2] != instr.count:
                            attrs["dcnt"] = str(instr.dst[2])
                    if (instr.frac_lo, instr.frac_hi) != (
                            Fraction(0), Fraction(1)):
                        attrs["flo"] = str(instr.frac_lo)
                        attrs["fhi"] = str(instr.frac_hi)
                    if instr.depends:
                        attrs["depid"] = ",".join(
                            str(tb_id) for tb_id, _ in instr.depends
                        )
                        attrs["deps"] = ",".join(
                            str(step) for _, step in instr.depends
                        )
                    if instr.has_dep:
                        attrs["hasdep"] = "1"
                    if instr.recv_seq is not None:
                        attrs["seq"] = str(instr.recv_seq)
                    if instr.lineage:
                        attrs["lineage"] = ",".join(
                            f"{rank}:{buf}:{index}"
                            for rank, buf, index in instr.lineage
                        )
                    ElementTree.SubElement(tb_el, "step", attrs)
        ElementTree.indent(root)
        return ElementTree.tostring(root, encoding="unicode")


# -- frozen form ---------------------------------------------------------
#
#   frozen = (name, collective, protocol, num_ranks, in_place, gpus)
#   gpu    = (rank, input_chunks, output_chunks, scratch_chunks, tbs)
#   tb     = (tb_id, send_peer, recv_peer, channel, rows)
#   row    = (step, op, src, dst, count, frac_lo, frac_hi, depends,
#             has_dep, recv_seq, lineage)
#
# Every level is a tuple and every leaf immutable (span and depends
# tuples, Fractions, Op/Buffer members, lineage tuples), so one frozen IR
# can back any number of expansions, which share the leaves and own
# their containers.
FrozenIr = Tuple[Any, ...]

_OPS = {op.value: op for op in Op}
_BUFFERS = {buffer.value: buffer for buffer in Buffer}
# Enum ``.value`` is a descriptor call; encoding maps members instead.
_OP_VALUES = {op: value for value, op in _OPS.items()}
_BUFFER_VALUES = {buffer: value for value, buffer in _BUFFERS.items()}


def _freeze_span(span) -> Optional[LocalSpan]:
    return None if span is None else tuple(span)


def _freeze_lineage(lineage):
    # Every producer (scheduling, the XML importer, from_dict) builds
    # tuples of origin tuples: share them rather than copy them.
    if lineage is None or type(lineage) is tuple:
        return lineage
    return tuple(map(tuple, lineage))


def freeze_ir(ir: MscclIr) -> FrozenIr:
    """An immutable snapshot of ``ir``, unaffected by later edits."""
    return (ir.name, ir.collective, ir.protocol, ir.num_ranks,
            ir.in_place, tuple([
                (gpu.rank, gpu.input_chunks, gpu.output_chunks,
                 gpu.scratch_chunks, tuple([
                     (tb.tb_id, tb.send_peer, tb.recv_peer, tb.channel,
                      tuple([
                          (i.step, i.op, _freeze_span(i.src),
                           _freeze_span(i.dst), i.count, i.frac_lo,
                           i.frac_hi, tuple(map(tuple, i.depends)),
                           i.has_dep, i.recv_seq,
                           _freeze_lineage(i.lineage))
                          for i in tb.instructions]))
                     for tb in gpu.threadblocks]))
                for gpu in ir.gpus]))


def expand_ir(frozen: FrozenIr) -> MscclIr:
    """A fresh, privately owned ``MscclIr`` equal to ``frozen``."""
    name, collective, protocol, num_ranks, in_place, gpus = frozen
    return MscclIr(name, collective, protocol, num_ranks, in_place, [
        GpuProgram(rank, input_chunks, output_chunks, scratch_chunks, [
            ThreadBlock(tb_id, send_peer, recv_peer, channel, [
                IrInstruction(step, op, src, dst, count, lo, hi,
                              list(depends), has_dep, seq, lineage)
                for (step, op, src, dst, count, lo, hi, depends,
                     has_dep, seq, lineage) in rows
            ])
            for tb_id, send_peer, recv_peer, channel, rows in tbs
        ])
        for rank, input_chunks, output_chunks, scratch_chunks, tbs in gpus
    ])


def encode_frozen_ir(frozen: FrozenIr) -> list:
    """Compact JSON-safe values for ``frozen``.

    ``[name, collective, protocol, num_ranks, in_place, gpus, lineages,
    origins]``, with the gpu and thread-block levels as lists in the
    frozen layout and each instruction one flat 13-value row::

        [step, op, src, dst, count, lo_num, lo_den, hi_num, hi_den,
         depends, has_dep, recv_seq, lineage]

    ``op`` and span buffers are their string values, ``src``/``dst``
    are ``[buffer, offset, count]`` or null, and ``depends`` is a list
    of ``[tb_id, step]`` pairs. Lineages repeat heavily, so ``lineage``
    is null or an index into ``lineages``, the entry's distinct
    lineages, each a list of indices into ``origins``, its distinct
    ``[rank, buffer, index]`` origins.
    """
    lineages: Dict[tuple, int] = {}
    origins: Dict[tuple, int] = {}

    def span(s):
        return None if s is None else [_BUFFER_VALUES[s[0]], s[1], s[2]]

    def lineage_index(lineage):
        if lineage is None:
            return None
        index = lineages.get(lineage)
        if index is None:
            index = lineages[lineage] = len(lineages)
        return index

    def origin_index(origin):
        index = origins.get(origin)
        if index is None:
            index = origins[origin] = len(origins)
        return index

    name, collective, protocol, num_ranks, in_place, gpus = frozen
    gpu_docs = [
        [rank, input_chunks, output_chunks, scratch_chunks, [
            [tb_id, send_peer, recv_peer, channel, [
                [step, _OP_VALUES[op], span(src), span(dst), count,
                 lo.numerator, lo.denominator, hi.numerator,
                 hi.denominator, depends, has_dep, seq,
                 lineage_index(lineage)]
                for (step, op, src, dst, count, lo, hi, depends,
                     has_dep, seq, lineage) in rows
            ]]
            for tb_id, send_peer, recv_peer, channel, rows in tbs
        ]]
        for rank, input_chunks, output_chunks, scratch_chunks, tbs in gpus
    ]
    lineage_docs = [[origin_index(origin) for origin in lineage]
                    for lineage in lineages]
    return [name, collective, protocol, num_ranks, in_place, gpu_docs,
            lineage_docs, list(origins)]


def decode_frozen_ir(doc) -> FrozenIr:
    """Inverse of :func:`encode_frozen_ir` over parsed JSON values.

    Validates every value as it goes and raises ``ValueError`` on the
    first malformed one (wrong arity, a non-list row, an unknown op or
    buffer, a non-integer count, a zero denominator, ...). Equal
    fractions decode to one shared ``Fraction``, each lineage to one
    tuple shared by every row naming it, and each origin to one tuple
    shared by every lineage holding it.
    """
    try:
        return _decode(doc)
    except (TypeError, KeyError, IndexError) as error:
        raise ValueError(f"malformed frozen IR: {error!r}") from None


def _fields(doc, arity: int) -> list:
    if type(doc) is not list or len(doc) != arity:
        raise ValueError(f"expected a list of {arity} values")
    return doc


def _list(doc) -> list:
    if type(doc) is not list:
        raise ValueError(f"expected a list, got {type(doc).__name__}")
    return doc


def _require_ints(*values) -> None:
    for value in values:
        if type(value) is not int:
            raise ValueError(f"expected an integer, got {value!r}")


def _optional_ints(*values) -> None:
    for value in values:
        if value is not None and type(value) is not int:
            raise ValueError(f"expected an integer or null, got {value!r}")


def _decode_span(doc) -> LocalSpan:
    buffer, offset, count = _fields(doc, 3)
    _require_ints(offset, count)
    return (_BUFFERS[buffer], offset, count)


def _decode(doc) -> FrozenIr:
    (name, collective, protocol, num_ranks, in_place, gpu_docs,
     lineage_docs, origin_docs) = _fields(doc, 8)
    if not (type(name) is str and type(collective) is str
            and type(protocol) is str and type(in_place) is bool):
        raise ValueError("malformed IR header")
    _require_ints(num_ranks)
    origins = []
    for origin in _list(origin_docs):
        rank, buffer, index = _fields(origin, 3)
        _require_ints(rank, index)
        # The member's own value: one string object for every origin.
        origins.append((rank, _BUFFERS[buffer].value, index))
    # Indexing validates: a non-integer index raises TypeError and an
    # out-of-range one IndexError.
    lineages = [tuple(map(origins.__getitem__, _list(lin)))
                for lin in _list(lineage_docs)]
    fractions: Dict[Tuple[int, int], Fraction] = {}

    def fraction(num, den) -> Fraction:
        value = fractions.get((num, den))
        if value is None:
            _require_ints(num, den)
            if den <= 0:
                raise ValueError(f"fraction denominator {den} <= 0")
            value = fractions[(num, den)] = Fraction(num, den)
        return value

    gpus = []
    for gpu_doc in _list(gpu_docs):
        (rank, input_chunks, output_chunks, scratch_chunks,
         tb_docs) = _fields(gpu_doc, 5)
        _require_ints(rank, input_chunks, output_chunks, scratch_chunks)
        tbs = []
        for tb_doc in _list(tb_docs):
            tb_id, send_peer, recv_peer, channel, row_docs = _fields(
                tb_doc, 5)
            _require_ints(tb_id, channel)
            _optional_ints(send_peer, recv_peer)
            rows = []
            for row in _list(row_docs):
                (step, op, src, dst, count, lo_num, lo_den, hi_num,
                 hi_den, depends, has_dep, seq, lineage) = _fields(row, 13)
                if (type(step) is not int or type(count) is not int
                        or type(has_dep) is not bool
                        or type(depends) is not list
                        or (seq is not None and type(seq) is not int)):
                    raise ValueError(f"malformed instruction row {row}")
                deps = tuple(map(tuple, depends))
                for dep in deps:
                    if (len(dep) != 2 or type(dep[0]) is not int
                            or type(dep[1]) is not int):
                        raise ValueError(f"malformed depends entry {dep}")
                if lineage is not None:
                    if type(lineage) is not int or lineage < 0:
                        raise ValueError(f"bad lineage index {lineage!r}")
                    lineage = lineages[lineage]
                rows.append((
                    step, _OPS[op],
                    None if src is None else _decode_span(src),
                    None if dst is None else _decode_span(dst),
                    count, fraction(lo_num, lo_den),
                    fraction(hi_num, hi_den), deps, has_dep, seq, lineage,
                ))
            tbs.append((tb_id, send_peer, recv_peer, channel, tuple(rows)))
        gpus.append((rank, input_chunks, output_chunks, scratch_chunks,
                     tuple(tbs)))
    return (name, collective, protocol, num_ranks, in_place, tuple(gpus))
