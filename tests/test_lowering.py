"""Tests for lowering the Chunk DAG into the Instruction DAG."""

from fractions import Fraction

import pytest

from repro.core import AllReduce, MSCCLProgram, Op, chunk, lower, parallelize
from repro.core.lowering import _units


def trace(body, num_ranks=3, chunk_factor=2, instances=1):
    coll = AllReduce(num_ranks, chunk_factor=chunk_factor)
    with MSCCLProgram("t", coll, instances=instances) as program:
        body()
    return program


class TestExpansion:
    def test_remote_copy_becomes_send_recv(self):
        program = trace(lambda: chunk(0, "in", 0).copy(1, "sc", 0))
        idag = lower(program.dag)
        ops = [i.op for i in idag.live()]
        assert ops == [Op.SEND, Op.RECV]
        send, recv = idag.live()
        assert send.send_match == recv.instr_id
        assert recv.recv_match == send.instr_id
        assert send.rank == 0 and recv.rank == 1

    def test_remote_reduce_becomes_send_rrc(self):
        def body():
            incoming = chunk(1, "in", 0)
            chunk(0, "in", 0).reduce(incoming)

        program = trace(body)
        idag = lower(program.dag)
        ops = [i.op for i in idag.live()]
        assert ops == [Op.SEND, Op.RECV_REDUCE_COPY]
        rrc = idag.live()[1]
        assert rrc.src == rrc.dst  # accumulates in place

    def test_local_copy_single_instruction(self):
        program = trace(lambda: chunk(0, "in", 0).copy(0, "sc", 3))
        idag = lower(program.dag)
        (instr,) = idag.live()
        assert instr.op is Op.COPY
        assert instr.send_peer is None and instr.recv_peer is None

    def test_local_reduce_single_instruction(self):
        def body():
            chunk(0, "in", 0).copy(0, "sc", 0)
            chunk(0, "in", 1).reduce(chunk(0, "sc", 0))

        program = trace(body)
        idag = lower(program.dag)
        assert [i.op for i in idag.live()] == [Op.COPY, Op.REDUCE]

    def test_processing_edge_recomputed_at_instruction_level(self):
        def body():
            a = chunk(0, "in", 0).copy(1, "sc", 0)
            a.copy(2, "sc", 0)

        program = trace(body)
        idag = lower(program.dag)
        send0, recv0, send1, recv1 = idag.live()
        # The second send (on rank 1) reads what the first recv wrote.
        assert recv0.instr_id in send1.true_deps


class TestInstances:
    def test_program_instances_replicate_ops(self):
        program = trace(
            lambda: chunk(0, "in", 0).copy(1, "sc", 0), instances=3
        )
        idag = lower(program.dag, instances=3)
        sends = [i for i in idag.live() if i.op is Op.SEND]
        assert len(sends) == 3
        assert sorted(s.instance for s in sends) == [(0, 3), (1, 3), (2, 3)]
        fracs = sorted(s.fraction for s in sends)
        assert fracs == [
            (Fraction(0), Fraction(1, 3)),
            (Fraction(1, 3), Fraction(2, 3)),
            (Fraction(2, 3), Fraction(1)),
        ]

    def test_parallelize_multiplies_with_instances(self):
        def body():
            with parallelize(2):
                chunk(0, "in", 0).copy(1, "sc", 0)

        program = trace(body, instances=2)
        idag = lower(program.dag, instances=2)
        sends = [i for i in idag.live() if i.op is Op.SEND]
        assert len(sends) == 4
        assert all(s.instance[1] == 4 for s in sends)

    def test_instances_partition_exactly(self):
        program = trace(
            lambda: chunk(0, "in", 0).copy(1, "sc", 0), instances=4
        )
        idag = lower(program.dag, instances=4)
        sends = sorted(
            (i for i in idag.live() if i.op is Op.SEND),
            key=lambda s: s.fraction,
        )
        assert sends[0].fraction[0] == 0 and sends[-1].fraction[1] == 1
        for a, b in zip(sends, sends[1:]):
            assert a.fraction[1] == b.fraction[0]

    def test_cross_parallelism_dependencies_by_overlap(self):
        """A 2-way parallel producer feeding an unparallelized consumer:
        the consumer must depend on both instances."""

        def body():
            with parallelize(2):
                chunk(0, "in", 0).copy(1, "sc", 0)
            chunk(1, "sc", 0).copy(2, "sc", 0)

        program = trace(body)
        idag = lower(program.dag)
        recvs = [i for i in idag.live()
                 if i.op is Op.RECV and i.rank == 1]
        consumer_send = [i for i in idag.live()
                         if i.op is Op.SEND and i.rank == 1][0]
        assert {r.instr_id for r in recvs} <= consumer_send.true_deps

    def test_same_instance_dependencies_stay_disjoint(self):
        """Matching instances of two parallelized ops depend pairwise,
        not all-to-all."""

        def body():
            with parallelize(2):
                a = chunk(0, "in", 0).copy(1, "sc", 0)
                a.copy(2, "sc", 0)

        program = trace(body)
        idag = lower(program.dag)
        live = idag.live()
        second_sends = [i for i in live if i.op is Op.SEND and i.rank == 1]
        for send in second_sends:
            producing_recvs = [
                live_i for live_i in live
                if live_i.instr_id in send.true_deps
            ]
            assert all(
                r.instance == send.instance for r in producing_recvs
            )

    def test_mixed_denominators_depend_by_overlap(self):
        """Thirds from whole-program instances against sixths from a
        2-way parallelize: every consumer third depends on exactly the
        two producer sixths inside it."""

        def body():
            with parallelize(2):
                chunk(0, "in", 0).copy(1, "sc", 0)
            chunk(1, "sc", 0).copy(2, "sc", 0)

        program = trace(body, instances=3)
        idag = lower(program.dag, instances=3)
        live = idag.live()
        producers = {i.instr_id: i for i in live
                     if i.op is Op.RECV and i.rank == 1}
        assert sorted(p.instance[1] for p in producers.values()) == [6] * 6
        for send in (i for i in live if i.op is Op.SEND and i.rank == 1):
            deps = [producers[d] for d in send.true_deps if d in producers]
            lo, hi = send.fraction
            assert sorted(d.fraction for d in deps) == [
                (lo, lo + (hi - lo) / 2), (lo + (hi - lo) / 2, hi)]


class TestOverwrittenTracking:
    def test_fully_overwritten_flag(self):
        def body():
            chunk(0, "in", 0).copy(1, "sc", 0)
            chunk(0, "in", 1).copy(1, "sc", 0)

        program = trace(body)
        idag = lower(program.dag)
        first_recv = [i for i in idag.live() if i.op is Op.RECV][0]
        assert first_recv.overwritten

    def test_partial_overwrite_not_flagged(self):
        """Only half the fraction range is overwritten."""

        def body():
            chunk(0, "in", 0).copy(1, "sc", 0)
            with parallelize(2):
                chunk(0, "in", 1).copy(1, "sc", 0)

        program = trace(body)
        idag = lower(program.dag)
        # Both parallel instances together DO cover the location.
        first_recv = [i for i in idag.live() if i.op is Op.RECV][0]
        assert first_recv.overwritten

    def test_never_overwritten_not_flagged(self):
        program = trace(lambda: chunk(0, "in", 0).copy(1, "sc", 0))
        idag = lower(program.dag)
        recv = [i for i in idag.live() if i.op is Op.RECV][0]
        assert not recv.overwritten


class TestIntervalHelpers:
    # A chunk split into 4 units; an access holds a bitmask of units.
    def test_subtract_middle(self):
        assert _units(0, 4) & ~_units(1, 2) == _units(0, 1) | _units(2, 4)

    def test_subtract_disjoint(self):
        assert _units(0, 1) & ~_units(2, 4) == _units(0, 1)

    def test_subtract_everything(self):
        assert _units(0, 4) & ~_units(0, 4) == 0

    def test_overlaps(self):
        assert _units(0, 2) & _units(1, 3)
        assert not _units(0, 2) & _units(2, 4)
