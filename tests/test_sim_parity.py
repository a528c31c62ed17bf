"""Differential parity: the batched event loop vs the reference loop.

The batched engine's contract is *bitwise identity*: any IR simulated
by both engines must produce the same ``SimResult`` fields and
resource busy times. These tests drive the contract over generated IRs
from three families — ring allreduce, double binary tree allreduce,
and builder-authored alltoallv with variable counts — crossed with
protocols and config variants, plus a builder-authored IR whose thread
blocks run well past a hundred instructions, and the explicit engine
selection. Traced runs execute on the reference engine; they must
report the same timing as the untraced batched run.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.build import IrBuilder
from repro.core import AllToAllV, compile_program
from repro.core.errors import SimulationError
from repro.algorithms import double_binary_tree_allreduce, ring_allreduce
from repro.runtime.protocols import LL, LL128, SIMPLE
from repro.runtime.simulator import (IrSimulator, SimConfig,
                                     sim_parity_diffs)
from repro.topology import generic, ndv4

KiB = 1024


def _alltoallv_ir(counts):
    coll = AllToAllV(counts)
    builder = IrBuilder("alltoallv_parity", coll)
    for rank in range(coll.num_ranks):
        gpu = builder.gpu(rank)
        local = gpu.threadblock()
        local.copy("input", coll.send_offset(rank, rank),
                   "output", coll.recv_offset(rank, rank),
                   counts[rank][rank])
        for peer in range(coll.num_ranks):
            if peer == rank:
                continue
            tb = gpu.threadblock(send=peer, recv=peer)
            if counts[rank][peer]:
                tb.send("input", coll.send_offset(rank, peer),
                        counts[rank][peer])
            if counts[peer][rank]:
                tb.recv("output", coll.recv_offset(peer, rank),
                        counts[peer][rank])
    return builder.check()


_IR_CACHE = {}


def _family_ir(family, size, seed):
    key = (family, size, seed)
    ir = _IR_CACHE.get(key)
    if ir is not None:
        return ir
    if family == "ring":
        ir = compile_program(
            ring_allreduce(size, channels=1 + seed % 2)).ir
    elif family == "tree":
        ir = compile_program(double_binary_tree_allreduce(size)).ir
    else:  # alltoallv with seed-skewed counts
        n = 4
        counts = [[1 + (seed + i * n + j) % 3 for j in range(n)]
                  for i in range(n)]
        ir = _alltoallv_ir(counts)
    _IR_CACHE[key] = ir
    return ir


def _long_block_ir(chunks=70):
    """Two ranks trading ``chunks`` single-chunk messages each way.

    Each rank's exchange thread block alternates send and receive, so
    it holds ``2 * chunks`` instructions; a local thread block's copies
    wait on the exchange block's last step and its midpoint.
    """
    counts = [[2, chunks], [chunks, 2]]
    coll = AllToAllV(counts)
    builder = IrBuilder("long_block_parity", coll)
    for rank in range(2):
        peer = 1 - rank
        gpu = builder.gpu(rank)
        local = gpu.threadblock()
        exchange = gpu.threadblock(send=peer, recv=peer)
        for i in range(chunks):
            exchange.send("input", coll.send_offset(rank, peer) + i)
            exchange.recv("output", coll.recv_offset(peer, rank) + i)
        own_in = coll.send_offset(rank, rank)
        own_out = coll.recv_offset(rank, rank)
        local.copy("input", own_in, "output", own_out,
                   depends=[(exchange.tb_id, chunks)])
        local.copy("input", own_in + 1, "output", own_out + 1,
                   depends=[(exchange.tb_id, 2 * chunks - 1)])
    return builder.check()


def _assert_parity(ir, topo, proto, chunk_bytes, **cfg_kwargs):
    """Untraced batched and reference runs must be indistinguishable,
    and a traced run (always on the reference engine) must match."""
    def run(engine, traced=False):
        cfg = SimConfig(engine=engine, collect_trace=traced,
                        **cfg_kwargs)
        return IrSimulator(ir, topo, proto, cfg).run(chunk_bytes)

    batched, reference = run("batched"), run("reference")
    diffs = sim_parity_diffs(batched, reference)
    assert not diffs, diffs
    traced = run("batched", traced=True)
    assert traced.graph is not None and traced.spans
    assert traced.time_us == batched.time_us
    assert traced.resource_busy_us == batched.resource_busy_us


@settings(max_examples=12, deadline=None)
@given(
    family=st.sampled_from(["ring", "tree", "alltoallv"]),
    size=st.sampled_from([4, 8]),
    seed=st.integers(min_value=0, max_value=5),
    proto=st.sampled_from([SIMPLE, LL, LL128]),
    chunk_kib=st.sampled_from([16, 256, 4096]),
)
def test_engines_bitwise_identical(family, size, seed, proto, chunk_kib):
    if family == "alltoallv":
        size = 4  # counts matrix is fixed at 4 ranks
    ir = _family_ir(family, size, seed)
    topo = generic(ir.num_ranks)
    _assert_parity(ir, topo, proto, float(chunk_kib * KiB))


class TestConfigVariants:
    """Parity must survive every SimConfig knob the fast path reads."""

    def _ir(self):
        return _family_ir("ring", 8, 0)

    def test_direct_copy(self):
        ir = self._ir()
        _assert_parity(ir, generic(8), SIMPLE, 256.0 * KiB,
                       direct_copy=True)

    def test_no_launch_overhead(self):
        ir = self._ir()
        _assert_parity(ir, generic(8), SIMPLE, 256.0 * KiB,
                       include_launch=False)

    def test_degradations(self):
        ir = _family_ir("ring", 16, 1)
        _assert_parity(ir, ndv4(2), SIMPLE, 256.0 * KiB,
                       degradations={"nic_out": 0.25})

    def test_multi_node(self):
        ir = _family_ir("tree", 16, 0)
        _assert_parity(ir, ndv4(2), LL, 64.0 * KiB)


class TestLongBlocks:
    """Every thread block runs as a generated task, however long."""

    def test_block_exceeds_a_hundred_instructions(self):
        ir = _long_block_ir()
        longest = max(len(tb.instructions) for gpu in ir.gpus
                      for tb in gpu.threadblocks)
        assert longest >= 128

    @pytest.mark.parametrize("proto,chunk_kib", [
        (SIMPLE, 256), (LL, 16), (LL128, 4096),
    ])
    def test_parity(self, proto, chunk_kib):
        _assert_parity(_long_block_ir(), generic(2), proto,
                       float(chunk_kib * KiB))

    def test_parity_across_nodes(self):
        _assert_parity(_long_block_ir(), generic(1, 2), SIMPLE,
                       64.0 * KiB)


class TestEscapeHatches:
    def test_explicit_engine_beats_env(self, monkeypatch):
        # The engine comes from SimConfig alone; the retired
        # REPRO_SIM_REFERENCE variable no longer selects anything.
        monkeypatch.setenv("REPRO_SIM_REFERENCE", "1")
        ir = _family_ir("ring", 4, 0)
        topo = generic(ir.num_ranks)
        assert IrSimulator(ir, topo)._resolve_engine() == "batched"
        sim = IrSimulator(ir, topo, None, SimConfig(engine="reference"))
        assert sim._resolve_engine() == "reference"

    def test_unknown_engine_raises(self):
        ir = _family_ir("ring", 4, 0)
        sim = IrSimulator(ir, generic(ir.num_ranks), None,
                          SimConfig(engine="warp"))
        with pytest.raises(SimulationError, match="warp"):
            sim.run(chunk_bytes=64.0 * KiB)


class TestTileCountBasis:
    """Regression: tiles must be sized from span-count bytes.

    ``_tile_count`` used to size tiles from ``chunk_bytes * frac``
    alone while ``_instr_bytes`` scales payloads by span counts, so an
    alltoallv instruction with count > 1 under-tiled and mis-amortized
    alpha.
    """

    def test_variable_counts_tile_against_moved_bytes(self):
        skew = [[1, 2, 1, 3], [2, 1, 4, 1], [1, 1, 1, 1], [3, 2, 1, 2]]
        ones = [[1] * 4 for _ in range(4)]
        chunk = float(SIMPLE.slot_bytes)  # one slot per unit count
        skew_res = IrSimulator(_alltoallv_ir(skew), generic(4)).run(chunk)
        ones_res = IrSimulator(_alltoallv_ir(ones), generic(4)).run(chunk)
        # Uniform counts fill exactly one slot; the skewed matrix's
        # largest instruction moves 4 chunks and must pipeline 4 tiles.
        assert ones_res.tiles == 1
        assert skew_res.tiles == 4

    def test_tile_count_matches_instr_bytes_basis(self):
        skew = [[1, 2, 1, 3], [2, 1, 4, 1], [1, 1, 1, 1], [3, 2, 1, 2]]
        ir = _alltoallv_ir(skew)
        sim = IrSimulator(ir, generic(4))
        chunk = 96.0 * KiB
        largest = max(
            chunk * float(instr.frac_hi - instr.frac_lo)
            * max((span[2] for span in (instr.src, instr.dst)
                   if span is not None), default=0)
            for gpu in ir.gpus for tb in gpu.threadblocks
            for instr in tb.instructions
        )
        expected = min(sim.config.max_tiles,
                       max(1, math.ceil(largest / SIMPLE.slot_bytes)))
        assert sim.run(chunk).tiles == expected

    def test_parity_on_variable_counts(self):
        skew = [[1, 2, 1, 3], [2, 1, 4, 1], [1, 1, 1, 1], [3, 2, 1, 2]]
        _assert_parity(_alltoallv_ir(skew), generic(4), SIMPLE,
                       512.0 * KiB)
