"""Tests for the frozen IR form the compile cache keeps and stores."""

import json

from hypothesis import given, settings

from repro.core import CompilerOptions, compile_program
from repro.core.instructions import Op
from repro.core.ir import (decode_frozen_ir, encode_frozen_ir, expand_ir,
                           freeze_ir)
from tests.conftest import build_ring_allreduce
from tests.test_interop import irs


def _disk_round_trip(frozen):
    """Encode to the disk tier's JSON text and decode it back."""
    text = json.dumps(encode_frozen_ir(frozen), separators=(",", ":"))
    return decode_frozen_ir(json.loads(text))


def _compiled_ir():
    return compile_program(build_ring_allreduce(4, instances=2),
                           CompilerOptions()).ir


class TestRoundTrips:
    @settings(max_examples=60, deadline=None)
    @given(irs())
    def test_expand_and_disk_round_trip_preserve_the_ir(self, ir):
        frozen = freeze_ir(ir)
        decoded = _disk_round_trip(frozen)
        assert decoded == frozen
        for back in (expand_ir(frozen), expand_ir(decoded)):
            assert back.to_dict() == ir.to_dict()
            assert back.to_xml() == ir.to_xml()

    def test_compiled_ir_round_trips(self):
        ir = _compiled_ir()
        frozen = freeze_ir(ir)
        assert expand_ir(frozen) == ir
        assert expand_ir(_disk_round_trip(frozen)) == ir


class TestSharing:
    def test_expansions_own_containers_and_share_leaves(self):
        frozen = freeze_ir(_compiled_ir())
        first, second = expand_ir(frozen), expand_ir(frozen)
        assert first.gpus is not second.gpus
        gpu_a, gpu_b = first.gpus[0], second.gpus[0]
        assert gpu_a.threadblocks is not gpu_b.threadblocks
        tb_a, tb_b = gpu_a.threadblocks[0], gpu_b.threadblocks[0]
        assert tb_a.instructions is not tb_b.instructions
        for a, b in zip(tb_a.instructions, tb_b.instructions):
            assert a is not b
            assert a.depends is not b.depends
            assert a.depends == b.depends
            for leaf in ("src", "dst", "frac_lo", "frac_hi", "lineage"):
                assert getattr(a, leaf) is getattr(b, leaf)

    def test_decoding_shares_fractions_and_lineages(self):
        frozen = freeze_ir(_compiled_ir())
        decoded = _disk_round_trip(frozen)
        rows = [row for gpu in decoded[5] for tb in gpu[4]
                for row in tb[4]]
        fractions, lineages, origins = {}, {}, {}
        for row in rows:
            for value in (row[5], row[6]):
                assert fractions.setdefault(value, value) is value
            lineage = row[10]
            if lineage is None:
                continue
            assert lineages.setdefault(lineage, lineage) is lineage
            for origin in lineage:
                assert origins.setdefault(origin, origin) is origin
        assert len(lineages) < sum(row[10] is not None for row in rows)

    def test_disk_rows_are_flat_json_values(self):
        doc = encode_frozen_ir(freeze_ir(_compiled_ir()))
        row = doc[5][0][4][0][4][0]
        assert len(row) == 13
        assert row[1] in {op.value for op in Op}
        assert not any(isinstance(value, dict) for value in row)
