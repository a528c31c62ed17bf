"""Golden digests of compiled MSCCL-IR XML.

Each entry pins the SHA-256 of a cold compile's ``to_xml()`` with every
pass of the default pipeline on (``optimize=True``). The first fifteen
are the compile-zoo benchmark's catalog draw; the last two mix
whole-program ``instances`` with a ``parallelize`` factor, so lowering
has to intersect instance ranges of different widths (1/3 against 1/6,
1/2 against 1/8). A change to lowering, fusion or scheduling that moves
a single byte of emitted XML fails here.
"""

import argparse
import hashlib

import pytest

from repro.algorithms import hierarchical_allreduce
from repro.core import CompilerOptions, compile_program
from repro.tools.cli import ALGORITHMS


def _catalog(name, ranks, nodes, instances, protocol):
    args = argparse.Namespace(ranks=ranks, nodes=nodes, channels=1,
                              instances=instances, protocol=protocol)
    return lambda: ALGORITHMS[name](args)


# (label, builder, sha256 of to_xml()).
GOLDEN = [
    ("ring_allreduce/16r/2i/LL",
     _catalog("ring_allreduce", 16, 1, 2, "LL"),
     "b21429594aeb3ce4a23b37e882b609c74c63b369e62bde18e4ac3f35bc1e6252"),
    ("allpairs_allreduce/8r/2i/LL128",
     _catalog("allpairs_allreduce", 8, 1, 2, "LL128"),
     "3990649e82bb8d2f77c32797b60ba5762a9553e2509644d1cdc41ce4908dbceb"),
    ("hierarchical_allreduce/32r/1i/Simple",
     _catalog("hierarchical_allreduce", 32, 4, 1, "Simple"),
     "d5cc2bc90c5e9c8c61984a038486a0f719f5f59a48c7cea8de1f3951818c6503"),
    ("rhd_allreduce/16r/2i/LL128",
     _catalog("rhd_allreduce", 16, 1, 2, "LL128"),
     "db88e40c5a83d08c2c55c9643d298364b71343aaa66d2ea467e24285d7fe4466"),
    ("double_tree_allreduce/64r/1i/Simple",
     _catalog("double_tree_allreduce", 64, 1, 1, "Simple"),
     "328f655b2d7a17afbef95a45c581d6416b1bc999bd8d616eef86f6b9aa33de43"),
    ("twostep_alltoall/16r/4i/LL",
     _catalog("twostep_alltoall", 16, 2, 4, "LL"),
     "51663158dd28d0f690c7424bfa6f3b0f3151c2b061d1bd87bd4a4a9edb6db0f1"),
    ("hierarchical_alltoall/16r/1i/Simple",
     _catalog("hierarchical_alltoall", 16, 2, 1, "Simple"),
     "af741c23cc3eec5b242faec3c2c67aa045a78d141d9c808568b84b2deff7d108"),
    ("naive_alltoall/32r/1i/LL128",
     _catalog("naive_alltoall", 32, 4, 1, "LL128"),
     "ac3752012b7e8ab265cce1689aa3541115357910e76f03c11c903a3258d27f49"),
    ("alltonext/64r/2i/LL",
     _catalog("alltonext", 64, 8, 2, "LL"),
     "ce18d9744af328ba437e894e1e20ec8df69463815a1d8a5b1e650a84ccd8c29f"),
    ("ring_allgather/32r/1i/Simple",
     _catalog("ring_allgather", 32, 1, 1, "Simple"),
     "63ebd64a37b17299103c702bb24c1be21238f9fc4002145e1b53fe2d60f098c2"),
    ("rd_allgather/16r/4i/LL",
     _catalog("rd_allgather", 16, 1, 4, "LL"),
     "1985ac5454249a11d0bad8ae43efdc611ff3db57d2a463d9bfd549bf3b528590"),
    ("ring_reducescatter/16r/2i/LL128",
     _catalog("ring_reducescatter", 16, 1, 2, "LL128"),
     "2b1ac13aa591cf013b15d3856d0f05ee7262542c9a046532a190681716dbb1c5"),
    ("sccl_allgather/16r/2i/Simple",
     _catalog("sccl_allgather", 16, 1, 2, "Simple"),
     "ffcaf481b63d7f7f0f77c00feb172184e88c37dd6a91454090f18b70678b787a"),
    ("chain_broadcast/64r/4i/LL128",
     _catalog("chain_broadcast", 64, 1, 4, "LL128"),
     "5cdbf1883e10cfe3139ec26473c98a284e23f6e28404cb9e2da56148fe6def1b"),
    ("tree_broadcast/64r/4i/LL",
     _catalog("tree_broadcast", 64, 1, 4, "LL"),
     "79343d40be896463a348f6116c815d2f68d852091fe93538313c8632a5942312"),
    ("hierarchical_allreduce/2x4/3i/intra2",
     lambda: hierarchical_allreduce(2, 4, instances=3, intra_parallel=2),
     "1d8878da4444b6a18bd7a13203fa53c52468495d1828447cfb548b574aac0638"),
    ("hierarchical_allreduce/2x4/2i/intra4",
     lambda: hierarchical_allreduce(2, 4, instances=2, intra_parallel=4),
     "f6e3602102c9205f8a479a6cee63eadca827ac764e2273334f154c5aeaeb87c1"),
]


@pytest.mark.parametrize("builder,digest",
                         [(b, d) for _, b, d in GOLDEN],
                         ids=[label for label, _, _ in GOLDEN])
def test_compiled_xml_is_pinned(builder, digest):
    algo = compile_program(builder(), CompilerOptions(optimize=True))
    xml = algo.ir.to_xml().encode()
    assert hashlib.sha256(xml).hexdigest() == digest
