"""Hardware presets for the systems the paper evaluates on (section 7).

Numbers come from public specifications and NCCL microbenchmark
folklore; the simulator's purpose is *relative* behaviour, so what
matters is the ratios (NVLink vs IB bandwidth, alpha vs beta, a single
thread block's copy rate vs a link).

* **NDv4** (Azure ND A100 v4): 8 A100s, 12 NVLink3 each (600 GB/s
  bidirectional = 300 GB/s each direction), each GPU effectively owning
  one HDR InfiniBand NIC at 25 GB/s through a shared PCIe switch.
* **DGX-2**: 16 V100s over NVSwitch (6 NVLink2 = 150 GB/s per
  direction), one 25 GB/s HDR NIC per GPU pair.
* **DGX-1**: 8 V100s in a hybrid cube mesh; modeled with the same
  per-GPU NVLink budget (used for the SCCL comparison, Figure 11).
"""

from __future__ import annotations

from typing import Callable, Dict

from .model import MachineSpec, Topology

NDV4_A100 = MachineSpec(
    name="NDv4-A100",
    gpus_per_node=8,
    sm_count=108,
    nvlink_bandwidth=300.0,
    nvlink_alpha=0.8,
    ib_bandwidth=25.0,
    ib_alpha=4.5,
    gpus_per_nic=1,
    ib_message_overhead=3.0,
    threadblock_bandwidth=22.0,
    reduce_bandwidth=16.0,
    kernel_launch_overhead=9.0,
)

DGX2_V100 = MachineSpec(
    name="DGX2-V100",
    gpus_per_node=16,
    sm_count=80,
    nvlink_bandwidth=150.0,
    nvlink_alpha=1.0,
    ib_bandwidth=25.0,
    ib_alpha=5.0,
    gpus_per_nic=2,
    ib_message_overhead=3.0,
    threadblock_bandwidth=18.0,
    reduce_bandwidth=13.0,
    kernel_launch_overhead=10.0,
)

DGX1_V100 = MachineSpec(
    name="DGX1-V100",
    gpus_per_node=8,
    sm_count=80,
    nvlink_bandwidth=150.0,
    nvlink_alpha=1.0,
    ib_bandwidth=12.5,
    ib_alpha=5.0,
    gpus_per_nic=2,
    ib_message_overhead=3.0,
    threadblock_bandwidth=18.0,
    reduce_bandwidth=13.0,
    kernel_launch_overhead=10.0,
)


def ndv4(num_nodes: int = 1) -> Topology:
    """Azure ND A100 v4 cluster (8 A100 GPUs per node)."""
    return Topology(NDV4_A100, num_nodes)


def dgx2(num_nodes: int = 1) -> Topology:
    """NVIDIA DGX-2 cluster (16 V100 GPUs per node)."""
    return Topology(DGX2_V100, num_nodes)


def dgx1(num_nodes: int = 1) -> Topology:
    """NVIDIA DGX-1 cluster (8 V100 GPUs per node)."""
    return Topology(DGX1_V100, num_nodes)


# Every named preset, by the name the CLI and the plan service accept.
PRESETS: Dict[str, Callable[[int], Topology]] = {
    "ndv4": ndv4,
    "dgx2": dgx2,
    "dgx1": dgx1,
}


def generic(gpus_per_node: int, num_nodes: int = 1, *,
            nvlink_bandwidth: float = 200.0,
            ib_bandwidth: float = 25.0) -> Topology:
    """A configurable machine for tests and what-if experiments."""
    spec = MachineSpec(
        name=f"generic-{gpus_per_node}gpu",
        gpus_per_node=gpus_per_node,
        sm_count=108,
        nvlink_bandwidth=nvlink_bandwidth,
        nvlink_alpha=0.9,
        ib_bandwidth=ib_bandwidth,
        ib_alpha=5.0,
        gpus_per_nic=1,
        ib_message_overhead=3.0,
        threadblock_bandwidth=20.0,
        reduce_bandwidth=14.0,
        kernel_launch_overhead=10.0,
    )
    return Topology(spec, num_nodes)
