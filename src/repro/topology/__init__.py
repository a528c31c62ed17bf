"""Cluster topology models and hardware presets."""

from .dgx1_mesh import DGX1_LINKS, Dgx1MeshTopology, dgx1_mesh
from .model import GB, MachineSpec, Resource, Topology
from .presets import (DGX1_V100, DGX2_V100, NDV4_A100, PRESETS, dgx1,
                      dgx2, generic, ndv4)

__all__ = [
    "DGX1_LINKS",
    "DGX1_V100",
    "Dgx1MeshTopology",
    "dgx1_mesh",
    "DGX2_V100",
    "GB",
    "MachineSpec",
    "NDV4_A100",
    "PRESETS",
    "Resource",
    "Topology",
    "dgx1",
    "dgx2",
    "generic",
    "ndv4",
]
