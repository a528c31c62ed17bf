"""The MSCCLang runtime substitute: protocols, simulator, executor."""

from .api import CallRecord, Communicator
from .events import EventLoop, Signal
from .executor import FaultPlan, IrExecutor, PopEvent
from .plans import Plan, PlanTable, chunk_bytes_for
from .profile import (
    TbProfile,
    critical_path,
    profile_threadblocks,
    slowest_threadblocks,
    timeline,
    utilization_report,
)
from .protocols import (LL, LL128, PROTOCOLS, SIMPLE, SIMPLE_DIRECT,
                        Protocol, get_protocol)
from .simulator import (IrSimulator, SimConfig, SimResult, TraceEntry,
                        happens_before_pairs)

__all__ = [
    "CallRecord",
    "Communicator",
    "EventLoop",
    "FaultPlan",
    "IrExecutor",
    "IrSimulator",
    "LL",
    "LL128",
    "PROTOCOLS",
    "Plan",
    "PlanTable",
    "PopEvent",
    "Protocol",
    "SIMPLE",
    "SIMPLE_DIRECT",
    "SimConfig",
    "SimResult",
    "Signal",
    "TbProfile",
    "TraceEntry",
    "critical_path",
    "profile_threadblocks",
    "slowest_threadblocks",
    "timeline",
    "utilization_report",
    "chunk_bytes_for",
    "get_protocol",
    "happens_before_pairs",
]
