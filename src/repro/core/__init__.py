"""The MSCCLang core: DSL, compiler, MSCCL-IR, and verification.

Typical use::

    from repro.core import (
        MSCCLProgram, AllReduce, chunk, parallelize, compile_program,
    )

    coll = AllReduce(num_ranks=8, chunk_factor=8, in_place=True)
    with MSCCLProgram("ring", coll, protocol="LL") as prog:
        ...  # chunk(...).copy(...) / .reduce(...)
    ir = compile_program(prog)
"""

from .buffers import Buffer, as_buffer
from .chunk import (
    InputChunk,
    ReductionChunk,
    UNINITIALIZED,
    Uninitialized,
    allreduce_result,
)
from .collectives import (
    AllGather,
    AllReduce,
    AllToAll,
    AllToAllV,
    AllToNext,
    Broadcast,
    Collective,
    Custom,
    Gather,
    Reduce,
    ReduceScatter,
    Scatter,
)
from .cache import (CompileCache, DiskCacheTier, default_compile_cache,
                    program_digest, reset_default_compile_cache)
from .compiler import CompiledAlgorithm, CompilerOptions, compile_program
from .dag import ChunkDAG, ChunkOp
from .directives import parallelize
from .errors import (
    BuildError,
    ConformanceError,
    DeadlockError,
    MscclError,
    PassValidationError,
    ProgramError,
    RuntimeConfigError,
    SchedulingError,
    SimulationError,
    StaleReferenceError,
    UninitializedChunkError,
    VerificationError,
    XmlImportError,
)
from .fusion import fuse
from .instructions import Instruction, InstructionDAG, Op
from .interop import (collective_from_name, import_xml, import_xml_file,
                      infer_collective, resolve_collective, trace_ir)
from .ir import GpuProgram, IrInstruction, MscclIr, ThreadBlock
from .lowering import lower
from .passes import ir_stats, prune_redundant_deps, renumber_channels
from .pipeline import (
    CompileState,
    DefaultSchedulerPolicy,
    Pass,
    PassPipeline,
    SchedulerPolicy,
    default_pipeline,
)
from .program import MSCCLProgram, chunk, current_program
from .refs import ChunkRef
from .scheduling import schedule
from .verification import audit_ir, check_postcondition, dependence_edges
from .visualize import chunk_dag_dot, describe_ir, instruction_dag_dot, ir_dot

__all__ = [
    "AllGather",
    "AllReduce",
    "AllToAll",
    "AllToAllV",
    "AllToNext",
    "Broadcast",
    "Buffer",
    "BuildError",
    "ChunkDAG",
    "ChunkOp",
    "ChunkRef",
    "Collective",
    "Gather",
    "CompileCache",
    "DiskCacheTier",
    "reset_default_compile_cache",
    "CompileState",
    "CompiledAlgorithm",
    "CompilerOptions",
    "Custom",
    "ConformanceError",
    "DeadlockError",
    "DefaultSchedulerPolicy",
    "GpuProgram",
    "InputChunk",
    "Instruction",
    "InstructionDAG",
    "IrInstruction",
    "MSCCLProgram",
    "MscclError",
    "MscclIr",
    "Op",
    "Pass",
    "PassPipeline",
    "PassValidationError",
    "ProgramError",
    "Reduce",
    "ReduceScatter",
    "Scatter",
    "ReductionChunk",
    "RuntimeConfigError",
    "SchedulerPolicy",
    "SchedulingError",
    "SimulationError",
    "StaleReferenceError",
    "ThreadBlock",
    "UNINITIALIZED",
    "Uninitialized",
    "UninitializedChunkError",
    "VerificationError",
    "XmlImportError",
    "allreduce_result",
    "as_buffer",
    "audit_ir",
    "check_postcondition",
    "collective_from_name",
    "dependence_edges",
    "import_xml",
    "import_xml_file",
    "infer_collective",
    "resolve_collective",
    "trace_ir",
    "chunk_dag_dot",
    "describe_ir",
    "instruction_dag_dot",
    "ir_dot",
    "chunk",
    "compile_program",
    "current_program",
    "default_compile_cache",
    "default_pipeline",
    "fuse",
    "lower",
    "program_digest",
    "ir_stats",
    "prune_redundant_deps",
    "renumber_channels",
    "parallelize",
    "schedule",
]
