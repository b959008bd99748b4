"""Execution core: distributed tables, activation messages, semantics.

The core implements the paper's three knowledge-base tables (Fig. 4),
the 64-bit activation-message wire format (§III-B), and the instruction
semantics shared by the untimed functional engine and the timed
machine simulator.
"""

from .tables import (
    ClusterTables,
    MACHINE_NODE_CAPACITY,
    MarkerStatusTable,
    NodeTable,
    RelationEntry,
    RelationTable,
    TableError,
    WORD_BITS,
    build_tables,
)
from .activation import (
    ActivationMessage,
    FIELD_WIDTHS,
    MESSAGE_BITS,
    MESSAGE_BYTES,
    MessageError,
    from_bfloat16_bits,
    from_bytes,
    to_bfloat16_bits,
    unpack,
)
from .state import (
    Arrival,
    ExecutionError,
    MachineState,
    PropagationContext,
    WorkReport,
)
from .backends import (
    BACKENDS,
    PropagationBackend,
    PropagationOutcome,
    PythonBackend,
    VectorizedBackend,
    get_default_backend,
    make_backend,
    set_default_backend,
)
from .engine import (
    ExecutionRecord,
    FunctionalEngine,
    RunResult,
    run_program,
)

__all__ = [
    "BACKENDS", "PropagationBackend", "PropagationOutcome",
    "PythonBackend", "VectorizedBackend", "get_default_backend",
    "make_backend", "set_default_backend",
    "ClusterTables", "MACHINE_NODE_CAPACITY",
    "MarkerStatusTable", "NodeTable", "RelationEntry", "RelationTable",
    "TableError", "WORD_BITS", "build_tables",
    "ActivationMessage", "FIELD_WIDTHS", "MESSAGE_BITS", "MESSAGE_BYTES",
    "MessageError", "from_bfloat16_bits", "from_bytes",
    "to_bfloat16_bits", "unpack",
    "Arrival", "ExecutionError", "MachineState", "PropagationContext",
    "WorkReport",
    "ExecutionRecord", "FunctionalEngine", "RunResult", "run_program",
]
