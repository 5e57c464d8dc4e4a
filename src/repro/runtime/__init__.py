"""Runtime substrate: the tree-walking IR interpreter (reference
semantics), the closure-compiled engine (production path), the parallel
engine over the persistent worker fabric, the dynamic independence
oracle, and the modeled machine (Figure 10)."""

from repro.runtime.compiler import (
    CompiledFunction,
    RunStats,
    TraceBuffer,
    compile_function,
    run_compiled,
)
from repro.runtime.engines import (
    DEFAULT_ENGINE,
    ENGINES,
    default_engine,
    execute,
    resolve_engine,
)
from repro.runtime.fabric import fabric_stats, shutdown_fabric
from repro.runtime.inspector import (
    InspectionResult,
    InspectorPlan,
    inspect,
    inspector_stats,
    lower_inspector,
)
from repro.runtime.interpreter import Interpreter, run_function
from repro.runtime.oracle import Conflict, OracleReport, check_loop_independence
from repro.runtime.parallel import (
    TIERS,
    ParallelFunction,
    compile_parallel,
    default_workers,
    run_parallel,
    schedules_for,
)
from repro.runtime.perf_model import (
    CgWork,
    MachineModel,
    ModeledPoint,
    cg_time,
    characterize,
    figure10_model,
    speedup_series,
)

__all__ = [
    "CgWork",
    "CompiledFunction",
    "Conflict",
    "DEFAULT_ENGINE",
    "ENGINES",
    "InspectionResult",
    "InspectorPlan",
    "Interpreter",
    "MachineModel",
    "ModeledPoint",
    "OracleReport",
    "ParallelFunction",
    "RunStats",
    "TIERS",
    "TraceBuffer",
    "cg_time",
    "characterize",
    "check_loop_independence",
    "compile_function",
    "compile_parallel",
    "default_engine",
    "default_workers",
    "execute",
    "fabric_stats",
    "figure10_model",
    "inspect",
    "inspector_stats",
    "lower_inspector",
    "resolve_engine",
    "run_compiled",
    "run_function",
    "run_parallel",
    "schedules_for",
    "shutdown_fabric",
    "speedup_series",
]
