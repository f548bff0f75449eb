"""repro.exec: the unified operator-plan execution layer.

Algorithms are written once as declarative :class:`Plan` objects
(operator specs + a loop/convergence driver); a single :class:`Executor`
dispatches each plan to the scalar reference backend or the compiled
bulk backend with byte-identical metrics, and hosts the shared
checkpoint/recovery and trace/profile wiring. The code generation stage
(:mod:`repro.exec.codegen`) lowers each plan to a flat list of prebound
(and on the bulk backend compiled) kernels the per-round loop replays.
"""

from repro.exec.codegen import (
    CompiledOperator,
    CompiledPlan,
    PreparedFrontierPush,
    compile_plan,
)
from repro.exec.engine import (
    ENGINES,
    AsyncEngine,
    BSPEngine,
    Engine,
    UnsupportedPlanError,
    make_engine,
)
from repro.exec.executor import Executor
from repro.exec.plan import (
    PLAN_SCHEMA,
    ActiveFilter,
    CmpFilter,
    apply_value_filter,
    DegreeReduce,
    DstCmpFilter,
    EdgePush,
    HostStep,
    KeyRequest,
    NeighborReduceToKey,
    NodeGather,
    NodeUpdate,
    Operator,
    OperatorStep,
    Plan,
    ResetStep,
    ResidualDecl,
    ScalarKernel,
    SyncStep,
    filter_summary,
    format_plan_summary,
    operator_summary,
    plan_summary,
)

__all__ = [
    "CompiledOperator",
    "CompiledPlan",
    "Executor",
    "PreparedFrontierPush",
    "compile_plan",
    "ENGINES",
    "AsyncEngine",
    "BSPEngine",
    "Engine",
    "UnsupportedPlanError",
    "make_engine",
    "PLAN_SCHEMA",
    "ResidualDecl",
    "ActiveFilter",
    "CmpFilter",
    "apply_value_filter",
    "DstCmpFilter",
    "filter_summary",
    "DegreeReduce",
    "EdgePush",
    "HostStep",
    "KeyRequest",
    "NeighborReduceToKey",
    "NodeGather",
    "NodeUpdate",
    "Operator",
    "OperatorStep",
    "Plan",
    "ResetStep",
    "ScalarKernel",
    "SyncStep",
    "format_plan_summary",
    "operator_summary",
    "plan_summary",
]
