"""Deterministic fault injection, checkpointing, and recovery.

The subsystem has three parts: declarative :class:`FaultPlan` schedules
(:mod:`repro.faults.plan`), the per-cluster :class:`FaultInjector` hooks
(:mod:`repro.faults.injector`), and round-granularity checkpoint/restore
(:mod:`repro.faults.checkpoint`), which the BSP engine's plan loop
(:meth:`repro.exec.engine.BSPEngine.drive`) takes and replays at round
boundaries. All randomness routes through
:mod:`repro.faults.rng`, so a plan + seed fully determines every injected
fault and the resulting trace bytes.
"""

from repro.faults.checkpoint import Checkpoint, CheckpointManager
from repro.faults.injector import FaultInjector, HostCrashError, install_faults
from repro.faults.plan import (
    NAMED_PLANS,
    FaultPlan,
    HostCrash,
    KvTimeouts,
    MessageFlake,
    Straggler,
    named_plan,
)
from repro.faults.rng import stream_rng, stream_seed, stream_uniform

__all__ = [
    "NAMED_PLANS",
    "Checkpoint",
    "CheckpointManager",
    "FaultInjector",
    "FaultPlan",
    "HostCrash",
    "HostCrashError",
    "KvTimeouts",
    "MessageFlake",
    "Straggler",
    "install_faults",
    "named_plan",
    "stream_rng",
    "stream_seed",
    "stream_uniform",
]
