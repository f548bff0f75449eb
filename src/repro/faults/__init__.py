"""Deterministic fault injection, checkpointing, and recovery.

The subsystem has four parts: declarative :class:`FaultPlan` schedules
(:mod:`repro.faults.plan`), the per-cluster :class:`FaultInjector` hooks
(:mod:`repro.faults.injector`), round-granularity checkpoint/restore
(:mod:`repro.faults.checkpoint`), and the recoverable loop driver
(:mod:`repro.faults.recovery`). All randomness routes through
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
from repro.faults.recovery import run_recoverable_loop
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
    "run_recoverable_loop",
    "stream_rng",
    "stream_seed",
    "stream_uniform",
]
