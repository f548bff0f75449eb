"""The recoverable round loop: one driver for every BSP iteration loop.

``run_recoverable_loop`` is the common skeleton behind ``kimbap_while``
(quiescence-driven) and tolerance-driven loops like PageRank's. Without a
fault injector on the cluster it is exactly the legacy loop - same call
order, no extra phases, zero overhead. With an injector it additionally:

* takes an entry checkpoint before the first round (so any crash is
  recoverable) and periodic checkpoints every ``checkpoint_interval``
  completed rounds;
* polls the injector at each round boundary; on an injected crash it
  opens a ``recovery`` phase, restores every registered map (plus any
  loop-private state captured by ``extra_snapshot``/``extra_restore``),
  rolls the round counter back, and replays.

Replay determinism is the contract: the round body must be a pure
function of the registered maps plus the captured extra state, which is
what makes post-recovery values identical to a fault-free run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from repro.faults.checkpoint import CheckpointManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import Cluster
    from repro.core.propmap import NodePropMap


def run_recoverable_loop(
    cluster: "Cluster",
    maps: Sequence["NodePropMap"],
    round_body: Callable[[], None],
    *,
    converged: Callable[[], bool],
    before_round: Callable[[], None] | None = None,
    max_rounds: int = 100000,
    advance_rounds: bool = True,
    extra_snapshot: Callable[[], object] | None = None,
    extra_restore: Callable[[object], None] | None = None,
    on_max_rounds: Callable[[int], Exception] | None = None,
) -> int:
    """Run ``round_body`` until ``converged()``; returns completed rounds.

    ``before_round`` runs first each round (e.g. ``reset_updated``);
    ``advance_rounds`` stamps phases with BSP round ids via
    ``cluster.advance_round()`` (loops that historically attribute all
    phases to round 0, like PageRank's, pass False). At ``max_rounds``
    the loop raises ``on_max_rounds(rounds)`` if given, else returns.
    """
    if max_rounds <= 0:
        return 0
    injector = cluster.faults
    manager: CheckpointManager | None = None
    if injector is not None and (
        injector.plan.crashes or injector.plan.checkpoint_interval > 0
    ):
        manager = CheckpointManager(
            cluster,
            maps,
            injector,
            extra_snapshot=extra_snapshot,
            extra_restore=extra_restore,
        )
        # Entry checkpoint: a crash before the first periodic checkpoint
        # must still be recoverable (GraphLab snapshots at start of run).
        manager.take(0)
    rounds = 0
    while True:
        if before_round is not None:
            before_round()
        if advance_rounds:
            cluster.advance_round()
        if manager is not None:
            round_id = cluster.current_round if advance_rounds else rounds + 1
            crash = injector.crash_at(round_id)
            if crash is not None:
                # The state mutated since the last boundary (before_round)
                # is discarded by the restore; replay re-runs it.
                rounds = manager.recover(crash)
                continue
        round_body()
        rounds += 1
        if converged():
            return rounds
        if rounds >= max_rounds:
            if on_max_rounds is not None:
                raise on_max_rounds(rounds)
            return rounds
        if manager is not None and manager.due(rounds):
            manager.take(rounds)
