"""Log pricing: one array pass, bit-identical to the per-phase oracle.

``CostModel.time_totals`` prices a whole ``MetricsLog`` over its block
and tag columns; ``CostModel.phase_time`` prices one row view
(``PhaseRecord``) and is the oracle. The two must agree in
``float.hex()`` - per kind and in total,
for every phase kind, slowdown rows, traffic, integer and non-integer
weights - and that value must not depend on the interpreter: builtin
``sum()`` is compensated from Python 3.12 on, so every float fold here is
an explicit left fold and a fixed log's hex digits are pinned (the
pricing table of ``tests/pins.py``).
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import CostModel, ModeledTime
from repro.cluster.metrics import (
    COUNTER_FIELDS,
    TRAFFIC_FIELDS,
    Counters,
    MetricsLog,
    PhaseKind,
)
from repro.eval.harness import run_kimbap
from repro.faults import named_plan
from repro.graph import generators
from tests.pins import PRICING, PinTable

ZERO = ModeledTime(0.0, 0.0)


def oracle(model: CostModel, log: MetricsLog, threads: int):
    """The left fold of ``phase_time`` in log order, in total and by kind."""
    total, by_kind = ZERO, {}
    for phase in log.phases:
        priced = model.phase_time(phase, threads)
        total = total + priced
        by_kind[phase.kind] = by_kind.get(phase.kind, ZERO) + priced
    return total, by_kind


def hexed(time: ModeledTime) -> tuple[str, str]:
    return time.computation.hex(), time.communication.hex()


def assert_priced_like_the_oracle(model: CostModel, log: MetricsLog, threads: int):
    total, by_kind = model.time_totals(log, threads)
    want_total, want_by_kind = oracle(model, log, threads)
    assert hexed(total) == hexed(want_total)
    assert list(by_kind) == list(want_by_kind)  # first-appearance order
    for kind, want in want_by_kind.items():
        assert hexed(by_kind[kind]) == hexed(want)
    assert hexed(model.time(log, threads)) == hexed(total)
    assert {
        kind: hexed(time) for kind, time in model.time_by_kind(log, threads).items()
    } == {kind: hexed(time) for kind, time in by_kind.items()}


def assert_totalled_like_the_fold(log: MetricsLog):
    want = Counters()
    for phase in log.phases:
        for counters in phase.counters:
            want.add(counters)
    got = log.total_counters().as_dict()
    assert got == want.as_dict()
    assert all(type(value) is int for value in got.values())  # serialized


# ------------------------------------------------------------- strategies

COUNTS = st.one_of(
    st.just(0),
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=2**40, max_value=2**56),
)
WEIGHTS = st.one_of(
    st.just(0.0),
    st.integers(min_value=1, max_value=40).map(float),
    st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
)


def draw_phase(draw, log: MetricsLog) -> None:
    """Start one drawn phase in ``log`` and write its cells."""
    kind = draw(st.sampled_from(list(PhaseKind)))
    parallel = False if kind is PhaseKind.SERIAL else draw(st.booleans())
    record = log.start_phase(kind, parallel)
    for counters in record.counters:
        for name in draw(st.sets(st.sampled_from(COUNTER_FIELDS), max_size=5)):
            setattr(counters, name, draw(COUNTS))
    if draw(st.booleans()):
        for column in TRAFFIC_FIELDS:
            for counters in record.counters:
                setattr(counters, column, draw(COUNTS))
    if draw(st.booleans()):
        record.slowdown = [
            draw(st.sampled_from([1.0, 1.5, 3.0, 7.25])) for _ in range(log.num_hosts)
        ]


@st.composite
def logs(draw) -> MetricsLog:
    log = MetricsLog(draw(st.integers(min_value=1, max_value=4)))
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        draw_phase(draw, log)
    return log


@st.composite
def cost_models(draw) -> CostModel:
    if draw(st.booleans()):
        return CostModel()
    return CostModel(
        seconds_per_unit=draw(st.floats(min_value=1e-6, max_value=1e-2)),
        alpha=draw(st.floats(min_value=0.0, max_value=1e-2)),
        beta=draw(st.floats(min_value=0.0, max_value=1e-4)),
        weights={name: draw(WEIGHTS) for name in COUNTER_FIELDS},
    )


class TestOnePassPricing:
    @settings(max_examples=150, deadline=None)
    @given(
        log=logs(), model=cost_models(), threads=st.integers(min_value=1, max_value=48)
    )
    def test_time_totals_is_the_left_fold_of_phase_time(self, log, model, threads):
        assert_priced_like_the_oracle(model, log, threads)
        assert_totalled_like_the_fold(log)

    @settings(max_examples=60, deadline=None)
    @given(log=logs(), model=cost_models(), data=st.data())
    def test_a_changed_log_is_re_priced_not_served_stale(self, log, model, data):
        """Append after a first report, then write into the still-open
        last phase."""
        assert_priced_like_the_oracle(model, log, 8)
        for _ in range(data.draw(st.integers(min_value=0, max_value=5))):
            draw_phase(data.draw, log)
        assert_priced_like_the_oracle(model, log, 8)
        assert_totalled_like_the_fold(log)
        log.start_phase(PhaseKind.REDUCE_COMPUTE)
        assert_priced_like_the_oracle(model, log, 8)
        log.open.counters[0].edge_iters += 12345
        log.open.counters[0].msgs_sent += 3
        assert_priced_like_the_oracle(model, log, 8)
        assert_totalled_like_the_fold(log)

    def test_empty_and_one_phase_logs(self):
        model = CostModel()
        empty = MetricsLog(3)
        assert model.time_totals(empty, 4) == (ZERO, {})
        assert empty.total_counters() == Counters()
        one = MetricsLog(3)
        one.start_phase(PhaseKind.ASYNC_COMPUTE).counters[1].reduce_calls = 7
        assert_priced_like_the_oracle(model, one, 4)
        assert_totalled_like_the_fold(one)

    def test_a_real_run_under_rollback_and_stragglers(self):
        """The chaos plan crashes a host (recovered from the checkpoint)
        and slows one down (``slowdown`` rows)."""
        graph = generators.road_like(6, 4, seed=2)
        plan = named_plan("chaos", seed=1, hosts=4, crash_round=2, checkpoint_interval=2)
        run = run_kimbap("CC-LP", "road", 4, graph=graph, fault_plan=plan)
        cluster = run.cluster
        assert any(phase.slowdown is not None for phase in cluster.log.phases)
        assert any(phase.kind is PhaseKind.RECOVERY for phase in cluster.log.phases)
        assert_priced_like_the_oracle(
            cluster.cost_model, cluster.log, cluster.threads_per_host
        )
        assert_totalled_like_the_fold(cluster.log)
        assert hexed(run.time) == hexed(cluster.elapsed())


# --------------------------------------------- interpreter independence

# Non-integer weights make the order of float additions visible in the
# last bit: a compensated sum (builtin ``sum`` on Python >= 3.12,
# ``math.fsum``) and a left fold disagree on some of these rows.
FRACTIONAL = CostModel(
    seconds_per_unit=2.3e-4,
    alpha=3.1e-4,
    beta=4.7e-6,
    weights={
        name: 0.0 if name.startswith("reads_") else 0.1 + 0.37 * index
        for index, name in enumerate(COUNTER_FIELDS)
    },
)


def fixed_log() -> MetricsLog:
    rng = random.Random(22)
    log = MetricsLog(3)
    kinds = list(PhaseKind)
    for index in range(12):
        kind = kinds[index % len(kinds)]
        record = log.start_phase(kind, parallel=kind is not PhaseKind.SERIAL)
        for counters in record.counters:
            for name in COUNTER_FIELDS:
                setattr(counters, name, rng.randrange(10**6))
        if index % 3 == 0:
            for counters, sent in zip(record.counters, [rng.randrange(500) for _ in range(3)]):
                counters.msgs_sent = sent
            for counters, received in zip(
                record.counters, [rng.randrange(10**5) for _ in range(3)]
            ):
                counters.bytes_recv = received
        if index % 4 == 1:
            record.slowdown = [1.0, 2.5, 1.0]
    return log


def _pricing_pin() -> dict:
    log = fixed_log()
    return {
        "units": [FRACTIONAL.units(c).hex() for phase in log.phases for c in phase.counters],
        "phase_time": [list(hexed(FRACTIONAL.phase_time(phase, 7))) for phase in log.phases],
        "time_totals": list(hexed(FRACTIONAL.time_totals(log, 7)[0])),
    }


PINS = PinTable(PRICING, {"FRACTIONAL/fixed_log/7": ()}, _pricing_pin)


class TestPricingIsInterpreterIndependent:
    def test_units_phase_time_and_time_totals_are_pinned(self):
        PINS.check("FRACTIONAL/fixed_log/7")
        assert_priced_like_the_oracle(FRACTIONAL, fixed_log(), 7)

    def test_the_pricing_table_covers_exactly_its_cell(self):
        PINS.check_coverage()

    def test_the_pinned_rows_are_order_sensitive(self):
        """The pin has teeth: on some rows a compensated sum of the same
        terms differs from the left fold ``units`` must be."""
        log = fixed_log()
        differing = sum(
            FRACTIONAL.units(counters)
            != math.fsum(
                FRACTIONAL.weights[name] * getattr(counters, name)
                for name in COUNTER_FIELDS
            )
            for phase in log.phases
            for counters in phase.counters
        )
        assert differing >= 5
