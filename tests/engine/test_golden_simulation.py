"""Simulated runs pinned bit for bit.

Three scenarios run ROD, DYN and RLD and compare sha256 digests of each
report's ``to_dict()`` and ``produced_timeline()`` and the loop's
processed-event count against ``tests/golden/simulate_reports.json``:

* ``q1_faults``: ``repro simulate`` at its defaults (q1, four nodes of
  380, level 3, seed 17) with the benchmark's fixed crash and slowdown
  schedule, cut to a horizon holding the first crash and slowdown.
* ``network_chaos``: q1 with a network model, partition, degrade,
  monitor-dropout and crash faults and a full ``SimulationTrace``
  (digested too), so transfers, drops, stalls and redispatch are pinned.
* ``sine``: a smooth sine selectivity profile and a step rate profile.

Regenerate the file (only when a simulated result is meant to move) with
``PYTHONPATH=src python tests/engine/test_golden_simulation.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.core import Cluster, RLDConfig, RLDOptimizer
from repro.core.rld import RLDSolution
from repro.engine import NetworkModel, SimulationTrace, StreamSimulator
from repro.engine.faults import FaultSchedule
from repro.query.model import Query
from repro.query.statistics import StatisticsEstimate
from repro.runtime.comparison import build_standard_strategies
from repro.workloads import (
    RegimeSwitchSelectivity,
    StepRate,
    Workload,
    build_q1,
    stock_workload,
)

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "simulate_reports.json"

STRATEGIES = ("ROD", "DYN", "RLD")
CLUSTER = Cluster.homogeneous(4, 380.0)

#: The benchmark's fixed crash/slowdown schedule (``perfbench``'s
#: ``simulate-q1``); the horizon below keeps its first crash and slowdown.
BENCH_FAULTS = (
    "crash@3060:node=1:for=30,"
    "slowdown@7000:node=2:factor=0.5:for=40,"
    "crash@12060:node=3:for=20,"
    "slowdown@16000:node=0:factor=0.6:for=30,"
    "crash@18060:node=2:for=40"
)
BENCH_HORIZON = 7200.0

CHAOS_FAULTS = (
    "partition@40:for=15,"
    "degrade@70:factor=4:for=40,"
    "dropout@100:for=45,"
    "crash@160:node=0:for=25,"
    "crash@230:node=1:for=10"
)
CHAOS_HORIZON = 300.0

SINE_HORIZON = 900.0


def _digest(value: object) -> str:
    text = json.dumps(value, sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


@lru_cache(maxsize=1)
def _q1_compile() -> tuple[Query, StatisticsEstimate, RLDSolution]:
    """``repro simulate``'s compile: selectivities at level 3, rate at 2."""
    query = build_q1()
    uncertainty = {op.selectivity_param: 3 for op in query.operators}
    uncertainty["rate"] = 2
    estimate = query.default_estimates(uncertainty)
    solution = RLDOptimizer(query, CLUSTER, config=RLDConfig(epsilon=0.2)).solve(
        estimate
    )
    return query, estimate, solution


def _run(scenario: str, name: str) -> dict[str, object]:
    query, estimate, solution = _q1_compile()
    strategy = build_standard_strategies(
        query, CLUSTER, estimate=estimate, rld_solution=solution
    )[name]
    trace = None
    network = None
    if scenario == "q1_faults":
        horizon = BENCH_HORIZON
        workload = stock_workload(query, uncertainty_level=3, regime_period=60.0)
        faults = FaultSchedule.parse(
            BENCH_FAULTS, n_nodes=CLUSTER.n_nodes, duration=horizon, seed=17
        )
    elif scenario == "network_chaos":
        horizon = CHAOS_HORIZON
        workload = stock_workload(query, uncertainty_level=3, regime_period=60.0)
        faults = FaultSchedule.parse(
            CHAOS_FAULTS, n_nodes=CLUSTER.n_nodes, duration=horizon, seed=17
        )
        network = NetworkModel(latency_seconds=0.002)
        trace = SimulationTrace(max_events=1_000_000)
    else:
        horizon = SINE_HORIZON
        levels = {op.op_id: 3 for op in query.operators}
        workload = Workload(
            query,
            rate_profile=StepRate(((0.0, 0.9), (300.0, 1.2), (600.0, 0.7))),
            selectivity_profile=RegimeSwitchSelectivity(
                levels, period=90.0, mode="sine"
            ),
        )
        faults = None
    simulator = StreamSimulator(
        query,
        CLUSTER,
        strategy,
        workload,
        seed=17,
        network=network,
        trace=trace,
        faults=faults,
    )
    report = simulator.run(horizon)
    record: dict[str, object] = {
        "report_sha256": _digest(report.to_dict()),
        "timeline_sha256": _digest(report.produced_timeline()),
        # The loop is private to the simulator; its event count is the
        # work measure the benchmark reports too.
        "events": simulator._loop.processed,
    }
    if trace is not None:
        assert trace.dropped == 0
        record["trace_sha256"] = _digest(
            [dataclasses.astuple(event) for event in trace.events]
        )
    return record


SCENARIOS = ("q1_faults", "network_chaos", "sine")


def record_all() -> dict[str, dict[str, dict[str, object]]]:
    return {
        scenario: {name: _run(scenario, name) for name in STRATEGIES}
        for scenario in SCENARIOS
    }


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, dict[str, object]]]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", STRATEGIES)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_simulation_matches_golden(scenario, name, golden):
    assert _run(scenario, name) == golden[scenario][name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
