"""Runtime invariants of a built simulator.

The paper models RLD on a shared-nothing cluster (§2.1), and every run
replays bit for bit under ``(seed, fault schedule)``.  Three properties
carry those promises, and each is checked here on the real objects
rather than on source text:

* *No shared node state*: no mutable object is reachable from two
  :class:`~repro.engine.node.SimNode` instances.
* *One owner per RNG*: every ``np.random.Generator`` and
  ``random.Random`` reachable from a simulator has exactly one
  referring edge, so no two components interleave draws from one
  stream.
* *Only FaultError escapes on_fault*: under any fault sequence, every
  exported strategy's hook either degrades or raises
  :class:`~repro.engine.faults.FaultError`, which the simulator counts.

The walks follow object identity (``object_graph.references``) with no
list of attribute names, so new state is covered without editing them.
"""

from __future__ import annotations

import dataclasses
import inspect
import random
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from object_graph import references

import repro.runtime
from repro.core import Cluster, RLDConfig, RLDOptimizer
from repro.engine.faults import (
    FACTOR_KINDS,
    FAULT_KINDS,
    NODE_KINDS,
    FaultError,
    FaultEvent,
    FaultSchedule,
    node_crash,
)
from repro.engine.monitor import StatisticsMonitor
from repro.engine.node import SimNode
from repro.engine.system import StreamSimulator
from repro.runtime import RLDStrategy
from repro.workloads import RandomWalkSelectivity, Workload, build_q1

DURATION = 30.0

#: Tuples per batch: small, so a run holds a few hundred batches and
#: faults land on work in service, in queues and in flight.
BATCH_SIZE = 10.0

#: A homogeneous cluster (OptPrune) and a heterogeneous one (GreedyPhy,
#: since OptPrune's symmetry breaking needs equal capacities).
CLUSTERS = {
    "2-node": (Cluster.homogeneous(2, 760.0), RLDConfig()),
    "3-node": (Cluster((700.0, 450.0, 380.0)), RLDConfig(physical_algorithm="greedy")),
}

#: Every load-distribution strategy ``repro.runtime`` exports.
STRATEGIES = [
    cls
    for cls in (getattr(repro.runtime, name) for name in repro.runtime.__all__)
    if isinstance(cls, type) and hasattr(cls, "route")
]
HOOKED = [cls for cls in STRATEGIES if hasattr(cls, "on_fault")]

IMMUTABLE = (
    type(None),
    bool,
    int,
    float,
    complex,
    str,
    bytes,
    tuple,
    frozenset,
    range,
    np.generic,
)


@pytest.fixture(scope="module")
def compiled():
    """Each cluster with the RLD solution compiled for q1 on it."""
    query = build_q1()
    estimate = query.default_estimates(
        {op.selectivity_param: 3 for op in query.operators} | {"rate": 2}
    )
    solved = {}
    for name, (cluster, config) in CLUSTERS.items():
        solution = RLDOptimizer(query, cluster, config=config).solve(estimate)
        assert solution.feasible
        solved[name] = (query, cluster, solution)
    return solved


def _build(cls, query, cluster, solution):
    """Construct ``cls`` from whichever of these its required
    parameters name; a strategy needing anything else fails here."""
    available = {"query": query, "cluster": cluster, "solution": solution}
    required = {
        param.name: available[param.name]
        for param in inspect.signature(cls).parameters.values()
        if param.default is param.empty
        and param.kind not in (param.VAR_POSITIONAL, param.VAR_KEYWORD)
    }
    return cls(**required)


def _simulator(strategy, query, cluster, events):
    """A seeded simulator whose workload holds per-operator generators."""
    walk = RandomWalkSelectivity({op.op_id: 3 for op in query.operators}, seed=5)
    workload = Workload(query, selectivity_profile=walk)
    return StreamSimulator(
        query,
        cluster,
        strategy,
        workload,
        batch_size=BATCH_SIZE,
        seed=3,
        faults=FaultSchedule(events),
    )


@pytest.fixture(scope="module", params=sorted(CLUSTERS))
def ran(request, compiled):
    """Every strategy's simulator on one cluster, after a short run
    with a crash (DYN migrates, RLD reroutes)."""
    query, cluster, solution = compiled[request.param]
    simulators = {}
    for cls in STRATEGIES:
        strategy = _build(cls, query, cluster, solution)
        simulator = _simulator(strategy, query, cluster, node_crash(4.0, 0, 6.0))
        simulator.run(DURATION)
        simulators[cls] = simulator
    return query, cluster, simulators


def _mutable(obj) -> bool:
    if isinstance(obj, IMMUTABLE):
        return False
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return not obj.__dataclass_params__.frozen
    return True


def _shared_between(nodes) -> list[str]:
    """``"<path> is <path>"`` for each mutable object that a later node
    reaches after an earlier one did."""
    first_path: dict[int, str] = {}
    shared = []
    for node in nodes:
        mine = set()
        for path, obj in references(node, f"node{node.node_id}"):
            if not _mutable(obj) or id(obj) in mine:
                continue
            mine.add(id(obj))
            if id(obj) in first_path:
                shared.append(f"{first_path[id(obj)]} is {path}")
            else:
                first_path[id(obj)] = path
    return shared


def _generator_edges(simulator) -> list[list[str]]:
    """The paths referring to each RNG reachable from ``simulator``."""
    edges = defaultdict(list)
    for path, obj in references(simulator, "simulator"):
        if isinstance(obj, (np.random.Generator, random.Random)):
            edges[id(obj)].append(path)
    return list(edges.values())


def test_every_exported_strategy_is_covered():
    assert {cls.__name__ for cls in HOOKED} >= {
        "RODStrategy",
        "DYNStrategy",
        "RLDStrategy",
        "RLDHybridStrategy",
    }


@pytest.mark.parametrize("cls", STRATEGIES, ids=lambda cls: cls.__name__)
def test_no_mutable_object_is_reachable_from_two_nodes(ran, cls):
    _, cluster, simulators = ran
    nodes = simulators[cls].nodes
    assert len(nodes) == cluster.n_nodes
    assert _shared_between(nodes) == []


def test_a_dict_handed_to_two_nodes_is_shared_state():
    nodes = [SimNode(0, 100.0), SimNode(1, 100.0), SimNode(2, 100.0)]
    ledger = {"load": 0.0}
    nodes[0].ledger = nodes[2].ledger = ledger
    assert _shared_between(nodes) == ["node0.ledger is node2.ledger"]


@pytest.mark.parametrize("cls", STRATEGIES, ids=lambda cls: cls.__name__)
def test_every_generator_has_one_owner(ran, cls):
    query, _, simulators = ran
    edges = _generator_edges(simulators[cls])
    assert [paths for paths in edges if len(paths) != 1] == []
    # Arrivals, monitor noise, and one random walk per operator.
    assert len(edges) >= 2 + len(query.operators)


def test_a_generator_seeding_two_components_has_two_owners(compiled):
    # derive_rng passes a Generator through unchanged, so the simulator
    # and its monitor end up drawing from one stream.
    query, cluster, solution = compiled["2-node"]
    workload = Workload(query)
    rng = np.random.default_rng(7)
    simulator = StreamSimulator(
        query,
        cluster,
        RLDStrategy(solution),
        workload,
        monitor=StatisticsMonitor(query, workload, seed=rng),
        seed=rng,
    )
    assert [sorted(paths) for paths in _generator_edges(simulator)] == [
        ["simulator._monitor._rng", "simulator._rng"]
    ]


@st.composite
def fault_sequences(draw):
    """A cluster name and a fault sequence on its nodes: any kinds, in
    any order, at any times inside the run."""
    name = draw(st.sampled_from(sorted(CLUSTERS)))
    n_nodes = CLUSTERS[name][0].n_nodes
    events = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(sorted(FAULT_KINDS)))
        events.append(
            FaultEvent(
                time=draw(st.floats(0.0, DURATION)),
                kind=kind,
                node=draw(st.integers(0, n_nodes - 1)) if kind in NODE_KINDS else None,
                factor=draw(st.floats(0.1, 10.0)) if kind in FACTOR_KINDS else 1.0,
            )
        )
    return name, events


def _event(time, kind, node=None, factor=1.0):
    return FaultEvent(time=time, kind=kind, node=node, factor=factor)


@pytest.mark.parametrize("cls", HOOKED, ids=lambda cls: cls.__name__)
@settings(max_examples=15, deadline=None)
@given(case=fault_sequences())
# Every node down at once, on each cluster.
@example(case=("2-node", [_event(2.0, "crash", 0), _event(3.0, "crash", 1)]))
@example(
    case=(
        "3-node",
        [_event(2.0, "crash", n) for n in range(3)] + [_event(9.0, "recover", 1)],
    )
)
# A recover before any crash, then one node crashed twice.
@example(
    case=(
        "2-node",
        [_event(1.0, "recover", 1), _event(2.0, "crash", 1), _event(4.0, "crash", 1)],
    )
)
# One event of every kind, at one instant.
@example(
    case=(
        "3-node",
        [
            _event(5.0, kind, 2 if kind in NODE_KINDS else None, 0.5)
            for kind in sorted(FAULT_KINDS)
        ],
    )
)
def test_only_fault_error_escapes_on_fault(compiled, cls, case):
    name, events = case
    query, cluster, solution = compiled[name]
    strategy = _build(cls, query, cluster, solution)
    raised = []
    hook = strategy.on_fault

    def counted(simulator, event):
        try:
            hook(simulator, event)
        except FaultError as exc:
            raised.append(exc)
            raise

    strategy.on_fault = counted
    # Any exception but FaultError propagates out of run() and fails here.
    report = _simulator(strategy, query, cluster, events).run(DURATION)
    assert report.conservation_holds()
    assert report.fault_events == len(events)
    assert report.fault_hook_errors == len(raised)
