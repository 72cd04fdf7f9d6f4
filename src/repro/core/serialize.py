"""JSON (de)serialization of compiled RLD solutions.

A compiled solution is expensive (optimizer calls, branch-and-bound)
and deployment wants to compute it once, ship it to the executor
nodes, and reload it at startup — so :func:`solution_to_dict` /
:func:`solution_from_dict` provide a stable, human-readable round-trip
of everything the runtime needs: the query, cluster, parameter space,
robust logical plans with weights/loads, and the physical placement.

The round-trip is *semantic*, not pickled state: derived caches (plan
cells, cost models) are rebuilt on load, so files stay small and the
format survives refactors.  ``save_solution``/``load_solution`` wrap
the dict form with JSON file IO.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.core.logical import PlanDiscovery, RobustLogicalSolution
from repro.core.parameter_space import Dimension, ParameterSpace
from repro.core.partitioning import PartitioningResult
from repro.core.physical import (
    Cluster,
    PhysicalPlan,
    PhysicalPlanResult,
    PlanLoadTable,
)
from repro.core.rld import RLDSolution
from repro.query.model import JoinGraph, Operator, Query, StreamSchema
from repro.query.plans import LogicalPlan

__all__ = [
    "FORMAT_VERSION",
    "solution_to_dict",
    "solution_from_dict",
    "save_solution",
    "load_solution",
]

#: Bump on breaking format changes; loaders refuse mismatches loudly.
FORMAT_VERSION = 1


def _query_to_dict(query: Query) -> dict[str, Any]:
    edges = sorted(
        {
            tuple(sorted((op.op_id, neighbor)))
            for op in query.operators
            for neighbor in query.join_graph.neighbors(op.op_id)
        }
    )
    return {
        "name": query.name,
        "window_seconds": query.window_seconds,
        "operators": [
            {
                "op_id": op.op_id,
                "name": op.name,
                "cost_per_tuple": op.cost_per_tuple,
                "selectivity": op.selectivity,
                "state_size": op.state_size,
                "stream": op.stream,
            }
            for op in query.operators
        ],
        "streams": [
            {
                "name": s.name,
                "attributes": list(s.attributes),
                "base_rate": s.base_rate,
            }
            for s in query.streams
        ],
        "join_edges": [list(edge) for edge in edges],
    }


def _query_from_dict(data: dict[str, Any]) -> Query:
    operators = tuple(
        Operator(
            op_id=o["op_id"],
            name=o["name"],
            cost_per_tuple=o["cost_per_tuple"],
            selectivity=o["selectivity"],
            state_size=o["state_size"],
            stream=o["stream"],
        )
        for o in data["operators"]
    )
    streams = tuple(
        StreamSchema(s["name"], tuple(s["attributes"]), s["base_rate"])
        for s in data["streams"]
    )
    graph = JoinGraph(tuple(edge) for edge in data["join_edges"])
    return Query(
        name=data["name"],
        operators=operators,
        streams=streams,
        join_graph=graph,
        window_seconds=data["window_seconds"],
    )


def _space_to_dict(space: ParameterSpace) -> list[dict[str, Any]]:
    return [
        {"name": d.name, "lo": d.lo, "hi": d.hi, "steps": d.steps}
        for d in space.dimensions
    ]


def _space_from_dict(data: list[dict[str, Any]]) -> ParameterSpace:
    return ParameterSpace(
        [Dimension(d["name"], d["lo"], d["hi"], d["steps"]) for d in data]
    )


def solution_to_dict(solution: RLDSolution) -> dict[str, Any]:
    """Serialize a compiled solution to JSON-compatible primitives."""
    table = solution.load_table
    plans = table.plans
    physical = solution.physical
    return {
        "format_version": FORMAT_VERSION,
        "query": _query_to_dict(solution.query),
        "cluster": {"capacities": list(solution.cluster.capacities)},
        "space": _space_to_dict(solution.space),
        "plans": [
            {
                "order": list(plan.order),
                "weight": table.weight_of(plan),
                "worst_loads": {
                    str(op_id): table.load(i, op_id)
                    for op_id in table.operator_ids
                },
                "typical_loads": {
                    str(op_id): load
                    for op_id, load in table.expected_loads(1 << i).items()
                },
            }
            for i, plan in enumerate(plans)
        ],
        "discoveries": [
            {"order": list(d.plan.order), "at_call": d.at_call}
            for d in solution.logical.discoveries
        ],
        "partitioning": {
            "optimizer_calls": solution.partitioning.optimizer_calls,
            "regions_processed": solution.partitioning.regions_processed,
            "terminated_early": solution.partitioning.terminated_early,
            "budget_exhausted": solution.partitioning.budget_exhausted,
            "unresolved_regions": solution.partitioning.unresolved_regions,
            "weight_computations": solution.partitioning.weight_computations,
            "weight_skips": solution.partitioning.weight_skips,
        },
        "physical": {
            "algorithm": physical.algorithm,
            "assignment": [sorted(ops) for ops in physical.physical_plan.assignment]
            if physical.physical_plan is not None
            else None,
            "supported_orders": [
                list(plan.order) for plan in physical.supported_plans
            ],
            "score": physical.score,
            "compile_seconds": physical.compile_seconds,
            "nodes_explored": physical.nodes_explored,
        },
    }


def solution_from_dict(data: dict[str, Any]) -> RLDSolution:
    """Rebuild a compiled solution from its dict form."""
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported solution format version {version!r} "
            f"(this library reads version {FORMAT_VERSION})"
        )
    query = _query_from_dict(data["query"])
    cluster = Cluster(tuple(data["cluster"]["capacities"]))
    space = _space_from_dict(data["space"])

    plans = [LogicalPlan(tuple(entry["order"])) for entry in data["plans"]]
    weights = {
        plan: entry["weight"] for plan, entry in zip(plans, data["plans"])
    }
    worst = {
        plan: {int(k): v for k, v in entry["worst_loads"].items()}
        for plan, entry in zip(plans, data["plans"])
    }
    typical = {
        plan: {int(k): v for k, v in entry["typical_loads"].items()}
        for plan, entry in zip(plans, data["plans"])
    }
    table = PlanLoadTable(plans, worst, weights, typical_loads=typical)

    discoveries = [
        PlanDiscovery(LogicalPlan(tuple(d["order"])), d["at_call"])
        for d in data["discoveries"]
    ]
    logical = RobustLogicalSolution(
        query, space, plans, discoveries=discoveries
    )

    part = data["partitioning"]
    partitioning = PartitioningResult(
        solution=logical,
        optimizer_calls=part["optimizer_calls"],
        regions_processed=part["regions_processed"],
        terminated_early=part["terminated_early"],
        budget_exhausted=part["budget_exhausted"],
        unresolved_regions=part["unresolved_regions"],
        weight_computations=part["weight_computations"],
        weight_skips=part["weight_skips"],
    )

    phys = data["physical"]
    placement = (
        PhysicalPlan(tuple(frozenset(ops) for ops in phys["assignment"]))
        if phys["assignment"] is not None
        else None
    )
    physical = PhysicalPlanResult(
        algorithm=phys["algorithm"],
        physical_plan=placement,
        supported_plans=tuple(
            LogicalPlan(tuple(order)) for order in phys["supported_orders"]
        ),
        score=phys["score"],
        compile_seconds=phys["compile_seconds"],
        nodes_explored=phys["nodes_explored"],
    )

    return RLDSolution(
        query=query,
        cluster=cluster,
        space=space,
        logical=logical,
        partitioning=partitioning,
        load_table=table,
        physical=physical,
    )


def save_solution(solution: RLDSolution, path: str | Path) -> None:
    """Write a compiled solution to a JSON file."""
    payload = solution_to_dict(solution)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def load_solution(path: str | Path) -> RLDSolution:
    """Read a compiled solution back from a JSON file."""
    return solution_from_dict(json.loads(Path(path).read_text()))
