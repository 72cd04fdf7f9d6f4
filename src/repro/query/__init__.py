"""Query model, logical plans, cost model, and the black-box point optimizer.

This package implements the paper's §2.1 distributed query-plan basics:

* :mod:`repro.query.model` — streams, operators (with per-tuple cost,
  selectivity, and state size), and select-project-join queries whose
  logical plans are operator orderings.
* :mod:`repro.query.statistics` — named statistics (operator selectivities
  and stream input rates), point estimates, and uncertainty levels.
* :mod:`repro.query.plans` — logical plans, validity with respect to the
  join graph, and plan enumeration.
* :mod:`repro.query.cost` — the multilinear plan cost model of §2.3.
  :class:`PlanCostModel` is the only code that reads statistics and
  prices plans: one kernel per formula serves scalar, batch and runtime
  callers alike.
* :mod:`repro.query.optimizer` — optimal plan-at-a-point optimizers with
  optimizer-call accounting (the unit of cost in Figures 10–12).
"""

from repro.query.estimation import (
    calibrate_workload,
    estimate_from_samples,
    uncertainty_level_for,
)
from repro.query.cost import PlanCostModel
from repro.query.model import JoinGraph, Operator, Query, StreamSchema
from repro.query.optimizer import (
    DPOptimizer,
    ExhaustiveOrderOptimizer,
    PointOptimizer,
    RankOrderOptimizer,
    make_optimizer,
)
from repro.query.plans import LogicalPlan, enumerate_plans, is_valid_order
from repro.query.statistics import (
    StatisticsEstimate,
    StatPoint,
    rate_param,
    selectivity_param,
)

__all__ = [
    "DPOptimizer",
    "ExhaustiveOrderOptimizer",
    "JoinGraph",
    "LogicalPlan",
    "Operator",
    "PlanCostModel",
    "PointOptimizer",
    "Query",
    "RankOrderOptimizer",
    "StatPoint",
    "StatisticsEstimate",
    "StreamSchema",
    "calibrate_workload",
    "enumerate_plans",
    "estimate_from_samples",
    "uncertainty_level_for",
    "is_valid_order",
    "make_optimizer",
    "rate_param",
    "selectivity_param",
]
