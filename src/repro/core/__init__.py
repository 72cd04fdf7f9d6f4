"""The paper's primary contribution: robust logical + physical planning.

Layered as in the paper:

* :mod:`repro.core.parameter_space` — the §2.2 multi-dimensional
  uncertainty space (Algorithm 1, discretization, regions).
* :mod:`repro.core.robustness` — Def. 1/2 ε-robustness checks and the
  exact coverage evaluation harness.
* :mod:`repro.core.diagram` — the exact plan diagram (the harness's
  ground truth) and its ε-reduction.
* :mod:`repro.core.weights` — §4.2 slope/distance weight assignment.
* :mod:`repro.core.partitioning` — ES, RS, WRP (Algorithm 2) and ERP
  (Algorithm 3) robust logical solution algorithms, plus Theorem 1's
  stopping threshold (:func:`aging_threshold`) and Theorem 2's miss
  bound, both checked on the real RS.
* :mod:`repro.core.occurrence` — §5.2 normal occurrence probabilities.
* :mod:`repro.core.logical` — robust logical solutions, plan regions,
  plan weights.
* :mod:`repro.core.physical` — configurations, Def. 3 physical plans,
  support bitmasks, clusters.
* :mod:`repro.core.greedy_phy` / :mod:`repro.core.optprune` /
  :mod:`repro.core.exhaustive_phy` — §5's GreedyPhy (Algorithm 4),
  OptPrune (Algorithm 5), and the exhaustive baseline.  OptPrune and
  the exhaustive search take the paper's homogeneous machines; GreedyPhy
  also places onto unequal nodes.
* :mod:`repro.core.rld` — the end-to-end two-step RLD optimizer.
"""

from repro.core.correlation import CorrelatedOccurrenceModel
from repro.core.diagram import PlanDiagram, compute_plan_diagram
from repro.core.exhaustive_phy import enumerate_partitions, exhaustive_physical
from repro.core.greedy_phy import greedy_phy, largest_load_first
from repro.core.logical import PlanDiscovery, RobustLogicalSolution
from repro.core.occurrence import NormalOccurrenceModel
from repro.core.optprune import enumerate_feasible_configs, opt_prune
from repro.core.parameter_space import Dimension, ParameterSpace, Region
from repro.core.partitioning import (
    EarlyTerminatedRobustPartitioning,
    ExhaustiveSearch,
    PartitioningResult,
    RandomSearch,
    WeightedRobustPartitioning,
    aging_threshold,
    theorem2_miss_probability_bound,
)
from repro.core.physical import (
    Cluster,
    InfeasiblePlacementError,
    PhysicalPlan,
    PhysicalPlanResult,
    PlanLoadTable,
)
from repro.core.rld import RLDConfig, RLDOptimizer, RLDSolution
from repro.core.serialize import (
    load_solution,
    save_solution,
    solution_from_dict,
    solution_to_dict,
)
from repro.core.robustness import (
    RegionCheck,
    RobustnessChecker,
    measure_coverage,
    robust_mask,
)
from repro.core.weights import RegionWeights, WeightAssigner

__all__ = [
    "CorrelatedOccurrenceModel",
    "PlanDiagram",
    "compute_plan_diagram",
    "load_solution",
    "save_solution",
    "solution_from_dict",
    "solution_to_dict",
    "theorem2_miss_probability_bound",
    "Cluster",
    "Dimension",
    "EarlyTerminatedRobustPartitioning",
    "ExhaustiveSearch",
    "InfeasiblePlacementError",
    "NormalOccurrenceModel",
    "ParameterSpace",
    "PartitioningResult",
    "PhysicalPlan",
    "PhysicalPlanResult",
    "PlanDiscovery",
    "PlanLoadTable",
    "RLDConfig",
    "RLDOptimizer",
    "RLDSolution",
    "RandomSearch",
    "Region",
    "RegionCheck",
    "RegionWeights",
    "RobustLogicalSolution",
    "RobustnessChecker",
    "WeightAssigner",
    "WeightedRobustPartitioning",
    "aging_threshold",
    "enumerate_feasible_configs",
    "enumerate_partitions",
    "exhaustive_physical",
    "greedy_phy",
    "largest_load_first",
    "measure_coverage",
    "opt_prune",
    "robust_mask",
]
