"""Tuple batches — the simulator's unit of work.

The paper's executor groups tuples into "rusters" (Table 2: minimum
ruster size 100 tuples) and assigns a logical plan per batch, so the
simulator moves *batches* rather than individual tuples.  A batch's
``size`` is a float: selectivities thin (or joins fan out) the expected
tuple count as it traverses its plan.

A batch also carries the simulator's per-stage bookkeeping — the node
serving its current stage and that node's crash epoch at submission —
so a stage reads and writes slots on the batch instead of per-batch
dictionaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.query.plans import LogicalPlan

__all__ = ["Batch"]


@dataclass(slots=True)
class Batch:
    """A group of tuples flowing through one logical plan.

    Attributes
    ----------
    batch_id:
        Monotone id, assigned at the source.
    created_at:
        Simulated source timestamp (latency is measured from here).
    initial_size:
        Tuples in the batch when it entered the system.
    size:
        Current expected tuple count (mutated by operator selectivity).
    plan:
        The logical plan routing this batch (set by the strategy).
    stage:
        Index into ``plan.order`` of the next operator to apply.
    node:
        Node serving (or that last served) the batch's current stage;
        ``-1`` before its first stage was submitted.
    epoch:
        The serving node's ``crash_epoch`` when the stage was submitted;
        a changed epoch at completion means the work died in a crash.
    """

    batch_id: int
    created_at: float
    initial_size: float
    size: float = field(default=0.0)
    plan: LogicalPlan | None = None
    stage: int = 0
    node: int = field(default=-1, init=False)
    epoch: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.initial_size <= 0:
            raise ValueError(f"batch size must be > 0, got {self.initial_size}")
        if self.size <= 0.0:
            self.size = self.initial_size

    def advance(self, selectivity: float) -> None:
        """Apply one operator: thin the batch and move to the next stage."""
        if selectivity < 0:
            raise ValueError(f"selectivity must be >= 0, got {selectivity}")
        self.size *= selectivity
        self.stage += 1
