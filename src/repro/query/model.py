"""Streams, operators, and select-project-join queries (§2.1).

A continuous query is modelled — as in the paper's running examples Q1
and Q2 — as a *pipeline* of commutative operators (window-join and
predicate operators) applied to a driving input stream.  A logical plan
is an ordering of these operators; operator orderings may be constrained
by a join graph (an N-way join can only probe a stream once the running
intermediate result shares an attribute with it).

Each operator carries the two statistics the optimizer cares about
(per-tuple processing cost ``cost_per_tuple`` and default selectivity
estimate ``selectivity``) plus a ``state_size`` used by the DYN baseline
to price operator migration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Collection, Iterable, Mapping

from repro.query.statistics import (
    StatisticsEstimate,
    StatPoint,
    rate_param,
    selectivity_param,
)
from repro.util.validation import ensure_non_empty, ensure_positive

__all__ = ["StreamSchema", "Operator", "JoinGraph", "Query"]


@dataclass(frozen=True)
class StreamSchema:
    """A named input stream with its attributes and base arrival rate.

    ``base_rate`` is the estimated arrival rate in tuples/second used as
    the single-point estimate for the stream's rate parameter.
    """

    name: str
    attributes: tuple[str, ...] = ()
    base_rate: float = 100.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("stream name must not be empty")
        ensure_positive(self.base_rate, f"base_rate of stream {self.name!r}")


@dataclass(frozen=True)
class Operator:
    """One commutative query operator in the pipeline.

    Attributes
    ----------
    op_id:
        Unique small integer identifying the operator within its query.
    name:
        Human-readable label (``"op1"``, ``"match_news"``, ...).
    cost_per_tuple:
        CPU cost units to process one input tuple (the paper's ``c_i``).
    selectivity:
        Default estimate of output/input cardinality ratio (``δ_i``).
        Join operators may have selectivity > 1 (fan-out).
    state_size:
        Abstract size of the operator's window state; the DYN baseline's
        migration pause is proportional to it.
    stream:
        Name of the stream this operator probes (for join operators), or
        ``None`` for pure predicates over the driving stream.
    """

    op_id: int
    name: str
    cost_per_tuple: float
    selectivity: float
    state_size: float = 1.0
    stream: str | None = None

    def __post_init__(self) -> None:
        if self.op_id < 0:
            raise ValueError(f"op_id must be >= 0, got {self.op_id}")
        ensure_positive(self.cost_per_tuple, f"cost_per_tuple of {self.name!r}")
        ensure_positive(self.selectivity, f"selectivity of {self.name!r}")
        ensure_positive(self.state_size, f"state_size of {self.name!r}")

    @cached_property
    def selectivity_param(self) -> str:
        """Parameter-space name of this operator's selectivity.

        Cached per instance: the cost model, monitor and workload
        generators ask for it on every batch.  The cache lives in the
        instance ``__dict__``, outside the dataclass fields, so equality
        and hashing are unchanged.
        """
        return selectivity_param(self.op_id)


class JoinGraph:
    """Connectivity constraints between operators of an N-way join.

    ``edges`` contains unordered pairs of operator ids.  An ordering of
    the operators is *valid* when every operator after the first is
    adjacent to at least one earlier operator, i.e. the prefix always
    induces a connected subgraph.  An empty join graph (the default for
    predicate pipelines) imposes no constraint.
    """

    def __init__(self, edges: Iterable[tuple[int, int]] = ()) -> None:
        adjacency: dict[int, set[int]] = {}
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop on operator {a} is not a join edge")
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
        self._adjacency = {k: frozenset(v) for k, v in adjacency.items()}

    @property
    def is_unconstrained(self) -> bool:
        """True when the graph has no edges (any ordering is valid)."""
        return not self._adjacency

    def neighbors(self, op_id: int) -> frozenset[int]:
        """Operator ids adjacent to ``op_id`` (empty if unconstrained)."""
        return self._adjacency.get(op_id, frozenset())

    def allows_after(self, op_id: int, placed: Collection[int]) -> bool:
        """True if ``op_id`` may follow the already-ordered ``placed`` ops."""
        if self.is_unconstrained or not placed:
            return True
        return not self.neighbors(op_id).isdisjoint(placed)

    @classmethod
    def chain(cls, op_ids: Iterable[int]) -> "JoinGraph":
        """A linear chain join graph over the given operator ids."""
        ids = list(op_ids)
        return cls(zip(ids, ids[1:]))

    @classmethod
    def star(cls, center: int, leaves: Iterable[int]) -> "JoinGraph":
        """A star join graph: every leaf joins the center operator."""
        return cls((center, leaf) for leaf in leaves)

    def __repr__(self) -> str:
        n_edges = sum(len(v) for v in self._adjacency.values()) // 2
        return f"JoinGraph(edges={n_edges}, unconstrained={self.is_unconstrained})"


@dataclass(frozen=True)
class Query:
    """A continuous SPJ query: a set of commutative operators over streams.

    Attributes
    ----------
    name:
        Query label (``"Q1"``, ``"Q2"``).
    operators:
        The full operator set ``OP``; plan = ordering of these.
    streams:
        The input streams referenced by the operators.
    join_graph:
        Ordering constraints; defaults to unconstrained.
    window_seconds:
        Sliding-window length for the join state (documentation and
        state-size scaling only; the cost model is window-agnostic).
    """

    name: str
    operators: tuple[Operator, ...]
    streams: tuple[StreamSchema, ...] = ()
    join_graph: JoinGraph = field(default_factory=JoinGraph)
    window_seconds: float = 60.0

    def __post_init__(self) -> None:
        ensure_non_empty(self.operators, "operators")
        ids = [op.op_id for op in self.operators]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate operator ids in query {self.name!r}: {ids}")
        ensure_positive(self.window_seconds, "window_seconds")

    def __len__(self) -> int:
        return len(self.operators)

    @property
    def operator_ids(self) -> tuple[int, ...]:
        """All operator ids, in declaration order."""
        return tuple(op.op_id for op in self.operators)

    def operator(self, op_id: int) -> Operator:
        """Look up an operator by id; raises ``KeyError`` if absent."""
        for op in self.operators:
            if op.op_id == op_id:
                return op
        raise KeyError(f"query {self.name!r} has no operator with id {op_id}")

    @property
    def driving_rate(self) -> float:
        """Estimated driving input rate (first stream, or 100 tup/s)."""
        if self.streams:
            return self.streams[0].base_rate
        return 100.0

    def default_estimates(
        self, uncertainty: Mapping[str, int] | None = None
    ) -> StatisticsEstimate:
        """Bundle the operators' default statistics into an estimate ``E``.

        Includes every operator selectivity plus the driving input rate.
        ``uncertainty`` optionally assigns levels to a subset of them.
        """
        estimates: dict[str, float] = {rate_param(): self.driving_rate}
        for op in self.operators:
            estimates[op.selectivity_param] = op.selectivity
        return StatisticsEstimate(estimates, uncertainty or {})

    def estimate_point(self) -> StatPoint:
        """The single-point estimate as a :class:`StatPoint`."""
        return self.default_estimates().point
