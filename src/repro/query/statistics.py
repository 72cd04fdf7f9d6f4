"""Named statistics, point estimates, and uncertainty levels.

The paper's optimizer statistics are operator selectivities and stream
input rates (§2.2).  We address them by string name so a parameter space
can be built over any subset of them:

* ``selectivity_param(op_id)`` → ``"sel:<op_id>"``
* ``rate_param()`` / ``rate_param(stream)`` → ``"rate"`` / ``"rate:<stream>"``

A :class:`StatPoint` is an immutable mapping from parameter name to value
— one point ``pnt`` in the parameter space ``S``.  A
:class:`StatisticsEstimate` couples the single-point estimates ``E`` with
per-parameter integer uncertainty levels ``U`` (Algorithm 1's inputs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Mapping, TypeVar, overload

from repro.util.validation import ensure_non_empty, ensure_positive

__all__ = [
    "selectivity_param",
    "rate_param",
    "StatPoint",
    "StatisticsEstimate",
    "UNCERTAINTY_UNIT_STEP",
]

#: Algorithm 1's unit step Δ: an uncertainty level of ``u`` widens an
#: estimate ``e`` to the interval ``[e·(1 − Δ·u), e·(1 + Δ·u)]``.
UNCERTAINTY_UNIT_STEP = 0.1

T = TypeVar("T")


def selectivity_param(op_id: int) -> str:
    """Parameter name for the selectivity of operator ``op_id``."""
    return f"sel:{op_id}"


def rate_param(stream: str | None = None) -> str:
    """Parameter name for a stream input rate.

    With no argument this names the query's driving input rate; with a
    stream name it names that stream's rate.
    """
    if stream is None:
        return "rate"
    return f"rate:{stream}"


class StatPoint(Mapping[str, float]):
    """An immutable point in statistics space: parameter name → value.

    Supports the mapping protocol plus :meth:`replacing` for building a
    nearby point, which is how searches walk the parameter space.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Mapping[str, float]) -> None:
        self._values = MappingProxyType(dict(values))

    def __getitem__(self, name: str) -> float:
        return self._values[name]

    @overload
    def get(self, name: str, /) -> float | None: ...

    @overload
    def get(self, name: str, /, default: float | T) -> float | T: ...

    def get(self, name: str, /, default: object = None) -> object:
        """The value of ``name``, or ``default`` when absent.

        One dictionary lookup, not the ``__getitem__``-and-``KeyError``
        route ``Mapping.get`` takes.
        """
        return self._values.get(name, default)

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:.4g}" for k, v in sorted(self._values.items()))
        return f"StatPoint({inner})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, StatPoint):
            return dict(self._values) == dict(other._values)
        if isinstance(other, Mapping):
            return dict(self._values) == dict(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._values.items()))

    def replacing(self, **overrides: float) -> "StatPoint":
        """Return a copy with keyword-named parameters replaced.

        Keyword names use ``__`` in place of ``:`` since parameter names
        are not identifiers, e.g. ``point.replacing(sel__3=0.5)``.
        """
        merged = dict(self._values)
        for key, value in overrides.items():
            merged[key.replace("__", ":")] = value
        return StatPoint(merged)

    def updated(self, values: Mapping[str, float]) -> "StatPoint":
        """Return a copy with the given parameter mapping merged in."""
        merged = dict(self._values)
        merged.update(values)
        return StatPoint(merged)


@dataclass(frozen=True)
class StatisticsEstimate:
    """Point estimates ``E`` with uncertainty levels ``U`` (§2.2).

    ``estimates`` maps parameter names to single-point estimates and
    ``uncertainty`` maps the *uncertain* subset of those names to integer
    uncertainty levels.  Parameters present in ``estimates`` but not in
    ``uncertainty`` are treated as exact (level 0) and do not become
    dimensions of the parameter space.  A level must keep Δ·u < 1, so
    every Algorithm 1 lower bound stays positive.
    """

    estimates: Mapping[str, float]
    uncertainty: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        ensure_non_empty(self.estimates, "estimates")
        for name, value in self.estimates.items():
            ensure_positive(value, f"estimate {name!r}")
        for name, level in self.uncertainty.items():
            if name not in self.estimates:
                raise ValueError(f"uncertainty given for unknown parameter {name!r}")
            if not isinstance(level, int) or level < 0:
                raise ValueError(
                    f"uncertainty level for {name!r} must be a non-negative int, got {level!r}"
                )
            if UNCERTAINTY_UNIT_STEP * level >= 1.0:
                raise ValueError(
                    f"uncertainty level for {name!r} must be < "
                    f"{1.0 / UNCERTAINTY_UNIT_STEP:g} so the lower bound "
                    f"e*(1 - {UNCERTAINTY_UNIT_STEP:g}*u) stays > 0, got {level}"
                )
        object.__setattr__(self, "estimates", MappingProxyType(dict(self.estimates)))
        object.__setattr__(self, "uncertainty", MappingProxyType(dict(self.uncertainty)))

    @property
    def point(self) -> StatPoint:
        """The single-point estimate as a :class:`StatPoint`."""
        return StatPoint(self.estimates)

    def uncertain_parameters(self) -> tuple[str, ...]:
        """Names of parameters with a non-zero uncertainty level, sorted."""
        return tuple(sorted(n for n, u in self.uncertainty.items() if u > 0))

    def bounds(self, name: str) -> tuple[float, float]:
        """Algorithm 1 bounds ``(lo, hi)`` for one parameter.

        ``lo = e·(1 − Δ·u)`` and ``hi = e·(1 + Δ·u)`` with Δ = 0.1; an
        exact parameter (level 0) returns a degenerate ``(e, e)``.
        """
        estimate = self.estimates[name]
        level = self.uncertainty.get(name, 0)
        delta = UNCERTAINTY_UNIT_STEP * level
        return estimate * (1.0 - delta), estimate * (1.0 + delta)

    def with_uncertainty(self, **levels: int) -> "StatisticsEstimate":
        """Return a copy with updated uncertainty levels.

        Keyword names use ``__`` in place of ``:``,
        e.g. ``est.with_uncertainty(sel__1=2, rate=3)``.
        """
        merged = dict(self.uncertainty)
        for key, level in levels.items():
            merged[key.replace("__", ":")] = level
        return StatisticsEstimate(dict(self.estimates), merged)
