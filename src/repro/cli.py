"""Command-line interface: compile, inspect, and simulate RLD solutions.

Four subcommands, mirroring the library's workflow::

    python -m repro compile  --query q1 --nodes 4 --capacity 380 --level 3
    python -m repro diagram  --query q1 --dims sel:1 sel:3 --level 4
    python -m repro simulate --query q1 --nodes 4 --capacity 380 --level 3 \
        --duration 300 --strategies ROD DYN RLD
    python -m repro lint

``compile`` prints the robust logical solution and physical plan;
``diagram`` renders the 2-D plan diagram of a space as ASCII;
``simulate`` runs the §6.5 strategy comparison and prints the table;
``lint`` runs every :mod:`repro.analysis` rule over the tree in one run
(``--format json`` for machine consumption, exit code 1 on findings —
the gate ``make lint`` and CI run).
``simulate --faults`` additionally injects infrastructure failures
(see :meth:`repro.engine.faults.FaultSchedule.parse` for the grammar;
``--faults random`` generates seeded chaos)::

    python -m repro simulate --query q1 --faults "crash@60:node=1:for=30"
    python -m repro simulate --query q1 --faults random:crashes=2

All commands are deterministic under ``--seed``.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Sequence

from repro.core import (
    Cluster,
    InfeasiblePlacementError,
    ParameterSpace,
    RLDConfig,
    RLDOptimizer,
)
from repro.core.diagram import compute_plan_diagram
from repro.engine.faults import FaultSchedule
from repro.query import make_optimizer
from repro.query.model import Query
from repro.runtime.comparison import build_standard_strategies, compare_strategies
from repro.util.validation import ensure_finite, ensure_non_negative, ensure_positive
from repro.workloads import build_nway, build_q1, build_q2, stock_workload

__all__ = ["main", "build_parser"]


def _load_query(name: str) -> Query:
    """Resolve a query spec: ``q1``, ``q2``, or ``nway:<k>``."""
    if name == "q1":
        return build_q1()
    if name == "q2":
        return build_q2()
    if name.startswith("nway:"):
        count = name.split(":", 1)[1]
        if not count.isdigit() or int(count) < 1:
            raise SystemExit(
                f"invalid query {name!r}: nway:<k> needs an integer k >= 1"
            )
        return build_nway(int(count))
    raise SystemExit(f"unknown query {name!r}; use q1, q2, or nway:<k>")


@contextmanager
def _bad_input() -> Iterator[None]:
    """Turn a ``ValueError`` raised while building a command's inputs
    into a one-line exit.  Never wraps a compile or a simulation: an
    error there is a bug and keeps its traceback."""
    try:
        yield
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc


def _estimate(query: Query, level: int, rate_level: int, dims: Sequence[str] | None):
    if dims:
        uncertainty = {d: level for d in dims}
    else:
        uncertainty = {op.selectivity_param: level for op in query.operators}
        if rate_level != 0:
            uncertainty["rate"] = rate_level
    return query.default_estimates(uncertainty)


def _cmd_compile(args: argparse.Namespace) -> int:
    query = _load_query(args.query)
    with _bad_input():
        estimate = _estimate(query, args.level, args.rate_level, args.dims)
        cluster = Cluster.homogeneous(args.nodes, args.capacity)
        config = RLDConfig(epsilon=args.epsilon, physical_algorithm=args.algorithm)
    solution = RLDOptimizer(query, cluster, config=config).solve(estimate)
    print(solution.summary())
    print(
        f"\noptimizer calls : {solution.partitioning.optimizer_calls}"
        f" (early stop: {solution.partitioning.terminated_early})"
    )
    print(f"physical compile: {solution.physical.compile_seconds * 1000:.2f} ms")
    weights = solution.load_table
    for plan in solution.logical.plans:
        marker = "*" if plan in set(solution.supported_plans) else " "
        print(f" {marker} weight {weights.weight_of(plan):.4f}  {plan.label}")
    if args.profile:
        _print_profile(solution)
    return 0 if solution.feasible else 1


_STAGE_LABELS = {
    "partitioning": "partitioning (ERP)",
    "robustness": "robustness (weights + loads)",
    "physical": "physical mapping",
}


def _print_profile(solution) -> None:
    """Per-stage compile-time breakdown from the pipeline's StageTimer."""
    stages = solution.stage_seconds
    total = sum(stages.values())
    print("\ncompile-time profile:")
    for name, seconds in stages.items():
        share = 100.0 * seconds / total if total > 0 else 0.0
        label = _STAGE_LABELS.get(name, name)
        print(f"  {label:<30} {seconds * 1000:>10.2f} ms  ({share:5.1f}%)")
    print(f"  {'total':<30} {total * 1000:>10.2f} ms")
    logical = solution.logical
    if logical.uses_sampled_grid:
        print(
            f"  robustness scan: sampled {logical.scanned_points:,} of "
            f"{solution.space.n_points:,} points (weights estimated)"
        )
    else:
        print(f"  robustness scan: exact, {solution.space.n_points:,} points")


def _cmd_diagram(args: argparse.Namespace) -> int:
    query = _load_query(args.query)
    if len(set(args.dims or ())) != 2:
        raise SystemExit("diagram requires exactly two --dims (a 2-D space)")
    with _bad_input():
        estimate = _estimate(query, args.level, 0, args.dims)
        space = ParameterSpace.from_estimates(
            estimate, points_per_level=args.points_per_level
        )
        if args.reduce_epsilon is not None:
            flag = "--reduce-epsilon"
            ensure_non_negative(ensure_finite(args.reduce_epsilon, flag), flag)
    diagram = compute_plan_diagram(space, make_optimizer(query))
    if args.reduce_epsilon is not None:
        diagram = diagram.reduce(args.reduce_epsilon)
        print(f"(reduced at epsilon={args.reduce_epsilon})\n")
    print(diagram.render())
    print(f"\n{diagram.cardinality} distinct plans over {space.n_points} cells")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    query = _load_query(args.query)
    with _bad_input():
        estimate = _estimate(query, args.level, args.rate_level, args.dims)
        cluster = Cluster.homogeneous(args.nodes, args.capacity)
        config = RLDConfig(epsilon=args.epsilon)
        ensure_positive(ensure_finite(args.duration, "--duration"), "--duration")
        ensure_positive(
            ensure_finite(args.rate_scale, "--rate-scale"), "--rate-scale"
        )
        ensure_non_negative(args.seed, "--seed")
        if args.fault_seed is not None:
            ensure_non_negative(args.fault_seed, "--fault-seed")
        faults = None
        if args.faults:
            try:
                faults = FaultSchedule.parse(
                    args.faults,
                    n_nodes=args.nodes,
                    duration=args.duration,
                    seed=args.fault_seed if args.fault_seed is not None else args.seed,
                )
            except ValueError as exc:
                raise SystemExit(f"invalid --faults spec: {exc}") from exc
        workload = stock_workload(
            query, uncertainty_level=args.level, regime_period=args.regime_period
        ).scaled(args.rate_scale)
    # A cluster too small for the estimate-optimal placement is bad
    # input, not a bug: only that error of the compile becomes one line.
    try:
        strategies = build_standard_strategies(
            query, cluster, estimate=estimate, rld_config=config
        )
    except InfeasiblePlacementError as exc:
        raise SystemExit(str(exc)) from exc
    if faults is not None:
        print(f"fault schedule ({len(faults)} events):")
        for event in faults:
            print(f"  {event.describe()}")
        print()
    comparison = compare_strategies(
        query,
        cluster,
        workload,
        strategies,
        duration=args.duration,
        seed=args.seed,
        strategy_order=tuple(args.strategies),
        faults=faults,
    )
    # A horizon too short for the first batch leaves only nan rows; a
    # stall after batches arrived keeps its nan row (the §6.5 signal).
    if all(report.batches_injected == 0 for report in comparison.reports.values()):
        raise SystemExit(
            f"no batch arrived within --duration {args.duration:g} s; "
            "raise --duration or --rate-scale"
        )
    header = (
        f"{'strategy':>8} | {'avg ms':>9} | {'p95 ms':>9} | {'tuples out':>11} "
        f"| {'migrations':>10} | {'switches':>8} | {'overhead':>8}"
    )
    if faults is not None:
        header += f" | {'dropped':>7} | {'downtime':>8}"
    print(header)
    print("-" * len(header))
    for name, report in comparison.reports.items():
        row = (
            f"{name:>8} | {report.avg_tuple_latency_ms:>9.1f} "
            f"| {report.latency_percentile_ms(95):>9.1f} "
            f"| {report.tuples_out:>11.0f} | {report.migrations:>10} "
            f"| {report.plan_switches:>8} | {report.overhead_fraction:>8.3f}"
        )
        if faults is not None:
            row += (
                f" | {report.batches_dropped:>7} "
                f"| {report.node_downtime_seconds:>7.1f}s"
            )
        print(row)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import LintRunner, render_json, render_text
    from repro.analysis.rules import default_rules, resolve_rules

    checks = default_rules()
    if args.list_rules:
        width = max(len(check.name) for check in checks)
        for check in checks:
            print(f"{check.name:<{width}}  {check.description}")
        return 0
    try:
        checks = resolve_rules(checks, args.disable or ())
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    root = Path(args.root).resolve()
    paths = [root / p for p in (args.paths or ["src/repro"])]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        raise SystemExit(f"no such path(s): {', '.join(missing)}")
    report = LintRunner(checks, root=root).run(paths)
    print(render_json(report) if args.format == "json" else render_text(report))
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Robust Load Distribution: compile, inspect, simulate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--query", default="q1", help="q1, q2, or nway:<k>")
        p.add_argument("--level", type=int, default=3, help="selectivity uncertainty level")
        p.add_argument("--rate-level", type=int, default=2, help="rate uncertainty level (0 = exact)")
        p.add_argument("--dims", nargs="*", default=None, help="explicit uncertain parameter names")
        p.add_argument("--epsilon", type=float, default=0.2, help="Def. 1 robustness threshold")

    p_compile = sub.add_parser("compile", help="compile an RLD solution")
    common(p_compile)
    p_compile.add_argument("--nodes", type=int, default=4)
    p_compile.add_argument("--capacity", type=float, default=380.0)
    p_compile.add_argument(
        "--algorithm", default="optprune", choices=("optprune", "greedy", "exhaustive")
    )
    p_compile.add_argument(
        "--profile",
        action="store_true",
        help="print a per-stage compile-time breakdown",
    )
    p_compile.set_defaults(handler=_cmd_compile)

    p_diagram = sub.add_parser("diagram", help="render a 2-D plan diagram")
    common(p_diagram)
    p_diagram.add_argument("--points-per-level", type=int, default=4)
    p_diagram.add_argument(
        "--reduce-epsilon", type=float, default=None, help="apply diagram reduction"
    )
    p_diagram.set_defaults(handler=_cmd_diagram)

    p_sim = sub.add_parser("simulate", help="run the strategy comparison")
    common(p_sim)
    p_sim.add_argument("--nodes", type=int, default=4)
    p_sim.add_argument("--capacity", type=float, default=380.0)
    p_sim.add_argument("--duration", type=float, default=300.0)
    p_sim.add_argument("--seed", type=int, default=17)
    p_sim.add_argument("--rate-scale", type=float, default=1.0)
    p_sim.add_argument("--regime-period", type=float, default=60.0)
    p_sim.add_argument(
        "--strategies",
        nargs="+",
        default=["ROD", "DYN", "RLD"],
        choices=("ROD", "DYN", "RLD"),
    )
    p_sim.add_argument(
        "--faults",
        default=None,
        help=(
            "fault schedule: 'random[:crashes=N:...]' for seeded chaos, or "
            "explicit events like 'crash@60:node=1:for=30,partition@120:for=10'"
        ),
    )
    p_sim.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help="seed for '--faults random' (defaults to --seed)",
    )
    p_sim.set_defaults(handler=_cmd_simulate)

    p_lint = sub.add_parser(
        "lint",
        help="run the static checks (the per-file rules)",
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        help="files/directories relative to --root (default: src/repro)",
    )
    p_lint.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    p_lint.add_argument(
        "--root",
        default=".",
        help="repository root that check path scopes are resolved against",
    )
    p_lint.add_argument(
        "--disable",
        nargs="*",
        metavar="RULE",
        help="check names to skip for this run",
    )
    p_lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the check catalog and exit",
    )
    p_lint.set_defaults(handler=_cmd_lint)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
