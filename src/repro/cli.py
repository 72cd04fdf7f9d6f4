"""Command-line interface: compile, inspect, and simulate RLD solutions.

Three subcommands, mirroring the library's workflow::

    python -m repro compile  --query q1 --nodes 4 --capacity 380 --level 3
    python -m repro diagram  --query q1 --dims sel:1 sel:3 --level 4
    python -m repro simulate --query q1 --nodes 4 --capacity 380 --level 3 \
        --duration 300 --strategies ROD DYN RLD

``compile`` prints the robust logical solution and physical plan;
``diagram`` renders the 2-D plan diagram of a space as ASCII;
``simulate`` runs the §6.5 strategy comparison and prints the table;
``lint`` runs the :mod:`repro.analysis` invariant checker over the
tree (``repro lint --format json`` for machine consumption, exit code
1 on findings — the gate ``make lint`` and CI run).
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

from repro.core import Cluster, RLDConfig, RLDOptimizer, ParameterSpace
from repro.core.diagram import compute_plan_diagram
from repro.engine.faults import FaultSchedule
from repro.query import make_optimizer
from repro.query.model import Query
from repro.runtime.comparison import build_standard_strategies, compare_strategies
from repro.util.validation import ensure_positive
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
        if rate_level > 0:
            uncertainty["rate"] = rate_level
    return query.default_estimates(uncertainty)


def _cmd_compile(args: argparse.Namespace) -> int:
    query = _load_query(args.query)
    with _bad_input():
        estimate = _estimate(query, args.level, args.rate_level, args.dims)
        cluster = Cluster.homogeneous(args.nodes, args.capacity)
        config = RLDConfig(
            epsilon=args.epsilon,
            physical_algorithm=args.algorithm,
            jobs=args.jobs,
        )
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
    # `workers:` entries are cumulative busy seconds across worker
    # processes — concurrent with the wall-clock stages, so they are
    # reported separately and excluded from the total.
    stages = {
        name: seconds
        for name, seconds in solution.stage_seconds.items()
        if not name.startswith("workers:")
    }
    workers = {
        name: seconds
        for name, seconds in solution.stage_seconds.items()
        if name.startswith("workers:")
    }
    total = sum(stages.values())
    print("\ncompile-time profile:")
    for name, seconds in stages.items():
        share = 100.0 * seconds / total if total > 0 else 0.0
        label = _STAGE_LABELS.get(name, name)
        print(f"  {label:<30} {seconds * 1000:>10.2f} ms  ({share:5.1f}%)")
    print(f"  {'total':<30} {total * 1000:>10.2f} ms")
    for name, seconds in workers.items():
        stage = name.removeprefix("workers:")
        label = f"worker busy ({stage})"
        print(f"  {label:<30} {seconds * 1000:>10.2f} ms  (concurrent)")
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
    if len(args.dims or ()) != 2:
        raise SystemExit("diagram requires exactly two --dims (a 2-D space)")
    with _bad_input():
        estimate = _estimate(query, args.level, 0, args.dims)
        space = ParameterSpace.from_estimates(
            estimate, points_per_level=args.points_per_level
        )
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
        ensure_positive(args.duration, "--duration")
        ensure_positive(args.rate_scale, "--rate-scale")
        workload = stock_workload(
            query, uncertainty_level=args.level, regime_period=args.regime_period
        ).scaled(args.rate_scale)
    strategies = build_standard_strategies(
        query, cluster, estimate=estimate, rld_config=config
    )
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


def _analysis_paths(args: argparse.Namespace) -> tuple[Path, list[Path]]:
    """Resolve ``--root`` and the requested paths; exit on missing ones."""
    root = Path(args.root).resolve()
    paths = [root / p for p in (args.paths or ["src/repro"])]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        raise SystemExit(f"no such path(s): {', '.join(missing)}")
    return root, paths


def _emit_report(report, args: argparse.Namespace, root: Path) -> int:
    """Apply ``--diff`` filtering, render, and return the exit code."""
    from repro.analysis import render_json, render_text

    if args.diff is not None:
        from repro.analysis.diff import changed_files, filter_report

        try:
            report = filter_report(report, changed_files(root, args.diff))
        except ValueError as exc:
            raise SystemExit(str(exc)) from exc
    print(render_json(report) if args.format == "json" else render_text(report))
    return report.exit_code


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import LintRunner
    from repro.analysis.rules import default_rules, resolve_rules

    rules = default_rules()
    if args.list_rules:
        width = max(len(rule.name) for rule in rules)
        for rule in rules:
            print(f"{rule.name:<{width}}  {rule.description}")
        return 0
    try:
        rules = resolve_rules(rules, args.disable or ())
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    root, paths = _analysis_paths(args)
    report = LintRunner(rules, root=root).run(paths)
    return _emit_report(report, args, root)


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.analysis import AuditRunner
    from repro.analysis.audit import all_passes
    from repro.analysis.rules import resolve_rules

    passes = all_passes()
    if args.list_passes:
        width = max(len(p.name) for p in passes)
        for audit_pass in passes:
            print(f"{audit_pass.name:<{width}}  {audit_pass.description}")
        return 0
    try:
        passes = resolve_rules(passes, args.disable or ())
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    root, paths = _analysis_paths(args)
    report = AuditRunner(passes, root=root).run(paths)
    return _emit_report(report, args, root)


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
    p_compile.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes pre-solving ERP corners (default 1 = "
        "serial; any value yields bitwise-identical solutions — see "
        "docs/architecture.md 'Parallel compile')",
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
        "--strategies", nargs="+", default=["ROD", "DYN", "RLD"]
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

    def analysis_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "paths",
            nargs="*",
            help="files/directories relative to --root (default: src/repro)",
        )
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )
        p.add_argument(
            "--root",
            default=".",
            help="repository root that rule path scopes are resolved against",
        )
        p.add_argument(
            "--disable",
            nargs="*",
            metavar="RULE",
            help="rule names to skip for this run",
        )
        p.add_argument(
            "--diff",
            metavar="REV",
            default=None,
            help=(
                "report only findings in files changed since REV "
                "(git diff + untracked); analysis still covers everything"
            ),
        )

    p_lint = sub.add_parser(
        "lint", help="run the repro-lint invariant checker (repro.analysis)"
    )
    analysis_common(p_lint)
    p_lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    p_lint.set_defaults(handler=_cmd_lint)

    p_audit = sub.add_parser(
        "audit",
        help=(
            "run the whole-program audit passes (call-graph, aliasing, "
            "fault-path, RNG discipline)"
        ),
    )
    analysis_common(p_audit)
    p_audit.add_argument(
        "--list-passes",
        action="store_true",
        help="print the audit-pass catalog and exit",
    )
    p_audit.set_defaults(handler=_cmd_audit)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
