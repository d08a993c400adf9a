"""Command-line interface: ``repro <experiment>``.

Runs any of the paper's experiments from the shell and prints the
corresponding table/figure.  Subcommands:

* ``fig1`` — motivational-example probabilities.
* ``fig4`` — the three case-study optimal assignments.
* ``table2`` / ``table3`` — the published similarity tables.
* ``table5`` — the diversity metric d_bn.
* ``table6`` — MTTC simulation (``--runs`` controls the batch size).
* ``table7`` / ``table8`` / ``table9`` — scalability sweeps; ``--workers N``
  spreads the grid cells over N processes (see :mod:`repro.runner`;
  ``REPRO_WORKERS`` in the environment overrides the default).
* ``synthetic-nvd`` — regenerate similarity tables from the synthetic feed.

Extension commands (beyond the paper's tables):

* ``effort`` — least attacking effort and k-zero-day safety.
* ``richness`` — effective-richness diversity metric d1.
* ``plan`` — greedy budgeted upgrade plan from the mono-culture.
* ``adversary`` — attacker-knowledge sweep (the paper's future work).
* ``sensitivity`` — similarity-perturbation sensitivity (``--workers`` too).
* ``stream`` — incremental re-diversification under synthetic network churn
  (the :mod:`repro.stream` engine; ``--compare-cold`` prints per-event
  speedups over a cold rebuild+solve).
* ``serve`` — the always-on diversification daemon (:mod:`repro.service`):
  HTTP event ingestion with backpressure, snapshot-consistent reads,
  Prometheus metrics, on-disk snapshots and ``--restore`` warm restarts.
* ``trace`` — run a workload (``diversify`` / ``stream`` /
  ``serve-replay``) under the :mod:`repro.obs` tracer and emit a Chrome
  trace-event file (Perfetto / ``chrome://tracing`` viewable) plus a
  per-layer/top-spans text breakdown (``docs/observability.md``).
* ``dot`` — Graphviz export of the case study with similarity heat.

``docs/cli.md`` catalogues every subcommand and flag.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import experiments
from repro.nvd.datasets import (
    paper_browser_similarity,
    paper_database_similarity,
    paper_os_similarity,
)

__all__ = ["main", "build_parser"]


def _buckets_value(value: str):
    """``--solve-buckets`` takes comma-separated ascending seconds."""
    try:
        return tuple(float(part) for part in value.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--solve-buckets takes comma-separated floats, got {value!r}"
        ) from None


def _add_log_level(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--log-level`` flag (repro.obs.logging levels)."""
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="info",
        help="threshold of the structured log output (default info)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``repro`` entry point."""
    from repro.mrf.solvers import active_kernel_backend, available_solvers

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Scalable Approach to Enhancing ICS Resilience "
            "by Network Diversity' (DSN 2020)"
        ),
        epilog=(
            f"solvers: {', '.join(available_solvers())} | "
            f"active kernel backend: {active_kernel_backend()}"
        ),
    )
    parser.add_argument(
        "--backend",
        choices=("auto", "numpy", "native"),
        default=None,
        help=(
            "kernel backend for the vectorized solvers (bit-for-bit "
            "identical; default auto = REPRO_BACKEND or best available; "
            "see docs/kernels.md)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("fig1", help="motivational example (Fig. 1)")
    sub.add_parser("fig4", help="case-study optimal assignments (Fig. 4)")
    sub.add_parser("table2", help="OS similarity table (Table II)")
    sub.add_parser("table3", help="browser similarity table (Table III)")
    sub.add_parser("tabledb", help="database similarity table (curated)")

    t5 = sub.add_parser("table5", help="diversity metric d_bn (Table V)")
    t5.add_argument("--entry", default="c4")
    t5.add_argument("--seed", type=int, default=11)

    t6 = sub.add_parser("table6", help="MTTC simulation (Table VI)")
    t6.add_argument("--runs", type=int, default=200)
    t6.add_argument("--seed", type=int, default=11)
    t6.add_argument(
        "--workers",
        type=int,
        default=None,
        help="simulation cells run in this many processes (-1 = one per "
        "CPU; default serial, or the REPRO_WORKERS env var when set); "
        "results are identical, only faster",
    )

    for name, help_text in (
        ("table7", "runtime vs hosts (Table VII)"),
        ("table8", "runtime vs degree (Table VIII)"),
        ("table9", "runtime vs services (Table IX)"),
    ):
        t = sub.add_parser(name, help=help_text)
        t.add_argument("--seed", type=int, default=0)
        t.add_argument(
            "--full",
            action="store_true",
            help="run at the paper's full scale (minutes, not seconds)",
        )
        t.add_argument(
            "--workers",
            type=int,
            default=None,
            help="grid cells run in this many processes (-1 = one per CPU; "
            "default serial, or the REPRO_WORKERS env var when set); "
            "energies and edge counts are identical, and the first cell "
            "each worker runs also times its warm-up",
        )

    nvd = sub.add_parser(
        "synthetic-nvd", help="similarity tables from the synthetic NVD feed"
    )
    nvd.add_argument("--seed", type=int, default=7)
    nvd.add_argument("--cves-per-year", type=int, default=200)

    effort = sub.add_parser("effort", help="least attack effort / k-zero-day")
    effort.add_argument("--entry", default="c4")
    effort.add_argument("--target", default="t5")
    effort.add_argument("--threshold", type=float, default=0.2,
                        help="similarity threshold for zero-day grouping")

    sub.add_parser("richness", help="effective-richness diversity metric d1")

    plan = sub.add_parser("plan", help="budgeted upgrade plan from mono-culture")
    plan.add_argument("--budget", type=int, default=5)

    adversary = sub.add_parser(
        "adversary", help="attacker-knowledge sweep (paper future work)"
    )
    adversary.add_argument("--entry", default="c4")
    adversary.add_argument("--target", default="t5")
    adversary.add_argument("--runs", type=int, default=300)
    adversary.add_argument("--seed", type=int, default=7)

    sens = sub.add_parser(
        "sensitivity",
        help="similarity-perturbation sensitivity of the case-study optimum",
    )
    sens.add_argument("--noise", type=float, nargs="+", default=[0.1, 0.3, 0.5],
                      help="relative similarity noise levels")
    sens.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2],
                      help="perturbation seeds per noise level")
    sens.add_argument("--workers", type=int, default=None,
                      help="(noise, seed) cells run in this many processes "
                      "(-1 = one per CPU; default serial, or the "
                      "REPRO_WORKERS env var when set)")

    stream = sub.add_parser(
        "stream",
        help="incremental re-diversification under synthetic network churn",
    )
    stream.add_argument("--hosts", type=int, default=60)
    stream.add_argument("--degree", type=int, default=3)
    stream.add_argument("--services", type=int, default=3)
    stream.add_argument("--products", type=int, default=6)
    stream.add_argument("--events", type=int, default=15)
    stream.add_argument("--seed", type=int, default=1)
    stream.add_argument(
        "--constraint-weight",
        type=float,
        default=0.0,
        help="relative frequency of operator-constraint events "
        "(pin/unpin/forbid/allow/combination updates) alongside the "
        "topology and feed churn; 0 (default) disables constraint churn",
    )
    stream.add_argument(
        "--constraint-burst",
        type=int,
        default=1,
        help="constraint events per draw — >1 models bulk policy loads "
        "(a compliance file, not a single rule)",
    )
    stream.add_argument(
        "--cold",
        action="store_true",
        help="disable warm starts (every event pays a cold rebuild+solve)",
    )
    stream.add_argument(
        "--compare-cold",
        action="store_true",
        help="also time a from-scratch cold solve per event and print the "
        "speedup column",
    )
    _add_log_level(stream)

    serve = sub.add_parser(
        "serve",
        help="always-on diversification daemon (HTTP ingestion + reads)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="listen address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8351,
                       help="listen port; 0 binds an ephemeral port")
    serve.add_argument(
        "--network",
        default=None,
        help="bootstrap from a JSON network file (the repro.network.io "
        "format, constraints included); omitted, a synthetic network is "
        "generated from --hosts/--degree/--services/--products/--seed",
    )
    serve.add_argument(
        "--similarity",
        default=None,
        help="similarity table JSON (the repro.nvd.io format) — required "
        "with --network",
    )
    serve.add_argument("--hosts", type=int, default=60)
    serve.add_argument("--degree", type=int, default=3)
    serve.add_argument("--services", type=int, default=3)
    serve.add_argument("--products", type=int, default=6)
    serve.add_argument("--seed", type=int, default=1)
    serve.add_argument(
        "--cold",
        action="store_true",
        help="disable warm starts (every batch pays a cold rebuild+solve)",
    )
    serve.add_argument("--batch-max", type=int, default=64,
                       help="max events applied per solve (default 64)")
    serve.add_argument(
        "--high-water",
        type=int,
        default=1024,
        help="queue depth past which POST /events answers 429 (default 1024)",
    )
    serve.add_argument("--retry-after", type=float, default=1.0,
                       help="Retry-After seconds sent with a 429 (default 1)")
    serve.add_argument(
        "--snapshot-dir",
        default=None,
        help="directory for plan snapshots; unset disables snapshotting",
    )
    serve.add_argument(
        "--snapshot-every",
        type=int,
        default=0,
        help="snapshot every N solves (0 = only the shutdown snapshot)",
    )
    serve.add_argument("--keep-snapshots", type=int, default=3,
                       help="snapshots retained on disk (default 3)")
    serve.add_argument(
        "--restore",
        action="store_true",
        help="warm-restart from the newest valid snapshot under "
        "--snapshot-dir (corrupt generations are skipped), replaying the "
        "--wal tail on top; with --wal but no usable snapshot the full "
        "log is replayed from a fresh bootstrap",
    )
    serve.add_argument(
        "--wal",
        default=None,
        metavar="DIR",
        help="directory for the write-ahead event log; unset disables "
        "durability (events live only in memory until snapshotted)",
    )
    serve.add_argument(
        "--fsync",
        choices=("always", "batch", "off"),
        default="batch",
        help="WAL fsync policy: always = fsync before acknowledging each "
        "POST (zero acked loss on power failure), batch = fsync once per "
        "writer batch (default), off = leave flushing to the OS",
    )
    serve.add_argument(
        "--fault-plan",
        default=None,
        metavar="SPEC",
        help="deterministic fault injection for resilience drills, e.g. "
        "'wal.append:crash:100' or 'solve:error:5,snapshot:error:2' "
        "(point:action[:after[:count]]; crashes SIGKILL the process). "
        "Never set in production",
    )
    _add_log_level(serve)
    serve.add_argument(
        "--trace-tail",
        type=int,
        default=0,
        help="keep the most recent N trace events and serve them on "
        "GET /debug/trace (0 = tracing off, the default)",
    )
    serve.add_argument(
        "--solve-buckets",
        type=_buckets_value,
        default=None,
        help="comma-separated ascending upper bounds (seconds) of the "
        "solve-latency histograms, e.g. 0.005,0.05,0.5,5 (default: the "
        "built-in repro.service.metrics.SOLVE_BUCKETS)",
    )

    wal = sub.add_parser(
        "wal",
        help="inspect, replay, or repair a service write-ahead log",
    )
    wal.add_argument(
        "wal_action",
        choices=("inspect", "replay", "truncate"),
        help="inspect: per-segment summary; replay: rebuild the plan from "
        "snapshot + log tail offline and report the final state; "
        "truncate: drop a torn tail so the next start is clean",
    )
    wal.add_argument("wal_dir", metavar="DIR", help="the WAL directory")
    wal.add_argument(
        "--snapshot-dir",
        default=None,
        help="replay: start from the newest valid snapshot here instead "
        "of replaying the whole log onto the bootstrap network",
    )
    wal.add_argument("--hosts", type=int, default=60)
    wal.add_argument("--degree", type=int, default=3)
    wal.add_argument("--services", type=int, default=3)
    wal.add_argument("--products", type=int, default=6)
    wal.add_argument("--seed", type=int, default=1,
                     help="bootstrap-network knobs for replay without a "
                     "snapshot; must match the crashed daemon's")
    _add_log_level(wal)

    trace = sub.add_parser(
        "trace",
        help="run a workload under tracing; emit a Chrome trace + breakdown",
    )
    trace.add_argument(
        "workload",
        choices=("diversify", "stream", "serve-replay"),
        help="diversify: one batch compile+solve; stream: churn replay "
        "on the incremental engine; serve-replay: the same churn fed "
        "through the HTTP service",
    )
    trace.add_argument("--hosts", type=int, default=120)
    trace.add_argument("--degree", type=int, default=3)
    trace.add_argument("--services", type=int, default=3)
    trace.add_argument("--products", type=int, default=6)
    trace.add_argument("--events", type=int, default=20,
                       help="churn events (stream / serve-replay)")
    trace.add_argument("--seed", type=int, default=1)
    trace.add_argument("--out", default="repro-trace.json",
                       help="Chrome trace-event output file (default "
                       "repro-trace.json; open in Perfetto)")
    trace.add_argument("--jsonl", default=None,
                       help="also write the raw span stream as JSON-Lines")
    trace.add_argument("--top", type=int, default=15,
                       help="rows in the top-spans table (default 15)")
    _add_log_level(trace)

    dot = sub.add_parser("dot", help="Graphviz export of the case study")
    dot.add_argument("--out", default="case_study.dot")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.backend is not None:
        from repro.mrf.backends import set_default_backend

        set_default_backend(args.backend)
    handler = _HANDLERS[args.command]
    handler(args)
    return 0


# ------------------------------------------------------------------ handlers


def _fig1(args: argparse.Namespace) -> None:
    print("Fig. 1 — probability of the target being compromised")
    for panel, probability in experiments.fig1_motivational().items():
        print(f"  panel ({panel}): {probability:.4f}")


def _fig4(args: argparse.Namespace) -> None:
    results = experiments.fig4_assignments()
    reference = results["optimal"].assignment
    for label, result in results.items():
        print(f"=== {label} ===")
        print(result.summary())
        if label != "optimal":
            changed = sorted({host for host, _ in reference.diff(result.assignment)})
            print(f"hosts changed vs optimal: {', '.join(changed) or '(none)'}")
        print(result.assignment.format())
        print()


def _table(table) -> None:
    print(table.format_table())


def _table5(args: argparse.Namespace) -> None:
    print("Table V — diversity metric d_bn (entry "
          f"{args.entry}, target t5)")
    for label, report in experiments.table5_diversity(
        entry=args.entry, seed=args.seed
    ).items():
        print("  " + report.row(label))


def _table6(args: argparse.Namespace) -> None:
    print(f"Table VI — MTTC in ticks ({args.runs} runs per cell)")
    results = experiments.table6_mttc(
        runs=args.runs, seed=args.seed, workers=args.workers
    )
    for (label, entry), result in results.items():
        print("  " + result.row(label))


def _table7(args: argparse.Namespace) -> None:
    hosts = (100, 200, 400, 600, 800, 1000)
    if args.full:
        hosts = hosts + (2000, 4000, 6000)
    print("Table VII — optimisation time vs #hosts")
    for (label, count), cell in experiments.table7_rows(
        host_counts=hosts, seed=args.seed, workers=args.workers,
    ).items():
        print(f"  {label:<14} " + cell.row())


def _table8(args: argparse.Namespace) -> None:
    scales = [("mid-scale", 1000, 15)]
    if args.full:
        scales.append(("large-scale", 6000, 25))
    print("Table VIII — optimisation time vs degree")
    for (label, degree), cell in experiments.table8_rows(
        scales=scales, seed=args.seed, workers=args.workers,
    ).items():
        print(f"  {label:<14} " + cell.row())


def _table9(args: argparse.Namespace) -> None:
    scales = [("mid-scale", 1000, 20)]
    if args.full:
        scales.append(("large-scale", 6000, 40))
    print("Table IX — optimisation time vs services per host")
    for (label, services), cell in experiments.table9_rows(
        scales=scales, seed=args.seed, workers=args.workers,
    ).items():
        print(f"  {label:<14} " + cell.row())


def _synthetic_nvd(args: argparse.Namespace) -> None:
    from repro.nvd.generator import (
        SyntheticNVDConfig,
        generate_synthetic_nvd,
        product_cpe_map,
    )
    from repro.nvd.similarity import similarity_table_from_database

    config = SyntheticNVDConfig(seed=args.seed, cves_per_year=args.cves_per_year)
    database = generate_synthetic_nvd(config)
    print(f"synthetic feed: {len(database)} CVE records, "
          f"{len(database.products())} products")
    table = similarity_table_from_database(
        database, product_cpe_map(config), since=1999, until=2016
    )
    print(table.format_table())


def _case_pair():
    """(case, mono, optimal) used by the extension commands."""
    from repro.casestudy.stuxnet import stuxnet_case_study
    from repro.core import diversify, mono_assignment

    case = stuxnet_case_study()
    mono = mono_assignment(case.network)
    optimal = diversify(case.network, case.similarity).assignment
    return case, mono, optimal


def _effort(args: argparse.Namespace) -> None:
    from repro.metrics import k_zero_day_safety, least_attack_effort

    case, mono, optimal = _case_pair()
    print(f"Least attacking effort ({args.entry} → {args.target})")
    for label, assignment in (("mono", mono), ("optimal", optimal)):
        result = least_attack_effort(
            case.network, assignment, args.entry, args.target
        )
        print("  " + result.row(label))
        kzd = k_zero_day_safety(
            case.network, assignment, case.similarity,
            args.entry, args.target, threshold=args.threshold,
        )
        print("  " + kzd.row(f"{label} k-0day@{args.threshold}"))


def _richness(args: argparse.Namespace) -> None:
    from repro.core import random_assignment
    from repro.metrics import effective_richness

    case, mono, optimal = _case_pair()
    print("Effective richness d1")
    rows = (
        ("optimal", optimal),
        ("random", random_assignment(case.network, seed=11)),
        ("mono", mono),
    )
    for label, assignment in rows:
        print("  " + effective_richness(case.network, assignment).row(label))


def _plan(args: argparse.Namespace) -> None:
    from repro.core.planner import plan_upgrade

    case, mono, _ = _case_pair()
    plan = plan_upgrade(case.network, case.similarity, mono, budget=args.budget)
    print(plan.describe())


def _adversary(args: argparse.Namespace) -> None:
    from repro.adversary import knowledge_sweep

    case, mono, optimal = _case_pair()
    for label, assignment in (("mono", mono), ("optimal", optimal)):
        print(f"--- {label} assignment")
        sweep = knowledge_sweep(
            case.network, assignment, case.similarity,
            args.entry, args.target, runs=args.runs, seed=args.seed,
        )
        for result in sweep.values():
            print("  " + result.row())


def _sensitivity(args: argparse.Namespace) -> None:
    from repro.analysis.sensitivity import similarity_perturbation_sensitivity
    from repro.casestudy.stuxnet import stuxnet_case_study

    case = stuxnet_case_study()
    print("Similarity-perturbation sensitivity (case study)")
    results = similarity_perturbation_sensitivity(
        case.network,
        case.similarity,
        noise_levels=tuple(args.noise),
        seeds=tuple(args.seeds),
        workers=args.workers,
    )
    for result in results:
        print("  " + result.row())


def _stream(args: argparse.Namespace) -> None:
    from repro.network.generator import (
        RandomNetworkConfig,
        random_network,
        random_similarity,
    )
    from repro.obs.logging import setup_logging
    from repro.stream import ChurnConfig, random_churn_trace, replay_trace

    setup_logging(args.log_level)
    config = RandomNetworkConfig(
        hosts=args.hosts,
        degree=args.degree,
        services=args.services,
        products_per_service=args.products,
        seed=args.seed,
    )
    network = random_network(config)
    similarity = random_similarity(config)
    trace = random_churn_trace(
        network,
        ChurnConfig(
            events=args.events,
            seed=args.seed,
            constraint_weight=args.constraint_weight,
            constraint_burst=args.constraint_burst,
        ),
    )
    print(
        f"Streaming churn — {args.hosts} hosts, {args.events} events, "
        f"warm starts {'off' if args.cold else 'on'}"
    )
    report = replay_trace(
        network,
        similarity,
        trace,
        warm_start=not args.cold,
        compare_cold=args.compare_cold,
    )
    print(report.format_rows())
    print(report.summary())


def _bootstrap_service(args: argparse.Namespace, config, recover: bool = False):
    """Build a service from ``--network`` or the synthetic generator.

    Returns ``(service, origin)``; ``recover=True`` replays any existing
    WAL records onto the bootstrap state at startup.
    """
    from repro.service import DiversificationService

    if args.network:
        from pathlib import Path

        from repro.network.io import network_from_json
        from repro.nvd.io import load_similarity

        if not args.similarity:
            raise SystemExit("--network needs --similarity (see repro.nvd.io)")
        network, constraints = network_from_json(Path(args.network).read_text())
        similarity = load_similarity(args.similarity)
        service = DiversificationService(
            network,
            similarity,
            config=config,
            constraints=constraints,
            recover=recover,
        )
        return service, args.network
    from repro.network.generator import (
        RandomNetworkConfig,
        random_network,
        random_similarity,
    )

    generator = RandomNetworkConfig(
        hosts=args.hosts,
        degree=args.degree,
        services=args.services,
        products_per_service=args.products,
        seed=args.seed,
    )
    service = DiversificationService(
        random_network(generator),
        random_similarity(generator),
        config=config,
        recover=recover,
    )
    return service, f"synthetic ({args.hosts} hosts, seed {args.seed})"


def _serve(args: argparse.Namespace) -> None:
    import asyncio

    from repro.obs.logging import setup_logging
    from repro.service import DiversificationService, ServiceConfig

    setup_logging(args.log_level)
    fault_plan = None
    if args.fault_plan:
        from repro.service import parse_fault_plan

        fault_plan = parse_fault_plan(args.fault_plan, hard=True)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        warm_start=not args.cold,
        batch_max=args.batch_max,
        high_water=args.high_water,
        retry_after=args.retry_after,
        snapshot_dir=args.snapshot_dir,
        snapshot_every=args.snapshot_every,
        keep_snapshots=args.keep_snapshots,
        log_level=args.log_level,
        trace_tail=args.trace_tail,
        solve_buckets=args.solve_buckets,
        wal_dir=args.wal,
        fsync=args.fsync,
        fault_plan=fault_plan,
    )
    if args.restore:
        if not config.snapshots_enabled and not config.wal_enabled:
            raise SystemExit("--restore needs --snapshot-dir and/or --wal")
        service = None
        if config.snapshots_enabled:
            try:
                service = DiversificationService.from_snapshot(config)
                origin = f"snapshot under {config.snapshot_dir}"
            except ValueError as problem:
                if not config.wal_enabled:
                    raise SystemExit(str(problem)) from problem
                print(f"no usable snapshot ({problem}); replaying full WAL")
        if service is None:
            # No (usable) snapshot: bootstrap the configured network and
            # replay the whole log on top of it.
            service, origin = _bootstrap_service(args, config, recover=True)
            origin += f" + WAL replay from {config.wal_dir}"
    else:
        service, origin = _bootstrap_service(args, config)

    async def _run() -> None:
        await service.start()
        print(
            f"repro serve — listening on http://{config.host}:{service.port}, "
            f"plan from {origin}"
        )
        if config.snapshots_enabled:
            cadence = (
                f"every {config.snapshot_every} solves"
                if config.snapshot_every
                else "on shutdown only"
            )
            print(
                f"snapshots -> {config.snapshot_dir} "
                f"({cadence}, keep {config.keep_snapshots})"
            )
        if config.wal_enabled:
            print(f"wal -> {config.wal_dir} (fsync={config.fsync})")
        await service.run_until_stopped()

    asyncio.run(_run())
    print("repro serve — drained and stopped")


def _wal(args: argparse.Namespace) -> None:
    from repro.obs.logging import setup_logging
    from repro.service import inspect_wal, replay_wal, truncate_torn_tail

    setup_logging(args.log_level)
    if args.wal_action == "inspect":
        rows = inspect_wal(args.wal_dir)
        if not rows:
            print(f"no WAL segments under {args.wal_dir}")
            return
        header = f"{'segment':<24} {'first':>8} {'last':>8} {'records':>8}  state"
        print(header)
        print("-" * len(header))
        for row in rows:
            state = "ok" if not row["torn"] else f"torn ({row['reason']})"
            print(
                f"{row['segment']:<24} {row['first_seq']:>8} "
                f"{row['last_seq']:>8} {row['records']:>8}  {state}"
            )
        return
    if args.wal_action == "truncate":
        actions = truncate_torn_tail(args.wal_dir)
        if not actions:
            print(f"WAL under {args.wal_dir} is clean; nothing to do")
            return
        for action in actions:
            print(f"{action['action']}: {action['segment']} ({action['reason']})")
        return

    # replay: rebuild the final plan offline and report it.
    from repro.service import latest_valid_snapshot, restore_engine

    engine = None
    after_seq = 0
    if args.snapshot_dir:
        found = latest_valid_snapshot(args.snapshot_dir)
        if found is not None:
            path, snapshot = found
            engine, snapshot = restore_engine(snapshot)
            after_seq = snapshot.wal_seq
            print(f"restored {path.name} (wal_seq {after_seq})")
        else:
            print(f"no valid snapshot under {args.snapshot_dir}; "
                  "replaying the full log")
    if engine is None:
        from repro.network.generator import (
            RandomNetworkConfig,
            random_network,
            random_similarity,
        )
        from repro.stream import DynamicDiversifier

        generator = RandomNetworkConfig(
            hosts=args.hosts,
            degree=args.degree,
            services=args.services,
            products_per_service=args.products,
            seed=args.seed,
        )
        engine = DynamicDiversifier(
            random_network(generator), random_similarity(generator)
        )
    applied = 0
    failed = 0
    last = after_seq
    for seq, event in replay_wal(args.wal_dir, after_seq=after_seq):
        try:
            engine.apply(event)
        except Exception as problem:
            failed += 1
            print(f"seq {seq}: {type(event).__name__} failed: {problem}")
        else:
            applied += 1
        last = seq
    result = engine.solve()
    print(
        f"replayed {applied} event(s) after seq {after_seq} "
        f"(last seq {last}, {failed} failed)"
    )
    print(
        f"final energy {result.energy:.6f} over "
        f"{len(engine.network.hosts)} hosts"
    )


def _trace_workload_config(args: argparse.Namespace):
    """The synthetic (network, similarity, churn trace) of ``repro trace``."""
    from repro.network.generator import (
        RandomNetworkConfig,
        random_network,
        random_similarity,
    )
    from repro.stream import ChurnConfig, random_churn_trace

    config = RandomNetworkConfig(
        hosts=args.hosts,
        degree=args.degree,
        services=args.services,
        products_per_service=args.products,
        seed=args.seed,
    )
    network = random_network(config)
    similarity = random_similarity(config)
    events = random_churn_trace(
        network,
        ChurnConfig(events=args.events, seed=args.seed, constraint_weight=0.3),
    )
    return network, similarity, events


def _trace_diversify(args: argparse.Namespace) -> None:
    """``repro trace diversify``: one batch compile+solve."""
    from repro.core.diversify import diversify

    network, similarity, _events = _trace_workload_config(args)
    result = diversify(network, similarity)
    print(f"diversify: energy {result.energy:.6f}")


def _trace_stream(args: argparse.Namespace) -> None:
    """``repro trace stream``: churn replay on the incremental engine."""
    from repro.stream import replay_trace

    network, similarity, events = _trace_workload_config(args)
    report = replay_trace(network, similarity, events)
    print(report.summary())


def _trace_serve_replay(args: argparse.Namespace) -> None:
    """``repro trace serve-replay``: the churn fed through the daemon.

    The service runs on a background thread's event loop and joins the
    CLI's ambient trace (the recorder is process-global), so writer-side
    batch/solve spans land in the same timeline as the client-side replay.
    """
    import asyncio
    import threading

    from repro.service import DiversificationService, ServiceClient, ServiceConfig

    network, similarity, events = _trace_workload_config(args)
    config = ServiceConfig(
        port=0,
        batch_max=1,
        log_level=args.log_level,
    )
    service = DiversificationService(network, similarity, config=config)
    started = threading.Event()

    def run_service() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)

        async def serve() -> None:
            await service.start()
            started.set()
            await service._stopped.wait()

        try:
            loop.run_until_complete(serve())
        finally:
            loop.close()

    thread = threading.Thread(target=run_service, name="repro-serve", daemon=True)
    thread.start()
    if not started.wait(timeout=60):
        raise SystemExit("service failed to start within 60s")
    client = ServiceClient(port=service.port, timeout=30)
    accepted = client.send(events)
    client.wait_idle(timeout=120)
    payload = client.assignment()
    client.shutdown()
    thread.join(timeout=60)
    print(
        f"serve-replay: {accepted} events over HTTP, final energy "
        f"{payload['energy']:.6f} (version {payload['version']})"
    )


_TRACE_WORKLOADS = {
    "diversify": _trace_diversify,
    "stream": _trace_stream,
    "serve-replay": _trace_serve_replay,
}


def _trace_cmd(args: argparse.Namespace) -> None:
    """``repro trace``: run a workload under tracing, emit trace + report."""
    from repro import obs
    from repro.obs.logging import setup_logging

    setup_logging(args.log_level)
    trace = obs.Trace()
    obs.activate(trace)
    try:
        _TRACE_WORKLOADS[args.workload](args)
    finally:
        obs.deactivate()
    trace.write_chrome(args.out)
    lines = [f"wrote {args.out} ({len(trace.events)} events) — open in "
             f"Perfetto or chrome://tracing"]
    if args.jsonl:
        trace.write_jsonl(args.jsonl)
        lines.append(f"wrote {args.jsonl} (JSON-Lines span stream)")
    print("\n".join(lines))
    print()
    print(obs.format_summary(trace.events, trace.counters, top=args.top))


def _dot(args: argparse.Namespace) -> None:
    from pathlib import Path

    from repro.casestudy.stuxnet import ZONES
    from repro.viz import to_dot

    case, _, optimal = _case_pair()
    text = to_dot(
        case.network, optimal, case.similarity, zones=ZONES,
        title="Stuxnet case study — optimal diversification",
    )
    Path(args.out).write_text(text)
    print(f"wrote {args.out} ({len(text.splitlines())} lines); render with "
          f"`dot -Tpng {args.out} -o case_study.png`")


_HANDLERS = {
    "fig1": _fig1,
    "fig4": _fig4,
    "table2": lambda args: _table(paper_os_similarity()),
    "table3": lambda args: _table(paper_browser_similarity()),
    "tabledb": lambda args: _table(paper_database_similarity()),
    "table5": _table5,
    "table6": _table6,
    "table7": _table7,
    "table8": _table8,
    "table9": _table9,
    "synthetic-nvd": _synthetic_nvd,
    "effort": _effort,
    "richness": _richness,
    "plan": _plan,
    "adversary": _adversary,
    "sensitivity": _sensitivity,
    "stream": _stream,
    "serve": _serve,
    "wal": _wal,
    "trace": _trace_cmd,
    "dot": _dot,
}


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
