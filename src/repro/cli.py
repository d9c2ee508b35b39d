"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``list``
    Show the application suite, DNN models, and reproducible figures.
``run APP``
    Simulate one application on one configuration and print its metrics.
``compare APP``
    Run all five invalidation schemes on one application.
``figure NAME``
    Regenerate one paper figure (e.g. ``fig11``) and print its series;
    optionally export to CSV/JSON.
``trace APP``
    Generate a workload and save its trace to a JSON file.
``golden``
    Check or regenerate the golden event-trace fixtures
    (``tests/golden/*.jsonl``) that pin the translation pipeline's
    event-level behaviour.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path
from typing import List, Optional

from . import experiments
from .config import InvalidationScheme, MigrationPolicy, baseline_config
from .experiments.runner import ExperimentRunner
from .metrics.export import series_to_csv, series_to_json
from .metrics.report import format_series, format_table
from .workloads.dnn import DNN_MODELS
from .workloads.suite import APP_ORDER, APPS

__all__ = ["main"]

#: figure-name → experiments entry point.
FIGURES = {
    "table3": experiments.table3_mpki,
    "fig01": experiments.fig01_invalidation_overhead,
    "fig02": experiments.fig02_migration_policies,
    "fig04": experiments.fig04_page_sharing,
    "fig05": experiments.fig05_walker_request_mix,
    "fig06": experiments.fig06_demand_latency_no_inval,
    "fig07": experiments.fig07_migration_waiting_share,
    "fig11": experiments.fig11_overall_performance,
    "fig12": experiments.fig12_demand_latency_idyll,
    "fig13": experiments.fig13_invalidation_requests,
    "fig14": experiments.fig14_migration_waiting_idyll,
    "fig15": experiments.fig15_irmb_sizes,
    "fig16": experiments.fig16_ptw_threads,
    "fig17": experiments.fig17_l2_tlb_2048,
    "fig18": experiments.fig18_gpu_scaling,
    "fig19": experiments.fig19_unused_bits,
    "fig20": experiments.fig20_counter_threshold,
    "fig21": experiments.fig21_large_pages,
    "fig22": experiments.fig22_page_replication,
    "fig23": experiments.fig23_transfw,
    "fig24": experiments.fig24_dnn,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="IDYLL (MICRO 2023) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list applications, models and figures")

    def add_sim_args(p: argparse.ArgumentParser) -> None:
        """Common simulation sizing flags."""
        p.add_argument("--gpus", type=int, default=4)
        p.add_argument("--lanes", type=int, default=4)
        p.add_argument("--accesses", type=int, default=1200, help="per lane")
        p.add_argument("--seed", type=int, default=7)
        p.add_argument(
            "--no-fastpath",
            action="store_true",
            help="disable the batched replay fast path (pure event engine; "
            "results are identical either way)",
        )

    run = sub.add_parser("run", help="simulate one application")
    run.add_argument(
        "app",
        nargs="?",
        default=None,
        help=f"one of {APP_ORDER} or a DNN model (omit with --resume)",
    )
    run.add_argument(
        "--scheme",
        choices=[s.value for s in InvalidationScheme],
        default=InvalidationScheme.BROADCAST.value,
    )
    run.add_argument(
        "--policy",
        choices=[p.value for p in MigrationPolicy],
        default=MigrationPolicy.ACCESS_COUNTER.value,
    )
    run.add_argument(
        "--trace",
        metavar="PATH",
        help="record the full event trace and write it to PATH",
    )
    run.add_argument(
        "--trace-format",
        choices=["jsonl", "chrome"],
        default="jsonl",
        help="jsonl (canonical) or chrome (open in chrome://tracing)",
    )
    run.add_argument(
        "--trace-limit",
        type=int,
        default=1_000_000,
        help="ring-buffer capacity in records (oldest dropped beyond this)",
    )
    run.add_argument(
        "--faults",
        metavar="SPEC",
        help=(
            "inject seeded interconnect/walker faults; SPEC is "
            "'<preset>[,knob=value,...]' with presets light, moderate, "
            "heavy (e.g. --faults heavy,drop=0.3,ack_timeout=2000)"
        ),
    )
    run.add_argument(
        "--audit",
        metavar="CYCLES",
        type=int,
        default=None,
        help=(
            "run the translation-consistency auditors every CYCLES "
            "cycles (and at quiesce) even without --faults"
        ),
    )
    run.add_argument(
        "--checkpoint-every",
        metavar="CYCLES",
        type=int,
        default=None,
        help=(
            "write a restorable checkpoint every CYCLES simulated cycles "
            "(see DESIGN.md §9)"
        ),
    )
    run.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default="checkpoints",
        help="where ckpt-*.ckpt files go (default: ./checkpoints)",
    )
    run.add_argument(
        "--resume",
        metavar="CKPT",
        default=None,
        help=(
            "resume a run from a checkpoint file and play it to completion "
            "(APP and sizing flags come from the checkpoint)"
        ),
    )
    run.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help=(
            "also write the result as canonical JSON (sorted keys, compact, "
            "one line) — byte-identical to the job service's artifact for "
            "the same run; '-' writes to stdout"
        ),
    )
    add_sim_args(run)

    compare = sub.add_parser("compare", help="all invalidation schemes on one app")
    compare.add_argument("app")
    add_sim_args(compare)

    figure = sub.add_parser("figure", help="regenerate one paper figure")
    figure.add_argument("name", choices=sorted(FIGURES))
    figure.add_argument("--csv", help="also export the series to a CSV file")
    figure.add_argument("--json", help="also export the series to a JSON file")
    figure.add_argument("--lanes", type=int, default=None)
    figure.add_argument("--accesses", type=int, default=None)
    figure.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the figure's runs (default: $REPRO_JOBS or 1)",
    )
    figure.add_argument(
        "--workers",
        metavar="SPEC[,SPEC...]",
        default=None,
        help=(
            "distributed sweep over host agents: comma-separated "
            "local:K (spawned on this box) and/or tcp:host:port[:K] "
            "(remote `python -m repro.experiments.hostagent --listen "
            "PORT`); e.g. --workers local:2,local:2 simulates two "
            "2-worker hosts for CI.  Overrides --jobs."
        ),
    )
    figure.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the on-disk result cache (see $REPRO_CACHE_DIR)",
    )
    figure.add_argument(
        "--resume-sweep",
        action="store_true",
        help=(
            "continue an interrupted sweep from its journal and result "
            "cache: finished runs are served from disk, quarantined "
            "poison runs are skipped"
        ),
    )

    trace = sub.add_parser("trace", help="generate and save a workload trace")
    trace.add_argument("app")
    trace.add_argument("output", help="output JSON path")
    add_sim_args(trace)

    bench = sub.add_parser("bench", help="pinned micro/macro performance benchmarks")
    bench.add_argument(
        "--quick", action="store_true", help="smaller sizes (CI smoke tier)"
    )
    bench.add_argument(
        "--only",
        nargs="+",
        metavar="NAME",
        help="run only the named benchmarks (see repro.bench.BENCHMARKS)",
    )
    bench.add_argument(
        "--repeat", type=int, default=3, help="repeats per benchmark; best kept"
    )
    bench.add_argument(
        "--output-dir", default=".", help="where BENCH_<name>.json files go"
    )
    bench.add_argument(
        "--compare",
        metavar="DIR",
        help="compare against committed BENCH_*.json files; exit 1 on regression",
    )
    bench.add_argument(
        "--profile-out",
        metavar="FILE",
        help="also run each selected benchmark once under cProfile and "
        "write the top-25 cumulative-time functions to FILE",
    )
    bench.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="allowed fractional wall-time growth before failing (default 0.10)",
    )

    golden = sub.add_parser("golden", help="golden event-trace fixtures")
    action = golden.add_mutually_exclusive_group(required=True)
    action.add_argument(
        "--update", action="store_true", help="regenerate all fixtures"
    )
    action.add_argument(
        "--check", action="store_true", help="verify fixtures match current behaviour"
    )
    action.add_argument("--list", action="store_true", help="list scenarios")
    golden.add_argument(
        "--dir",
        dest="golden_dir",
        default=None,
        help="fixture directory (default: <repo>/tests/golden)",
    )

    chaos = sub.add_parser(
        "chaos",
        help="failure-trace chaos campaigns (generate traces, run "
        "campaigns with recovery metrics)",
    )
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)

    gen = chaos_sub.add_parser(
        "gen", help="generate a seeded failure trace for a topology"
    )
    gen.add_argument("output", help="trace output path (JSONL)")
    gen.add_argument("--gpus", type=int, default=4)
    gen.add_argument(
        "--horizon", type=int, default=2_000_000,
        help="trace length in cycles (default 2M)",
    )
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument(
        "--link-mttf", type=int, default=400_000,
        help="mean cycles between failures per link",
    )
    gen.add_argument(
        "--gpu-mttf", type=int, default=600_000,
        help="mean cycles between walker-storm/IRMB-wave episodes per GPU",
    )
    gen.add_argument(
        "--down-fraction", type=float, default=0.3,
        help="probability a link failure is a total outage (vs degraded)",
    )
    gen.add_argument(
        "--mean-outage", type=int, default=20_000,
        help="cap on link_down episode length in cycles",
    )
    gen.add_argument(
        "--mean-degraded", type=int, default=60_000,
        help="mean degraded-window length in cycles",
    )

    crun = chaos_sub.add_parser(
        "run", help="run a campaign: workload + failure trace + recovery metrics"
    )
    crun.add_argument(
        "app", nargs="?", default=None,
        help=f"one of {APP_ORDER} or a DNN model (omit with --resume)",
    )
    crun.add_argument(
        "--trace", metavar="PATH", default=None,
        help="failure trace from `repro chaos gen` (required unless --resume)",
    )
    crun.add_argument(
        "--scheme",
        choices=[s.value for s in InvalidationScheme],
        default=InvalidationScheme.BROADCAST.value,
    )
    crun.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="uniform base fault rates layered under the trace "
        "(same SPEC syntax as `repro run --faults`)",
    )
    crun.add_argument(
        "--report", metavar="PATH", default=None,
        help="also write the campaign report as JSON to PATH",
    )
    crun.add_argument(
        "--checkpoint-every", metavar="CYCLES", type=int, default=None,
        help="periodic restorable checkpoints (see `repro run`)",
    )
    crun.add_argument(
        "--checkpoint-dir", metavar="DIR", default="checkpoints",
    )
    crun.add_argument(
        "--resume", metavar="CKPT", default=None,
        help="resume a checkpointed campaign (trace and sizing come from "
        "the checkpoint)",
    )
    add_sim_args(crun)

    cdump = chaos_sub.add_parser(
        "dump",
        help="protocol-history diff tool: run a faulted+audited "
        "simulation on the traced event path and dump the full message "
        "history (mapping updates, invalidations, acks with sequence "
        "numbers) of the first audit-violating VPN",
    )
    cdump.add_argument(
        "app", help=f"one of {APP_ORDER} or a DNN model"
    )
    cdump.add_argument(
        "--vpn", type=lambda s: int(s, 0), default=None, metavar="N",
        help="dump this page instead of the first violating one "
        "(hex like 0x2a or decimal; also works on clean runs)",
    )
    cdump.add_argument(
        "--faults", metavar="SPEC", default="heavy",
        help="fault profile to provoke the violation (default: heavy; "
        "same SPEC syntax as `repro run --faults`)",
    )
    cdump.add_argument(
        "--audit", type=int, default=20_000, metavar="CYCLES",
        help="periodic invariant-audit interval (default 20000)",
    )
    cdump.add_argument(
        "--scheme",
        choices=[s.value for s in InvalidationScheme],
        default=InvalidationScheme.IDYLL.value,
    )
    cdump.add_argument(
        "--per-vpn", type=int, default=2048, metavar="N",
        help="history records kept per page (oldest dropped)",
    )
    add_sim_args(cdump)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing of the replay tiers "
        "(event path vs batched fast path)",
    )
    fuzz.add_argument(
        "--runs", type=int, default=50, help="number of random cases"
    )
    fuzz.add_argument(
        "--seed", type=int, default=0, help="campaign master seed"
    )
    fuzz.add_argument(
        "--spec",
        default=None,
        help="replay one JSON FuzzSpec (as printed by a failing run) "
        "instead of a random campaign",
    )
    fuzz.add_argument(
        "--quiet", action="store_true", help="suppress per-case progress"
    )

    serve = sub.add_parser(
        "serve",
        help="run the HTTP job service (see DESIGN.md §12)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642)
    serve.add_argument(
        "--jobs", type=int, default=2,
        help="worker pool size (concurrent simulations)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=16,
        help="bounded admission queue depth; beyond it POST /jobs gets "
        "429 with a Retry-After hint",
    )
    serve.add_argument(
        "--cache-dir", default=".repro-cache",
        metavar="DIR",
        help="content-addressed result cache = artifact store; the job "
        "journal and checkpoints live under it too",
    )
    serve.add_argument(
        "--checkpoint-every", type=int, default=100_000, metavar="CYCLES",
        help="default RCKP cadence for jobs that do not set their own "
        "(0 disables; checkpoints are what crash recovery resumes from)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="graceful-shutdown budget: running jobs get this long to "
        "finish before being checkpoint-snapshotted for the next boot",
    )
    serve.add_argument(
        "--max-attempts", type=int, default=3,
        help="retries per task before quarantine (supervisor policy)",
    )
    serve.add_argument(
        "--task-deadline", type=float, default=None, metavar="SECONDS",
        help="hang watchdog: kill and retry a task silent this long",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )

    return parser


def _runner_for(args) -> ExperimentRunner:
    return ExperimentRunner(
        lanes=getattr(args, "lanes", None),
        accesses_per_lane=getattr(args, "accesses", None),
        seed=getattr(args, "seed", None),
    )


def _cmd_list() -> int:
    rows = [
        [a.abbr, a.full_name, a.suite, a.pattern, a.paper_mpki] for a in APPS.values()
    ]
    print(format_table(
        "Applications (Table 3)",
        ["abbr", "name", "suite", "pattern", "paper MPKI"],
        rows,
    ))
    print(f"\nDNN models: {', '.join(sorted(DNN_MODELS))}")
    print(f"Figures:    {', '.join(sorted(FIGURES))}")
    return 0


def _print_result(result, file=None) -> None:
    skip = {"extras", "workload", "scheme", "num_gpus"}
    for key, value in asdict(result).items():
        if key in skip:
            continue
        if isinstance(value, float):
            print(f"  {key:<28} {value:.3f}", file=file)
        else:
            print(f"  {key:<28} {value}", file=file)


def _report_abort(result, system) -> int:
    if not result.aborted:
        return 0
    print(f"\nABORTED: {result.abort_reason}", file=sys.stderr)
    dump = getattr(system, "abort_dump", "") if system is not None else ""
    if dump:
        print(dump, file=sys.stderr)
    return 3


def _write_result_json(result, target: str) -> None:
    from .metrics.export import result_to_json_bytes

    blob = result_to_json_bytes(result)
    if target == "-":
        sys.stdout.buffer.write(blob)
        sys.stdout.buffer.flush()
    else:
        with open(target, "wb") as fh:
            fh.write(blob)
        print(f"wrote {target}")


def _cmd_run(args) -> int:
    if args.resume:
        from .sim.snapshot import CheckpointError, resume_run

        try:
            system, result = resume_run(
                args.resume,
                checkpoint_every=args.checkpoint_every,
                checkpoint_dir=args.checkpoint_dir,
            )
        except CheckpointError as exc:
            print(f"error: cannot resume from {args.resume}: {exc}", file=sys.stderr)
            return 2
        # With --json - the payload owns stdout; the human summary
        # moves to stderr so the stream stays machine-parseable.
        human = sys.stderr if args.json == "-" else None
        print(
            f"{result.workload} resumed from {args.resume} "
            f"({result.num_gpus} GPUs, scheme={result.scheme})",
            file=human,
        )
        _print_result(result, file=human)
        if args.json:
            _write_result_json(result, args.json)
        return _report_abort(result, system)
    if not args.app:
        print("error: APP is required unless --resume is given", file=sys.stderr)
        return 2
    runner = _runner_for(args)
    config = baseline_config(args.gpus).with_scheme(InvalidationScheme(args.scheme))
    config = config.with_policy(MigrationPolicy(args.policy))
    if args.no_fastpath:
        config = config.with_fastpath(False)
    if args.faults:
        from .config import ConfigError
        from .faults.profiles import parse_fault_spec

        try:
            fault_config, chaos_path = parse_fault_spec(args.faults, with_trace=True)
            if chaos_path is not None:
                from .experiments.campaign import campaign_config
                from .faults.tracegen import load_trace

                spec = load_trace(chaos_path, expect_num_gpus=args.gpus)
                config = campaign_config(config, spec, faults=fault_config)
            else:
                config = config.with_faults(fault_config)
        except ConfigError as exc:
            print(f"error: bad --faults spec: {exc}", file=sys.stderr)
            return 2
    if args.audit is not None:
        config = config.with_faults(
            audit_interval=args.audit, audit_on_quiesce=True
        )

    system = None
    if (args.trace or args.faults or args.audit is not None
            or args.checkpoint_every):
        # Faulted/audited/checkpointed runs bypass the memoising runner
        # so the abort diagnostics (protocol-state dump) and checkpoint
        # controller stay accessible.
        from .gpu.system import MultiGPUSystem

        workload = runner.workload(args.app, num_gpus=args.gpus)
        tracer = None
        if args.trace:
            from .sim.trace import TraceRecorder

            tracer = TraceRecorder(capacity=args.trace_limit)
        system = MultiGPUSystem(config, seed=runner.seed, tracer=tracer)
        result = system.run(
            workload,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint_dir if args.checkpoint_every else None,
        )
        if args.checkpoint_every:
            controller = system._controller
            print(
                f"wrote {controller.written} checkpoint(s) to {args.checkpoint_dir}",
                file=sys.stderr if args.json == "-" else None,
            )
        if args.trace:
            from .metrics.trace_export import trace_to_chrome, trace_to_jsonl

            export = trace_to_chrome if args.trace_format == "chrome" else trace_to_jsonl
            count = export(tracer, args.trace)
            print(
                f"wrote {args.trace}: {count:,} {args.trace_format} trace records"
                + (f" ({tracer.dropped:,} dropped)" if tracer.dropped else ""),
                file=sys.stderr if args.json == "-" else None,
            )
    else:
        result = runner.run(args.app, config)
    human = sys.stderr if args.json == "-" else None
    print(
        f"{args.app} on {args.gpus} GPUs, scheme={args.scheme}, "
        f"policy={args.policy}",
        file=human,
    )
    _print_result(result, file=human)
    if args.json:
        _write_result_json(result, args.json)
    return _report_abort(result, system)


def _cmd_compare(args) -> int:
    runner = _runner_for(args)
    base_config = baseline_config(args.gpus)
    if args.no_fastpath:
        base_config = base_config.with_fastpath(False)
    base = runner.run(args.app, base_config)
    rows = []
    for scheme in InvalidationScheme:
        result = runner.run(args.app, base_config.with_scheme(scheme))
        rows.append([
            scheme.value,
            result.exec_time,
            result.speedup_over(base),
            result.invalidations_sent,
            result.migration_waiting_mean,
            result.demand_miss_mean_latency,
        ])
    print(format_table(
        f"{args.app}: invalidation schemes on {args.gpus} GPUs",
        ["scheme", "cycles", "speedup", "invals", "mig wait", "miss lat"],
        rows,
    ))
    return 0


def _cmd_figure(args) -> int:
    import os

    from .experiments.cache import ResultCache
    from .experiments.parallel import ParallelRunner, SweepInterrupted

    cache = None
    if not args.no_cache and os.environ.get("REPRO_CACHE") != "0":
        cache = ResultCache()
    if args.resume_sweep and cache is None:
        print(
            "error: --resume-sweep needs the result cache (drop --no-cache "
            "and unset REPRO_CACHE=0)",
            file=sys.stderr,
        )
        return 2
    if args.workers:
        from .experiments.fabric import FabricRunner, parse_workers

        if cache is None:
            print(
                "error: --workers needs the result cache — it is the "
                "shared store hosts push results to (drop --no-cache "
                "and unset REPRO_CACHE=0)",
                file=sys.stderr,
            )
            return 2
        try:
            specs = parse_workers(args.workers)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        runner = FabricRunner(
            specs,
            lanes=args.lanes,
            accesses_per_lane=args.accesses,
            cache=cache,
        )
    else:
        runner = ParallelRunner(
            lanes=args.lanes,
            accesses_per_lane=args.accesses,
            jobs=args.jobs,
            cache=cache,
        )
    try:
        series = runner.run_figure(FIGURES[args.name], resume=args.resume_sweep)
    except SweepInterrupted as exc:
        print(f"\n{exc}", file=sys.stderr)
        return 130
    apps = sorted({a for values in series.values() for a in values})
    ordered = [a for a in APP_ORDER if a in apps] + [a for a in apps if a not in APP_ORDER]
    print(format_series(args.name, series, ordered))
    if args.csv:
        series_to_csv(series, args.csv)
        print(f"wrote {args.csv}")
    if args.json:
        series_to_json(series, args.json)
        print(f"wrote {args.json}")
    return 0


def _default_golden_dir() -> Path:
    """``tests/golden`` of the source checkout this package runs from."""
    return Path(__file__).resolve().parents[2] / "tests" / "golden"


def _cmd_golden(args) -> int:
    from .experiments.scenarios import SCENARIOS, scenario_lines

    if args.list:
        for name in sorted(SCENARIOS):
            print(name)
        return 0

    golden_dir = Path(args.golden_dir) if args.golden_dir else _default_golden_dir()
    if args.update:
        golden_dir.mkdir(parents=True, exist_ok=True)
        for name in sorted(SCENARIOS):
            lines = scenario_lines(name)
            path = golden_dir / f"{name}.jsonl"
            path.write_text("\n".join(lines) + "\n")
            print(f"wrote {path} ({len(lines)} records)")
        return 0

    # --check
    failures = 0
    for name in sorted(SCENARIOS):
        path = golden_dir / f"{name}.jsonl"
        if not path.exists():
            print(f"MISSING {path} (run `python -m repro golden --update`)")
            failures += 1
            continue
        expected = path.read_text().splitlines()
        actual = scenario_lines(name)
        if actual == expected:
            print(f"ok      {name} ({len(actual)} records)")
            continue
        failures += 1
        print(f"DRIFT   {name}: {len(actual)} records vs {len(expected)} golden")
        for i, (a, e) in enumerate(zip(actual, expected)):
            if a != e:
                print(f"  first diff at record {i}:\n    golden : {e}\n    actual : {a}")
                break
        else:
            i = min(len(actual), len(expected))
            extra = actual[i] if len(actual) > len(expected) else expected[i]
            print(f"  length differs from record {i}: {extra}")
    return 1 if failures else 0


def _cmd_trace(args) -> int:
    from .workloads.io import save_workload

    runner = _runner_for(args)
    workload = runner.workload(args.app, num_gpus=args.gpus)
    save_workload(workload, args.output)
    print(
        f"wrote {args.output}: {workload.total_accesses():,} accesses, "
        f"{workload.footprint_pages():,} pages"
    )
    return 0


def _cmd_chaos_gen(args) -> int:
    from collections import Counter

    from .faults.tracegen import generate_trace, save_trace

    spec = generate_trace(
        args.gpus,
        args.horizon,
        args.seed,
        link_mttf=args.link_mttf,
        gpu_mttf=args.gpu_mttf,
        link_down_fraction=args.down_fraction,
        mean_outage=args.mean_outage,
        mean_degraded=args.mean_degraded,
    )
    path = save_trace(spec, args.output)
    kinds = Counter(ep.kind for ep in spec.episodes)
    pretty = ", ".join(f"{k}={v}" for k, v in sorted(kinds.items())) or "none"
    print(
        f"wrote {path}: {len(spec.episodes)} episodes over {args.horizon:,} "
        f"cycles for {args.gpus} GPUs (fingerprint {spec.fingerprint})"
    )
    print(f"  {pretty}")
    return 0


def _cmd_chaos_run(args) -> int:
    from .config import ConfigError
    from .experiments.campaign import (
        campaign_config, campaign_report, format_report, run_campaign,
        write_report,
    )
    from .faults.profiles import parse_fault_spec
    from .faults.tracegen import load_trace

    if args.resume:
        from .sim.snapshot import CheckpointError

        try:
            system, result = run_campaign(
                args.app or "",
                None,
                lanes=args.lanes,
                accesses_per_lane=args.accesses,
                seed=args.seed,
                checkpoint_every=args.checkpoint_every,
                checkpoint_dir=args.checkpoint_dir,
                resume_from=args.resume,
            )
        except CheckpointError as exc:
            print(f"error: cannot resume from {args.resume}: {exc}", file=sys.stderr)
            return 2
    else:
        if not args.app or not args.trace:
            print(
                "error: APP and --trace are required unless --resume is given",
                file=sys.stderr,
            )
            return 2
        try:
            spec = load_trace(args.trace, expect_num_gpus=args.gpus)
            faults = (
                parse_fault_spec(args.faults) if args.faults else None
            )
            config = baseline_config(args.gpus).with_scheme(
                InvalidationScheme(args.scheme)
            )
            if args.no_fastpath:
                config = config.with_fastpath(False)
            config = campaign_config(config, spec, faults=faults)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        system, result = run_campaign(
            args.app,
            config,
            lanes=args.lanes,
            accesses_per_lane=args.accesses,
            seed=args.seed,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint_dir,
        )
    if args.checkpoint_every and system._controller is not None:
        controller = system._controller
        print(
            f"wrote {controller.written} checkpoint(s) to {args.checkpoint_dir}"
        )
    report = campaign_report(system, result)
    print(format_report(report))
    if args.report:
        write_report(report, args.report)
        print(f"wrote {args.report}")
    return _report_abort(result, system)


def _cmd_chaos_dump(args) -> int:
    from .faults.history import ProtocolHistory, first_violating_vpn, format_history
    from .faults.profiles import parse_fault_spec
    from .gpu.system import MultiGPUSystem

    config = baseline_config(args.gpus).with_scheme(
        InvalidationScheme(args.scheme)
    )
    if args.faults:
        from .config import ConfigError

        try:
            config = config.with_faults(parse_fault_spec(args.faults))
        except ConfigError as exc:
            print(f"error: bad --faults spec: {exc}", file=sys.stderr)
            return 2
    config = config.with_faults(
        audit_interval=args.audit, audit_on_quiesce=True
    )
    # The traced event path is mandatory here: message-level
    # interleavings (the thing being dumped) do not exist on the
    # replay fast path.  Attaching a live tracer forces it.
    history = ProtocolHistory(per_vpn=args.per_vpn)
    runner = _runner_for(args)
    workload = runner.workload(args.app, num_gpus=args.gpus)
    system = MultiGPUSystem(config, seed=runner.seed, tracer=history)
    result = system.run(workload)

    vpn = args.vpn
    if vpn is None:
        vpn = first_violating_vpn(getattr(system, "last_violations", []))
    if result.aborted:
        print(f"ABORTED: {result.abort_reason}", file=sys.stderr)
        if vpn is None:
            # Watchdog/deadlock aborts name no page; fall back to the
            # protocol-state dump so the run is still diagnosable.
            print(
                "no violating VPN identified (non-auditor abort?); "
                "pass --vpn N to dump a specific page",
                file=sys.stderr,
            )
            if system.abort_dump:
                print(system.abort_dump, file=sys.stderr)
            return 3
        print(format_history(history, vpn))
        return 3
    if vpn is not None:
        print(format_history(history, vpn))
    else:
        print(
            f"run completed cleanly after {system.audits_run} audit(s); "
            f"no violating VPN to dump (pass --vpn N to inspect a page, "
            f"or raise fault rates via --faults)"
        )
    return 0


def _cmd_chaos(args) -> int:
    if args.chaos_command == "gen":
        return _cmd_chaos_gen(args)
    if args.chaos_command == "dump":
        return _cmd_chaos_dump(args)
    return _cmd_chaos_run(args)


def _cmd_fuzz(args) -> int:
    from .experiments.fuzz import FuzzSpec, check_spec, fuzz

    if args.spec:
        spec = FuzzSpec.from_json(args.spec)
        report = check_spec(spec)
        if report is not None:
            print(report)
            return 1
        print("OK: all replay tiers agree (event/fastpath)")
        return 0

    def progress(i, runs, spec):
        if not args.quiet:
            print(
                f"[{i + 1}/{runs}] gpus={spec.num_gpus} lanes={spec.lanes} "
                f"accesses={spec.accesses} scheme={spec.scheme} "
                f"batch_limit={spec.batch_limit} "
                f"inflight={spec.inflight_per_cu} seed={spec.seed}",
                flush=True,
            )

    failures = fuzz(args.runs, args.seed, progress=progress)
    if failures:
        print(f"\n{len(failures)}/{args.runs} cases diverged:\n")
        for report in failures:
            print(report)
            print()
        return 1
    print(f"fuzz campaign clean: {args.runs} cases, tiers event/fastpath")
    return 0


def _cmd_serve(args) -> int:
    from .experiments.cache import ResultCache
    from .service import JobManager
    from .service.server import serve as serve_forever

    cache = ResultCache(args.cache_dir)
    manager = JobManager(
        cache,
        workers=args.jobs,
        queue_limit=args.queue_limit,
        checkpoint_every=args.checkpoint_every or None,
        drain_timeout=args.drain_timeout,
        supervisor_opts={
            "max_attempts": args.max_attempts,
            "task_deadline": args.task_deadline,
        },
    )
    serve_forever(manager, args.host, args.port, verbose=args.verbose)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "bench":
        from .bench import main as bench_main

        return bench_main(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "golden":
        return _cmd_golden(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "serve":
        return _cmd_serve(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
