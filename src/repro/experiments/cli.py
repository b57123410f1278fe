"""Command-line entry point: ``repro-experiments``.

Examples
--------
Regenerate Figure 6 at the paper's scale::

    repro-experiments --figure 6 --scale paper

Quick look at every figure (default scale is ``quick``; override with the
``REPRO_SCALE`` environment variable)::

    repro-experiments --figure all

Run the ablations::

    repro-experiments --ablation all

Scale a paper-sized campaign across every core::

    repro-experiments --figure 6 --scale paper --backend process

Numbers are byte-identical across backends (each cell derives its own RNG
stream); only wall-clock changes.

Make campaign results durable — a repeated run, an added algorithm, or an
extended sweep only pays for unseen cells::

    repro-experiments --figure all --cache-dir .repro-cache
    repro-experiments --figure all --cache-dir .repro-cache   # all hits

Evaluate the on-line batch wrapper (arrival-horizon sweep)::

    repro-experiments --online --cache-dir .repro-cache

Replay a Parallel Workloads Archive log (or the synthetic fixtures under
``tests/data/traces``) through the on-line batch framework — every
moldability model, DEMT off-line engine, batch + clairvoyant modes::

    repro-experiments replay trace.swf --model all
    repro-experiments --backend process --cache-dir .repro-cache \
        replay trace.swf --model downey --window 0:5000 --export replayed.swf

Replay the same arrivals under every on-line policy of the registry
(batch framework, FCFS, EASY backfilling, greedy-interval) and print the
(Cmax, mean flow) Pareto front of the policy axis::

    repro-experiments replay trace.swf --mode all --front

Sweep the bi-criteria trade-off (DEMT knobs + the algorithm registry) and
print per-instance Pareto fronts with quality indicators — synthetic
families and SWF trace windows alike::

    repro-experiments pareto mixed cirne --indicators --charts
    repro-experiments --cache-dir .repro-cache \
        pareto trace:log.swf --model downey --window 0:200 --sweep demt-knobs

Run a robustness campaign — inject runtime misestimation, machine
failures and adversarial arrivals into the on-line simulation, compare
nominal vs degraded makespans per off-line engine, and mark the engines
on the (nominal, degraded) Pareto front.  The campaign engine retries
crashed cells and quarantines poison ones instead of aborting::

    repro-experiments robustness mixed --noise lognormal:0.4 \
        --failures exp:30:5 --engines demt gang
    repro-experiments --backend process robustness mixed \
        --scenario 'overestimate:4|exp:50:5|bursty:4' --retries 3
"""

from __future__ import annotations

import argparse
import os
import sys

from repro import obs
from repro.experiments.ablation import ABLATIONS
from repro.experiments.config import SCALES, resolve_scale
from repro.experiments.engine import BACKENDS, resolve_cache
from repro.experiments.figures import FIGURES, figure7
from repro.experiments.reporting import (
    format_campaign_charts,
    format_campaign_table,
    format_replay_table,
    format_timing_table,
)
from repro.utils.log import configure as _configure_logging, get_logger

__all__ = ["main"]

#: CLI status lines (``[cache]`` / ``[export]`` / ``[trace]``) go through
#: the ``repro`` logging namespace at INFO — on stdout, byte-identical to
#: the prints they replaced, and silenced by ``--quiet``.
_logger = get_logger("repro.cli")


def _positive_int(value: str) -> int:
    jobs = int(value)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the figures of Dutot et al. (SPAA 2004).",
    )
    parser.add_argument(
        "--figure",
        choices=[*FIGURES, "all"],
        help="which figure to regenerate (3-7, or 'all')",
    )
    parser.add_argument(
        "--ablation",
        choices=[*ABLATIONS, "all"],
        help="run an ablation study instead of / in addition to figures",
    )
    parser.add_argument(
        "--scale",
        choices=list(SCALES),
        default=None,
        help="campaign scale (default: $REPRO_SCALE or 'quick')",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the campaign seed"
    )
    parser.add_argument(
        "--charts", action="store_true", help="also render ASCII charts"
    )
    parser.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default=None,
        help="cell executor: 'serial' (default), 'thread' (zero-copy "
        "threads; parallel when the compiled kernels release the GIL) or "
        "'process' (all cores); defaults to $REPRO_BACKEND or 'serial'",
    )
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help="workers for --backend thread/process (default: usable cpus)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent cell cache directory: campaign results are "
        "journalled there and re-runs only pay for unseen cells",
    )
    parser.add_argument(
        "--online",
        action="store_true",
        help="also run the on-line batch-scheduling evaluation (DEMT "
        "off-line engine, arrival-horizon sweep)",
    )
    parser.add_argument(
        "--trace",
        dest="trace_out",
        default=None,
        metavar="FILE",
        help="write a trace of the run: Chrome-trace JSON (load in "
        "chrome://tracing or Perfetto), or JSONL when FILE ends in "
        ".jsonl ($REPRO_TRACE overrides when the flag is absent)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics summary (counters, histograms, span "
        "flame) after the run",
    )
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument(
        "--verbose",
        action="store_true",
        help="debug-level diagnostics on the repro.* logging namespace",
    )
    verbosity.add_argument(
        "--quiet",
        action="store_true",
        help="suppress status lines ([cache]/[export]/[trace]); "
        "warnings and tables still print",
    )

    # Subcommands (optional — the flag-driven figure/ablation interface
    # above keeps working unchanged).
    from repro.experiments.replay import REPLAY_ENGINES
    from repro.pareto.sweep import SWEEPS
    from repro.workloads.trace import MOLDABILITY_MODELS

    sub = parser.add_subparsers(
        dest="command", metavar="{replay,pareto,robustness}"
    )
    replay = sub.add_parser(
        "replay",
        help="replay an SWF trace through the on-line batch framework",
        description="Replay a Parallel Workloads Archive log: columnar "
        "ingestion, moldability reconstruction, on-line batch scheduling, "
        "and (optionally) SWF re-export of the simulated execution.",
    )
    replay.add_argument("trace", help="path to the SWF log")
    replay.add_argument(
        "--model",
        nargs="+",
        default=["rigid"],
        choices=[*MOLDABILITY_MODELS, "all"],
        help="moldability reconstruction model(s) (default: rigid)",
    )
    from repro.experiments.replay import REPLAY_MODES

    replay.add_argument(
        "--mode",
        choices=[*REPLAY_MODES, "both", "all"],
        default="both",
        help="replay mode: 'clairvoyant', an on-line policy (batch, fcfs, "
        "fcfs-backfill, greedy-interval), 'both' (= batch + clairvoyant, "
        "with the on-line/clairvoyant ratio) or 'all' (every mode)",
    )
    replay.add_argument(
        "--front",
        action="store_true",
        help="also sweep every on-line policy and print the "
        "(Cmax, mean flow) Pareto front of the policy axis",
    )
    replay.add_argument(
        "--engine",
        choices=list(REPLAY_ENGINES),
        default="demt",
        help="off-line engine inside the batch framework (default: demt)",
    )
    replay.add_argument(
        "--m", type=_positive_int, default=None,
        help="machine size (default: the log's MaxProcs header)",
    )
    replay.add_argument(
        "--window",
        default=None,
        metavar="OFFSET:COUNT",
        help="replay only COUNT jobs starting at row OFFSET",
    )
    replay.add_argument(
        "--export",
        default=None,
        metavar="OUT.swf",
        help="also write the simulated execution (batch mode, first "
        "model) back out as an SWF log",
    )
    replay.add_argument(
        "--validate",
        action="store_true",
        help="feasibility-check every replayed schedule",
    )
    # The executor flags again, so they may also follow the subcommand
    # (SUPPRESS: only overwrite the top-level value when actually given).
    replay.add_argument(
        "--backend", choices=list(BACKENDS), default=argparse.SUPPRESS,
        help=argparse.SUPPRESS,
    )
    replay.add_argument(
        "--jobs", type=_positive_int, default=argparse.SUPPRESS,
        help=argparse.SUPPRESS,
    )
    replay.add_argument(
        "--cache-dir", default=argparse.SUPPRESS, help=argparse.SUPPRESS
    )
    _add_obs_flags(replay)

    pareto = sub.add_parser(
        "pareto",
        help="sweep the bi-criteria trade-off and print Pareto fronts",
        description="Trade-off sweep: run a set of scheduler variants "
        "(DEMT knob deviations plus the algorithm registry) over seeded "
        "campaign instances or an SWF trace window, compute per-instance "
        "Pareto fronts in ratio space, and report front membership and "
        "quality indicators.",
    )
    pareto.add_argument(
        "source",
        nargs="*",
        default=["mixed"],
        help="workload kind(s) and/or 'trace:<path>' specs (default: mixed)",
    )
    pareto.add_argument(
        "--sweep",
        choices=list(SWEEPS),
        default="full",
        help="variant set (default: full = registry + DEMT knob deviations)",
    )
    pareto.add_argument(
        "--n",
        type=_positive_int,
        nargs="+",
        default=None,
        help="task counts per synthetic source (default: the scale's smallest)",
    )
    pareto.add_argument(
        "--runs",
        type=_positive_int,
        default=3,
        help="instances per (source, n) point (default: 3)",
    )
    pareto.add_argument(
        "--m", type=_positive_int, default=None,
        help="machine size (default: the scale's m; traces: MaxProcs header)",
    )
    pareto.add_argument(
        "--model",
        choices=list(MOLDABILITY_MODELS),
        default="downey",
        help="moldability reconstruction for trace sources (default: downey)",
    )
    pareto.add_argument(
        "--window",
        default=None,
        metavar="OFFSET:COUNT",
        help="window restriction for trace sources",
    )
    pareto.add_argument(
        "--indicators",
        action="store_true",
        help="also print per-cell front-quality indicators",
    )
    pareto.add_argument(
        "--validate",
        action="store_true",
        help="feasibility-check every swept schedule",
    )
    # The top-level --charts flag again, so it may follow the subcommand.
    pareto.add_argument(
        "--charts", action="store_true", default=argparse.SUPPRESS,
        help=argparse.SUPPRESS,
    )
    pareto.add_argument(
        "--backend", choices=list(BACKENDS), default=argparse.SUPPRESS,
        help=argparse.SUPPRESS,
    )
    pareto.add_argument(
        "--jobs", type=_positive_int, default=argparse.SUPPRESS,
        help=argparse.SUPPRESS,
    )
    pareto.add_argument(
        "--cache-dir", default=argparse.SUPPRESS, help=argparse.SUPPRESS
    )
    _add_obs_flags(pareto)

    from repro.faults.campaign import ROBUSTNESS_ENGINES

    robust = sub.add_parser(
        "robustness",
        help="fault-injection campaign: nominal vs degraded makespans",
        description="Robustness campaign: run seeded workload cells "
        "through the faulty on-line batch policy — scheduling on "
        "noise-perturbed estimates, surviving machine failures, under "
        "synthetic arrival patterns — and compare each off-line engine's "
        "nominal and degraded makespans.  Cells whose worker crashes are "
        "retried with backoff; poison cells are quarantined and marked "
        "in the table instead of aborting the campaign.",
    )
    robust.add_argument(
        "kind",
        nargs="?",
        default="mixed",
        help="workload family for the seeded cells (default: mixed)",
    )
    robust.add_argument(
        "--scenario",
        default="",
        metavar="NOISE|FAIL|ARRIVE",
        help="combined fault spec, e.g. 'lognormal:0.4|exp:50:5|bursty:4' "
        "(the three flags below override individual axes)",
    )
    robust.add_argument(
        "--noise",
        default=None,
        help="misestimation model: none, lognormal[:sigma], "
        "overestimate[:fmax]; append @SEED to reseed",
    )
    robust.add_argument(
        "--failures",
        default=None,
        help="machine-failure process: none or exp:MTBF:MTTR[@SEED]",
    )
    robust.add_argument(
        "--arrivals",
        default=None,
        help="arrival pattern: none, poisson[:load], bursty[:waves[:load]], "
        "adversarial",
    )
    robust.add_argument(
        "--engines",
        nargs="+",
        default=["demt"],
        choices=[*ROBUSTNESS_ENGINES, "all"],
        help="off-line engines to compare (default: demt)",
    )
    robust.add_argument(
        "--n",
        type=_positive_int,
        nargs="+",
        default=None,
        help="task counts (default: the scale's smallest)",
    )
    robust.add_argument(
        "--runs",
        type=_positive_int,
        default=3,
        help="instances per task count (default: 3)",
    )
    robust.add_argument(
        "--m", type=_positive_int, default=None,
        help="machine size (default: the scale's m)",
    )
    robust.add_argument(
        "--validate",
        action="store_true",
        help="feasibility-check every realized schedule against the truth",
    )
    robust.add_argument(
        "--retries",
        type=int,
        default=2,
        help="extra attempts per crashed cell before quarantine (default: 2)",
    )
    robust.add_argument(
        "--backoff",
        type=float,
        default=0.05,
        help="base retry backoff in seconds, doubled per attempt (default: 0.05)",
    )
    robust.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="retry any cell attempt exceeding this wall-clock budget; needs "
        "--backend process (kills the hung worker) or thread (abandons it)",
    )
    robust.add_argument(
        "--backend", choices=list(BACKENDS), default=argparse.SUPPRESS,
        help=argparse.SUPPRESS,
    )
    robust.add_argument(
        "--jobs", type=_positive_int, default=argparse.SUPPRESS,
        help=argparse.SUPPRESS,
    )
    robust.add_argument(
        "--cache-dir", default=argparse.SUPPRESS, help=argparse.SUPPRESS
    )
    _add_obs_flags(robust)
    return parser


def _add_obs_flags(sub: argparse.ArgumentParser) -> None:
    """The observability flags again, so they may follow the subcommand
    (SUPPRESS: only overwrite the top-level value when actually given)."""
    sub.add_argument(
        "--trace", dest="trace_out", default=argparse.SUPPRESS,
        metavar="FILE", help=argparse.SUPPRESS,
    )
    sub.add_argument(
        "--metrics", action="store_true", default=argparse.SUPPRESS,
        help=argparse.SUPPRESS,
    )


def _parse_window(spec: str | None) -> tuple[int, int] | None:
    if spec is None:
        return None
    try:
        offset, count = spec.split(":")
        window = (int(offset), int(count))
    except ValueError:
        raise SystemExit(f"--window must be OFFSET:COUNT, got {spec!r}")
    if window[0] < 0 or window[1] < 1:
        raise SystemExit(f"--window needs OFFSET >= 0 and COUNT >= 1, got {spec!r}")
    return window


def _run_replay(args, exec_kw: dict, cache) -> int:
    from repro.experiments.engine import CellCache
    from repro.experiments.replay import (
        REPLAY_ENGINES,
        export_replay_swf,
        replay_trace,
    )
    from repro.workloads.trace import MOLDABILITY_MODELS, load_trace

    try:
        trace = load_trace(args.trace)
    except OSError as exc:  # missing/unreadable path: clean one-line exit
        raise SystemExit(f"replay: cannot read trace: {exc}")
    except ValueError as exc:  # unparseable log
        raise SystemExit(f"replay: {exc}")
    models = list(MOLDABILITY_MODELS) if "all" in args.model else args.model
    modes = ("batch", "clairvoyant") if args.mode == "both" else args.mode
    offline = REPLAY_ENGINES[args.engine]
    window = _parse_window(args.window)
    if (args.front or args.export) and cache is None:
        # The front sweep and the export each replay cells the table
        # below needs again; an in-memory cache turns those into hits
        # even without --cache-dir.
        cache = CellCache()
    if args.front:
        from repro.experiments.reporting import format_policy_front_table
        from repro.pareto.sweep import sweep_online_policies

        front = sweep_online_policies(
            trace,
            "all",
            engines=args.engine,
            m=args.m,
            model=models[0],
            window=window,
            validate=args.validate,
            cache=cache,
            **exec_kw,
        )
        print(format_policy_front_table(front))
    if args.export:
        # Export first: its batch run seeds the cell cache, so the table
        # below serves that cell as a hit instead of re-scheduling it.
        text = export_replay_swf(
            trace, m=args.m, model=models[0], offline=offline, window=window,
            validate=args.validate, cache=cache,
        )
        with open(args.export, "w", encoding="utf-8") as fh:
            fh.write(text)
        _logger.info(
            "[export] simulated execution (%s/batch) written to %s",
            models[0], args.export,
        )
    results = replay_trace(
        trace,
        m=args.m,
        models=models,
        modes=modes,
        offline=offline,
        window=window,
        validate=args.validate,
        cache=cache,
        **exec_kw,
    )
    print(format_replay_table(results))
    return 0


def _run_pareto(args, cfg, exec_kw: dict, cache) -> int:
    from repro.pareto.sweep import sweep_tradeoffs
    from repro.experiments.reporting import (
        format_front_charts,
        format_front_table,
        format_indicator_table,
    )

    window = _parse_window(args.window)
    task_counts = tuple(args.n) if args.n else (min(cfg.task_counts),)
    for source in args.source:
        try:
            result = sweep_tradeoffs(
                source,
                args.sweep,
                m=args.m if args.m is not None else (
                    None if source.startswith("trace:") else cfg.m
                ),
                task_counts=task_counts,
                runs=args.runs,
                seed=cfg.seed,
                model=args.model,
                window=window,
                validate=args.validate,
                cache=cache,
                **exec_kw,
            )
        except OSError as exc:  # trace:<path> missing/unreadable
            raise SystemExit(f"pareto: cannot read trace: {exc}")
        except ValueError as exc:  # bad source/sweep spec: clean CLI error
            raise SystemExit(f"pareto: {exc}")
        print(format_front_table(result))
        if args.indicators:
            print(format_indicator_table(result))
        if args.charts:
            print(format_front_charts(result))
    return 0


def _run_robustness(args, cfg, exec_kw: dict, cache) -> int:
    from repro.exceptions import ModelError
    from repro.experiments.engine import RetryPolicy
    from repro.experiments.reporting import format_robustness_table
    from repro.faults.campaign import (
        ROBUSTNESS_ENGINES,
        parse_scenario,
        run_robustness_campaign,
    )

    try:
        scenario = parse_scenario(
            args.scenario,
            noise=args.noise,
            failures=args.failures,
            arrivals=args.arrivals,
        )
    except ModelError as exc:
        raise SystemExit(f"robustness: {exc}")
    try:
        policy = RetryPolicy(
            retries=args.retries, backoff=args.backoff, timeout=args.cell_timeout
        )
    except ValueError as exc:
        raise SystemExit(f"robustness: {exc}")
    if policy.timeout is not None and exec_kw["backend"] == "serial":
        raise SystemExit(
            "robustness: --cell-timeout cannot stop a cell on the serial "
            "backend; use --backend thread or --backend process"
        )
    engines = (
        ROBUSTNESS_ENGINES if "all" in args.engines else tuple(args.engines)
    )
    task_counts = tuple(args.n) if args.n else (min(cfg.task_counts),)
    try:
        result = run_robustness_campaign(
            args.kind,
            task_counts,
            args.runs,
            scenario,
            engines=engines,
            seed=cfg.seed,
            m=args.m if args.m is not None else cfg.m,
            validate=args.validate,
            cache=cache,
            policy=policy,
            **exec_kw,
        )
    except (ModelError, ValueError) as exc:  # bad kind/spec: clean CLI error
        raise SystemExit(f"robustness: {exc}")
    print(format_robustness_table(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = getattr(args, "command", None)
    if not args.figure and not args.ablation and not args.online and not command:
        build_parser().print_help()
        return 2

    _configure_logging(verbose=args.verbose, quiet=args.quiet)
    trace_out = args.trace_out or os.environ.get("REPRO_TRACE") or None
    state = obs.enable() if (trace_out or args.metrics) else None
    try:
        if state is None:
            code = _dispatch(args, command)
        else:
            with state.span("campaign", "campaign"):
                code = _dispatch(args, command)
    finally:
        if state is not None:
            obs.disable()
    if state is not None:
        from repro.obs.export import metrics_summary, write_trace

        if trace_out:
            path = write_trace(state, trace_out)
            _logger.info(
                "[trace] %d spans written to %s", len(state.spans), path
            )
        if args.metrics:
            print(metrics_summary(state))
    return code


def _dispatch(args, command: str | None) -> int:
    cfg = resolve_scale(args.scale)
    if args.seed is not None:
        cfg = cfg.scaled(seed=args.seed)

    backend = args.backend or os.environ.get("REPRO_BACKEND") or "serial"
    if backend not in BACKENDS:
        raise SystemExit(
            f"repro-experiments: unknown backend {backend!r} "
            f"($REPRO_BACKEND?); available: {', '.join(BACKENDS)}"
        )
    exec_kw = dict(backend=backend, jobs=args.jobs)
    try:
        cache = resolve_cache(args.cache_dir)
    except OSError as exc:  # unusable cache dir: clean one-line exit
        raise SystemExit(
            f"repro-experiments: cache dir {args.cache_dir!r} is unusable: {exc}"
        )
    cached_kw = dict(exec_kw, cache=cache)

    if command == "replay":
        # Flag-driven sections (--figure/--ablation/--online) still run
        # below when combined with the subcommand.
        _run_replay(args, exec_kw, cache)

    if command == "pareto":
        _run_pareto(args, cfg, exec_kw, cache)

    if command == "robustness":
        _run_robustness(args, cfg, exec_kw, cache)

    if args.figure:
        wanted = list(FIGURES) if args.figure == "all" else [args.figure]
        for fig_id in wanted:
            print(f"=== Figure {fig_id} ===")
            if fig_id == "7":
                # Figure 7 measures wall-clock; caching would falsify it.
                result = figure7(cfg, **exec_kw)
                print(format_timing_table(result.timings))
            else:
                result = FIGURES[fig_id](cfg, progress=True, **cached_kw)
                print(format_campaign_table(result))
                if args.charts:
                    print(format_campaign_charts(result))

    if args.ablation:
        wanted = list(ABLATIONS) if args.ablation == "all" else [args.ablation]
        for name in wanted:
            print(f"=== Ablation: {name} ===")
            for variant, (minsum_r, cmax_r) in ABLATIONS[name](**cached_kw).items():
                print(f"  {variant:<16} minsum ratio {minsum_r:6.3f}   cmax ratio {cmax_r:6.3f}")
            print()

    if args.online:
        from repro.algorithms.demt import schedule_demt
        from repro.experiments.online_eval import evaluate_online, format_online_table

        print("=== On-line batch evaluation (DEMT off-line engine) ===")
        points = evaluate_online(schedule_demt, **cached_kw)
        print(format_online_table(points))

    if cache is not None:
        _logger.info(
            "[cache] %d cells (%d hits / %d misses this run) in %s",
            len(cache), cache.hits, cache.misses, args.cache_dir,
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
