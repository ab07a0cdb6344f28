"""Command-line interface: regenerate any table or figure from a shell.

Examples::

    python -m repro table1
    python -m repro fig8 --scale 0.25
    python -m repro fig7 --csv fig7.csv
    python -m repro fig11 incast --scale 0.1
    python -m repro autotune FIR --budget 20
    python -m repro motivation
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.eval.experiments import (
    comparison_experiment,
    inlining_experiment,
    render_fig8,
    render_fig9,
    render_fig10a,
    render_fig10b,
    render_table1,
    render_table2,
    trace_experiment,
    transactions_csv,
)
from repro.eval.report import format_speedup, format_table, format_trace_rows
from repro.eval.runner import (
    Setting,
    available_setting_names,
    run_workload,
    setting_by_name,
)
from repro.registry import ARRIVALS
from repro.workloads.registry import workload_names


def _setting_names() -> tuple:
    """Registry-driven: every registered device/zero-arg algorithm shows up."""
    return tuple(available_setting_names())


def _setting(name: str) -> Setting:
    return setting_by_name(name)


def _config(args):
    """Config override from burst flags (None = shipped defaults).

    Built only when a flag deviates from the shipped default, so default
    invocations keep ``config=None`` and stay on the golden path.
    """
    overrides = {}
    burst_k = getattr(args, "burst_k", None)
    if burst_k is not None:
        overrides["burst_k"] = burst_k
    p_min = getattr(args, "p_min", None)
    if p_min is not None:
        overrides["p_min"] = p_min
    if overrides:
        from repro.config import SystemConfig

        return SystemConfig(**overrides)
    return None


def _grid(args):
    return comparison_experiment(scale=args.scale, seed=args.seed,
                                 config=_config(args),
                                 jobs=getattr(args, "jobs", None))


def cmd_table1(_args) -> None:
    print(render_table1())


def cmd_table2(_args) -> None:
    print(render_table2())


def cmd_fig7(args) -> None:
    result = trace_experiment(setting=_setting(args.setting), scale=args.scale,
                              seed=args.seed)
    txns = result.transactions
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(transactions_csv(txns))
        print(f"wrote {args.csv}")
        return
    mid = txns[len(txns) // 2].line_fill or 0
    print(format_trace_rows(txns, mid - args.window, mid + args.window))
    print(
        f"\ntransactions={len(txns)} speculative={result.speculative_count} "
        f"request-bound={result.request_bound_count} "
        f"potential-saving={result.total_potential_saving} cycles"
    )


def cmd_fig8(args) -> None:
    print(render_fig8(_grid(args)))


def cmd_fig9(args) -> None:
    print(render_fig9(_grid(args)))


def cmd_fig10a(args) -> None:
    print(render_fig10a(_grid(args)))


def cmd_fig10b(args) -> None:
    print(render_fig10b(_grid(args)))


def cmd_fig11(args) -> None:
    from repro.eval.sweep import sensitivity_sweep

    points = sensitivity_sweep(args.workload, scale=args.scale, seed=args.seed,
                               jobs=getattr(args, "jobs", None))
    rows = [
        [p.label, p.params.label() if p.params else "-",
         f"{p.normalized_delay:.3f}", f"{p.normalized_energy:.3f}"]
        for p in points
    ]
    print(format_table(["algorithm", "params", "delay", "energy"], rows,
                       title=f"Figure 11 panel: {args.workload}"))


def cmd_run(args) -> None:
    verify = getattr(args, "verify", False)
    jobs = getattr(args, "jobs", None)
    captured = {}

    def on_system(system) -> None:
        captured["system"] = system

    if jobs not in (None, 1):
        # Route the run through the multiprocess executor — same metrics,
        # exercised worker path (handy as a parallel-executor smoke test).
        from repro.eval.parallel import RunRequest, run_requests

        request = RunRequest.from_setting(
            args.workload, _setting(args.setting), scale=args.scale,
            seed=args.seed, config=_config(args), verify=verify,
        )
        m = run_requests([request], jobs=jobs)[0]
    else:
        m = run_workload(args.workload, _setting(args.setting), scale=args.scale,
                         seed=args.seed, config=_config(args),
                         on_system=on_system, verify=verify)
    rows = [
        ["execution", f"{m.exec_cycles} cycles ({m.exec_ms:.3f} ms)"],
        ["messages", m.messages_delivered],
        ["push attempts", m.push_attempts],
        ["push failures", f"{m.push_failures} ({m.failure_rate:.1%})"],
        ["speculative pushes", m.spec_pushes],
        ["push precision", f"{m.push_precision:.1%}"],
        ["push recall", f"{m.push_recall:.1%}"],
        ["wasted push bytes", m.wasted_push_bytes],
        ["bus utilization", f"{m.bus_utilization:.1%}"],
        ["avg line empty cycles", f"{m.avg_line_empty:.0f}"],
    ]
    print(format_table(["metric", "value"], rows,
                       title=f"{args.workload} under {_setting(args.setting).label}"))
    if verify and captured.get("system") is not None:
        verifier = captured["system"].verifier
        if verifier is not None:
            # quiesce() in the runner already raised on any violation, so
            # reaching here means a clean bill of health.
            print()
            print(f"verification: PASS ({verifier.summary()})")
    elif verify:
        # Worker-process run: quiesce() already raised on any violation
        # before the metrics crossed the process boundary.
        print()
        print("verification: PASS (checked in worker process)")


def cmd_obs(args) -> None:
    """Fully-observed runs: Perfetto trace, metrics JSON, accuracy summary."""
    from repro.obs.runner import (
        ObsRequest,
        SMOKE_SCALE,
        run_obs,
        smoke_requests,
    )

    scale = args.scale if args.scale is not None else SMOKE_SCALE
    if args.workload == "smoke":
        requests = smoke_requests(scale=scale, seed=args.seed)
    else:
        requests = [
            ObsRequest(args.workload, args.setting, scale=scale,
                       seed=args.seed, pid_base=0)
        ]
    result = run_obs(requests, jobs=getattr(args, "jobs", None))

    wrote = False
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(result.trace_json())
        print(f"wrote Perfetto trace to {args.trace} "
              f"(load at https://ui.perfetto.dev)")
        wrote = True
    if args.metrics:
        with open(args.metrics, "w") as fh:
            fh.write(result.metrics_json())
        print(f"wrote metrics to {args.metrics}")
        wrote = True
    if args.jsonl:
        with open(args.jsonl, "w") as fh:
            fh.write(result.jsonl())
        print(f"wrote JSONL event stream to {args.jsonl}")
        wrote = True
    if args.summary or not wrote:
        print(result.summary())


def cmd_area(_args) -> None:
    from repro.eval.areapower import estimate_srd_area, estimate_vlrd_area

    srd, vlrd = estimate_srd_area(), estimate_vlrd_area()
    rows = [[k, f"{v:.4f}"] for k, v in srd.buffers_mm2.items()]
    rows += [
        ["control/other", f"{srd.control_mm2:.4f}"],
        ["TOTAL SRD", f"{srd.total_mm2:.4f}"],
        ["TOTAL VLRD", f"{vlrd.total_mm2:.4f}"],
        ["SRD/VLRD", f"{srd.total_mm2 / vlrd.total_mm2:.3f}"],
        ["share of 16-core SoC", f"{srd.share_of_soc():.2%}"],
    ]
    print(format_table(["structure", "mm^2 @ 16nm"], rows,
                       title="Section 4.5: area estimate"))


def cmd_power(_args) -> None:
    from repro.eval.areapower import paper_power_bounds

    rows = [
        [label, f"{est.dynamic_mw:.2f}", f"{est.leakage_mw:.2f}",
         f"{est.total_mw:.2f}", f"{est.share_of_soc():.3%}"]
        for label, est in paper_power_bounds().items()
    ]
    print(format_table(
        ["setting", "dynamic mW", "leakage mW", "total mW", "SoC share"],
        rows, title="Section 4.5: power bounds"))


def cmd_inline(args) -> None:
    res = inlining_experiment(scale=args.scale, seed=args.seed)
    rows = [[k, format_speedup(v)] for k, v in res.items()]
    print(format_table(["benchmark", "inlining speedup"], rows,
                       title="Section 3.4: function inlining"))


def cmd_motivation(_args) -> None:
    from repro.swqueue import motivation_experiment

    rows = [
        [r.mechanism, f"{r.cycles_per_message:.1f}", r.coherence_packets]
        for r in motivation_experiment(messages=400).values()
    ]
    print(format_table(["mechanism", "cycles/message", "packets"], rows,
                       title="Figure 1: cross-core latency by mechanism"))


def cmd_autotune(args) -> None:
    if getattr(args, "burst", False):
        _autotune_burst(args)
        return
    from repro.eval.autotune import autotune

    r = autotune(args.workload, scale=args.scale, seed=args.seed,
                 max_evaluations=args.budget)
    rows = [
        ["best parameters", r.best_params.label()],
        ["best score (delay + 0.05*energy)", f"{r.best_score:.3f}"],
        ["paper parameters score", f"{r.paper_score:.3f}"],
        ["improvement over paper set", format_speedup(r.improvement_over_paper)],
        ["simulations used", r.evaluations],
    ]
    print(format_table(["result", "value"], rows,
                       title=f"Parameter search: {args.workload}"))


def _autotune_burst(args) -> None:
    """The multi-push (k, p_min) grid: frontier table plus the winner."""
    from repro.eval.autotune import autotune_burst

    ks = [int(v) for v in args.ks.split(",") if v.strip()]
    p_mins = [float(v) for v in args.p_mins.split(",") if v.strip()]
    r = autotune_burst(
        args.workload, ks=ks, p_mins=p_mins, scale=args.scale,
        seed=args.seed, rho=args.rho, jobs=getattr(args, "jobs", None),
        executor=_cache_executor(args),
    )
    unit = "p99 sojourn" if r.rho is not None else "exec cycles"
    rows = [
        [p.burst_k, f"{p.p_min:g}", f"{p.score:.0f}",
         format_speedup(p.speedup_over(r.baseline_score))]
        for p in r.frontier()
    ]
    suffix = f" at rho={r.rho:g}" if r.rho is not None else ""
    print(format_table(
        ["k", "p_min", unit, "vs tuned"], rows,
        title=f"Multi-push frontier: {args.workload}{suffix} "
              f"(tuned {unit}: {r.baseline_score:.0f})"))
    best = r.best
    print(
        f"\nbest point: k={best.burst_k} p_min={best.p_min:g} "
        f"({format_speedup(r.best_speedup)} vs tuned single-push)"
    )


def cmd_replicate(args) -> None:
    from repro.eval.replication import replicated_comparison

    seeds = [args.seed + i for i in range(args.seeds)]
    result = replicated_comparison(seeds=seeds, scale=args.scale,
                                   jobs=getattr(args, "jobs", None))
    rows = [[label, str(stat)] for label, stat in result.geomeans.items()]
    print(format_table(["setting", "geomean speedup (95% CI)"], rows,
                       title=f"Figure 8 geomeans over {args.seeds} seeds"))


def _cache_executor(args):
    """``run_requests`` through a result cache when ``--cache DIR`` was
    given, else None (the driver's own ``run_requests``)."""
    if not args.cache:
        return None
    import functools

    from repro.eval.parallel import ResultCache, run_requests

    return functools.partial(run_requests, cache=ResultCache(args.cache))


def cmd_batch(args) -> None:
    from repro.eval.batch import run_batch_file, summarize_report

    report = run_batch_file(args.spec, report_path=args.out,
                            jobs=getattr(args, "jobs", None),
                            executor=_cache_executor(args))
    print(format_table(["workload", "setting", "mean speedup"],
                       summarize_report(report),
                       title=f"Batch study: {report['name']}"))
    if args.out:
        print(f"full report written to {args.out}")


def cmd_scale(args) -> None:
    """The interconnect scaling study: cores x topology x device."""
    from repro.eval.scaling import scaling_experiment

    cores = [int(v) for v in args.cores.split(",") if v.strip()]
    topologies = [t.strip() for t in args.topology.split(",") if t.strip()]
    settings = [s.strip() for s in args.settings.split(",") if s.strip()]
    result = scaling_experiment(
        cores=cores,
        topologies=topologies,
        settings=settings,
        scale=args.scale,
        seed=args.seed,
        num_srds=args.srds,
        verify=getattr(args, "verify", False),
        jobs=getattr(args, "jobs", None),
        base=_config(args),
    )
    print(result.render())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(result.to_json())
            fh.write("\n")
        print(f"\nwrote JSON report to {args.out}")


def cmd_load(args) -> None:
    """The open-system load sweep: tail latency vs offered load."""
    from repro.eval.load import load_experiment

    topologies = [t.strip() for t in args.topology.split(",") if t.strip()]
    settings = [s.strip() for s in args.settings.split(",") if s.strip()]
    rhos = [float(v) for v in args.rhos.split(",") if v.strip()]
    result = load_experiment(
        workload=args.workload,
        arrival=args.arrival,
        settings=settings,
        topologies=topologies,
        rhos=rhos,
        scale=args.scale,
        seed=args.seed,
        churn=args.churn,
        jobs=getattr(args, "jobs", None),
        base=_config(args),
        executor=_cache_executor(args),
    )
    print(result.render())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(result.to_json())
            fh.write("\n")
        print(f"\nwrote JSON report to {args.out}")


def cmd_list(_args) -> None:
    rows = [[n] for n in workload_names()]
    print(format_table(["benchmark"], rows, title="Table 2 workloads"))
    rows = [[s] for s in _setting_names()]
    print()
    print(format_table(["setting"], rows, title="Available settings"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SPAMeR reproduction: regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, workload: bool = False, setting: bool = False):
        p.add_argument("--scale", type=float, default=0.25,
                       help="message-count scale factor (1.0 = paper scale)")
        p.add_argument("--seed", type=lambda v: int(v, 0), default=0xC0FFEE)
        if workload:
            p.add_argument("workload", choices=workload_names())
        if setting:
            p.add_argument("--setting", choices=_setting_names(), default="tuned")
        return p

    def jobs(p):
        p.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="fan independent simulations across N worker "
                            "processes (0 = all cores; default: serial). "
                            "Results are bit-identical to serial runs — "
                            "see docs/PERFORMANCE.md")
        return p

    def burst(p):
        p.add_argument("--burst-k", type=int, default=None, metavar="K",
                       help="multi-push burst width: claim up to K "
                            "consecutive specBuf slots per confidence-gated "
                            "burst (default: 1 = single-push SPAMeR)")
        p.add_argument("--p-min", type=float, default=None, metavar="P",
                       help="minimum EWMA acceptance estimate before a "
                            "burst may extend past its head push "
                            "(default: 0.75)")
        return p

    sub.add_parser("table1", help="Table 1").set_defaults(fn=cmd_table1)
    sub.add_parser("table2", help="Table 2").set_defaults(fn=cmd_table2)
    p = common(sub.add_parser("fig7", help="Figure 7 transaction trace"),
               setting=True)
    p.add_argument("--window", type=int, default=3000)
    p.add_argument("--csv", metavar="FILE", default=None,
                   help="export every traced transaction as CSV instead "
                        "of printing")
    p.set_defaults(fn=cmd_fig7, setting="vl")
    burst(jobs(common(sub.add_parser("fig8", help="Figure 8 speedups")))
          ).set_defaults(fn=cmd_fig8)
    jobs(common(sub.add_parser("fig9", help="Figure 9 breakdown"))
         ).set_defaults(fn=cmd_fig9)
    jobs(common(sub.add_parser("fig10a", help="Figure 10a failure rates"))
         ).set_defaults(fn=cmd_fig10a)
    jobs(common(sub.add_parser("fig10b", help="Figure 10b bus utilization"))
         ).set_defaults(fn=cmd_fig10b)
    jobs(common(sub.add_parser("fig11", help="Figure 11 sensitivity panel"),
                workload=True)).set_defaults(fn=cmd_fig11)
    p = burst(jobs(common(
        sub.add_parser("run", help="run one workload under one setting"),
        workload=True, setting=True)))
    p.add_argument("--verify", action="store_true",
                   help="attach the live invariant checker (FIFO order, "
                        "message conservation, cacheline/transaction "
                        "lifecycle legality); the run fails on any "
                        "semantic violation")
    p.set_defaults(fn=cmd_run)
    p = jobs(sub.add_parser(
        "obs",
        help="observability: Perfetto trace, metrics JSON, accuracy summary"))
    p.add_argument("workload", nargs="?", default="smoke",
                   choices=["smoke"] + workload_names(),
                   help="a workload, or 'smoke' for the fig8 smoke matrix "
                        "(ping-pong/incast x vl/tuned)")
    p.add_argument("--setting", choices=_setting_names(), default="tuned",
                   help="setting for single-workload runs (ignored by smoke)")
    p.add_argument("--scale", type=float, default=None,
                   help="message-count scale factor (default: 0.05, the "
                        "smoke-matrix scale)")
    p.add_argument("--seed", type=lambda v: int(v, 0), default=0xC0FFEE)
    p.add_argument("--trace", metavar="FILE", default=None,
                   help="write Chrome/Perfetto trace_event JSON here")
    p.add_argument("--metrics", metavar="FILE", default=None,
                   help="write the metrics-registry snapshot JSON here")
    p.add_argument("--jsonl", metavar="FILE", default=None,
                   help="write the compact JSONL event stream here")
    p.add_argument("--summary", action="store_true",
                   help="print the speculation-accuracy and stage-latency "
                        "tables (default when no output file is given)")
    p.set_defaults(fn=cmd_obs)
    sub.add_parser("area", help="Section 4.5 area").set_defaults(fn=cmd_area)
    sub.add_parser("power", help="Section 4.5 power").set_defaults(fn=cmd_power)
    common(sub.add_parser("inline", help="Section 3.4 inlining")).set_defaults(
        fn=cmd_inline)
    sub.add_parser("motivation", help="Figure 1 latency comparison").set_defaults(
        fn=cmd_motivation)
    p = jobs(common(sub.add_parser("replicate",
                                   help="Figure 8 geomeans across seeds")))
    p.add_argument("--seeds", type=int, default=3,
                   help="number of replication seeds")
    p.set_defaults(fn=cmd_replicate)
    p = jobs(sub.add_parser("batch", help="run a JSON experiment spec"))
    p.add_argument("spec", help="path to the spec file (see repro.eval.batch)")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(fn=cmd_batch)
    p = burst(jobs(sub.add_parser(
        "scale",
        help="interconnect scaling study: cores x topology x device")))
    p.add_argument("--cores", default="8,16,32,64", metavar="LIST",
                   help="comma-separated core counts (default: 8,16,32,64)")
    p.add_argument("--topology", default="single-bus,mesh", metavar="LIST",
                   help="comma-separated topologies: single-bus, mesh, "
                        "torus, ring, crossbar (default: single-bus,mesh)")
    p.add_argument("--settings", default="vl,tuned", metavar="LIST",
                   help="comma-separated settings per cell (default: vl,tuned "
                        "— one per stock device)")
    p.add_argument("--srds", type=int, default=1,
                   help="SRD shard count (queues partition across shards)")
    p.add_argument("--scale", type=float, default=0.1,
                   help="message-count scale factor (default: 0.1 — keeps "
                        "the 64-core cells tractable)")
    p.add_argument("--seed", type=lambda v: int(v, 0), default=0xC0FFEE)
    p.add_argument("--verify", action="store_true",
                   help="run every cell under the live invariant checker")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="also write the machine-readable JSON report here")
    p.set_defaults(fn=cmd_scale)
    p = burst(jobs(sub.add_parser(
        "load",
        help="open-system load sweep: tail latency vs offered load")))
    p.add_argument("--workload", default="incast",
                   choices=workload_names(),
                   help="an open-capable workload: ping-pong, incast, "
                        "pipeline, firewall, FIR (default: incast)")
    p.add_argument("--arrival", default="poisson",
                   choices=[name for name in ARRIVALS.names()
                            if not ARRIVALS.resolve(name).is_closed],
                   help="registered open arrival process driving the "
                        "sessions (default: poisson)")
    p.add_argument("--topology", default="single-bus", metavar="LIST",
                   help="comma-separated topologies: single-bus, mesh, "
                        "torus, ring, crossbar (default: single-bus)")
    p.add_argument("--settings", default="vl,tuned", metavar="LIST",
                   help="comma-separated settings per cell (default: vl,tuned)")
    p.add_argument("--rhos", default="0.2,0.5,0.8,1.1", metavar="LIST",
                   help="offered-load points relative to the calibrated "
                        "closed-batch service rate (default: 0.2,0.5,0.8,1.1 "
                        "— the last one is past saturation)")
    p.add_argument("--churn", type=float, default=0.0,
                   help="per-session probability of departing early "
                        "(default: 0 — no churn)")
    p.add_argument("--scale", type=float, default=0.25,
                   help="message-count scale factor (1.0 = paper scale)")
    p.add_argument("--seed", type=lambda v: int(v, 0), default=0xC0FFEE)
    p.add_argument("--out", metavar="FILE", default=None,
                   help="also write the machine-readable JSON report here")
    p.set_defaults(fn=cmd_load)
    p = jobs(common(sub.add_parser("autotune",
                                   help="per-benchmark parameter search"),
                    workload=True))
    p.add_argument("--budget", type=int, default=25,
                   help="maximum simulations to spend")
    p.add_argument("--burst", action="store_true",
                   help="grid-search the multi-push (k, p_min) frontier on "
                        "the saturated 64-core bus instead of the tuned "
                        "delay parameters")
    p.add_argument("--ks", default="1,2,4,8", metavar="LIST",
                   help="comma-separated burst widths for --burst "
                        "(default: 1,2,4,8)")
    p.add_argument("--p-mins", default="0.0,0.5,0.75,0.9", metavar="LIST",
                   help="comma-separated acceptance gates for --burst "
                        "(default: 0.0,0.5,0.75,0.9)")
    p.add_argument("--rho", type=float, default=None,
                   help="score the --burst grid by p99 sojourn under an "
                        "open arrival process at this offered load "
                        "(default: closed batch, scored by exec cycles)")
    p.set_defaults(fn=cmd_autotune)

    for name in ("batch", "load", "autotune"):
        sub.choices[name].add_argument(
            "--cache", metavar="DIR", default=None,
            help="content-addressed result cache: cells already in DIR "
                 "are served from it (byte-identical to a fresh run), "
                 "new ones are run and stored there")

    sub.add_parser("list", help="available workloads and settings").set_defaults(
        fn=cmd_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    args.fn(args)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
