"""Command-line front-end for Ramiel.

Usage examples::

    ramiel list                              # show the model zoo
    ramiel analyze squeezenet                # Table-I style graph metrics
    ramiel compile squeezenet -o out/        # full pipeline + generated code
    ramiel compile bert --clone
    ramiel compile squeezenet --batch-size 4 --switched
    ramiel run nasnet --backend process      # compile, place on this host's cores, run
    ramiel warmup squeezenet bert            # pre-compile into the serving cache
    ramiel serve-bench squeezenet googlenet --requests 32 --concurrency 8
    ramiel trace squeezenet --runs 20 -o trace.json   # Perfetto-loadable spans
    ramiel trace squeezenet --executor process        # merged multi-process trace
    ramiel bench compare HEAD~1 --workload exec_b1    # paired perflab runs
    ramiel serve squeezenet bert --port 8080          # HTTP gateway, foreground
    ramiel load squeezenet googlenet --duration 5 --rate 30 \
        --tenant gold=3 --tenant free=1               # open-loop load harness

The CLI is a thin wrapper over :func:`repro.pipeline.ramiel_compile`; every
capability is also available programmatically.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramiel",
        description="Automatic task parallelization of ML dataflow graphs "
                    "(reproduction of Das & Rauchwerger).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the models available in the zoo")

    analyze = sub.add_parser("analyze", help="print graph metrics (Table I style)")
    analyze.add_argument("model", help="model name (e.g. squeezenet) or path to a saved model")
    analyze.add_argument("--variant", default="default", choices=["default", "small"])

    compile_p = sub.add_parser("compile", help="run the full Ramiel pipeline")
    compile_p.add_argument("model")
    compile_p.add_argument("--variant", default="default", choices=["default", "small"])
    compile_p.add_argument("-o", "--output-dir", default=None,
                           help="directory for the generated Python modules")
    compile_p.add_argument("--no-prune", action="store_true",
                           help="disable constant propagation / DCE")
    compile_p.add_argument("--clone", action="store_true", help="enable task cloning")
    compile_p.add_argument("--batch-size", type=int, default=1)
    compile_p.add_argument("--switched", action="store_true",
                           help="use switched hyperclusters (batch size > 1)")
    compile_p.add_argument("--cores", type=int, default=12)
    compile_p.add_argument("--json", action="store_true", help="print a JSON summary")

    run_p = sub.add_parser(
        "run", help="compile, then time the sequential code against the "
                    "parallel code placed on this host's cores")
    run_p.add_argument("model")
    run_p.add_argument("--variant", default="small", choices=["default", "small"])
    run_p.add_argument("--backend", default="thread", choices=["thread", "process"])
    run_p.add_argument("--repeats", type=int, default=3)

    warmup_p = sub.add_parser(
        "warmup", help="pre-compile models into a serving engine's artifact cache")
    warmup_p.add_argument("models", nargs="+",
                          help="model names (e.g. squeezenet bert)")
    warmup_p.add_argument("--variant", default="small", choices=["default", "small"])
    warmup_p.add_argument("--json", action="store_true", help="print a JSON summary")

    serve_p = sub.add_parser(
        "serve-bench",
        help="drive concurrent load through the serving engine and report metrics")
    serve_p.add_argument("models", nargs="+",
                         help="model names to serve (e.g. squeezenet googlenet)")
    serve_p.add_argument("--variant", default="small", choices=["default", "small"])
    serve_p.add_argument("--requests", type=int, default=32,
                         help="requests per model (default 32)")
    serve_p.add_argument("--concurrency", type=int, default=8,
                         help="concurrent caller threads (default 8)")
    serve_p.add_argument("--max-batch", type=int, default=8,
                         help="micro-batch max size (default 8)")
    serve_p.add_argument("--compare-naive", type=int, default=0, metavar="N",
                         help="also measure N naive compile-per-request calls per model")
    serve_p.add_argument("--json", action="store_true", help="print a JSON summary")

    trace_p = sub.add_parser(
        "trace",
        help="run N traced iterations and write a Perfetto-loadable "
             "trace.json + a metrics report")
    trace_p.add_argument("model", help="model name (e.g. squeezenet) or path")
    trace_p.add_argument("--variant", default="small", choices=["default", "small"])
    trace_p.add_argument("--runs", type=int, default=20,
                         help="traced iterations (default 20)")
    trace_p.add_argument("--warmup", type=int, default=2,
                         help="untraced warmup iterations (default 2)")
    trace_p.add_argument("--batch-size", type=int, default=1)
    trace_p.add_argument("--executor", default="plan", metavar="EXECUTOR",
                         help="session executor: plan (default, with "
                              "per-step spans), interp, or pool | process "
                              "(merged multi-worker trace with per-worker "
                              "pid/tid lanes)")
    trace_p.add_argument("-o", "--output", default="trace.json",
                         help="Chrome trace-event JSON output path "
                              "(default trace.json; load in "
                              "https://ui.perfetto.dev)")
    trace_p.add_argument("--metrics-out", default=None, metavar="PATH",
                         help="also write the Prometheus text exposition here")
    trace_p.add_argument("--top", type=int, default=15,
                         help="per-step table rows to print (default 15)")
    trace_p.add_argument("--json", action="store_true", help="print a JSON summary")

    bench_p = sub.add_parser(
        "bench", help="measure the working tree against a base commit")
    bench_sub = bench_p.add_subparsers(dest="bench_command", required=True)
    compare_p = bench_sub.add_parser(
        "compare",
        help="paired perflab runs of BASE and the working tree; writes "
             "BENCH_<workload>.json at the checkout root")
    compare_p.add_argument("base", metavar="BASE",
                           help="the commit to compare against (e.g. HEAD~1)")
    compare_p.add_argument("--workload", action="append", metavar="W",
                           help="a BENCHMARK.json workload (repeatable; "
                                "default: every workload)")

    def _add_qos_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tenant", action="append", default=[],
                       metavar="NAME=WEIGHT[:QUOTA]",
                       help="register a tenant with a scheduling weight and "
                            "an optional artifact-cache quota (repeatable); "
                            "e.g. --tenant gold=3 --tenant free=1:2")
        p.add_argument("--max-queue-depth", type=int, default=256,
                       help="global admission-queue bound (503 beyond it)")
        p.add_argument("--tenant-queue", type=int, default=64,
                       help="per-tenant admission-queue bound (429 beyond it)")
        p.add_argument("--deadline-s", type=float, default=None,
                       help="default per-request deadline budget in seconds")
        p.add_argument("--max-batch", type=int, default=8,
                       help="micro-batch max size (default 8)")
        p.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write a Chrome trace of the run here")

    gw_serve = sub.add_parser(
        "serve", help="serve zoo models over HTTP (asyncio gateway, foreground)")
    gw_serve.add_argument("models", nargs="+",
                          help="model names to serve (e.g. squeezenet bert)")
    gw_serve.add_argument("--variant", default="small",
                          choices=["default", "small"])
    gw_serve.add_argument("--host", default="127.0.0.1")
    gw_serve.add_argument("--port", type=int, default=8080,
                          help="listen port (0 = ephemeral; default 8080)")
    gw_serve.add_argument("--no-warmup", action="store_true",
                          help="skip pre-compiling the served models")
    _add_qos_args(gw_serve)

    load_p = sub.add_parser(
        "load",
        help="boot a gateway, drive open-loop multi-tenant load at it and "
             "print the per-tenant report (self-contained smoke/benchmark)")
    load_p.add_argument("models", nargs="+",
                        help="model names; tenants are assigned round-robin")
    load_p.add_argument("--variant", default="small",
                        choices=["default", "small"])
    load_p.add_argument("--duration", type=float, default=5.0,
                        help="offered-load window in seconds (default 5)")
    load_p.add_argument("--rate", type=float, default=30.0,
                        help="per-tenant Poisson arrival rate, rps (default 30)")
    load_p.add_argument("--seed", type=int, default=0)
    load_p.add_argument("--request-deadline-s", type=float, default=None,
                        help="X-Deadline-S attached to every request")
    load_p.add_argument("--json", action="store_true",
                        help="print the report as JSON")
    _add_qos_args(load_p)
    return parser


def _load_model(name_or_path: str, variant: str):
    from pathlib import Path

    from repro.ir.serialization import load_model
    from repro.models import build_model

    path = Path(name_or_path)
    if path.exists():
        return load_model(path)
    return build_model(name_or_path, variant=variant)


def _cmd_list() -> int:
    from repro.models import MODEL_REGISTRY

    for name, spec in MODEL_REGISTRY.items():
        print(f"{name:14s} {spec.description}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.graph import compute_metrics
    from repro.graph.metrics import format_table

    model = _load_model(args.model, args.variant)
    metrics = compute_metrics(model)
    print(format_table([metrics.as_row()]))
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    from repro.pipeline import PipelineConfig, ramiel_compile

    model = _load_model(args.model, args.variant)
    config = PipelineConfig(
        prune=not args.no_prune,
        clone=args.clone,
        batch_size=args.batch_size,
        switched_hyperclusters=args.switched,
        output_dir=args.output_dir,
        num_cores=args.cores,
    )
    result = ramiel_compile(model, config=config)
    summary = result.summary()
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        for key, value in summary.items():
            print(f"{key:24s} {value}")
        if result.parallel_module is not None:
            print(f"{'parallel module':24s} {result.parallel_module.path}")
        if result.sequential_module is not None:
            print(f"{'sequential module':24s} {result.sequential_module.path}")
    return 0


def _placement_line(placed: dict) -> str:
    """``Session.stats()["placement"]`` as the one line `run` / `trace` print."""
    return ("placement: {clusters} clusters -> {workers} workers ({cores} cores), "
            "predicted {predicted_speedup:.2f}x = simulated {simulated_speedup:.2f}x"
            " / inflation {inflation:.2f}".format(**placed))


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.analysis.speedup import measured_speedup
    from repro.serving import example_inputs

    model = _load_model(args.model, args.variant)
    inputs = example_inputs(model)
    stats = measured_speedup(model, inputs, backend=args.backend, repeats=args.repeats)
    placement = stats.pop("placement")
    for key, value in stats.items():
        print(f"{key:16s} {value:.4f}" if isinstance(value, float) else f"{key:16s} {value}")
    print(_placement_line(placement))
    return 0


def _cmd_warmup(args: argparse.Namespace) -> int:
    from repro.serving import InferenceEngine

    engine = InferenceEngine()
    summaries = []
    try:
        for name in args.models:
            model = _load_model(name, args.variant)
            summaries.append(engine.warmup(model))
    finally:
        engine.shutdown()
    if args.json:
        print(json.dumps(summaries, indent=2))
    else:
        for summary in summaries:
            for key, value in summary.items():
                print(f"{key:18s} {value}")
            print()
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.analysis.reports import render_serving_report
    from repro.serving import (
        EngineConfig,
        InferenceEngine,
        drive_load,
        naive_throughput,
    )

    engine = InferenceEngine(EngineConfig(max_batch_size=args.max_batch))
    per_model = []
    try:
        models = [_load_model(name, args.variant) for name in args.models]
        for model in models:
            engine.warmup(model)  # exclude compilation from the measured window
        engine.metrics.reset()
        for name, model in zip(args.models, models):
            load = drive_load(engine, model, num_requests=args.requests,
                              concurrency=args.concurrency)
            row = {"model": name, "requests": load["requests"],
                   "engine_rps": round(load["rps"], 2)}
            if args.compare_naive > 0:
                naive = naive_throughput(model, num_requests=args.compare_naive)
                row["naive_rps"] = round(naive["rps"], 2)
                row["speedup"] = round(load["rps"] / naive["rps"], 1)
            per_model.append(row)
        snapshot = engine.metrics.snapshot()
        report = render_serving_report(engine.registry)
    finally:
        engine.shutdown()

    if args.json:
        print(json.dumps({"models": per_model, "metrics": snapshot}, indent=2))
    else:
        from repro.analysis.reports import format_rows

        print(format_rows(per_model))
        print()
        print(report)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.analysis.reports import format_rows
    from repro.observability import MetricsRegistry, Tracer
    from repro.runtime.profiler import plan_step_rows, summarize_kinds
    from repro.runtime.session import create_session, validate_executor

    # Validate eagerly against the central registry: a typo'd executor
    # fails here with the known names, not deep inside session dispatch.
    try:
        validate_executor(args.executor, context="--executor")
    except ValueError as exc:
        print(f"ramiel trace: {exc}", file=sys.stderr)
        return 2
    from repro.serving import example_inputs

    model = _load_model(args.model, args.variant)
    feed = example_inputs(model, batch_size=args.batch_size)
    pooled = args.executor in ("pool", "process")
    tracer = Tracer()
    # Pooled executors take the tracer at construction so the process
    # backend's channels are instrumented before its workers fork; the
    # tracer stays disabled through warmup so only measured runs record.
    tracer.disable()
    session = create_session(model, executor=args.executor, tracer=tracer)
    registry = MetricsRegistry()
    session.publish_metrics(registry)
    runs = max(args.runs, 1)
    worker_drops: dict = {}
    try:
        for _ in range(max(args.warmup, 0)):
            session.run(feed)  # untraced warmup: pack the slab, grow scratch
        if session.pool is not None:
            session.pool.clear_worker_traces()
        tracer.clear()
        tracer.enable()
        for index in range(runs):
            # Request-shaped root spans so the exported trace shows the
            # nesting a served request would have: request -> session.run
            # -> per-plan-step spans (or per-worker execute spans on their
            # own pid/tid lanes for the pooled executors).
            with tracer.span("request", cat="request",
                             args={"iteration": str(index)}):
                session.run(feed)
        tracer.disable()
        if pooled:
            from repro.observability.merge import write_merged_trace

            placement = _placement_line(session.stats()["placement"])
            buffers = session.worker_trace_buffers()
            merged = write_merged_trace(args.output, tracer, buffers,
                                        process_name=model.name)
            worker_drops = merged["metadata"]["worker_drops"]
        else:
            tracer.write_chrome_trace(args.output, process_name=model.name)
        exposition = registry.render_prometheus()
        stats = tracer.stats()
        step_rows = [
            {"step": row["step"], "kind": row["kind"], "count": row["count"],
             "total_ms": round(row["total_ms"], 3),
             "mean_ms": round(row["mean_ms"], 4)}
            for row in (plan_step_rows(session.plan.graph, tracer.events())
                        if session.plan is not None else [])]
        step_rows.sort(key=lambda row: row["total_ms"], reverse=True)
        kind_rows = summarize_kinds(step_rows)
    finally:
        session.close()

    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(exposition)
    if args.json:
        summary = {
            "model": model.name,
            "runs": runs,
            "trace_path": args.output,
            "tracer": stats,
            "steps": step_rows,
            "kinds": kind_rows,
        }
        if pooled:
            summary["worker_drops"] = worker_drops
        print(json.dumps(summary, indent=2))
        return 0
    print(f"model      {model.name}")
    print(f"executor   {args.executor}")
    if pooled:
        print(placement)
    print(f"runs       {runs}")
    print(f"trace      {args.output}  (load in https://ui.perfetto.dev)")
    print(f"spans      {stats['recorded']} recorded, {stats['dropped']} dropped")
    if pooled:
        drops = ", ".join(f"{worker}: {count}"
                          for worker, count in sorted(worker_drops.items()))
        print(f"workers    {len(worker_drops)} merged lanes "
              f"(drops — {drops})")
    if step_rows:
        print()
        print(f"-- slowest plan steps (top {min(args.top, len(step_rows))} "
              f"of {len(step_rows)}, by total time) --")
        print(format_rows(step_rows[:max(args.top, 1)]))
        print()
        print("-- plan time by kernel kind --")
        print(format_rows(kind_rows))
    print()
    print("-- metrics --")
    print(exposition, end="")
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from repro.observability.bench import compare

    try:
        reports = compare(args.base, args.workload)
    except ValueError as exc:
        print(f"ramiel bench compare: {exc}", file=sys.stderr)
        return 2
    # The gate: no metric regressed and no larger share of operations failed.
    ok = all(not report["failed"]["share_rose"]
             and all(m["verdict"] != "regress" for m in report["metrics"].values())
             for report in reports.values())
    return 0 if ok else 1


def _parse_tenants(specs: List[str], tenant_queue: int,
                   deadline_s: Optional[float]):
    """``NAME=WEIGHT[:QUOTA]`` flags into TenantConfig objects."""
    from repro.serving import TenantConfig

    tenants = []
    for spec in specs:
        name, sep, rest = spec.partition("=")
        if not sep or not name:
            raise ValueError(
                f"malformed --tenant {spec!r}; expected NAME=WEIGHT[:QUOTA]")
        weight_s, _, quota_s = rest.partition(":")
        tenants.append(TenantConfig(
            name=name, weight=float(weight_s),
            max_queue=tenant_queue,
            deadline_s=deadline_s,
            cache_quota=int(quota_s) if quota_s else None))
    return tuple(tenants)


def _gateway_stack(args: argparse.Namespace):
    """(engine, server, tracer, models) shared by the serve/load verbs."""
    from repro.gateway import GatewayConfig, GatewayServer
    from repro.observability import Tracer
    from repro.serving import EngineConfig, InferenceEngine, QoSConfig

    tenants = _parse_tenants(args.tenant, args.tenant_queue, args.deadline_s)
    qos = QoSConfig(tenants=tenants, max_queue_depth=args.max_queue_depth)
    tracer = Tracer() if args.trace_out else None
    engine = InferenceEngine(EngineConfig(
        max_batch_size=args.max_batch, qos=qos),
        tracer=tracer)
    models = {name: _load_model(name, args.variant) for name in args.models}
    server = GatewayServer(engine, models, GatewayConfig(
        host=getattr(args, "host", "127.0.0.1"),
        port=getattr(args, "port", 0)))
    return engine, server, tracer, models


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    engine, server, tracer, models = _gateway_stack(args)
    if not args.no_warmup:
        for name, model in models.items():
            summary = engine.warmup(model)
            print(f"warmed {name} in {summary['warmup_time_s']}s")

    async def _serve() -> None:
        await server.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGINT, stop.set)
            loop.add_signal_handler(signal.SIGTERM, stop.set)
        except NotImplementedError:  # pragma: no cover - non-unix loops
            pass
        print(f"ramiel gateway listening on "
              f"http://{server.config.host}:{server.port}")
        print(f"  models: {', '.join(sorted(models))}")
        print("  POST /v1/models/{name}/infer | GET /healthz | GET /metrics")
        await stop.wait()
        print("draining ...")
        completed = await server.shutdown()
        print("drain complete" if completed else
              "drain timed out with requests still in flight")

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - signal-handler fallback
        pass
    finally:
        engine.shutdown()
        if tracer is not None and args.trace_out:
            tracer.write_chrome_trace(args.trace_out, process_name="gateway")
            print(f"trace      {args.trace_out}")
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    import asyncio

    from repro.gateway import GatewayThread, LoadSpec, run_load
    from repro.gateway.codec import encode_request
    from repro.serving import example_inputs

    engine, server, tracer, models = _gateway_stack(args)
    tenants = [t.name for t in engine.config.qos.tenants] or ["default"]
    model_names = list(models)
    specs = [
        LoadSpec(tenant=tenant, model=model_names[i % len(model_names)],
                 body=encode_request(
                     example_inputs(models[model_names[i % len(model_names)]])),
                 rate_rps=args.rate, deadline_s=args.request_deadline_s)
        for i, tenant in enumerate(tenants)
    ]
    drained = False
    try:
        for model in models.values():
            engine.warmup(model)
        with GatewayThread(server) as gateway:
            report = asyncio.run(run_load(
                "127.0.0.1", gateway.port, specs,
                duration_s=args.duration, seed=args.seed))
            drained = gateway.stop()
    finally:
        engine.shutdown()
        if tracer is not None and args.trace_out:
            tracer.write_chrome_trace(args.trace_out, process_name="gateway")

    if args.json:
        print(json.dumps({
            "duration_s": round(report.duration_s, 3),
            "drained": drained,
            "tenants": {name: rep.summary(report.duration_s)
                        for name, rep in report.tenants.items()},
        }, indent=2))
    else:
        print(report.render())
        print(f"\nduration   {report.duration_s:.2f}s")
        print(f"drained    {drained}")
        if args.trace_out:
            print(f"trace      {args.trace_out}")
    # The gate: every request got an HTTP answer and shutdown was clean.
    if report.total_dropped or not drained:
        print("load: FAILED (dropped requests or dirty shutdown)",
              file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (exposed as the ``ramiel`` console script)."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "compile":
        return _cmd_compile(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "warmup":
        return _cmd_warmup(args)
    if args.command == "serve-bench":
        return _cmd_serve_bench(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "bench":
        return _cmd_bench_compare(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "load":
        return _cmd_load(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
