"""Command-line interface: run benchmarks and regenerate paper artifacts.

Examples::

    python -m repro list
    python -m repro compile --benchmark MATVEC
    python -m repro run --benchmark MATVEC --version B --scale small
    python -m repro run --scenario mix.json --trace
    python -m repro sweep run --scenario version-suite --state-dir sweeps/vs
    python -m repro suite --benchmark BUK --scale tiny --jobs 4
    python -m repro figure 7 --scale tiny --jobs 4 --cache-dir results/cache
    python -m repro table 3 --scale tiny
    python -m repro trace record --benchmark MATVEC --version B --out traces/
    python -m repro trace replay traces/MATVEC.trace --interactive
    python -m repro trace diff traces/MATVEC.trace traces/MATVEC2.trace

Every command exits 2 with a one-line ``repro: error: …`` message on bad
input (missing scenario file, corrupt trace, invalid fault plan, a flag
the chosen input would ignore) instead of a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.config import SCALE_PRESETS, ScaleError, SimScale
from repro.core.compiler import compile_program
from repro.core.runtime.policies import VERSIONS
from repro.experiments import (
    format_figure1,
    format_figure7,
    format_figure8,
    format_figure9,
    format_figure10a,
    format_figure10bc,
    format_table3,
    run_figure1,
    run_figure7,
    run_figure8,
    run_figure9,
    run_figure10a,
    run_figure10bc,
    run_table3,
    run_version_suite,
)
from repro.experiments.compare import compare_policies, format_policy_table
from repro.experiments.ensemble import (
    EnsembleSpec,
    format_ensemble_table,
    run_ensemble,
)
from repro.experiments.harness import multiprogram_spec, to_multiprogram
from repro.experiments.report import format_process_table, format_table
from repro.experiments.runner import cache_entries, prune_cache
from repro.experiments.sweep import (
    SweepAborted,
    SweepError,
    SweepOptions,
    collect_report,
    run_sweep,
    specs_from_meta,
    specs_from_scenario,
    sweep_status,
    synthetic_specs,
)
from repro.faults import EMPTY_PLAN, FaultPlan, FaultPlanError, seed_stream
from repro.policies import PolicyError, policy_names
from repro.machine import (
    INTERACTIVE,
    ExperimentSpec,
    SpecError,
    WorkloadProcessSpec,
    run_experiment,
)
from repro.obs import TraceRecorder
from repro.scenarios import (
    SCENARIO_FORMAT_VERSION,
    CompiledScenario,
    ScenarioError,
    builtin_registry,
    compile_scenario,
    load_scenario_file,
)
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import JobError, run_direct
from repro.trace import (
    TraceError,
    diff_traces,
    format_diff,
    format_info,
    import_text,
    read_header,
    record_experiment,
    trace_info,
    trace_process_spec,
    verify_bytes_against_code,
)
from repro.workloads import BENCHMARKS, benchmark, table2_rows

def _scale_from(args: argparse.Namespace) -> SimScale:
    return SCALE_PRESETS[args.scale or "small"]()


def _add_scale(parser: argparse.ArgumentParser, default: Optional[str] = "small") -> None:
    """``--scale``; ``default=None`` lets a command tell an explicit
    ``--scale`` from none (``_scale_from`` still falls back to small)."""
    parser.add_argument(
        "--scale",
        choices=sorted(SCALE_PRESETS),
        default=default,
        help="platform scale preset (default: small)",
    )


def _add_runner(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for independent experiments (default 1)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory for content-addressed result caching (default: off)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="wall-clock budget per experiment in seconds (default: none)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="extra attempts for a failing experiment (default 0)",
    )


def _add_benchmark(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument(
        "--benchmark",
        required=required,
        type=str.upper,
        choices=sorted(BENCHMARKS),
        help="which out-of-core benchmark",
    )


def _cmd_list(args: argparse.Namespace) -> int:
    scale = _scale_from(args)
    rows = [
        (r["benchmark"], r["description"], r["data_set_mb"], r["analysis_hazard"])
        for r in table2_rows(scale)
    ]
    print(
        format_table(
            ["benchmark", "description", "MB", "hazard"],
            rows,
            title=f"Benchmarks at scale '{scale.name}' (the paper's Table 2)",
        )
    )
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    scale = _scale_from(args)
    instance = benchmark(args.benchmark).build(scale)
    compiled = compile_program(instance.program, scale.compiler)
    for name, nest in compiled.nests.items():
        print(f"nest {name}:")
        for spec in nest.plan.prefetches:
            print(
                f"  prefetch {spec.target.ref!r}  "
                f"distance={spec.distance_pages} pages  tag={spec.tag}"
            )
        for spec in nest.plan.releases:
            extra = " (despite reuse)" if spec.despite_reuse else ""
            print(
                f"  release  {spec.target.ref!r}  priority={spec.priority}"
                f"  tag={spec.tag}{extra}"
            )
    return 0


def _load_json_argument(text: str):
    """Parse a JSON argument given as a file path or an inline literal.

    A value that *looks* like a path (no JSON bracket in sight) but does
    not exist is reported as a missing file rather than falling through to
    a JSON syntax error about its first character.
    """
    if os.path.exists(text):
        try:
            with open(text, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except json.JSONDecodeError as exc:
            raise SpecError(f"{text} is not valid JSON: {exc}") from exc
    stripped = text.lstrip()
    if not stripped.startswith(("{", "[", '"')):
        raise SpecError(f"no such file: {text}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"inline JSON argument is invalid: {exc}") from exc


def _faults_from_args(args: argparse.Namespace) -> FaultPlan:
    """The fault plan requested by ``--faults`` / ``--fault-seed``."""
    plan = EMPTY_PLAN
    if getattr(args, "faults", None) is not None:
        plan = FaultPlan.from_dict(_load_json_argument(args.faults))
    if getattr(args, "fault_seed", None) is not None:
        plan = plan.with_seed(args.fault_seed)
    return plan


#: ``repro run`` flags that only a ``--benchmark`` run reads, and those
#: that only a ``--scenario`` run reads.
_RUN_BENCHMARK_FLAGS = (
    "--benchmark", "--version", "--sleep", "--policy", "--faults", "--fault-seed", "--scale"
)
_RUN_SCENARIO_FLAGS = ("--digest", "--cache-dir", "--scenario-dir")


def _refuse_flags(args: argparse.Namespace, flags, reason: str) -> None:
    """Exit 2 naming every flag of ``flags`` given: ``reason`` ignores them."""
    given = []
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and value is not False:
            given.append(flag)
    if given:
        raise SpecError(f"{reason} ignores {', '.join(given)}")


def _cmd_run(args: argparse.Namespace) -> int:
    if args.scenario is not None:
        _refuse_flags(args, _RUN_BENCHMARK_FLAGS, "run --scenario")
        return _cmd_run_scenario(args)
    _refuse_flags(args, _RUN_SCENARIO_FLAGS, "run without --scenario")
    if args.benchmark is None:
        raise SpecError("run: give --benchmark or --scenario")
    scale = _scale_from(args)
    version = args.version or "B"
    spec = multiprogram_spec(
        scale,
        args.benchmark,
        version,
        sleep_time_s=args.sleep,
    )
    plan = _faults_from_args(args)
    if plan.enabled:
        spec = spec.with_faults(plan)
    if args.policy is not None:
        spec = spec.with_policy(args.policy)
    recorder = TraceRecorder() if args.trace else None
    experiment = run_experiment(spec, sinks=(recorder,) if recorder else ())
    result = to_multiprogram(experiment)
    buckets = result.app_buckets
    rows = [
        ("elapsed_s", round(result.elapsed_s, 3)),
        ("user_s", round(buckets.user, 3)),
        ("system_s", round(buckets.system, 3)),
        ("stall_memory_s", round(buckets.stall_memory, 3)),
        ("stall_io_s", round(buckets.stall_io, 3)),
        ("hard_faults", result.app_stats.hard_faults),
        ("soft_faults", result.app_stats.soft_faults),
        ("rescues", result.app_stats.rescues),
        ("daemon_runs", result.vm.daemon_runs),
        ("daemon_pages_stolen", result.vm.daemon_pages_stolen),
        ("pages_released", result.vm.releaser_pages_freed),
        ("interactive_response_ms", round(result.mean_response() * 1e3, 3)),
        (
            "interactive_hard_faults_per_sweep",
            round(result.mean_interactive_hard_faults(), 2),
        ),
    ]
    if plan.enabled:
        rows += [
            ("io_errors", result.swap["io_errors"]),
            ("io_timeouts", result.swap["io_timeouts"]),
            ("io_retries", result.swap["io_retries"]),
            ("spindles_failed", result.swap["spindles_failed"]),
            ("online_disks", result.swap["online_disks"]),
        ]
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=f"{args.benchmark} version {version} at scale '{scale.name}'",
        )
    )
    if recorder is not None:
        print()
        print(recorder.format(last=args.trace_last))
    return 0


# -- scenarios and the experiment service -----------------------------------


def _registry_from(args: argparse.Namespace):
    return builtin_registry(scenario_dirs=getattr(args, "scenario_dir", None) or ())


def _scenario_document(text: str, registry):
    """Resolve a scenario argument: a template name, a file path or inline
    JSON.  Returns the document and its name (``None`` for inline JSON)."""
    if text in registry:
        return registry.get(text), text
    if os.path.exists(text) or not text.lstrip().startswith(("{", "[")):
        return load_scenario_file(text), Path(text).stem
    try:
        return json.loads(text), None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"inline JSON argument is invalid: {exc}") from exc


def _compile_argument(text: str, registry) -> CompiledScenario:
    document, name = _scenario_document(text, registry)
    return compile_scenario(document, registry=registry, name=name)


def _one_spec(compiled: CompiledScenario, command: str) -> ExperimentSpec:
    if len(compiled.specs) != 1:
        raise ScenarioError(
            f"{command} takes a one-spec scenario; '{compiled.name}' compiles "
            f"to {len(compiled.specs)} specs"
        )
    return compiled.specs[0]


def _cmd_validate(args: argparse.Namespace) -> int:
    registry = _registry_from(args)
    for text in args.scenario:
        compiled = _compile_argument(text, registry)
        print(
            f"scenario '{compiled.name}': OK — {len(compiled.specs)} spec(s), "
            f"digest {compiled.digest}"
        )
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    registry = _registry_from(args)
    entries = registry.entries()
    if args.json:
        print(json.dumps({"scenarios": entries}, indent=2, sort_keys=True))
        return 0
    rows = [
        (
            row["name"],
            row["origin"],
            row["extends"] or "-",
            row["description"][:60],
        )
        for row in entries
    ]
    print(
        format_table(
            ["name", "origin", "extends", "description"],
            rows,
            title=f"{len(entries)} registered scenario template(s)",
        )
    )
    return 0


def _cmd_run_scenario(args: argparse.Namespace) -> int:
    compiled = _compile_argument(args.scenario, _registry_from(args))
    if compiled.record_trace:
        raise SpecError(
            "run --scenario does not record traces (the scenario sets record_trace); "
            "use 'repro trace record --scenario' for one spec, or 'repro sweep run "
            "--scenario', which writes <state-dir>/traces/<i>/"
        )
    recorder = None
    if args.trace:
        _refuse_flags(args, ("--cache-dir",), "run --trace (a live run)")
        _one_spec(compiled, "run --trace")
        recorder = TraceRecorder()
    outcomes, digest = run_direct(
        compiled,
        cache_dir=Path(args.cache_dir) if args.cache_dir else None,
        sinks=(recorder,) if recorder else (),
    )
    failures = 0
    for index, (spec, outcome) in enumerate(zip(compiled.specs, outcomes)):
        if index:
            print()
        if getattr(outcome, "failed", False):
            failures += 1
            print(f"spec {index}: FAILED {outcome}")
            continue
        print(format_process_table(outcome, f"{compiled.name}[{index}]"))
        if spec.faults.enabled:
            swap = outcome.swap
            print(
                f"faults: io_errors={swap['io_errors']} "
                f"io_timeouts={swap['io_timeouts']} io_retries={swap['io_retries']} "
                f"spindles_failed={swap['spindles_failed']} "
                f"online_disks={swap['online_disks']}"
            )
    if recorder is not None:
        print()
        print(recorder.format(last=args.trace_last))
    if args.digest:
        print(f"scenario digest: {digest}")
    return 1 if failures else 0


def _client_from(args: argparse.Namespace) -> ServiceClient:
    timeout = getattr(args, "http_timeout", None) or 300.0
    if getattr(args, "url", None):
        return ServiceClient(args.url, timeout=timeout)
    if getattr(args, "state_dir", None):
        return ServiceClient.discover(Path(args.state_dir), timeout=timeout)
    raise ServiceError("give --url or --state-dir to locate the server")


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import serve

    serve(
        Path(args.state_dir),
        host=args.host,
        port=args.port,
        workers=args.workers,
        timeout_s=args.timeout,
        retries=args.retries,
        registry=_registry_from(args),
    )
    return 0


def _watch_job(client: ServiceClient, job_id: str, as_json: bool) -> int:
    for event in client.stream_events(job_id):
        if as_json:
            print(json.dumps(event, sort_keys=True))
        else:
            kind = event.get("kind", "?")
            detail = {
                k: v for k, v in event.items() if k not in ("kind", "t", "job")
            }
            print(f"[{job_id}] {kind}  {json.dumps(detail, sort_keys=True)}")
    final = client.wait(job_id, timeout=30)
    if not as_json:
        print(
            f"[{job_id}] {final['status']}: executed={final['executed']} "
            f"cache_hits={final['cache_hits']} digest={final.get('digest', '')}"
        )
    return 0 if final["status"] == "done" else 1


def _cmd_submit(args: argparse.Namespace) -> int:
    client = _client_from(args)
    if args.template is not None:
        snapshot = client.submit(template=args.template)
    else:
        if args.scenario is None:
            raise ServiceError("submit needs a scenario argument or --template")
        document, _name = _scenario_document(args.scenario, _registry_from(args))
        snapshot = client.submit(document=document)
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        print(
            f"job {snapshot['id']} submitted: '{snapshot['name']}', "
            f"{snapshot['total_specs']} spec(s)"
        )
    if args.watch:
        return _watch_job(client, snapshot["id"], args.json)
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    client = _client_from(args)
    snapshots = client.jobs()
    if args.json:
        print(json.dumps({"jobs": snapshots}, indent=2, sort_keys=True))
        return 0
    rows = [
        (
            snap["id"],
            snap["name"],
            snap["status"],
            f"{snap['done_specs']}/{snap['total_specs']}",
            snap["executed"],
            snap["cache_hits"],
            snap.get("digest", "")[:12] or "-",
        )
        for snap in snapshots
    ]
    print(
        format_table(
            ["job", "scenario", "status", "specs", "executed", "cached", "digest"],
            rows,
            title=f"{len(snapshots)} job(s)",
        )
    )
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    return _watch_job(_client_from(args), args.job, args.json)


def _cmd_fetch(args: argparse.Namespace) -> int:
    client = _client_from(args)
    if args.what == "result":
        payload = client.result(args.job)
        text = json.dumps(payload, indent=2, sort_keys=True)
    elif args.what == "serialized":
        text = client.serialized(args.job)
    elif args.what == "figure":
        text = client.figure(args.job)
    else:  # trace
        manifest = client.trace_manifest(args.job)
        if args.out is None:
            print(json.dumps({"traces": manifest}, indent=2))
            return 0
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name in manifest:
            target = out / name.replace("/", "_")
            target.write_bytes(client.trace(args.job, name))
            print(f"fetched {name} -> {target}")
        return 0
    if args.out is not None:
        Path(args.out).write_text(
            text if text.endswith("\n") else text + "\n", encoding="utf-8"
        )
        print(f"fetched {args.what} -> {args.out}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


def _cmd_compare_policies(args: argparse.Namespace) -> int:
    scale = _scale_from(args)
    spec = multiprogram_spec(
        scale,
        args.benchmark,
        args.version,
        sleep_time_s=args.sleep,
    )
    policies = args.policy or list(policy_names())
    rows = compare_policies(
        spec,
        policies=policies,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        timeout_s=args.timeout,
        retries=args.retries,
    )
    failed = [row for row in rows if row.failed]
    if args.json:
        payload = {
            "benchmark": args.benchmark,
            "version": args.version,
            "scale": scale.name,
            "rows": [
                {**row.snapshot(), "failed": row.failed} for row in rows
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 1 if failed else 0
    print(
        f"{args.benchmark} version {args.version} at scale '{scale.name}' "
        "across memory policies:"
    )
    print(format_policy_table(rows))
    if failed:
        # A partial table must not masquerade as a complete comparison:
        # summarise what failed and exit non-zero.
        print(
            f"compare-policies: {len(failed)} of {len(rows)} policy cells "
            "failed:",
            file=sys.stderr,
        )
        for row in failed:
            print(f"  - {row}", file=sys.stderr)
        return 1
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    scale = _scale_from(args)
    suite = run_version_suite(
        scale,
        args.benchmark,
        args.versions,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        timeout_s=args.timeout,
        retries=args.retries,
    )
    base = suite.get("O")
    rows = []
    for version, run in suite.items():
        normalized = (
            run.app_buckets.total / base.app_buckets.total if base else float("nan")
        )
        rows.append(
            (
                version,
                round(run.elapsed_s, 3),
                round(normalized, 3),
                run.vm.daemon_pages_stolen,
                run.vm.releaser_pages_freed,
                round(run.mean_response() * 1e3, 3),
            )
        )
    print(
        format_table(
            [
                "ver",
                "elapsed_s",
                "normalized",
                "daemon_stole",
                "released",
                "interactive_ms",
            ],
            rows,
            title=f"{args.benchmark} at scale '{scale.name}'",
        )
    )
    return 0


_FIGURES = {
    "1": lambda scale, **kw: format_figure1(run_figure1(scale, **kw)),
    "7": lambda scale, **kw: format_figure7(run_figure7(scale, **kw)),
    "8": lambda scale, **kw: format_figure8(run_figure8(scale, **kw)),
    "9": lambda scale, **kw: format_figure9(run_figure9(scale, **kw)),
    "10a": lambda scale, **kw: format_figure10a(run_figure10a(scale, **kw)),
    "10bc": lambda scale, **kw: format_figure10bc(run_figure10bc(scale, **kw)),
}


def _cmd_figure(args: argparse.Namespace) -> int:
    scale = _scale_from(args)
    print(
        _FIGURES[args.number](
            scale,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            timeout_s=args.timeout,
            retries=args.retries,
        )
    )
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    scale = _scale_from(args)
    if args.number == "1":
        print(
            format_table(
                ["characteristic", "value"],
                list(scale.describe().items()),
                title="Table 1 — simulated platform",
            )
        )
    elif args.number == "2":
        return _cmd_list(args)
    else:
        print(
            format_table3(
                run_table3(
                    scale,
                    jobs=args.jobs,
                    cache_dir=args.cache_dir,
                    timeout_s=args.timeout,
                    retries=args.retries,
                )
            )
        )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    if args.action == "prune":
        removed = prune_cache(args.cache_dir)
        freed = sum(entry.size_bytes for entry in removed)
        for entry in removed:
            print(f"removed {entry.path.name}  [{entry.status}]")
        print(f"pruned {len(removed)} entries, {freed} bytes")
        return 0
    entries = cache_entries(args.cache_dir)
    if args.json:
        payload = {
            "cache_dir": str(args.cache_dir),
            "entries": [
                {
                    "name": entry.path.name,
                    "status": entry.status,
                    "size_bytes": entry.size_bytes,
                    "prunable": entry.prunable,
                }
                for entry in entries
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if not entries:
        print(f"cache at {args.cache_dir} is empty")
        return 0
    rows = [
        (entry.path.name, entry.status, entry.size_bytes) for entry in entries
    ]
    prunable = sum(1 for entry in entries if entry.prunable)
    print(
        format_table(
            ["entry", "status", "bytes"],
            rows,
            title=(
                f"result cache at {args.cache_dir}: {len(entries)} entries, "
                f"{prunable} prunable"
            ),
        )
    )
    return 0


def _sweep_options_from(args: argparse.Namespace) -> SweepOptions:
    return SweepOptions(
        jobs=args.jobs,
        timeout_s=args.timeout,
        retries=args.retries,
        hang_timeout_s=args.hang_timeout,
        max_failures=args.max_failures,
    )


def _print_sweep_report(report) -> int:
    counts = report.counts()
    print(
        f"sweep complete: {counts['ok']}/{counts['total']} ok, "
        f"{counts['failure']} failed, {counts['quarantined']} quarantined"
    )
    for outcome in report.failures:
        print(
            f"  - spec {outcome.index} [{outcome.status}/{outcome.kind}] "
            f"after {outcome.attempts} attempt(s): {outcome.message}",
            file=sys.stderr,
        )
    print(f"merged digest: {report.digest}")
    return 1 if report.failures else 0


def _cmd_sweep_run(args: argparse.Namespace) -> int:
    if args.synthetic is not None:
        if args.scenario is not None:
            raise SweepError("sweep run: give --scenario or --synthetic, not both")
        if args.synthetic < 1:
            raise SweepError(f"--synthetic needs a positive count, got {args.synthetic}")
        specs = synthetic_specs(
            args.synthetic,
            fail_every=args.synthetic_fail_every,
            sleep_s=args.synthetic_sleep,
        )
        describe = {
            "synthetic": {
                "count": args.synthetic,
                "fail_every": args.synthetic_fail_every,
                "sleep_s": args.synthetic_sleep,
            }
        }
    elif args.scenario is not None:
        document = _compile_argument(args.scenario, _registry_from(args)).document
        specs = specs_from_scenario(document, args.state_dir)
        describe = {"scenario": document}
    else:
        raise SweepError("sweep run: give --scenario or --synthetic")
    print(f"sweep: {len(specs)} specs -> {args.state_dir}")
    try:
        report = run_sweep(
            specs,
            args.state_dir,
            options=_sweep_options_from(args),
            resume=False,
            describe=describe,
        )
    except SweepAborted as exc:
        print(f"repro sweep: {exc}", file=sys.stderr)
        return 1
    return _print_sweep_report(report)


def _cmd_sweep_resume(args: argparse.Namespace) -> int:
    specs = specs_from_meta(args.state_dir)
    print(f"sweep resume: {len(specs)} specs <- {args.state_dir}")
    try:
        report = run_sweep(
            specs,
            args.state_dir,
            options=_sweep_options_from(args),
            resume=True,
        )
    except SweepAborted as exc:
        print(f"repro sweep: {exc}", file=sys.stderr)
        return 1
    return _print_sweep_report(report)


def _cmd_sweep_status(args: argparse.Namespace) -> int:
    if args.expect is not None and not args.digest:
        raise SweepError("sweep status: --expect needs --digest")
    info = sweep_status(args.state_dir)
    digest = None
    if args.digest:
        report = collect_report(specs_from_meta(args.state_dir), args.state_dir)
        digest = report.digest
    if args.json:
        payload = dict(info)
        payload["state_dir"] = str(payload["state_dir"])
        if digest is not None:
            payload["digest"] = digest
            payload["digest_partial"] = bool(info["pending"])
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        rows = [
            ("total", info["total"]),
            ("done", info["done"]),
            ("pending", info["pending"]),
            ("ok", info["ok"]),
            ("failed", info["failure"]),
            ("quarantined", info["quarantined"]),
            ("attempts", info["attempts"]),
            ("aborted", "yes" if info["aborted"] else "no"),
        ]
        rows += [
            (f"cached in {shard}", count) for shard, count in info["by_shard"].items()
        ]
        pool = info.get("pool")
        if pool:
            rows += [
                ("pool workers", pool.get("workers", "-")),
                ("pool dispatches", pool.get("dispatches", "-")),
                (
                    "pool specs/dispatch",
                    f"{pool.get('specs_per_dispatch', 0.0):.2f}",
                ),
            ]
        print(
            format_table(
                ["field", "value"],
                rows,
                title=f"sweep checkpoint at {info['state_dir']}",
            )
        )
        if digest is not None:
            if info["pending"]:
                print(f"digest: (partial — {info['pending']} specs still pending)")
            print(f"merged digest: {digest}")
    if args.expect is not None and digest != args.expect:
        # The reproducibility gate: CI pins the expected merged digest and
        # any drift (different results, partial sweep) fails the build.
        print(
            f"repro sweep status: digest mismatch — expected {args.expect}, "
            f"got {digest}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_ensemble(args: argparse.Namespace) -> int:
    scale = _scale_from(args)
    spec = multiprogram_spec(
        scale,
        args.benchmark,
        args.version,
        sleep_time_s=args.sleep,
    )
    plan = FaultPlan.from_dict(_load_json_argument(args.faults))
    spec = spec.with_faults(plan)
    if args.policy is not None:
        spec = spec.with_policy(args.policy)
    ensemble = EnsembleSpec(
        base=spec, seeds=args.seeds, base_seed=args.fault_seed or 0
    )
    # The members as a sweep over their fault seeds: the checkpoint records
    # this document, so `sweep status|resume` rebuild the members from it.
    scenario = {
        "scenario": SCENARIO_FORMAT_VERSION,
        "scale": scale.name,
        "faults": plan.to_dict(),
        "sweep": {
            "axes": {
                "benchmark": [args.benchmark.upper()],
                "version": [args.version],
                "sleep": [args.sleep],
                "policy": [args.policy],
                "fault_seed": list(seed_stream(ensemble.base_seed, args.seeds)),
            }
        },
    }
    try:
        report = run_ensemble(
            ensemble,
            state_dir=args.state_dir,
            options=_sweep_options_from(args),
            resume=args.resume,
            resamples=args.resamples,
            alpha=args.alpha,
            scenario=scenario,
        )
    except SweepAborted as exc:
        print(f"repro ensemble: {exc}", file=sys.stderr)
        return 1
    print(
        f"{args.benchmark} version {args.version} at scale '{scale.name}': "
        f"{report.members_ok}/{args.seeds} fault seeds "
        f"(base seed {args.fault_seed or 0}, "
        f"{args.resamples} bootstrap resamples)"
    )
    print(format_ensemble_table(report, alpha=args.alpha))
    if report.failed_members:
        print(
            f"ensemble: {len(report.failed_members)} of {args.seeds} members "
            "failed and are excluded from the intervals:",
            file=sys.stderr,
        )
        for outcome in report.failed_members:
            print(
                f"  - member {outcome.index} [{outcome.kind}]: {outcome.message}",
                file=sys.stderr,
            )
        return 1
    return 0


def _cmd_trace_record(args: argparse.Namespace) -> int:
    if args.scenario is not None:
        _refuse_flags(
            args, ("--benchmark", "--version", "--sleep", "--scale"), "trace record --scenario"
        )
        compiled = _compile_argument(args.scenario, _registry_from(args))
        spec = _one_spec(compiled, "trace record")
    elif args.benchmark is not None:
        spec = multiprogram_spec(
            _scale_from(args),
            args.benchmark,
            args.version or "B",
            sleep_time_s=args.sleep,
        )
    else:
        raise SpecError("trace record: give --benchmark or --scenario")
    result, paths = record_experiment(
        spec,
        args.out,
        processes=args.process or None,
        include_faults=args.include_faults,
    )
    for name in sorted(paths):
        path = paths[name]
        header = read_header(path)
        print(
            f"recorded {name} -> {path} "
            f"({Path(path).stat().st_size} bytes, "
            f"{header.workload}/{header.version} @ {header.scale})"
        )
    print(f"elapsed_s={result.elapsed_s:.3f} engine_steps={result.engine_steps}")
    return 0


def _cmd_trace_replay(args: argparse.Namespace) -> int:
    processes = [trace_process_spec(path) for path in args.trace]
    if args.interactive:
        processes.append(
            WorkloadProcessSpec(workload=INTERACTIVE, sleep_time_s=args.sleep)
        )
    spec = ExperimentSpec(scale=_scale_from(args), processes=tuple(processes))
    if args.record_to is not None:
        result, paths = record_experiment(spec, args.record_to)
        for name in sorted(paths):
            print(f"re-recorded {name} -> {paths[name]}")
    else:
        result = run_experiment(spec)
    print(format_process_table(result, "trace replay"))
    return 0


def _cmd_trace_info(args: argparse.Namespace) -> int:
    for index, path in enumerate(args.trace):
        if index:
            print()
        info = trace_info(path)
        if args.json:
            print(json.dumps(info, indent=2, sort_keys=True))
        else:
            print(format_info(info))
    return 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    diff = diff_traces(
        args.trace_a,
        args.trace_b,
        expand=args.expand,
        include_faults=args.include_faults,
    )
    print(format_diff(diff))
    return 0 if diff.equal else 1


def _cmd_trace_import(args: argparse.Namespace) -> int:
    header, path, count = import_text(args.source, args.out, name=args.name)
    print(
        f"imported {args.source} -> {path} "
        f"({count} ops, {header.footprint_pages} pages, "
        f"version {header.version})"
    )
    return 0


def _cmd_trace_verify(args: argparse.Namespace) -> int:
    status = 0
    for path in args.trace:
        # A clean trace is decided by comparing encoded bytes; an annotated
        # or unreadable body falls back to the op diff, which reports the
        # first mismatch.  The OK line names the method that decided.
        summary = verify_bytes_against_code(path)
        if summary["equal"]:
            print(
                f"{path}: OK ({summary['method']}) — {summary['recorded_ops']} "
                f"recorded ops match the current compiler ({summary['workload']}/"
                f"{summary['version']} @ {summary['scale']})"
            )
        else:
            status = 1
            mismatch = summary.get("first_mismatch")
            print(
                f"{path}: MISMATCH — recorded {summary['recorded_ops']} ops, "
                f"regenerated {summary['regenerated_ops']}"
            )
            if mismatch:
                print(
                    f"  first at index {mismatch['index']}: "
                    f"recorded {mismatch['recorded']} vs "
                    f"regenerated {mismatch['regenerated']}"
                )
    return status


class _VersionAction(argparse.Action):
    """``--version``: reads the package metadata only when asked."""

    def __init__(self, option_strings, dest, **kwargs) -> None:
        super().__init__(option_strings, dest, nargs=0, default=argparse.SUPPRESS, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None) -> None:
        from repro._version import __version__

        print(f"repro {__version__}")
        parser.exit()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Taming the Memory Hogs' (OSDI 2000): run the "
            "simulated platform, benchmarks, and evaluation artifacts."
        ),
    )
    parser.add_argument(
        "--version", action=_VersionAction, help="print the package version and exit"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def _add_scenario_dirs(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--scenario-dir",
            action="append",
            default=None,
            metavar="DIR",
            help="directory of *.json scenario templates to register "
            "alongside the builtins (repeatable)",
        )

    def _add_client(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--url",
            default=None,
            help="server base URL (e.g. http://127.0.0.1:8742)",
        )
        sub.add_argument(
            "--state-dir",
            default=None,
            help="server state directory: discovers the URL from its "
            "server.json",
        )
        sub.add_argument(
            "--http-timeout",
            type=float,
            default=None,
            help="HTTP timeout in seconds (default 300)",
        )

    list_parser = commands.add_parser("list", help="list the benchmarks (Table 2)")
    _add_scale(list_parser)
    list_parser.set_defaults(handler=_cmd_list)

    compile_parser = commands.add_parser(
        "compile", help="show the compiler's hint plan for a benchmark"
    )
    _add_benchmark(compile_parser)
    _add_scale(compile_parser)
    compile_parser.set_defaults(handler=_cmd_compile)

    run_parser = commands.add_parser(
        "run",
        help="run one benchmark version alongside the interactive task, "
        "or any scenario",
    )
    _add_benchmark(run_parser, required=False)
    run_parser.add_argument(
        "--version",
        default=None,
        type=str.upper,
        choices=sorted(VERSIONS),
        help="program version (O, P, R, B; default B)",
    )
    run_parser.add_argument(
        "--sleep",
        type=float,
        default=None,
        help="interactive task sleep time in seconds (default: the scale's "
        "intermediate sleep)",
    )
    run_parser.add_argument(
        "--policy",
        default=None,
        metavar="NAME[:K=V,...]",
        help="memory policy to run under, e.g. 'global-clock' or "
        "'paging-directed:frag_extent=32' "
        f"(registered: {', '.join(policy_names())})",
    )
    run_parser.add_argument(
        "--faults",
        default=None,
        help="fault plan as JSON (a file path or an inline literal), e.g. "
        '\'{"seed": 7, "disk": {"io_error_prob": 0.05}}\'',
    )
    run_parser.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help="override the fault plan's seed (reproduces one exact schedule)",
    )
    run_parser.add_argument(
        "--trace",
        action="store_true",
        help="attach a trace recorder and print the tail of the event trace",
    )
    run_parser.add_argument(
        "--trace-last",
        type=int,
        default=40,
        help="how many trailing trace events to print (default 40)",
    )
    run_parser.add_argument(
        "--scenario",
        default=None,
        help="run a scenario (template name, file path, or inline JSON) "
        "in-process instead of --benchmark",
    )
    run_parser.add_argument(
        "--digest",
        action="store_true",
        help="with --scenario: print the merged result digest (the same "
        "formula the service and sweeps use)",
    )
    run_parser.add_argument(
        "--cache-dir",
        default=None,
        help="with --scenario and no --trace: content-addressed result "
        "cache directory",
    )
    _add_scenario_dirs(run_parser)
    _add_scale(run_parser, default=None)
    run_parser.set_defaults(handler=_cmd_run)

    compare_parser = commands.add_parser(
        "compare-policies",
        help="run one mix under each registered memory policy and print a "
        "comparison table (faults, releases, fragmentation)",
    )
    _add_benchmark(compare_parser)
    compare_parser.add_argument(
        "--version",
        default="R",
        type=str.upper,
        choices=sorted(VERSIONS),
        help="program version (default R, the release-hinted build)",
    )
    compare_parser.add_argument(
        "--sleep",
        type=float,
        default=None,
        help="interactive task sleep time in seconds (default: the scale's)",
    )
    compare_parser.add_argument(
        "--policy",
        action="append",
        default=None,
        metavar="NAME[:K=V,...]",
        help="policy to include (repeatable; default: every registered "
        f"policy: {', '.join(policy_names())})",
    )
    compare_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the comparison as machine-readable JSON",
    )
    _add_scale(compare_parser)
    _add_runner(compare_parser)
    compare_parser.set_defaults(handler=_cmd_compare_policies)

    suite_parser = commands.add_parser(
        "suite", help="run all four versions of one benchmark"
    )
    _add_benchmark(suite_parser)
    suite_parser.add_argument(
        "--versions", default="OPRB", help="which versions to run (default OPRB)"
    )
    _add_scale(suite_parser)
    _add_runner(suite_parser)
    suite_parser.set_defaults(handler=_cmd_suite)

    figure_parser = commands.add_parser(
        "figure", help="regenerate one of the paper's figures"
    )
    figure_parser.add_argument("number", choices=sorted(_FIGURES))
    _add_scale(figure_parser)
    _add_runner(figure_parser)
    figure_parser.set_defaults(handler=_cmd_figure)

    table_parser = commands.add_parser(
        "table", help="regenerate one of the paper's tables"
    )
    table_parser.add_argument("number", choices=["1", "2", "3"])
    _add_scale(table_parser)
    _add_runner(table_parser)
    table_parser.set_defaults(handler=_cmd_table)

    cache_parser = commands.add_parser(
        "cache", help="inspect or prune a result cache directory"
    )
    cache_parser.add_argument("action", choices=["list", "prune"])
    cache_parser.add_argument(
        "--cache-dir",
        required=True,
        help="the result cache directory to inspect",
    )
    cache_parser.add_argument(
        "--json",
        action="store_true",
        help="with 'list': emit the entries as machine-readable JSON",
    )
    cache_parser.set_defaults(handler=_cmd_cache)

    def _add_sweep_options(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="warm-pool workers (default 1: run inline, no subprocesses)",
        )
        parser.add_argument(
            "--timeout",
            type=float,
            default=None,
            help="wall-clock budget per spec in seconds (default: none)",
        )
        parser.add_argument(
            "--retries",
            type=int,
            default=0,
            help="extra attempts for a failing spec (default 0)",
        )
        parser.add_argument(
            "--hang-timeout",
            type=float,
            default=None,
            help="kill a worker whose heartbeat stalls this long while busy "
            "(default: off)",
        )
        parser.add_argument(
            "--max-failures",
            type=int,
            default=None,
            help="abort the sweep after this many failed specs (default: off)",
        )

    sweep_parser = commands.add_parser(
        "sweep",
        help="checkpointed, resumable sweeps over experiment grids",
    )
    sweep_commands = sweep_parser.add_subparsers(dest="sweep_command", required=True)

    sweep_run_parser = sweep_commands.add_parser(
        "run", help="start a sweep, journaling every outcome to --state-dir"
    )
    sweep_run_parser.add_argument(
        "--state-dir",
        required=True,
        help="checkpoint directory (journal + per-worker result caches)",
    )
    sweep_run_parser.add_argument(
        "--scenario",
        default=None,
        help="scenario to sweep (template name, file path, or inline JSON); "
        "a 'sweep' shape expands to its grid",
    )
    sweep_run_parser.add_argument(
        "--synthetic",
        type=int,
        default=None,
        help="run N synthetic no-op specs instead of a scenario "
        "(orchestrator stress testing)",
    )
    sweep_run_parser.add_argument(
        "--synthetic-fail-every",
        type=int,
        default=0,
        help="every Nth synthetic spec fails (default 0: none)",
    )
    sweep_run_parser.add_argument(
        "--synthetic-sleep",
        type=float,
        default=0.0,
        help="per-synthetic-spec sleep in seconds (default 0)",
    )
    _add_sweep_options(sweep_run_parser)
    sweep_run_parser.set_defaults(handler=_cmd_sweep_run)

    sweep_resume_parser = sweep_commands.add_parser(
        "resume",
        help="resume an interrupted sweep from its checkpoint directory",
    )
    sweep_resume_parser.add_argument(
        "--state-dir", required=True, help="checkpoint directory to resume"
    )
    _add_sweep_options(sweep_resume_parser)
    sweep_resume_parser.set_defaults(handler=_cmd_sweep_resume)

    sweep_status_parser = sweep_commands.add_parser(
        "status", help="summarise a sweep checkpoint without running anything"
    )
    sweep_status_parser.add_argument(
        "--state-dir", required=True, help="checkpoint directory to inspect"
    )
    sweep_status_parser.add_argument(
        "--digest",
        action="store_true",
        help="also compute the merged result digest (loads cached results)",
    )
    sweep_status_parser.add_argument(
        "--expect",
        default=None,
        metavar="SHA256",
        help="with --digest: exit non-zero unless the merged digest equals "
        "this value (a reproducibility gate for CI)",
    )
    sweep_status_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the status (and digest) as machine-readable JSON",
    )
    sweep_status_parser.set_defaults(handler=_cmd_sweep_status)

    ensemble_parser = commands.add_parser(
        "ensemble",
        help="Monte Carlo fault ensemble: one spec across N fault seeds, "
        "merged with bootstrap confidence intervals",
    )
    _add_benchmark(ensemble_parser)
    ensemble_parser.add_argument(
        "--version",
        default="R",
        type=str.upper,
        choices=sorted(VERSIONS),
        help="program version (default R)",
    )
    ensemble_parser.add_argument(
        "--sleep",
        type=float,
        default=None,
        help="interactive sleep time (default: the scale's intermediate)",
    )
    ensemble_parser.add_argument(
        "--policy",
        default=None,
        choices=policy_names(),
        help="memory policy for every member (default: the paper's)",
    )
    ensemble_parser.add_argument(
        "--faults",
        required=True,
        help="JSON fault plan (file path or inline); its seed is replaced "
        "by each member's derived seed",
    )
    ensemble_parser.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help="base seed rooting the member seed stream (default 0)",
    )
    ensemble_parser.add_argument(
        "--seeds",
        type=int,
        default=32,
        help="ensemble size: number of derived fault seeds (default 32)",
    )
    ensemble_parser.add_argument(
        "--resamples",
        type=int,
        default=2000,
        help="bootstrap resamples per metric (default 2000)",
    )
    ensemble_parser.add_argument(
        "--alpha",
        type=float,
        default=0.05,
        help="1 - confidence level for the intervals (default 0.05)",
    )
    ensemble_parser.add_argument(
        "--state-dir",
        default=None,
        help="checkpoint the member sweep here (resumable); default: "
        "a throwaway directory",
    )
    ensemble_parser.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted ensemble from --state-dir",
    )
    _add_scale(ensemble_parser)
    _add_sweep_options(ensemble_parser)
    ensemble_parser.set_defaults(handler=_cmd_ensemble)

    trace_parser = commands.add_parser(
        "trace",
        help="record, replay, inspect, diff, and import binary op traces",
    )
    trace_commands = trace_parser.add_subparsers(dest="trace_command", required=True)

    record_parser = trace_commands.add_parser(
        "record",
        help="run an experiment and capture each hog's op stream to a trace",
    )
    _add_benchmark(record_parser, required=False)
    record_parser.add_argument(
        "--scenario",
        default=None,
        help="one-spec scenario to record instead of --benchmark "
        "(template name, file path, or inline JSON)",
    )
    record_parser.add_argument(
        "--version",
        default=None,
        type=str.upper,
        choices=sorted(VERSIONS),
        help="program version for --benchmark (default B)",
    )
    record_parser.add_argument(
        "--sleep",
        type=float,
        default=None,
        help="interactive sleep for --benchmark (default: the scale's)",
    )
    record_parser.add_argument(
        "--out",
        required=True,
        help="output: a directory (one <process>.trace per hog) or a "
        "single .trace file (single-hog mixes only)",
    )
    record_parser.add_argument(
        "--process",
        action="append",
        default=None,
        help="capture only this process (repeatable; default: every hog)",
    )
    record_parser.add_argument(
        "--include-faults",
        action="store_true",
        help="also record page-fault annotations ('f' ops)",
    )
    _add_scale(record_parser, default=None)
    record_parser.set_defaults(handler=_cmd_trace_record)

    replay_parser = trace_commands.add_parser(
        "replay", help="replay trace files as a scheduled experiment mix"
    )
    replay_parser.add_argument(
        "trace", nargs="+", help="trace file(s) to replay as processes"
    )
    replay_parser.add_argument(
        "--interactive",
        action="store_true",
        help="add the paper's interactive task to the mix",
    )
    replay_parser.add_argument(
        "--sleep",
        type=float,
        default=None,
        help="interactive sleep time (default: the scale's intermediate)",
    )
    replay_parser.add_argument(
        "--record-to",
        default=None,
        help="re-record the replayed op streams to this directory "
        "(for round-trip checks via `repro trace diff`)",
    )
    _add_scale(replay_parser)
    replay_parser.set_defaults(handler=_cmd_trace_replay)

    info_parser = trace_commands.add_parser(
        "info", help="footprint and locality statistics for trace files"
    )
    info_parser.add_argument("trace", nargs="+", help="trace file(s)")
    info_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    info_parser.set_defaults(handler=_cmd_trace_info)

    diff_parser = trace_commands.add_parser(
        "diff",
        help="compare two traces op-for-op (exit 1 when they differ)",
    )
    diff_parser.add_argument("trace_a")
    diff_parser.add_argument("trace_b")
    diff_parser.add_argument(
        "--expand",
        action="store_true",
        help="expand run-length batches before comparing",
    )
    diff_parser.add_argument(
        "--include-faults",
        action="store_true",
        help="also compare fault annotations (stripped by default)",
    )
    diff_parser.set_defaults(handler=_cmd_trace_diff)

    import_parser = trace_commands.add_parser(
        "import", help="convert an external text trace to the binary format"
    )
    import_parser.add_argument("source", help="text trace file")
    import_parser.add_argument(
        "--out", required=True, help="binary trace file to write"
    )
    import_parser.add_argument(
        "--name", default=None, help="process name (default: the source stem)"
    )
    import_parser.set_defaults(handler=_cmd_trace_import)

    verify_parser = trace_commands.add_parser(
        "verify",
        help="check recorded op streams against the current compiler "
        "(no simulation; exit 1 on mismatch)",
    )
    verify_parser.add_argument("trace", nargs="+", help="trace file(s)")
    verify_parser.set_defaults(handler=_cmd_trace_verify)

    validate_parser = commands.add_parser(
        "validate",
        help="validate scenario files/templates without running anything "
        "(exit 2 with a path-precise error on a bad scenario)",
    )
    validate_parser.add_argument(
        "scenario",
        nargs="+",
        help="scenario template name(s), file path(s), or inline JSON",
    )
    _add_scenario_dirs(validate_parser)
    validate_parser.set_defaults(handler=_cmd_validate)

    scenarios_parser = commands.add_parser(
        "scenarios", help="list the registered scenario templates"
    )
    scenarios_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    _add_scenario_dirs(scenarios_parser)
    scenarios_parser.set_defaults(handler=_cmd_scenarios)

    serve_parser = commands.add_parser(
        "serve",
        help="run the experiment server: submit scenarios over HTTP, "
        "dedupe through the shared result cache, survive restarts",
    )
    serve_parser.add_argument(
        "--state-dir",
        required=True,
        help="server state: job index, shared result cache, and one sweep "
        "checkpoint per job (journal, events, traces)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="listen port (default 0: ephemeral, published in server.json)",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="concurrent jobs, and the warm pool processes that run their "
        "specs (default 2)",
    )
    serve_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="wall-clock budget per spec in seconds (default: none)",
    )
    serve_parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="extra attempts for a failing spec (default 0)",
    )
    _add_scenario_dirs(serve_parser)
    serve_parser.set_defaults(handler=_cmd_serve)

    submit_parser = commands.add_parser(
        "submit", help="submit a scenario to a running experiment server"
    )
    submit_parser.add_argument(
        "scenario",
        nargs="?",
        default=None,
        help="scenario to submit: template name, file path, or inline JSON",
    )
    submit_parser.add_argument(
        "--template",
        default=None,
        help="submit a template registered on the server by name",
    )
    submit_parser.add_argument(
        "--watch",
        action="store_true",
        help="stream the job's events until it finishes (exit 1 on failure)",
    )
    submit_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    _add_client(submit_parser)
    _add_scenario_dirs(submit_parser)
    submit_parser.set_defaults(handler=_cmd_submit)

    jobs_parser = commands.add_parser(
        "jobs", help="list the jobs on a running experiment server"
    )
    jobs_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    _add_client(jobs_parser)
    jobs_parser.set_defaults(handler=_cmd_jobs)

    watch_parser = commands.add_parser(
        "watch", help="stream one job's events until it finishes"
    )
    watch_parser.add_argument("job", help="job id (e.g. j-000001)")
    watch_parser.add_argument(
        "--json", action="store_true", help="emit raw JSONL events"
    )
    _add_client(watch_parser)
    watch_parser.set_defaults(handler=_cmd_watch)

    fetch_parser = commands.add_parser(
        "fetch", help="fetch a finished job's result, text, or traces"
    )
    fetch_parser.add_argument("job", help="job id (e.g. j-000001)")
    fetch_parser.add_argument(
        "--what",
        choices=["result", "serialized", "figure", "trace"],
        default="result",
        help="result: digest + outcome rows (JSON); serialized: canonical "
        "result text; figure: rendered tables; trace: recorded op streams "
        "(default result)",
    )
    fetch_parser.add_argument(
        "--out",
        default=None,
        help="write to this file (trace: directory) instead of stdout",
    )
    _add_client(fetch_parser)
    fetch_parser.set_defaults(handler=_cmd_fetch)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (
        SpecError,
        ScaleError,
        FaultPlanError,
        PolicyError,
        TraceError,
        SweepError,
        ScenarioError,
        ServiceError,
        JobError,
        OSError,
    ) as exc:
        # Bad input — missing spec file, corrupt trace, invalid plan,
        # malformed scenario, unreachable server — is an exit-2 one-liner,
        # not a traceback.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
