"""The repository benchmark: one workload per invocation, checked physics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mix --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` reports the per-layer metrics: exact work counts from an
untraced half, and host time from a separate traced half (spans around
public calls plus a SIGPROF stack sampler).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import physics
import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Seconds one unit of reference work (``reference.py``) takes on the design
#: host, a shared 2-vCPU KVM guest (Intel Xeon, Python 3.11) in its faster
#: state.  End-to-end timings are reported in reference-host seconds: host
#: seconds x REFERENCE_HOST_S / the run's mean reference time.
REFERENCE_HOST_S = 0.2
#: Set-up is repeated this many times per measured run; the median is reported.
SETUP_REPEATS = 5
#: A measured run makes at least this many passes, so counts can be compared.
MIN_PASSES = 2
#: The tail percentile per workload: the highest with at least ten samples
#: beyond it at the design run length (20 s on a 2-vCPU host).
TAIL_PERCENTILE = {"mix": 75, "replay": 75, "grid": 90, "served": 90}

END_TO_END_UNITS = {
    "wall_s": "s",
    "sim_s_per_wall_s": "sim_s/s",
    "specs_per_s": "1/s",
    "job_latency_p50_s": "s",
    "job_latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Spans timed around public calls during the traced half: metric name ->
#: (module, class or None, attribute, binding modules, byte counting).
SPANS = {
    "machine.build_s": ("repro.machine", "Machine", "from_spec", (), None),
    "machine.run_s": ("repro.machine", "Machine", "run", (), None),
    "machine.result_s": ("repro.machine", "Machine", "result", (), None),
    "core.compiler.compile_s": (
        "repro.core.compiler.pipeline", None, "compile_program", ("repro",), None),
    "trace.record_s": ("repro.trace.record", None, "record_experiment", ("repro",), None),
    "trace.decode_s": ("repro.trace.workload", "TraceWorkload", "columns", (), None),
    "trace.verify_s": (
        "repro.trace.analyze", None, "verify_bytes_against_code", ("repro",), None),
    "experiments.wire.encode_s": ("repro.experiments.wire", None, "encode", (), "result"),
    "experiments.wire.decode_s": ("repro.experiments.wire", None, "decode", (), "arg"),
    "experiments.sweep.journal_s": (
        "repro.ioutil", None, "append_journal_line", ("repro.experiments.sweep",), None),
    "experiments.cache.store_s": (
        "repro.experiments.runner", None, "store_cached", ("repro",), None),
    "experiments.cache.load_s": (
        "repro.experiments.runner", None, "load_cached", ("repro",), None),
    "experiments.pool.wait_s": ("multiprocessing.connection", None, "wait", (), None),
}

#: Per-job host times the workloads measure themselves (reported as medians).
JOB_TIMES = ("service.submit_s", "service.queue_wait_s", "service.stream_lag_s")

#: Exact counts a workload may not observe; reported as 0 there.
EXTRA_COUNTS = (
    "machine.template_hits",
    "machine.template_misses",
    "experiments.pool.dispatches",
    "experiments.pool.specs_per_dispatch",
    "experiments.pool.worker_reuse_rate",
    "experiments.pool.crashes",
    "experiments.sweep.journal_lines",
    "service.cache_hits",
    "service.dedup_waits",
)


# -- small measurement helpers ------------------------------------------------


def percentile(values: List[float], pct: float) -> float:
    """Kernel-smoothed percentile of ``values``.

    A Gaussian-weighted mean of the order statistics around ``pct`` (the
    Sheather-Marron estimator; bandwidth 0.1 at the median, narrowing
    toward the tails).  Served latencies sit on the server's 50 ms
    event-stream poll, so the plain sample median jumps a whole poll
    interval when half the jobs cross one; the smoothed estimate moves in
    proportion to how many cross.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 2:
        return ordered[0] if ordered else 0.0
    p = pct / 100.0
    width = 0.2 * min(p, 1.0 - p)

    def cdf(t: float) -> float:
        return 0.5 * (1.0 + math.erf((t - p) / (width * math.sqrt(2.0))))

    low = cdf(0.0)
    total = cdf(1.0) - low
    estimate = 0.0
    for i, value in enumerate(ordered):
        high = cdf((i + 1) / n)
        estimate += value * (high - low)
        low = high
    return estimate / total


def peak_rss_mb() -> float:
    """Highest VmHWM of this process and every child it has reaped."""
    own_kb = 0
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                own_kb = int(line.split()[1])
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kb, children_kb) / 1024.0


def import_probe_s(modules) -> float:
    """Time a fresh interpreter importing the workload's modules."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(modules)],
        check=True,
        env=env,
        cwd=str(ROOT),
        timeout=120,
    )
    return time.perf_counter() - started


# -- checks -----------------------------------------------------------------


class Checker:
    """Physics digests against the pins, and exact counts against each other.

    Within a run every pass must produce the same digest and counts.  Across
    runs, the first run of a (workload, seed, code version) writes its
    digest and counts under ``.perfbench/state``; later runs must match them.
    At the default seed the digests must also match ``pinned.json``.
    """

    def __init__(self, workload: str, seed: int, state_dir: Path) -> None:
        from repro.experiments.runner import code_version

        self.workload = workload
        self.seed = seed
        with open(HERE / "pinned.json", encoding="utf-8") as handle:
            pinned = json.load(handle)
        self.pins = pinned["digests"] if seed == pinned["seed"] else None
        self.path = state_dir / f"{workload}-seed{seed}-{code_version()[:16]}.json"
        self.digests: Dict[str, str] = {}
        self.counts: Dict[str, object] = {}
        self.errors: List[str] = []

    def _keyed(self, outcome):
        """(digest key, digest) pairs a pass must agree with."""
        if self.workload == "served":
            return [
                (f"served/{label}", physics.digest_texts([text]))
                for label, text in zip(outcome.labels, outcome.texts)
            ]
        digest = physics.digest_texts(outcome.texts)
        # A replay must reproduce the live mix exactly.
        keys = ("mix", "replay") if self.workload == "replay" else (self.workload,)
        return [(key, digest) for key in keys]

    def check_digests(self, outcome) -> int:
        """Returns how many specs or jobs missed their digest."""
        agreed = [self._agree(key, digest) for key, digest in self._keyed(outcome)]
        if self.workload == "served":
            return agreed.count(False)
        return 0 if all(agreed) else len(outcome.texts)

    def _agree(self, key: str, digest: str) -> bool:
        expected = self.digests.setdefault(key, digest)
        if self.pins is not None and self.pins.get(key) != digest:
            self.errors.append(f"physics digest {key} {digest[:16]} != pinned "
                               f"{str(self.pins.get(key))[:16]}")
            return False
        if expected != digest:
            self.errors.append(f"physics digest {key} drifted between passes")
            return False
        return True

    def check_counts(self, counts: Dict[str, object]) -> None:
        for key, value in counts.items():
            seen = self.counts.setdefault(key, value)
            if seen != value:
                self.errors.append(f"count drift: {key} {seen!r} then {value!r}")

    def compare_with_earlier_runs(self) -> None:
        digests = dict(self.digests)
        if self.path.exists():
            with open(self.path, encoding="utf-8") as handle:
                earlier = json.load(handle)
            for key, value in digests.items():
                if earlier["digests"].get(key, value) != value:
                    self.errors.append(f"physics digest {key} differs from an earlier run")
            for key, value in self.counts.items():
                if key in earlier["counts"] and earlier["counts"][key] != value:
                    self.errors.append(
                        f"count drift across runs: {key} {earlier['counts'][key]!r} "
                        f"then {value!r}"
                    )
            digests = {**earlier["digests"], **digests}
            counts = {**earlier["counts"], **self.counts}
        else:
            counts = dict(self.counts)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".tmp{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump({"digests": digests, "counts": counts}, handle, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


def exact_counts_of(outcome) -> Dict[str, object]:
    counts = physics.exact_counts(outcome.summaries)
    for key in EXTRA_COUNTS:
        if key in outcome.extra:
            counts[key] = outcome.extra[key]
    return counts


# -- the two kinds of run ----------------------------------------------------


class Run:
    """Shared state of one invocation."""

    def __init__(self, args) -> None:
        self.args = args
        self.tmp = ROOT / ".perfbench" / "tmp" / f"{args.workload}-{os.getpid()}"
        self.out = ROOT / ".perfbench" / "out"
        nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
            os.cpu_count() or 1)
        self.workload = workloads.WORKLOADS[args.workload](ROOT, self.tmp, args.seed, nproc)
        self.checker = Checker(args.workload, args.seed, ROOT / ".perfbench" / "state")
        self.reference = reference.Reference()
        self.reference_samples: List[float] = []
        self.attempted = 0
        self.failed = 0

    def sample_reference(self) -> None:
        self.reference_samples.append(self.reference.time_s())

    def host_scale(self) -> float:
        """Host seconds to reference-host seconds, from this run's samples.

        The samples are spread between the set-ups and passes they scale, so
        a stretch of slow host slows both alike.
        """
        return REFERENCE_HOST_S / statistics.mean(self.reference_samples)

    def execute(self, passes: int = 0, seconds: float = 0.0, tracer=None,
                sample: bool = False) -> list:
        """Run timed passes (at least ``passes``, for at least ``seconds``).

        With ``sample``, the reference is timed before each pass and after
        the last.
        """
        outcomes = []
        started = time.perf_counter()
        while len(outcomes) < passes or time.perf_counter() - started < seconds:
            gc.collect()
            if sample:
                self.sample_reference()
            if tracer is None:
                outcome = self.workload.run_pass()
            else:
                tracer.phase = "pass"
                token = tracer.begin("pass")  # the parent of the pass's spans
                outcome = self.workload.run_pass()
                tracer.end(token)
                tracer.phase = "check"
            self.workload.check(outcome)
            outcome.failed += self.checker.check_digests(outcome)
            self.checker.check_counts(exact_counts_of(outcome))
            self.checker.errors.extend(outcome.errors)
            self.attempted += outcome.attempted
            self.failed += min(outcome.failed, outcome.attempted)
            # Keep what the metrics need, not the results: grid texts run to
            # megabytes, and sweep shards fork from this process.
            outcome.completed = len(outcome.texts)
            if len(outcomes) >= 1:
                outcome.texts, outcome.summaries = [], []
            outcomes.append(outcome)
        if sample:
            self.sample_reference()
        return outcomes

    def import_modules(self) -> None:
        for module in self.workload.imports:
            __import__(module)


def measured_run(run: Run) -> Dict[str, float]:
    """End-to-end metrics, tracing off, in reference-host seconds."""
    workload = run.workload
    run.import_modules()
    run.reference.work()  # warm-up, not a sample
    setups = []
    for _ in range(SETUP_REPEATS):
        workload.teardown()
        gc.collect()
        run.sample_reference()
        started = time.perf_counter()
        import_probe_s(workload.imports)
        workload.setup()
        setups.append(time.perf_counter() - started)
    outcomes = run.execute(passes=MIN_PASSES, seconds=run.args.seconds, sample=True)
    workload.teardown()  # the server and its pool workers count in peak RSS
    scale = run.host_scale()
    walls = [o.wall_s * scale for o in outcomes]
    latencies = [x * scale for o in outcomes for x in o.latencies]
    total_wall = sum(walls)
    return {
        "wall_s": statistics.median(walls),
        "sim_s_per_wall_s": sum(o.sim_s for o in outcomes) / total_wall,
        "specs_per_s": sum(o.completed for o in outcomes) / total_wall,
        "job_latency_p50_s": percentile(latencies, 50),
        "job_latency_tail_s": percentile(latencies, TAIL_PERCENTILE[run.args.workload]),
        "setup_s": statistics.median(setups) * scale,
        "peak_rss_mb": peak_rss_mb(),
        "_host_walls": [o.wall_s for o in outcomes],
        "_samples": len(latencies),
    }


def traced_run(run: Run) -> Dict[str, float]:
    """Per-layer metrics: a traced half, then an untraced half."""
    import importlib

    from repro.machine import clear_template_cache, template_counters

    workload = run.workload
    passes = workload.traced_passes
    # Loaded before wrapping, so modules that bound a wrapped name at import
    # are rebound too.
    run.import_modules()

    # Traced half: set-up, passes and (for pooled workloads) the twin.
    tracer = tracing.Tracer()
    for metric, (module, cls, attr, bindings, count) in SPANS.items():
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        tracer.wrap(owner, attr, metric[: -len("_s")], bindings, count)
    sampler = tracing.StackSampler(tracer)
    phase_wall: Dict[str, float] = {}
    twin_summaries: List[Dict[str, object]] = []
    twin_templates = {}
    sampler.start()
    try:
        started = time.perf_counter()
        tracer.phase = "setup"
        token = tracer.begin("setup")
        workload.setup()
        tracer.end(token)
        phase_wall["setup"] = time.perf_counter() - started
        traced = run.execute(passes=passes, tracer=tracer)
        phase_wall["pass"] = sum(o.wall_s for o in traced)
        tracer.phase = "twin"
        started = time.perf_counter()
        before = template_counters()
        token = tracer.begin("twin")
        twin_summaries = workload.twin()
        tracer.end(token)
        after = template_counters()
        phase_wall["twin"] = time.perf_counter() - started
        twin_templates = {
            "machine.template_hits": after["hits"] - before["hits"],
            "machine.template_misses": after["misses"] - before["misses"],
        }
    finally:
        sampler.stop()
        tracer.unwrap_all()
        workload.teardown()

    # Untraced half: the same set-up and passes, for counts and overhead.
    clear_template_cache()
    workload.setup()
    untraced = run.execute(passes=passes, sample=True)
    workload.teardown()

    counts = exact_counts_of(untraced[0])
    if twin_summaries:
        # The twin runs the pooled specs in-process: same physics, same work.
        twin_counts = physics.exact_counts(twin_summaries)
        mismatched = sorted(k for k, v in twin_counts.items() if counts[k] != v)
        if mismatched:
            run.checker.errors.append(f"inline twin disagrees with the pooled run on {mismatched}")
        counts.update(twin_templates)
    metrics: Dict[str, float] = {key: counts.get(key, 0) for key in EXTRA_COUNTS}
    metrics.update(counts)

    layers = sampler.layer_totals(("setup", "pass", "twin"))
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = layers.get(layer, 0.0)
    sim_phases = sampler.layer_totals(("pass", "twin")).get("sim", 0.0)
    dispatches = sum(s["engine_steps"] for s in twin_summaries)
    if workload.name in ("mix", "replay"):  # simulation ran in this process
        # Passes repeat exactly (checked), so the first pass stands for all.
        dispatches += len(traced) * sum(s["engine_steps"] for s in traced[0].summaries)
    metrics["sim.host_us_per_dispatch"] = sim_phases / dispatches * 1e6 if dispatches else 0.0
    span_totals = tracer.totals(("setup", "pass", "twin"))
    for metric in SPANS:
        metrics[metric] = span_totals.get(metric[: -len("_s")], 0.0)
    metrics["experiments.wire.bytes"] = tracer.wire_bytes
    for name in JOB_TIMES:
        values = [x for o in traced for x in o.host.get(name, [])]
        metrics[name] = statistics.median(values) if values else 0.0
    traced_wall = sum(phase_wall.values())
    untraced_pass = sum(o.wall_s for o in untraced)
    metrics["host.trace_overhead"] = phase_wall["pass"] / untraced_pass
    metrics["host.trace_coverage"] = sum(layers.get(x, 0.0) for x in tracing.LAYERS) / traced_wall
    metrics["fail_ratio"] = run.failed / run.attempted if run.attempted else 1.0

    run.out.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload.name,
        "seed": run.args.seed,
        "traced_passes": passes,
        "phases": {
            "setup": "set-up, in the benchmark process",
            "pass": (
                "dispatcher side (benchmark process; simulation runs in other processes)"
                if workload.name in ("grid", "served") else "in-process simulation"
            ),
            "twin": "inline twin of the pooled specs (worker-side split)",
            "check": "the benchmark's own output checks (excluded from layer totals)",
        },
        "phase_wall_s": phase_wall,
        "layer_self_s_by_phase": sampler.by_phase,
        "samples": sampler.samples,
        "spans": tracer.spans,
    }
    path = run.out / f"{workload.name}-seed{run.args.seed}-trace.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return metrics


# -- metric registry ----------------------------------------------------------


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric and its unit, in report order."""
    units: Dict[str, str] = {}
    for name in physics.exact_counts([]):
        if name.endswith("_per_sim_s"):
            units[name] = "1/sim_s"
        elif name.startswith("sim_time.") or name.endswith("_sim_s"):
            units[name] = "sim_s"
        elif name.endswith("_ratio"):
            units[name] = "ratio"
        else:
            units[name] = "count"
    for name in EXTRA_COUNTS:
        units[name] = "ratio" if name.endswith(("_rate", "_per_dispatch")) else "count"
    for layer in tracing.LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["sim.host_us_per_dispatch"] = "us"
    for name in SPANS:
        units[name] = "s"
    units["experiments.wire.bytes"] = "B"
    for name in JOB_TIMES:
        units[name] = "s"
    units["host.calib_s"] = "s"
    units["host.trace_overhead"] = "x"
    units["host.trace_coverage"] = "ratio"
    units["fail_ratio"] = "ratio"
    return units


# -- entry point --------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    # A terminated benchmark still stops the server it started (see finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Run(args)
    try:
        if args.trace:
            values = traced_run(run)
            units = per_layer_units()
        else:
            values = measured_run(run)
            units = END_TO_END_UNITS
        run.checker.compare_with_earlier_runs()
    finally:
        run.workload.teardown()
        shutil.rmtree(run.tmp, ignore_errors=True)
    errors = run.checker.errors
    for error in errors:
        print(f"perfbench: {args.workload}: {error}", file=sys.stderr)
    values["host.calib_s"] = statistics.mean(run.reference_samples)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"reference={values['host.calib_s']:.6f}s x{len(run.reference_samples)} "
          f"attempted={run.attempted} failed={run.failed}")
    for name, unit in units.items():
        print(f"{name:<40} {values[name]!r:>24} {unit}")
    if not args.trace:
        walls = " ".join(f"{w:.3f}" for w in values["_host_walls"])
        print(f"# pass walls in host seconds: {walls}; latency samples={values['_samples']} "
              f"tail=p{TAIL_PERCENTILE[args.workload]}")
        refs = " ".join(f"{r:.4f}" for r in run.reference_samples)
        print(f"# reference samples (set-ups, then passes): {refs}")
    result = {
        "correct": not errors and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
