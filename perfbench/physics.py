"""Physics digests and exact work counts, computed outside ``repro``.

The physics of a run is everything the paper's figures read: simulated
elapsed time, per-process time buckets, VM / swap / run-time statistics and
the interactive sweeps.  It excludes ``engine_steps``, which counts engine
dispatches and is expected to move under a pure speed change.

The canonical text is built here from public ``ExperimentResult`` fields, in
the same line format the service's ``/serialized`` endpoint returns, so a
served job, an in-process run and a trace replay of the same spec hash alike.
"""

from __future__ import annotations

import hashlib
import re
from typing import Dict, Iterable, List, Optional

#: Lines of the service's ``/serialized`` text that are not physics: the
#: per-spec header (its key embeds the code version) and the dispatch count.
_NON_PHYSICS_PREFIXES = ("# spec ", "engine_steps=")


def physics_text(result) -> str:
    """Canonical physics of one ``ExperimentResult`` (no ``engine_steps``)."""
    parts = [
        f"scale={result.scale}",
        f"elapsed_s={result.elapsed_s!r}",
        f"vm={result.vm!r}",
        f"swap={sorted(result.swap.items())!r}",
    ]
    for process in result.processes:
        parts.append(
            "process "
            f"name={process.name} workload={process.workload} "
            f"version={process.version} completed={process.completed} "
            f"interactive={process.interactive} "
            f"sleep_time_s={process.sleep_time_s!r} "
            f"buckets={process.buckets!r} stats={process.stats!r} "
            f"worker_buckets={process.worker_buckets!r} "
            f"runtime={process.runtime!r} sweeps={process.sweeps!r}"
        )
    return "\n".join(parts)


def served_physics_text(serialized: str) -> str:
    """The physics part of one job's ``/serialized`` body."""
    lines = [
        line
        for line in serialized.split("\n")
        if line and not line.startswith(_NON_PHYSICS_PREFIXES)
    ]
    return "\n".join(lines)


def digest_texts(texts: Iterable[str]) -> str:
    """SHA-256 over an ordered list of physics texts."""
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode("utf-8"))
        digest.update(b"\n\x00\n")
    return digest.hexdigest()


# -- normalized summaries ---------------------------------------------------
#
# Exact counts are computed from one normalized shape, built either from an
# ExperimentResult or by parsing the serialized text a served job returns.

_FIELD = re.compile(r"(\w+)=(-?[0-9][0-9.e+-]*|True|False|None)")
_SWAP_ITEM = re.compile(r"\('(\w+)', (-?[0-9][0-9.e+-]*)\)")


def _number(text: str):
    if text in ("True", "False"):
        return text == "True"
    if text == "None":
        return None
    try:
        return int(text)
    except ValueError:
        return float(text)


def _fields(blob: str) -> Dict[str, object]:
    return {key: _number(value) for key, value in _FIELD.findall(blob)}


def _group(line: str, name: str) -> Optional[str]:
    """The argument list of ``name(...)`` in ``line`` (no nested parens)."""
    start = line.find(f"{name}(")
    if start < 0:
        return None
    start += len(name) + 1
    return line[start:line.index(")", start)]


def summarize(result) -> Dict[str, object]:
    """Normalized summary of one ``ExperimentResult``."""
    return {
        "elapsed_s": result.elapsed_s,
        "engine_steps": result.engine_steps,
        "vm": {k: v for k, v in vars(result.vm).items() if k != "frag"},
        "swap": dict(result.swap),
        "processes": [
            {
                "interactive": p.interactive,
                "buckets": vars(p.buckets).copy(),
                "stats": vars(p.stats).copy(),
                "runtime": vars(p.runtime).copy() if p.runtime is not None else None,
                "sweeps": len(p.sweeps),
            }
            for p in result.processes
        ],
    }


def parse_serialized(serialized: str) -> Dict[str, object]:
    """Normalized summary of one served job's ``/serialized`` body."""
    summary: Dict[str, object] = {"processes": []}
    for line in serialized.split("\n"):
        if line.startswith("elapsed_s="):
            summary["elapsed_s"] = float(line.split("=", 1)[1])
        elif line.startswith("engine_steps="):
            summary["engine_steps"] = int(line.split("=", 1)[1])
        elif line.startswith("vm="):
            summary["vm"] = _fields(_group(line, "VmStats") or "")
        elif line.startswith("swap="):
            summary["swap"] = {k: _number(v) for k, v in _SWAP_ITEM.findall(line)}
        elif line.startswith("process "):
            runtime = _group(line, "RuntimeStats")
            summary["processes"].append(
                {
                    "interactive": "interactive=True" in line,
                    "buckets": _fields(_group(line, " buckets=TimeBuckets") or ""),
                    "stats": _fields(_group(line, "AddressSpaceStats") or ""),
                    "runtime": _fields(runtime) if runtime is not None else None,
                    "sweeps": line.count("SweepSample("),
                }
            )
    missing = {"elapsed_s", "engine_steps", "vm", "swap"} - set(summary)
    if missing:
        raise ValueError(f"serialized result lacks {sorted(missing)}")
    return summary


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def exact_counts(summaries: List[Dict[str, object]]) -> Dict[str, object]:
    """Per-layer work counts and simulated time over a list of summaries.

    Every value is a deterministic function of the simulated physics plus
    the engine's dispatch count, so it must repeat exactly between runs of
    the same seed and code.
    """
    total: Dict[str, float] = {}

    def add(key: str, value) -> None:
        total[key] = total.get(key, 0) + (value or 0)

    for s in summaries:
        vm, swap = s["vm"], s["swap"]
        add("dispatches", s["engine_steps"])
        add("elapsed", s["elapsed_s"])
        for key in (
            "low_memory_stalls",
            "daemon_runs",
            "daemon_pages_scanned",
            "daemon_pages_stolen",
            "releaser_requests",
            "releaser_pages_freed",
            "releaser_skipped_referenced",
            "releaser_skipped_absent",
        ):
            add(key, vm[key])
        for key in ("demand_reads", "prefetch_reads", "writebacks"):
            add(key, swap[key])
        add("demand_latency_weighted", swap["mean_demand_latency_s"] * swap["demand_reads"])
        for p in s["processes"]:
            for key in ("hard_faults", "soft_faults", "rescues", "allocations",
                        "prefetch_validates", "prefetches_issued"):
                add(key, p["stats"][key])
            buckets = p["buckets"]
            for key in ("user", "system", "stall_memory", "stall_io"):
                add("bucket_" + key, buckets[key])
            add("interactive_sweeps", p["sweeps"] if p["interactive"] else 0)
            runtime = p["runtime"]
            if runtime:
                for key in ("prefetch_hints", "prefetch_filtered_bitmap",
                            "prefetch_filtered_inflight", "release_pages_hinted",
                            "release_pages_issued", "pressure_drains"):
                    add("rt_" + key, runtime[key])
    g = total.get
    released_or_skipped = (
        g("releaser_pages_freed", 0)
        + g("releaser_skipped_referenced", 0)
        + g("releaser_skipped_absent", 0)
    )
    return {
        "sim.dispatches": int(g("dispatches", 0)),
        "sim.dispatches_per_sim_s": _ratio(g("dispatches", 0), g("elapsed", 0)),
        "vm.hard_faults": int(g("hard_faults", 0)),
        "vm.soft_faults": int(g("soft_faults", 0)),
        "vm.rescues": int(g("rescues", 0)),
        "vm.allocations": int(g("allocations", 0)),
        "vm.low_memory_stalls": int(g("low_memory_stalls", 0)),
        "vm.daemon_runs": int(g("daemon_runs", 0)),
        "vm.daemon_pages_scanned": int(g("daemon_pages_scanned", 0)),
        "vm.daemon_pages_stolen": int(g("daemon_pages_stolen", 0)),
        "vm.releaser_requests": int(g("releaser_requests", 0)),
        "vm.releaser_pages_freed": int(g("releaser_pages_freed", 0)),
        "vm.release_useful_ratio": _ratio(g("releaser_pages_freed", 0), released_or_skipped),
        "vm.prefetch_useful_ratio": _ratio(
            g("prefetch_validates", 0), g("prefetches_issued", 0)
        ),
        "disk.requests": int(
            g("demand_reads", 0) + g("prefetch_reads", 0) + g("writebacks", 0)
        ),
        "disk.demand_reads": int(g("demand_reads", 0)),
        "disk.prefetch_reads": int(g("prefetch_reads", 0)),
        "disk.writebacks": int(g("writebacks", 0)),
        "disk.demand_latency_sim_s": _ratio(
            g("demand_latency_weighted", 0), g("demand_reads", 0)
        ),
        "core.runtime.prefetch_hints": int(g("rt_prefetch_hints", 0)),
        "core.runtime.prefetch_filter_ratio": _ratio(
            g("rt_prefetch_filtered_bitmap", 0) + g("rt_prefetch_filtered_inflight", 0),
            g("rt_prefetch_hints", 0),
        ),
        "core.runtime.release_pages_hinted": int(g("rt_release_pages_hinted", 0)),
        "core.runtime.release_pages_issued": int(g("rt_release_pages_issued", 0)),
        "core.runtime.pressure_drains": int(g("rt_pressure_drains", 0)),
        "workloads.interactive_sweeps": int(g("interactive_sweeps", 0)),
        "sim_time.elapsed_s": g("elapsed", 0.0),
        "sim_time.user_s": g("bucket_user", 0.0),
        "sim_time.system_s": g("bucket_system", 0.0),
        "sim_time.stall_mem_s": g("bucket_stall_memory", 0.0),
        "sim_time.stall_io_s": g("bucket_stall_io", 0.0),
    }
