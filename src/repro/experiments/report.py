"""Row formatting shared by the figure/table reproductions.

Every experiment module returns plain data; these helpers print it in the
shape the paper reports so the benchmark logs read like the original tables
and figures.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Sequence

__all__ = ["format_process_table", "format_table", "normalize", "percent"]


def format_process_table(result, label: str) -> str:
    """The per-process summary table for one experiment result.

    Shared by ``repro run --scenario``, trace replay, and the service's
    ``GET /v1/jobs/<id>/figure`` rendering, so every surface prints the
    same shape for the same result.
    """
    rows = []
    for process in result.processes:
        rows.append(
            (
                process.name,
                process.workload,
                process.version or "-",
                "yes" if process.completed else "no",
                round(process.buckets.user, 3),
                round(process.buckets.system, 3),
                round(process.buckets.stall_memory, 3),
                round(process.buckets.stall_io, 3),
                process.stats.hard_faults,
                process.stats.soft_faults,
                len(process.sweeps) if process.interactive else "-",
            )
        )
    return format_table(
        [
            "process",
            "workload",
            "ver",
            "done",
            "user_s",
            "system_s",
            "stall_mem_s",
            "stall_io_s",
            "hard",
            "soft",
            "sweeps",
        ],
        rows,
        title=(
            f"{label} at scale '{result.scale}': "
            f"elapsed_s={result.elapsed_s:.3f}  "
            f"engine_steps={result.engine_steps}  "
            f"pages_released={result.vm.releaser_pages_freed}"
        ),
    )


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Fixed-width text table."""
    materialized: List[List[str]] = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in materialized:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "n/a"  # e.g. mean response over zero recorded sweeps
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def normalize(values: Mapping[str, float], baseline_key: str) -> Dict[str, float]:
    """Each value divided by the baseline entry."""
    baseline = values[baseline_key]
    if baseline == 0:
        raise ValueError(f"baseline {baseline_key!r} is zero")
    return {key: value / baseline for key, value in values.items()}


def percent(fraction: float) -> str:
    return f"{100.0 * fraction:.1f}%"
