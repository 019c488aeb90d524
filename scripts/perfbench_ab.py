"""A/B the repository benchmark between two checkouts, in alternated pairs.

Runs ``perfbench/run.py --trace 0`` (the command ``BENCHMARK.json``
declares) in a parent checkout and in a change checkout, ``--pairs`` times
each, alternating which side runs first.  Prints every run's end-to-end
metrics, each side's median and quartiles per metric, the change's win
count, and a verdict per metric against its ``BENCHMARK.json`` bound.  With
``--claim METRIC`` it also states whether the gain rule holds for that
metric: the change wins at least nine tenths of the pairs (ties count for
neither) and its median beats the parent's by more than the parent's
interquartile range.  It stops at the first run that reports
``correct: false`` or ``failed > 0``.

``--pairs`` must be even, so each side runs first equally often.  A line
``slots`` gives the median of the runs that went first in their pair and
of those that went second, both sides pooled: when the two differ by as
much as the sides do, the host favours one slot and a short row cannot
tell that from a change.

Before the first pair both checkouts' ``src`` is compiled to bytecode with
the benchmark's interpreter (``python3 -m compileall -q src``; a line
``bytecode`` says so).  ``setup_s`` times a fresh interpreter importing
from ``src``, so a side without a current ``__pycache__`` would pay for
compiling every module there; ``PYTHONDONTWRITEBYTECODE=1`` only stops
imports writing the cache, not reading it.

The parent checkout can be a ``git worktree`` or a ``git archive`` of the
parent commit.  Usage, from the root of the change checkout::

    python3 scripts/perfbench_ab.py --parent ../parent --workload mix \\
        --pairs 10 --seed 0 --seconds 20 --claim wall_s

Exit status: 0 when no metric regressed beyond its bound and the claim (if
any) holds, 1 otherwise, 2 when a run failed or reported wrong physics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]

#: The gain rule: the change wins at least this share of all pairs run.
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def improvement(parent: float, change: float, better: str) -> float:
    """How much better ``change`` reads than ``parent`` (negative: worse)."""
    return parent - change if better == "lower" else change - parent


def wins(parent: Sequence[float], change: Sequence[float], better: str) -> int:
    """Pairs the change wins; a tie counts for neither side."""
    return sum(improvement(p, c, better) > 0 for p, c in zip(parent, change))


def claim_holds(parent: Sequence[float], change: Sequence[float], better: str) -> bool:
    """The gain rule: enough wins, and a median gap beyond the parent's IQR."""
    q1, parent_median, q3 = quartiles(parent)
    gap = improvement(parent_median, statistics.median(change), better)
    return wins(parent, change, better) >= WIN_SHARE * len(parent) and gap > q3 - q1


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> str:
    """A non-claimed metric against its relative ``bound``.

    ``better``: every change run reads better than every parent run.
    ``unresolved``: either side's interquartile range, relative to the
    parent's median, is wider than the bound.  Otherwise ``regressed`` when
    the change's median is worse by more than the bound, else ``within``.
    """
    base = statistics.median(parent)
    best_parent = min(parent) if better == "lower" else max(parent)
    if all(improvement(best_parent, c, better) > 0 for c in change):
        return "better"
    spread = max(quartiles(side)[2] - quartiles(side)[0] for side in (parent, change))
    if base == 0 or spread / abs(base) > bound:
        return "unresolved"
    worse = -improvement(base, statistics.median(change), better) / abs(base)
    return "regressed" if worse > bound else "within"


def slot_medians(
    slots: Sequence[Sequence[Dict[str, float]]], name: str
) -> Tuple[float, float]:
    """Median ``name`` of the runs that went first, and of those second."""
    first, second = ([run[name] for run in slot] for slot in slots)
    return statistics.median(first), statistics.median(second)


def compile_bytecode(checkout: Path, interpreter: str) -> None:
    """Compile ``checkout``'s ``src`` to bytecode, as ``interpreter`` reads it."""
    done = subprocess.run(
        [interpreter, "-m", "compileall", "-q", "src"],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{checkout}: compileall exited {done.returncode}")


def run_once(checkout: Path, command: List[str], args) -> Dict[str, float]:
    argv = command + [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ]
    done = subprocess.run(
        argv, cwd=checkout, capture_output=True, text=True, check=False
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{checkout}: benchmark exited {done.returncode}")
    record = json.loads(lines[-1])
    if record["correct"] is not True or record["failed"] > 0:
        print(lines[-1])
        print(
            f"{checkout}: correct={record['correct']} failed={record['failed']}; "
            "stopping",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return {name: entry["value"] for name, entry in record["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, default=ROOT, help="change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--claim", default=None, help="end-to-end metric claimed")
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.pairs % 2:
        parser.error(f"--pairs must be even, so each side runs first as often; got {args.pairs}")

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = benchmark["run_seconds"]
    metrics = {entry["name"]: entry for entry in benchmark["end_to_end"]}
    if args.claim is not None and args.claim not in metrics:
        parser.error(f"--claim {args.claim!r} is not an end-to-end metric")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    interpreter = benchmark["command"][0]
    for checkout in sides.values():
        compile_bytecode(checkout, interpreter)
    print(f"bytecode: src compiled in both checkouts ({interpreter} -m compileall -q src)")
    runs: Dict[str, List[Dict[str, float]]] = {"parent": [], "change": []}
    slots: Tuple[List[Dict[str, float]], ...] = ([], [])
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for slot, side in zip(slots, order):
            values = run_once(sides[side], benchmark["command"], args)
            runs[side].append(values)
            slot.append(values)
            shown = " ".join(
                f"{name}={values[name]:.4g}" for name in metrics if name in values
            )
            print(f"pair {pair + 1} {side:6s} {shown}", flush=True)

    failed = False
    print(f"\n{args.workload}, seed {args.seed}, {args.seconds:g} s runs, "
          f"{args.pairs} pairs (median [q1, q3])")
    for name, entry in metrics.items():
        if not all(name in run for side in runs.values() for run in side):
            continue
        parent = [run[name] for run in runs["parent"]]
        change = [run[name] for run in runs["change"]]
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        better = entry["better"]
        outcome = verdict(parent, change, better, entry["bound"])
        failed |= outcome == "regressed"
        shift = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
        print(
            f"  {name:20s} parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  "
            f"change {cm:.4g} [{c1:.4g}, {c3:.4g}] ({shift})  {entry['unit']}, "
            f"{better} is better; change wins {wins(parent, change, better)}"
            f"/{len(parent)}; {outcome} (bound {entry['bound']:g})"
        )
    slot_metric = args.claim or "wall_s"
    if all(slot_metric in run for slot in slots for run in slot):
        first, second = slot_medians(slots, slot_metric)
        shift = f"{(second - first) / first:+.1%}" if first else "n/a"
        print(
            f"slots {slot_metric}: first run of a pair {first:.4g}, second {second:.4g} "
            f"({shift}), medians over both sides"
        )
    if args.claim is not None:
        parent = [run[args.claim] for run in runs["parent"]]
        change = [run[args.claim] for run in runs["change"]]
        better = metrics[args.claim]["better"]
        holds = claim_holds(parent, change, better)
        q1, pm, q3 = quartiles(parent)
        print(
            f"claim {args.claim}: wins {wins(parent, change, better)}/{len(parent)} "
            f"(need {WIN_SHARE:.0%}), median gap "
            f"{improvement(pm, statistics.median(change), better):.4g} vs parent "
            f"IQR {q3 - q1:.4g}: {'HOLDS' if holds else 'NOT MET'}"
        )
        failed |= not holds
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
