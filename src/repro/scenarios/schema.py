"""The scenario-file format: strict validation, template inheritance, compile.

Format (version 1)::

    {"scenario": 1,
     "name": "fault-storm",
     "description": "MATVEC release build under disk-error chaos",
     "extends": "standard-mix",          // optional: a registered template
     "scale": "tiny",                    // tiny | small | paper
     "overrides": {"max_engine_steps": 2000000},
     "benchmark": "MATVEC",              // shorthand: one hog + interactive
     "version": "R",
     "sleep": 0.1,                       // interactive sleep (null: default)
     "interactive": true,                // include the interactive task
     "policy": "global-clock",
     "faults": {"seed": 7, "disk": {"io_error_prob": 0.02}},
     "record_trace": false}

Instead of the ``benchmark`` shorthand a scenario may carry an explicit
``processes`` list::

     "processes": [{"workload": "MATVEC", "version": "R"},
                   {"workload": "EMBAR", "version": "P", "start_offset_s": 0.05},
                   {"trace": "traces/MATVEC.trace"},
                   {"workload": "interactive", "sleep_s": 0.1, "sweeps": 6}]

or a ``sweep`` object whose axes compile to one spec per grid cell, in
the fixed axis order benchmark, version, sleep, policy, fault_seed
(benchmark varies slowest; a non-null ``fault_seed`` needs an enabled
``faults`` plan)::

     "sweep": {"axes": {"benchmark": ["MATVEC", "BUK"],
                        "version": ["O", "R"],
                        "sleep": [null, 0.1],
                        "policy": ["paging-directed", "global-clock"],
                        "fault_seed": [1, 2, 3]}}

Exactly one of ``benchmark`` / ``processes`` / ``sweep`` must be present
after ``extends`` resolution.  A scenario without ``scale`` runs at tiny.

This module is the only parser of JSON experiment descriptions: ``repro run``,
``validate``, ``submit``, ``sweep run`` and ``trace record`` take a
scenario, and so does the server.

Validation is strict and fail-fast: unknown keys, wrong types, unknown
benchmarks/versions/policies/scales, and malformed fault plans are all
rejected with a :class:`ScenarioError` whose message starts with the
JSON path of the offending value (``processes[1].version: ...``), so a
`repro validate` failure points at the exact line to fix.

Compilation is deterministic: a scenario document always expands to the
same tuple of frozen :class:`~repro.machine.ExperimentSpec` values, so
scenario identity (:func:`scenario_digest`) and the runner's
content-addressed cache keys are stable across submitters and restarts.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import SCALE_PRESETS, ScaleError, SimScale
from repro.core.runtime.policies import VERSIONS
from repro.faults import EMPTY_PLAN, FaultPlan, FaultPlanError
from repro.machine import (
    INTERACTIVE,
    TRACE,
    ExperimentSpec,
    SpecError,
    WorkloadProcessSpec,
)
from repro.policies import PolicyError, PolicySpec, validate_policy
from repro.workloads import BENCHMARKS

__all__ = [
    "SCENARIO_FORMAT_VERSION",
    "CompiledScenario",
    "ScenarioError",
    "compile_scenario",
    "load_scenario_file",
    "merge_documents",
    "scenario_digest",
    "validate_scenario",
]

#: The one format version this tree understands.  Bump when the schema
#: changes incompatibly; old documents then fail loudly instead of being
#: reinterpreted.
SCENARIO_FORMAT_VERSION = 1

_TOP_LEVEL_KEYS = {
    "scenario",
    "name",
    "description",
    "extends",
    "scale",
    "overrides",
    "benchmark",
    "version",
    "sleep",
    "interactive",
    "processes",
    "sweep",
    "policy",
    "faults",
    "record_trace",
}

_PROCESS_KEYS = {
    "workload",
    "version",
    "sleep_s",
    "sweeps",
    "start_offset_s",
    "name",
    "trace",
}

_SWEEP_AXES = ("benchmark", "version", "sleep", "policy", "fault_seed")


class ScenarioError(ValueError):
    """A scenario that cannot be loaded, validated, or compiled.

    ``path`` is the JSON path of the offending value (empty for
    document-level problems); ``str()`` always leads with it so CLI and
    HTTP error surfaces are path-precise for free.
    """

    def __init__(self, problem: str, path: str = "") -> None:
        self.path = path
        self.problem = problem
        super().__init__(f"{path}: {problem}" if path else problem)


@dataclass(frozen=True)
class CompiledScenario:
    """What a scenario document expands to.

    ``document`` is the merged (post-``extends``), validated document —
    the canonical form :func:`scenario_digest` hashes.  ``specs`` is the
    deterministic expansion: one spec for single scenarios, one per grid
    cell for sweep scenarios, in the fixed axis order.
    """

    name: str
    description: str
    document: Dict[str, object]
    specs: Tuple[ExperimentSpec, ...]
    record_trace: bool = False

    @property
    def digest(self) -> str:
        return scenario_digest(self.document)


def scenario_digest(document: Dict[str, object]) -> str:
    """Content identity of a (merged) scenario document."""
    canonical = json.dumps(
        document, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_scenario_file(path: os.PathLike) -> Dict[str, object]:
    """Read one scenario document from disk (errors are path-precise)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except FileNotFoundError:
        raise ScenarioError(f"no such scenario file: {path}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path} is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    if not isinstance(document, dict):
        raise ScenarioError(f"{path}: a scenario must be a JSON object")
    return document


# -- type helpers (every check names its path) ------------------------------


def _expect_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"expected a string, got {value!r}", path)
    return value


def _expect_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(f"expected true/false, got {value!r}", path)
    return value


def _expect_dict(value, path: str) -> Dict[str, object]:
    if not isinstance(value, dict):
        raise ScenarioError(f"expected an object, got {value!r}", path)
    return value


def _expect_list(value, path: str) -> List[object]:
    if not isinstance(value, list):
        raise ScenarioError(f"expected a list, got {value!r}", path)
    return value


def _expect_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"expected an integer, got {value!r}", path)
    return value


def _expect_choice(value, path: str, choices, what: str) -> str:
    """A name from ``choices``, matched case-insensitively; upper-cased."""
    name = _expect_str(value, path).upper()
    if name not in choices:
        raise ScenarioError(
            f"unknown {what} {name!r} (choose from {', '.join(sorted(choices))})", path
        )
    return name


def _expect_policy(value, path: str) -> PolicySpec:
    text = _expect_str(value, path)
    try:
        policy = PolicySpec.from_string(text)
        # Eagerly resolve so an unregistered name fails at validate time,
        # not at run time inside the service.
        validate_policy(policy)
    except PolicyError as exc:
        raise ScenarioError(str(exc), path) from exc
    return policy


def _optional(check: Callable[[object, str], object]) -> Callable[[object, str], object]:
    """``check`` for a value that may be null; the value passes on unchanged."""

    def checked(value, path: str):
        if value is not None:
            check(value, path)
        return value

    return checked


def _expect_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"expected a number, got {value!r}", path)
    return float(value)


def _expect_duration(value, path: str) -> float:
    """A sleep or start offset: a finite number of seconds >= 0.

    JSON bodies may carry ``NaN`` and ``Infinity`` (``json.loads`` accepts
    both), so finiteness is checked here, not assumed.
    """
    seconds = _expect_number(value, path)
    if not 0.0 <= seconds < math.inf:
        raise ScenarioError(
            f"expected a finite, non-negative number of seconds, got {value!r}", path
        )
    return seconds


# -- extends resolution -----------------------------------------------------


def _merge_dicts(base: Dict[str, object], overlay: Dict[str, object]) -> Dict[str, object]:
    """Recursive dict merge: overlay wins, nested objects merge key-wise."""
    merged = dict(base)
    for key, value in overlay.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _merge_dicts(merged[key], value)  # type: ignore[arg-type]
        else:
            merged[key] = value
    return merged


def merge_documents(
    base: Dict[str, object], child: Dict[str, object]
) -> Dict[str, object]:
    """Apply ``extends`` inheritance: ``child`` over ``base``.

    Top-level scalar keys replace; ``overrides`` and ``faults`` deep-merge
    so a child can tweak one knob without restating the parent's plan.
    The parent's ``name``/``description`` are dropped (a derived scenario
    is not its template), and choosing a workload shape (``benchmark`` /
    ``processes`` / ``sweep``) in the child *replaces* the parent's shape
    entirely — inheriting half a process list would be a trap.
    """
    base = {k: v for k, v in base.items() if k not in ("name", "description", "extends")}
    shapes = ("benchmark", "version", "sleep", "interactive", "processes", "sweep")
    if any(key in child for key in ("processes", "sweep", "benchmark")):
        base = {k: v for k, v in base.items() if k not in shapes}
    merged = dict(base)
    for key, value in child.items():
        if key == "extends":
            continue
        if key in ("overrides", "faults") and isinstance(value, dict) and isinstance(
            merged.get(key), dict
        ):
            merged[key] = _merge_dicts(merged[key], value)  # type: ignore[arg-type]
        else:
            merged[key] = value
    return merged


def _resolve_extends(
    document: Dict[str, object], registry, chain: Tuple[str, ...] = ()
) -> Dict[str, object]:
    parent_name = document.get("extends")
    if parent_name is None:
        return dict(document)
    path = "extends"
    parent_name = _expect_str(parent_name, path)
    if parent_name in chain:
        cycle = " -> ".join(chain + (parent_name,))
        raise ScenarioError(f"template inheritance cycle: {cycle}", path)
    if registry is None:
        raise ScenarioError(
            f"cannot resolve template {parent_name!r} (no registry available)", path
        )
    try:
        parent = registry.get(parent_name)
    except KeyError:
        raise ScenarioError(
            f"unknown template {parent_name!r} "
            f"(registered: {', '.join(registry.names())})",
            path,
        ) from None
    parent = _resolve_extends(parent, registry, chain + (parent_name,))
    return merge_documents(parent, document)


# -- compilation ------------------------------------------------------------


def _compile_process(entry: object, index: int) -> WorkloadProcessSpec:
    path = f"processes[{index}]"
    entry = _expect_dict(entry, path)
    unknown = sorted(set(entry) - _PROCESS_KEYS)
    if unknown:
        raise ScenarioError(
            f"unknown key(s) {', '.join(map(repr, unknown))} "
            f"(known: {', '.join(sorted(_PROCESS_KEYS))})",
            path,
        )
    if "trace" in entry:
        if "workload" in entry:
            raise ScenarioError("give 'workload' or 'trace', not both", path)
        trace_path = _expect_str(entry["trace"], f"{path}.trace")
        from repro.trace import TraceError, trace_process_spec

        try:
            return trace_process_spec(
                trace_path,
                start_offset_s=_expect_duration(
                    entry.get("start_offset_s", 0.0), f"{path}.start_offset_s"
                ),
                name=(
                    _expect_str(entry["name"], f"{path}.name")
                    if "name" in entry
                    else None
                ),
            )
        except (TraceError, OSError) as exc:
            raise ScenarioError(str(exc), f"{path}.trace") from exc
    if "workload" not in entry:
        raise ScenarioError("a process needs a 'workload' or 'trace' key", path)
    workload = _expect_str(entry["workload"], f"{path}.workload")
    upper = workload.upper()
    if upper == TRACE:
        raise ScenarioError(
            "replay processes are written as {'trace': path}", f"{path}.workload"
        )
    if upper != INTERACTIVE and upper not in BENCHMARKS:
        raise ScenarioError(
            f"unknown workload {workload!r} (choose from "
            f"{', '.join(sorted(BENCHMARKS))}, or 'interactive')",
            f"{path}.workload",
        )
    version = entry.get("version", "O")
    if upper == INTERACTIVE:
        version = _expect_str(version, f"{path}.version").upper()
    else:
        version = _expect_choice(version, f"{path}.version", VERSIONS, "version")
    sleep_s = entry.get("sleep_s")
    if sleep_s is not None:
        sleep_s = _expect_duration(sleep_s, f"{path}.sleep_s")
    sweeps = entry.get("sweeps")
    if sweeps is not None:
        if isinstance(sweeps, bool) or not isinstance(sweeps, int) or sweeps <= 0:
            raise ScenarioError(
                f"expected a positive integer, got {sweeps!r}", f"{path}.sweeps"
            )
    start = _expect_duration(entry.get("start_offset_s", 0.0), f"{path}.start_offset_s")
    return WorkloadProcessSpec(
        workload=upper if upper == INTERACTIVE else workload.upper(),
        version=version,
        start_offset_s=start,
        sleep_time_s=sleep_s,
        sweeps=sweeps,
        name=(
            _expect_str(entry["name"], f"{path}.name") if "name" in entry else None
        ),
    )


def _compile_scale(document: Dict[str, object]) -> SimScale:
    scale_name = document.get("scale", "tiny")
    scale_name = _expect_str(scale_name, "scale")
    if scale_name not in SCALE_PRESETS:
        raise ScenarioError(
            f"unknown scale {scale_name!r} (choose from "
            f"{', '.join(sorted(SCALE_PRESETS))})",
            "scale",
        )
    scale = SCALE_PRESETS[scale_name]()
    overrides = document.get("overrides")
    if overrides is not None:
        overrides = _expect_dict(overrides, "overrides")
        for key, value in overrides.items():
            try:
                scale = scale.with_overrides(**{key: value})
            except ScaleError as exc:
                raise ScenarioError(exc.problem, f"overrides.{key}") from None
    return scale


def _compile_faults(document: Dict[str, object]) -> FaultPlan:
    if "faults" not in document:
        return EMPTY_PLAN
    faults = _expect_dict(document["faults"], "faults")
    try:
        return FaultPlan.from_dict(faults)
    except FaultPlanError as exc:
        raise ScenarioError(str(exc), "faults") from exc


def _compile_policy(document: Dict[str, object]) -> Optional[PolicySpec]:
    if "policy" not in document:
        return None
    return _expect_policy(document["policy"], "policy")


def _spec(
    scale: SimScale,
    processes: Tuple[WorkloadProcessSpec, ...],
    faults: FaultPlan,
    policy,
) -> ExperimentSpec:
    spec = ExperimentSpec(scale=scale, processes=processes, faults=faults)
    if policy is not None:
        spec = spec.with_policy(policy)
    try:
        spec.validate()
    except SpecError as exc:
        raise ScenarioError(str(exc)) from exc
    return spec


def _compile_single(
    document: Dict[str, object],
    scale: SimScale,
    faults: FaultPlan,
    policy: Optional[PolicySpec],
) -> Tuple[ExperimentSpec, ...]:
    if "processes" in document:
        for key in ("benchmark", "version", "sleep", "interactive"):
            if key in document:
                raise ScenarioError(
                    f"'{key}' is the benchmark shorthand; a scenario with "
                    "'processes' must not also use it",
                    key,
                )
        entries = _expect_list(document["processes"], "processes")
        if not entries:
            raise ScenarioError("needs at least one process", "processes")
        processes = tuple(
            _compile_process(entry, index) for index, entry in enumerate(entries)
        )
    else:
        benchmark = _expect_choice(document["benchmark"], "benchmark", BENCHMARKS, "benchmark")
        version = _expect_choice(document.get("version", "R"), "version", VERSIONS, "version")
        sleep = document.get("sleep")
        if sleep is not None:
            sleep = _expect_duration(sleep, "sleep")
        with_interactive = _expect_bool(document.get("interactive", True), "interactive")
        spec = ExperimentSpec.multiprogram(
            scale, benchmark, version, sleep_time_s=sleep,
            with_interactive=with_interactive,
        )
        processes = spec.processes
    return (_spec(scale, processes, faults, policy),)


def _axis(axes: Dict[str, object], axis: str, default: List[object], check) -> List[object]:
    """One sweep axis, each value checked at ``sweep.axes.<axis>[<i>]``."""
    path = f"sweep.axes.{axis}"
    values = _expect_list(axes.get(axis, default), path)
    return [check(value, f"{path}[{index}]") for index, value in enumerate(values)]


def _compile_sweep(
    document: Dict[str, object],
    scale: SimScale,
    faults: FaultPlan,
    policy: Optional[PolicySpec],
) -> Tuple[ExperimentSpec, ...]:
    for key in ("benchmark", "version", "sleep", "interactive", "processes"):
        if key in document:
            raise ScenarioError(
                f"a sweep scenario puts {key!r} under sweep.axes, not at "
                "the top level",
                key,
            )
    if policy is not None:
        raise ScenarioError(
            "a sweep scenario selects policies via sweep.axes.policy", "policy"
        )
    sweep = _expect_dict(document["sweep"], "sweep")
    unknown = sorted(set(sweep) - {"axes"})
    if unknown:
        raise ScenarioError(
            f"unknown key(s) {', '.join(map(repr, unknown))} (known: 'axes')",
            "sweep",
        )
    axes = _expect_dict(sweep.get("axes", {}), "sweep.axes")
    unknown = sorted(set(axes) - set(_SWEEP_AXES))
    if unknown:
        raise ScenarioError(
            f"unknown axis(es) {', '.join(map(repr, unknown))} "
            f"(known: {', '.join(_SWEEP_AXES)})",
            "sweep.axes",
        )

    def seed(value, path: str) -> None:
        _expect_int(value, path)
        if not faults.enabled:
            # Without injection a seed would change the key, not the physics.
            raise ScenarioError("a fault seed needs an enabled 'faults' plan", path)

    benchmark = partial(_expect_choice, choices=BENCHMARKS, what="benchmark")
    benchmarks = _axis(axes, "benchmark", [], benchmark)
    if not benchmarks:
        raise ScenarioError("needs at least one benchmark", "sweep.axes.benchmark")
    version = partial(_expect_choice, choices=VERSIONS, what="version")
    versions = _axis(axes, "version", ["R"], version)
    sleeps = _axis(axes, "sleep", [None], _optional(_expect_duration))
    policies = _axis(axes, "policy", [None], _optional(_expect_policy))
    seeds = _axis(axes, "fault_seed", [None], _optional(seed))
    return tuple(
        _spec(
            scale,
            ExperimentSpec.multiprogram(scale, bench, version, sleep_time_s=sleep).processes,
            faults if fault_seed is None else faults.with_seed(fault_seed),
            policy,
        )
        for bench, version, sleep, policy, fault_seed in itertools.product(
            benchmarks, versions, sleeps, policies, seeds
        )
    )


def compile_scenario(
    document: Dict[str, object],
    registry=None,
    name: Optional[str] = None,
) -> CompiledScenario:
    """Validate ``document`` and expand it into experiment specs.

    ``registry`` (a :class:`~repro.scenarios.templates.ScenarioRegistry`)
    resolves ``extends`` chains; ``name`` overrides the document's own
    name (used when submitting a registered template by name).  Raises
    :class:`ScenarioError` — with the offending JSON path — on the first
    problem found.
    """
    document = _expect_dict(document, "")
    merged = _resolve_extends(document, registry)
    unknown = sorted(set(merged) - _TOP_LEVEL_KEYS)
    if unknown:
        raise ScenarioError(
            f"unknown key(s) {', '.join(map(repr, unknown))} "
            f"(known: {', '.join(sorted(_TOP_LEVEL_KEYS))})"
        )
    if "scenario" not in merged:
        raise ScenarioError(
            f"missing 'scenario' format version (current: {SCENARIO_FORMAT_VERSION})"
        )
    version = _expect_int(merged["scenario"], "scenario")
    if version != SCENARIO_FORMAT_VERSION:
        raise ScenarioError(
            f"unsupported scenario format {version} "
            f"(this tree reads version {SCENARIO_FORMAT_VERSION})",
            "scenario",
        )
    shapes = [key for key in ("benchmark", "processes", "sweep") if key in merged]
    if not shapes:
        raise ScenarioError(
            "a scenario needs a workload shape: 'benchmark', 'processes', "
            "or 'sweep'"
        )
    if len(shapes) > 1 and "sweep" in shapes:
        raise ScenarioError(
            f"give exactly one of benchmark/processes/sweep, got "
            f"{', '.join(shapes)}"
        )
    if "benchmark" in shapes and "processes" in shapes:
        raise ScenarioError(
            "give exactly one of benchmark/processes/sweep, got "
            "benchmark, processes"
        )
    record_trace = _expect_bool(merged.get("record_trace", False), "record_trace")
    scale = _compile_scale(merged)
    faults = _compile_faults(merged)
    scenario_name = name or merged.get("name")
    if scenario_name is not None:
        scenario_name = _expect_str(scenario_name, "name")
    description = merged.get("description", "")
    description = _expect_str(description, "description") if description else ""
    if "sweep" in merged:
        if record_trace:
            raise ScenarioError(
                "trace recording applies to single scenarios, not sweeps",
                "record_trace",
            )
        specs = _compile_sweep(merged, scale, faults, _compile_policy(merged))
    else:
        specs = _compile_single(merged, scale, faults, _compile_policy(merged))
    return CompiledScenario(
        name=scenario_name or "inline",
        description=description,
        document=merged,
        specs=specs,
        record_trace=record_trace,
    )


def validate_scenario(
    document: Dict[str, object], registry=None, name: Optional[str] = None
) -> CompiledScenario:
    """Alias of :func:`compile_scenario` for intent at call sites that
    only care about the yes/no answer (``repro validate``)."""
    return compile_scenario(document, registry=registry, name=name)
