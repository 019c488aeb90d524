"""Tests for the scenario registry: format, inheritance, validation."""

import dataclasses
import json
import math

import pytest

from repro.experiments.runner import spec_key
from repro.machine import INTERACTIVE, ExperimentSpec
from repro.scenarios import (
    BUILTIN_TEMPLATES,
    ScenarioError,
    ScenarioRegistry,
    builtin_registry,
    compile_scenario,
    load_scenario_file,
    scenario_digest,
    validate_scenario,
)


def doc(**extra):
    base = {"scenario": 1, "name": "t", "scale": "tiny"}
    base.update(extra)
    return base


class TestCompile:
    def test_benchmark_shorthand(self):
        compiled = compile_scenario(doc(benchmark="MATVEC", version="B"))
        assert len(compiled.specs) == 1
        spec = compiled.specs[0]
        workloads = [p.workload for p in spec.processes]
        assert "MATVEC" in workloads
        assert INTERACTIVE in workloads

    def test_processes_form(self):
        compiled = compile_scenario(
            doc(
                processes=[
                    {"workload": "MATVEC", "version": "R"},
                    {"workload": "interactive", "sweeps": 4},
                ]
            )
        )
        assert len(compiled.specs[0].processes) == 2

    def test_sweep_expansion_order_matches_grid(self):
        compiled = compile_scenario(
            doc(sweep={"axes": {"benchmark": ["MATVEC"], "version": ["O", "B"]}})
        )
        assert len(compiled.specs) == 2
        versions = [
            next(p.version for p in spec.processes if p.workload == "MATVEC")
            for spec in compiled.specs
        ]
        assert versions == ["O", "B"]

    def test_policy_applied(self):
        compiled = compile_scenario(
            doc(benchmark="MATVEC", version="R", policy="global-clock")
        )
        assert compiled.specs[0].policy is not None

    def test_overrides_applied(self):
        compiled = compile_scenario(
            doc(benchmark="MATVEC", overrides={"max_engine_steps": 123456})
        )
        assert compiled.specs[0].scale.max_engine_steps == 123456

    def test_digest_is_canonical(self):
        a = doc(benchmark="MATVEC", version="B")
        b = dict(reversed(list(a.items())))  # same content, other key order
        assert scenario_digest(a) == scenario_digest(b)

    def test_record_trace_flag(self):
        compiled = compile_scenario(doc(benchmark="MATVEC", record_trace=True))
        assert compiled.record_trace


class TestSweepGrid:
    """The grid a ``sweep`` shape compiles to: the cross product of its axes."""

    def test_cross_product_benchmark_varies_slowest(self):
        specs = compile_scenario(
            doc(sweep={"axes": {"benchmark": ["MATVEC", "EMBAR"], "version": ["B", "R"]}})
        ).specs
        assert len(specs) == 4
        assert all(isinstance(s, ExperimentSpec) for s in specs)
        assert [s.processes[0].workload for s in specs] == [
            "MATVEC", "MATVEC", "EMBAR", "EMBAR",
        ]

    def test_keys_deterministic_and_seed_axis_discriminates(self):
        document = doc(
            faults={"disk": {"io_error_prob": 0.01}},
            sweep={"axes": {"benchmark": ["MATVEC"], "fault_seed": [1, 2]}},
        )
        first = [spec_key(s) for s in compile_scenario(dict(document)).specs]
        second = [spec_key(s) for s in compile_scenario(dict(document)).specs]
        assert first == second
        assert len(set(first)) == 2

    def test_rejects_unknown_keys_axes_and_empty_benchmark(self):
        cases = [
            ({"bogus": 1, "sweep": {"axes": {"benchmark": ["MATVEC"]}}}, "", "'bogus'"),
            ({"sweep": {"benchmark": ["MATVEC"]}}, "sweep", "'benchmark'"),
            ({"sweep": {"axes": {"benchmark": ["MATVEC"], "bogus": [1]}}}, "sweep.axes", "'bogus'"),
            ({"sweep": {"axes": {}}}, "sweep.axes.benchmark", "at least one"),
            ({"sweep": {"axes": {"benchmark": []}}}, "sweep.axes.benchmark", "at least one"),
        ]
        for extra, path, needle in cases:
            with pytest.raises(ScenarioError) as excinfo:
                compile_scenario(doc(**extra))
            assert excinfo.value.path == path
            assert needle in str(excinfo.value)

    def test_axis_names_are_case_insensitive(self):
        lower = compile_scenario(doc(sweep={"axes": {"benchmark": ["matvec"], "version": ["r"]}}))
        upper = compile_scenario(doc(sweep={"axes": {"benchmark": ["MATVEC"], "version": ["R"]}}))
        assert lower.specs == upper.specs

    @pytest.mark.parametrize(
        "axes, path",
        [
            ({"benchmark": [["MATVEC"]]}, "sweep.axes.benchmark[0]"),
            ({"benchmark": ["MATVEC", "NOPE"]}, "sweep.axes.benchmark[1]"),
            ({"benchmark": ["MATVEC"], "version": ["O", "Z"]}, "sweep.axes.version[1]"),
            ({"benchmark": ["MATVEC"], "version": [None]}, "sweep.axes.version[0]"),
            ({"benchmark": ["MATVEC"], "policy": [None, "nope"]}, "sweep.axes.policy[1]"),
            ({"benchmark": ["MATVEC"], "policy": [5]}, "sweep.axes.policy[0]"),
            ({"benchmark": ["MATVEC"], "fault_seed": ["a"]}, "sweep.axes.fault_seed[0]"),
            ({"benchmark": ["MATVEC"], "fault_seed": [1, {"x": 1}]}, "sweep.axes.fault_seed[1]"),
            ({"benchmark": ["MATVEC"], "fault_seed": [1.5]}, "sweep.axes.fault_seed[0]"),
            ({"benchmark": ["MATVEC"], "fault_seed": [True]}, "sweep.axes.fault_seed[0]"),
            ({"benchmark": "MATVEC"}, "sweep.axes.benchmark"),
        ],
        ids=[
            "benchmark-list", "benchmark-unknown", "version-unknown", "version-null",
            "policy-unknown", "policy-int", "seed-string", "seed-object", "seed-float",
            "seed-bool", "axis-not-a-list",
        ],
    )
    def test_bad_axis_value_path_precise(self, axes, path):
        faults = {"disk": {"io_error_prob": 0.01}}
        with pytest.raises(ScenarioError) as excinfo:
            validate_scenario(doc(faults=faults, sweep={"axes": axes}))
        assert excinfo.value.path == path

    @pytest.mark.parametrize(
        "faults", [None, {"seed": 3}], ids=["no-plan", "disabled-plan"]
    )
    def test_fault_seed_needs_an_enabled_plan(self, faults):
        """Without injection a seed changes the spec key, not the physics."""
        extra = {} if faults is None else {"faults": faults}
        axes = {"benchmark": ["MATVEC"], "fault_seed": [None, 1, 2]}
        with pytest.raises(ScenarioError, match="enabled 'faults' plan") as excinfo:
            validate_scenario(doc(sweep={"axes": axes}, **extra))
        assert excinfo.value.path == "sweep.axes.fault_seed[1]"
        axes["fault_seed"] = [None]
        assert len(compile_scenario(doc(sweep={"axes": axes}, **extra)).specs) == 1


class TestInheritance:
    def test_extends_builtin(self):
        registry = builtin_registry()
        compiled = compile_scenario(registry.get("release-only"), registry=registry)
        spec = compiled.specs[0]
        version = next(
            p.version for p in spec.processes if p.workload == "MATVEC"
        )
        assert version == "R"

    def test_child_overrides_win(self):
        registry = ScenarioRegistry()
        registry.register("base", doc(name="base", benchmark="MATVEC", version="O"))
        child = doc(name="child", extends="base", version="B")
        del child["scale"]
        compiled = compile_scenario(child, registry=registry)
        version = next(
            p.version
            for p in compiled.specs[0].processes
            if p.workload == "MATVEC"
        )
        assert version == "B"

    def test_extends_cycle_rejected(self):
        registry = ScenarioRegistry()
        registry.register("a", doc(name="a", extends="b", benchmark="MATVEC"))
        registry.register("b", doc(name="b", extends="a", benchmark="MATVEC"))
        with pytest.raises(ScenarioError, match="cycle"):
            compile_scenario(registry.get("a"), registry=registry)

    def test_unknown_parent_rejected(self):
        with pytest.raises(ScenarioError, match="extends"):
            compile_scenario(doc(extends="nope", benchmark="MATVEC"))


class TestValidation:
    def test_missing_format_version(self):
        with pytest.raises(ScenarioError, match="scenario"):
            validate_scenario({"benchmark": "MATVEC"})

    def test_unknown_top_level_key_named(self):
        with pytest.raises(ScenarioError, match="bogus"):
            validate_scenario(doc(benchmark="MATVEC", bogus=1))

    def test_unknown_benchmark_path_precise(self):
        with pytest.raises(ScenarioError) as excinfo:
            validate_scenario(doc(benchmark="NOPE"))
        assert excinfo.value.path == "benchmark"
        assert "NOPE" in str(excinfo.value)

    def test_unknown_version_path_precise(self):
        with pytest.raises(ScenarioError) as excinfo:
            validate_scenario(doc(benchmark="MATVEC", version="Z"))
        assert excinfo.value.path == "version"

    def test_sweep_axis_path_precise(self):
        with pytest.raises(ScenarioError) as excinfo:
            validate_scenario(doc(sweep={"axes": {"nope": [1]}}))
        assert "sweep.axes" in excinfo.value.path

    def test_process_entry_path_precise(self):
        with pytest.raises(ScenarioError) as excinfo:
            validate_scenario(doc(processes=[{"workload": "MATVEC"}, {"bad": 1}]))
        assert "processes[1]" in excinfo.value.path

    def test_override_path_precise(self):
        with pytest.raises(ScenarioError) as excinfo:
            validate_scenario(doc(benchmark="MATVEC", overrides={"nope": 1}))
        assert excinfo.value.path == "overrides.nope"

    # Each of these compiled before the values were checked: NaN then failed
    # as a misleading deadlock, "abc" as a raw TypeError mid-run, and -1 ran
    # with different physics.
    @pytest.mark.parametrize(
        "knob, value",
        [("max_engine_steps", math.nan), ("time_quantum_s", "abc"), ("time_quantum_s", -1)],
    )
    def test_bad_override_value_path_precise(self, knob, value):
        with pytest.raises(ScenarioError) as excinfo:
            validate_scenario(doc(benchmark="MATVEC", version="R", overrides={knob: value}))
        assert excinfo.value.path == f"overrides.{knob}"

    def test_valid_overrides_keep_their_spec_key(self):
        overrides = {
            "rng_seed": 7,
            "time_quantum_s": 1,
            "intermediate_sleep_s": 0,
            "max_engine_steps": 5_000_000,
        }
        plain = compile_scenario(doc(benchmark="MATVEC", version="R")).specs[0]
        unchecked = dataclasses.replace(
            plain, scale=dataclasses.replace(plain.scale, **overrides)
        )
        checked = compile_scenario(
            doc(benchmark="MATVEC", version="R", overrides=overrides)
        ).specs[0]
        assert spec_key(checked) == spec_key(unchecked)

    @pytest.mark.parametrize("seconds", [math.nan, math.inf, -0.5])
    def test_bad_sleep_path_precise(self, seconds):
        with pytest.raises(ScenarioError) as excinfo:
            validate_scenario(doc(benchmark="MATVEC", sleep=seconds))
        assert excinfo.value.path == "sleep"

    @pytest.mark.parametrize("seconds", [math.nan, math.inf, -0.5])
    def test_bad_process_sleep_path_precise(self, seconds):
        entries = [{"workload": "MATVEC"}, {"workload": "interactive", "sleep_s": seconds}]
        with pytest.raises(ScenarioError) as excinfo:
            validate_scenario(doc(processes=entries))
        assert excinfo.value.path == "processes[1].sleep_s"

    @pytest.mark.parametrize("seconds", [math.nan, math.inf, -0.5])
    def test_bad_start_offset_path_precise(self, seconds):
        entries = [{"workload": "MATVEC", "start_offset_s": seconds}]
        with pytest.raises(ScenarioError) as excinfo:
            validate_scenario(doc(processes=entries))
        assert excinfo.value.path == "processes[0].start_offset_s"

    @pytest.mark.parametrize("seconds", [math.nan, math.inf, -0.5, "0.1"])
    def test_bad_sleep_axis_path_precise(self, seconds):
        axes = {"benchmark": ["MATVEC"], "sleep": [None, 0.1, seconds]}
        with pytest.raises(ScenarioError) as excinfo:
            validate_scenario(doc(sweep={"axes": axes}))
        assert excinfo.value.path == "sweep.axes.sleep[2]"

    def test_shape_must_be_exclusive(self):
        with pytest.raises(ScenarioError, match="exactly one"):
            validate_scenario(
                doc(benchmark="MATVEC", sweep={"axes": {"version": ["O"]}})
            )

    def test_load_scenario_file_errors(self, tmp_path):
        with pytest.raises(ScenarioError, match="no such scenario file"):
            load_scenario_file(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario_file(bad)


class TestRegistry:
    def test_builtin_templates_all_compile(self):
        registry = builtin_registry()
        for name in registry.names():
            compiled = compile_scenario(
                registry.get(name), registry=registry, name=name
            )
            assert compiled.specs, name

    def test_builtin_names(self):
        assert set(BUILTIN_TEMPLATES) == set(builtin_registry().names())

    def test_scenario_dir_loading(self, tmp_path):
        path = tmp_path / "custom.json"
        path.write_text(
            json.dumps(doc(name="custom-mix", benchmark="MATVEC")),
            encoding="utf-8",
        )
        registry = builtin_registry(scenario_dirs=[tmp_path])
        assert "custom-mix" in registry
        origins = {row["name"]: row["origin"] for row in registry.entries()}
        assert origins["custom-mix"] != "builtin"

    def test_get_returns_copy(self):
        registry = builtin_registry()
        registry.get("standard-mix")["benchmark"] = "MUTATED"
        assert registry.get("standard-mix")["benchmark"] == "MATVEC"
