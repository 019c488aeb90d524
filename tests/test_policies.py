"""The memory-policy seam: spec parsing, registry, cache keys, behavior."""

import pytest

from repro import digest
from repro.config import tiny
from repro.experiments.compare import compare_policies, format_policy_table
from repro.experiments.harness import multiprogram_spec
from repro.experiments.runner import spec_key
from repro.machine import Machine, SpecError, run_experiment
from repro.policies import (
    DEFAULT_POLICY,
    GlobalClockPm,
    PolicyError,
    PolicySpec,
    UserModePm,
    build_policy,
    policy_names,
    validate_policy,
)


def _spec(version="R", policy=None):
    spec = multiprogram_spec(tiny(), "MATVEC", version)
    if policy is not None:
        spec = spec.with_policy(policy)
    return spec


# -- PolicySpec ----------------------------------------------------------
def test_from_string_plain_name():
    spec = PolicySpec.from_string("global-clock")
    assert spec.name == "global-clock"
    assert spec.params == ()


def test_from_string_with_params_sorted():
    spec = PolicySpec.from_string("paging-directed:zeta=1,frag_extent=32")
    assert spec.name == "paging-directed"
    assert spec.params == (("frag_extent", "32"), ("zeta", "1"))
    assert spec.describe() == "paging-directed:frag_extent=32,zeta=1"


def test_from_string_roundtrip():
    text = "user-mode:frag_extent=8"
    assert PolicySpec.from_string(text).describe() == text


@pytest.mark.parametrize("bad", ["", "name:frag_extent", "name:=3", "name:,"])
def test_from_string_rejects_malformed(bad):
    with pytest.raises(PolicyError):
        PolicySpec.from_string(bad)


def test_params_normalized_at_construction():
    a = PolicySpec("x", params=(("b", "2"), ("a", "1")))
    b = PolicySpec("x", params=(("a", "1"), ("b", "2")))
    assert a == b
    assert repr(a) == repr(b)


# -- registry ------------------------------------------------------------
def test_builtin_policies_registered():
    names = policy_names()
    assert "paging-directed" in names
    assert "global-clock" in names
    assert "user-mode" in names


def test_unknown_policy_name_raises():
    with pytest.raises(PolicyError, match="unknown memory policy"):
        build_policy(PolicySpec("no-such-policy"))


def test_unknown_param_raises():
    with pytest.raises(PolicyError, match="does not accept"):
        validate_policy(PolicySpec.from_string("global-clock:bogus=1"))


def test_spec_validate_surfaces_policy_error_as_spec_error():
    spec = _spec(policy=PolicySpec("no-such-policy"))
    with pytest.raises(SpecError, match="invalid policy"):
        spec.validate()


# -- cache-key separation ------------------------------------------------
def test_spec_key_changes_with_policy():
    base = _spec()
    assert spec_key(base) != spec_key(base.with_policy("global-clock"))
    assert spec_key(base) != spec_key(
        base.with_policy("paging-directed:frag_extent=32")
    )


def test_spec_key_stable_for_same_policy():
    assert spec_key(_spec(policy="global-clock")) == spec_key(
        _spec(policy="global-clock")
    )
    # The explicit default and the implicit default are the same spec.
    assert spec_key(_spec()) == spec_key(_spec(policy=DEFAULT_POLICY))


# -- kernel wiring -------------------------------------------------------
def test_default_policy_builds_both_daemons():
    machine = Machine.from_spec(_spec())
    assert machine.kernel.releaser is not None
    assert machine.kernel.paging_daemon is not None


@pytest.mark.parametrize("policy", ["global-clock", "user-mode"])
def test_competitors_run_without_releaser_daemon(policy):
    machine = Machine.from_spec(_spec(policy=policy))
    assert machine.kernel.releaser is None
    assert machine.kernel.vm.releaser is None
    assert machine.kernel.paging_daemon is not None


def test_policy_selects_pm_class():
    pm_types = {
        "global-clock": GlobalClockPm,
        "user-mode": UserModePm,
    }
    for name, pm_class in pm_types.items():
        machine = Machine.from_spec(_spec(policy=name))
        hog = machine.kernel.vm.address_spaces[0]
        modules = machine.kernel.registry.modules_for(hog)
        assert modules and all(type(m) is pm_class for m in modules)


def test_frag_extent_param_reaches_vm():
    machine = Machine.from_spec(_spec(policy="paging-directed:frag_extent=8"))
    assert machine.kernel.vm.frag_extent == 8


# -- behavior ------------------------------------------------------------
def test_global_clock_ignores_release_hints():
    result = run_experiment(_spec(policy="global-clock"))
    vm = result.vm
    assert vm.releaser_pages_freed == 0
    assert vm.freed_by_release == 0
    # All reclamation falls to the clock daemon instead.
    assert vm.daemon_pages_stolen > 0
    assert all(p.completed for p in result.processes if not p.interactive)


def test_user_mode_frees_inline_without_daemon():
    result = run_experiment(_spec(policy="user-mode"))
    vm = result.vm
    assert vm.releaser_pages_freed > 0
    assert vm.freed_by_release > 0
    assert all(p.completed for p in result.processes if not p.interactive)


def test_paging_directed_beats_global_clock_on_hinted_build():
    """The paper's headline effect survives the refactor: with release
    hints honoured, the hog needs fewer hard faults than under the
    hint-blind clock."""
    directed = run_experiment(_spec())
    clock = run_experiment(_spec(policy="global-clock"))
    assert directed.primary.stats.hard_faults <= clock.primary.stats.hard_faults
    assert directed.vm.frag.mean_unusable_free_index <= (
        clock.vm.frag.mean_unusable_free_index
    )


@pytest.mark.parametrize("policy", ["global-clock", "user-mode"])
def test_competitor_policies_deterministic(policy):
    spec = _spec(policy=policy)
    first = digest.serialize_result(run_experiment(spec))
    second = digest.serialize_result(run_experiment(spec))
    assert first == second


def test_fragmentation_always_sampled():
    # finalize_stats takes a closing sample even if the daemon never ran.
    result = run_experiment(_spec())
    assert result.vm.frag.samples >= 1
    assert 0.0 <= result.vm.frag.mean_unusable_free_index <= 1.0


# -- compare harness -----------------------------------------------------
def test_compare_policies_table():
    rows = compare_policies(_spec(), policies=policy_names())
    assert [r.policy for r in rows] == list(policy_names())
    for row in rows:
        assert row.elapsed_s > 0
        assert row.frag_samples >= 1
    table = format_policy_table(rows)
    for name in policy_names():
        assert name in table
    assert "frag_ufi_mean" in table
