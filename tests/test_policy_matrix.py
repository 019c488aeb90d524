"""Per-policy smoke matrix: every registered policy completes, deterministically.

CI runs this file once per registered policy with ``REPRO_POLICY=<name>`` so
a broken competitor policy fails its own matrix cell instead of hiding inside
a monolithic job.  Without the variable set, all policies run (so plain
``pytest`` still covers everything).
"""

import os

import pytest

from repro import digest
from repro.config import tiny
from repro.experiments.harness import multiprogram_spec
from repro.machine import run_experiment
from repro.policies import policy_names

_SELECTED = os.environ.get("REPRO_POLICY")
POLICIES = [
    name
    for name in policy_names()
    if _SELECTED is None or name == _SELECTED
]

if _SELECTED is not None and not POLICIES:
    raise RuntimeError(
        f"REPRO_POLICY={_SELECTED!r} is not a registered policy; "
        f"registered: {', '.join(policy_names())}"
    )


def _spec(policy, version="R"):
    return multiprogram_spec(tiny(), "MATVEC", version).with_policy(policy)


@pytest.mark.parametrize("policy", POLICIES)
def test_policy_completes_standard_hog(policy):
    result = run_experiment(_spec(policy))
    assert all(p.completed for p in result.out_of_core)
    assert result.elapsed_s > 0
    assert result.spec.policy.name == policy


@pytest.mark.parametrize("policy", POLICIES)
def test_policy_is_deterministic(policy):
    spec = _spec(policy)
    first = digest.serialize_result(run_experiment(spec))
    second = digest.serialize_result(run_experiment(spec))
    assert first == second


@pytest.mark.parametrize("policy", POLICIES)
def test_policy_samples_fragmentation(policy):
    result = run_experiment(_spec(policy))
    frag = result.vm.frag
    assert frag.samples >= 1
    assert 0.0 <= frag.mean_unusable_free_index <= 1.0
    assert frag.last.free_frames >= 0


@pytest.mark.parametrize("policy", POLICIES)
def test_policy_handles_unhinted_build(policy):
    """Version O carries no release hints; every policy must still finish."""
    result = run_experiment(_spec(policy, version="O"))
    assert all(p.completed for p in result.out_of_core)
