"""Golden contract: per-spec physics digests and dispatch counts.

``tests/golden/serialized_digests.json`` pins two things for every spec of
every committed benchmark case:

- ``physics`` — the SHA-256 of ``digest.physics_text(run_experiment(spec))``:
  simulated time, per-process buckets, VM / swap / run-time stats and
  sweeps.  This is the equivalence contract.  It moves only with a
  deliberate fidelity change.
- ``engine_steps`` — the spec's engine dispatch count.  A change that adds
  or removes events at equal physics moves only this pin, and re-pins it
  with ``scripts/pin_golden_steps.py``.

The tests assert both and say which one moved, so an event-count change is
never mistaken for a physics change (or the reverse).
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import digest
from repro.machine import run_experiment
from tests.golden_cases import GOLDEN_CASES

GOLDEN_PATH = Path(__file__).parent / "golden" / "serialized_digests.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))

CASES = sorted(GOLDEN["cases"])


def physics_digest(result) -> str:
    return hashlib.sha256(digest.physics_text(result).encode("utf-8")).hexdigest()


def assert_matches_golden(result, pin, label: str) -> None:
    """Compare one result to its pin; the message names what moved."""
    assert physics_digest(result) == pin["physics"], (
        f"{label}: PHYSICS moved — the physics digest diverged from the "
        "golden pin (simulated results changed, not just the event count)"
    )
    assert result.engine_steps == pin["engine_steps"], (
        f"{label}: DISPATCH COUNT moved ({result.engine_steps} vs "
        f"{pin['engine_steps']} pinned) at equal physics — re-pin with "
        "scripts/pin_golden_steps.py if the event change is deliberate"
    )


def test_golden_covers_committed_cases():
    """The pins and the golden cases name the same specs."""
    assert CASES == sorted(GOLDEN_CASES)


def test_serialize_result_is_physics_plus_steps():
    """One formatter: the service's text is the physics text plus one line."""
    spec = GOLDEN_CASES["grid_tiny"]()[0]
    result = run_experiment(spec)
    lines = digest.serialize_result(result).split("\n")
    assert lines[2] == f"engine_steps={result.engine_steps}"
    assert "\n".join(lines[:2] + lines[3:]) == digest.physics_text(result)


@pytest.mark.parametrize("case", CASES)
def test_serialized_results_match_golden(case):
    specs = GOLDEN_CASES[case]()
    pins = GOLDEN["cases"][case]
    assert len(specs) == len(pins), (
        f"{case}: spec count changed ({len(specs)} vs {len(pins)} golden "
        "pins) — regenerate tests/golden/serialized_digests.json "
        "deliberately if the case itself changed"
    )
    for index, spec in enumerate(specs):
        assert_matches_golden(run_experiment(spec), pins[index], f"{case}[{index}]")
