"""Re-pin the golden engine_steps at equal physics.

Runs every spec of every golden case, checks its physics digest against
tests/golden/serialized_digests.json, and rewrites only the engine_steps
pins.  It refuses to write anything if any physics digest moved: a change
that moves physics is a fidelity change, not an event-count change, and
its pins are regenerated deliberately, by hand.

Usage:  PYTHONPATH=src python scripts/pin_golden_steps.py
"""
import json
import sys
from pathlib import Path

from repro.machine import run_experiment

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.golden_cases import GOLDEN_CASES  # noqa: E402
from tests.test_golden_digests import GOLDEN, GOLDEN_PATH, physics_digest  # noqa: E402


def main() -> int:
    moved = []
    for case, pins in GOLDEN["cases"].items():
        specs = GOLDEN_CASES[case]()
        if len(specs) != len(pins):
            moved.append(f"{case}: spec count changed")
            continue
        for index, (spec, pin) in enumerate(zip(specs, pins)):
            result = run_experiment(spec)
            if physics_digest(result) != pin["physics"]:
                moved.append(f"{case}[{index}]")
            elif result.engine_steps != pin["engine_steps"]:
                print(f"{case}[{index}]: {pin['engine_steps']} -> {result.engine_steps}")
                pin["engine_steps"] = result.engine_steps
    if moved:
        print("physics moved, nothing written: " + ", ".join(moved), file=sys.stderr)
        return 1
    GOLDEN_PATH.write_text(json.dumps(GOLDEN, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
