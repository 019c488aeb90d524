"""Golden trace bytes: the SHA-256 of every byte of a recorded trace file.

``tests/golden/trace_digests.json`` pins, for each case below, the hash of
the whole file a tiny-scale recording writes: magic, header JSON, record
body and CRC.  A recording is deterministic, so any change to how ops are
captured, ordered or encoded (the delta cursor, the float and string
interning tables, where fault annotations land) moves a pin, while a
change that only makes recording cheaper keeps every one.

The pins were taken before the recorder stopped routing ops through the
instrumentation bus.  Re-pin only for a deliberate format change:

    PYTHONPATH=src python -m tests.test_trace_digests > tests/golden/trace_digests.json
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.config import tiny
from repro.machine import INTERACTIVE, ExperimentSpec, WorkloadProcessSpec
from repro.trace import record_experiment, trace_process_spec
from repro.workloads import BENCHMARKS

GOLDEN_PATH = Path(__file__).parent / "golden" / "trace_digests.json"


def _record(spec, out, **kwargs) -> Path:
    _result, paths = record_experiment(spec, out, **kwargs)
    (path,) = paths.values()
    return path


def _benchmark(workload: str, version: str, **kwargs):
    def case(tmp: Path) -> Path:
        spec = ExperimentSpec.multiprogram(tiny(), workload, version=version)
        return _record(spec, tmp / "traces", **kwargs)

    return case


def _single_file(tmp: Path) -> Path:
    """One hog of a two-hog mix, captured into a single ``.trace`` file."""
    spec = ExperimentSpec(
        scale=tiny(),
        processes=(
            WorkloadProcessSpec(workload="MATVEC", version="B"),
            WorkloadProcessSpec(workload="CGM", version="R"),
            WorkloadProcessSpec(workload=INTERACTIVE),
        ),
    )
    return _record(spec, tmp / "one.trace", processes=["CGM"])


def _rerecorded(tmp: Path) -> Path:
    """MATVEC B, replayed beside the interactive task and recorded again."""
    original = _benchmark("MATVEC", "B")(tmp)
    replay = ExperimentSpec(
        scale=tiny(),
        processes=(
            trace_process_spec(original),
            WorkloadProcessSpec(workload=INTERACTIVE),
        ),
    )
    return _record(replay, tmp / "again")


CASES = {
    **{f"{name}-B": _benchmark(name, "B") for name in sorted(BENCHMARKS)},
    **{f"MATVEC-{version}": _benchmark("MATVEC", version) for version in "OPR"},
    "MATVEC-B-faults": _benchmark("MATVEC", "B", include_faults=True),
    "single-file": _single_file,
    "MATVEC-B-rerecorded": _rerecorded,
}


def trace_digest(case: str, tmp: Path) -> str:
    return hashlib.sha256(CASES[case](tmp).read_bytes()).hexdigest()


def _pins():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["cases"]


def test_pins_cover_every_case():
    assert sorted(_pins()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_recorded_bytes_match_pin(case, tmp_path):
    assert trace_digest(case, tmp_path) == _pins()[case], (
        f"{case}: the recorded trace file's bytes moved"
    )


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        cases = {
            case: trace_digest(case, Path(tmp) / case) for case in sorted(CASES)
        }
    note = (
        "SHA-256 of each tiny-scale recording's whole trace file "
        "(tests/test_trace_digests.py). Moves only with a deliberate trace "
        "format change."
    )
    json.dump({"note": note, "cases": cases}, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
