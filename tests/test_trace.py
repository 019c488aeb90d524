"""Tests for the repro.trace subsystem: format, record/replay, import, diff.

The load-bearing property is round-trip fidelity: a recorded trace must
(1) decode to exactly the op stream the driver played (floats bit-exact),
(2) replay through a Machine to byte-identical experiment results, and
(3) reject any truncation or bit flip with a clear, typed error.
"""

import json
import random

import pytest

from repro.digest import serialize_result
from repro.config import tiny
from repro.ioutil import atomic_open, atomic_write_json, atomic_write_text
from repro.machine import (
    INTERACTIVE,
    ExperimentSpec,
    SpecError,
    WorkloadProcessSpec,
    run_experiment,
)
from repro.trace import (
    TraceCaptureSink,
    TraceChecksumError,
    TraceError,
    TraceFormatError,
    TraceHeader,
    TraceImportError,
    TraceTruncatedError,
    TraceWorkload,
    diff_traces,
    import_text,
    read_header,
    read_trace,
    record_experiment,
    trace_process_spec,
    verify_against_code,
    write_trace,
)
from repro.trace.analyze import regenerate_ops, trace_info
from repro.trace.importer import parse_text
from repro.workloads import BENCHMARKS
from repro.workloads.base import invocation_ops

HEADER = TraceHeader(
    process="synthetic",
    workload="SYNTH",
    version="B",
    scale="tiny",
    page_size=16384,
    layout=(("a", 4096), ("b", 512)),
)


def synthetic_ops(seed=0, count=2000):
    """A stream exercising every record type, including negative deltas,
    large jumps, repeated and one-off floats, and fault annotations."""
    rng = random.Random(seed)
    ops = []
    vpn = 0
    for _ in range(count):
        roll = rng.random()
        if roll < 0.35:
            vpn = rng.randrange(0, 4600)
            ops.append(("t", vpn, rng.random() < 0.3, 0.0))
        elif roll < 0.55:
            ops.append(("w", rng.choice([1e-6, 2e-6, rng.random() * 1e-3])))
        elif roll < 0.7:
            start = rng.randrange(0, 4000)
            ops.append(("T", start, rng.randrange(1, 64), rng.random() < 0.5, 1e-6))
        elif roll < 0.8:
            vpns = tuple(rng.randrange(0, 4600) for _ in range(rng.randrange(1, 5)))
            ops.append(("p", rng.randrange(0, 32), vpns))
        elif roll < 0.9:
            vpns = tuple(rng.randrange(0, 4600) for _ in range(rng.randrange(1, 5)))
            ops.append(("r", rng.randrange(0, 32), vpns, rng.randrange(1, 4)))
        else:
            ops.append(("f", rng.randrange(0, 4600), rng.choice(["hard", "soft"])))
    return ops


# -- codec ------------------------------------------------------------------
def test_codec_round_trip_synthetic(tmp_path):
    ops = synthetic_ops()
    path = tmp_path / "synth.trace"
    count = write_trace(path, HEADER, ops)
    assert count == len(ops)
    header, decoded = read_trace(path)
    assert header == HEADER
    assert decoded == ops
    # Bit-exactness, not almost-equality: the types must survive too.
    for original, round_tripped in zip(ops, decoded):
        assert type(original) is type(round_tripped)
        for a, b in zip(original, round_tripped):
            assert type(a) is type(b)


def test_reader_and_header_only_read(tmp_path):
    ops = synthetic_ops(seed=3, count=50)
    path = tmp_path / "r.trace"
    write_trace(path, HEADER, ops)
    assert read_header(path) == HEADER
    header, decoded = read_trace(path)
    assert header == HEADER
    assert len(decoded) == 50
    assert decoded == ops


def test_empty_trace_round_trips(tmp_path):
    path = tmp_path / "empty.trace"
    assert write_trace(path, HEADER, []) == 0
    header, ops = read_trace(path)
    assert header == HEADER
    assert ops == []


def test_truncation_rejected_at_every_boundary(tmp_path):
    path = tmp_path / "t.trace"
    write_trace(path, HEADER, synthetic_ops(seed=1, count=200))
    data = path.read_bytes()
    # Cut at a spread of points: inside the magic, the header, the body,
    # and the footer.  All must fail loudly with a TraceError subclass.
    for cut in [4, 10, len(data) // 4, len(data) // 2, len(data) - 5, len(data) - 1]:
        (tmp_path / "cut.trace").write_bytes(data[:cut])
        with pytest.raises((TraceTruncatedError, TraceChecksumError)):
            read_trace(tmp_path / "cut.trace")


def test_bit_flips_rejected_by_checksum(tmp_path):
    path = tmp_path / "b.trace"
    write_trace(path, HEADER, synthetic_ops(seed=2, count=200))
    data = bytearray(path.read_bytes())
    # Flip one byte in the header, early body, late body, and the CRC.
    for offset in [15, len(data) // 3, 2 * len(data) // 3, len(data) - 2]:
        damaged = bytearray(data)
        damaged[offset] ^= 0xFF
        (tmp_path / "flip.trace").write_bytes(bytes(damaged))
        with pytest.raises(TraceChecksumError):
            read_trace(tmp_path / "flip.trace")


def test_not_a_trace_file_rejected(tmp_path):
    path = tmp_path / "nope.trace"
    path.write_bytes(b"definitely not a trace, long enough to have a crc")
    with pytest.raises(TraceFormatError, match="bad magic"):
        read_trace(path)
    path.write_bytes(b"RPRO")  # shorter than the magic itself
    with pytest.raises(TraceTruncatedError):
        read_trace(path)


def test_missing_file_is_trace_error(tmp_path):
    with pytest.raises(TraceError, match="cannot read"):
        read_trace(tmp_path / "missing.trace")


def test_writer_abort_leaves_nothing(tmp_path):
    """A ``write_trace`` that raises part-way through its ops leaves no
    file and no temp file, and leaves an earlier file at the path as it
    was."""

    def failing_ops():
        yield ("t", 1, False, 0.0)
        raise RuntimeError("boom")

    path = tmp_path / "aborted.trace"
    with pytest.raises(RuntimeError):
        write_trace(path, HEADER, failing_ops())
    assert list(tmp_path.iterdir()) == []  # no temp file leaked either
    with pytest.raises(TraceFormatError, match="unknown op kind"):
        write_trace(path, HEADER, [("t", 1, False, 0.0), ("?", 2)])
    assert list(tmp_path.iterdir()) == []
    write_trace(path, HEADER, [("t", 1, False, 0.0)])
    before = path.read_bytes()
    with pytest.raises(RuntimeError):
        write_trace(path, HEADER, failing_ops())
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


# -- input checks -------------------------------------------------------------
EIGHT_PAGES = TraceHeader(
    process="small",
    workload="SYNTH",
    version="B",
    scale="tiny",
    page_size=0,
    layout=(("a", 8),),
)

#: op streams naming a page outside an 8-page layout -> the page reported.
OUTSIDE_LAYOUT = {
    "write-below-zero-after-ops": (
        [("t", vpn, False, 0.0) for vpn in range(8)] + [("t", -1, True, 0.0)],
        -1,
    ),
    "write-below-zero-first": ([("t", -1, True, 0.0)], -1),
    "touch-past-the-end": ([("t", 100, False, 0.0)], 100),
    "prefetch-past-the-end": ([("p", 0, (50,))], 50),
    "release-below-zero": ([("r", 0, (3, -2), 1)], -2),
    "run-past-the-end": ([("T", 6, 3, False, 1e-6)], 8),
    "run-below-zero": ([("T", -1, 2, True, 1e-6)], -1),
    "fault-past-the-end": ([("t", 7, False, 0.0), ("f", 8, "hard")], 8),
}


@pytest.mark.parametrize("ops, vpn", OUTSIDE_LAYOUT.values(), ids=OUTSIDE_LAYOUT)
def test_pages_outside_the_layout_are_refused(tmp_path, ops, vpn):
    """The decoder refuses any page outside ``[0, footprint_pages)`` —
    replaying one would write to another page or grow the page table past
    every segment — naming the file, the page and the layout size; once
    the checksum fails too, the same damage is reported as corruption."""
    from repro.trace.format import read_columns

    path = tmp_path / "outside.trace"
    write_trace(path, EIGHT_PAGES, ops)
    message = f"{path}: vpn {vpn} is outside the trace's layout of 8 pages"
    for read in (read_trace, read_columns):
        with pytest.raises(TraceFormatError) as info:
            read(path)
        assert str(info.value) == message
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF  # break the CRC as well
    path.write_bytes(bytes(data))
    for read in (read_trace, read_columns):
        with pytest.raises(TraceChecksumError, match=f"vpn {vpn} is outside"):
            read(path)


@pytest.mark.parametrize(
    "op", [("p", 1 << 63, (1,)), ("r", 0, (1,), 1 << 63), ("r", 0, (1,), -(1 << 63) - 1)]
)
def test_fields_past_64_bits_are_refused(tmp_path, op):
    """Hint tags and release priorities land in 64-bit columns; a larger
    one is a format error, not an ``OverflowError``."""
    path = tmp_path / "wide.trace"
    write_trace(path, EIGHT_PAGES, [op])
    with pytest.raises(TraceFormatError, match="does not fit in 64 bits"):
        read_trace(path)


def test_zero_count_run_at_the_layout_edge_decodes(tmp_path):
    """A zero-count run touches nothing, so its start may sit one past the
    last page (or anywhere): only the pages of a non-empty run are
    checked."""
    ops = [("t", 7, False, 0.0), ("T", 8, 0, False, 0.5), ("t", 0, True, 0.0)]
    path = tmp_path / "edge.trace"
    write_trace(path, EIGHT_PAGES, ops)
    assert read_trace(path) == (EIGHT_PAGES, ops)


def test_replay_of_a_page_outside_the_layout_exits_2(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "outside.trace"
    write_trace(path, EIGHT_PAGES, [("t", 100, False, 0.0)])
    assert main(["trace", "replay", str(path), "--scale", "tiny"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"repro: error: {path}: vpn 100 is outside the trace's layout of 8 pages"]


BAD_LAYOUTS = {
    "zero-pages": ((("a", 0),), "segment 'a' has 0 pages"),
    "negative-pages": ((("a", 4), ("b", -3)), "segment 'b' has -3 pages"),
    "duplicate-name": ((("a", 4), ("a", 4)), "duplicate segment 'a'"),
}


@pytest.mark.parametrize("layout, problem", BAD_LAYOUTS.values(), ids=BAD_LAYOUTS)
def test_malformed_layouts_are_refused(tmp_path, capsys, layout, problem):
    """A layout replay could not map is refused by every reader, naming
    the file, and ``trace replay`` exits 2 with one line instead of a
    traceback from the address space."""
    import dataclasses

    from repro.cli import main

    path = tmp_path / "layout.trace"
    write_trace(path, dataclasses.replace(EIGHT_PAGES, layout=layout), [("w", 1e-6)])
    message = f"{path}: malformed trace header: {problem}"
    for read in (read_header, read_trace):
        with pytest.raises(TraceFormatError) as info:
            read(path)
        assert str(info.value) == message
    capsys.readouterr()
    assert main(["trace", "replay", str(path), "--scale", "tiny"]) == 2
    assert capsys.readouterr().err.splitlines() == [f"repro: error: {message}"]


# -- record -> replay round trip -------------------------------------------
@pytest.mark.parametrize("workload", sorted(BENCHMARKS))
def test_recorded_stream_matches_interpreter(tmp_path, workload):
    """Property: for every benchmark, the recorded op stream equals the
    interpreter's regenerated stream op-for-op, floats bit-exact."""
    spec = ExperimentSpec.multiprogram(tiny(), workload, version="B")
    _result, paths = record_experiment(spec, tmp_path / "traces")
    header, recorded = read_trace(paths[workload])
    assert recorded == list(regenerate_ops(header))
    summary = verify_against_code(paths[workload])
    assert summary["equal"]


def test_multi_invocation_walk_replays_its_first_repeat(tmp_path):
    """MGRID at tiny runs 7 invocations twice.  The one walk the driver and
    regenerate_ops share yields 14 streams, the second repeat replaying the
    first repeat's lists, and together they are exactly what was recorded."""
    scale = tiny()
    spec = ExperimentSpec.multiprogram(scale, "MGRID", version="R")
    _result, paths = record_experiment(spec, tmp_path / "traces")
    header, recorded = read_trace(paths["MGRID"])
    instance = BENCHMARKS["MGRID"].build(scale)
    assert (len(instance.invocations), instance.repeats) == (7, 2)
    layout, start = {}, 0
    for name, pages in header.layout:
        layout[name] = start
        start += pages
    streams = list(
        invocation_ops(instance.compiled(scale), instance, layout, scale.machine, True, True)
    )
    assert len(streams) == 14
    assert all(again is first for first, again in zip(streams[:7], streams[7:]))
    assert [op for ops in streams for op in ops] == recorded
    assert list(regenerate_ops(header)) == recorded


@pytest.mark.parametrize("version", ["O", "P", "R", "B"])
def test_replay_is_byte_identical(tmp_path, version):
    """Replaying a recorded trace alongside the same interactive task must
    reproduce the live run's serialized result exactly."""
    spec = ExperimentSpec.multiprogram(tiny(), "MATVEC", version=version)
    live, paths = record_experiment(spec, tmp_path / "traces")
    replay_spec = ExperimentSpec(
        scale=tiny(),
        processes=(
            trace_process_spec(paths["MATVEC"]),
            WorkloadProcessSpec(workload=INTERACTIVE),
        ),
    )
    replayed = run_experiment(replay_spec)
    assert serialize_result(replayed) == serialize_result(live)
    hog = replayed.primary
    assert hog.workload == "MATVEC"
    assert hog.version == version


@pytest.fixture(
    scope="module",
    params=[("EMBAR", "O"), ("MATVEC", "B")],
    ids=["EMBAR-O", "MATVEC-B"],
)
def recorded_live(request, tmp_path_factory):
    """A live run recorded once per case, with the spec that replays it.
    EMBAR O carries run-length ('T') ops, MATVEC B prefetch/release hints."""
    workload, version = request.param
    spec = ExperimentSpec.multiprogram(tiny(), workload, version=version)
    out = tmp_path_factory.mktemp(f"live-{workload}-{version}")
    live, paths = record_experiment(spec, out / "live")
    replay_spec = ExperimentSpec(
        scale=tiny(),
        processes=(
            trace_process_spec(paths[workload]),
            WorkloadProcessSpec(workload=INTERACTIVE),
        ),
    )
    return workload, serialize_result(live), paths[workload], replay_spec


@pytest.fixture
def column_replays(monkeypatch):
    """Names of the processes replayed through ``replay_columns_driver``."""
    import repro.trace.workload as trace_workload

    column_driver = trace_workload.replay_columns_driver
    replayed = []

    def spy(process, *args):
        replayed.append(process.name)
        return column_driver(process, *args)

    monkeypatch.setattr(trace_workload, "replay_columns_driver", spy)
    return replayed


def test_column_replay_matches_live(recorded_live, column_replays):
    """A plain replay runs the object-free column driver and reproduces
    the live result."""
    workload, live, _path, replay_spec = recorded_live
    replayed = run_experiment(replay_spec)
    assert column_replays == [workload]
    assert serialize_result(replayed) == live


def test_rerecorded_replay_matches_live(
    recorded_live, column_replays, tmp_path, capsys
):
    """Re-recording a replay makes the machine play the decoded op tuples
    through ``app_driver``, which appends each op to the capture list,
    not through the column driver.  It must reproduce the live result,
    and ``trace diff`` must find the re-recorded trace identical to the
    original."""
    from repro.cli import main

    workload, live, path, replay_spec = recorded_live
    rerecorded, rerecorded_paths = record_experiment(replay_spec, tmp_path / "again")
    assert column_replays == []
    assert serialize_result(rerecorded) == live
    capsys.readouterr()
    diff = ["trace", "diff", str(path), str(rerecorded_paths[workload])]
    assert main(diff) == 0
    assert "op streams are identical" in capsys.readouterr().out


def test_recording_does_not_perturb_the_run(tmp_path):
    spec = ExperimentSpec.multiprogram(tiny(), "EMBAR", version="R")
    plain = run_experiment(spec)
    recorded, _paths = record_experiment(spec, tmp_path / "traces")
    assert serialize_result(recorded) == serialize_result(plain)


def test_fault_annotations_recorded_and_ignored_on_replay(tmp_path):
    spec = ExperimentSpec.multiprogram(tiny(), "MATVEC", version="B")
    live, paths = record_experiment(
        spec, tmp_path / "traces", include_faults=True
    )
    header, ops = read_trace(paths["MATVEC"])
    fault_ops = [op for op in ops if op[0] == "f"]
    assert fault_ops, "a tiny MATVEC run must fault at least once"
    allowed = {"hard", "soft", "prefetch_validate", "release_revalidate", "rescue"}
    assert all(op[2] in allowed for op in fault_ops)
    replay_spec = ExperimentSpec(
        scale=tiny(),
        processes=(
            trace_process_spec(paths["MATVEC"]),
            WorkloadProcessSpec(workload=INTERACTIVE),
        ),
    )
    assert serialize_result(run_experiment(replay_spec)) == serialize_result(live)


def test_single_file_capture_and_process_filter(tmp_path):
    spec = ExperimentSpec.multiprogram(tiny(), "MATVEC", version="B")
    _result, paths = record_experiment(spec, tmp_path / "one.trace")
    assert set(paths) == {"MATVEC"}
    assert paths["MATVEC"] == tmp_path / "one.trace"
    with pytest.raises(TraceError, match="captured no process"):
        record_experiment(
            spec, tmp_path / "none", processes=["NOT-THERE"]
        )


def test_capture_sink_refuses_two_processes_in_single_file_mode(tmp_path):
    sink = TraceCaptureSink(tmp_path / "one.trace")
    fields = {
        "workload": "MATVEC",
        "version": "B",
        "scale": "tiny",
        "page_size": 4096,
        "layout": (("a", 8),),
    }
    assert sink.capture("A", **fields) == []
    with pytest.raises(TraceError, match="second"):
        sink.capture("B", **fields)
    sink.abort()
    assert sink.close() == {}
    assert list(tmp_path.iterdir()) == []


def test_plain_recording_builds_no_bus(tmp_path, monkeypatch):
    """Without fault annotations the recorder subscribes to no event, so the
    machine runs without a bus, like a live run; ``include_faults`` needs
    ``vm.fault`` and gets one."""
    import repro.machine as machine_mod

    buses = []
    real_bus = machine_mod.Bus

    def counting_bus(engine, sinks):
        buses.append(list(sinks))
        return real_bus(engine, sinks)

    monkeypatch.setattr(machine_mod, "Bus", counting_bus)
    spec = ExperimentSpec.multiprogram(tiny(), "MATVEC", version="B")
    _result, paths = record_experiment(spec, tmp_path / "plain")
    assert buses == [] and set(paths) == {"MATVEC"}
    record_experiment(spec, tmp_path / "faults", include_faults=True)
    assert len(buses) == 1 and isinstance(buses[0][0], TraceCaptureSink)


# -- replay spec handling ---------------------------------------------------
def test_trace_spec_validates(tmp_path):
    with pytest.raises(SpecError, match="trace_path"):
        WorkloadProcessSpec(workload="TRACE").validate()
    with pytest.raises(SpecError, match="trace_digest"):
        WorkloadProcessSpec(workload="TRACE", trace_path="x.trace").validate()


def test_replay_refuses_changed_trace(tmp_path):
    spec = ExperimentSpec.multiprogram(tiny(), "MATVEC", version="O")
    _result, paths = record_experiment(spec, tmp_path / "traces")
    wspec = trace_process_spec(paths["MATVEC"])
    # Re-record under a different version to change the file contents.
    spec2 = ExperimentSpec.multiprogram(tiny(), "MATVEC", version="B")
    record_experiment(spec2, tmp_path / "traces")
    replay = ExperimentSpec(scale=tiny(), processes=(wspec,))
    with pytest.raises(SpecError, match="changed on disk"):
        run_experiment(replay)


def test_replay_refuses_page_size_mismatch(tmp_path):
    spec = ExperimentSpec.multiprogram(tiny(), "MATVEC", version="O")
    _result, paths = record_experiment(spec, tmp_path / "traces")
    import dataclasses

    scale = tiny()
    shrunk = scale.with_overrides(
        machine=dataclasses.replace(
            scale.machine, page_size=scale.machine.page_size // 2
        )
    )
    replay = ExperimentSpec(
        scale=shrunk, processes=(trace_process_spec(paths["MATVEC"]),)
    )
    with pytest.raises(SpecError, match="page_size"):
        run_experiment(replay)


def test_spec_key_is_trace_content_addressed(tmp_path):
    from repro.experiments.runner import spec_key

    spec = ExperimentSpec.multiprogram(tiny(), "MATVEC", version="O")
    _result, paths = record_experiment(spec, tmp_path / "a")
    source = paths["MATVEC"]
    copy = tmp_path / "elsewhere" / "copy.trace"
    copy.parent.mkdir()
    copy.write_bytes(source.read_bytes())
    spec_a = ExperimentSpec(scale=tiny(), processes=(trace_process_spec(source),))
    spec_b = ExperimentSpec(scale=tiny(), processes=(trace_process_spec(copy),))
    # Same content at a different path -> same cache identity.
    assert spec_key(spec_a) == spec_key(spec_b)
    assert spec_a.processes[0].trace_path != spec_b.processes[0].trace_path


def test_runner_caches_trace_replays(tmp_path):
    from repro.experiments.runner import run_specs

    spec = ExperimentSpec.multiprogram(tiny(), "MATVEC", version="O")
    _result, paths = record_experiment(spec, tmp_path / "traces")
    replay = ExperimentSpec(
        scale=tiny(),
        processes=(
            trace_process_spec(paths["MATVEC"]),
            WorkloadProcessSpec(workload=INTERACTIVE),
        ),
    )
    cache = tmp_path / "cache"
    first = run_specs([replay], cache_dir=cache)[0]
    assert not first.from_cache
    second = run_specs([replay], cache_dir=cache)[0]
    assert second.from_cache
    assert serialize_result(second) == serialize_result(first)


def test_trace_workload_accessors(tmp_path):
    spec = ExperimentSpec.multiprogram(tiny(), "CGM", version="B")
    _result, paths = record_experiment(spec, tmp_path / "traces")
    workload = TraceWorkload(paths["CGM"])
    assert workload.name == "CGM"
    assert workload.header.workload == "CGM"
    assert workload.header.version == "B"
    assert workload.header.footprint_pages > 0
    cols = workload.columns()
    assert len(cols) and cols is workload.columns()  # memoized


# -- diff -------------------------------------------------------------------
def test_diff_equal_and_tampered(tmp_path):
    ops = synthetic_ops(seed=5, count=300)
    a = tmp_path / "a.trace"
    b = tmp_path / "b.trace"
    write_trace(a, HEADER, ops)
    write_trace(b, HEADER, ops)
    diff = diff_traces(a, b)
    assert diff.equal and diff.ops_equal and diff.first_mismatch is None

    tampered = list(ops)
    index = next(i for i, op in enumerate(tampered) if op[0] == "t")
    tampered[index] = ("t", tampered[index][1] + 1, tampered[index][2], 0.0)
    write_trace(b, HEADER, tampered)
    diff = diff_traces(a, b)
    assert not diff.equal
    # Fault annotations are stripped by default, so the reported index is
    # in the stripped stream; it must still point at the tampered touch.
    mismatch_index, op_a, op_b = diff.first_mismatch
    assert op_a[1] + 1 == op_b[1]


def test_diff_expand_normalizes_batches(tmp_path):
    batched = [("w", 1e-6), ("T", 10, 3, False, 2e-6), ("t", 13, True, 0.0)]
    expanded = [
        ("w", 1e-6),
        ("w", 2e-6),
        ("t", 10, False, 0.0),
        ("w", 2e-6),
        ("t", 11, False, 0.0),
        ("w", 2e-6),
        ("t", 12, False, 0.0),
        ("t", 13, True, 0.0),
    ]
    a = tmp_path / "a.trace"
    b = tmp_path / "b.trace"
    write_trace(a, HEADER, batched)
    write_trace(b, HEADER, expanded)
    assert not diff_traces(a, b).ops_equal
    assert diff_traces(a, b, expand=True).ops_equal


def test_diff_reports_header_mismatch(tmp_path):
    ops = [("t", 1, False, 0.0)]
    a = tmp_path / "a.trace"
    b = tmp_path / "b.trace"
    write_trace(a, HEADER, ops)
    import dataclasses

    write_trace(b, dataclasses.replace(HEADER, version="O"), ops)
    diff = diff_traces(a, b)
    assert diff.ops_equal
    assert not diff.equal
    assert any("version" in m for m in diff.header_mismatches)


def test_diff_include_faults(tmp_path):
    with_faults = [("t", 1, False, 0.0), ("f", 1, "hard"), ("t", 2, False, 0.0)]
    without = [("t", 1, False, 0.0), ("t", 2, False, 0.0)]
    a = tmp_path / "a.trace"
    b = tmp_path / "b.trace"
    write_trace(a, HEADER, with_faults)
    write_trace(b, HEADER, without)
    assert diff_traces(a, b).ops_equal
    assert not diff_traces(a, b, include_faults=True).ops_equal


# -- info -------------------------------------------------------------------
def test_trace_info_counts(tmp_path):
    ops = [
        ("w", 1e-6),
        ("t", 0, False, 0.0),
        ("w", 1e-6),
        ("t", 1, True, 0.0),
        ("T", 2, 4, False, 2e-6),
        ("p", 0, (6, 7)),
        ("r", 1, (0, 1, 2), 2),
        ("f", 3, "hard"),
    ]
    path = tmp_path / "info.trace"
    write_trace(path, HEADER, ops)
    info = trace_info(path)
    assert info["ops"] == len(ops)
    assert info["touches"] == 6  # 2 singles + the 4-page run
    assert info["write_fraction"] == pytest.approx(1 / 6, abs=1e-4)
    assert info["distinct_pages"] == 6
    assert info["user_s"] == pytest.approx(2e-6 + 4 * 2e-6)
    assert info["prefetch_pages"] == 2
    assert info["release_pages"] == 3
    assert info["fault_annotations"] == 1
    assert info["sequential_fraction"] == 1.0  # 0->1->2, then the run's strides
    assert info["footprint_pages"] == HEADER.footprint_pages


# -- import -----------------------------------------------------------------
def test_import_text_happy_path(tmp_path):
    source = tmp_path / "scan.txt"
    source.write_text(
        "# comment\n"
        "!name SCAN\n"
        "!page-cost 2e-6\n"
        "!segment data 64\n"
        "0 r\n"
        "1 w prefetch=2,3\n"
        "2 r release=0,1@2\n"
    )
    header, path, count = import_text(source, tmp_path / "scan.trace")
    assert header.process == "SCAN"
    assert header.version == "B"  # hints present -> B
    assert header.source == "import"
    assert header.page_size == 0
    assert header.layout == (("data", 64),)
    _header, ops = read_trace(path)
    assert count == len(ops)
    assert ops == [
        ("w", 2e-6),
        ("t", 0, False, 0.0),
        ("p", 0, (2, 3)),
        ("w", 2e-6),
        ("t", 1, True, 0.0),
        ("w", 2e-6),
        ("t", 2, False, 0.0),
        ("r", 1, (0, 1), 2),
    ]


def test_import_defaults(tmp_path):
    header, ops = parse_text(["0 r", "5 w"], "stem")
    assert header.process == "stem"
    assert header.version == "O"  # no hints -> O
    assert header.layout == (("data", 6),)  # max vpn + 1


@pytest.mark.parametrize(
    "lines, match",
    [
        (["x r"], "expected a vpn"),
        (["0 z"], "expected 'r' or 'w'"),
        (["0 r bogus=1"], "unknown field"),
        (["!nonsense 1", "0 r"], "unknown directive"),
        (["!version Q", "0 r"], "unknown version"),
        (["!segment data 4", "10 r"], "outside the declared layout"),
        (["0 r release=1@zero"], "bad release priority"),
        (["0 r prefetch="], "empty vpn"),
        (["# only a comment"], "no touch lines"),
        (["!page-cost -1", "0 r"], "negative page cost"),
        (["!segment a 4", "!segment a 4", "0 r"], "duplicate segment"),
    ],
)
def test_import_errors_name_the_line(lines, match):
    with pytest.raises(TraceImportError, match=match):
        parse_text(lines, "x")


def test_imported_trace_replays(tmp_path):
    source = tmp_path / "scan.txt"
    source.write_text("!segment data 8\n" + "\n".join(f"{i} r" for i in range(8)))
    _header, path, _count = import_text(source, tmp_path / "scan.trace")
    spec = ExperimentSpec(scale=tiny(), processes=(trace_process_spec(path),))
    result = run_experiment(spec)
    assert result.primary.completed
    assert result.primary.workload == "scan"
    assert result.primary.stats.hard_faults > 0


def test_import_missing_source(tmp_path):
    with pytest.raises(TraceImportError, match="cannot read"):
        import_text(tmp_path / "missing.txt", tmp_path / "out.trace")


def test_verify_refuses_imported_traces(tmp_path):
    source = tmp_path / "scan.txt"
    source.write_text("0 r\n")
    _header, path, _count = import_text(source, tmp_path / "scan.trace")
    with pytest.raises(TraceError, match="imported"):
        verify_against_code(path)


# -- atomic writes ----------------------------------------------------------
def test_atomic_write_creates_parents_and_trailing_newline(tmp_path):
    path = tmp_path / "deep" / "nested" / "out.json"
    atomic_write_json(path, {"b": 2, "a": 1})
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == {"a": 1, "b": 2}
    assert list(json.loads(text)) == ["a", "b"]  # sorted keys


def test_atomic_open_failure_leaves_target_untouched(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "original")
    with pytest.raises(RuntimeError):
        with atomic_open(path, "w") as handle:
            handle.write("partial garbage")
            raise RuntimeError("interrupted")
    assert path.read_text() == "original"
    # And no temp file survives the failure.
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_atomic_open_rejects_read_modes(tmp_path):
    with pytest.raises(ValueError, match="atomic_open"):
        with atomic_open(tmp_path / "x", "rb"):
            pass


# -- column decoding and byte-level verification ----------------------------
def test_columns_decode_matches_tuple_decode(tmp_path):
    """``ReplayColumns.ops()`` turns the decoded columns back into the
    written tuples, element types included, on a stream exercising every
    record type (negative deltas, interned floats and fault kinds,
    multi-page hints); ``read_trace`` returns the same list."""
    from repro.trace.format import read_columns

    ops = synthetic_ops(seed=11)
    path = tmp_path / "cols.trace"
    write_trace(path, HEADER, ops)
    header, cols = read_columns(path)
    assert header == HEADER
    assert len(cols) == len(ops)
    decoded = list(cols.ops())
    assert decoded == ops
    assert [tuple(map(type, op)) for op in decoded] == [
        tuple(map(type, op)) for op in ops
    ]
    assert read_trace(path)[1] == decoded


def test_columns_rejects_corruption_like_tuple_decoder(tmp_path):
    """``read_columns`` and ``read_trace`` (the tuples built from those
    columns) refuse the same damaged files with the same errors."""
    from repro.trace.format import read_columns

    path = tmp_path / "c.trace"
    write_trace(path, HEADER, synthetic_ops(seed=12, count=200))
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    (tmp_path / "bad.trace").write_bytes(bytes(data))
    (tmp_path / "cut.trace").write_bytes(bytes(data[: len(data) // 2]))
    for read in (read_columns, read_trace):
        with pytest.raises(TraceChecksumError):
            read(tmp_path / "bad.trace")
        with pytest.raises((TraceTruncatedError, TraceChecksumError)):
            read(tmp_path / "cut.trace")


def test_encode_body_matches_written_body(tmp_path):
    """``encode_body`` (the verification fast path) produces exactly the
    body ``write_trace`` frames between the header and the CRC — same
    interning, same deltas — on a stream with new and interned fault
    kinds, whether the ops come as a list or as an iterator."""
    from repro.trace.format import encode_body

    ops = synthetic_ops(seed=13)
    fault_kinds = [op[2] for op in ops if op[0] == "f"]
    assert len(fault_kinds) > len(set(fault_kinds)) == 2  # new and interned
    body, count = encode_body(iter(ops))
    assert count == len(ops)
    assert encode_body(ops) == (body, count)
    path = tmp_path / "written.trace"
    assert write_trace(path, HEADER, iter(ops)) == count
    data = path.read_bytes()
    header_len = int.from_bytes(data[8:12], "little")
    assert body == data[12 + header_len : -4]
    assert read_trace(path)[1] == ops


def test_verify_bytes_takes_fast_path_on_clean_trace(tmp_path):
    from repro.trace.analyze import verify_bytes_against_code

    spec = ExperimentSpec.multiprogram(tiny(), "MATVEC", version="B")
    _result, paths = record_experiment(spec, tmp_path / "v")
    for path in paths.values():
        summary = verify_bytes_against_code(path)
        assert summary["equal"] is True
        assert summary["method"] == "bytes"
        assert summary["recorded_ops"] == summary["regenerated_ops"]


def test_verify_bytes_falls_back_on_fault_annotations(tmp_path):
    """'f' records perturb the delta/float chains, so the byte compare
    cannot match — the verifier must fall back to the tuple-level diff,
    which strips annotations, and still verify the trace."""
    from repro.trace.analyze import verify_bytes_against_code

    spec = ExperimentSpec.multiprogram(tiny(), "MATVEC", version="B")
    _result, paths = record_experiment(
        spec, tmp_path / "vf", include_faults=True
    )
    for path in paths.values():
        summary = verify_bytes_against_code(path)
        assert summary["equal"] is True
        assert summary["method"] == "ops"


def test_verify_bytes_propagates_corruption_errors(tmp_path):
    from repro.trace.analyze import verify_bytes_against_code

    spec = ExperimentSpec.multiprogram(tiny(), "MATVEC", version="B")
    _result, paths = record_experiment(spec, tmp_path / "vc")
    path = next(iter(paths.values()))
    data = bytearray(path.read_bytes())
    data[-2] ^= 0xFF  # corrupt the CRC
    path.write_bytes(bytes(data))
    with pytest.raises(TraceChecksumError):
        verify_bytes_against_code(path)
