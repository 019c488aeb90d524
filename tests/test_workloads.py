"""Tests for the benchmark workloads: structure, compilation, and the
per-benchmark hint behaviour Table 2 of the paper implies."""

import dataclasses
import pickle
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import paper, small, tiny
from repro.core.compiler import compile_program
from repro.core.compiler.ir import IndirectRef, VaryingStrideRef
from repro.digest import serialize_result
from repro.experiments import wire
from repro.machine import ExperimentSpec, run_experiment
from repro.workloads import BENCHMARKS, benchmark, interactive, table2_rows
from repro.workloads.base import build_layout
from repro.workloads.buk import BukWorkload
from repro.workloads.cgm import CgmWorkload
from repro.workloads.embar import EmbarWorkload
from repro.workloads.fftpde import FftpdeWorkload
from repro.workloads.interactive import SweepLog, SweepSample
from repro.workloads.matvec import MatvecWorkload
from repro.workloads.mgrid import MgridWorkload


ALL_SCALES = [tiny(), small(), paper()]


class TestRegistry:
    def test_all_six_benchmarks_present(self):
        assert set(BENCHMARKS) == {
            "EMBAR",
            "MATVEC",
            "BUK",
            "CGM",
            "MGRID",
            "FFTPDE",
        }

    def test_lookup_case_insensitive(self):
        assert benchmark("matvec") is BENCHMARKS["MATVEC"]

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            benchmark("SORT")

    def test_table2_rows(self, scale):
        rows = table2_rows(scale)
        assert len(rows) == 6
        for row in rows:
            assert row["data_set_pages"] > 0
            assert row["analysis_hazard"]


class TestBuildAtAllScales:
    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    @pytest.mark.parametrize("sim_scale", ALL_SCALES, ids=lambda s: s.name)
    def test_builds_and_compiles(self, name, sim_scale):
        workload = BENCHMARKS[name]
        instance = workload.build(sim_scale)
        compiled = compile_program(instance.program, sim_scale.compiler)
        assert compiled.nests
        for nest in compiled.nests.values():
            assert nest.refs

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_dataset_exceeds_memory(self, name, small_scale):
        """Every benchmark is genuinely out-of-core."""
        workload = BENCHMARKS[name]
        pages = workload.dataset_pages(small_scale)
        assert pages > small_scale.machine.total_frames


class TestMatvecAnalysis:
    def test_paper_priorities(self, small_scale):
        instance = MatvecWorkload().build(small_scale)
        compiled = compile_program(instance.program, small_scale.compiler)
        releases = compiled.nest("multiply").plan.releases
        by_array = {s.target.ref.array.name: s for s in releases}
        assert by_array["A"].priority == 0
        assert by_array["x"].priority == 1
        assert by_array["x"].despite_reuse
        # y's inner reuse is captured: no release at all.
        assert "y" not in by_array


class TestEmbarAnalysis:
    def test_all_releases_zero_priority(self, small_scale):
        instance = EmbarWorkload().build(small_scale)
        compiled = compile_program(instance.program, small_scale.compiler)
        for spec in compiled.all_release_specs():
            assert spec.priority == 0


class TestBukAnalysis:
    def test_random_array_never_released(self, small_scale):
        instance = BukWorkload().build(small_scale)
        compiled = compile_program(instance.program, small_scale.compiler)
        for spec in compiled.all_release_specs():
            assert spec.target.ref.array.name != "rank"

    def test_random_array_prefetched(self, small_scale):
        instance = BukWorkload().build(small_scale)
        compiled = compile_program(instance.program, small_scale.compiler)
        prefetched = {s.target.ref.array.name for s in compiled.all_prefetch_specs()}
        assert "rank" in prefetched

    def test_rank_fits_in_memory(self, small_scale):
        """The random array must be able to remain 'mostly in memory' once
        the sequential arrays are released."""
        instance = BukWorkload().build(small_scale)
        rank = instance.program.array("rank")
        assert (
            rank.pages(instance.env, small_scale.machine.page_size)
            < small_scale.machine.total_frames
        )

    def test_indirect_reference_present(self, small_scale):
        instance = BukWorkload().build(small_scale)
        refs = [
            ref
            for nest in instance.program.nests
            for _c, _s, ref in nest.references()
        ]
        assert any(isinstance(ref, IndirectRef) for ref in refs)


class TestCgmAnalysis:
    def test_unknown_bounds_everywhere(self, small_scale):
        from repro.core.compiler.ir import bound_known

        instance = CgmWorkload().build(small_scale)
        for nest in instance.program.nests:
            for _depth, loop in nest.loops_by_depth():
                assert not bound_known(loop.upper)

    def test_gather_target_never_released(self, small_scale):
        instance = CgmWorkload().build(small_scale)
        compiled = compile_program(instance.program, small_scale.compiler)
        spmv = compiled.nest("sparse_matvec")
        released = {s.target.ref.array.name for s in spmv.plan.releases}
        assert "p" not in released


class TestMgridAnalysis:
    def test_coarse_levels_use_miscompiled_hints(self, small_scale):
        instance = MgridWorkload().build(small_scale)
        for nest in instance.program.nests:
            varying = [
                ref
                for _c, _s, ref in nest.references()
                if isinstance(ref, VaryingStrideRef)
            ]
            if nest.name == "smooth0":
                assert not varying  # the compiled version fits the fine grid
            else:
                assert varying
                assert all(ref.hints_follow_apparent for ref in varying)

    def test_v_cycle_invocation_order(self, small_scale):
        instance = MgridWorkload().build(small_scale)
        names = [name for name, _env in instance.invocations]
        assert names == [
            "smooth0",
            "smooth1",
            "smooth2",
            "smooth3",
            "smooth2",
            "smooth1",
            "smooth0",
        ]

    def test_all_releases_zero_priority(self, small_scale):
        instance = MgridWorkload().build(small_scale)
        compiled = compile_program(instance.program, small_scale.compiler)
        for spec in compiled.all_release_specs():
            assert spec.priority == 0


class TestFftpdeAnalysis:
    def test_misclassified_reuse_gets_positive_priority(self, small_scale):
        instance = FftpdeWorkload().build(small_scale)
        compiled = compile_program(instance.program, small_scale.compiler)
        releases = compiled.nest("fft_stages").plan.releases
        by_array = {s.target.ref.array.name: s for s in releases}
        assert by_array["fftdata"].priority == 3  # 2^0 + 2^1
        assert by_array["fftdata"].despite_reuse
        assert by_array["chksum"].priority == 0

    def test_hops_coprime_to_stripe(self, small_scale):
        import math

        from repro.workloads.fftpde import _HOPS

        for hop in _HOPS:
            assert math.gcd(hop, small_scale.disk.disks) == 1

    def test_actual_strides_change_per_stage(self, small_scale):
        instance = FftpdeWorkload().build(small_scale)
        nest = instance.program.nest("fft_stages")
        ref = next(
            ref
            for _c, _s, ref in nest.references()
            if isinstance(ref, VaryingStrideRef)
        )
        subs_s0 = ref.actual_subscripts({"s": 0, "m": 0})
        subs_s1 = ref.actual_subscripts({"s": 1, "m": 0})
        assert subs_s0[0].coeff("b") != subs_s1[0].coeff("b")


class TestLayout:
    def test_layout_covers_all_arrays(self, kernel, scale):
        instance = MatvecWorkload().build(scale)
        proc = kernel.create_process("app")
        layout = build_layout(proc, instance, scale.machine.page_size)
        assert set(layout) == {a.name for a in instance.program.arrays}

    def test_layout_segments_disjoint(self, kernel, scale):
        instance = MatvecWorkload().build(scale)
        proc = kernel.create_process("app")
        build_layout(proc, instance, scale.machine.page_size)
        segments = [
            proc.aspace.segment(a.name) for a in instance.program.arrays
        ]
        covered = set()
        for segment in segments:
            pages = set(segment)
            assert not (covered & pages)
            covered |= pages


# -- the interactive task's sweep log ---------------------------------------

#: Floats whose reprs are long, short and in exponent form, and an int
#: start time (the engine clock starts at 0.0, but nothing forbids 0).
SAMPLES = [SweepSample(0, 0.125, 256, 0, 0)] + [
    SweepSample(i / 7, 2.5e-07 * i, i % 5, i % 3, i % 2) for i in range(1, 40)
]


def _log(samples):
    log = SweepLog()
    for s in samples:
        log.record(s.start_time, s.response_time, s.hard_faults, s.soft_faults, s.rescues)
    return log


#: Any number a column might hold: ints (large ones too) and floats (both
#: zeros, infinities, NaN).
_NUMBERS = st.one_of(
    st.integers(), st.integers(min_value=-(2**80), max_value=2**80), st.floats()
)
_TAILS = st.tuples(_NUMBERS, _NUMBERS, _NUMBERS, _NUMBERS)
#: Tail lists holding equal tails that print differently, and so must not
#: share one rendering: ``0``, ``0.0``, ``-0.0``, ``1`` and ``1.0`` mixed
#: in every column, or float response times that differ only in the sign
#: of a zero.
_LOOKALIKE_TAIL_LISTS = st.one_of(
    st.lists(st.tuples(*[st.sampled_from([0, 0.0, -0.0, 1, 1.0])] * 4), max_size=40),
    st.lists(
        st.tuples(st.sampled_from([0.0, -0.0, 1.0]), *[st.integers(0, 1)] * 3), max_size=40
    ),
)
#: What a simulated sweep's tail holds: a positive response time and
#: fault counts.
_SIM_TAILS = st.tuples(
    st.floats(min_value=1e-9, max_value=1e3),
    st.integers(0, 2**70),
    st.integers(0, 300),
    st.integers(0, 300),
)


@st.composite
def _tail_lists(draw, tails, min_size=0):
    """Tail lists of every shape: all distinct, one tail repeated, or
    drawn from a small pool."""
    shape = draw(st.sampled_from(["distinct", "repeated", "pool"]))
    if shape == "distinct":
        return draw(st.lists(tails, min_size=min_size, max_size=40, unique=True))
    count = draw(st.integers(min_size, 60))
    if shape == "repeated":
        return [draw(tails)] * count
    pool = draw(st.lists(tails, min_size=1, max_size=4))
    return [draw(st.sampled_from(pool)) for _ in range(count)]


@st.composite
def _logs(draw, tail_lists):
    """Logs with the given tails and int or float start times."""
    rows = draw(tail_lists)
    starts = draw(
        st.lists(st.one_of(st.integers(), st.floats()), min_size=len(rows), max_size=len(rows))
    )
    return _log(SweepSample(start, *row) for start, row in zip(starts, rows))


class TestSweepLog:
    """A ``SweepLog`` must read, print and travel like ``List[SweepSample]``."""

    @pytest.mark.parametrize("count", [0, 1, len(SAMPLES)])
    def test_repr_is_the_lists(self, count):
        assert repr(_log(SAMPLES[:count])) == repr(SAMPLES[:count])

    @settings(max_examples=300, deadline=None)
    @given(log=_logs(st.one_of(_tail_lists(_TAILS), _LOOKALIKE_TAIL_LISTS)))
    def test_repr_is_the_lists_for_any_numbers(self, log):
        assert repr(log) == repr(list(log))

    @settings(max_examples=100, deadline=None)
    @given(log=_logs(_tail_lists(_SIM_TAILS, min_size=1)))
    def test_repr_renders_each_distinct_tail_once(self, log):
        calls = []

        def counted(key):
            calls.append(key)
            return render(key)

        render = interactive._tail
        with mock.patch.object(interactive, "_tail", counted):
            text = repr(log)
        assert text == repr(list(log))
        tails = list(zip(log.response_time, log.hard_faults, log.soft_faults, log.rescues))
        assert sorted(calls) == sorted(set(tails))

    def test_repr_of_a_sleep_0_grid_log(self):
        """A real sleep-0 log: thousands of sweeps over a handful of tails."""
        spec = ExperimentSpec.multiprogram(tiny(), "MATVEC", "O", sleep_time_s=0.0)
        log = run_experiment(spec).interactives[0].sweeps
        tails = set(zip(log.response_time, log.hard_faults, log.soft_faults, log.rescues))
        assert len(log) > 1000 and len(tails) < len(log) / 10
        assert repr(log) == repr(list(log))

    def test_reads_like_the_list(self):
        log = _log(SAMPLES)
        assert len(log) == len(SAMPLES)
        assert log and not SweepLog()
        for index in (0, 1, -1, -len(SAMPLES)):
            assert log[index] == SAMPLES[index]
        with pytest.raises(IndexError):
            log[len(SAMPLES)]
        for part in (slice(1, None), slice(None, -1), slice(-3, None), slice(2, 30, 4),
                     slice(None, None, -1), slice(50, 60)):
            assert type(log[part]) is list
            assert log[part] == SAMPLES[part]
        assert list(log) == SAMPLES
        assert [s.response_time for s in log] == log.response_time

    def test_pickle_and_wire_round_trips(self):
        log = _log(SAMPLES)
        assert pickle.loads(pickle.dumps(log, protocol=pickle.HIGHEST_PROTOCOL)) == log
        assert wire.decode(wire.encode(log)) == log

    def test_serialized_result_matches_the_list_form(self):
        result = run_experiment(ExperimentSpec.interactive_alone(tiny(), 0.0, sweeps=6))
        process = result.interactives[0]
        assert isinstance(process.sweeps, SweepLog) and len(process.sweeps) == 6
        listed = dataclasses.replace(
            result, processes=[dataclasses.replace(process, sweeps=list(process.sweeps))]
        )
        assert serialize_result(result) == serialize_result(listed)
