"""Edge cases of run-length ('T', ...) expansion and round-tripping.

The run-length batch op is consumed in four places — ``expand_ops`` (and
its twin inside ``diff_ops``), the binary codec, ``trace_info``'s
locality accounting, and the kernel's ``run_touches`` — and each has to
agree on the degenerate shapes the format admits but the interpreter
rarely (or never) produces:

- a **zero-count run** touches nothing: it must expand to nothing, move
  no stream cursor, and survive an encode/decode round trip unchanged;
- a **run abutting a hint boundary** (the batched stream sits directly
  next to another stream's 'p'/'r' op, or ends on the array's last page)
  must expand to exactly the unbatched stream — the batch guard keeps
  hinted streams out of the fast path, but hint-free runs legitimately
  touch pages right up against hint ops emitted by *other* references.
"""

import pytest

from repro.config import CompilerParams, MachineConfig
from repro.core.compiler.interp import expand_ops, nest_ops
from repro.core.compiler.ir import (
    Array,
    ArrayRef,
    Loop,
    Nest,
    Program,
    Stmt,
    affine,
)
from repro.core.compiler.pipeline import compile_program
from repro.trace.analyze import diff_ops, trace_info
from repro.trace.format import (
    K_RUN_READ,
    TraceHeader,
    encode_body,
    read_columns,
    read_trace,
    write_trace,
)
from tests.helpers import drive

MACHINE = MachineConfig()
EPP = MACHINE.page_elements


def _write_trace(tmp_path, ops, name="edge"):
    path = tmp_path / f"{name}.trace"
    header = TraceHeader(
        process=name,
        workload="SYNTH",
        version="O",
        scale="tiny",
        page_size=MACHINE.page_size,
        layout=(("a", 256),),
    )
    write_trace(path, header, ops)
    return path


# -- zero-count runs ---------------------------------------------------------
class TestZeroCountRun:
    OPS = [
        ("w", 0.5),
        ("t", 4, False, 0.0),
        ("T", 5, 0, False, 0.25),
        ("w", 0.125),
        ("t", 5, True, 0.0),
    ]

    def test_expands_to_nothing(self):
        expanded = list(expand_ops(iter(self.OPS)))
        assert expanded == [op for op in self.OPS if op[0] != "T"]

    def test_diff_expand_agrees(self):
        without = [op for op in self.OPS if op[0] != "T"]
        equal, mismatch, _a, _b = diff_ops(self.OPS, without, expand=True)
        assert equal and mismatch is None

    def test_codec_round_trip(self, tmp_path):
        path = _write_trace(tmp_path, self.OPS)
        _header, decoded = read_trace(path)
        assert decoded == self.OPS
        _header, cols = read_columns(path)
        assert len(cols) == len(self.OPS)
        run_at = 2
        assert cols.kinds[run_at] == K_RUN_READ
        assert (cols.arg0[run_at], cols.arg1[run_at]) == (5, 0)
        assert cols.floats[cols.arg2[run_at]] == 0.25

    def test_encode_body_matches_writer(self, tmp_path):
        path = _write_trace(tmp_path, self.OPS)
        data = path.read_bytes()
        header_len = int.from_bytes(data[8:12], "little")
        body, count = encode_body(iter(self.OPS))
        assert count == len(self.OPS)
        assert body == data[12 + header_len : -4]

    def test_trace_info_stays_sane(self, tmp_path):
        path = _write_trace(tmp_path, self.OPS)
        info = trace_info(path)
        # The empty run contributes no touches, no pages, and must not
        # push the locality counters negative or teleport the cursor.
        assert info["touches"] == 2
        assert info["distinct_pages"] == 2
        assert 0.0 <= info["sequential_fraction"] <= 1.0
        assert info["mean_jump_pages"] >= 0.0
        # 4 -> 5 is the only jump and it is sequential.
        assert info["sequential_fraction"] == 1.0

    def test_kernel_run_touches_zero_count(self, kernel):
        # The kernel consumer: a zero-count run charges nothing, touches
        # nothing, and yields no events.
        proc = kernel.create_process("z")
        before = proc.pending_user
        steps_before = kernel.engine.steps

        def run():
            yield from proc.run_touches(0, 0, False, 0.25)
            return proc.pending_user

        after = drive(kernel.engine, kernel.engine.process(run()))
        assert after == before
        # Only the driver process's own spawn/finish events fired.
        assert kernel.engine.steps - steps_before <= 3


# -- runs abutting hint boundaries ------------------------------------------
def _mixed_nest():
    """One hinted stream and one batchable stream in the same nest.

    ``big``'s rows are never reused, so ``plan_hints`` gives that
    reference prefetch and release tags; ``small`` is re-swept every
    outer iteration and its reuse is captured, so it stays tag-free and
    qualifies for the run-length fast path even with hints enabled.  In
    the emitted stream the small array's ('T', ...) runs sit directly
    against the big stream's 'r' ops — the abutting-hint-boundary shape.
    """
    big = Array("big", (4, 6 * EPP))
    small = Array("small", (4 * EPP,))
    stmt_big = Stmt(refs=(ArrayRef(big, (affine("i"), affine("j1"))),), flops=1.0)
    stmt_small = Stmt(refs=(ArrayRef(small, (affine("j2"),)),), flops=1.0)
    nest = Nest(
        "mixed",
        Loop(
            "i",
            0,
            4,
            body=(
                Loop("j1", 0, 6 * EPP, body=(stmt_big,)),
                Loop("j2", 0, 4 * EPP, body=(stmt_small,)),
            ),
        ),
    )
    program = Program("p", (big, small), (nest,))
    compiled = compile_program(program, CompilerParams()).nests[nest.name]
    layout = {"big": 0, "small": 100}
    return compiled, layout


class TestRunAbutsHintBoundary:
    def test_batched_stream_has_run_next_to_hint_op(self):
        compiled, layout = _mixed_nest()
        ops = list(
            nest_ops(
                compiled, {}, layout, MACHINE,
                emit_prefetch=True, emit_release=True,
            )
        )
        runs = [i for i, op in enumerate(ops) if op[0] == "T"]
        assert runs, "the tag-free stream must still batch with hints on"
        assert any(
            (i > 0 and ops[i - 1][0] in ("p", "r"))
            or (i + 1 < len(ops) and ops[i + 1][0] in ("p", "r"))
            for i in runs
        ), "expected at least one run abutting a hint op"

    def test_expansion_matches_unbatched(self):
        compiled, layout = _mixed_nest()
        kwargs = dict(emit_prefetch=True, emit_release=True)
        batched = list(nest_ops(compiled, {}, layout, MACHINE, **kwargs))
        unbatched = list(
            nest_ops(compiled, {}, layout, MACHINE, batch=False, **kwargs)
        )
        assert all(op[0] != "T" for op in unbatched)
        assert list(expand_ops(batched)) == unbatched

    def test_codec_round_trip_preserves_adjacency(self, tmp_path):
        compiled, layout = _mixed_nest()
        ops = list(
            nest_ops(
                compiled, {}, layout, MACHINE,
                emit_prefetch=True, emit_release=True,
            )
        )
        path = _write_trace(tmp_path, ops, name="mixed")
        _header, decoded = read_trace(path)
        assert decoded == ops
        body, count = encode_body(iter(decoded))
        data = path.read_bytes()
        header_len = int.from_bytes(data[8:12], "little")
        assert count == len(ops)
        assert body == data[12 + header_len : -4]

    def test_hinted_stream_never_batches(self):
        # The guard itself: a stream with hint tags emits a hint at every
        # page crossing, so batching it would put a run across a hint
        # boundary — assert it falls back to per-page ops instead.
        a = Array("a", (8 * EPP,))
        stmt = Stmt(refs=(ArrayRef(a, (affine("i"),), is_write=True),), flops=1.0)
        nest = Nest("sweep", Loop("i", 0, 8 * EPP, body=(stmt,)))
        compiled = compile_program(
            Program("p", (a,), (nest,)), CompilerParams()
        ).nests[nest.name]
        hinted = list(
            nest_ops(
                compiled, {}, {"a": 0}, MACHINE,
                emit_prefetch=True, emit_release=True,
            )
        )
        assert any(op[0] in ("p", "r") for op in hinted)
        assert all(op[0] != "T" for op in hinted)

    def test_run_to_array_end_batches(self):
        # A run ending exactly on the array's last page is inside bounds
        # (the guard is `elem_last // epp < array_pages`) and must batch.
        pages = 6
        a = Array("a", (pages * EPP,))
        stmt = Stmt(refs=(ArrayRef(a, (affine("i"),)),), flops=1.0)
        nest = Nest("sweep", Loop("i", 0, pages * EPP, body=(stmt,)))
        compiled = compile_program(
            Program("p", (a,), (nest,)), CompilerParams()
        ).nests[nest.name]
        kwargs = dict(emit_prefetch=False, emit_release=False)
        ops = list(nest_ops(compiled, {}, {"a": 0}, MACHINE, **kwargs))
        run = next(op for op in ops if op[0] == "T")
        assert run[1] + run[2] - 1 == pages - 1  # run abuts the last page
        unbatched = list(
            nest_ops(compiled, {}, {"a": 0}, MACHINE, batch=False, **kwargs)
        )
        assert list(expand_ops(ops)) == unbatched
