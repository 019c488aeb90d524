"""Golden equivalence and determinism for the hot-path optimizations.

The op-stream batching ('T' runs), the engine fast lane, and the driver's
tight touch loop are pure performance work: they must not move a single
simulated event.  These tests pin that down three ways:

1. **Stream equality** — for every benchmark nest and hint configuration,
   ``expand_ops(batched stream)`` equals the ``batch=False`` stream
   op-for-op (floats compared bit-exactly, not approximately);
2. **Metric equivalence** — full experiments run with batching disabled
   produce byte-identical serialized results;
3. **Determinism** — the standard mix serializes identically across
   repeated runs and under a parallel runner (``jobs=2``).
"""

import functools

import pytest

from repro.digest import serialize_result
from repro.config import tiny
from repro.core.compiler.interp import expand_ops, nest_ops
from repro.experiments.harness import multiprogram_spec
from repro.experiments.runner import run_specs
from repro.faults import FaultPlan
from repro.machine import run_experiment
from repro.workloads import BENCHMARKS


def _layout_for(instance, page_size):
    """Contiguous array layout, mirroring ``build_layout``'s assignment."""
    layout = {}
    start = 0
    for array in instance.program.arrays:
        layout[array.name] = start
        start += array.pages(instance.env, page_size)
    return layout


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
@pytest.mark.parametrize("hints", [False, True], ids=["no-hints", "hints"])
def test_batched_stream_expands_to_unbatched(name, hints):
    scale = tiny()
    machine = scale.machine
    instance = BENCHMARKS[name].build(scale)
    compiled = instance.compiled(scale)
    layout = _layout_for(instance, machine.page_size)
    for nest_name, overrides in instance.invocations:
        env = dict(instance.env)
        env.update(overrides)
        kwargs = dict(
            rng_seed=instance.rng_seed,
            emit_prefetch=hints,
            emit_release=hints,
        )
        batched = list(
            nest_ops(compiled.nests[nest_name], env, layout, machine, **kwargs)
        )
        unbatched = list(
            nest_ops(
                compiled.nests[nest_name],
                env,
                layout,
                machine,
                batch=False,
                **kwargs,
            )
        )
        assert all(op[0] != "T" for op in unbatched)
        assert list(expand_ops(batched)) == unbatched


def test_hint_free_unit_stride_actually_batches():
    """Guard against the fast path silently never firing.

    EMBAR's nests walk one array at unit stride with no second reference,
    which is exactly the shape the 'T' fast path targets.
    """
    scale = tiny()
    instance = BENCHMARKS["EMBAR"].build(scale)
    compiled = instance.compiled(scale)
    layout = _layout_for(instance, scale.machine.page_size)
    nest_name, overrides = instance.invocations[0]
    env = dict(instance.env)
    env.update(overrides)
    ops = nest_ops(
        compiled.nests[nest_name],
        env,
        layout,
        scale.machine,
        rng_seed=instance.rng_seed,
        emit_prefetch=False,
        emit_release=False,
    )
    assert any(op[0] == "T" for op in ops)


#: Disk latency spikes move paging timing, and with it the points where a
#: quantum flush or a fault interrupts a run-length touch.
_LATENCY_SPIKES = {
    "seed": 7,
    "disk": {"latency_spike_prob": 0.2, "latency_spike_multiplier": 4.0},
}

_BATCHING_CASES = [
    (workload, version, None)
    for workload in ("EMBAR", "MATVEC", "BUK")
    for version in "OB"
] + [("EMBAR", "O", _LATENCY_SPIKES)]


@pytest.mark.parametrize(
    "workload, version, faults",
    _BATCHING_CASES,
    ids=[
        f"{version}-{workload}" + ("-latency-spikes" if faults else "")
        for workload, version, faults in _BATCHING_CASES
    ],
)
def test_experiment_metrics_identical_without_batching(
    monkeypatch, workload, version, faults
):
    """Simulated results are byte-identical with the fast path disabled.

    EMBAR exercises the batched unit-stride ('T') path, BUK the
    indirect-reference path (chunk sampling and its cache), MATVEC the
    multi-reference affine loop.  Version O runs hint-free (maximally
    batchable), B with the full hint machinery.  EMBAR O also runs under
    a latency-spike fault plan, which has no frozen digest, so batched
    and unbatched are compared against each other.
    """
    spec = multiprogram_spec(tiny(), workload, version)
    if faults is not None:
        spec = spec.with_faults(FaultPlan.from_dict(faults))
    golden = serialize_result(run_experiment(spec))

    import repro.workloads.base as wbase

    monkeypatch.setattr(
        wbase, "nest_ops", functools.partial(nest_ops, batch=False)
    )
    unbatched = serialize_result(run_experiment(spec))
    assert golden == unbatched


def test_standard_mix_is_deterministic_and_parallel_safe():
    specs = [multiprogram_spec(tiny(), "MATVEC", v) for v in "OPRB"]
    first = [serialize_result(run_experiment(spec)) for spec in specs]
    second = [serialize_result(run_experiment(spec)) for spec in specs]
    assert first == second

    parallel = run_specs(specs, jobs=2)
    assert [serialize_result(result) for result in parallel] == first
