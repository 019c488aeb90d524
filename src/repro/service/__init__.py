"""Simulation-as-a-service: the long-running experiment server.

The pieces every earlier PR built — frozen hashable
:class:`~repro.machine.ExperimentSpec`, the content-addressed runner
cache, guarded execution, JSONL journals, the obs bus — compose here into
a shared experiment facility:

- :mod:`repro.service.jobs` — the job manager.  A scenario submission
  compiles to specs and becomes one sweep checkpoint, run by
  :func:`~repro.experiments.sweep.run_sweep` on the shared warm pool, so
  a restarted server resumes in-flight work instead of redoing or losing
  it.  The manager adds only the job index, cross-job dedupe through the
  shared result store (one execution per spec content, no matter how many
  submitters) and the per-job event stream.

- :mod:`repro.service.server` — the stdlib HTTP surface
  (``repro serve``): submit jobs, stream JSONL progress events, fetch
  results / serialized text / traces / rendered tables.

- :mod:`repro.service.client` — the urllib client the ``repro
  submit|jobs|watch|fetch`` commands speak, so scripts and the service
  share one code path.

No dependency beyond the standard library.
"""

from repro._lazy import lazy_exports

# Loaded on first use (see repro._lazy): ``repro.service.client`` is standard
# library only, and importing it must not load the server's simulator stack.
__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.service.jobs": ("JobChaos", "JobError", "JobManager", "JobRecord", "run_direct"),
        "repro.service.client": ("ServiceClient", "ServiceError"),
        "repro.service.server": ("ExperimentServer", "serve"),
    },
)
