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

from repro.service.jobs import (
    JobChaos,
    JobError,
    JobManager,
    JobRecord,
    run_direct,
)
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import ExperimentServer, serve

__all__ = [
    "ExperimentServer",
    "JobChaos",
    "JobError",
    "JobManager",
    "JobRecord",
    "ServiceClient",
    "ServiceError",
    "run_direct",
    "serve",
]
