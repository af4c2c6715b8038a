"""Remote census: whole graphs on worker daemons, roots in batches.

The paper parallelises its census by start node, every thread reading
the same edge list; the remote census does the same across processes.
``repro worker`` runs a :class:`~repro.dist.worker.CensusWorker` daemon
on a :mod:`repro.net` endpoint that holds whole graphs keyed by
fingerprint (shipped once, or preloaded with ``--graph``), and
:class:`~repro.dist.remote.RemoteExecutor` sends it the heaviest-first
root chunks of ``SubgraphFeatureExtractor.census_many`` (per-request
timeouts, heartbeats, dead-worker reassignment).  See
``docs/distributed_census.md``.
"""

from repro.dist.remote import RemoteExecutor
from repro.dist.worker import CensusWorker

__all__ = ["CensusWorker", "RemoteExecutor"]
