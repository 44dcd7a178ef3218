"""Simulation-as-a-service: the async sweep server.

The batch CLI answers one question per invocation; this package keeps a
simulator resident and serves many small questions cheaply -- the
FBench-style what-if consumption pattern that the memoized result
cache serves.  ``repro serve`` starts an
asyncio HTTP/JSON daemon; clients submit simulate/sweep jobs, poll or
stream their progress as server-sent events, and fetch results that are
**bit-identical** (same point keys, same digests) to what the CLI
produces for the same inputs.

Modules
-------
* :mod:`repro.serve.protocol` -- minimal HTTP/1.1 + SSE framing over
  asyncio streams (the container ships no third-party web framework,
  and the API surface is small enough not to want one);
* :mod:`repro.serve.queue` -- bounded priority job queue with admission
  control (a full queue rejects with 429 instead of buffering without
  bound);
* :mod:`repro.serve.jobs` -- job model (JSON body -> sweep points,
  through the CLI's own spec parser) and result payload serialization;
* :mod:`repro.serve.app` -- the server: routing, worker pool, SSE
  bridging of the obs event stream, graceful shutdown;
* :mod:`repro.serve.client` -- blocking stdlib client helper used by
  tests, the CI smoke job and scripts.
"""

from repro.serve.app import ServeConfig, ServerThread, SweepServer, run_server
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.jobs import JobState
from repro.serve.queue import QueueFull

__all__ = [
    "JobState",
    "QueueFull",
    "ServeClient",
    "ServeClientError",
    "ServeConfig",
    "ServerThread",
    "SweepServer",
    "run_server",
]
