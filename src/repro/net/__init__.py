"""`repro.net` — the network serving subsystem.

Everything the in-process :class:`~repro.service.server.ReachabilityService`
can do, reachable over a socket:

* :mod:`repro.net.protocol` — the length-prefixed JSON wire format
  (framing, request/response envelopes, structured error codes);
* :mod:`repro.net.server` — the one serving loop: a blocking
  thread-per-connection frame loop and one dispatcher, shared by
  single-process serving, the writer and the reader workers, with a
  connection budget and graceful drain;
* :mod:`repro.net.client` — a blocking client for scripts, tests and
  load-generator worker processes;
* :mod:`repro.net.loadgen` — the multi-process Zipfian load generator
  behind ``repro loadgen``.

See ``docs/network.md`` for the protocol spec and operational knobs.
"""

from .client import BatchReply, ReachabilityClient
from .protocol import PROTOCOL_VERSION
from .server import BackgroundServer, ReachabilityServer

__all__ = [
    "PROTOCOL_VERSION",
    "BatchReply",
    "ReachabilityClient",
    "ReachabilityServer",
    "BackgroundServer",
]
