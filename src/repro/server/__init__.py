"""``repro.server`` — the asyncio serving runtime over the hub.

Layers (stdlib-only):

* :mod:`repro.server.protocol` — the versioned NDJSON wire protocol;
* :mod:`repro.server.core` — :class:`ServerCore`: the hub-owning,
  transport-agnostic request handler (auth, per-client rate limits,
  subscription pumps, graceful drain);
* :mod:`repro.server.tcp` / :mod:`repro.server.ws` — the two framings
  over one shared connection driver;
* :mod:`repro.server.http` — ``GET /metrics`` + ``GET /healthz``;
* :mod:`repro.server.runner` — signal handling and the serve loop;
* :mod:`repro.server.client` — the asyncio client the CLI subcommand,
  tests, and the load harness share.
"""

from repro.server.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    encode_frame,
)
from repro.server.core import (
    AuthError,
    Connection,
    ServerBusy,
    ServerConfig,
    ServerCore,
)
from repro.server.http import HTTPServer
from repro.server.tcp import TCPServer
from repro.server.ws import WSServer
from repro.server.runner import ServeRuntime, run_server
from repro.server.client import ServerClient, ServerError

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "encode_frame",
    "decode_frame",
    "AuthError",
    "Connection",
    "ServerBusy",
    "ServerConfig",
    "ServerCore",
    "HTTPServer",
    "TCPServer",
    "WSServer",
    "ServeRuntime",
    "run_server",
    "ServerClient",
    "ServerError",
]
