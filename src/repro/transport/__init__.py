"""Network substrate: endpoints, in-memory pipes, sockets, link shaping.

Everything AdOC talks to implements :class:`repro.transport.Endpoint`.
The paper's four experimental networks are available as
:data:`LAN100`, :data:`GBIT`, :data:`RENATER` and :data:`INTERNET`.
"""

from .._lazy import lazy_exports
from .base import Endpoint, TransportClosed, TransportTimeout, recv_exact, sendall
from .pipes import ByteConduit, PipeEndpoint, pipe_pair
from .profiles import ALL_PROFILES, GBIT, INTERNET, LAN100, RENATER, NetworkProfile
from .shaping import (
    CongestionModel,
    JitterModel,
    LinkScheduler,
    PacedEndpoint,
    TokenBucket,
    shaped_pair,
)
from .socket_transport import SocketEndpoint, socketpair_endpoints, splice, tcp_pair

# Chaos-test fault injection.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "Fault": "faults",
        "FaultyEndpoint": "faults",
        "faulty_pipe_pair": "faults",
    },
)

__all__ = [
    "Endpoint",
    "TransportClosed",
    "TransportTimeout",
    "sendall",
    "recv_exact",
    "Fault",
    "FaultyEndpoint",
    "faulty_pipe_pair",
    "ByteConduit",
    "PipeEndpoint",
    "pipe_pair",
    "SocketEndpoint",
    "socketpair_endpoints",
    "splice",
    "tcp_pair",
    "JitterModel",
    "CongestionModel",
    "LinkScheduler",
    "TokenBucket",
    "PacedEndpoint",
    "shaped_pair",
    "NetworkProfile",
    "LAN100",
    "GBIT",
    "RENATER",
    "INTERNET",
    "ALL_PROFILES",
]
