"""Mini-NetSolve: a GridRPC middleware with a pluggable communicator.

Reproduces the paper's section 6.2 integration: the only difference
between "NetSolve" and "NetSolve + AdOC" is whether client connections
are wrapped in :class:`PlainCommunicator` or :class:`AdocCommunicator`,
and whether the :class:`ReactorRpcServer` runs in ``"plain"`` or
``"adoc"`` mode.
"""

from .._lazy import lazy_exports
from .communicator import AdocCommunicator, Communicator, PlainCommunicator
from .protocol import (
    ConnectionLost,
    MsgType,
    RpcError,
    RpcMessage,
    read_message,
    write_message,
)
from .server import ReactorRpcServer, ServerStats
from .services import ServiceRegistry, default_registry

# The client side: a server process never loads it.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "Agent": "agent",
        "Registration": "agent",
        "CallResult": "client",
        "Client": "client",
    },
)

__all__ = [
    "Agent",
    "Registration",
    "Client",
    "CallResult",
    "ReactorRpcServer",
    "ServerStats",
    "Communicator",
    "PlainCommunicator",
    "AdocCommunicator",
    "ServiceRegistry",
    "default_registry",
    "RpcMessage",
    "RpcError",
    "ConnectionLost",
    "MsgType",
    "read_message",
    "write_message",
]
