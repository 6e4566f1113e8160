"""The agent: service discovery and server selection.

In NetSolve, servers register with an agent; clients ask the agent for
the best server for a request and then speak to that server directly
(section 6.2: "a set of servers that register to an agent...").  The
agent here is the in-process control plane: registration carries a
*transport factory* that can mint a fresh connection to the server —
over loopback pipes, real sockets or a shaped link — so the data plane
(which is what the experiments measure) goes over whatever network the
experiment configures, exactly like the paper's agent/server on one end
and client on the other.

Selection is least-busy-then-round-robin over the servers offering the
service, a simplified version of NetSolve's load-aware choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..analysis.lockgraph import make_lock
from ..transport.base import Endpoint
from .server import ReactorRpcServer

__all__ = ["Agent", "Registration"]

#: Returns a connected (client_end, server_end) pair on the experiment's
#: network.
TransportFactory = Callable[[], tuple[Endpoint, Endpoint]]


@dataclass
class Registration:
    server: ReactorRpcServer
    factory: TransportFactory


class Agent:
    """Registry of servers; picks one and opens the data connection."""

    def __init__(self) -> None:
        self._registrations: list[Registration] = []
        self._rr = 0
        self._lock = make_lock("Agent.lock")

    def register(self, server: ReactorRpcServer, factory: TransportFactory) -> None:
        """A server announces itself (NetSolve server start-up)."""
        with self._lock:
            self._registrations.append(Registration(server, factory))

    def servers_for(self, service: str) -> list[ReactorRpcServer]:
        with self._lock:
            return [r.server for r in self._registrations if service in r.server.registry]

    def connect(self, service: str) -> Endpoint:
        """Pick the best server for ``service`` and return a connected
        client endpoint (the server side starts serving immediately).

        Raises ``LookupError`` when nothing offers the service.
        """
        with self._lock:
            candidates = [
                r for r in self._registrations if service in r.server.registry
            ]
            if not candidates:
                raise LookupError(f"no server offers {service!r}")
            # Least busy first; round-robin among ties.
            min_busy = min(r.server.stats.busy for r in candidates)
            tied = [r for r in candidates if r.server.stats.busy == min_busy]
            chosen = tied[self._rr % len(tied)]
            self._rr += 1
        client_end, server_end = chosen.factory()
        chosen.server.serve(server_end)
        return client_end
