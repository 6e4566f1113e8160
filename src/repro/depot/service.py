"""Depot over the wire: IBP-flavoured operations on the GridRPC stack.

Exposes a :class:`~repro.depot.storage.ByteArrayDepot` through the same
RPC layer as the NetSolve middleware — so the plain-vs-AdOC communicator
seam applies to storage traffic too, reproducing the paper's IBP
integration (data movers whose reads/writes became
``adoc_read``/``adoc_write``).

Operations (service names): ``ibp.allocate``, ``ibp.store``,
``ibp.load``, ``ibp.probe``, ``ibp.free``.  Arguments and results are
byte payloads; big data rides in its own argument so the AdOC
communicator can compress it as one message.
"""

from __future__ import annotations

import struct
from typing import BinaryIO

from ..core.config import AdocConfig, DEFAULT_CONFIG
from ..core.deadlines import RetryPolicy
from ..middleware.agent import Agent
from ..middleware.client import CallResult, Client
from ..middleware.server import ReactorRpcServer
from ..middleware.services import ServiceRegistry
from ..obs.telemetry import active_telemetry
from .storage import ByteArrayDepot, DepotError

__all__ = ["depot_registry", "serve_depot", "DepotClient"]

_U64 = struct.Struct(">Q")


def depot_registry(depot: ByteArrayDepot) -> ServiceRegistry:
    """A service registry exposing ``depot`` (mount it on a ReactorRpcServer)."""
    reg = ServiceRegistry()

    def allocate(args: list[bytes]) -> list[bytes]:
        (cap_bytes,) = args
        alloc = depot.allocate(int.from_bytes(cap_bytes, "big"))
        return [
            alloc.handle.encode(),
            alloc.read_cap.encode(),
            alloc.write_cap.encode(),
        ]

    def store(args: list[bytes]) -> list[bytes]:
        write_cap, offset_raw, data = args
        length = depot.store(write_cap.decode(), data, int.from_bytes(offset_raw, "big"))
        return [_U64.pack(length)]

    def load(args: list[bytes]) -> list[bytes]:
        read_cap, offset_raw, length_raw = args
        offset = int.from_bytes(offset_raw, "big")
        length = int.from_bytes(length_raw, "big") if length_raw else None
        return [depot.load(read_cap.decode(), offset, length)]

    def probe(args: list[bytes]) -> list[bytes]:
        (cap,) = args
        stored, capacity = depot.probe(cap.decode())
        return [_U64.pack(stored), _U64.pack(capacity)]

    def free(args: list[bytes]) -> list[bytes]:
        (write_cap,) = args
        depot.free(write_cap.decode())
        return [b"ok"]

    reg.register("ibp.allocate", allocate)
    reg.register("ibp.store", store)
    reg.register("ibp.load", load)
    reg.register("ibp.probe", probe)
    reg.register("ibp.free", free)
    return reg


def serve_depot(
    depot: ByteArrayDepot,
    host: str = "127.0.0.1",
    port: int = 0,
    mode: str = "plain",
    config: AdocConfig = DEFAULT_CONFIG,
    **server_kwargs,
) -> tuple[ReactorRpcServer, tuple[str, int]]:
    """Serve ``depot`` from a TCP port on the shared reactor core.

    A depot is just a registry on the RPC stack, so reactor-mode depot
    serving is the RPC server with :func:`depot_registry` mounted — one
    loop thread and a bounded codec pool regardless of client count,
    instead of a thread per data mover.  Returns the server and its
    bound address; ``mode="adoc"`` wraps every connection in AdOC.
    """
    server = ReactorRpcServer(
        "depot",
        registry=depot_registry(depot),
        config=config,
        mode=mode,
        **server_kwargs,
    )
    address = server.listen(host, port)
    return server, address


class DepotClient:
    """Typed client for a depot served through an agent.

    Mirrors IBP's client calls: ``allocate`` returns the capability
    pair, ``store``/``load`` move byte ranges, ``probe`` inspects,
    ``free`` releases.  Construct with the same ``communicator_factory``
    choice as any middleware client (plain or AdOC).
    """

    def __init__(
        self,
        agent: Agent,
        communicator_factory=None,
        retry: RetryPolicy | None = None,
    ) -> None:
        kwargs = {}
        if communicator_factory is not None:
            kwargs["communicator_factory"] = communicator_factory
        self._client = Client(agent, retry=retry, **kwargs)

    def allocate(self, capacity: int) -> tuple[str, str, str]:
        """Returns ``(handle, read_cap, write_cap)``."""
        res = self._call("ibp.allocate", [capacity.to_bytes(8, "big")])
        handle, read_cap, write_cap = (a.decode() for a in res.results)
        return handle, read_cap, write_cap

    def store(self, write_cap: str, data: bytes, offset: int = 0) -> int:
        res = self._call(
            "ibp.store", [write_cap.encode(), offset.to_bytes(8, "big"), data]
        )
        return _U64.unpack(res.results[0])[0]

    def store_stream(self, write_cap: str, f: BinaryIO, offset: int = 0) -> int:
        """Store a seekable file object's contents without buffering it.

        The file is streamed through the communicator (one AdOC message
        over the AdOC communicator), so client-side peak memory is
        O(chunk) regardless of file size.
        """
        res = self._call(
            "ibp.store", [write_cap.encode(), offset.to_bytes(8, "big"), f]
        )
        return _U64.unpack(res.results[0])[0]

    def load(self, read_cap: str, offset: int = 0, length: int | None = None) -> bytes:
        length_raw = b"" if length is None else length.to_bytes(8, "big")
        res = self._call(
            "ibp.load", [read_cap.encode(), offset.to_bytes(8, "big"), length_raw]
        )
        return res.results[0]

    def probe(self, cap: str) -> tuple[int, int]:
        res = self._call("ibp.probe", [cap.encode()])
        return _U64.unpack(res.results[0])[0], _U64.unpack(res.results[1])[0]

    def free(self, write_cap: str) -> None:
        self._call("ibp.free", [write_cap.encode()])

    def store_timed(self, write_cap: str, data: bytes, offset: int = 0) -> CallResult:
        """Like :meth:`store` but returns the transfer accounting."""
        return self._call(
            "ibp.store", [write_cap.encode(), offset.to_bytes(8, "big"), data]
        )

    def _call(self, op: str, args: list[bytes]) -> CallResult:
        result = self._client.call_raw(op, args)
        tele = active_telemetry()
        if tele.enabled:
            tele.metrics.counter(
                "adoc_depot_ops_total", "IBP-style depot operations", ("op",)
            ).inc(op=op.removeprefix("ibp."))
        return result
