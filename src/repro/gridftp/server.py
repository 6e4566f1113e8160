"""The mini-gridFTP file server.

One :class:`FileServer` holds an in-memory file store and serves any
number of control connections, each a channel on one shared reactor:
line assembly runs on the loop thread, commands run on the worker pool.
Control connections arrive from a TCP listener (:meth:`FileServer.listen`)
or from the transport factory (:meth:`FileServer.connect`, which may
make in-memory or shaped links).  Data channels are brokered by token:
STOR/RETR replies carry channel tokens; the client redeems each token
for its end of a freshly created endpoint pair (standing in for PASV's
host/port in our in-process world).

The compression option (paper's conclusion: "as in FTP a compression
option is available") is the session's MODE: data channels are wrapped
in AdOC when the session selects ``MODE ADOC``.
"""

from __future__ import annotations

import secrets
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable

from ..analysis.lockgraph import make_lock
from ..core.config import AdocConfig, DEFAULT_CONFIG
from ..obs.telemetry import Telemetry
from ..serve import PlainChannel, PoolClosed, Reactor, ReactorServer, WorkerPool
from ..serve.server import DEFAULT_BACKLOG
from ..transport.base import Endpoint
from .protocol import ProtocolViolation, format_reply, parse_command
from .transfer import DEFAULT_CHUNK, receive_data, send_data

__all__ = ["FileServer", "ChannelBroker"]

TransportFactory = Callable[[], tuple[Endpoint, Endpoint]]

MAX_STRIPES = 16

#: Longest accepted control line (matches the client's reader bound).
MAX_CONTROL_LINE = 4096

#: Seconds between retries when the worker pool is saturated and a
#: control session has commands waiting for a transfer slot.
_POOL_RETRY_S = 0.01


@dataclass
class _SessionState:
    """Per-control-session settings the commands mutate."""

    mode: str = "PLAIN"
    stripes: int = 1


class ChannelBroker:
    """Token -> endpoint rendezvous between server and client."""

    def __init__(self) -> None:
        self._pending: dict[str, Endpoint] = {}
        self._lock = make_lock("ChannelBroker.lock")

    def offer(self, endpoint: Endpoint) -> str:
        token = secrets.token_hex(8)
        with self._lock:
            self._pending[token] = endpoint
        return token

    def redeem(self, token: str) -> Endpoint:
        with self._lock:
            ep = self._pending.pop(token, None)
        if ep is None:
            raise KeyError(f"unknown or already-redeemed channel token {token!r}")
        return ep


class FileServer:
    """In-memory gridFTP-lite server with AdOC-optional data channels.

    Control endpoints of any kind work: socket-backed ones go straight
    to the reactor, others are spliced onto a socketpair (see
    :meth:`~repro.serve.ReactorServer.adopt`).  Data channels may be any
    endpoint the transport factory makes, because transfers run on the
    worker pool with the blocking engine.  ``close()`` walks listeners,
    channels, the loop thread, and the pool workers down through
    :func:`~repro.core.deadlines.reap_threads`.
    """

    def __init__(
        self,
        transport_factory: TransportFactory,
        config: AdocConfig = DEFAULT_CONFIG,
        chunk_size: int = DEFAULT_CHUNK,
        telemetry: Telemetry | None = None,
        reactor: Reactor | None = None,
        pool: WorkerPool | None = None,
        workers: int | None = None,
        max_pending: int = 256,
    ) -> None:
        self.transport_factory = transport_factory
        self.config = config
        self.chunk_size = chunk_size
        self.broker = ChannelBroker()
        self.files: dict[str, bytes] = {}
        self._files_lock = make_lock("FileServer.files_lock")
        self.transfers = 0  # diagnostic counter
        self._server = ReactorServer(
            name="gridftp",
            config=config,
            telemetry=telemetry,
            reactor=reactor,
            pool=pool,
            workers=workers,
            max_pending=max_pending,
        )

    @property
    def reactor(self) -> Reactor:
        return self._server.reactor

    @property
    def pool(self) -> WorkerPool:
        return self._server.pool

    @property
    def connection_count(self) -> int:
        return self._server.connection_count

    # -- connection management ------------------------------------------------

    def connect(self) -> Endpoint:
        """Open a control connection; returns the client's end."""
        client_end, server_end = self.transport_factory()
        self._server.adopt(server_end, self._make_channel)
        return client_end

    def listen(
        self, host: str = "127.0.0.1", port: int = 0, backlog: int = DEFAULT_BACKLOG
    ) -> tuple[str, int]:
        """Serve control connections from a TCP port (socket deployments)."""
        return self._server.listen(host, port, self._make_channel, backlog)

    def _make_channel(self, endpoint, addr) -> PlainChannel:
        channel = PlainChannel(
            self._server.reactor, endpoint, self.config, self._server.telemetry
        )
        session = _ControlSession(self, channel)
        channel.on_data = session.feed
        # Greet once the server has opened the channel (this factory
        # returns before open() runs).
        self._server.reactor.call_soon(session.greet)
        return channel

    def close(self, join_timeout: float = 5.0) -> None:
        """Tear down listeners, control sessions, loop thread, pool workers."""
        self._server.close(join_timeout)

    # -- file store -------------------------------------------------------------

    def put_file(self, name: str, data: bytes) -> None:
        with self._files_lock:
            self.files[name] = data

    def get_file(self, name: str) -> bytes:
        with self._files_lock:
            return self.files[name]

    def _dispatch(self, state: _SessionState, reply, line: bytes) -> bool:
        """Handle one control line; ``False`` ends the session.

        Runs on a pool worker; ``reply(code, text)`` hops the reply to
        the loop thread.
        """
        try:
            verb, args = parse_command(line.decode("utf-8"))
        except (ProtocolViolation, UnicodeDecodeError):
            reply(500, "malformed command")
            return True

        if verb == "QUIT":
            reply(221, "bye")
            return False
        if verb == "MODE":
            if len(args) == 1 and args[0].upper() in ("PLAIN", "ADOC"):
                state.mode = args[0].upper()
                reply(200, f"mode {state.mode}")
            else:
                reply(501, "MODE PLAIN|ADOC")
        elif verb == "STRIPES":
            if len(args) == 1 and args[0].isdigit() and 1 <= int(args[0]) <= MAX_STRIPES:
                state.stripes = int(args[0])
                reply(200, f"stripes {state.stripes}")
            else:
                reply(501, f"STRIPES 1..{MAX_STRIPES}")
        elif verb == "LIST":
            with self._files_lock:
                listing = ",".join(
                    f"{name}:{len(data)}" for name, data in sorted(self.files.items())
                )
            reply(200, listing or "(empty)")
        elif verb == "SIZE":
            if len(args) != 1:
                reply(501, "SIZE name")
                return True
            with self._files_lock:
                data = self.files.get(args[0])
            if data is None:
                reply(550, "no such file")
            else:
                reply(213, str(len(data)))
        elif verb == "STOR":
            self._handle_stor(reply, args, state.mode, state.stripes)
        elif verb == "RETR":
            self._handle_retr(reply, args, state.mode, state.stripes)
        else:
            reply(502, f"unknown command {verb}")
        return True

    def _open_channels(self, n: int) -> tuple[list[str], list[Endpoint]]:
        tokens: list[str] = []
        server_ends: list[Endpoint] = []
        for _ in range(n):
            client_end, server_end = self.transport_factory()
            tokens.append(self.broker.offer(client_end))
            server_ends.append(server_end)
        return tokens, server_ends

    def _handle_stor(self, reply, args, mode: str, stripes: int) -> None:
        if len(args) != 2 or not args[1].isdigit():
            reply(501, "STOR name size")
            return
        name, size = args[0], int(args[1])
        tokens, server_ends = self._open_channels(stripes)
        reply(225, " ".join(tokens))
        try:
            data = receive_data(server_ends, size, mode, self.chunk_size, self.config)
        except Exception as exc:  # noqa: BLE001 - reported on control channel
            reply(451, f"transfer failed: {exc}")
            return
        self.put_file(name, data)
        self.transfers += 1
        reply(226, f"stored {name} ({size} bytes)")

    def _handle_retr(self, reply, args, mode: str, stripes: int) -> None:
        if len(args) != 1:
            reply(501, "RETR name")
            return
        with self._files_lock:
            data = self.files.get(args[0])
        if data is None:
            reply(550, "no such file")
            return
        tokens, server_ends = self._open_channels(stripes)
        reply(225, f"{len(data)} " + " ".join(tokens))
        try:
            send_data(server_ends, data, mode, self.chunk_size, self.config)
        except Exception as exc:  # noqa: BLE001
            reply(451, f"transfer failed: {exc}")
            return
        self.transfers += 1
        reply(226, f"sent {args[0]}")


class _ControlSession:
    """One reactor-served control connection.

    Line assembly runs on the loop thread; each complete command runs
    on the worker pool (STOR/RETR block on their data endpoints), one
    command at a time per session so session state and replies stay in
    command order.  The pool's ``max_pending`` bound is therefore also
    the transfer-concurrency bound — a storm of STORs queues instead of
    spawning threads.
    """

    def __init__(self, server: FileServer, channel: PlainChannel) -> None:
        self.server = server
        self.channel = channel
        self.state = _SessionState()
        self._buf = bytearray()
        self._lines: deque[bytes] = deque()
        self._running = False
        self._retry_armed = False

    def greet(self) -> None:
        self._send(format_reply(220, "gridftp-lite ready"))

    # -- loop thread -------------------------------------------------------

    def feed(self, data: bytes) -> None:
        self._buf += data
        while True:
            cut = self._buf.find(b"\r\n")
            if cut < 0:
                if len(self._buf) > MAX_CONTROL_LINE:
                    self.channel.close(ProtocolViolation("control line too long"))
                return
            self._lines.append(bytes(self._buf[: cut + 2]))
            del self._buf[: cut + 2]
            self._pump()

    def _pump(self) -> None:
        if self._running or not self._lines or self.channel.closed:
            return
        try:
            submitted = self.server.pool.try_submit(
                self._run_command, self._lines[0], on_done=self._command_done
            )
        except PoolClosed:
            self._lines.clear()
            return
        if not submitted:
            self._arm_retry()
            return
        self._lines.popleft()
        self._running = True

    def _arm_retry(self) -> None:
        if self._retry_armed or self.channel.closed:
            return
        self._retry_armed = True
        self.channel.reactor.call_later(_POOL_RETRY_S, self._retry_fire)

    def _retry_fire(self) -> None:
        self._retry_armed = False
        if not self.channel.closed:
            self._pump()

    def _send(self, data: bytes) -> None:
        if not self.channel.closed:
            self.channel.send_message(data)

    def _finish(self, keep_going, error: BaseException | None) -> None:
        self._running = False
        if error is not None:
            self.channel.close(error)
        elif keep_going is False:
            # The farewell reply is already queued ahead of this
            # callback; tiny replies drain opportunistically on enqueue.
            self.channel.close()
        else:
            self._pump()

    # -- pool worker -------------------------------------------------------

    def _run_command(self, line: bytes) -> bool:
        def reply(code: int, text: str) -> None:
            self.channel.reactor.call_soon_threadsafe(
                partial(self._send, format_reply(code, text))
            )

        return self.server._dispatch(self.state, reply, line)

    def _command_done(self, keep_going, error: BaseException | None) -> None:
        self.channel.reactor.call_soon_threadsafe(
            partial(self._finish, keep_going, error)
        )
