"""Fleet telemetry: push-mode exposition + cross-process aggregation.

One process's :class:`~repro.obs.metrics.MetricsRegistry` only sees one
process.  A fleet of adaptive pipelines — real transfer daemons, or
thousands of simulated flows — needs a Pushgateway-style rendezvous:

* **push client** — :func:`push_once` / :class:`MetricsPusher` serialize
  the local registry snapshot (plus process identity: job, instance,
  pid, hostname) and push it over a small length-prefixed frame
  protocol;
* **aggregator** — :func:`serve_fleet` hosts a :class:`FleetAggregator`
  on the shared :mod:`repro.serve` reactor (a fourth service beside
  middleware/gridftp/depot): it ingests pushes, keys series by
  ``(job, instance)``, expires instances that stop pushing, and
  re-exposes the merged view as Prometheus text or JSON over the same
  socket — what ``adoc top --fleet HOST:PORT`` renders.

Wire format (big-endian), one frame per push/query/reply::

    magic    2   b"FP"
    version  1   FLEET_WIRE_VERSION
    type     1   PUSH / QUERY / REPLY
    length   4   JSON payload bytes
    payload      UTF-8 JSON

A PUSH payload is ``{"meta": {...}, "metrics": registry.to_json()}``;
a QUERY is ``{"format": "json" | "prom"}``; the REPLY carries the
merged exposition.  JSON keeps the protocol debuggable with ``nc`` and
versionable without a schema compiler; the u32 length bound keeps a
hostile frame from ballooning aggregator memory.

Staleness: an instance that has not pushed within ``ttl_s`` is dropped
from the merged view (and counted in ``adoc_fleet_expired_total``) —
a crashed pusher disappears instead of freezing its last numbers into
the dashboard forever.  See docs/OBSERVABILITY.md ("Fleet mode").
"""

from __future__ import annotations

import json
import logging
import os
import socket
import struct
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from ..analysis.lockgraph import make_lock
from .metrics import MetricsRegistry, expose_snapshot, merge_snapshots

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.config import AdocConfig
    from .telemetry import Telemetry

__all__ = [
    "FLEET_WIRE_VERSION",
    "DEFAULT_FLEET_PORT",
    "PUSH",
    "QUERY",
    "REPLY",
    "FleetProtocolError",
    "encode_frame",
    "FrameAssembler",
    "instance_name",
    "push_once",
    "push_many",
    "fetch_fleet",
    "MetricsPusher",
    "FleetStore",
    "FleetAggregator",
    "serve_fleet",
    "summarize_snapshot",
]

_log = logging.getLogger("repro.obs.fleet")

_FMAGIC = b"FP"
FLEET_WIRE_VERSION = 1

#: Default aggregator port (the Prometheus Pushgateway-adjacent range).
DEFAULT_FLEET_PORT = 9464

# Frame types.
PUSH = 1
QUERY = 2
REPLY = 3

#: magic, version, type, payload length.
_FRAME = struct.Struct(">2sBBI")

#: One frame's JSON payload is capped well below anything a registry
#: snapshot produces; a corrupt length prefix fails fast instead of
#: buffering gigabytes on the loop thread.
_MAX_FRAME_BYTES = 64 * 1024 * 1024


class FleetProtocolError(Exception):
    """Malformed or unexpected fleet-protocol traffic."""


def encode_frame(ftype: int, payload: dict) -> bytes:
    """One wire frame: header + compact-JSON payload."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    if len(body) > _MAX_FRAME_BYTES:
        raise FleetProtocolError(
            f"frame payload of {len(body)} bytes exceeds the "
            f"{_MAX_FRAME_BYTES}-byte bound"
        )
    return _FRAME.pack(_FMAGIC, FLEET_WIRE_VERSION, ftype, len(body)) + body


class FrameAssembler:
    """Incremental push-mode parser for fleet frames (reactor side).

    The aggregator's channel pushes whatever bytes arrived;
    ``on_frame(ftype, payload)`` fires for every complete frame — zero,
    one, or several per :meth:`feed`.  Never blocks (ADOC115: it runs
    on the loop thread).
    """

    def __init__(
        self,
        on_frame: Callable[[int, dict], None],
        max_frame_bytes: int = _MAX_FRAME_BYTES,
    ) -> None:
        self.on_frame = on_frame
        self.max_frame_bytes = max_frame_bytes
        self._buf = bytearray()
        self._need: int | None = None  # payload bytes outstanding
        self._ftype = 0
        self.frames = 0

    def feed(self, data: bytes) -> None:
        self._buf += data
        while True:
            if self._need is None:
                if len(self._buf) < _FRAME.size:
                    return
                magic, version, ftype, length = _FRAME.unpack(
                    bytes(self._buf[: _FRAME.size])
                )
                if magic != _FMAGIC:
                    raise FleetProtocolError(f"bad fleet magic {magic!r}")
                if version != FLEET_WIRE_VERSION:
                    raise FleetProtocolError(
                        f"unsupported fleet wire version {version}"
                    )
                if length > self.max_frame_bytes:
                    raise FleetProtocolError(
                        f"frame of {length} bytes exceeds the "
                        f"{self.max_frame_bytes}-byte bound"
                    )
                del self._buf[: _FRAME.size]
                self._need = length
                self._ftype = ftype
            if len(self._buf) < self._need:
                return
            raw = bytes(self._buf[: self._need])
            del self._buf[: self._need]
            self._need = None
            try:
                payload = json.loads(raw)
            except ValueError as exc:
                raise FleetProtocolError(f"frame payload is not JSON: {exc}")
            if not isinstance(payload, dict):
                raise FleetProtocolError("frame payload must be a JSON object")
            self.frames += 1
            self.on_frame(self._ftype, payload)


# -- push client -------------------------------------------------------------


def instance_name() -> str:
    """Default instance identity: ``hostname:pid``."""
    return f"{socket.gethostname()}:{os.getpid()}"


def _meta(job: str, instance: str | None) -> dict:
    return {
        "job": job,
        "instance": instance if instance is not None else instance_name(),
        "pid": os.getpid(),
        "hostname": socket.gethostname(),
    }


def _snapshot_of(registry) -> dict:
    """Accept a registry, a Telemetry handle, or a ready-made snapshot."""
    metrics = getattr(registry, "metrics", None)
    if isinstance(metrics, MetricsRegistry):  # a Telemetry handle
        sync = getattr(registry, "sync_trace_metrics", None)
        if sync is not None:
            sync()
        return metrics.to_json()
    if isinstance(registry, MetricsRegistry):
        return registry.to_json()
    return dict(registry)


def push_once(
    address: tuple[str, int],
    registry,
    job: str = "adoc",
    instance: str | None = None,
    timeout: float = 5.0,
) -> None:
    """One-shot push of a registry snapshot to an aggregator.

    ``registry`` may be a :class:`~repro.obs.metrics.MetricsRegistry`,
    a :class:`~repro.obs.telemetry.Telemetry` handle (its tracer-ring
    counters are synced first), or an already-built snapshot dict.
    """
    frame = encode_frame(
        PUSH, {"meta": _meta(job, instance), "metrics": _snapshot_of(registry)}
    )
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(frame)


def push_many(
    address: tuple[str, int],
    snapshots: Iterable[tuple[str, dict]],
    job: str = "adoc",
    timeout: float = 5.0,
) -> int:
    """Push many ``(instance, snapshot)`` pairs over one connection.

    The simulator uses this: a thousand simulated flows become a
    thousand PUSH frames on a single socket instead of a thousand
    connects.  Returns the number of frames pushed.
    """
    pushed = 0
    with socket.create_connection(address, timeout=timeout) as sock:
        for instance, snapshot in snapshots:
            sock.sendall(
                encode_frame(
                    PUSH,
                    {"meta": _meta(job, instance), "metrics": dict(snapshot)},
                )
            )
            pushed += 1
    return pushed


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise FleetProtocolError("connection closed mid-frame")
        buf += chunk
    return bytes(buf)


def _read_reply(sock: socket.socket) -> dict:
    magic, version, ftype, length = _FRAME.unpack(_recv_exact(sock, _FRAME.size))
    if magic != _FMAGIC:
        raise FleetProtocolError(f"bad fleet magic {magic!r}")
    if version != FLEET_WIRE_VERSION:
        raise FleetProtocolError(f"unsupported fleet wire version {version}")
    if ftype != REPLY:
        raise FleetProtocolError(f"expected a REPLY frame, got type {ftype}")
    if length > _MAX_FRAME_BYTES:
        raise FleetProtocolError(
            f"reply of {length} bytes exceeds the {_MAX_FRAME_BYTES}-byte bound"
        )
    payload = json.loads(_recv_exact(sock, length))
    if not isinstance(payload, dict):
        raise FleetProtocolError("reply payload must be a JSON object")
    return payload


def fetch_fleet(
    address: tuple[str, int],
    fmt: str = "json",
    timeout: float = 5.0,
) -> dict:
    """Query an aggregator for its merged view.

    ``fmt="json"`` returns ``{"instances": [...], "metrics": {...}}``
    (per-instance identity + summary rows plus the merged snapshot);
    ``fmt="prom"`` returns ``{"text": "<prometheus exposition>"}``.
    """
    if fmt not in ("json", "prom"):
        raise ValueError(f"fmt must be 'json' or 'prom', not {fmt!r}")
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.settimeout(timeout)
        sock.sendall(encode_frame(QUERY, {"format": fmt}))
        return _read_reply(sock)


class MetricsPusher:
    """Background thread pushing the local registry every ``interval_s``.

    The fleet analog of a Prometheus Pushgateway client: wire it to the
    process's :class:`~repro.obs.telemetry.Telemetry` (or a bare
    registry) and every live process shows up in ``adoc top --fleet``.
    Push failures are recorded (``errors`` / ``last_error``) and
    retried on the next tick — a briefly-absent aggregator costs
    nothing but staleness.  ``close()`` joins the thread (bounded) and
    sends one final snapshot so short-lived processes are visible.
    """

    def __init__(
        self,
        address: tuple[str, int],
        registry,
        job: str = "adoc",
        instance: str | None = None,
        interval_s: float = 2.0,
        timeout: float = 5.0,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("push interval must be positive")
        self.address = address
        self.registry = registry
        self.job = job
        self.instance = instance if instance is not None else instance_name()
        self.interval_s = interval_s
        self.timeout = timeout
        self._lock = make_lock("MetricsPusher.lock")
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="fleet-pusher", daemon=True
        )
        self.pushes = 0
        self.errors = 0
        self.last_error: BaseException | None = None

    def start(self) -> "MetricsPusher":
        self._thread.start()
        return self

    def push_now(self) -> None:
        """One push, synchronously (raises on failure)."""
        push_once(
            self.address,
            self.registry,
            job=self.job,
            instance=self.instance,
            timeout=self.timeout,
        )
        with self._lock:
            self.pushes += 1

    def _push_guarded(self) -> None:
        try:
            self.push_now()
        except Exception as exc:  # noqa: BLE001 - recorded, retried next tick
            with self._lock:
                self.errors += 1
                self.last_error = exc
            _log.warning(
                "fleet push to %s failed: %s", self.address, exc
            )

    def _run(self) -> None:
        while not self._stop.is_set():
            self._push_guarded()
            self._stop.wait(self.interval_s)

    def close(self, join_timeout: float = 5.0) -> None:
        """Stop pushing; bounded join, then one final snapshot."""
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(join_timeout)
        self._push_guarded()


# -- aggregator --------------------------------------------------------------


@dataclass
class _Instance:
    """One pushing process as the aggregator last saw it."""

    meta: dict
    metrics: dict
    last_seen: float
    pushes: int = 0


#: Counters/gauges surfaced as per-instance summary rows by
#: ``adoc top --fleet`` — summed across a metric's series.
_SUMMARY_TOTALS = {
    "wire_bytes": "adoc_wire_bytes_total",
    "payload_bytes": "adoc_payload_bytes_total",
    "retries": "adoc_retries_total",
    "degraded": "adoc_degraded_streams_total",
    "level_decisions": "adoc_level_decisions_total",
}


def _metric_sum(snapshot: dict, name: str) -> float:
    info = snapshot.get(name)
    if not info:
        return 0.0
    return float(
        sum(e.get("value", 0.0) for e in info.get("series", ()) if "value" in e)
    )


def summarize_snapshot(snapshot: dict) -> dict:
    """The per-instance glance row: level, queue, bytes, retries, degrades."""
    out = {key: _metric_sum(snapshot, name) for key, name in _SUMMARY_TOTALS.items()}
    out["level"] = _metric_sum(snapshot, "adoc_compression_level")
    out["queue"] = _metric_sum(snapshot, "adoc_queue_depth")
    return out


class FleetStore:
    """``(job, instance)`` -> latest snapshot, with staleness expiry.

    Pure bookkeeping behind one :func:`~repro.analysis.lockgraph.make_lock`
    lock; every method is non-blocking, so the aggregator may call it
    from the reactor loop thread (ADOC115).
    """

    def __init__(
        self,
        ttl_s: float = 15.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if ttl_s <= 0:
            raise ValueError("instance TTL must be positive")
        self.ttl_s = ttl_s
        self.clock = clock
        self._lock = make_lock("FleetStore.lock")
        self._instances: dict[tuple[str, str], _Instance] = {}
        self.pushes = 0
        self.expired = 0

    def update(self, meta: dict, metrics: dict) -> tuple[str, str]:
        """Ingest one push; returns the ``(job, instance)`` key."""
        key = (
            str(meta.get("job", "unknown")),
            str(meta.get("instance", "unknown")),
        )
        now = self.clock()
        with self._lock:
            inst = self._instances.get(key)
            if inst is None:
                inst = _Instance(meta=dict(meta), metrics=metrics, last_seen=now)
                self._instances[key] = inst
            else:
                inst.meta = dict(meta)
                inst.metrics = metrics
                inst.last_seen = now
            inst.pushes += 1
            self.pushes += 1
        return key

    def expire(self, now: float | None = None) -> list[tuple[str, str]]:
        """Drop instances silent for longer than ``ttl_s``; returns them."""
        now = self.clock() if now is None else now
        with self._lock:
            dead = [
                key
                for key, inst in self._instances.items()
                if now - inst.last_seen > self.ttl_s
            ]
            for key in dead:
                del self._instances[key]
            self.expired += len(dead)
        return dead

    @property
    def instance_count(self) -> int:
        with self._lock:
            return len(self._instances)

    def _items(self) -> list[tuple[tuple[str, str], _Instance]]:
        with self._lock:
            return sorted(
                (key, _Instance(inst.meta, inst.metrics, inst.last_seen, inst.pushes))
                for key, inst in self._instances.items()
            )

    def merged(self) -> dict:
        """One snapshot for the whole fleet, job/instance labels stamped."""
        return merge_snapshots(
            [
                ({"job": job, "instance": instance}, inst.metrics)
                for (job, instance), inst in self._items()
            ]
        )

    def expose(self) -> str:
        """Merged Prometheus text exposition."""
        return expose_snapshot(self.merged())

    def to_json(self) -> dict:
        """Per-instance identity + summary rows plus the merged snapshot."""
        now = self.clock()
        instances = [
            {
                "job": job,
                "instance": instance,
                "pid": inst.meta.get("pid"),
                "hostname": inst.meta.get("hostname"),
                "age_s": round(max(now - inst.last_seen, 0.0), 3),
                "pushes": inst.pushes,
                "summary": summarize_snapshot(inst.metrics),
            }
            for (job, instance), inst in self._items()
        ]
        return {
            "ttl_s": self.ttl_s,
            "instances": instances,
            "metrics": self.merged(),
        }


class _FleetConnection:
    """One pushing/querying peer on the aggregator (loop thread only)."""

    def __init__(self, aggregator: "FleetAggregator", channel) -> None:
        self.aggregator = aggregator
        self.channel = channel
        self.assembler = FrameAssembler(self._on_frame)

    def feed(self, data: bytes) -> None:
        try:
            self.assembler.feed(data)
        except FleetProtocolError as exc:
            # Framing is no longer trustworthy: drop the connection, the
            # same policy the RPC assembler applies to bad magic.
            self.channel.close(exc)

    def _on_frame(self, ftype: int, payload: dict) -> None:
        if ftype == PUSH:
            self.aggregator.ingest(payload)
        elif ftype == QUERY:
            reply = self.aggregator.answer(payload)
            self.channel.send_message(encode_frame(REPLY, reply))
        else:
            raise FleetProtocolError(f"unexpected frame type {ftype}")


class FleetAggregator:
    """The aggregation service, hosted on a :class:`~repro.serve.ReactorServer`.

    Peers of :class:`~repro.middleware.server.ReactorRpcServer` /
    :class:`~repro.gridftp.server.FileServer` / ``serve_depot``: one
    reactor thread, plain channels (the frame protocol carries its own
    lengths), and an expiry sweep on the reactor's timer wheel every
    ``ttl_s / 2`` so a silent instance disappears within 1.5 TTLs of
    its last push.
    """

    def __init__(
        self,
        ttl_s: float = 15.0,
        config: "AdocConfig | None" = None,
        telemetry: "Telemetry | None" = None,
        reactor=None,
        pool=None,
        workers: int | None = None,
    ) -> None:
        from ..core.config import DEFAULT_CONFIG
        from ..serve.server import ReactorServer

        self.store = FleetStore(ttl_s=ttl_s)
        self._server = ReactorServer(
            name="fleet",
            config=config if config is not None else DEFAULT_CONFIG,
            telemetry=telemetry,
            reactor=reactor,
            pool=pool,
            workers=workers,
        )
        self._tele = self._server.telemetry
        self._timer = None
        self._closed = False
        self._server.reactor.call_soon_threadsafe(self._sweep)

    # -- wiring -------------------------------------------------------------

    @property
    def reactor(self):
        return self._server.reactor

    def listen(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Bind and serve; returns the bound ``(host, port)``."""
        return self._server.listen(host, port, self._make_channel)

    @property
    def addresses(self) -> list[tuple[str, int]]:
        return self._server.addresses

    def _make_channel(self, endpoint, addr):
        from ..serve.channel import PlainChannel

        channel = PlainChannel(
            self._server.reactor, endpoint, self._server.config, self._tele
        )
        conn = _FleetConnection(self, channel)
        channel.on_data = conn.feed
        return channel

    # -- frame handling (loop thread; must never block) ---------------------

    def ingest(self, payload: dict) -> None:
        meta = payload.get("meta", {})
        metrics = payload.get("metrics", {})
        if not isinstance(meta, dict) or not isinstance(metrics, dict):
            raise FleetProtocolError("PUSH payload needs meta/metrics objects")
        job, _ = self.store.update(meta, metrics)
        if self._tele.enabled:
            self._tele.metrics.counter(
                "adoc_fleet_pushes_total",
                "metric snapshots ingested by the aggregator",
                ("job",),
            ).inc(job=job)
            self._note_instances()

    def answer(self, payload: dict) -> dict:
        self.store.expire()  # queries always see a fresh staleness cut
        fmt = payload.get("format", "json")
        if fmt == "prom":
            return {"format": "prom", "text": self.store.expose()}
        return {"format": "json", **self.store.to_json()}

    def _sweep(self) -> None:
        """Periodic staleness sweep on the reactor's timer wheel."""
        if self._closed:
            return
        dead = self.store.expire()
        if dead:
            _log.info("fleet aggregator expired %d instance(s)", len(dead))
            if self._tele.enabled:
                self._tele.metrics.counter(
                    "adoc_fleet_expired_total",
                    "instances dropped after going silent past the TTL",
                ).inc(len(dead))
                self._note_instances()
        self._timer = self._server.reactor.call_later(
            max(self.store.ttl_s / 2.0, 0.05), self._sweep
        )

    def _note_instances(self) -> None:
        self._tele.metrics.gauge(
            "adoc_fleet_instances",
            "instances currently in the merged fleet view",
        ).set(self.store.instance_count)

    # -- teardown -----------------------------------------------------------

    def close(self, join_timeout: float = 10.0) -> None:
        """Stop the sweep timer and tear the server down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        cancelled = threading.Event()

        def cancel_timer() -> None:
            # TimerHandle.cancel is loop-thread-only; _closed stops a
            # sweep that already fired from re-arming.
            if self._timer is not None:
                self._timer.cancel()
            cancelled.set()

        self._server.reactor.call_soon_threadsafe(cancel_timer)
        cancelled.wait(join_timeout)
        self._server.close(join_timeout)


def serve_fleet(
    host: str = "127.0.0.1",
    port: int = 0,
    ttl_s: float = 15.0,
    config: "AdocConfig | None" = None,
    telemetry: "Telemetry | None" = None,
    **server_kwargs,
) -> tuple[FleetAggregator, tuple[str, int]]:
    """Start a fleet aggregator; returns ``(aggregator, address)``.

    The fourth reactor service: point any number of
    :class:`MetricsPusher` clients (or ``adoc top --fleet``) at the
    returned address.  Close with ``aggregator.close()``.
    """
    aggregator = FleetAggregator(
        ttl_s=ttl_s, config=config, telemetry=telemetry, **server_kwargs
    )
    try:
        address = aggregator.listen(host, port)
    except BaseException:
        aggregator.close()
        raise
    return aggregator, address
