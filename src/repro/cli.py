"""Command-line interface: ``python -m repro`` (or the ``adoc`` script).

Subcommands:

``adoc info``
    Show the compression-level table and the built-in network profiles.

``adoc serve --port P --out-dir D``
    Receive files over TCP with AdOC decompression (the data-mover
    receiver; peers with ``adoc send``).

``adoc send --host H --port P FILE...``
    Send files over TCP with adaptive online compression.

``adoc bench EXPERIMENT``
    Regenerate one of the paper's tables/figures and print it
    (``table1``, ``table2``, ``fig3`` .. ``fig9``).

``adoc trace``
    Print a per-buffer adaptation trace for a simulated transfer.
    ``adoc trace merge A.json B.json --out merged.json`` joins
    per-process Chrome-trace exports into one cross-process timeline
    (each input on its own pid, aligned on the shared wall clock).

``adoc check [PATH...]``
    Run the static analyzer over the given files/directories,
    defaulting to the installed ``repro`` package: single-file
    concurrency and wire-protocol rules plus interprocedural
    lock-order, deadline-propagation and thread-lifecycle proofs, with
    SARIF and baseline support.  See ``docs/LINTING.md`` and
    ``docs/ANALYSIS.md``.

``adoc stats``
    Run a traced demo transfer — one blocking pipelined send plus a
    short reactor-mode echo exchange — and print the combined metrics
    (Prometheus text by default, ``--json`` for the JSON export): the
    Figure-2 pipeline counters alongside the serve-layer gauges (loop
    lag, ready-queue depth, pool utilization, connection count).
    ``--trace-out F`` additionally writes a Chrome ``trace_event`` file
    for ``chrome://tracing`` / Perfetto.

``adoc top``
    Live view of the adaptive pipeline: per-connection accounting, the
    level/queue timeline, and the reactor/pool gauges, refreshed every
    ``--interval`` seconds while the demo transfers run.  On an ANSI
    terminal each refresh clears and redraws in place.  ``--once``
    prints a single snapshot, ``--json`` emits machine-readable
    snapshots, and ``--fleet HOST:PORT`` renders the *fleet* view — the
    merged per-instance metrics a fleet aggregator collected from many
    pushing processes.

``adoc fleet``
    Run the fleet aggregator: processes push their metrics snapshots to
    it (``repro.obs.fleet.MetricsPusher``) and ``adoc top --fleet`` /
    ``adoc stats --fleet`` read the merged view back.  See
    ``docs/OBSERVABILITY.md`` ("Fleet mode").

The global ``--log-level`` flag turns on the library's stdlib logging
(``repro`` namespace) at the chosen threshold; see
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import argparse
import logging
import socket
import sys
import time
from pathlib import Path
from typing import Sequence

__all__ = ["main"]


def _cmd_info(args: argparse.Namespace) -> int:
    from .compress import all_levels, level_name
    from .transport import ALL_PROFILES

    print("AdOC compression levels:")
    for lvl in all_levels():
        print(f"  {lvl:>2}  {level_name(lvl)}")
    print("\nNetwork profiles (paper testbeds):")
    for name, p in ALL_PROFILES.items():
        print(
            f"  {name:<9} {p.bandwidth_bps / 1e6:8.1f} Mbit/s, "
            f"RTT {p.rtt_s * 1e3:7.3f} ms"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .core import AdocSocket

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((args.host, args.port))
    listener.listen(1)
    print(f"listening on {args.host}:{listener.getsockname()[1]}", flush=True)
    conn, peer = listener.accept()
    rx = AdocSocket(conn)
    received = 0
    try:
        while args.count is None or received < args.count:
            name_len_raw = rx.read_exact(2)
            if len(name_len_raw) < 2:
                break
            name = rx.read_exact(int.from_bytes(name_len_raw, "big")).decode()
            target = out_dir / Path(name).name
            with target.open("wb") as f:
                n = rx.receive_file(f)
            print(f"received {name}: {n} bytes", flush=True)
            received += 1
    finally:
        rx.close()
        listener.close()
    return 0


def _cmd_send(args: argparse.Namespace) -> int:
    from .core import AdocSocket

    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.connect((args.host, args.port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    tx = AdocSocket(sock)
    status = 0
    try:
        for path in map(Path, args.files):
            if not path.is_file():
                print(f"skipping {path}: not a file", file=sys.stderr)
                status = 1
                continue
            name = path.name.encode()
            tx.write(len(name).to_bytes(2, "big") + name)
            t0 = time.monotonic()
            with path.open("rb") as f:
                size, slen = tx.send_file(f)
            elapsed = time.monotonic() - t0
            print(
                f"sent {path.name}: {size} -> {slen} bytes "
                f"(ratio {size / max(slen, 1):.2f}) in {elapsed:.2f}s"
            )
    finally:
        tx.close()
    return status


_EXPERIMENTS = ("table1", "table2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "all")


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import (
        render_bandwidth_figure,
        render_netsolve_figure,
        render_table1,
        render_table2,
        run_bandwidth_figure,
        run_netsolve_figure,
        run_table1,
        run_table2,
    )

    name = args.experiment
    if name == "all":
        return _bench_all(args)
    if name == "table1":
        print(render_table1(run_table1()))
    elif name == "table2":
        print(render_table2(run_table2()))
    elif name in ("fig3", "fig4", "fig5", "fig6", "fig7"):
        fig = int(name[3])
        titles = {
            3: "Figure 3: Bandwidth on a Fast Ethernet LAN",
            4: "Figure 4: Bandwidth on Renater (average timings)",
            5: "Figure 5: Bandwidth on Renater (best timings)",
            6: "Figure 6: Bandwidth on Internet (Tennessee-France)",
            7: "Figure 7: Bandwidth on a Gbit Ethernet LAN",
        }
        points = run_bandwidth_figure(fig)
        if args.plot:
            from .bench.charts import bandwidth_chart

            print(bandwidth_chart(points, titles[fig]))
        else:
            print(render_bandwidth_figure(points, titles[fig]))
    elif name in ("fig8", "fig9"):
        fig = int(name[3])
        titles = {
            8: "Figure 8: NetSolve dgemm on a 100 Mbit LAN",
            9: "Figure 9: NetSolve dgemm on Internet",
        }
        print(render_netsolve_figure(run_netsolve_figure(fig), titles[fig]))
    else:  # pragma: no cover - argparse restricts choices
        print(f"unknown experiment {name}", file=sys.stderr)
        return 2
    return 0


def _bench_all(args: argparse.Namespace) -> int:
    """Run every experiment and write CSVs (and rendered text) to a
    directory (``--csv-dir``, default ``results/``)."""
    from .bench import (
        run_bandwidth_figure,
        run_netsolve_figure,
        run_table1,
        run_table2,
    )
    from .bench.export import (
        bandwidth_to_csv,
        latency_to_csv,
        netsolve_to_csv,
        table1_to_csv,
    )

    out = Path(args.csv_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "table1.csv").write_text(table1_to_csv(run_table1()))
    print("wrote table1.csv", flush=True)
    (out / "table2.csv").write_text(latency_to_csv(run_table2()))
    print("wrote table2.csv", flush=True)
    for fig in (3, 4, 5, 6, 7):
        (out / f"fig{fig}.csv").write_text(bandwidth_to_csv(run_bandwidth_figure(fig)))
        print(f"wrote fig{fig}.csv", flush=True)
    for fig in (8, 9):
        (out / f"fig{fig}.csv").write_text(netsolve_to_csv(run_netsolve_figure(fig)))
        print(f"wrote fig{fig}.csv", flush=True)
    return 0


def _load_trace(path: Path) -> dict:
    """Load one trace file: Chrome ``trace_event`` JSON, or tracer JSONL
    (replayed through an :class:`~repro.obs.tracer.EventTracer`)."""
    import json

    text = path.read_text()
    try:
        obj = json.loads(text)
    except ValueError:
        obj = None  # multi-line JSONL; replayed below
    if isinstance(obj, dict) and "traceEvents" in obj:
        return obj
    from .obs.tracer import EventTracer

    tracer = EventTracer(clock=lambda: 0.0)
    for line in text.splitlines():
        if not line.strip():
            continue
        event = json.loads(line)
        tracer.record(
            event["kind"],
            event["name"],
            ts=event["ts"],
            dur=event.get("dur", 0.0),
            thread=event.get("thread"),
            **event.get("args", {}),
        )
    return tracer.to_chrome_trace(process_name=path.stem)


def _cmd_trace_merge(args: argparse.Namespace) -> int:
    import json

    from .obs.tracer import merge_chrome_traces

    paths = [Path(f) for f in args.files]
    merged = merge_chrome_traces(
        [_load_trace(p) for p in paths],
        names=[p.stem for p in paths],
        align=not args.no_align,
    )
    Path(args.out).write_text(json.dumps(merged, indent=1) + "\n")
    print(
        f"merged {len(paths)} traces "
        f"({len(merged['traceEvents'])} events) -> {args.out}"
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if getattr(args, "trace_cmd", None) == "merge":
        return _cmd_trace_merge(args)
    from .obs.timeline import render_timeline
    from .simulator import profile_by_name, simulate_adoc_message
    from .transport import ALL_PROFILES

    profile = ALL_PROFILES[args.network]
    data = profile_by_name(args.data)
    result = simulate_adoc_message(
        args.size_mb * 1024 * 1024, data, profile, seed=args.seed
    )
    print(render_timeline(result.decisions, table_rows=None))
    print(
        f"ratio {result.compression_ratio:.2f}, "
        f"time {result.elapsed_s:.2f}s, "
        f"bandwidth {result.app_bandwidth_bps / 1e6:.1f} Mbit/s"
    )
    return 0


def _run_demo_transfer(tele, size_mb: int, data_kind: str, seed: int) -> object:
    """One real pipelined transfer over an in-memory pipe, traced.

    Compression is forced (levels 1..10) so the Figure-2 controller —
    the thing the telemetry exists to show — actually runs; over a
    loopback pipe the bandwidth probe would otherwise pick the raw fast
    path.  Returns the sender-side :class:`~repro.core.stats._Snapshot`
    owner (the :class:`~repro.core.api.AdocSocket`'s stats).
    """
    import threading

    from .core import AdocConfig, AdocSocket
    from .data import data_by_name
    from .transport import pipe_pair

    payload = data_by_name(data_kind, size_mb * 1024 * 1024, seed)
    cfg = AdocConfig(telemetry=tele)
    a, b = pipe_pair()
    tx, rx = AdocSocket(a, cfg), AdocSocket(b, cfg)
    reader = threading.Thread(
        target=lambda: rx.read_exact(len(payload)), name="demo-reader", daemon=True
    )
    reader.start()
    tx.write_levels(payload, 1, 10)
    reader.join()
    stats = tx.stats
    tx.close()
    rx.close()
    return stats


def _run_demo_reactor(tele) -> None:
    """A short reactor-mode echo exchange over a real TCP loopback.

    Fills the serve-layer series in the same registry the blocking demo
    wrote to: ``adoc_reactor_loop_lag_seconds``,
    ``adoc_reactor_ready_queue_depth``, the ``adoc_pool_*`` gauges
    (adoc mode + pool dispatch, so codec work actually crosses the
    worker pool) and ``adoc_server_connections``.
    """
    import socket
    from dataclasses import replace

    from .core import AdocConfig
    from .data import ascii_data
    from .middleware.communicator import AdocCommunicator
    from .middleware.protocol import (
        MsgType,
        RpcMessage,
        read_message,
        write_message,
    )
    from .middleware.server import ReactorRpcServer
    from .transport import SocketEndpoint

    cfg = replace(AdocConfig(), telemetry=tele)
    server = ReactorRpcServer(
        "demo-reactor", config=cfg, mode="adoc", dispatch="pool", telemetry=tele
    )
    address = server.listen()
    payload = ascii_data(512 * 1024, seed=0)
    try:
        sock = socket.create_connection(address, timeout=30.0)
        comm = AdocCommunicator(SocketEndpoint(sock), cfg)
        try:
            for _ in range(4):
                write_message(comm, RpcMessage(MsgType.REQUEST, "echo", [payload]))
                read_message(comm)
        finally:
            comm.close()
    finally:
        server.close()


def _serve_metric_lines(tele) -> list[str]:
    """The serve-layer series, one human-readable line each (for top)."""
    lines: list[str] = []
    for name, info in sorted(tele.metrics.to_json().items()):
        if not name.startswith(
            ("adoc_reactor_", "adoc_pool_", "adoc_server_", "adoc_compress_")
        ):
            continue
        for entry in info["series"]:
            labels = ",".join(
                f"{k}={v}" for k, v in sorted(entry["labels"].items())
            )
            if "value" in entry:
                value = entry["value"]
                shown = f"{value:g}"
            else:  # histogram: mean + sample count say enough for a glance
                shown = f"mean {entry['mean'] * 1000:.3f} ms over {entry['count']}"
            lines.append(f"  {name}{{{labels}}}: {shown}")
    return lines


def _cmd_stats(args: argparse.Namespace) -> int:
    from .obs import Telemetry, set_active_telemetry

    if args.fleet is not None:
        import json

        from .obs.fleet import fetch_fleet

        if args.json:
            print(json.dumps(fetch_fleet(args.fleet), indent=2, sort_keys=True))
        else:
            print(fetch_fleet(args.fleet, fmt="prom")["text"], end="")
        return 0
    tele = Telemetry(enabled=True)
    set_active_telemetry(tele)
    try:
        stats = _run_demo_transfer(tele, args.size_mb, args.data, args.seed)
        _run_demo_reactor(tele)
    finally:
        set_active_telemetry(None)
    tele.sync_trace_metrics()
    if args.trace_out:
        tele.tracer.write_chrome_trace(args.trace_out)
        print(f"wrote Chrome trace to {args.trace_out}", file=sys.stderr)
    if args.json:
        import json

        print(json.dumps(
            {"metrics": tele.metrics.to_json(), "digest": tele.digest()},
            indent=2, sort_keys=True,
        ))
    else:
        print(tele.metrics.expose(), end="")
        print(f"# connection: {stats.summary()}", file=sys.stderr)
    return 0


def _ansi_clear() -> str:
    """Clear-and-home escape when stdout is an ANSI terminal, else ''.

    Redrawing in place (instead of scrolling a banner per refresh)
    makes ``adoc top`` behave like ``top``; piped output keeps the
    plain banner-per-refresh form so logs stay diffable.
    """
    import os

    if sys.stdout.isatty() and os.environ.get("TERM", "") not in ("", "dumb"):
        return "\x1b[2J\x1b[H"
    return ""


def _render_fleet(view: dict) -> str:
    """The fleet table: one row per pushing instance plus a total row."""
    instances = view.get("instances", [])
    if not instances:
        return "(no live instances)"
    header = (
        f"{'instance':<24} {'job':<12} {'lvl':>4} {'queue':>6} "
        f"{'wire MB':>8} {'retry':>6} {'degr':>5} {'push':>5} {'age s':>6}"
    )
    lines = [header]
    for inst in instances:
        s = inst.get("summary", {})
        lines.append(
            f"{inst.get('instance', '?'):<24} {inst.get('job', '?'):<12} "
            f"{s.get('level', 0):>4.0f} {s.get('queue', 0):>6.0f} "
            f"{s.get('wire_bytes', 0) / 1e6:>8.2f} {s.get('retries', 0):>6.0f} "
            f"{s.get('degraded', 0):>5.0f} {inst.get('pushes', 0):>5} "
            f"{inst.get('age_s', 0):>6.1f}"
        )
    n = len(instances)

    def total(key: str) -> float:
        return sum(i.get("summary", {}).get(key, 0) for i in instances)

    lines.append(
        f"{f'TOTAL ({n})':<24} {'':<12} "
        f"{total('level') / n:>4.1f} "
        f"{max(i.get('summary', {}).get('queue', 0) for i in instances):>6.0f} "
        f"{total('wire_bytes') / 1e6:>8.2f} {total('retries'):>6.0f} "
        f"{total('degraded'):>5.0f} "
        f"{sum(i.get('pushes', 0) for i in instances):>5} {'':>6}"
    )
    return "\n".join(lines)


def _cmd_top_fleet(args: argparse.Namespace) -> int:
    import json

    from .obs.fleet import fetch_fleet

    host, port = args.fleet
    iteration = 0
    while True:
        iteration += 1
        view = fetch_fleet(args.fleet)
        if args.json:
            print(json.dumps(view, indent=2, sort_keys=True))
        else:
            clear = _ansi_clear()
            if clear:
                print(clear, end="")
                print(f"== adoc top --fleet {host}:{port} (refresh {iteration}) ==")
            else:
                print(f"\n== adoc top --fleet {host}:{port} (refresh {iteration}) ==")
            print(_render_fleet(view))
        if args.once or (args.iterations and iteration >= args.iterations):
            break
        time.sleep(args.interval)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    if args.fleet is not None:
        return _cmd_top_fleet(args)
    import threading

    from .obs import Telemetry, set_active_telemetry
    from .obs.timeline import extract_timeline, render_timeline

    tele = Telemetry(enabled=True)
    set_active_telemetry(tele)
    done = threading.Event()

    def demo() -> None:
        try:
            for _ in range(max(args.repeat, 1)):
                _run_demo_transfer(tele, args.size_mb, args.data, args.seed)
                _run_demo_reactor(tele)
        finally:
            done.set()

    worker = threading.Thread(target=demo, name="top-demo", daemon=True)
    worker.start()
    try:
        iteration = 0
        while True:
            iteration += 1
            time.sleep(args.interval)
            if args.json:
                import json

                tele.sync_trace_metrics()
                print(json.dumps(
                    {
                        "refresh": iteration,
                        "digest": tele.digest(),
                        "metrics": tele.metrics.to_json(),
                    },
                    sort_keys=True,
                ))
            else:
                clear = _ansi_clear()
                if clear:
                    print(clear, end="")
                    print(f"== adoc top (refresh {iteration}) ==")
                else:
                    print(f"\n== adoc top (refresh {iteration}) ==")
                conns = tele.live_connections()
                if not conns:
                    print("(no live connections)")
                for name, owner in conns:
                    stats = getattr(owner, "stats", None)
                    if stats is not None:
                        print(f"{name}: {stats.summary()}")
                points = extract_timeline(tele.tracer)
                if points:
                    print(render_timeline(points, table_rows=args.rows))
                serve_lines = _serve_metric_lines(tele)
                if serve_lines:
                    print("serve (reactor/pool):")
                    print("\n".join(serve_lines))
            finished = done.is_set()
            if args.once or (args.iterations and iteration >= args.iterations):
                break
            if finished and not args.iterations:
                break
        worker.join(5.0)
    finally:
        set_active_telemetry(None)
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from .obs.fleet import DEFAULT_FLEET_PORT, serve_fleet

    port = args.port if args.port is not None else DEFAULT_FLEET_PORT
    aggregator, address = serve_fleet(host=args.host, port=port, ttl_s=args.ttl)
    print(
        f"fleet aggregator on {address[0]}:{address[1]} "
        f"(ttl {args.ttl:g}s)",
        flush=True,
    )
    try:
        if args.duration > 0:
            time.sleep(args.duration)
        else:
            while True:  # until Ctrl-C
                time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        aggregator.close()
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .analysis.checker import run

    return run(args)


def _hostport(value: str) -> tuple[str, int]:
    """Parse a ``HOST:PORT`` argument (host defaults to loopback)."""
    host, sep, port = value.rpartition(":")
    if not sep or not port.isdigit():
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {value!r}")
    return host or "127.0.0.1", int(port)


def _count(value: str) -> int:
    """Parse a non-negative integer argument."""
    if not value.isdigit():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {value!r}")
    return int(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adoc", description="AdOC adaptive online compression toolkit"
    )
    parser.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        choices=("debug", "info", "warning", "error"),
        help="enable library logging (repro.* loggers) at this level",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    sub.add_parser("info", help="show levels and network profiles")

    p_serve = sub.add_parser("serve", help="receive files over TCP")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=9099)
    p_serve.add_argument("--out-dir", default="received")
    p_serve.add_argument("--count", type=int, default=None,
                         help="stop after N files (default: until EOF)")

    p_send = sub.add_parser("send", help="send files over TCP")
    p_send.add_argument("--host", default="127.0.0.1")
    p_send.add_argument("--port", type=int, default=9099)
    p_send.add_argument("files", nargs="+")

    p_bench = sub.add_parser("bench", help="regenerate a paper table/figure")
    p_bench.add_argument("experiment", choices=_EXPERIMENTS)
    p_bench.add_argument("--plot", action="store_true",
                         help="terminal chart instead of a table (fig3..fig7)")
    p_bench.add_argument("--csv-dir", default="results",
                         help="output directory for 'bench all'")

    p_trace = sub.add_parser("trace", help="print an adaptation trace")
    p_trace.add_argument("--network", default="renater",
                         choices=("lan100", "gbit", "renater", "internet"))
    p_trace.add_argument(
        "--data", default="ascii",
        choices=("ascii", "binary", "incompressible", "sparse", "dense"),
    )
    p_trace.add_argument("--size-mb", type=int, default=8)
    p_trace.add_argument("--seed", type=int, default=0)
    t_sub = p_trace.add_subparsers(dest="trace_cmd")
    p_tmerge = t_sub.add_parser(
        "merge", help="join per-process Chrome traces into one timeline"
    )
    p_tmerge.add_argument("files", nargs="+",
                          help="Chrome trace_event JSON or tracer JSONL files")
    p_tmerge.add_argument("--out", default="merged-trace.json",
                          help="output file (default: merged-trace.json)")
    p_tmerge.add_argument("--no-align", action="store_true",
                          help="keep each trace's private time zero instead "
                               "of aligning on the shared wall clock")

    p_stats = sub.add_parser(
        "stats", help="run a traced demo transfer and print its metrics"
    )
    p_stats.add_argument("--json", action="store_true",
                         help="JSON export instead of Prometheus text")
    p_stats.add_argument("--trace-out", default=None, metavar="FILE",
                         help="also write a Chrome trace_event JSON file")
    p_stats.add_argument("--size-mb", type=int, default=4)
    p_stats.add_argument(
        "--data", default="ascii",
        choices=("ascii", "binary", "incompressible"),
    )
    p_stats.add_argument("--seed", type=int, default=0)
    p_stats.add_argument("--fleet", type=_hostport, default=None,
                         metavar="HOST:PORT",
                         help="print a fleet aggregator's merged metrics "
                              "instead of running the local demo")

    p_top = sub.add_parser(
        "top", help="live per-connection view of the adaptive pipeline"
    )
    p_top.add_argument("--interval", type=float, default=0.5,
                       help="seconds between refreshes")
    p_top.add_argument("--iterations", type=int, default=0,
                       help="stop after N refreshes (default: until the "
                            "demo transfer finishes)")
    p_top.add_argument("--repeat", type=int, default=1,
                       help="demo transfers to run back to back")
    p_top.add_argument("--rows", type=_count, default=10,
                       help="decision-table rows shown per refresh (0: none)")
    p_top.add_argument("--size-mb", type=int, default=8)
    p_top.add_argument(
        "--data", default="ascii",
        choices=("ascii", "binary", "incompressible"),
    )
    p_top.add_argument("--seed", type=int, default=0)
    p_top.add_argument("--once", action="store_true",
                       help="print one snapshot and exit")
    p_top.add_argument("--json", action="store_true",
                       help="machine-readable snapshots instead of tables")
    p_top.add_argument("--fleet", type=_hostport, default=None,
                       metavar="HOST:PORT",
                       help="render a fleet aggregator's merged view "
                            "instead of running the local demo")

    p_fleet = sub.add_parser(
        "fleet", help="run the fleet metrics aggregator"
    )
    p_fleet.add_argument("--host", default="127.0.0.1")
    p_fleet.add_argument("--port", type=int, default=None,
                         help="listen port (default: the fleet port, 9464)")
    p_fleet.add_argument("--ttl", type=float, default=15.0,
                         help="seconds without a push before an instance "
                              "is expired (default: 15)")
    p_fleet.add_argument("--duration", type=float, default=0.0,
                         help="serve for N seconds then exit "
                              "(default: until Ctrl-C)")

    from .analysis.checker import add_arguments as add_check_arguments

    add_check_arguments(
        sub.add_parser("check", help="run the concurrency/protocol analyzer")
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.log_level:
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter(
            "%(asctime)s %(levelname)s %(name)s: %(message)s"
        ))
        lib_logger = logging.getLogger("repro")
        lib_logger.addHandler(handler)
        lib_logger.setLevel(args.log_level.upper())
    handlers = {
        "info": _cmd_info,
        "serve": _cmd_serve,
        "send": _cmd_send,
        "bench": _cmd_bench,
        "trace": _cmd_trace,
        "check": _cmd_check,
        "stats": _cmd_stats,
        "top": _cmd_top,
        "fleet": _cmd_fleet,
    }
    return handlers[args.cmd](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
