"""CLI: info, trace, bench dispatch, and a live serve/send round trip."""

from __future__ import annotations

import socket
import threading
import time
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.data import ascii_data


class TestInfo:
    def test_lists_levels_and_profiles(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "lzf" in out and "gzip 9" in out
        for name in ("lan100", "gbit", "renater", "internet"):
            assert name in out


class TestTrace:
    def test_trace_renater(self, capsys):
        assert main(["trace", "--network", "renater", "--size-mb", "2"]) == 0
        out = capsys.readouterr().out
        assert "queue" in out
        assert "ratio" in out
        assert "fig2" in out and "elided" not in out

    def test_trace_small_message_note(self, capsys):
        # Gbit + small-ish: fast path, no adaptation history printed.
        assert main(["trace", "--network", "gbit", "--size-mb", "1"]) == 0
        out = capsys.readouterr().out
        assert "ratio" in out


class TestBench:
    def test_table2(self, capsys):
        assert main(["bench", "table2"]) == 0
        out = capsys.readouterr().out
        assert "renater" in out

    def test_invalid_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "fig12"])


class TestSendServe:
    def test_roundtrip_over_tcp(self, tmp_path: Path, capsys):
        src = tmp_path / "data.txt"
        src.write_bytes(ascii_data(150_000, seed=1))
        out_dir = tmp_path / "out"

        port_holder = {}

        def serve() -> None:
            # Bind port 0 and let the OS pick; parse it from stdout is
            # awkward under capsys, so pre-pick a free port instead.
            main(
                [
                    "serve",
                    "--port",
                    str(port_holder["port"]),
                    "--out-dir",
                    str(out_dir),
                    "--count",
                    "1",
                ]
            )

        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        port_holder["port"] = s.getsockname()[1]
        s.close()

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        deadline = time.monotonic() + 5
        rc = None
        while time.monotonic() < deadline:
            try:
                rc = main(
                    ["send", "--port", str(port_holder["port"]), str(src)]
                )
                break
            except ConnectionRefusedError:
                time.sleep(0.05)
        server.join(timeout=30)
        assert rc == 0
        assert (out_dir / "data.txt").read_bytes() == src.read_bytes()

    def test_send_missing_file_reports_error(self, tmp_path, capsys):
        port_holder = {}
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        port_holder["port"] = s.getsockname()[1]
        s.listen(1)

        def sink() -> None:
            try:
                conn, _ = s.accept()
                while conn.recv(65536):
                    pass
                conn.close()
            except OSError:
                pass  # listener torn down at test end

        t = threading.Thread(target=sink, daemon=True)
        t.start()
        rc = main(
            ["send", "--port", str(port_holder["port"]), str(tmp_path / "nope.bin")]
        )
        assert rc == 1
        s.close()


class TestBenchAll:
    def test_writes_all_csvs(self, tmp_path, capsys, monkeypatch):
        # Shrink the figure sweeps so "all" completes quickly; table1
        # runs at full size (a couple of seconds of real codecs).
        import repro.bench.experiments as exp

        monkeypatch.setattr(exp, "FIGURE_SIZES", [1024, 1024 * 1024])
        monkeypatch.setattr(
            exp, "_FIGURE_SETUPS",
            {k: (v[0], 1, v[2]) for k, v in exp._FIGURE_SETUPS.items()},
        )
        rc = main(["bench", "all", "--csv-dir", str(tmp_path)])
        assert rc == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {
            "table1.csv", "table2.csv",
            "fig3.csv", "fig4.csv", "fig5.csv", "fig6.csv", "fig7.csv",
            "fig8.csv", "fig9.csv",
        }
        assert (tmp_path / "fig5.csv").read_text().startswith("size_bytes,")


class TestTraceMerge:
    def make_chrome_trace(self, path: Path, name: str, epoch: float) -> None:
        import json

        trace = {
            "traceEvents": [
                {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                 "args": {"name": name}},
                {"name": f"{name}-work", "cat": "span", "ph": "X", "pid": 1,
                 "tid": 1, "ts": 0.0, "dur": 100.0},
            ],
            "otherData": {"epoch_base": epoch},
        }
        path.write_text(json.dumps(trace))

    def test_merge_interleaves_processes(self, tmp_path: Path, capsys):
        import json

        a, b, c = (tmp_path / f"p{i}.json" for i in range(3))
        self.make_chrome_trace(a, "alpha", 10.0)
        self.make_chrome_trace(b, "beta", 10.0005)
        self.make_chrome_trace(c, "gamma", 10.001)
        out = tmp_path / "merged.json"
        assert main(
            ["trace", "merge", str(a), str(b), str(c), "--out", str(out)]
        ) == 0
        assert "merged 3 traces" in capsys.readouterr().out
        merged = json.loads(out.read_text())
        events = merged["traceEvents"]
        pids = {e["pid"] for e in events}
        assert pids == {1, 2, 3}
        # process_name metadata replaced by the file stems.
        names = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e.get("name") == "process_name"
        }
        assert names == {1: "p0", 2: "p1", 3: "p2"}
        # Wall-clock alignment: later epochs shift right (us).
        spans = sorted(
            (e["pid"], e["ts"]) for e in events if e["ph"] == "X"
        )
        assert spans == [(1, 0.0), (2, 500.0), (3, 1000.0)]

    def test_merge_aligns_two_real_processes(self, tmp_path: Path, capsys):
        """Two ``adoc stats --trace-out`` runs, one after the other, land in
        order on the merged axis only if wall-clock alignment works across
        real interpreters (each trace's own zero is its first event)."""
        import json
        import os
        import subprocess
        import sys

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(
            os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src
        )
        inputs = [tmp_path / f"p{i}.json" for i in range(2)]
        for trace in inputs:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "stats", "--size-mb", "1",
                 "--trace-out", str(trace)],
                capture_output=True,
                text=True,
                timeout=120,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr[-2000:]
        for trace in inputs:
            assert isinstance(
                json.loads(trace.read_text())["otherData"]["epoch_base"], float
            )
        out = tmp_path / "merged.json"
        assert main(
            ["trace", "merge", *map(str, inputs), "--out", str(out)]
        ) == 0
        assert "merged 2 traces" in capsys.readouterr().out
        events = json.loads(out.read_text())["traceEvents"]
        assert {e["pid"] for e in events} == {1, 2}
        names = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e.get("name") == "process_name"
        }
        assert names == {1: "p0", 2: "p1"}
        timed = [e for e in events if e["ph"] != "M"]
        first_end = max(e["ts"] + e.get("dur", 0.0) for e in timed if e["pid"] == 1)
        second_start = min(e["ts"] for e in timed if e["pid"] == 2)
        assert first_end < second_start

    def test_merge_accepts_tracer_jsonl(self, tmp_path: Path, capsys):
        import json

        from repro.obs.tracer import EventTracer

        tracer = EventTracer(capacity=8, clock=lambda: 1.0)
        tracer.record("buffer", "done", ts=1.0)
        jsonl = tmp_path / "proc.jsonl"
        jsonl.write_text(tracer.to_jsonl())
        out = tmp_path / "merged.json"
        assert main(["trace", "merge", str(jsonl), "--out", str(out)]) == 0
        merged = json.loads(out.read_text())
        assert any(
            e.get("name") == "done" for e in merged["traceEvents"]
        )

    def test_plain_trace_still_works_after_subparser(self, capsys):
        assert main(["trace", "--network", "gbit", "--size-mb", "1"]) == 0
        assert "ratio" in capsys.readouterr().out


class TestTopFlags:
    def test_top_once_prints_single_snapshot(self, capsys):
        assert main(
            ["top", "--once", "--interval", "0.2", "--size-mb", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("== adoc top (refresh") == 1

    def test_top_json_emits_machine_readable_snapshots(self, capsys):
        import json

        assert main(
            ["top", "--once", "--json", "--interval", "0.2", "--size-mb", "1"]
        ) == 0
        line = capsys.readouterr().out.strip().splitlines()[0]
        snap = json.loads(line)
        assert snap["refresh"] == 1
        assert "metrics" in snap and "digest" in snap
        assert "repro_trace_dropped_total" in snap["metrics"]

    def test_non_tty_output_has_no_ansi_escapes(self, capsys):
        assert main(["top", "--once", "--interval", "0.2", "--size-mb", "1"]) == 0
        assert "\x1b[" not in capsys.readouterr().out

    def test_rows_zero_shows_no_rows_and_negative_is_rejected(self, capsys):
        from repro.core import AdaptationTrace
        from repro.obs.timeline import render_timeline

        points = [AdaptationTrace(n, 1, 2, 2) for n in range(30)]
        lines = render_timeline(points, table_rows=0).splitlines()
        assert lines[-1] == "  ... 30 earlier decision(s) elided ..."
        assert lines[-2].split() == ["buf", "queue", "delta", "fig2", "level", "flags"]
        assert len(render_timeline(points, table_rows=3).splitlines()) == 4 + 3
        assert build_parser().parse_args(["top", "--rows", "0"]).rows == 0
        with pytest.raises(SystemExit):
            build_parser().parse_args(["top", "--rows", "-1"])
        assert "--rows" in capsys.readouterr().err


class TestFleetCli:
    def test_top_and_stats_fleet_render_live_instances(self, capsys):
        import json

        from repro.obs.fleet import push_once, serve_fleet
        from repro.obs.metrics import MetricsRegistry

        agg, addr = serve_fleet(ttl_s=30.0)
        try:
            for name in ("cli-a", "cli-b", "cli-c"):
                reg = MetricsRegistry()
                reg.counter(
                    "adoc_wire_bytes_total", "", ("direction",)
                ).inc(512, direction="tx")
                push_once(addr, reg, job="clitest", instance=name)
            target = f"{addr[0]}:{addr[1]}"
            assert main(["top", "--fleet", target, "--once"]) == 0
            out = capsys.readouterr().out
            for name in ("cli-a", "cli-b", "cli-c"):
                assert name in out
            assert "TOTAL (3)" in out

            assert main(["top", "--fleet", target, "--once", "--json"]) == 0
            view = json.loads(capsys.readouterr().out)
            assert len(view["instances"]) == 3

            assert main(["stats", "--fleet", target]) == 0
            prom = capsys.readouterr().out
            assert 'instance="cli-a"' in prom
        finally:
            agg.close()

    def test_fleet_command_serves_for_duration(self, capsys):
        import re

        from repro.obs.fleet import fetch_fleet

        result = {}

        def run() -> None:
            result["rc"] = main(
                ["fleet", "--port", "0", "--duration", "1.5", "--ttl", "5"]
            )

        t = threading.Thread(target=run, name="fleet-cli")
        t.start()
        deadline = time.monotonic() + 5.0
        out = ""
        while "aggregator on" not in out:
            assert time.monotonic() < deadline
            time.sleep(0.05)
            out += capsys.readouterr().out
        match = re.search(r"aggregator on ([\d.]+):(\d+)", out)
        assert match, out
        address = (match.group(1), int(match.group(2)))
        assert fetch_fleet(address)["instances"] == []
        t.join(10.0)
        assert not t.is_alive()
        assert result["rc"] == 0

    def test_bad_hostport_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["top", "--fleet", "nonsense"])
