#!/usr/bin/env python3
"""gridFTP-lite demo: the compression option, on and off.

Starts the mini-gridFTP server, uploads the two Table-1 bench files
over a shaped WAN in PLAIN mode and again in ADOC mode (optionally with
parallel stripes), and prints the wire sizes — the paper's "as in FTP a
compression option is available" future-work item, working.

Usage::

    python examples/gridftp_demo.py [--stripes 2] [--profile renater]
"""

from __future__ import annotations

import argparse
import dataclasses
import time

from repro import ALL_PROFILES, AdocConfig
from repro.data import synthetic_hb_bytes, synthetic_tar_bytes
from repro.gridftp import FileClient, FileServer

#: Real gridFTP moves gigabytes; this demo moves a few hundred KB, so
#: scale AdOC's size thresholds down accordingly (the defaults would
#: classify every chunk as a "small message" and skip compression).
DEMO_CFG = AdocConfig(
    buffer_size=32 * 1024,
    packet_size=4 * 1024,
    slice_size=4 * 1024,
    small_message_threshold=32 * 1024,
    probe_size=16 * 1024,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--stripes", type=int, default=2)
    parser.add_argument("--profile", choices=sorted(ALL_PROFILES), default="renater")
    args = parser.parse_args()

    profile = ALL_PROFILES[args.profile]
    if profile.bandwidth_bps < 50e6:
        profile = profile.scaled(10)  # keep the demo quick
    # Demo-scale the socket buffer along with the message sizes: the
    # bandwidth probe can only measure the line rate if it overflows
    # the send buffer (DESIGN.md, "Fast-network probe").
    profile = dataclasses.replace(profile, buffer_bytes=8 * 1024)

    files = {
        "oilpann.hb": synthetic_hb_bytes(n=2500, band=5, seed=1),
        "bin.tar": synthetic_tar_bytes(n_members=3, member_size=120_000, seed=1),
    }

    seed_counter = [0]

    def factory():
        seed_counter[0] += 1
        return profile.make_pair(seed=seed_counter[0])

    server = FileServer(factory, config=DEMO_CFG, chunk_size=512 * 1024)
    try:
        client = FileClient(server, config=DEMO_CFG)
        client.set_stripes(args.stripes)

        print(
            f"gridftp-lite over shaped {args.profile} "
            f"({profile.bandwidth_bps / 1e6:.0f} Mbit/s), {args.stripes} stripe(s)\n"
        )
        for mode in ("PLAIN", "ADOC"):
            client.set_mode(mode)
            for name, data in files.items():
                t0 = time.monotonic()
                report = client.store(f"{mode.lower()}-{name}", data)
                elapsed = time.monotonic() - t0
                print(
                    f"  {mode:<5} STOR {name:<11} {len(data) / 1024:7.0f} KB -> "
                    f"{report.wire_bytes / 1024:7.0f} KB on the wire "
                    f"(ratio {report.compression_ratio:4.2f}) in {elapsed:5.2f}s"
                )

        # Round-trip check: download one file back in ADOC mode.
        got = client.retrieve("adoc-oilpann.hb")
        assert got == files["oilpann.hb"], "retrieve corrupted the file"
        print("\nRETR adoc-oilpann.hb verified byte-identical")
        print("catalog:", client.list_files())
        client.quit()
    finally:
        server.close()


if __name__ == "__main__":
    main()
