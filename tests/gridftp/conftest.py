"""Shared config and server fixture for the gridFTP-lite tests."""

from __future__ import annotations

import pytest

from repro.core import AdocConfig
from repro.gridftp import FileServer
from repro.transport import pipe_pair

CFG = AdocConfig(
    buffer_size=16 * 1024,
    packet_size=2 * 1024,
    slice_size=2 * 1024,
    small_message_threshold=8 * 1024,
    probe_size=4 * 1024,
    fast_network_bps=float("inf"),
)


@pytest.fixture
def make_server(closing):
    """``make_server(transport_factory=pipe_pair, **kwargs)``, closed at teardown."""
    return lambda factory=pipe_pair, **kwargs: closing(
        FileServer(factory, config=CFG, workers=2, **kwargs)
    )
