"""The runtime import graph: what a transfer or an RPC server loads.

A process that sends, receives or serves RPC pays at start-up for every
module it imports.  The package ``__init__`` modules therefore import
eagerly only the runtime and defer the rest through one PEP 562 helper
(:mod:`repro._lazy`).  These tests pin both halves of that contract:
a fresh process that runs a transfer never loads a deferred module,
and every name a package exports still resolves.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: Modules that no send, receive or RPC path may load.
_DEFERRED = [
    *(
        f"repro.analysis.{name}"
        for name in (
            "checker",
            "callgraph",
            "lockorder",
            "interproc",
            "rules",
            "baseline",
            "findings",
            "reactorcheck",
            "wirecheck",
            "emitters",
        )
    ),
    "repro.transport.faults",
    "repro.compress.lossy",
    "repro.compress.huffman",
    "repro.data.tarlike",
    "repro.data.harwell_boeing",
    "repro.data.images",
    "repro.middleware.agent",
    "repro.middleware.client",
    "repro.obs.timeline",
    "repro.obs.fleet",
    "repro.core.policies",
    "repro.simulator",
    "repro.bench",
    "tarfile",
]

_TRANSFER = """
import json, sys, threading
import repro, repro.middleware.server, repro.serve.pool
from repro import AdocSocket, pipe_pair

a, b = pipe_pair()
tx, rx = AdocSocket(a), AdocSocket(b)
payload = b"cold start payload " * 50_000
writer = threading.Thread(target=tx.write, args=(payload,), name="writer")
writer.start()
ok = rx.read_exact(len(payload)) == payload
writer.join(30)
tx.close()
rx.close()
print(json.dumps({"ok": ok and not writer.is_alive(), "modules": sorted(sys.modules)}))
"""

_PACKAGES = [
    "repro",
    *(
        info.name
        for info in pkgutil.iter_modules(repro.__path__, "repro.")
        if info.ispkg
    ),
]


def test_transfer_process_loads_only_the_runtime():
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src)
    proc = subprocess.run(
        [sys.executable, "-c", _TRANSFER],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["ok"]
    loaded = set(result["modules"])
    assert "repro.analysis.lockgraph" in loaded
    assert sorted(loaded.intersection(_DEFERRED)) == []


@pytest.mark.parametrize("name", _PACKAGES)
def test_package_exports_resolve(name):
    pkg = importlib.import_module(name)
    exported = getattr(pkg, "__all__", [])
    listing = dir(pkg)
    # A lazy table may only defer names the package exports.
    assert set(listing) - set(vars(pkg)) <= set(exported)
    for attr in exported:
        assert attr in listing
        getattr(pkg, attr)
    with pytest.raises(AttributeError):
        getattr(pkg, "no_such_export")
