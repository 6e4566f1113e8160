"""Discrete-event simulator of the AdOC pipeline.

Reproduces the paper's timing experiments deterministically.  The
simulator is a third thin driver over the live send core
(:mod:`repro.core.planner`: the section-5 ladder, ``SendPlanner`` with
its Figure-2 adapter and guards, ``EmissionWindows``) on a virtual
clock; only the codec (its record shapes kept, its costs calibrated from
Table 1) and the network (shapes from :mod:`repro.transport.profiles`)
are modelled.
"""

from .costmodel import PROFILES, DataProfile, LevelCost, profile_by_name
from .engine import Environment, Process, SimulationError, Store, Timeout
from .pipeline import (
    ADOC_FRAMING_S,
    PIPELINE_STALL_RTTS,
    THREAD_STARTUP_S,
    SimTransferResult,
    simulate_adoc_message,
    simulate_posix_message,
)
from .runner import (
    SweepPoint,
    flow_snapshot,
    pingpong_latency,
    simulate_fleet,
    sweep,
    transfer_bandwidth,
)

__all__ = [
    "Environment",
    "Store",
    "Timeout",
    "Process",
    "SimulationError",
    "DataProfile",
    "LevelCost",
    "PROFILES",
    "profile_by_name",
    "SimTransferResult",
    "simulate_adoc_message",
    "simulate_posix_message",
    "ADOC_FRAMING_S",
    "THREAD_STARTUP_S",
    "PIPELINE_STALL_RTTS",
    "transfer_bandwidth",
    "sweep",
    "pingpong_latency",
    "simulate_fleet",
    "flow_snapshot",
    "SweepPoint",
]
