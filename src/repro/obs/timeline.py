"""The Figure-2 timeline: queue depth and level over a live transfer.

The paper's central figure plots the FIFO queue size ``n`` and the
compression level the controller picked, buffer by buffer.  The tracer
already records one ``level`` event per input buffer carrying exactly
that tuple — ``(n, delta, old_level, new_level)`` — so any traced
transfer can be replayed as the paper's adaptation trace after (or
*during*, for ``adoc top``) the run.

:func:`extract_timeline` pulls the series out of a tracer;
:func:`render_timeline` renders it as a table plus sparklines (the same
presentation as ``adoc trace``, but from a *real* pipelined transfer
rather than the simulator).
"""

from __future__ import annotations

from dataclasses import dataclass

from .tracer import EventTracer

__all__ = ["TimelinePoint", "extract_timeline", "render_timeline"]


@dataclass(frozen=True)
class TimelinePoint:
    """One Figure-2 sample: the controller's view before one buffer."""

    ts: float
    queue_size: int
    delta: int
    old_level: int
    new_level: int
    forbidden: bool = False
    holdoff: bool = False
    fenced: bool = False
    warm: bool = False
    during_probe: bool = False


def extract_timeline(tracer: EventTracer, thread: str | None = None) -> list[TimelinePoint]:
    """The adaptation trace recorded so far (oldest first).

    ``thread`` filters to one compression thread when several
    connections share a tracer (striped transfers record one series
    per stream).
    """
    points: list[TimelinePoint] = []
    for event in tracer.events("level"):
        if thread is not None and event.thread != thread:
            continue
        args = event.args
        points.append(
            TimelinePoint(
                ts=event.ts,
                queue_size=int(args.get("n", 0)),
                delta=int(args.get("delta", 0)),
                old_level=int(args.get("old_level", 0)),
                new_level=int(args.get("new_level", 0)),
                forbidden=bool(args.get("forbidden", False)),
                holdoff=bool(args.get("holdoff", False)),
                fenced=bool(args.get("fenced", False)),
                warm=bool(args.get("warm", False)),
                during_probe=bool(args.get("during_probe", False)),
            )
        )
    return points


def render_timeline(
    points: list[TimelinePoint], width: int = 60, table_rows: int | None = 20
) -> str:
    """Figure-2-style text rendering: sparklines plus a decision table.

    ``table_rows`` caps the per-buffer table (the *last* rows are shown
    — the freshest decisions matter most in a live view); ``None``
    prints every row.  Flags: ``F`` divergence-forbidden, ``H``
    incompressible holdoff, ``C`` codec-rate fence or probation, ``W``
    warm first decision, ``P`` decided while the probe was on the wire.
    """
    if not points:
        return "(no adaptation decisions recorded)"
    from ..bench.charts import sparkline

    lines = [
        "level over time: " + sparkline([p.new_level for p in points], width=width),
        "queue over time: " + sparkline([p.queue_size for p in points], width=width),
        f"{'buf':>5} {'queue':>5} {'delta':>5} {'level':>5}  flags",
    ]
    shown = points if table_rows is None else points[-table_rows:]
    first = len(points) - len(shown)
    if first:
        lines.append(f"  ... {first} earlier decision(s) elided ...")
    for i, p in enumerate(shown, start=first):
        flags = "".join(
            tag
            for tag, on in (
                ("F", p.forbidden), ("H", p.holdoff), ("C", p.fenced),
                ("W", p.warm), ("P", p.during_probe),
            )
            if on
        )
        lines.append(
            f"{i:>5} {p.queue_size:>5} {p.delta:>+5} {p.new_level:>5}  {flags}"
        )
    return "\n".join(lines)
