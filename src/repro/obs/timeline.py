"""The Figure-2 timeline: queue depth and level over a live transfer.

The paper's central figure plots the FIFO queue size ``n`` and the
compression level the controller picked, buffer by buffer.  The tracer
records one ``level_decision`` event per input buffer carrying the
decision's :class:`~repro.core.adaptation.AdaptationTrace` — ``(n,
delta)``, Figure 2's proposal, the level used and what overrode it — so
any traced transfer can be replayed as the paper's adaptation trace
after (or *during*, for ``adoc top``) the run.

:func:`extract_timeline` pulls those decisions out of a tracer;
:func:`render_timeline` renders them, or the simulator's
``SimTransferResult.decisions``, as sparklines plus a decision table
(``adoc top`` and ``adoc trace``).
"""

from __future__ import annotations

from ..core.adaptation import AdaptationTrace
from .tracer import EventTracer

__all__ = ["extract_timeline", "render_timeline"]


def extract_timeline(tracer: EventTracer, thread: str | None = None) -> list[AdaptationTrace]:
    """The adaptation trace recorded so far (oldest first).

    ``thread`` filters to one compression thread when several
    connections share a tracer (striped transfers record one series
    per stream).
    """
    return [
        AdaptationTrace.from_args(event.args)
        for event in tracer.events("level")
        if thread is None or event.thread == thread
    ]


def render_timeline(
    points: list[AdaptationTrace], width: int = 60, table_rows: int | None = 20
) -> str:
    """Figure-2-style text rendering: sparklines plus a decision table.

    ``table_rows`` caps the per-buffer table (the *last* rows are shown
    — the freshest decisions matter most in a live view); ``None``
    prints every row and ``0`` none.  ``fig2`` is the control law's
    proposal, ``level`` the level used.  Flags: ``F``
    divergence-forbidden, ``H`` incompressible holdoff, ``C`` codec-rate
    fence or probation, ``W`` warm first decision, ``P`` decided while
    the probe was on the wire.
    """
    if table_rows is not None and table_rows < 0:
        raise ValueError("table_rows must be None or >= 0")
    if not points:
        return "(no adaptation decisions recorded)"
    from ..bench.charts import sparkline

    lines = [
        "level over time: " + sparkline([p.level for p in points], width=width),
        "queue over time: " + sparkline([p.queue_size for p in points], width=width),
        f"{'buf':>5} {'queue':>5} {'delta':>5} {'fig2':>5} {'level':>5}  flags",
    ]
    first = 0 if table_rows is None else max(len(points) - table_rows, 0)
    if first:
        lines.append(f"  ... {first} earlier decision(s) elided ...")
    for i, p in enumerate(points[first:], start=first):
        flags = "".join(
            tag
            for tag, on in (
                ("F", p.forbidden), ("H", p.holdoff), ("C", p.fenced),
                ("W", p.warm), ("P", p.during_probe),
            )
            if on
        )
        lines.append(
            f"{i:>5} {p.queue_size:>5} {p.delta:>+5} {p.raw_level:>5} {p.level:>5}  {flags}"
        )
    return "\n".join(lines)
