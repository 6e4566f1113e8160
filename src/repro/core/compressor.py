"""Buffer compression: one 200 KB input buffer -> wire records.

The compression thread consumes input in buffers (paper section 3.2),
compressing each buffer at the level chosen by the adapter.  This module
implements that single step, including the mid-buffer abort required by
the incompressible-data guard (section 5): AdOC compares each compressed
packet with its original size and, on a poor ratio, "stops compressing
the remaining of the buffer".  Each job is timed, as
:func:`~repro.core.receiver.decode_record` is on receive: the send
planner folds the seconds into per-level encode-rate records.

Per level:

* level 0 — the buffer becomes one raw record;
* level 1 (LZF) — LZF is a block format with an 8 KB back-reference
  window, so the buffer is compressed slice-by-slice, one record per
  slice; the guard is evaluated after every slice and the remainder is
  emitted raw when it trips;
* levels 2..10 (zlib) — the buffer is fed incrementally to one
  ``compressobj`` (a single zlib stream keeps the ratio close to
  whole-buffer compression); the running produced/consumed ratio is
  checked as slices are fed, and on a trip the stream is flushed into a
  record covering the consumed prefix and the rest goes raw.
"""

from __future__ import annotations

import time
import zlib

from ..compress.lzf import lzf_compress_slices
from .config import AdocConfig, DEFAULT_CONFIG
from .guards import IncompressibleGuard
from .packets import Record

__all__ = ["compress_buffer"]

#: zlib buffers input internally; the running-ratio check is meaningless
#: until enough output has been forced out, so the guard is consulted
#: only after this many bytes have been consumed from the buffer.
MIN_CONSUMED_FOR_GUARD = 16 * 1024


def compress_buffer(
    data: bytes | memoryview,
    level: int,
    guard: IncompressibleGuard | None = None,
    config: AdocConfig = DEFAULT_CONFIG,
) -> tuple[list[Record], bool, float]:
    """Compress one input buffer at ``level``, timed.

    Returns ``(records, guard_tripped, seconds)``.  The records' original sizes
    always sum to ``len(data)``; a record is only kept in compressed
    form when that actually saved bytes, otherwise the raw form is used
    (the paper's guarantee that data is never inflated on the wire
    beyond the fixed header overhead).

    ``data`` may be a ``memoryview``: raw records (level 0, guard
    fallbacks, LZF slices that did not shrink) keep zero-copy slices of
    it as their payload, so the caller's buffer must stay alive until
    the records are emitted.
    """
    start = time.perf_counter()
    if not len(data):
        records, tripped = [], False
    elif level == 0:
        records, tripped = [Record(0, len(data), data)], False
    elif level == 1:
        records, tripped = _compress_lzf(data, guard, config)
    else:
        records, tripped = _compress_zlib(data, level, guard, config)
    return records, tripped, time.perf_counter() - start


def _compress_lzf(
    data: bytes | memoryview,
    guard: IncompressibleGuard | None,
    config: AdocConfig,
) -> tuple[list[Record], bool]:
    records: list[Record] = []
    n = len(data)
    offset = 0
    tripped = False
    # The slice iterator is lazy and its numpy match discovery is
    # amortized over the whole buffer (one pass instead of one per
    # slice); each yielded chunk is byte-identical to compressing
    # ``data[start:end]`` standalone, so the wire format is unchanged.
    for start, end, comp in lzf_compress_slices(data, config.slice_size):
        chunk_len = end - start
        if len(comp) < chunk_len:
            records.append(Record(1, chunk_len, comp))
        else:
            # Raw records keep zero-copy slices of the caller's buffer.
            records.append(Record(0, chunk_len, data[start:end]))
        offset = end
        if guard is not None and guard.check_packet(chunk_len, len(comp)):
            tripped = True
            break
    if offset < n:
        records.append(Record(0, n - offset, data[offset:]))
    return records, tripped


def _compress_zlib(
    data: bytes | memoryview,
    level: int,
    guard: IncompressibleGuard | None,
    config: AdocConfig,
) -> tuple[list[Record], bool]:
    comp = zlib.compressobj(level - 1)
    slice_size = config.slice_size
    n = len(data)
    consumed = 0
    produced: list[bytes] = []
    produced_len = 0
    tripped = False
    while consumed < n:
        chunk = data[consumed : consumed + slice_size]
        out = comp.compress(chunk)
        if out:
            produced.append(out)
            produced_len += len(out)
        consumed += len(chunk)
        if (
            guard is not None
            and consumed >= MIN_CONSUMED_FOR_GUARD
            and produced_len > 0
            and guard.check_packet(consumed, produced_len)
        ):
            tripped = True
            break
    tail = comp.flush()
    if tail:
        produced.append(tail)
        produced_len += len(tail)

    records: list[Record] = []
    wire = b"".join(produced)  # adoclint: disable=ADOC108 -- joins *compressed* fragments (already a fresh allocation, typically much smaller than the input) into the one contiguous record the framing needs
    if produced_len < consumed:
        records.append(Record(level, consumed, wire))
    else:
        # The compressed prefix did not save anything: ship it raw.
        records.append(Record(0, consumed, data[:consumed]))
        if guard is not None and not tripped:
            tripped = guard.check_packet(consumed, produced_len)
    if consumed < n:
        records.append(Record(0, n - consumed, data[consumed:]))
    return records, tripped
