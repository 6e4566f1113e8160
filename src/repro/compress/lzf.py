"""LZF compression, implemented from scratch.

The paper uses Marc Lehmann's liblzf as AdOC compression level 1: a very
fast Ziv-Lempel variant whose compression speed is comparable to
``memcpy`` and whose ratio is low (< 2 on typical binaries, ~3 on ASCII
-- see Table 1 of RR-5500).  liblzf is a C library and is not available
here, so this module re-implements the LZF *stream format* and a
hash-table greedy encoder in pure Python.

Stream format (identical to liblzf's ``lzf_compress`` output, so the
control-byte layout below is the authoritative spec):

* ``000LLLLL`` (ctrl < 32): a literal run; the ``L+1`` bytes that follow
  are copied verbatim.
* ``LLLooooo oooooooo`` (ctrl >= 32, top 3 bits != 111): a short back
  reference of length ``L+2`` (3..8) at distance
  ``((ctrl & 0x1F) << 8 | next) + 1``.
* ``111ooooo LLLLLLLL oooooooo``: a long back reference of length
  ``next + 9`` (9..264) at the same distance encoding.

Two encoders produce that format, both with the classic liblzf strategy
(most-recent-position hash table over a 3-byte window, greedy match
extension, maximum match length 264, maximum offset 8192):

* :func:`_compress_ref` — the straightforward per-position Python loop.
  It is the executable specification: every position hashes its 3-byte
  window, probes the table, and either extends a match or advances one
  literal.  ~2 MB/s in CPython; kept as the fallback when numpy is
  unavailable, as the small-input path, and as the "before" baseline in
  ``benchmarks/compress.py``.
* the vectorized fast path (:func:`_prepare` + :func:`_encode_span`) —
  the per-position work (hashing, table probe, 3-byte verification,
  offset-window check) is precomputed for the *whole input at once*
  with numpy, and the Python loop touches only real matches:

  1. a stable argsort over the per-position hash values yields, for
     every position, the most recent previous position with the same
     hash — exactly the state the reference encoder's
     overwrite-on-store table would hold at that position, since that
     encoder seeds every position it passes;
  2. candidates failing the 8 KiB offset bound or true 3-gram equality
     (hash collisions) are masked out vectorized, precisely where the
     reference encoder's explicit byte compare rejects them;
  3. the survivors become a 0/1 byte mask, so the encode loop jumps
     from match to match with ``bytes.find`` — literal runs cost *zero*
     per-byte Python work — extends each match by galloping ``bytes``
     slice comparisons (binary-searching the first mismatching chunk)
     instead of per-byte probing, and flushes literals in batched
     32-byte runs.

Because the candidate chain reproduces the reference table's contents
exactly, the two encoders are **bit-identical** on every input — pinned
by tests and asserted by the compression benchmark — so the golden wire
fixtures are unchanged and any LZF decoder (liblzf's included) reads
either output.

:func:`lzf_compress_slices` extends the same trick to AdOC's real call
pattern: the buffer compressor chops each 200 KB buffer into
``slice_size`` records, each an independent LZF chunk.  Keying the
argsort by ``(slice_id, hash)`` makes every hash chain stop at its
slice boundary — identical to giving each slice a fresh table — so one
numpy pass serves all ~25 slices and the per-call fixed overhead is
paid once per buffer instead of once per record.
"""

from __future__ import annotations

import sys
from typing import Iterator

from .base import Codec, CodecError

try:  # numpy is a package dependency, but the codec must survive
    import numpy as _np  # environments that strip optional wheels.
except Exception:  # pragma: no cover - exercised via the ref-path tests
    _np = None  # type: ignore[assignment]

if sys.byteorder != "little":  # pragma: no cover - no BE CI runner
    # The vectorized path reads unaligned u32/u64 words and maps "first
    # mismatching byte" to "lowest set bit", which is a little-endian
    # identity.  Big-endian hosts take the reference encoder instead.
    _np = None  # type: ignore[assignment]

__all__ = ["LzfCodec", "lzf_compress", "lzf_compress_slices", "lzf_decompress"]

# liblzf uses HLOG=13 with a shift-based hash; we use a 16-bit table
# with a multiplicative (Knuth) hash, which finds noticeably more
# matches on structured text (e.g. the HB bench file: ratio 2.85 vs
# 2.21) at the same speed.  The *stream format* is unchanged — only
# match discovery differs, and any LZF decoder reads our output.
_HLOG = 16
_HSIZE = 1 << _HLOG
_MAX_OFF = 1 << 13          # back references reach at most 8 KiB back
_MAX_REF = (1 << 8) + (1 << 3)   # 264: longest encodable match
_MAX_LIT = 1 << 5           # 32: longest literal run per control byte
#: Precomputed-match-length ceiling: 8 bytes per compare round (the
#: first round doubles as the 3-gram verification).  ``mlens[i] ==
#: _PRE_MAX`` is a sentinel — "at least this long, the encoder gallops
#: the rest".  Three rounds covers the bulk of the match-length mass
#: on word-structured data while keeping the round cost bounded on
#: run-length data, where survivors never shrink.
_PRE_MAX = 8 * 3
_KNUTH = 2654435761

#: Below this size the numpy preprocessing (a handful of whole-input
#: array passes plus a radix argsort) costs more than the reference
#: loop saves; the measured crossover is well under 1 KiB.
_VEC_MIN_BYTES = 512

#: ``np.bitwise_count`` (numpy >= 2.0) turns lowest-set-bit extraction
#: into two vector ops; older numpy falls back to the float-exponent
#: trick (a power of two's float64 exponent IS its bit index, exactly).
_HAS_BITCOUNT = _np is not None and hasattr(_np, "bitwise_count")


def _hash3(a: int, b: int, c: int) -> int:
    """Multiplicative hash of a 3-byte window (Knuth's 2654435761)."""
    v = (a << 16) | (b << 8) | c
    return ((v * _KNUTH) >> (32 - _HLOG)) & (_HSIZE - 1)


def lzf_compress(data: bytes | bytearray | memoryview) -> bytes:
    """Compress ``data`` into an LZF chunk.

    Unlike liblzf's C API this never "fails": input that would expand is
    still encoded (as literal runs), which costs at most
    ``ceil(len/32)`` extra bytes.  AdOC's packet framing keeps the raw
    form when that happens, matching the paper's guarantee that
    incompressible data is not inflated on the wire.
    """
    if not isinstance(data, bytes):
        # bytes slicing/indexing is measurably faster than memoryview's
        # in the hot loop, and the copy is unavoidable here anyway (the
        # encoder re-reads every position many times).
        data = bytes(data)
    n = len(data)
    if n == 0:
        return b""
    if n < 4:
        # Too short for any back reference: one literal run.
        return bytes([n - 1]) + data
    if _np is not None and n >= _VEC_MIN_BYTES:
        pre = _prepare(data, n)
        out = bytearray()
        _encode_span(data, *pre, 0, n, out)
        return bytes(out)
    return _compress_ref(data, n)


def lzf_compress_slices(
    data: bytes | bytearray | memoryview, slice_size: int
) -> Iterator[tuple[int, int, bytes]]:
    """Compress ``data`` as independent ``slice_size`` LZF chunks.

    Yields ``(start, end, compressed)`` per slice, lazily — the buffer
    compressor stops consuming when the incompressible guard trips, so
    slices past the abort point are never encoded.  The first slice is
    compressed on its own, so a guard that trips on it (random data)
    never pays for match discovery on the rest.  Each chunk is
    byte-identical to ``lzf_compress(data[start:end])``: the vectorized
    path keys its hash chains by ``(slice, hash)``, which is exactly a
    fresh table per slice, while paying the numpy fixed overhead once
    for the rest of the buffer.
    """
    if slice_size <= 0:
        raise ValueError("slice_size must be positive")
    if not isinstance(data, bytes):
        data = bytes(data)
    n = len(data)
    first = min(slice_size, n)
    if first:
        yield 0, first, lzf_compress(data[:first])
    rest = data[first:]
    if _np is None or len(rest) < _VEC_MIN_BYTES:
        for start in range(first, n, slice_size):
            end = min(start + slice_size, n)
            yield start, end, lzf_compress(data[start:end])
        return
    pre = _prepare(rest, len(rest), slice_size)
    for start in range(0, len(rest), slice_size):
        end = min(start + slice_size, len(rest))
        length = end - start
        if length < 4:
            yield first + start, first + end, bytes([length - 1]) + rest[start:end]
            continue
        out = bytearray()
        _encode_span(rest, *pre, start, end, out)
        yield first + start, first + end, bytes(out)


def _prepare(
    data: bytes, n: int, slice_size: int | None = None
) -> tuple[bytes, "memoryview", bytes, bytes, bytes]:
    """Vectorized match discovery and token pre-encoding.

    Returns ``(mask, refs, mlens, toks, tlens)``: the candidate mask,
    the back references, the (capped) greedy match lengths, and the
    pre-encoded control tokens with their byte lengths.

    For every input position ``i`` (0 .. n-3) the reference encoder
    probes its hash table for the most recent position ``j < i`` whose
    3-byte window hashes to the same bucket, then verifies the window
    bytes and the 8 KiB offset bound.  All of that is data-parallel:

    1. ``v[i]`` — the 3-byte window value at every position, one
       byteswapped unaligned u32 load each;
    2. ``h[i]`` — the Knuth hash of every window.  For 24-bit ``v``,
       ``((v*K) mod 2^32) >> 16 == ((v*K) >> 16) & 0xFFFF``, so the
       wraparound uint32 multiply reproduces Python's unbounded-int
       arithmetic exactly while keeping the sort key a cheap
       2-radix-pass uint16;
    3. ``prev[i]`` — the most recent previous position with the same
       hash, recovered from a *stable* argsort: ties keep input order,
       so consecutive entries of one hash group are exactly the
       (previous, current) table pairs — including cross-bucket
       collisions, which overwrite in the reference encoder and are
       superseded here the same way;
    4. the verification mask — ``prev`` valid, offset within 8 KiB,
       and true 3-gram equality, rejecting collisions exactly where
       the reference encoder's byte compare would.  The gram compare
       is fused into the first match-length round below.

    With ``slice_size`` set, the sort key becomes ``(slice_id, hash)``
    and positions in each slice's 2-byte tail (which a per-slice
    encoder never hashes) are masked off: chains then never cross a
    slice boundary, i.e. every slice sees a fresh table.

    The mask returns as one 0/1 byte per position so the encode loop
    can jump between candidates with ``bytes.find``; the references
    return as an int32 memoryview (plain-int indexing, no numpy scalar
    boxing in the loop).
    """
    assert _np is not None
    # Pad to a u64 boundary, then far enough past it that the last
    # extension round's gather at ``n + _PRE_MAX - 1`` stays in bounds.
    pad = data + b"\x00" * ((-n) % 8 + ((_PRE_MAX + 15) & ~7))
    # One unaligned u32 load per position: byteswap turns the little-
    # endian load big-endian, the shift drops the trailing 4th byte —
    # ``v[i] = d[i]<<16 | d[i+1]<<8 | d[i+2]``, the 3-byte window.
    w32 = _np.lib.stride_tricks.as_strided(
        _np.frombuffer(pad, dtype=_np.uint32), shape=(n - 2,), strides=(1,)
    )
    v = w32.byteswap()
    v >>= _np.uint32(8)
    h = ((v * _np.uint32(_KNUTH)) >> _np.uint32(32 - _HLOG)).astype(_np.uint16)
    pos = _np.arange(v.size, dtype=_np.int32)
    if slice_size is None:
        order = _np.argsort(h, kind="stable")
    else:
        key = pos.astype(_np.uint32) // slice_size
        key <<= _HLOG
        key |= h
        order = _np.argsort(key, kind="stable")
        h = key  # group equality below must compare the full key
    order = order.astype(_np.int32)
    prev = _np.full(v.size, -1, dtype=_np.int32)
    ho = h[order]  # one gather; adjacent equal entries are chain links
    same = _np.flatnonzero(ho[1:] == ho[:-1])
    prev[order[same + 1]] = order[same]
    # ``off`` doubles as the offset-bound test (valid back references
    # have ``off`` in 0..8191) and, later, the token offset field.
    off = pos - prev
    off -= 1
    chained = prev >= 0
    chained &= off < _MAX_OFF
    if slice_size is not None:
        # A per-slice encoder's scan stops two bytes short of the slice
        # end; those tail positions are never table keys nor queries.
        chained &= pos % slice_size < slice_size - 2
    # 4+5. 3-gram verification fused with greedy match lengths —
    #    iterated 8-byte word compares on a shrinking survivor set.
    #    Round ``r`` gathers one unaligned u64 per side (strided view
    #    over the zero-padded input) at byte offset ``8r``, xors them,
    #    and counts matching leading bytes via the xor's lowest set
    #    bit (little-endian: low byte is the first byte).  Round zero
    #    covers the window itself: a low 24 bits of zero IS the
    #    reference encoder's 3-gram byte compare, and the remaining
    #    bytes of the same word seed the match length for free.
    #    Positions whose whole word matched survive into the next
    #    round.  The round count is capped: on run-length data *every*
    #    in-run candidate survives every round, so letting rounds run
    #    to ``_MAX_REF`` costs quadratic work on positions the encoder
    #    then jumps straight over.  ``ml[i] == _PRE_MAX`` therefore
    #    means "at least _PRE_MAX, keep extending in the encoder".
    #    Padding bytes can only inflate a length past ``end - i``; the
    #    encoder clamps that to its span — where the reference stops.
    ml = _np.full(v.size, 3, _np.uint8)
    good = _np.zeros(v.size, _np.bool_)
    cand = _np.flatnonzero(chained)
    if cand.size:
        words = _np.lib.stride_tricks.as_strided(
            _np.frombuffer(pad, dtype=_np.uint64),
            shape=(n + _PRE_MAX,),
            strides=(1,),
        )
        x = words[cand] ^ words[prev[cand]]
        keep = _np.flatnonzero((x & _np.uint64(0xFFFFFF)) == 0)
        cur, x = cand[keep], x[keep]
        good[cur] = True
        pv = prev[cur]
        k = 0
        while cur.size:
            lsb = x & (~x + _np.uint64(1))
            if _HAS_BITCOUNT:
                # lsb - 1 masks the bits below the first mismatch;
                # x == 0 wraps to all-ones -> 64 bits -> 8 bytes.
                m = _np.minimum(_np.bitwise_count(lsb - _np.uint64(1)) >> 3, 8)
            else:
                # A power of two's float64 exponent IS its bit index.
                exp = (
                    lsb.astype(_np.float64).view(_np.uint64)
                    >> _np.uint64(52)
                ).astype(_np.int32)
                m = _np.where(x == 0, 8, _np.minimum((exp - 1023) >> 3, 8))
            if k == 0:
                ml[cur] = m  # the gram's own 3 bytes are in this count
            else:
                ml[cur] += m.astype(_np.uint8)
            alive = _np.flatnonzero(x == 0)
            k += 8
            if k >= _PRE_MAX:
                break
            if alive.size < cur.size:
                cur, pv = cur[alive], pv[alive]
            x = words[cur + k] ^ words[pv + k]
    # 6. pre-encoded match tokens — an unclamped match's control bytes
    #    depend only on (offset, length), both known here, so build
    #    every token up front: 3 bytes per position plus a 2-or-3 byte
    #    length.  The encode loop emits ``toks[3*i : 3*i + tlens[i]]``
    #    — one slice append, no arithmetic.  Garbage rows
    #    (non-candidates, sentinel-length matches, span-clamped
    #    positions) are never read.
    # The uint8 casts simply wrap on garbage (non-candidate) rows,
    # whose tokens are never read.
    hi = (off >> 8).astype(_np.uint8)
    lo = off.astype(_np.uint8)
    el = ml - _np.uint8(2)
    short = el < 7
    # Rows of the (3, n) array are contiguous writes; the transposed
    # ``tobytes`` then interleaves them into per-position triples in
    # one strided copy (cheaper than three strided column stores).
    tok = _np.empty((3, v.size), _np.uint8)
    tok[0] = _np.where(short, el << 5, _np.uint8(0xE0)) | hi
    tok[1] = _np.where(short, lo, el - _np.uint8(7))
    tok[2] = lo
    mask = good.view(_np.uint8).tobytes()
    # Zero-copy: a memoryview over the int32 array indexes as plain
    # ints, and only the encoder's rare slow path ever touches it.
    refs = memoryview(prev)  # type: ignore[arg-type]
    return mask, refs, ml.tobytes(), tok.T.tobytes()


def _encode_span(
    d: bytes,
    mask: bytes,
    refs: "memoryview",
    mlens: bytes,
    toks: bytes,
    start: int,
    end: int,
    out: bytearray,
) -> None:
    """LZF-encode ``d[start:end]`` from precomputed candidates.

    All coordinates are absolute; back-reference offsets are position
    differences, so the emitted stream is identical to encoding the
    span as a standalone chunk (the mask guarantees ``refs[i] >=
    start`` for every candidate in the span).
    """
    append = out.append
    limit = end - 2      # last position where a 3-byte window fits
    lit = start          # start of the pending literal run
    find = mask.find
    i = find(1, start)
    while 0 <= i < limit:
        # Flush pending literals in batched 32-byte runs.  On dense
        # match streams most iterations carry none, hence the guard.
        if lit != i:
            j = lit
            while j < i:
                run = i - j
                if run > _MAX_LIT:
                    run = _MAX_LIT
                append(run - 1)
                out += d[j : j + run]
                j += run
        # ``_prepare`` computed the greedy length (to the ``_PRE_MAX``
        # sentinel) and the exact control bytes for it.  A sub-sentinel
        # match that fits the span is one pre-built slice append — the
        # hot path.  Sentinel matches gallop the rest of their length
        # with doubling slice comparisons at memcmp speed, binary-
        # searching the first mismatching chunk; slice equality is
        # element-wise at matching offsets, so overlapping
        # self-referential matches (RLE) extend exactly as the
        # per-byte reference loop does.  Matches crossing ``end``
        # clamp to the span — exactly where the reference stops.
        mlen = mlens[i]
        if mlen != _PRE_MAX and i + mlen <= end:
            t = 3 * i
            # Token length from the match length: the long form (3
            # control bytes) starts at length 9.
            out += toks[t : t + 2 + (mlen > 8)]
            i += mlen
            # Back-to-back matches — the dominant pattern on dense
            # streams — stay in this tight loop, skipping the outer
            # loop's literal-run bookkeeping entirely.
            while i < limit and mask[i]:
                mlen = mlens[i]
                if mlen == _PRE_MAX or i + mlen > end:
                    break
                t = 3 * i
                out += toks[t : t + 2 + (mlen > 8)]
                i += mlen
            lit = i
            if 0 <= i < limit and not mask[i]:
                i = find(1, i)
        else:
            ref = refs[i]
            maxlen = end - i
            if maxlen > _MAX_REF:
                maxlen = _MAX_REF
            if mlen >= maxlen:
                mlen = maxlen
            else:
                while mlen < maxlen:
                    step = maxlen - mlen
                    if step > mlen:
                        step = mlen
                    if d[ref + mlen : ref + mlen + step] == d[i + mlen : i + mlen + step]:
                        mlen += step
                    else:
                        lo = mlen  # prefix of length lo is known equal
                        hi = mlen + step - 1
                        while lo < hi:
                            mid = (lo + hi + 1) >> 1
                            if d[ref + lo : ref + mid] == d[i + lo : i + mid]:
                                lo = mid
                            else:
                                hi = mid - 1
                        mlen = lo
                        break
            enc_off = i - ref - 1
            enc_len = mlen - 2
            if enc_len < 7:
                append((enc_len << 5) | (enc_off >> 8))
            else:
                append(0xE0 | (enc_off >> 8))
                append(enc_len - 7)
            append(enc_off & 0xFF)
            i += mlen
            lit = i
            # Candidates inside the consumed match are dead: the
            # reference encoder never queries those positions (it
            # jumps to i + mlen), it only *stores* them — which the
            # chain already reflects.  The next position is usually
            # itself a candidate: one byte probe dodges the ``find``
            # call overhead.
            if i >= limit:
                break
            if not mask[i]:
                i = find(1, i)
    # Trailing literals (including the final 1-2 bytes never hashed).
    j = lit
    while j < end:
        run = end - j
        if run > _MAX_LIT:
            run = _MAX_LIT
        append(run - 1)
        out += d[j : j + run]
        j += run


def _compress_ref(d: bytes, n: int) -> bytes:
    """The reference per-position encoder (the executable format spec).

    This is the original pure-Python loop, kept verbatim: the fallback
    when numpy is missing, the small-input path, the identity oracle
    for the vectorized path in the tests, and the "before" baseline the
    compression benchmark measures against.
    """
    htab = [0] * _HSIZE
    out = bytearray()
    lit_start = 0  # start of the pending literal run
    i = 0
    last = n - 2   # last position where a 3-byte window fits

    while i < last:
        h = _hash3(d[i], d[i + 1], d[i + 2])
        ref = htab[h]
        htab[h] = i
        off = i - ref
        # A stored position of 0 is ambiguous (slot empty vs. match at
        # 0); verify bytes explicitly, which also rejects stale slots.
        if (
            0 < off <= _MAX_OFF
            and d[ref] == d[i]
            and d[ref + 1] == d[i + 1]
            and d[ref + 2] == d[i + 2]
        ):
            # Flush pending literals.
            j = lit_start
            while j < i:
                run = min(i - j, _MAX_LIT)
                out.append(run - 1)
                out += d[j : j + run]
                j += run
            # Extend the match greedily.
            maxlen = min(n - i, _MAX_REF)
            mlen = 3
            while mlen < maxlen and d[ref + mlen] == d[i + mlen]:
                mlen += 1
            enc_off = off - 1
            enc_len = mlen - 2
            if enc_len < 7:
                out.append((enc_len << 5) | (enc_off >> 8))
            else:
                out.append(0xE0 | (enc_off >> 8))
                out.append(enc_len - 7)
            out.append(enc_off & 0xFF)
            # Seed the hash table inside the match so subsequent data
            # can reference into it (the vectorized encoder's candidate
            # chain reproduces exactly this every-position seeding).
            stop = min(i + mlen, last)
            j = i + 1
            while j < stop:
                htab[_hash3(d[j], d[j + 1], d[j + 2])] = j
                j += 1
            i += mlen
            lit_start = i
        else:
            i += 1

    # Trailing literals (including the final 1-2 bytes never hashed).
    j = lit_start
    while j < n:
        run = min(n - j, _MAX_LIT)
        out.append(run - 1)
        out += d[j : j + run]
        j += run
    return bytes(out)


def lzf_decompress(data: bytes, expected_size: int | None = None) -> bytes:
    """Decompress an LZF chunk produced by :func:`lzf_compress`.

    ``expected_size`` is validated when provided (AdOC packet headers
    carry the original size, so corruption is caught here rather than by
    downstream consumers).
    """
    out = bytearray()
    i = 0
    n = len(data)
    d = data
    try:
        while i < n:
            ctrl = d[i]
            i += 1
            if ctrl < 32:
                # Literal run of ctrl+1 bytes.
                run = ctrl + 1
                if i + run > n:
                    raise CodecError("truncated literal run")
                out += d[i : i + run]
                i += run
            else:
                mlen = ctrl >> 5
                if mlen == 7:
                    mlen += d[i]
                    i += 1
                mlen += 2
                off = ((ctrl & 0x1F) << 8) | d[i]
                i += 1
                dist = off + 1
                pos = len(out) - dist
                if pos < 0:
                    raise CodecError("back reference before start of output")
                # Overlapping copies must be byte-at-a-time (RLE-style
                # references to just-written data are legal and common).
                if dist >= mlen:
                    out += out[pos : pos + mlen]
                else:
                    for _ in range(mlen):
                        out.append(out[pos])
                        pos += 1
    except IndexError as exc:
        raise CodecError("truncated LZF stream") from exc
    if expected_size is not None and len(out) != expected_size:
        raise CodecError(
            f"LZF output size {len(out)} != expected {expected_size}"
        )
    return bytes(out)


class LzfCodec(Codec):
    """AdOC compression level 1: the LZF fast compressor."""

    name = "lzf"

    def compress(self, data: bytes) -> bytes:
        return lzf_compress(data)

    def decompress(self, data: bytes, expected_size: int | None = None) -> bytes:
        return lzf_decompress(data, expected_size)
