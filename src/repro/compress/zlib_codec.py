"""zlib codecs: AdOC compression levels 2..10 map to zlib levels 1..9.

The paper uses zlib (the library behind gzip) for everything above the
LZF fast path.  Table 1 of RR-5500 documents the behaviour this codec
family must exhibit: compression time grows with the level,
decompression time is roughly constant, and the ratio saturates after
level 6.  CPython's ``zlib`` is the same C library the paper used, so
levels here are numerically identical to the paper's "gzip N" rows.

``zlib.compress``/``zlib.decompress`` release the GIL while running,
which is what lets the live (threaded) AdOC pipeline genuinely overlap
compression with socket I/O for levels >= 2 even in Python.
"""

from __future__ import annotations

import zlib

from .base import Codec, CodecError

__all__ = ["ZlibCodec"]


class ZlibCodec(Codec):
    """A zlib codec pinned to one compression level (1..9)."""

    def __init__(self, level: int) -> None:
        if not 1 <= level <= 9:
            raise ValueError(f"zlib level must be in 1..9, got {level}")
        self.level = level
        self.name = f"zlib-{level}"

    def compress(self, data: bytes) -> bytes:
        return zlib.compress(data, self.level)

    def decompress(self, data: bytes, expected_size: int | None = None) -> bytes:
        """Inflate ``data``; with ``expected_size``, never past it.

        A record header's size bounds the output: a stream that would
        inflate further stops one byte over and is rejected, so a small
        hostile record cannot make the receiver allocate its full
        expansion.  A truncated stream and a size mismatch raise
        :exc:`CodecError`; bytes after the stream end are ignored.
        """
        try:
            if expected_size is None:
                return zlib.decompress(data)
            inflater = zlib.decompressobj()
            out = inflater.decompress(data, expected_size + 1)
        except zlib.error as exc:
            raise CodecError(f"zlib decode failed: {exc}") from exc
        if len(out) != expected_size:
            raise CodecError(
                f"zlib output size {len(out)} != expected {expected_size}"
            )
        if not inflater.eof:
            raise CodecError("zlib decode failed: incomplete or truncated stream")
        return out
