"""Compression substrate: the codecs behind AdOC's compression levels.

Level 0 is the identity, level 1 is LZF (implemented from scratch in
:mod:`repro.compress.lzf`), levels 2..10 are zlib 1..9.
"""

from .._lazy import lazy_exports
from .base import Codec, CodecError
from .lzf import LzfCodec, lzf_compress, lzf_decompress
from .null import NullCodec
from .registry import (
    ADOC_MAX_LEVEL,
    ADOC_MIN_LEVEL,
    all_levels,
    codec_for_level,
    level_name,
)
from .zlib_codec import ZlibCodec

# Neither the image codec nor Huffman is on AdOC's level ladder.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "HuffmanCodec": "huffman",
        "huffman_compress": "huffman",
        "huffman_decompress": "huffman",
        "RESOLUTION_LEVELS": "lossy",
        "compress_image": "lossy",
        "decompress_image": "lossy",
        "psnr": "lossy",
        "thumbnail_ladder": "lossy",
    },
)

__all__ = [
    "Codec",
    "CodecError",
    "LzfCodec",
    "NullCodec",
    "ZlibCodec",
    "lzf_compress",
    "lzf_decompress",
    "HuffmanCodec",
    "huffman_compress",
    "huffman_decompress",
    "codec_for_level",
    "all_levels",
    "level_name",
    "ADOC_MIN_LEVEL",
    "ADOC_MAX_LEVEL",
    "compress_image",
    "decompress_image",
    "psnr",
    "thumbnail_ladder",
    "RESOLUTION_LEVELS",
]
