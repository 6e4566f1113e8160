"""Workload substrate: the paper's data generators and bench files."""

from .._lazy import lazy_exports
from .generators import (
    DATA_CLASSES,
    ascii_data,
    binary_data,
    data_by_name,
    gzip6_ratio,
    incompressible_data,
)
from .matrices import (
    decode_matrix_ascii,
    decode_matrix_binary,
    dense_matrix,
    encode_matrix_ascii,
    encode_matrix_binary,
    sparse_matrix,
)

# File-format corpora for the benches; only the matrix codec is on the
# RPC path.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "HBMatrix": "harwell_boeing",
        "read_hb": "harwell_boeing",
        "synthetic_hb_bytes": "harwell_boeing",
        "write_hb": "harwell_boeing",
        "read_pnm": "images",
        "synthetic_image": "images",
        "write_pnm": "images",
        "synthetic_executable": "tarlike",
        "synthetic_tar_bytes": "tarlike",
    },
)

__all__ = [
    "ascii_data",
    "binary_data",
    "incompressible_data",
    "data_by_name",
    "gzip6_ratio",
    "DATA_CLASSES",
    "dense_matrix",
    "sparse_matrix",
    "encode_matrix_ascii",
    "decode_matrix_ascii",
    "encode_matrix_binary",
    "decode_matrix_binary",
    "HBMatrix",
    "write_hb",
    "read_hb",
    "synthetic_hb_bytes",
    "synthetic_executable",
    "synthetic_tar_bytes",
    "synthetic_image",
    "write_pnm",
    "read_pnm",
]
