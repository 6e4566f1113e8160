"""Matrix workloads for the NetSolve experiments (Figs. 8-9).

The paper's dgemm requests use square matrices of two kinds (section
6.2):

* **"sparse" matrix** — a matrix full of zeros: trivially compressible,
  the best case for AdOC;
* **"dense" matrix** — entries with 13 significant digits and a random
  exponent between 1e-20 and 1e+20 ("as in some standard matrix
  libraries"): hard to compress, the worst realistic case.

NetSolve marshals matrices over its communicator; like NetSolve's
portable mode, our mini middleware ships them as fixed-width ASCII
scientific notation (:func:`encode_matrix_ascii`), which is what gives
the dense/sparse compressibility spread the paper measures (a dense
random-mantissa matrix in raw IEEE-754 is nearly incompressible, while
its 13-digit decimal form compresses ~2.5x and the zero matrix
collapses almost entirely).  A raw binary encoding is also provided for
completeness and the ablation benches.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "dense_matrix",
    "sparse_matrix",
    "encode_matrix_ascii",
    "decode_matrix_ascii",
    "encode_matrix_binary",
    "decode_matrix_binary",
]

#: Per-entry format: 13 significant digits, ``d.dddddddddddd E+xx``.
_FMT = "%+.12E "

#: Width of one ASCII token with a two-digit exponent, trailing space
#: included; a three-digit exponent makes it 21 bytes.  Bodies made only
#: of such tokens take the run-length decode path.
_TOKEN = 20

#: ``bytes.split()``'s whitespace: a run-length token may contain none
#: of these before its trailing space.
_SPACE = np.zeros(256, dtype=bool)
_SPACE[[9, 10, 11, 12, 13, 32]] = True


def dense_matrix(n: int, seed: int = 0) -> np.ndarray:
    """An ``n x n`` matrix of 13-significant-digit values, exponents in
    [1e-20, 1e+20] — the paper's "dense" (worst realistic) case."""
    rng = np.random.default_rng(seed)
    mantissa = rng.uniform(1.0, 10.0, size=(n, n))
    exponent = rng.integers(-20, 21, size=(n, n))
    # Round to 13 significant digits, as standard matrix libraries print.
    mantissa = np.round(mantissa, 12)
    return mantissa * np.power(10.0, exponent)


def sparse_matrix(n: int) -> np.ndarray:
    """An ``n x n`` matrix full of zeros — the paper's best case."""
    return np.zeros((n, n), dtype=np.float64)


def _format(values: list[float]) -> str:
    """The ``_FMT`` tokens of ``values``, concatenated."""
    return (_FMT * len(values)) % tuple(values)


def _parse(tokens: list[bytes]) -> np.ndarray:
    """Float64 values of whitespace-free ASCII tokens."""
    return np.array(tokens, dtype=np.float64)


def _run_starts(words: np.ndarray) -> np.ndarray:
    """Index of the first row of each run of identical rows of the 2-D
    ``words`` (row 0 always starts one)."""
    changed = np.zeros(max(len(words) - 1, 0), dtype=bool)
    for k in range(words.shape[1]):
        changed |= words[1:, k] != words[:-1, k]
        if changed.all():
            return np.arange(len(words))  # every row starts a run
    return np.concatenate(([0], np.flatnonzero(changed) + 1))


def encode_matrix_ascii(m: np.ndarray) -> bytes:
    """Serialize in scientific notation, 13 significant digits per entry
    (NetSolve-portable-style text marshalling).

    A ``MAT rows cols`` header line, then the entries row-major, each as
    ``"%+.12E "``: 20 bytes, 21 with a three-digit exponent, fewer for
    nan/inf.  Equal entries (same IEEE-754 bits) are formatted once per
    run and replicated, so the cost is O(n) numpy plus O(runs) Python.
    """
    if m.ndim != 2:
        raise ValueError("only 2-D matrices are marshalled")
    rows, cols = m.shape
    header = f"MAT {rows} {cols}\n".encode("ascii")
    flat = np.asarray(m, dtype=np.float64).ravel()
    # Runs by bit pattern: float == would merge -0.0 with +0.0 (different
    # text) and split equal NaNs.
    starts = _run_starts(flat.view(np.int64).reshape(-1, 1))
    if starts.size >= flat.size:
        body = _format(flat.tolist())
    else:
        lengths = np.diff(starts, append=flat.size).tolist()
        heads = _format(flat[starts].tolist()).split()
        body = "".join((tok + " ") * k for tok, k in zip(heads, lengths))
    return header + body.encode("ascii")


def _token_runs(body: bytes, n: int) -> tuple[list[bytes], np.ndarray] | None:
    """``(head tokens, run lengths)`` when ``body`` is ``n`` 20-byte
    tokens, each 19 non-whitespace bytes and a space, that repeat;
    ``None`` otherwise.

    Such a body splits into exactly those 19-byte tokens, and a token
    equal to its run's head needs no check of its own.
    """
    if n <= 0 or len(body) != n * _TOKEN:
        return None
    starts = _run_starts(np.frombuffer(body, dtype=np.uint32).reshape(n, -1))
    if starts.size == n:
        return None  # nothing repeats: one split() is cheaper
    heads = np.frombuffer(body, dtype=np.uint8).reshape(n, _TOKEN)[starts]
    if (heads[:, -1] != ord(" ")).any() or _SPACE[heads[:, :-1]].any():
        return None
    return heads.tobytes().split(), np.diff(starts, append=n)


def decode_matrix_ascii(data: bytes) -> np.ndarray:
    """Inverse of :func:`encode_matrix_ascii`, bit-identical to parsing
    every whitespace-separated token; repeated 20-byte tokens are parsed
    once per run."""
    nl = data.index(b"\n")
    tag, rows_s, cols_s = data[:nl].split()
    if tag != b"MAT":
        raise ValueError("not an ASCII matrix payload")
    rows, cols = int(rows_s), int(cols_s)
    body = data[nl + 1 :]
    runs = _token_runs(body, rows * cols)
    if runs is not None:
        heads, lengths = runs
        return np.repeat(_parse(heads), lengths).reshape(rows, cols)
    flat = _parse(body.split())
    if flat.size != rows * cols:
        raise ValueError(
            f"matrix payload has {flat.size} entries, expected {rows * cols}"
        )
    return flat.reshape(rows, cols)


def encode_matrix_binary(m: np.ndarray) -> bytes:
    """Raw IEEE-754 marshalling (ablation alternative)."""
    rows, cols = m.shape
    header = f"BIN {rows} {cols}\n".encode("ascii")
    return header + np.ascontiguousarray(m, dtype=np.float64).tobytes()


def decode_matrix_binary(data: bytes) -> np.ndarray:
    """Inverse of :func:`encode_matrix_binary`."""
    nl = data.index(b"\n")
    tag, rows_s, cols_s = data[:nl].split()
    if tag != b"BIN":
        raise ValueError("not a binary matrix payload")
    rows, cols = int(rows_s), int(cols_s)
    flat = np.frombuffer(data[nl + 1 :], dtype=np.float64)
    if flat.size != rows * cols:
        raise ValueError(
            f"matrix payload has {flat.size} entries, expected {rows * cols}"
        )
    return flat.reshape(rows, cols).copy()
