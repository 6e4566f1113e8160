"""Matrix workloads and NetSolve-style marshalling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data import (
    decode_matrix_ascii,
    decode_matrix_binary,
    dense_matrix,
    encode_matrix_ascii,
    encode_matrix_binary,
    gzip6_ratio,
    matrices,
    sparse_matrix,
)


class TestGeneration:
    def test_dense_shape_and_determinism(self):
        m = dense_matrix(32, seed=9)
        assert m.shape == (32, 32)
        assert np.array_equal(m, dense_matrix(32, seed=9))

    def test_dense_exponent_range(self):
        """Entries span the paper's 1e-20..1e+20 exponent range."""
        m = np.abs(dense_matrix(200, seed=1))
        assert m.min() < 1e-15
        assert m.max() > 1e15

    def test_sparse_is_all_zero(self):
        assert not sparse_matrix(64).any()


class TestAsciiMarshalling:
    def test_roundtrip_dense(self):
        m = dense_matrix(24, seed=3)
        back = decode_matrix_ascii(encode_matrix_ascii(m))
        # 13 significant digits survive the text round trip.
        np.testing.assert_allclose(back, m, rtol=1e-12)

    def test_roundtrip_sparse(self):
        m = sparse_matrix(24)
        assert not decode_matrix_ascii(encode_matrix_ascii(m)).any()

    def test_rejects_non_matrix_payload(self):
        with pytest.raises(ValueError):
            decode_matrix_ascii(b"BIN 2 2\nnope")

    def test_rejects_wrong_entry_count(self):
        good = encode_matrix_ascii(np.ones((2, 2)))
        truncated = good[:-20]  # drop one 20-byte token
        with pytest.raises(ValueError):
            decode_matrix_ascii(truncated)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            encode_matrix_ascii(np.ones(5))

    def test_compressibility_split(self):
        """The experiment's premise: sparse text collapses, dense barely
        compresses."""
        dense = encode_matrix_ascii(dense_matrix(100, seed=4))
        sparse = encode_matrix_ascii(sparse_matrix(100))
        assert gzip6_ratio(sparse) > 50
        assert gzip6_ratio(dense) < 3.5


class TestBinaryMarshalling:
    def test_roundtrip_exact(self):
        m = dense_matrix(16, seed=5)
        back = decode_matrix_binary(encode_matrix_binary(m))
        assert np.array_equal(back, m)

    def test_rejects_ascii_payload(self):
        with pytest.raises(ValueError):
            decode_matrix_binary(encode_matrix_ascii(np.ones((2, 2))))

    def test_rejects_truncation(self):
        raw = encode_matrix_binary(np.ones((4, 4)))
        with pytest.raises(ValueError):
            decode_matrix_binary(raw[:-8])


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=12),
    cols=st.integers(min_value=1, max_value=12),
    seed=st.integers(0, 100),
)
def test_ascii_roundtrip_property(rows, cols, seed):
    rng = np.random.default_rng(seed)
    m = rng.uniform(-1e3, 1e3, size=(rows, cols))
    back = decode_matrix_ascii(encode_matrix_ascii(m))
    np.testing.assert_allclose(back, m, rtol=1e-12)


# --- Run-length codec against the per-entry reference ---------------------


def _encode_ref(m: np.ndarray) -> bytes:
    """The per-entry encoder the run-length one must match byte for byte."""
    if m.ndim != 2:
        raise ValueError("only 2-D matrices are marshalled")
    rows, cols = m.shape
    header = f"MAT {rows} {cols}\n".encode("ascii")
    flat = np.asarray(m, dtype=np.float64).ravel()
    body = "".join("%+.12E " % v for v in flat)
    return header + body.encode("ascii")


def _decode_ref(data: bytes) -> np.ndarray:
    """The per-token decoder the run-length one must match bit for bit."""
    nl = data.index(b"\n")
    tag, rows_s, cols_s = data[:nl].split()
    if tag != b"MAT":
        raise ValueError("not an ASCII matrix payload")
    rows, cols = int(rows_s), int(cols_s)
    flat = np.array(data[nl + 1 :].split(), dtype=np.float64)
    if flat.size != rows * cols:
        raise ValueError(
            f"matrix payload has {flat.size} entries, expected {rows * cols}"
        )
    return flat.reshape(rows, cols)


def _bits(m: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(m).view(np.int64)


def _assert_same_decode(payload: bytes) -> None:
    """``decode_matrix_ascii`` returns ``_decode_ref``'s bits, or raises
    the same ``ValueError``."""
    try:
        want = _decode_ref(payload)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            decode_matrix_ascii(payload)
        assert str(got.value) == str(exc)
        return
    got = decode_matrix_ascii(payload)
    assert got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want))


_SPECIAL = [
    0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
    5e-324, -2.2250738585072014e-308, 1e-310,  # subnormal and smallest normal
    1e100, -3.5e-150, 1.7976931348623157e308,  # three-digit exponents
    1.0, 1.0 + 2**-52, 123456.789012345,
]

_entry = st.one_of(
    st.sampled_from(_SPECIAL),
    st.floats(width=64, allow_nan=True, allow_infinity=True, allow_subnormal=True),
    # Arbitrary bit patterns, NaNs with payloads among them.
    st.integers(-(2**63), 2**63 - 1).map(lambda b: float(np.int64(b).view(np.float64))),
)


@st.composite
def _matrices(draw):
    """Matrices built from runs of equal entries: long zero runs with
    scattered values, plus the views and dtypes services pass in."""
    rows = draw(st.integers(0, 9))
    cols = draw(st.integers(0, 9))
    n = rows * cols
    runs = draw(st.lists(st.tuples(_entry, st.integers(1, 40)), max_size=12))
    flat = np.zeros(n)
    pos = draw(st.integers(0, max(n - 1, 0)))
    for value, length in runs:
        flat[pos : pos + length] = value
        pos = (pos + length + draw(st.integers(0, 20))) % max(n, 1)
    m = flat.reshape(rows, cols)
    view = draw(st.sampled_from(["c", "T", "strided", "reversed", "f32", "int"]))
    if view == "T":
        return m.T
    if view == "strided":
        return m[::2, ::3]
    if view == "reversed":
        return m[::-1, ::-1]
    if view == "f32":
        with np.errstate(over="ignore", invalid="ignore"):
            return m.astype(np.float32)
    if view == "int":
        return np.nan_to_num(m, posinf=0.0, neginf=0.0).clip(-1e6, 1e6).astype(np.int64)
    return m


#: 20-byte tokens that are not one well-formed entry each.
_CRAFTED = [
    b"+1.000000000000E 00 ",  # interior space: splits in two
    b"+1.5000000 +2.50000 ",  # interior space, both halves parse
    b"   +1.00000000000E0 ",  # leading spaces
    b"1_0" + b"0" * 16 + b" ",  # underscore digit grouping
    b"+1.000000000000E+00\t",  # tab, not space, at the end
    b"+1.000000000000E+001",  # no separator: runs into the next token
    b" " * 20,
    b"\n+1.00000000000E+00 ",
]


class TestRunLengthParity:
    @settings(max_examples=300, deadline=None)
    @given(m=_matrices())
    @example(m=np.zeros((0, 4)))
    @example(m=np.zeros((3, 0)))
    @example(m=np.full((1, 1), -0.0))
    @example(m=np.array([[0.0, -0.0, -0.0, 0.0]]))
    @example(m=np.array([[np.nan, np.nan], [-np.nan, np.nan]]))
    @example(m=np.array([[1e100] * 5 + [1.0] * 5]))  # 21-byte tokens
    @example(m=sparse_matrix(64))
    @example(m=dense_matrix(16, seed=2))
    def test_encode_and_decode_match_reference(self, m):
        payload = encode_matrix_ascii(m)
        assert payload == _encode_ref(m)
        _assert_same_decode(payload)

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.integers(1, 6),
        cols=st.integers(1, 6),
        data=st.data(),
    )
    def test_malformed_fixed_width_bodies(self, rows, cols, data):
        """Bodies of exactly ``rows*cols*20`` bytes, fixed-width or not,
        decode to the reference's bits or fail as it fails."""
        valid = [_encode_ref(np.array([[v]]))[6:] for v in (0.0, -1.5, 2e-7)]
        alphabet = b"0123456789+-.eE_ \t\nnaifx\x00"
        garbage = st.lists(st.sampled_from(alphabet), min_size=20, max_size=20).map(bytes)
        token = st.one_of(st.sampled_from(valid + _CRAFTED), garbage)
        body = b""
        while len(body) < rows * cols * 20:
            body += data.draw(token) * data.draw(st.integers(1, 8))
        payload = f"MAT {rows} {cols}\n".encode() + body[: rows * cols * 20]
        _assert_same_decode(payload)

    @pytest.mark.parametrize("bad", _CRAFTED)
    @pytest.mark.parametrize("where", ["all", "middle", "first"])
    def test_crafted_fixed_width_bodies(self, bad, where):
        zero = b"+0.000000000000E+00 "
        body = {
            "all": bad * 6,
            "middle": zero * 2 + bad * 2 + zero * 2,
            "first": bad + zero * 5,
        }[where]
        _assert_same_decode(b"MAT 2 3\n" + body)

    def test_sparse_work_scales_with_runs(self, monkeypatch):
        """A 256x256 matrix of zeros and two values formats and parses
        one token per run (5), not one per entry (65 536): a lost
        run-length path fails here, not in a timing."""
        formatted, parsed = [], []
        fmt, parse = matrices._format, matrices._parse

        def counting_format(values):
            formatted.append(len(values))
            return fmt(values)

        def counting_parse(tokens):
            parsed.append(len(tokens))
            return parse(tokens)

        monkeypatch.setattr(matrices, "_format", counting_format)
        monkeypatch.setattr(matrices, "_parse", counting_parse)
        m = sparse_matrix(256)
        m[3, 7] = 2.5
        m[200, 0] = -1.0
        back = decode_matrix_ascii(encode_matrix_ascii(m))
        assert np.array_equal(back, m)
        assert sum(formatted) == 5  # zeros, 2.5, zeros, -1.0, zeros
        assert sum(parsed) == 5
