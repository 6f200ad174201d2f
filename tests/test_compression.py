"""Tests for repro.compression: bitpack + codecs."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro._util.errors import CompressionError
from repro.compression import (
    CODEC_NAMES,
    DictionaryCodec,
    FrameOfReferenceCodec,
    RawCodec,
    RleCodec,
    best_codec,
    bits_needed,
    make_codec,
    pack_ints,
    unpack_ints,
)

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


class TestBitpack:
    def test_bits_needed(self):
        assert bits_needed(0) == 1
        assert bits_needed(1) == 1
        assert bits_needed(2) == 2
        assert bits_needed(255) == 8
        assert bits_needed(256) == 9

    def test_bits_needed_negative(self):
        with pytest.raises(CompressionError):
            bits_needed(-1)

    @pytest.mark.parametrize("bits", [1, 3, 7, 8, 13, 32, 63])
    def test_roundtrip_random(self, bits, rng):
        values = rng.integers(0, 1 << bits, 1000, dtype=np.uint64)
        packed = pack_ints(values, bits)
        assert packed.nbytes == int(np.ceil(1000 * bits / 8))
        out = unpack_ints(packed, bits, 1000)
        assert np.array_equal(out, values.astype(np.int64))

    def test_roundtrip_empty(self):
        assert pack_ints(np.empty(0, dtype=np.uint64), 4).size == 0
        assert unpack_ints(np.empty(0, dtype=np.uint8), 4, 0).size == 0

    def test_overflow_rejected(self):
        with pytest.raises(CompressionError):
            pack_ints(np.array([8]), bits=3)

    def test_bad_bits(self):
        with pytest.raises(CompressionError):
            pack_ints(np.array([1]), bits=0)
        with pytest.raises(CompressionError):
            unpack_ints(np.array([0], dtype=np.uint8), bits=65, count=1)

    def test_negative_count(self):
        with pytest.raises(CompressionError):
            unpack_ints(np.array([0], dtype=np.uint8), bits=4, count=-1)


def reference_pack(values: np.ndarray, bits: int) -> np.ndarray:
    """The per-bit layout definition: each code's ``bits`` binary digits,
    MSB first, fused by ``np.packbits`` (the original kernel)."""
    values = np.asarray(values, dtype=np.uint64)
    shifts = np.arange(bits - 1, -1, -1, dtype=np.uint64)
    bit_matrix = ((values[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bit_matrix.ravel())


@st.composite
def codes_and_bits(draw):
    bits = draw(st.integers(1, 64))
    top = (1 << bits) - 1
    count = draw(st.sampled_from([0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 200]))
    code = st.one_of(st.just(0), st.just(top), st.integers(0, top))
    values = draw(st.lists(code, min_size=count, max_size=count))
    return np.array(values, dtype=np.uint64), bits


class TestBitpackKernel:
    """The word kernels keep the per-bit ``np.packbits`` layout exactly."""

    @settings(max_examples=300, deadline=None)
    @given(codes_and_bits())
    def test_matches_reference_layout_and_inverts(self, case):
        values, bits = case
        packed = pack_ints(values, bits)
        reference = reference_pack(values, bits)
        assert packed.dtype == np.uint8
        assert packed.tobytes() == reference.tobytes()
        count = values.size
        out = unpack_ints(reference, bits, count, dtype=np.uint64)
        assert out.dtype == np.uint64 and np.array_equal(out, values)
        if count and int(values.max()) >= 2**63:
            with pytest.raises(CompressionError, match="does not fit in int64"):
                unpack_ints(reference, bits, count)
        else:
            out = unpack_ints(reference, bits, count)
            assert out.dtype == np.int64
            assert np.array_equal(out, values.astype(np.int64))

    def test_short_payload_rejected(self):
        packed = pack_ints(np.arange(10), 4)
        assert packed.size == 5
        with pytest.raises(CompressionError, match="need 5"):
            unpack_ints(packed[:2], 4, 10)
        with pytest.raises(CompressionError):
            unpack_ints(np.empty(0, dtype=np.uint8), 64, 1, dtype=np.uint64)

    def test_longer_payload_reads_its_prefix(self):
        packed = pack_ints(np.arange(10), 4)
        padded = np.concatenate([packed, np.full(3, 0xFF, dtype=np.uint8)])
        assert unpack_ints(padded, 4, 10).tolist() == list(range(10))

    @pytest.mark.parametrize(
        "values",
        [np.array([1.5]), np.array([1.0, 2.0]), np.array([1 + 0j]), np.array(["1"])],
    )
    def test_pack_rejects_non_integer_dtypes(self, values):
        with pytest.raises(CompressionError, match="integer codes"):
            pack_ints(values, 2)

    def test_pack_accepts_bool_and_narrow_ints(self):
        flags = pack_ints(np.array([True, False, True]), 1)
        assert unpack_ints(flags, 1, 3).tolist() == [1, 0, 1]
        narrow = np.array([0, 200, 255], dtype=np.uint8)
        assert unpack_ints(pack_ints(narrow, 8), 8, 3).tolist() == [0, 200, 255]

    @pytest.mark.parametrize("bits", [14, 40, 64])
    def test_peak_traced_bytes_per_value(self, bits):
        count = 8000
        values = np.random.default_rng(bits).integers(
            0, 2**bits - 1, count, dtype=np.uint64, endpoint=True
        )
        packed = pack_ints(values, bits)
        for run in (
            lambda: pack_ints(values, bits),
            lambda: unpack_ints(packed, bits, count, dtype=np.uint64),
        ):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak / count <= 160, f"{peak / count:.0f} B/value at {bits} bits"


@pytest.mark.parametrize("codec_name", CODEC_NAMES)
class TestCodecContract:
    def test_roundtrip_random(self, codec_name, rng):
        codec = make_codec(codec_name)
        values = rng.integers(0, 10_000, 5000)
        block = codec.encode(values)
        assert block.codec_name == codec_name
        assert block.n_values == 5000
        assert np.array_equal(codec.decode(block), values)

    def test_roundtrip_empty(self, codec_name):
        codec = make_codec(codec_name)
        block = codec.encode(np.empty(0, dtype=np.int64))
        assert codec.decode(block).size == 0
        assert block.bytes_per_value == float("inf")

    def test_roundtrip_constant(self, codec_name):
        codec = make_codec(codec_name)
        values = np.full(1000, 42, dtype=np.int64)
        assert np.array_equal(codec.decode(codec.encode(values)), values)

    def test_roundtrip_negative_values(self, codec_name):
        codec = make_codec(codec_name)
        values = np.array([-100, -1, 0, 1, 100], dtype=np.int64)
        assert np.array_equal(codec.decode(codec.encode(values)), values)

    def test_rejects_wrong_block(self, codec_name):
        codec = make_codec(codec_name)
        other = [n for n in CODEC_NAMES if n != codec_name][0]
        block = make_codec(other).encode(np.arange(4))
        with pytest.raises(CompressionError):
            codec.decode(block)

    def test_rejects_2d(self, codec_name):
        with pytest.raises(CompressionError):
            make_codec(codec_name).encode(np.zeros((2, 2), dtype=np.int64))


class TestCompressionRatios:
    def test_rle_wins_on_runs(self):
        values = np.repeat(np.arange(10), 1000)
        block = RleCodec().encode(values)
        assert block.nbytes < 0.01 * RawCodec().encode(values).nbytes

    def test_rle_expands_on_random(self, rng):
        values = rng.integers(0, 1 << 40, 1000)
        assert RleCodec().encode(values).nbytes > RawCodec().encode(values).nbytes

    def test_dictionary_wins_on_low_cardinality(self, rng):
        values = rng.choice([3, 17, 99], size=10_000)
        block = DictionaryCodec().encode(values)
        # 2 bits/value + tiny dictionary.
        assert block.bytes_per_value < 0.3

    def test_for_wins_on_small_spread(self, rng):
        values = rng.integers(1_000_000, 1_000_100, 10_000)
        block = FrameOfReferenceCodec().encode(values)
        assert block.bytes_per_value < 1.0  # 7 bits each

    def test_best_codec_picks_minimum(self, rng):
        values = np.repeat(7, 10_000)
        best = best_codec(values)
        assert best.codec_name == "rle"
        for name in CODEC_NAMES:
            assert best.nbytes <= make_codec(name).encode(values).nbytes

    def test_compressed_nbytes_helper(self, rng):
        values = rng.integers(0, 100, 100)
        codec = FrameOfReferenceCodec()
        assert codec.compressed_nbytes(values) == codec.encode(values).nbytes


class TestWideDomainRegression:
    """Pinned repros for the wide-domain int64 crash (PR 9 bugfix).

    ``FrameOfReferenceCodec`` used to compute ``values - reference`` in
    int64; a block whose spread reached 2**63 wrapped and either tripped
    ``bits_needed``'s negative guard or died inside ``pack_ints`` with a
    misleading "does not fit in 1 bits".  ``best_codec`` then raised on
    perfectly valid input.
    """

    def test_for_roundtrips_wide_spread(self):
        # The original crash repro: spread is exactly 2**63.
        values = np.array([-(2**62), 2**62], dtype=np.int64)
        block = FrameOfReferenceCodec().encode(values)
        assert np.array_equal(FrameOfReferenceCodec().decode(block), values)

    def test_for_roundtrips_full_int64_domain(self):
        values = np.array([INT64_MIN, -1, 0, 1, INT64_MAX], dtype=np.int64)
        block = FrameOfReferenceCodec().encode(values)
        assert block.payload["bits"] == 64
        assert np.array_equal(FrameOfReferenceCodec().decode(block), values)

    @pytest.mark.parametrize("codec_name", CODEC_NAMES)
    def test_every_codec_survives_extremes(self, codec_name):
        values = np.array(
            [INT64_MIN, INT64_MIN + 1, -(2**62), 0, 2**62, INT64_MAX],
            dtype=np.int64,
        )
        codec = make_codec(codec_name)
        assert np.array_equal(codec.decode(codec.encode(values)), values)

    def test_best_codec_never_raises_on_wide_blocks(self):
        # The headline symptom: the chooser crashed on valid input.
        for values in (
            np.array([-(2**62), 2**62]),
            np.array([INT64_MIN, INT64_MAX]),
            np.array([INT64_MIN]),
            np.full(100, INT64_MAX),
        ):
            block = best_codec(values)
            codec = make_codec(block.codec_name)
            assert np.array_equal(codec.decode(block), values)

    def test_best_codec_raises_on_invalid_input(self):
        # Genuinely invalid input (not 1-D) still fails loudly rather
        # than being silently skipped by the per-codec try/except.
        with pytest.raises(CompressionError):
            best_codec(np.zeros((3, 3), dtype=np.int64))

    def test_best_codec_deterministic_ties(self):
        values = np.arange(1000, dtype=np.int64)
        names = {best_codec(values).codec_name for _ in range(5)}
        assert len(names) == 1

    def test_unpack_bits64_sign_wrap_is_checked(self):
        # A 64-bit code >= 2**63 cannot be represented as int64; the
        # old code wrapped it silently negative.  Now it raises unless
        # the caller asks for the full uint64 code domain.
        packed = pack_ints(np.array([2**63], dtype=np.uint64), bits=64)
        with pytest.raises(CompressionError, match="does not fit in int64"):
            unpack_ints(packed, bits=64, count=1)
        out = unpack_ints(packed, bits=64, count=1, dtype=np.uint64)
        assert out.dtype == np.uint64
        assert int(out[0]) == 2**63

    def test_unpack_bits64_in_range_still_int64(self):
        packed = pack_ints(np.array([INT64_MAX], dtype=np.uint64), bits=64)
        out = unpack_ints(packed, bits=64, count=1)
        assert out.dtype == np.int64
        assert int(out[0]) == INT64_MAX

    def test_pack_rejects_negative_signed_codes(self):
        with pytest.raises(CompressionError, match="non-negative"):
            pack_ints(np.array([-1], dtype=np.int64), bits=4)


# Full-domain int64 arrays, biased toward the extremes that used to
# crash the frame-of-reference encoder.
extreme_int64_arrays = arrays(
    dtype=np.int64,
    shape=st.integers(0, 200),
    elements=st.one_of(
        st.integers(INT64_MIN, INT64_MAX),
        st.sampled_from(
            [INT64_MIN, INT64_MIN + 1, -(2**62), -1, 0, 1, 2**62, INT64_MAX]
        ),
    ),
)


class TestCodecProperties:
    """Hypothesis suites over the full int64 domain (PR 9)."""

    @pytest.mark.parametrize("codec_name", CODEC_NAMES)
    @given(values=extreme_int64_arrays)
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_is_identity(self, codec_name, values):
        codec = make_codec(codec_name)
        block = codec.encode(values)
        out = codec.decode(block)
        assert out.dtype == np.int64
        assert np.array_equal(out, values)

    @pytest.mark.parametrize("codec_name", CODEC_NAMES)
    @given(values=extreme_int64_arrays)
    @settings(max_examples=40, deadline=None)
    def test_nbytes_accounts_for_payload(self, codec_name, values):
        block = make_codec(codec_name).encode(values)
        payload = sum(
            v.nbytes
            for v in block.payload.values()
            if isinstance(v, np.ndarray)
        )
        assert block.nbytes >= payload
        assert block.n_values == values.size
        if values.size:
            assert block.bytes_per_value == block.nbytes / values.size

    @given(values=extreme_int64_arrays)
    @settings(max_examples=40, deadline=None)
    def test_best_codec_never_raises_on_valid_int64(self, values):
        block = best_codec(values)
        codec = make_codec(block.codec_name)
        assert np.array_equal(codec.decode(block), values)
        for name in CODEC_NAMES:
            try:
                other = make_codec(name).encode(values)
            except CompressionError:
                continue
            assert block.nbytes <= other.nbytes

    @pytest.mark.parametrize("codec_name", CODEC_NAMES)
    @given(
        value=st.integers(INT64_MIN, INT64_MAX),
        n=st.integers(1, 64),
        repeats=st.integers(2, 8),
    )
    @settings(max_examples=30, deadline=None)
    def test_bytes_per_value_monotone_on_repeats(
        self, codec_name, value, n, repeats
    ):
        # Repeating a block never worsens per-value cost: fixed header
        # and dictionary/reference overheads amortise.
        codec = make_codec(codec_name)
        base = np.full(n, value, dtype=np.int64)
        small = codec.encode(base)
        large = codec.encode(np.tile(base, repeats))
        assert large.bytes_per_value <= small.bytes_per_value + 1e-9


def _encode_all_then_min(values):
    """The reference chooser: encode with every codec, keep the smallest
    (first of equal sizes, in registration order)."""
    blocks = [make_codec(name).encode(values) for name in CODEC_NAMES]
    return min(blocks, key=lambda block: block.nbytes)


def _repeat(pairs):
    values, lengths = zip(*pairs)
    return np.repeat(np.array(values, dtype=np.int64), lengths)


# Blocks that win with every codec: empty (all tie at the header),
# constant and long-run blocks (rle), few distinct values (dict) and
# spreads from 1 bit up to [-2**62, 2**62] (for or raw).
chooser_blocks = st.one_of(
    st.just(np.empty(0, dtype=np.int64)),
    st.builds(
        lambda n, value: np.full(n, value, dtype=np.int64),
        st.integers(1, 300),
        st.integers(-(2**62), 2**62),
    ),
    st.lists(
        st.tuples(st.integers(-(2**62), 2**62), st.integers(1, 60)),
        min_size=1,
        max_size=20,
    ).map(_repeat),
    st.integers(0, 62).flatmap(
        lambda k: arrays(
            dtype=np.int64,
            shape=st.integers(1, 300),
            elements=st.integers(-(2**k), 2**k),
        )
    ),
)


class TestChooserPricing:
    """``best_codec`` prices every codec and encodes only the winner; it
    must pick exactly what encoding with all four and keeping the
    smallest picks."""

    @given(values=chooser_blocks)
    @settings(max_examples=300, deadline=None)
    def test_matches_encode_all_then_min(self, values):
        got, want = best_codec(values), _encode_all_then_min(values)
        assert (got.codec_name, got.n_values, got.nbytes) == (
            want.codec_name,
            want.n_values,
            want.nbytes,
        )
        assert got.payload.keys() == want.payload.keys()
        for key, expected in want.payload.items():
            actual = got.payload[key]
            if isinstance(expected, np.ndarray):
                assert actual.dtype == expected.dtype, key
                assert np.array_equal(actual, expected), key
            else:
                assert actual == expected, key

    def test_every_codec_can_win(self):
        blocks = {
            "raw": np.array([0, 2**62], dtype=np.int64),  # ties for
            "rle": np.full(1000, 7, dtype=np.int64),
            "dict": np.tile(np.array([0, 2**40, 2**50]), 200),
            "for": np.arange(1000, dtype=np.int64),
        }
        for name, values in blocks.items():
            assert best_codec(values).codec_name == name
            assert _encode_all_then_min(values).codec_name == name


class TestRegistry:
    def test_make_codec(self):
        for name in CODEC_NAMES:
            assert make_codec(name).name == name

    def test_unknown(self):
        with pytest.raises(CompressionError):
            make_codec("zstd")
