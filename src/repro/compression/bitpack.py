"""Bit-packing primitives.

Dictionary and frame-of-reference codecs reduce values to small
non-negative codes; packing those codes at their minimal bit width is
where the actual compression happens, so reported footprints are what a
columnar engine would genuinely write.

Layout: the codes form one MSB-first bit stream, ``bits`` bits per
code, zero-padded to a whole byte — byte for byte what
:func:`numpy.packbits` makes of each code's binary digits.
:func:`unpack_ints` moves whole words: codes ``i`` and ``i + 8`` start
exactly ``bits`` bytes apart, so one row of eight codes fills ``bits``
bytes and each code sits at a fixed bit offset of a byte window in its
row.  Each code is read out of that window as one big-endian 64-bit
word (plus a ninth byte when a code of 58 bits or more straddles it),
then shifted and masked.  :func:`pack_ints` left-aligns each code in
its low ``ceil(bits / 8)`` big-endian bytes, expands only those bytes'
first ``bits`` binary digits (one byte per digit) and lets
:func:`numpy.packbits` fuse them.

Domain contract: packed values live in the **uint64 code domain**
``[0, 2**64 - 1]``.  :func:`pack_ints` takes integer (or bool) input
and interprets it as uint64 (negative int64 inputs are rejected up
front rather than silently reinterpreted, float input rather than
truncated), and :func:`unpack_ints` reconstructs in uint64.  The
return dtype is chosen by the caller: the default ``dtype=np.int64``
is a *checked* narrowing — any recovered value ≥ 2**63 raises
:class:`CompressionError` instead of wrapping negative (the same
checked-cast doctrine the ingest path applies to user input) — while
``dtype=np.uint64`` hands back the full code domain for callers, like
the frame-of-reference codec, whose offsets legitimately span it.
"""

from __future__ import annotations

import numpy as np

from .._util.errors import CompressionError

__all__ = ["bits_needed", "pack_ints", "unpack_ints"]

_INT64_SIGN_BIT = 1 << 63
_WORD = np.dtype(">u8")  # one big-endian 64-bit window


def bits_needed(max_value: int) -> int:
    """Bits required to represent values in ``[0, max_value]``.

    >>> bits_needed(0), bits_needed(1), bits_needed(255), bits_needed(256)
    (1, 1, 8, 9)
    """
    if max_value < 0:
        raise CompressionError(f"max_value must be >= 0, got {max_value}")
    return max(int(max_value).bit_length(), 1)


def pack_ints(values: np.ndarray, bits: int) -> np.ndarray:
    """Pack non-negative ints into a dense uint8 buffer at ``bits`` each.

    >>> packed = pack_ints(np.array([1, 2, 3]), bits=2)
    >>> packed.nbytes
    1
    >>> unpack_ints(packed, bits=2, count=3).tolist()
    [1, 2, 3]
    """
    raw = np.asarray(values)
    if not (np.issubdtype(raw.dtype, np.integer) or raw.dtype == np.bool_):
        raise CompressionError(
            f"pack_ints packs integer codes, got dtype {raw.dtype}"
        )
    if np.issubdtype(raw.dtype, np.signedinteger) and raw.size and raw.min() < 0:
        raise CompressionError(
            f"pack_ints packs non-negative codes, got {int(raw.min())}"
        )
    values = raw.astype(np.uint64, copy=False).ravel()
    if not 1 <= bits <= 64:
        raise CompressionError(f"bits must be in [1, 64], got {bits}")
    if values.size and bits < 64 and int(values.max()) >= (1 << bits):
        raise CompressionError(
            f"value {int(values.max())} does not fit in {bits} bits"
        )
    width = -(-bits // 8)  # significant bytes per code
    # Left-align each code in its low `width` bytes, so its digits are
    # the first `bits` that unpackbits yields for them.
    aligned = (values << np.uint64(8 * width - bits)).astype(_WORD)
    low_bytes = aligned.view(np.uint8).reshape(-1, 8)[:, 8 - width :]
    return np.packbits(np.unpackbits(low_bytes, axis=1, count=bits))


def unpack_ints(
    packed: np.ndarray, bits: int, count: int, *, dtype=np.int64
) -> np.ndarray:
    """Inverse of :func:`pack_ints`: recover ``count`` values.

    Reconstruction happens in uint64; ``dtype`` picks the return
    domain.  ``np.int64`` (the default) is checked — a recovered value
    ≥ 2**63 cannot be represented and raises :class:`CompressionError`
    rather than wrapping negative.  ``np.uint64`` returns the full
    code domain unchecked (every packed value fits by construction).
    A ``packed`` buffer shorter than the ``ceil(count * bits / 8)``
    bytes the codes occupy raises :class:`CompressionError`.
    """
    if not 1 <= bits <= 64:
        raise CompressionError(f"bits must be in [1, 64], got {bits}")
    if count < 0:
        raise CompressionError(f"count must be >= 0, got {count}")
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.int64), np.dtype(np.uint64)):
        raise CompressionError(
            f"unpack_ints returns int64 or uint64, got {dtype}"
        )
    if count == 0:
        return np.empty(0, dtype=dtype)
    packed = np.asarray(packed, dtype=np.uint8).ravel()
    nbytes = (count * bits + 7) // 8
    if packed.size < nbytes:
        raise CompressionError(
            f"packed payload holds {packed.size} bytes; {count} values "
            f"at {bits} bits need {nbytes}"
        )
    rows = -(-count // 8)
    # Zero tail so the last row's 9-byte windows lie inside the buffer.
    buf = np.zeros(rows * bits + 9, dtype=np.uint8)
    buf[:nbytes] = packed[:nbytes]
    # Code 8r + k starts at bit shift[k] of byte r * bits + byte[k].
    start = np.arange(8, dtype=np.uint64) * np.uint64(bits)
    byte, shift = (start >> np.uint64(3)).astype(np.intp), start & np.uint64(7)
    # words[r, j] is the big-endian word starting at byte r * bits + j.
    words = np.ndarray((rows, bits), _WORD, buf, 0, (bits, 1))
    codes = words[:, byte].astype(np.uint64)
    codes <<= shift
    if bits > 57:
        ninth = np.ndarray((rows, bits), np.uint8, buf, 8, (bits, 1))[:, byte]
        codes |= ninth.astype(np.uint64) >> (np.uint64(8) - shift)
    codes >>= np.uint64(64 - bits)
    codes = codes.ravel()[:count]
    if dtype == np.dtype(np.uint64):
        return codes
    if bits == 64 and int(codes.max()) >= _INT64_SIGN_BIT:
        overflow = int(codes.max())
        raise CompressionError(
            f"unpacked value {overflow} does not fit in int64; "
            "request dtype=np.uint64 to read the full code domain"
        )
    return codes.view(np.int64)
