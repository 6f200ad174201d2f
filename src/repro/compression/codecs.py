"""Integer column codecs: RLE, dictionary, frame-of-reference.

"Data compression can be called upon to postpone the decisions to
forget data" (§4.4): at a fixed *byte* budget, a compressed column
holds more tuples, so fewer must be forgotten.  Experiment C2
quantifies exactly that trade per data distribution, and the
``CompressedCohortStore`` (``storage/compressed.py``) routes cold
cohorts through :func:`best_codec` on the live query path.

Every codec round-trips exactly (lossless) over the **full int64
domain** and reports its true encoded footprint, including per-block
metadata.

Block format.  A :class:`CompressedBlock` is ``_HEADER_BYTES`` of
fixed header (codec id, value count, two codec params) plus a codec
payload:

- ``raw``:  the int64 values verbatim (8 bytes each).
- ``rle``:  parallel int64 ``runs`` / ``lengths`` arrays (16 bytes per
  run).
- ``dict``: the sorted int64 ``dictionary`` (``np.unique`` order, so
  codes are rank-in-sorted-order — range predicates binary-search it)
  plus codes bit-packed at ``bits = bits_needed(len(dictionary) - 1)``.
- ``for``:  an int64 ``reference`` (the block minimum) plus offsets
  bit-packed at ``bits = bits_needed(max_offset)``.

Offset-domain contract (the PR 9 bugfix): frame-of-reference offsets
``v - reference`` are computed **in uint64 two's-complement
arithmetic**, never int64.  For int64 values ``v >= r`` the wrapped
difference ``(v - r) mod 2**64`` equals the true spread exactly, and
the spread of a legal int64 block can reach ``2**64 - 1`` — an int64
subtraction overflows for any block wider than ``2**63 - 1`` and
previously crashed the chooser on valid input.  Decode adds the
reference back in uint64 and reinterprets the bit pattern via
``.view(np.int64)``, restoring every int64 exactly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .._util.errors import CompressionError
from .bitpack import bits_needed, pack_ints, unpack_ints

__all__ = [
    "CompressedBlock",
    "Codec",
    "RawCodec",
    "RleCodec",
    "DictionaryCodec",
    "FrameOfReferenceCodec",
    "CODEC_NAMES",
    "make_codec",
    "best_codec",
]

_INT64_BYTES = 8
#: Fixed per-block header: codec id, value count, two codec params.
_HEADER_BYTES = 16


@dataclass(frozen=True)
class CompressedBlock:
    """An encoded value block plus the facts needed to decode it."""

    codec_name: str
    n_values: int
    payload: dict
    nbytes: int

    @property
    def bytes_per_value(self) -> float:
        """Amortised encoded size (inf for empty blocks)."""
        if self.n_values == 0:
            return float("inf")
        return self.nbytes / self.n_values


class Codec(ABC):
    """A lossless integer-array codec."""

    #: Short name used in registries and experiment tables.
    name: str = "abstract"

    @abstractmethod
    def encode(self, values: np.ndarray) -> CompressedBlock:
        """Encode a 1-D int64 array."""

    @abstractmethod
    def decode(self, block: CompressedBlock) -> np.ndarray:
        """Recover the original array from an encoded block."""

    def _check_input(self, values) -> np.ndarray:
        values = np.asarray(values)
        if values.ndim != 1:
            raise CompressionError(
                f"codecs encode 1-D arrays, got shape {values.shape}"
            )
        return values.astype(np.int64, copy=False)

    def _check_block(self, block: CompressedBlock) -> None:
        if block.codec_name != self.name:
            raise CompressionError(
                f"block was encoded with {block.codec_name!r}, "
                f"not {self.name!r}"
            )

    def compressed_nbytes(self, values: np.ndarray) -> int:
        """Encoded footprint without keeping the block."""
        return self.encode(values).nbytes


class RawCodec(Codec):
    """Identity codec: the uncompressed baseline (8 bytes per value)."""

    name = "raw"

    def encode(self, values):
        values = self._check_input(values)
        return CompressedBlock(
            codec_name=self.name,
            n_values=int(values.size),
            payload={"values": values.copy()},
            nbytes=_HEADER_BYTES + values.size * _INT64_BYTES,
        )

    def decode(self, block):
        self._check_block(block)
        return block.payload["values"].copy()


class RleCodec(Codec):
    """Run-length encoding: (value, run length) pairs.

    Shines on serial or heavily clustered data (sorted columns); on
    random data it degrades to ~2x expansion, which the experiments
    deliberately expose.
    """

    name = "rle"

    def encode(self, values):
        values = self._check_input(values)
        if values.size == 0:
            return CompressedBlock(self.name, 0, {"runs": np.empty(0, dtype=np.int64), "lengths": np.empty(0, dtype=np.int64)}, _HEADER_BYTES)
        change = np.flatnonzero(np.diff(values) != 0)
        starts = np.concatenate([[0], change + 1])
        run_values = values[starts]
        lengths = np.diff(np.concatenate([starts, [values.size]]))
        nbytes = _HEADER_BYTES + run_values.size * 2 * _INT64_BYTES
        return CompressedBlock(
            codec_name=self.name,
            n_values=int(values.size),
            payload={"runs": run_values, "lengths": lengths},
            nbytes=nbytes,
        )

    def decode(self, block):
        self._check_block(block)
        return np.repeat(block.payload["runs"], block.payload["lengths"])


class DictionaryCodec(Codec):
    """Dictionary encoding: distinct values + bit-packed codes.

    Ideal for low-cardinality (Zipfian) data where few distinct values
    dominate the column.
    """

    name = "dict"

    def encode(self, values):
        values = self._check_input(values)
        if values.size == 0:
            return CompressedBlock(self.name, 0, {"dictionary": np.empty(0, dtype=np.int64), "packed": np.empty(0, dtype=np.uint8), "bits": 1}, _HEADER_BYTES)
        dictionary, codes = np.unique(values, return_inverse=True)
        bits = bits_needed(int(dictionary.size - 1))
        packed = pack_ints(codes, bits)
        nbytes = _HEADER_BYTES + dictionary.size * _INT64_BYTES + packed.nbytes
        return CompressedBlock(
            codec_name=self.name,
            n_values=int(values.size),
            payload={"dictionary": dictionary, "packed": packed, "bits": bits},
            nbytes=nbytes,
        )

    def decode(self, block):
        self._check_block(block)
        if block.n_values == 0:
            return np.empty(0, dtype=np.int64)
        codes = unpack_ints(
            block.payload["packed"], block.payload["bits"], block.n_values
        )
        return block.payload["dictionary"][codes]


class FrameOfReferenceCodec(Codec):
    """Frame of reference: subtract the block minimum, bit-pack the rest.

    The workhorse for bounded domains (all the paper's distributions
    live in [0, DOMAIN]): footprint is ``ceil(log2(spread))`` bits per
    value regardless of cardinality.
    """

    name = "for"

    def encode(self, values):
        values = self._check_input(values)
        if values.size == 0:
            return CompressedBlock(self.name, 0, {"reference": 0, "packed": np.empty(0, dtype=np.uint8), "bits": 1}, _HEADER_BYTES)
        reference = int(values.min())
        # Offsets live in the uint64 domain: an int64 block's spread can
        # reach 2**64 - 1, which int64 subtraction would wrap (the old
        # crash on e.g. [-2**62, 2**62]).  Two's complement makes the
        # wrapped uint64 difference exact for every v >= reference.
        ref_u = np.uint64(reference & 0xFFFFFFFFFFFFFFFF)
        offsets = values.view(np.uint64) - ref_u
        bits = bits_needed(int(offsets.max()))
        packed = pack_ints(offsets, bits)
        nbytes = _HEADER_BYTES + packed.nbytes
        return CompressedBlock(
            codec_name=self.name,
            n_values=int(values.size),
            payload={"reference": reference, "packed": packed, "bits": bits},
            nbytes=nbytes,
        )

    def decode(self, block):
        self._check_block(block)
        if block.n_values == 0:
            return np.empty(0, dtype=np.int64)
        offsets = unpack_ints(
            block.payload["packed"],
            block.payload["bits"],
            block.n_values,
            dtype=np.uint64,
        )
        # Undo the encode-side wrap: add the reference back in uint64,
        # then reinterpret the bit pattern as int64 (exact inverse).
        reference = int(block.payload["reference"])
        ref_u = np.uint64(reference & 0xFFFFFFFFFFFFFFFF)
        return (offsets + ref_u).view(np.int64)


_CODECS = {
    codec.name: codec
    for codec in (RawCodec(), RleCodec(), DictionaryCodec(), FrameOfReferenceCodec())
}

CODEC_NAMES = tuple(_CODECS)


def make_codec(name: str) -> Codec:
    """Look a codec up by short name (codecs are stateless singletons)."""
    try:
        return _CODECS[name]
    except KeyError:
        raise CompressionError(
            f"unknown codec {name!r}; choose from {CODEC_NAMES}"
        ) from None


def best_codec(values: np.ndarray) -> CompressedBlock:
    """Encode with the codec whose block would be smallest.

    This is the per-block "lightweight compression chooser" columnar
    engines run at load time.  Every codec's footprint follows from the
    value count ``n``, the run count, the distinct count and
    :func:`~repro.compression.bitpack.bits_needed` — raw ``16 + 8n``,
    rle ``16 + 16·runs``, dict ``16 + 8·distinct + ⌈n·bits/8⌉``, for
    ``16 + ⌈n·bits/8⌉`` — so only the winner is encoded.  Ties on
    ``nbytes`` break deterministically by registration order
    (raw, rle, dict, for).  The chooser never raises on a valid int64
    block; invalid input (wrong shape) raises crisply.
    """
    # Validate once up front so bad input fails with the real reason.
    probe = np.asarray(values)
    if probe.ndim != 1:
        raise CompressionError(
            f"codecs encode 1-D arrays, got shape {probe.shape}"
        )
    values = probe.astype(np.int64, copy=False)
    n = int(values.size)
    nbytes = {"raw": _HEADER_BYTES + n * _INT64_BYTES}
    if n:
        ordered = np.sort(values)
        distinct = 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))
        runs = 1 + int(np.count_nonzero(values[1:] != values[:-1]))
        spread = int(ordered[-1]) - int(ordered[0])

        def packed(bits: int) -> int:
            return (n * bits + 7) // 8

        nbytes["rle"] = _HEADER_BYTES + runs * 2 * _INT64_BYTES
        nbytes["dict"] = (
            _HEADER_BYTES
            + distinct * _INT64_BYTES
            + packed(bits_needed(distinct - 1))
        )
        nbytes["for"] = _HEADER_BYTES + packed(bits_needed(spread))
    # ``min`` keeps the first of equal keys: registration order.
    return _CODECS[min(nbytes, key=nbytes.__getitem__)].encode(values)
