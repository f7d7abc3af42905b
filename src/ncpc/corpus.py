"""Corpus ingestion, synthetic generation, statistics, and the container format.

Container layout (little-endian integers, MSB-first bit fields):

  magic   4 bytes  "NCP1"
  version 1 byte   = 1
  family  1 byte   0 = alphabetic, 1 = reverse-canonical
  sigma   4 bytes  u32le
  n       8 bytes  u64le
  L       1 byte   max codeword length, at most 64
  depths  sigma fields of ceil(lg(L+1)) bits each, MSB-first, zero-padded
          to a byte boundary (nonzero pad bits are refused)
  payload encoded symbols, MSB-first, zero-padded to a byte boundary

The model is the depth array alone: reading a container computes the
family's codeword arrays from it, which is also its validation. Decoding
stops after exactly n symbols.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .alphabetic import alphabetic_codewords, alphabetic_profile
from .bits import pack_bits
from .codewords import MAX_CODEWORD_BITS, huffman_lengths, revcanon_codewords
from .errors import ContainerError, KraftViolation

MAGIC = b"NCP1"
VERSION = 1
FAMILY_ALPHA = 0
FAMILY_WMM = 1
FAMILY_BY_NAME = {"alpha": FAMILY_ALPHA, "wmm": FAMILY_WMM}

_HEADER_LEN = 4 + 1 + 1 + 4 + 8 + 1


@dataclass
class SymbolSequence:
    """Symbols are 32-bit ids in 1..sigma; freqs counts occurrences."""

    symbols: np.ndarray
    sigma: int
    freqs: np.ndarray

    @classmethod
    def from_symbols(cls, symbols, sigma: int) -> "SymbolSequence":
        arr = np.asarray(symbols, dtype=np.uint32)
        if sigma < 1:
            raise ValueError("sigma must be >= 1")
        if arr.size == 0:
            raise ValueError("empty sequence")
        if int(arr.min()) < 1 or int(arr.max()) > sigma:
            raise ValueError("symbol id out of range 1..sigma")
        freqs = np.bincount(arr, minlength=sigma + 1)[1:].astype(np.int64)
        return cls(arr, sigma, freqs)

    @property
    def n(self) -> int:
        return int(self.symbols.size)

    def smoothed_freqs(self) -> np.ndarray:
        """Occurrence counts with zeros lifted to 1 so codes cover the alphabet."""
        return np.maximum(self.freqs, 1)


def ingest(data: bytes, mode: str) -> SymbolSequence:
    """Map raw input to a dense symbol sequence.

    bytes / u32le: ids follow value order (present values compacted to
    ranks 1..sigma). tokens: whitespace-separated tokens, ids in
    first-occurrence order.
    """
    if mode == "bytes":
        if not data:
            raise ValueError("empty input")
        vals = np.frombuffer(data, dtype=np.uint8)
    elif mode == "u32le":
        if not data:
            raise ValueError("empty input")
        if len(data) % 4:
            raise ValueError("truncated u32 record")
        vals = np.frombuffer(data, dtype="<u4")
    elif mode == "tokens":
        toks = data.split()
        if not toks:
            raise ValueError("empty input")
        first: dict[bytes, int] = {}
        ids = np.empty(len(toks), dtype=np.uint32)
        for k, t in enumerate(toks):
            ids[k] = first.setdefault(t, len(first) + 1)
        return SymbolSequence.from_symbols(ids, len(first))
    else:
        raise ValueError(f"unknown ingest mode: {mode}")
    uniq = np.unique(vals)
    ids = (np.searchsorted(uniq, vals) + 1).astype(np.uint32)
    return SymbolSequence.from_symbols(ids, len(uniq))


def gen_zipf(n: int, sigma: int, s: float, seed: int) -> SymbolSequence:
    """Deterministic synthetic corpus with rank^-s symbol weights."""
    if n < 1 or sigma < 1:
        raise ValueError("n and sigma must be >= 1")
    if s < 0:
        raise ValueError("skew must be >= 0")
    ranks = np.arange(1, sigma + 1, dtype=np.float64)
    w = ranks ** (-float(s))
    w /= w.sum()
    rng = np.random.default_rng(seed)
    symbols = (rng.choice(sigma, size=n, p=w) + 1).astype(np.uint32)
    return SymbolSequence.from_symbols(symbols, sigma)


@dataclass
class CorpusStats:
    n: int
    sigma: int
    entropy: float        # bits per symbol of the empirical distribution
    max_code_len: int     # L of the built code
    depth_entropy: float  # zero-order entropy of the depth sequence D


def _entropy(counts: np.ndarray) -> float:
    counts = counts[counts > 0].astype(np.float64)
    total = counts.sum()
    if total <= 0 or counts.size <= 1:
        return 0.0
    p = counts / total
    return float(-(p * np.log2(p)).sum())


def family_depths(family: int, freqs) -> list[int]:
    """Depth array of the code a family builds for these frequencies."""
    if family == FAMILY_WMM:
        return huffman_lengths(freqs)
    if family == FAMILY_ALPHA:
        return list(alphabetic_profile(freqs).depths)
    raise ValueError(f"unknown code family: {family}")


def family_codewords(family: int, depths) -> tuple[np.ndarray, np.ndarray]:
    """(values, lengths) of a family's code; KraftViolation if it has no such depths."""
    if family == FAMILY_WMM:
        return revcanon_codewords(depths)
    if family == FAMILY_ALPHA:
        return alphabetic_codewords(depths)
    raise ContainerError(f"unknown family byte: {family}")


def depth_entropy(depths) -> float:
    """Zero-order entropy H0(D) of a depth sequence, in bits per entry."""
    return _entropy(np.bincount(np.asarray(depths, dtype=np.int64)))


def stats(seq: SymbolSequence, family: str = "wmm") -> CorpusStats:
    if family not in FAMILY_BY_NAME:
        raise ValueError(f"unknown code family: {family}")
    depths = family_depths(FAMILY_BY_NAME[family], seq.smoothed_freqs())
    return CorpusStats(
        n=seq.n,
        sigma=seq.sigma,
        entropy=_entropy(seq.freqs),
        max_code_len=max(depths),
        depth_entropy=depth_entropy(depths),
    )


class Container(NamedTuple):
    family: int
    sigma: int
    n: int
    depths: list[int]
    codewords: tuple[np.ndarray, np.ndarray]  # family_codewords(family, depths)
    payload_bytes: bytes


def container_write(depths, family: int, payload: bytes, n: int) -> bytes:
    """Serialize a code model plus an encoded payload."""
    depths = [int(d) for d in depths]
    if not depths:
        raise ValueError("empty model")
    if n < 0:
        raise ValueError("n must be >= 0")
    family_codewords(family, depths)  # validates the depths for the family
    return _container_bytes(depths, family, payload, n)


def _container_bytes(depths: list[int], family: int, payload: bytes, n: int) -> bytes:
    """container_write for depths that family_codewords has accepted."""
    sigma = len(depths)
    L = max(depths)
    if sigma > 0xFFFFFFFF:
        raise ValueError("sigma exceeds 32 bits")

    fields, _ = pack_bits(depths, L.bit_length())  # ceil(lg(L+1)) bits per depth
    return b"".join((MAGIC, bytes([VERSION, family]), sigma.to_bytes(4, "little"),
                     n.to_bytes(8, "little"), bytes([L]), fields, payload))


def container_read(data: bytes) -> Container:
    """Parse and validate container bytes, computing the code's codeword arrays."""
    if len(data) < _HEADER_LEN:
        raise ContainerError("container too short")
    if data[:4] != MAGIC:
        raise ContainerError("bad magic")
    if data[4] != VERSION:
        raise ContainerError(f"unsupported version: {data[4]}")
    family = data[5]
    sigma = int.from_bytes(data[6:10], "little")
    n = int.from_bytes(data[10:18], "little")
    L = data[18]
    if sigma < 1:
        raise ContainerError("sigma must be >= 1")
    if L > MAX_CODEWORD_BITS:
        raise ContainerError(f"max codeword length exceeds {MAX_CODEWORD_BITS}: {L}")
    if L == 0 and sigma > 1:
        # zero-width depth fields: nothing else would bound sigma by the file size
        raise ContainerError("L = 0 needs sigma = 1")
    width = L.bit_length()
    depth_bytes = (sigma * width + 7) // 8
    if len(data) < _HEADER_LEN + depth_bytes:
        raise ContainerError("container too short for the depth array")
    bits = np.unpackbits(np.frombuffer(data, np.uint8, depth_bytes, _HEADER_LEN))
    if bits[sigma * width:].any():
        raise ContainerError("nonzero pad bits after the depth array")
    fields = bits[:sigma * width].reshape(sigma, width)
    depths = (fields @ (1 << np.arange(width - 1, -1, -1))).tolist()
    if max(depths) != L:
        raise ContainerError("stored L does not match the depth array")
    try:
        codewords = family_codewords(family, depths)
    except KraftViolation as e:
        raise ContainerError(str(e)) from None
    return Container(family, sigma, n, depths, codewords, data[_HEADER_LEN + depth_bytes:])
