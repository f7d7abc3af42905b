"""Compact representations of prefix-free codes that cannot be put into
canonical form: alphabetic codes with arithmetic encode/decode over a
marker bitvector, and optimal codes whose reversed codewords are
canonical (the form wavelet matrices need), stored as a depth sequence
in a wavelet matrix that the same kind of code shapes, with
rank-arithmetic codecs. A classical table codec serves as baseline.
"""

from .alphabetic import (CompactAlphabeticCode, DepthProfile, balance_at_cutoff,
                         build_alphabetic_code, build_height_restricted,
                         build_optimal_alphabetic, compile_code, cutoff_for,
                         expected_length, height_cap_for)
from .bits import BitReader, BitWriter
from .corpus import (Container, CorpusStats, SymbolSequence, container_read,
                     container_write, gen_zipf, ingest, stats)
from .codewords import huffman_lengths
from .errors import (ContainerError, InvalidCodeState, InvalidStream, KraftViolation,
                     NcpcError, NoSuchOccurrence, TruncatedStream, Underflow)
from .revcanon import DescentTable, RevCanonCode, build_descent_table
from .stream import SequenceCodec
from .succinct import Bitvector, WaveletTree
from .table_codec import TableCode

__version__ = "0.1.0"

__all__ = [
    "BitReader", "BitWriter", "Bitvector", "WaveletTree",
    "DepthProfile", "CompactAlphabeticCode", "build_optimal_alphabetic",
    "build_height_restricted", "balance_at_cutoff", "compile_code",
    "build_alphabetic_code", "expected_length", "cutoff_for", "height_cap_for",
    "RevCanonCode", "DescentTable", "huffman_lengths", "build_descent_table",
    "TableCode", "SequenceCodec",
    "SymbolSequence", "CorpusStats", "Container", "ingest", "gen_zipf", "stats",
    "container_read", "container_write",
    "NcpcError", "Underflow", "TruncatedStream", "NoSuchOccurrence",
    "KraftViolation", "ContainerError", "InvalidCodeState", "InvalidStream",
]
