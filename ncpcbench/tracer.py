"""In-memory spans recorded from the benchmark's side of each layer boundary.

The program is never edited for tracing. While a `patched()` block is
active, selected public functions and methods of the ncpc modules are
replaced, in their owning module or class, by wrappers that record one
span per call: name, start and end (perf_counter_ns) and the index of the
enclosing span. The originals are restored when the block exits.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from ncpc import alphabetic, cli, revcanon, stream, succinct, table_codec

# (owner, attribute, span name). Module attributes are patched where the
# caller looks them up: ncpc.cli imports names directly, and the builders
# inside alphabetic/revcanon call their helpers through module globals.
ROUNDTRIP_TARGETS = [
    (cli, "container_write", "corpus.container_write"),
    (cli, "container_read", "corpus.container_read"),
    (cli, "huffman_lengths", "revcanon.huffman_lengths"),
    (cli, "RevCanonCode", "revcanon.code_build"),
    (revcanon, "WaveletTree", "wavelet.build"),
    (cli, "build_alphabetic_code", "alphabetic.build"),
    (alphabetic, "build_optimal_alphabetic", "alphabetic.optimal_tree"),
    (alphabetic, "build_height_restricted", "alphabetic.restrict_balance"),
    (alphabetic, "balance_at_cutoff", "alphabetic.restrict_balance"),
    (alphabetic, "compile_code", "alphabetic.compile"),
    (cli, "compile_code", "alphabetic.compile"),
    (stream.SequenceCodec, "for_code", "stream.codec_build"),
    (stream.SequenceCodec, "encode", "stream.encode"),
    (stream.SequenceCodec, "decode", "stream.decode"),
]

QUERY_TARGETS = [
    (revcanon.RevCanonCode, "encode", "revcanon.encode"),
    (revcanon.RevCanonCode, "decode", "revcanon.decode"),
    (succinct.WaveletTree, "access", "wavelet.access"),
    (succinct.WaveletTree, "rank", "wavelet.rank"),
    (succinct.WaveletTree, "select", "wavelet.select"),
    (alphabetic.CompactAlphabeticCode, "encode", "alphabetic.encode"),
    (alphabetic.CompactAlphabeticCode, "decode", "alphabetic.decode"),
    (table_codec.TableCode, "encode", "table.encode"),
    (table_codec.TableCode, "decode", "table.decode"),
]


class Tracer:
    """Spans as [name, start_ns, end_ns, parent index or -1], in call order."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_, clock = self.spans, self._open, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, open_[-1] if open_ else -1]
            spans.append(span)
            open_.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()

        return traced

    @contextmanager
    def patched(self, targets):
        saved = []
        try:
            for owner, attr, name in targets:
                raw = vars(owner)[attr]
                saved.append((owner, attr, raw))
                wrapper = self.wrap(name, getattr(owner, attr))
                setattr(owner, attr, staticmethod(wrapper) if isinstance(raw, classmethod)
                        else wrapper)
            yield
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def write(self, path) -> None:
        """One JSON object per line: id, name, start, end (ns), parent id or null."""
        with open(path, "w") as f:
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                    "parent": parent if parent >= 0 else None}) + "\n")


class SpanView:
    """Durations and self times (duration minus direct children) over spans[lo:hi]."""

    def __init__(self, spans: list[list], lo: int = 0, hi: int | None = None) -> None:
        self.spans = spans
        self.lo = lo
        self.hi = len(spans) if hi is None else hi
        self.child_ns: dict[int, int] = {}
        for i in range(self.lo, self.hi):
            parent = spans[i][3]
            if parent >= 0:
                self.child_ns[parent] = self.child_ns.get(parent, 0) + spans[i][2] - spans[i][1]

    def _select(self, name: str, parent: str | None):
        spans = self.spans
        for i in range(self.lo, self.hi):
            s = spans[i]
            if s[0] == name and (parent is None or (s[3] >= 0 and spans[s[3]][0] == parent)):
                yield i, s

    def durations(self, name: str, parent: str | None = None) -> list[int]:
        return [s[2] - s[1] for _, s in self._select(name, parent)]

    def self_times(self, name: str) -> list[int]:
        return [s[2] - s[1] - self.child_ns.get(i, 0) for i, s in self._select(name, None)]

    def total(self, name: str) -> int:
        return sum(self.durations(name))

    def self_total(self, name: str) -> int:
        return sum(self.self_times(name))
