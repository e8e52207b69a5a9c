"""Spans around the program's layer calls, recorded from outside the program.

``Tracer.install`` replaces the module globals and methods through which
``cli``, ``pipeline`` and ``stats`` reach each layer with wrappers that
record a span (name, start, end, parent) and, for some layers, a count of
the work done.  ``uninstall`` puts the originals back.  Spans stay in
memory until ``write``.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path

from baserisk import cli, oracle, pipeline, stats
from baserisk.pipeline import IngestResult
from baserisk.stats import InningCounts, TallyTable


def _one(args, result) -> int:
    return 1


def _snapshots(args, result) -> int:
    return sum(len(t.snapshots) for t in result.timelines)


def _cache_rows(args, result) -> int:
    return Path(args[0]).read_bytes().count(b"\n") - 2  # less manifest and header


def _cache_bytes(args, result) -> int:
    return Path(args[0]).stat().st_size


# (owner, attribute, span name, counters fed from the arguments and result)
LAYER_CALLS = (
    (cli, "ingest_paths", "pipeline.ingest_paths", ()),
    (pipeline, "ingest_text", "pipeline.ingest_text", ()),
    (pipeline, "tokenize_event_file", "eventfile.tokenize",
     (("eventfile.records", lambda args, result: len(result[0])),)),
    (pipeline, "assemble_games", "eventfile.assemble", ()),
    (pipeline, "replay_game", "state.replay", (("state.snapshots", _snapshots),)),
    (pipeline, "extract_observations", "stats.extract",
     (("stats.observations", lambda args, result: len(result)),)),
    (TallyTable, "add_all", "stats.tally", ()),
    (InningCounts, "add_timeline", "stats.tally", ()),
    (IngestResult, "merge", "pipeline.merge", (("pipeline.merge_calls", _one),)),
    (cli, "fingerprint_paths", "cache.fingerprint", ()),
    (cli, "write_cache", "cache.write",
     (("cache.rows", _cache_rows), ("cache.bytes", _cache_bytes))),
    (cli, "read_cache", "cache.read", ()),
    (cli, "bucket_report", "stats.bucket_report", ()),
    (cli, "rates", "stats.rates", (("stats.rates_calls", _one),)),
    (stats, "rates", "stats.rates", (("stats.rates_calls", _one),)),
    (cli, "career_high_leverage_innings", "stats.career_hl",
     (("stats.career_hl_calls", _one),)),
    (stats, "career_high_leverage_innings", "stats.career_hl",
     (("stats.career_hl_calls", _one),)),
    (cli, "render_table1", "reports.render", ()),
    (cli, "render_table2", "reports.render", ()),
    (cli, "render_table3", "reports.render", ()),
)

# calls the input generator makes while setting up
SETUP_CALLS = (
    (oracle, "simulate_season", "oracle.simulate", ()),
    (oracle, "emit_event_file", "oracle.emit", ()),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named name and return its result."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def _wrap(self, name: str, fn, counters):
        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            for counter, count in counters:
                self.counts[counter] += count(args, result)
            return result
        return traced

    def install(self, calls=LAYER_CALLS) -> None:
        for owner, attr, name, counters in calls:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counters))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def totals(self, first: int = 0) -> dict[str, float]:
        """Seconds per span name over spans[first:]."""
        out: dict[str, float] = {}
        for name, start, end, _ in self.spans[first:]:
            out[name] = out.get(name, 0.0) + end - start
        return out

    def self_times(self) -> list[float]:
        """Each span's duration less the time its direct children cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        own = self.self_times()
        with path.open("w", encoding="utf-8") as out:
            for (name, start, end, parent), self_s in zip(self.spans, own):
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "self_s": self_s}) + "\n")
