"""End-to-end ingest: event files through replay into tally tables.

The unit of parallelism is one list of input files; per-task results merge
with plain integer addition, so any partition of the inputs produces the
same tallies as a sequential pass, bit for bit.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .eventfile import Diagnostic, iter_games, iter_records
# unused here, but the benchmark's span hooks wrap these two by name
from .eventfile import assemble_games, tokenize_event_file
from .state import StateTimeline, StepMemo, replay_game
from .stats import (
    CountingMode,
    InningCounts,
    SituationObservation,
    TallyTable,
    add_cells,
    extract_observations,
)

__all__ = [
    "IngestResult",
    "collect_observations",
    "ingest_paths",
    "ingest_text",
    "iter_timelines",
]

@dataclass
class IngestResult:
    table: TallyTable = field(default_factory=TallyTable)
    innings: InningCounts = field(default_factory=InningCounts)
    games: int = 0
    games_skipped: int = 0
    half_innings: int = 0
    quarantined: int = 0
    incomplete: int = 0
    observations: int = 0
    diagnostic_counts: Counter[str] = field(default_factory=Counter)

    def _note(self, diagnostics: list[Diagnostic]) -> None:
        self.diagnostic_counts.update(diag.code for diag in diagnostics)

    def merge(self, other: "IngestResult") -> "IngestResult":
        """Add other's tallies and counters into this result in place."""
        add_cells(self.table.cells, other.table.cells)
        add_cells(self.innings.counts, other.innings.counts)
        self.games += other.games
        self.games_skipped += other.games_skipped
        self.half_innings += other.half_innings
        self.quarantined += other.quarantined
        self.incomplete += other.incomplete
        self.observations += other.observations
        self.diagnostic_counts.update(other.diagnostic_counts)
        return self


def iter_timelines(
    text: str, years: tuple[int, int] | None, result: IngestResult, steps: StepMemo
) -> Iterator[StateTimeline]:
    """Tokenize, assemble and replay one event file's text, one game at a
    time, yielding every complete, unquarantined half-inning of the games
    inside ``years``.

    Games, skipped games, half-innings, quarantined and incomplete halves
    and diagnostic codes are counted into ``result`` along the way; the
    file's tokenize and assemble diagnostics are counted once it is done,
    less those of games outside ``years``, which assembly drops with their
    diagnostics.  Every game replays through the caller's play memo
    ``steps``.
    """
    diags: list[Diagnostic] = []
    for account in iter_games(iter_records(text, diags), diags, years):
        if account is None:  # dropped at assembly, with one diagnostic
            result.games_skipped += 1
            continue
        replay = replay_game(account, steps)
        result._note(replay.diagnostics)
        if not replay.timelines and replay.diagnostics:
            result.games_skipped += 1
            continue
        result.games += 1
        for timeline in replay.timelines:
            result.half_innings += 1
            if timeline.excluded is not None:
                result.quarantined += 1
            elif not timeline.complete:
                result.incomplete += 1
            else:
                yield timeline
    result._note(diags)


def ingest_text(
    text: str,
    mode: CountingMode = CountingMode.INCLUDE_PLAY,
    years: tuple[int, int] | None = None,
    steps: StepMemo | None = None,
) -> IngestResult:
    """Parse and replay one event file's text into tallies, through the
    play memo ``steps`` or, without one, a memo of its own."""
    result = IngestResult()
    for timeline in iter_timelines(text, years, result, {} if steps is None else steps):
        observations = extract_observations(timeline, mode)
        result.observations += len(observations)
        result.table.add_all(observations)
        result.innings.add_timeline(timeline)
    return result


def _read_event_file(path: str) -> str:
    return Path(path).read_text(encoding="latin-1")


def _ingest_files(args: tuple[list[str], CountingMode, tuple[int, int] | None]) -> IngestResult:
    """One task: ingest the files in order through one play memo, which
    holds one entry per distinct (effect text, occupancy, outs) it meets."""
    paths, mode, years = args
    steps: StepMemo = {}
    result = IngestResult()
    for path in paths:
        result.merge(ingest_text(_read_event_file(path), mode, years, steps))
    return result


def ingest_paths(
    paths: list[str | Path],
    mode: CountingMode = CountingMode.INCLUDE_PLAY,
    years: tuple[int, int] | None = None,
    jobs: int = 1,
) -> IngestResult:
    """Ingest many event files as one task, or as ``jobs`` tasks of strided
    file lists over as many workers, never more workers than files."""
    ordered = sorted(str(p) for p in paths)
    # a fork-based pool starts every worker up front, so never more than files
    workers = min(jobs, len(ordered))
    if workers <= 1:
        return _ingest_files((ordered, mode, years))
    chunks = [(ordered[i::workers], mode, years) for i in range(workers)]
    result = IngestResult()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_ingest_files, chunks):
            result.merge(part)
    return result


def collect_observations(
    paths: list[str | Path],
    mode: CountingMode = CountingMode.INCLUDE_PLAY,
    years: tuple[int, int] | None = None,
) -> Iterator[SituationObservation]:
    """Observation-level pass over raw files, for ad-hoc queries.  Yields
    as it goes, so only one file's text is held at a time."""
    counts = IngestResult()  # query reports none of ingest's counters
    steps: StepMemo = {}
    for path in sorted(str(p) for p in paths):
        for timeline in iter_timelines(_read_event_file(path), years, counts, steps):
            yield from extract_observations(timeline, mode)
