"""End-to-end ingest: event files through replay into tally tables.

One loop, ``_file_timelines``, reads a task's input files into one
``IngestResult``: ``ingest`` tallies its half-innings and ``query`` extracts
their observations.  Worker results under ``--jobs N`` merge with plain
integer addition, so any partition of the inputs produces the same tallies
as a sequential pass, bit for bit.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

from .eventfile import Diagnostic, iter_games
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
    "InputError",
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
    # game id -> the input file that counted it
    game_files: dict[str, str] = field(default_factory=dict)
    # input file -> SHA-256 of the bytes ingested from it
    file_digests: dict[str, str] = field(default_factory=dict)

    def merge(self, other: "IngestResult") -> "IngestResult":
        """Add another worker's tallies and counters into this result in
        place.  Raises ``InputError``, and changes nothing, for a game id
        that both results counted: a game is counted once, so this is one
        game in two input files (a byte copy under another name, say)."""
        for game_id, path in other.game_files.items():
            if game_id in self.game_files:
                raise _counted_twice(game_id, self.game_files[game_id], path)
        add_cells(self.table.cells, other.table.cells)
        add_cells(self.innings.counts, other.innings.counts)
        self.games += other.games
        self.games_skipped += other.games_skipped
        self.half_innings += other.half_innings
        self.quarantined += other.quarantined
        self.incomplete += other.incomplete
        self.observations += other.observations
        self.diagnostic_counts.update(other.diagnostic_counts)
        self.game_files.update(other.game_files)
        self.file_digests.update(other.file_digests)
        return self


def iter_timelines(
    text: str,
    years: tuple[int, int] | None,
    result: IngestResult,
    steps: StepMemo,
    source: str = "",
) -> Iterator[StateTimeline]:
    """Split, assemble and replay one event file's text, one game at a
    time through the caller's play memo ``steps``, yielding every complete,
    unquarantined half-inning of the games inside ``years``.

    Games, skipped games, half-innings, quarantined and incomplete halves
    and diagnostic codes are counted into ``result`` along the way, and
    each counted game's id is kept with ``source``, the file's name.  A
    game id that ``result`` already holds, from this file or an earlier
    one, raises ``InputError``: a game is counted once.  The diagnostics of
    the file's lines and blocks are counted once it is done, less those of
    games outside ``years``, which ``iter_games`` drops unbuilt.
    """
    diags: list[Diagnostic] = []
    for account in iter_games(text, diags, years):
        if account is None:  # dropped at assembly, with one diagnostic
            result.games_skipped += 1
            continue
        replay = replay_game(account, steps)
        result.diagnostic_counts.update(diag.code for diag in replay.diagnostics)
        if not replay.timelines and replay.diagnostics:
            result.games_skipped += 1
            continue
        if account.game_id in result.game_files:
            raise _counted_twice(account.game_id, result.game_files[account.game_id], source)
        result.games += 1
        result.game_files[account.game_id] = source
        for timeline in replay.timelines:
            result.half_innings += 1
            if timeline.excluded is not None:
                result.quarantined += 1
            elif not timeline.complete:
                result.incomplete += 1
            else:
                yield timeline
    result.diagnostic_counts.update(diag.code for diag in diags)


def _tally(result: IngestResult, timelines: Iterator[StateTimeline],
           mode: CountingMode) -> IngestResult:
    """Extract and add every timeline's observations and half-innings into
    ``result``, which the timelines count into too."""
    for timeline in timelines:
        observations = extract_observations(timeline, mode)
        result.observations += len(observations)
        result.table.add_all(observations)
        result.innings.add_timeline(timeline)
    return result


def ingest_text(
    text: str,
    mode: CountingMode = CountingMode.INCLUDE_PLAY,
    years: tuple[int, int] | None = None,
) -> IngestResult:
    """Parse and replay one event file's text into tallies, through a play
    memo of its own."""
    result = IngestResult()
    return _tally(result, iter_timelines(text, years, result, {}), mode)


class InputError(Exception):
    """An input event file could not be read, or holds a game that it or
    another input holds too."""


def _counted_twice(game_id: str, first: str, second: str) -> InputError:
    if first == second:
        return InputError(f"game {game_id} is twice in {first}")
    return InputError(f"game {game_id} is in both {first} and {second}")


def _file_timelines(paths: list[str], years: tuple[int, int] | None,
                    result: IngestResult) -> Iterator[StateTimeline]:
    r"""Every usable half-inning of the files, in order, counted into the
    one ``result`` through one play memo, with each file's SHA-256 kept in
    ``file_digests``.  Bytes decoded as latin-1 split into the lines of
    ``read_text``: ``splitlines`` ends a line at "\r\n" and "\r" as the
    universal newlines do."""
    import hashlib  # OpenSSL is costly to load, and only ingest and query hash

    steps: StepMemo = {}
    for path in paths:
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise InputError(f"cannot read input: {exc}") from None
        result.file_digests[path] = hashlib.sha256(data).hexdigest()
        yield from iter_timelines(data.decode("latin-1"), years, result, steps, path)


def _ingest_files(paths: list[str], mode: CountingMode,
                  years: tuple[int, int] | None) -> IngestResult:
    """One task: tally the files into one result."""
    result = IngestResult()
    return _tally(result, _file_timelines(paths, years, result), mode)


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
        return _ingest_files(ordered, mode, years)
    # only ingest --jobs N with N > 1 loads the process pool
    from concurrent.futures import ProcessPoolExecutor

    result = IngestResult()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_ingest_files, [ordered[i::workers] for i in range(workers)],
                             [mode] * workers, [years] * workers):
            result.merge(part)
    return result


def collect_observations(
    paths: list[str | Path],
    mode: CountingMode = CountingMode.INCLUDE_PLAY,
    years: tuple[int, int] | None = None,
) -> Iterator[SituationObservation]:
    """Observation-level pass over raw files, for ad-hoc queries.  Yields
    as it goes, so only one file's text is held at a time, and raises
    ``InputError`` at a game id that an earlier game, in this file or an
    earlier one, had."""
    counts = IngestResult()  # query reports none of ingest's counters
    for timeline in _file_timelines(sorted(str(p) for p in paths), years, counts):
        yield from extract_observations(timeline, mode)
