"""End-to-end ingest: event files through replay into tally tables.

One loop, ``iter_timelines``, walks a task's inputs into one
``IngestResult``: ``ingest`` tallies its half-innings and ``query`` extracts
their observations.  The loop keeps three memos across its inputs, one of
play steps by token, one of cleaned advance sections and one of lineup
entries by line, and drops all three whole when the play or lineup memo
passes ``_MEMO_LIMIT`` entries.  Worker results under
``--jobs N`` merge with plain integer addition, so any partition of the
inputs produces the same tallies as a sequential pass, bit for bit.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

from .eventfile import Diagnostic, LineupMemo, iter_games
# unused here, but the benchmark's span hooks wrap these two by name
from .eventfile import assemble_games, tokenize_event_file
from .state import SectionMemo, StateTimeline, StepMemo, replay_game
from .stats import (
    CountingMode,
    InningCounts,
    SituationObservation,
    TallyTable,
    add_cells,
    extract_observations,
    tally_halves,
)

__all__ = [
    "SUMMARY",
    "IngestResult",
    "InputError",
    "collect_observations",
    "ingest_paths",
    "ingest_text",
    "iter_timelines",
]

# a task's memos are dropped whole, before its next input, once its play or
# lineup memo holds more entries than this; the section memo never holds
# more than the play memo, since each of its keys came from a distinct token
_MEMO_LIMIT = 65_536

# the summary counters, in the order and words of ingest's summary line
SUMMARY = ("games", "skipped", "half_innings", "quarantined", "incomplete", "observations")


@dataclass
class IngestResult:
    table: TallyTable = field(default_factory=TallyTable)
    innings: InningCounts = field(default_factory=InningCounts)
    # summary counter (a word of SUMMARY) -> count
    counts: Counter[str] = field(default_factory=Counter)
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
        self.counts.update(other.counts)
        self.diagnostic_counts.update(other.diagnostic_counts)
        self.game_files.update(other.game_files)
        self.file_digests.update(other.file_digests)
        return self


def iter_timelines(
    inputs: Iterable[tuple[str, str]],
    years: tuple[int, int] | None,
    result: IngestResult,
) -> Iterator[StateTimeline]:
    """Split, assemble and replay each ``(name, text)`` input's games, one
    game at a time through one play, section and lineup memo each, yielding
    every complete, unquarantined half-inning of the games inside
    ``years``.

    Games, skipped games, half-innings, quarantined and incomplete halves
    and diagnostic codes are counted into ``result`` along the way, and
    each counted game's id is kept with its input's name.  A game id that
    ``result`` already holds, from this input or an earlier one, raises
    ``InputError``: a game is counted once.  The diagnostics of an input's
    lines and blocks are counted once it is done, less those of games
    outside ``years``, which ``iter_games`` drops unbuilt.
    """
    steps: StepMemo = {}
    sections: SectionMemo = {}
    lineups: LineupMemo = {}
    counts = result.counts
    for source, text in inputs:
        if len(steps) > _MEMO_LIMIT or len(lineups) > _MEMO_LIMIT:
            steps.clear()
            sections.clear()
            lineups.clear()
        diags: list[Diagnostic] = []
        for account in iter_games(text, diags, years, lineups):
            if account is None:  # dropped at assembly, with one diagnostic
                counts["skipped"] += 1
                continue
            replay = replay_game(account, steps, sections)
            result.diagnostic_counts.update(diag.code for diag in replay.diagnostics)
            if not replay.timelines and replay.diagnostics:
                counts["skipped"] += 1
                continue
            if account.game_id in result.game_files:
                raise _counted_twice(account.game_id, result.game_files[account.game_id], source)
            result.game_files[account.game_id] = source
            counts["games"] += 1
            counts["half_innings"] += len(replay.timelines)
            for timeline in replay.timelines:
                if timeline.excluded is not None:
                    counts["quarantined"] += 1
                elif not timeline.complete:
                    counts["incomplete"] += 1
                else:
                    yield timeline
        result.diagnostic_counts.update(diag.code for diag in diags)


def _tally(result: IngestResult, timelines: Iterator[StateTimeline],
           mode: CountingMode) -> IngestResult:
    """Add every timeline's record of its observations and half-innings
    into ``result``, which the timelines count into too."""
    result.counts["observations"] += tally_halves(timelines, result.table, result.innings, mode)
    return result


def ingest_text(
    text: str,
    mode: CountingMode = CountingMode.INCLUDE_PLAY,
    years: tuple[int, int] | None = None,
) -> IngestResult:
    """Parse and replay one event file's text into tallies, as a task of
    one input named ``""``."""
    result = IngestResult()
    return _tally(result, iter_timelines([("", text)], years, result), mode)


class InputError(Exception):
    """An input event file could not be read, or holds a game that it or
    another input holds too."""


def _counted_twice(game_id: str, first: str, second: str) -> InputError:
    if first == second:
        return InputError(f"game {game_id} is twice in {first}")
    return InputError(f"game {game_id} is in both {first} and {second}")


def _read_files(paths: list[str], result: IngestResult) -> Iterator[tuple[str, str]]:
    r"""Each file's name and text, read as it is asked for, with its
    SHA-256 kept in ``result.file_digests``.  Bytes decoded as latin-1 split
    into the lines of ``read_text``: ``splitlines`` ends a line at "\r\n"
    and "\r" as the universal newlines do."""
    import hashlib  # OpenSSL is costly to load, and only ingest and query hash

    for path in paths:
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise InputError(f"cannot read input: {exc}") from None
        result.file_digests[path] = hashlib.sha256(data).hexdigest()
        yield path, data.decode("latin-1")


def _ingest_files(paths: list[str], mode: CountingMode,
                  years: tuple[int, int] | None) -> IngestResult:
    """One task: tally the files into one result."""
    result = IngestResult()
    return _tally(result, iter_timelines(_read_files(paths, result), years, result), mode)


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
    result = IngestResult()  # query reports none of ingest's counters
    inputs = _read_files(sorted(str(p) for p in paths), result)
    for timeline in iter_timelines(inputs, years, result):
        yield from extract_observations(timeline, mode)
