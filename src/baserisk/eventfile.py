"""Record-level parsing of event files and assembly into game accounts.

An event file is a sequence of comma-separated records (id, version, info,
start, sub, play, data, com, badj, padj, ladj).  Tokenizing never aborts:
bad lines become diagnostics and parsing continues, so one corrupt record
costs at most its own game.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from enum import Enum, IntEnum
from pathlib import Path

__all__ = [
    "Diagnostic",
    "GameAccount",
    "Half",
    "LineupEntry",
    "PlayLine",
    "RawRecord",
    "RecordKind",
    "SubLine",
    "assemble_games",
    "iter_games",
    "iter_records",
    "load_roster_names",
    "tokenize_event_file",
]


class RecordKind(Enum):
    ID = "id"
    VERSION = "version"
    INFO = "info"
    START = "start"
    SUB = "sub"
    PLAY = "play"
    DATA = "data"
    COM = "com"
    BADJ = "badj"
    PADJ = "padj"
    LADJ = "ladj"


class Half(IntEnum):
    TOP = 0
    BOTTOM = 1


_HALVES = {"0": Half.TOP, "1": Half.BOTTOM}


@dataclass
class RawRecord:
    kind: RecordKind
    fields: list[str]
    line_no: int


@dataclass
class Diagnostic:
    """One skipped or suspect piece of input, with enough context to audit."""

    code: str
    detail: str
    line_no: int | None = None
    game_id: str | None = None


@dataclass
class LineupEntry:
    player_id: str
    name: str
    team: int  # 0 visitor, 1 home
    batting_order: int
    position: int


class SubLine(LineupEntry):
    """A lineup change in the middle of the game's events."""


@dataclass
class PlayLine:
    inning: int
    half: Half
    batter_id: str
    event_text: str
    line_no: int


@dataclass
class GameAccount:
    game_id: str
    info: dict[str, str]
    starters: list[LineupEntry]
    events: list[PlayLine | SubLine]

    @property
    def season(self) -> int:
        date = self.info.get("date", "")
        try:
            return int(date.split("/")[0])
        except (ValueError, IndexError):
            # fall back to the year embedded in the game id, e.g. NYA200309180
            try:
                return int(self.game_id[3:7])
            except ValueError:
                return 0


def iter_records(text: str, diagnostics: list[Diagnostic]) -> Iterator[RawRecord]:
    """Split raw file text into typed records, one line at a time.

    Every non-empty line yields exactly one record or appends one diagnostic
    to ``diagnostics``.  Unknown record kinds are kept as Com records, with a
    diagnostic, so nothing is lost.
    """
    kinds = {k.value: k for k in RecordKind}
    # a line no longer than csv's field limit and without quotes splits the
    # same with str.split; the rest get a reader each, so an unclosed quote
    # costs only its own line
    limit = csv.field_size_limit()
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if '"' not in line and len(line) <= limit:
            cells = line.split(",")
        else:
            try:
                cells = next(csv.reader(io.StringIO(line)))
            except (csv.Error, StopIteration):
                diagnostics.append(Diagnostic("unreadable_line", line, line_no))
                continue
        if not cells or not cells[0]:
            diagnostics.append(Diagnostic("unreadable_line", line, line_no))
            continue
        kind = kinds.get(cells[0])
        if kind is None:
            diagnostics.append(
                Diagnostic("unknown_record_kind", cells[0], line_no)
            )
            yield RawRecord(RecordKind.COM, cells, line_no)
        else:
            yield RawRecord(kind, cells[1:], line_no)


def tokenize_event_file(text: str) -> tuple[list[RawRecord], list[Diagnostic]]:
    """Every record of the text, and the tokenizer's diagnostics."""
    diagnostics: list[Diagnostic] = []
    records = list(iter_records(text, diagnostics))
    return records, diagnostics


def _build_account(
    game_id: str, body: list[RawRecord], diagnostics: list[Diagnostic]
) -> Iterator[GameAccount]:
    """Yield the game the id and its records describe, or append the one
    diagnostic that drops it."""
    info: dict[str, str] = {}
    starters: list[LineupEntry] = []
    events: list[PlayLine | SubLine] = []

    for rec in body:
        f = rec.fields
        try:
            if rec.kind is RecordKind.INFO:
                if len(f) >= 2:
                    info[f[0]] = f[1]
                elif len(f) == 1:
                    info[f[0]] = ""
            elif rec.kind is RecordKind.START:
                starters.append(
                    LineupEntry(f[0], f[1], int(f[2]), int(f[3]), int(f[4]))
                )
            elif rec.kind is RecordKind.SUB:
                events.append(
                    SubLine(f[0], f[1], int(f[2]), int(f[3]), int(f[4]))
                )
            elif rec.kind is RecordKind.PLAY:
                inning = int(f[0])
                half = _HALVES.get(f[1])
                if half is None:  # any other spelling: accepted or rejected as by int()
                    half = Half(int(f[1]))
                events.append(
                    PlayLine(inning, half, f[2], f[5], rec.line_no)
                )
            # version / data / com / badj / padj / ladj: accepted and ignored
        except (ValueError, IndexError) as exc:
            diagnostics.append(
                Diagnostic(
                    "malformed_record", f"{rec.kind.value} {f!r} ({exc})",
                    rec.line_no, game_id,
                )
            )
            return

    for key in ("visteam", "hometeam", "date"):
        if key not in info:
            diagnostics.append(
                Diagnostic("missing_info", f"no {key} record", game_id=game_id)
            )
            return

    known = {s.player_id for s in starters}
    for ev in events:
        if isinstance(ev, SubLine):
            known.add(ev.player_id)
        elif ev.batter_id not in known:
            diagnostics.append(
                Diagnostic(
                    "orphan_player",
                    f"batter {ev.batter_id} not in lineup",
                    ev.line_no, game_id,
                )
            )
            return
    yield GameAccount(game_id, info, starters, events)


def iter_games(
    records: Iterable[RawRecord], diagnostics: list[Diagnostic]
) -> Iterator[GameAccount]:
    """Group records into GameAccounts, one per id record, yielding each as
    soon as the next id record or the end of the records closes it.

    Accounts that fail structural validation (missing required info, a play
    referencing a player never introduced, malformed cells) are skipped
    whole with one diagnostic naming the game; they are never silently
    truncated.
    """
    current_id: str | None = None
    body: list[RawRecord] = []
    for rec in records:
        if rec.kind is RecordKind.ID:
            if current_id is not None:
                yield from _build_account(current_id, body, diagnostics)
            if rec.fields and rec.fields[0]:
                current_id = rec.fields[0]
            else:
                diagnostics.append(
                    Diagnostic("missing_info", "id record without a game id", rec.line_no)
                )
                current_id = None
            body = []
        elif current_id is None:
            diagnostics.append(
                Diagnostic(
                    "orphan_record",
                    f"{rec.kind.value} record before any id",
                    rec.line_no,
                )
            )
        else:
            body.append(rec)
    if current_id is not None:
        yield from _build_account(current_id, body, diagnostics)


def assemble_games(
    records: list[RawRecord],
) -> tuple[list[GameAccount], list[Diagnostic]]:
    """Every game the records hold, and the assembler's diagnostics."""
    diagnostics: list[Diagnostic] = []
    games = list(iter_games(records, diagnostics))
    return games, diagnostics


def load_roster_names(paths: list[str | Path]) -> dict[str, tuple[str, str]]:
    """Read .ROS roster files into {player_id: (last, first)} for display."""
    names: dict[str, tuple[str, str]] = {}
    for path in paths:
        text = Path(path).read_text(encoding="latin-1")
        for row in csv.reader(io.StringIO(text)):
            if len(row) >= 3 and row[0]:
                names.setdefault(row[0], (row[1], row[2]))
    return names
