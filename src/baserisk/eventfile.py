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
from enum import IntEnum
from itertools import chain
from pathlib import Path

__all__ = [
    "Diagnostic",
    "GameAccount",
    "Half",
    "LineupEntry",
    "PlayLine",
    "SubLine",
    "assemble_games",
    "iter_games",
    "iter_records",
    "load_roster_names",
    "tokenize_event_file",
]

_KINDS = frozenset(
    ("id", "version", "info", "start", "sub", "play", "data", "com", "badj",
     "padj", "ladj")
)

# (kind, fields after the kind, line number)
Record = tuple[str, list[str], int]

# iter_records splits the text this many characters at a time, or a little more
_CHUNK = 1 << 16


class Half(IntEnum):
    TOP = 0
    BOTTOM = 1


_HALVES = {"0": Half.TOP, "1": Half.BOTTOM}


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
        return _season(self.game_id, self.info.get("date", ""))


def _season(game_id: str, date: str) -> int:
    """The year of a yyyy/mm/dd date, else of the game id (NYA200309180), else 0."""
    try:
        return int(date.split("/")[0])
    except ValueError:
        try:
            return int(game_id[3:7])
        except ValueError:
            return 0


def _chunks(text: str) -> Iterator[str]:
    r"""``text`` in pieces of about ``_CHUNK`` characters whose lines are
    exactly those of the whole text, so that ``splitlines`` need hold only
    one piece's lines at once.

    Each piece ends just after a "\n", which always ends a line and never
    splits a "\r\n" pair.  A stretch with no "\n" is one piece, however
    long.
    """
    start, end = 0, len(text)
    while start < end:
        stop = text.find("\n", start + _CHUNK) + 1 or end
        yield text[start:stop]
        start = stop


def iter_records(text: str, diagnostics: list[Diagnostic]) -> Iterator[Record]:
    """Split raw file text into (kind, fields, line_no) records, one line at
    a time.

    Every non-empty line yields exactly one record or appends one diagnostic
    to ``diagnostics``.  Unknown record kinds are kept as com records, with
    their kind as the first field and a diagnostic, so nothing is lost.
    """
    # a line no longer than csv's field limit and without quotes splits the
    # same with str.split; the rest get a reader each, so an unclosed quote
    # costs only its own line
    limit = csv.field_size_limit()
    lines = chain.from_iterable(map(str.splitlines, _chunks(text)))
    for line_no, line in enumerate(lines, start=1):
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
        kind = cells[0] if cells else ""
        if kind in _KINDS:
            yield kind, cells[1:], line_no
        elif not kind:
            diagnostics.append(Diagnostic("unreadable_line", line, line_no))
        else:
            diagnostics.append(Diagnostic("unknown_record_kind", kind, line_no))
            yield "com", cells, line_no


def tokenize_event_file(text: str) -> tuple[list[Record], list[Diagnostic]]:
    """Every record of the text, and the tokenizer's diagnostics."""
    diagnostics: list[Diagnostic] = []
    records = list(iter_records(text, diagnostics))
    return records, diagnostics


def _finish(
    game: GameAccount, error: Diagnostic | None, diagnostics: list[Diagnostic],
    mark: int, years: tuple[int, int] | None,
) -> Iterator[GameAccount | None]:
    """Yield a closed block's game, or ``None`` with the one diagnostic that
    drops it, or nothing for a block whose season is outside ``years``,
    whose diagnostics since its id record, at ``mark``, are deleted."""
    if years and not years[0] <= game.season <= years[1]:
        del diagnostics[mark:]
        return
    if error is None:
        for key in ("visteam", "hometeam", "date"):
            if key not in game.info:
                error = Diagnostic("missing_info", f"no {key} record", game_id=game.game_id)
                break
    if error is None:
        # every start record counts, one after its batter's play too
        known = {s.player_id for s in game.starters}
        for ev in game.events:
            if isinstance(ev, SubLine):
                known.add(ev.player_id)
            elif ev.batter_id not in known:
                error = Diagnostic(
                    "orphan_player", f"batter {ev.batter_id} not in lineup",
                    ev.line_no, game.game_id,
                )
                break
    if error is not None:
        diagnostics.append(error)
    yield None if error else game


def iter_games(
    records: Iterable[Record],
    diagnostics: list[Diagnostic],
    years: tuple[int, int] | None = None,
) -> Iterator[GameAccount | None]:
    """Fill one GameAccount per id record as its records arrive, and yield
    it as soon as the next id record or the end of the records closes it.

    An account that fails structural validation (malformed cells, missing
    required info, a play by a player never introduced) is dropped whole:
    ``None`` is yielded in its place, with one diagnostic naming the game,
    so it is never silently truncated.  With ``years``, a block of another
    season is dropped at close without a yield, and so are its diagnostics.
    Diagnostics that belong to no game block stay.
    """
    game: GameAccount | None = None
    error: Diagnostic | None = None  # the open block's first malformed record
    mark = 0
    for kind, f, line_no in records:
        if kind == "id":
            if game is not None:
                yield from _finish(game, error, diagnostics, mark, years)
            mark = len(diagnostics)
            error = None
            if f and f[0]:
                game = GameAccount(f[0], {}, [], [])
            else:
                diagnostics.append(
                    Diagnostic("missing_info", "id record without a game id", line_no)
                )
                game = None
        elif game is None:
            diagnostics.append(
                Diagnostic("orphan_record", f"{kind} record before any id", line_no)
            )
        else:
            # info is read after an error too: its last date sets the season
            try:
                if kind == "play":
                    inning = int(f[0])
                    half = _HALVES.get(f[1])
                    if half is None:  # any other spelling: accepted or rejected as by int()
                        half = Half(int(f[1]))
                    game.events.append(PlayLine(inning, half, f[2], f[5], line_no))
                elif kind == "start":
                    game.starters.append(
                        LineupEntry(f[0], f[1], int(f[2]), int(f[3]), int(f[4]))
                    )
                elif kind == "sub":
                    game.events.append(
                        SubLine(f[0], f[1], int(f[2]), int(f[3]), int(f[4]))
                    )
                elif kind == "info" and f:
                    game.info[f[0]] = f[1] if len(f) >= 2 else ""
                # version / data / com / badj / padj / ladj: accepted and ignored
            except (ValueError, IndexError) as exc:
                if error is None:
                    error = Diagnostic(
                        "malformed_record", f"{kind} {f!r} ({exc})", line_no, game.game_id
                    )
    if game is not None:
        yield from _finish(game, error, diagnostics, mark, years)


def assemble_games(
    records: list[Record],
) -> tuple[list[GameAccount], list[Diagnostic]]:
    """Every game the records hold, and the assembler's diagnostics."""
    diagnostics: list[Diagnostic] = []
    games = [game for game in iter_games(records, diagnostics) if game is not None]
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
