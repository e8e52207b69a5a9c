"""Record-level parsing of event files and assembly into game accounts.

An event file is a sequence of comma-separated records (id, version, info,
start, sub, play, radj, data, com, badj, padj, ladj).  Tokenizing never
aborts: bad lines become diagnostics and parsing continues, so one corrupt
record costs at most its own game.

``iter_games`` reads a file in one pass.  It checks each play's batter
against the lineup as the play's line is read, and it builds each distinct
``start`` or ``sub`` line once per ingest task: a repeat of the line, in the
same file or a later file of the task, shares the entry built from its
first reading.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterator
from dataclasses import dataclass
from enum import IntEnum
from itertools import chain
from pathlib import Path

__all__ = [
    "Diagnostic",
    "GameAccount",
    "Half",
    "LineupEntry",
    "PlacedRunner",
    "PlayLine",
    "SubLine",
    "assemble_games",
    "iter_games",
    "load_roster_names",
    "tokenize_event_file",
]

_KINDS = frozenset(
    ("id", "version", "info", "start", "sub", "play", "radj", "data", "com",
     "badj", "padj", "ladj")
)

# (kind, fields after the kind, line number)
Record = tuple[str, list[str], int]

# lines are split this many characters of text at a time, or a little more
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


@dataclass(frozen=True)
class LineupEntry:
    # frozen: iter_games shares one entry among the games that repeat its line
    player_id: str
    name: str
    team: int  # 0 visitor, 1 home
    batting_order: int
    position: int


class SubLine(LineupEntry):
    """A lineup change in the middle of the game's events."""


# a stripped start or sub line's text -> the entry built from it
LineupMemo = dict[str, LineupEntry]


# One play record: (inning, half, batter id, event text, line number).  A
# plain tuple, since a file holds one per plate appearance: it builds in a
# sixth of a slotted dataclass's time, and replay unpacks it once.
PlayLine = tuple[int, Half, str, str, int]


@dataclass
class PlacedRunner:
    """A runner put on a base before the next play, as on second at the
    start of an extra inning from 2020 on."""

    runner_id: str
    base: int
    line_no: int


@dataclass
class GameAccount:
    game_id: str
    info: dict[str, str]
    starters: list[LineupEntry]
    events: list[PlayLine | SubLine | PlacedRunner]

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


def _lines(text: str) -> Iterator[tuple[int, str]]:
    """Every line of the text with its number, split a piece at a time."""
    return enumerate(chain.from_iterable(map(str.splitlines, _chunks(text))), start=1)


def _record(line: str, line_no: int, diagnostics: list[Diagnostic]) -> list[str] | None:
    """The cells of a stripped, non-empty line, its kind first, or ``None``
    with the diagnostic that drops the line.

    A line with no quote that fits csv's field limit splits the same with
    str.split.  Any other line gets a reader of its own, so an unclosed
    quote costs only its own line.  An unknown kind comes back as a com
    record whose first field is that kind, with a diagnostic, so nothing is
    lost.
    """
    if '"' not in line and len(line) <= csv.field_size_limit():
        cells = line.split(",")
    else:
        try:
            cells = next(csv.reader(io.StringIO(line)))
        except (csv.Error, StopIteration):
            diagnostics.append(Diagnostic("unreadable_line", line, line_no))
            return None
    kind = cells[0] if cells else ""
    if kind in _KINDS:
        return cells
    if not kind:
        diagnostics.append(Diagnostic("unreadable_line", line, line_no))
        return None
    diagnostics.append(Diagnostic("unknown_record_kind", kind, line_no))
    return ["com", *cells]


def tokenize_event_file(text: str) -> tuple[list[Record], list[Diagnostic]]:
    """Every record of the text as (kind, fields, line_no), and the
    tokenizer's diagnostics.  A line splits as ``iter_games`` splits it:
    with str.split when it holds no quote and fits csv's field limit, else
    with csv.

    Every non-empty line gives exactly one record or one diagnostic; an
    unknown record kind gives a com record and a diagnostic.
    """
    diagnostics: list[Diagnostic] = []
    records = []
    for line_no, line in _lines(text):
        line = line.strip()
        if line and (cells := _record(line, line_no, diagnostics)) is not None:
            records.append((cells[0], cells[1:], line_no))
    return records, diagnostics


def _finish(
    game: GameAccount, error: Diagnostic | None, orphan: Diagnostic | None, lost: bool,
    diagnostics: list[Diagnostic], mark: int, outside: bool,
) -> Iterator[GameAccount | None]:
    """Yield a closed block's game, or ``None`` with the one diagnostic that
    drops it: for a block ``lost`` with a line that could not be read, that
    line's, given already; else its first malformed record, else a missing
    info record, else its ``orphan`` play.  Yield nothing for a block
    whose season is ``outside`` the years asked for, whose diagnostics
    since its id record, at ``mark``, are deleted."""
    if outside:
        del diagnostics[mark:]
        return
    if lost:
        yield None
        return
    if error is None:
        for key in ("visteam", "hometeam", "date"):
            if key not in game.info:
                error = Diagnostic("missing_info", f"no {key} record", game_id=game.game_id)
                break
    if error is None:
        error = orphan
    if error is not None:
        diagnostics.append(error)
    yield None if error else game


def iter_games(
    text: str,
    diagnostics: list[Diagnostic],
    years: tuple[int, int] | None,
    lineups: LineupMemo,
) -> Iterator[GameAccount | None]:
    """Split the text into records, as ``tokenize_event_file`` does and
    with its diagnostics, and fill one GameAccount per id record as its
    records arrive; yield it as soon as the next id record or the end of
    the text closes it.

    An account that fails structural validation (a line that cannot be
    read, malformed cells, a start record after its first play, sub or radj
    record, missing required info, a play by a player never introduced) is
    dropped whole: ``None`` is yielded in its place, with one diagnostic
    naming the game or the line, so it is never silently truncated.  With
    ``years``, a block of another season is dropped at close without a
    yield, and so are its diagnostics.  Diagnostics that belong to no game
    block stay.

    A play's batter is checked as its line is read, against the block's
    start records and the sub records before it, and the first play by a
    batter not among them is the block's ``orphan_player``, unless the
    block has a malformed record or lacks an info record.

    Lineup lines repeat: a team's starters and relievers come back game
    after game and file after file.  So every ``start`` or ``sub`` line
    built is kept in ``lineups``, the ingest task's memo, by the line's
    stripped text, and a repeat of the line shares the built entry.  A
    repeat is taken from that memo only where its record would be accepted
    anew, in an open block and, for a ``start`` line, before the block's
    first event; elsewhere it is read as any line is, diagnostics and all.

    A block's season is its last ``info,date`` so far, else its game-id
    year.  While that is outside ``years`` the block's lines are held
    unsplit, but for those that start with ``i`` or a quote and so may be
    an id or info record.  A date that brings the season back runs the
    held lines then, in order.
    """
    limit = csv.field_size_limit()
    game: GameAccount | None = None
    error: Diagnostic | None = None  # the open block's first malformed record
    mark = 0
    held: list[tuple[int, str]] | None = None  # the open block's lines while outside years
    known: set[str] = set()  # the open block's starters and subs so far
    orphan: Diagnostic | None = None  # the open block's first play by a batter not known
    lost = False  # a line of the open block could not be read
    lines = _lines(text)
    while True:
        for line_no, line in lines:
            line = line.strip()
            if not line:
                continue
            if held is not None:
                # only an id or info record can end the hold; a held line's
                # diagnostics wait until it runs, if it ever does
                if (line[0] not in 'i"' or (cells := _record(line, line_no, [])) is None
                        or cells[0] not in ("id", "info")):
                    held.append((line_no, line))
                    continue
            elif (line[0] == "s" and (entry := lineups.get(line)) is not None
                    and game is not None
                    and (isinstance(entry, SubLine) or not game.events)):
                # a start or sub line met before: its entry is built already.
                # Every key starts with "s", so no other line looks it up
                (game.events if isinstance(entry, SubLine) else game.starters).append(entry)
                known.add(entry.player_id)
                continue
            elif '"' in line or len(line) > limit or (cells := line.split(","))[0] not in _KINDS:
                cells = _record(line, line_no, diagnostics)
                if cells is None:
                    lost = game is not None  # the open block, if any, is lost with it
                    continue
            kind = cells[0]
            if kind == "id":
                if game is not None:
                    yield from _finish(game, error, orphan, lost, diagnostics, mark,
                                       held is not None)
                mark = len(diagnostics)
                error = held = orphan = None
                lost = False
                known = set()
                if len(cells) > 1 and cells[1]:
                    game = GameAccount(cells[1], {}, [], [])
                    if years and not years[0] <= _season(cells[1], "") <= years[1]:
                        held = []
                else:
                    diagnostics.append(
                        Diagnostic("missing_info", "id record without a game id", line_no)
                    )
                    game = None
                continue
            if game is None:
                diagnostics.append(
                    Diagnostic("orphan_record", f"{kind} record before any id", line_no)
                )
                continue
            # info is read after an error too: its last date sets the season
            try:
                if kind == "play":
                    inning = int(cells[1])
                    half = _HALVES.get(cells[2])
                    if half is None:  # any other spelling: accepted or rejected as by int()
                        half = Half(int(cells[2]))
                    batter = cells[3]
                    game.events.append((inning, half, batter, cells[6], line_no))
                    if batter not in known and orphan is None:
                        orphan = Diagnostic("orphan_player", f"batter {batter} not in lineup",
                                            line_no, game.game_id)
                elif kind == "start" or kind == "sub":
                    if kind == "start" and game.events:
                        # the next game's, after a lost id record
                        raise ValueError("after the game's first play, sub or radj record")
                    entry = (SubLine if kind == "sub" else LineupEntry)(
                        cells[1], cells[2], int(cells[3]), int(cells[4]), int(cells[5]))
                    if entry.team not in (0, 1):
                        # replay keeps each side's pitcher under 0 or 1 only
                        raise ValueError(f"team {entry.team} is neither 0 (visitor) nor 1 (home)")
                    lineups[line] = entry
                    (game.events if kind == "sub" else game.starters).append(entry)
                    known.add(entry.player_id)
                elif kind == "radj":
                    game.events.append(PlacedRunner(cells[1], int(cells[2]), line_no))
                elif kind == "info" and len(cells) > 1:
                    value = game.info[cells[1]] = cells[2] if len(cells) > 2 else ""
                    if years and cells[1] == "date":
                        inside = years[0] <= _season(game.game_id, value) <= years[1]
                        if held is None and not inside:
                            held = []
                        elif held is not None and inside:
                            # back in the window: the held lines run next
                            lines = chain(held, lines)
                            held = None
                            break
                # version / data / com / badj / padj / ladj: accepted and ignored
            except (ValueError, IndexError) as exc:
                if error is None:
                    error = Diagnostic(
                        "malformed_record", f"{kind} {cells[1:]!r} ({exc})", line_no,
                        game.game_id,
                    )
        else:
            break
    if game is not None:
        yield from _finish(game, error, orphan, lost, diagnostics, mark, held is not None)


def assemble_games(text: str) -> tuple[list[GameAccount], list[Diagnostic]]:
    """Every game the text holds, and the diagnostics of its lines and games."""
    diagnostics: list[Diagnostic] = []
    games = [game for game in iter_games(text, diagnostics, None, {}) if game is not None]
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
