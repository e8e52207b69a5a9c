"""Parser for the play-event mini-language used in event files.

A play token has up to three sections: the basic event, slash-separated
modifiers, and runner advances after a period, e.g. ``S8/G.1-3``.  The basic
event says what happened at the plate (or on the bases); the advance section
says who moved where.  Parsing is total: every input either yields a
ParsedPlay or raises UnparseableEvent, never anything else.

A ParsedPlay says what the play does to the batter and the runners: the
bases the basic event sends them to, those it puts out, and the advances as
written.  Fielder credits, hit locations and the ``#?!`` marks are checked
against the grammar and then dropped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum, IntEnum

__all__ = [
    "MAX_TOKEN_LENGTH",
    "Advance",
    "Base",
    "MalformedAdvance",
    "ParsedPlay",
    "PlayKind",
    "UnparseableEvent",
    "parse_advances",
    "parse_play_token",
]


class UnparseableEvent(ValueError):
    """A play token that does not fit the grammar.

    Callers are expected to exclude the enclosing half-inning from
    statistics rather than guess at what the scorer meant.
    """

    def __init__(self, text: str, reason: str = ""):
        msg = f"unparseable event {text!r}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)


class MalformedAdvance(UnparseableEvent):
    """An advance token that does not fit ``<from>(-|X)<to>(...)*``."""


class Base(IntEnum):
    BATTER = 0
    FIRST = 1
    SECOND = 2
    THIRD = 3
    HOME = 4


class PlayKind(Enum):
    SINGLE = "single"
    DOUBLE = "double"
    TRIPLE = "triple"
    HOME_RUN = "home_run"
    WALK = "walk"
    INTENTIONAL_WALK = "intentional_walk"
    HIT_BY_PITCH = "hit_by_pitch"
    STRIKEOUT = "strikeout"
    FIELDERS_CHOICE = "fielders_choice"
    REACHED_ON_ERROR = "reached_on_error"
    CATCHER_INTERFERENCE = "catcher_interference"
    GROUND_RULE_DOUBLE = "ground_rule_double"
    FIELDED_OUT = "fielded_out"
    STOLEN_BASE = "stolen_base"
    CAUGHT_STEALING = "caught_stealing"
    PICKOFF = "pickoff"
    PICKOFF_CAUGHT_STEALING = "pickoff_caught_stealing"
    WILD_PITCH = "wild_pitch"
    PASSED_BALL = "passed_ball"
    BALK = "balk"
    DEFENSIVE_INDIFFERENCE = "defensive_indifference"
    OTHER_ADVANCE = "other_advance"
    FOUL_ERROR = "foul_error"
    NO_PLAY = "no_play"


# Kinds that resolve the batter's plate appearance by putting them on base.
_BATTER_REACHES = {
    PlayKind.SINGLE: Base.FIRST,
    PlayKind.WALK: Base.FIRST,
    PlayKind.INTENTIONAL_WALK: Base.FIRST,
    PlayKind.HIT_BY_PITCH: Base.FIRST,
    PlayKind.REACHED_ON_ERROR: Base.FIRST,
    PlayKind.FIELDERS_CHOICE: Base.FIRST,
    PlayKind.CATCHER_INTERFERENCE: Base.FIRST,
    PlayKind.DOUBLE: Base.SECOND,
    PlayKind.GROUND_RULE_DOUBLE: Base.SECOND,
    PlayKind.TRIPLE: Base.THIRD,
    PlayKind.HOME_RUN: Base.HOME,
}


@dataclass
class Advance:
    """One runner movement from the advance section, e.g. ``2XH(82)``.

    retired is set for an ``X`` advance that no error cancelled: an error in
    parentheses with no completed putout leaves the runner safe at ``to``.
    """

    frm: Base
    to: Base
    retired: bool = False


@dataclass
class ParsedPlay:
    """What a play does to the batter and the runners.

    moves sends the batter or a runner to the base the basic event implies,
    retired holds those it puts out, e.g. {FIRST, BATTER} for 64(1)3, and an
    advance overrides both for its runner.
    """

    kind: PlayKind
    moves: dict[Base, Base] = field(default_factory=dict)
    retired: set[Base] = field(default_factory=set)
    advances: list[Advance] = field(default_factory=list)


# The longest token the parser takes, far above the 46 characters of the
# longest token in the tests' pin corpus.  A longer one is refused before
# any regex runs, so that no pattern spends more than linear time on a
# damaged line.
MAX_TOKEN_LENGTH = 512

_FROM_BASE = {"B": Base.BATTER, "1": Base.FIRST, "2": Base.SECOND, "3": Base.THIRD}
_TO_BASE = {"1": Base.FIRST, "2": Base.SECOND, "3": Base.THIRD, "H": Base.HOME}

# Splits on "/" while leaving parenthesized groups intact, so a modifier like
# "R7/TH" glued inside "(...)" never breaks the basic event apart.
_SECTION_RE = re.compile(r"(?:[^/(]|\([^)]*\))+")
_ADVANCE_RE = re.compile(r"^([B123])([-X])([123H])(.*)$")
_PAREN_RE = re.compile(r"\(([^)]*)\)")
# "5E4" or "E4" style groups: a fielding error occurred during the advance.
_ERROR_GROUP_RE = re.compile(r"^\d*E\d+(?:/.*)?$")
# A completed relay such as "82" or "8" (optionally "/TH"): the out stood.
_PUTOUT_GROUP_RE = re.compile(r"^\d+(?:/TH[123H]?)?$")

_STRIKEOUT_RE = re.compile(r"^K\d*(?:\+(.+))?$")
_WALK_RE = re.compile(r"^(IW|I|W)(?:\+(.+))?$")
_STOLEN_RE = re.compile(r"^SB[23H](?:;SB[23H])*$")
_OUT_SEGMENT_RE = re.compile(r"(\d+)(?:\(([B123])\))?")
_TRAILING_ERROR_RE = re.compile(r"^\d*E\d+$")

# Basic events spelled by one fixed word.
_FIXED_WORDS = {
    "NP": PlayKind.NO_PLAY,
    "C": PlayKind.CATCHER_INTERFERENCE,
    "WP": PlayKind.WILD_PITCH,
    "PB": PlayKind.PASSED_BALL,
    "BK": PlayKind.BALK,
    "DI": PlayKind.DEFENSIVE_INDIFFERENCE,
    "OA": PlayKind.OTHER_ADVANCE,
    "HP": PlayKind.HIT_BY_PITCH,
}
# Basic events whose fielder digits replay never reads: only the kind.
_PATTERN_EVENTS = (
    (re.compile(r"^FLE\d+$"), PlayKind.FOUL_ERROR),
    (re.compile(r"^DGR\d*$"), PlayKind.GROUND_RULE_DOUBLE),
    (re.compile(r"^HR?\d*$"), PlayKind.HOME_RUN),
    (re.compile(r"^S\d*$"), PlayKind.SINGLE),
    (re.compile(r"^D\d*$"), PlayKind.DOUBLE),
    (re.compile(r"^T\d*$"), PlayKind.TRIPLE),
    (re.compile(r"^FC\d?$"), PlayKind.FIELDERS_CHOICE),
    (re.compile(r"^\d*E\d+$"), PlayKind.REACHED_ON_ERROR),
)
# Tag plays on a runner: a base, then (...) groups of fielder credits.
_TAG_EVENTS = (
    (re.compile(r"^POCS([23H])((?:\([^)]*\))*)$"), PlayKind.PICKOFF_CAUGHT_STEALING),
    (re.compile(r"^PO([123])((?:\([^)]*\))*)$"), PlayKind.PICKOFF),
    (re.compile(r"^CS([23H])((?:\([^)]*\))*)$"), PlayKind.CAUGHT_STEALING),
)


def _error_cancels_out(blob: str, token: str,
                       error_cls: type[UnparseableEvent]) -> bool:
    """Whether ``blob``, which must be all ``(...)`` groups, holds an error
    with no completed putout, which cancels the out."""
    if not blob:
        return False
    groups = _PAREN_RE.findall(blob)
    if "".join(f"({g})" for g in groups) != blob:
        raise error_cls(token, "stray text outside parentheses")
    has_error = any(_ERROR_GROUP_RE.match(g) for g in groups)
    has_putout = any(_PUTOUT_GROUP_RE.match(g) for g in groups)
    return has_error and not has_putout


def parse_advances(text: str) -> list[Advance]:
    """Parse the dot section of a play token, e.g. ``1-3;B-1``.

    Order is preserved.  Duplicate from-bases and backward non-out advances
    are rejected (a runner cannot safely "advance" to a base behind them).
    """
    advances: list[Advance] = []
    seen: set[Base] = set()
    for token in text.split(";"):
        if not token:
            raise MalformedAdvance(text, "empty advance token")
        m = _ADVANCE_RE.match(token)
        if not m:
            raise MalformedAdvance(token)
        frm = _FROM_BASE[m.group(1)]
        to = _TO_BASE[m.group(3)]
        is_out = m.group(2) == "X"
        cancelled = _error_cancels_out(m.group(4), token, MalformedAdvance)
        if not is_out and to <= frm:
            raise MalformedAdvance(token, "safe advance must move forward")
        if frm in seen:
            raise MalformedAdvance(token, "duplicate from-base")
        seen.add(frm)
        advances.append(Advance(frm, to, is_out and not cancelled))
    return advances


def _parse_fielded_out(basic: str, token: str) -> ParsedPlay:
    """Grammar for ground/fly outs: fielder strings with optional (base)
    put-out targets, e.g. ``8``, ``64(1)3``, ``8(B)84(2)``, ``64(1)E3``.
    ``basic`` starts with a digit, so its first segment retires a runner or
    raises."""
    retired: set[Base] = set()
    i = 0
    while i < len(basic):
        if retired and _TRAILING_ERROR_RE.match(basic[i:]):
            # force out recorded, then an error let the batter reach: 64(1)E3
            break
        m = _OUT_SEGMENT_RE.match(basic, i)
        if not m:
            raise UnparseableEvent(token, f"bad out segment at {basic[i:]!r}")
        if m.group(2):
            runner = _FROM_BASE[m.group(2)]
        elif m.end() == len(basic):
            runner = Base.BATTER
        else:
            raise UnparseableEvent(token, f"bad out segment at {basic[i:]!r}")
        retired.add(runner)
        i = m.end()
    # a force out or an error on the relay: the batter reached first
    moves = {} if Base.BATTER in retired else {Base.BATTER: Base.FIRST}
    return ParsedPlay(PlayKind.FIELDED_OUT, moves, retired)


def _plain(kind: PlayKind) -> ParsedPlay:
    """A basic event that at most puts the batter on base."""
    dest = _BATTER_REACHES.get(kind)
    return ParsedPlay(kind, {} if dest is None else {Base.BATTER: dest})


def _chain(play: ParsedPlay, chained: str | None, token: str) -> ParsedPlay:
    """``play`` plus the runner effects of the event chained on with ``+``
    (``K+SB2``): a chained event never moves or retires the batter, and a
    chained fielded out adds nothing."""
    if chained:
        part = _parse_basic(chained, token)
        if part.kind is not PlayKind.FIELDED_OUT:
            play.moves.update((b, to) for b, to in part.moves.items() if b is not Base.BATTER)
            play.retired |= part.retired - {Base.BATTER}
    return play


def _parse_basic(basic: str, token: str) -> ParsedPlay:
    kind = _FIXED_WORDS.get(basic)
    if kind is not None:
        return _plain(kind)
    m = _STRIKEOUT_RE.match(basic)
    if m:
        play = ParsedPlay(PlayKind.STRIKEOUT, retired={Base.BATTER})
        return _chain(play, m.group(1), token)
    m = _WALK_RE.match(basic)
    if m:
        kind = PlayKind.WALK if m.group(1) == "W" else PlayKind.INTENTIONAL_WALK
        return _chain(_plain(kind), m.group(2), token)
    if _STOLEN_RE.match(basic):
        targets = [_TO_BASE[part[-1]] for part in basic.split(";")]
        return ParsedPlay(PlayKind.STOLEN_BASE, {Base(to - 1): to for to in targets})
    for regex, kind in _TAG_EVENTS:
        m = regex.match(basic)
        if m:
            base = _TO_BASE[m.group(1)]
            # a pickoff names the runner's base, a caught stealing the target
            runner = base if kind is PlayKind.PICKOFF else Base(base - 1)
            if not _error_cancels_out(m.group(2), token, UnparseableEvent):
                return ParsedPlay(kind, retired={runner})
            # the error wipes out the tag: a stealer is safe at the target,
            # a runner picked off stays
            return ParsedPlay(kind, {} if runner is base else {runner: base})
    for regex, kind in _PATTERN_EVENTS:
        if regex.match(basic):
            return _plain(kind)
    if basic and basic[0].isdigit():
        return _parse_fielded_out(basic, token)
    raise UnparseableEvent(token, f"unrecognized basic event {basic!r}")


def parse_play_token(text: str) -> ParsedPlay:
    """Parse a full play token such as ``S8/G.1-3`` or ``K+SB2``.

    Raises UnparseableEvent (or its subclass MalformedAdvance) on anything
    that does not fit the grammar; no other exception escapes.  A token
    longer than ``MAX_TOKEN_LENGTH`` is refused first, quoting its start.
    """
    if not isinstance(text, str) or not text:
        raise UnparseableEvent(str(text), "empty event")
    if len(text) > MAX_TOKEN_LENGTH:
        raise UnparseableEvent(text[:40] + "...", f"longer than {MAX_TOKEN_LENGTH} characters")
    cleaned = text.replace("#", "").replace("?", "").replace("!", "")
    if not cleaned:
        raise UnparseableEvent(text, "nothing left after uncertainty markers")

    event_part, dot, advance_part = cleaned.partition(".")
    if not event_part:
        raise UnparseableEvent(text, "missing basic event")
    sections = _SECTION_RE.findall(event_part)
    if "/".join(sections) != event_part:
        raise UnparseableEvent(text, "unbalanced parentheses or empty section")

    play = _parse_basic(sections[0], text)
    if dot:
        play.advances = parse_advances(advance_part)
    return play
