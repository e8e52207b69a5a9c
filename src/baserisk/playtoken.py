"""Parser for the play-event mini-language used in event files.

A play token has up to three sections: the basic event, slash-separated
modifiers, and runner advances after a period, e.g. ``S8/G.1-3``.  The basic
event says what happened at the plate (or on the bases); the advance section
says who moved where.  Parsing is total: every input either yields a
ParsedPlay or raises UnparseableEvent, never anything else.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum, IntEnum

__all__ = [
    "Advance",
    "Base",
    "MalformedAdvance",
    "ParsedPlay",
    "PlayKind",
    "Putout",
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
        self.text = text
        self.reason = reason
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
BATTER_REACHES = {
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

    is_out records the X separator as written; negated_by_error is set when
    a parenthesized error with no completed putout cancels the out, in which
    case the runner is treated as safe at ``to``.
    """

    frm: Base
    to: Base
    is_out: bool = False
    negated_by_error: bool = False
    annotations: list[str] = field(default_factory=list)


@dataclass
class Putout:
    """A retired runner inside a fielded-out basic event, e.g. ``64(1)``."""

    runner: Base  # Base.BATTER when the batter is the one retired
    credits: list[int] = field(default_factory=list)
    negated_by_error: bool = False


@dataclass
class ParsedPlay:
    kind: PlayKind
    fielders: list[int] = field(default_factory=list)
    position: int | None = None  # charged fielder for Error / FC / FoulError
    putouts: list[Putout] = field(default_factory=list)
    bases_stolen: list[Base] = field(default_factory=list)
    target_base: Base | None = None  # CS / PO / POCS
    negated_by_error: bool = False
    batter_safe_on_error: bool = False  # trailing E on a fielded out, "64(1)E3"
    chained: "ParsedPlay | None" = None  # K+SB2, W+WP and friends
    modifiers: list[str] = field(default_factory=list)
    advances: list[Advance] = field(default_factory=list)
    annotations: list[str] = field(default_factory=list)


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

_STRIKEOUT_RE = re.compile(r"^K(\d*)(?:\+(.+))?$")
_WALK_RE = re.compile(r"^(IW|I|W)(?:\+(.+))?$")
_STOLEN_RE = re.compile(r"^SB([23H])((?:;SB[23H])*)$")
_HOMER_RE = re.compile(r"^HR?(\d*)$")
_DGR_RE = re.compile(r"^DGR(\d*)$")
_HIT_RE = re.compile(r"^([SDT])(\d*)$")
_FC_RE = re.compile(r"^FC(\d?)$")
_ERROR_RE = re.compile(r"^(\d*)E(\d+)$")
_FOUL_ERROR_RE = re.compile(r"^FLE(\d+)$")
_OUT_SEGMENT_RE = re.compile(r"(\d+)(?:\(([B123])\))?")
_TRAILING_ERROR_RE = re.compile(r"^(\d*)E\d+$")

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
_HIT_KINDS = {"S": PlayKind.SINGLE, "D": PlayKind.DOUBLE, "T": PlayKind.TRIPLE}
# Tag plays on a runner: target base, then (...) groups of fielder credits.
_TAG_EVENTS = (
    (re.compile(r"^POCS([23H])((?:\([^)]*\))*)$"), PlayKind.PICKOFF_CAUGHT_STEALING),
    (re.compile(r"^PO([123])((?:\([^)]*\))*)$"), PlayKind.PICKOFF),
    (re.compile(r"^CS([23H])((?:\([^)]*\))*)$"), PlayKind.CAUGHT_STEALING),
)


def _digits(text: str) -> list[int]:
    return [int(c) for c in text]


def _paren_groups(blob: str, token: str,
                  error_cls: type[UnparseableEvent]) -> tuple[list[str], bool]:
    """The ``(...)`` groups that make up all of ``blob``, and whether an error
    among them with no completed putout cancels the out."""
    if not blob:
        return [], False
    groups = _PAREN_RE.findall(blob)
    if "".join(f"({g})" for g in groups) != blob:
        raise error_cls(token, "stray text outside parentheses")
    has_error = any(_ERROR_GROUP_RE.match(g) for g in groups)
    has_putout = any(_PUTOUT_GROUP_RE.match(g) for g in groups)
    return groups, has_error and not has_putout


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
        groups, negated = _paren_groups(m.group(4), token, MalformedAdvance)
        if not is_out and to <= frm:
            raise MalformedAdvance(token, "safe advance must move forward")
        if frm in seen:
            raise MalformedAdvance(token, "duplicate from-base")
        seen.add(frm)
        advances.append(Advance(frm, to, is_out, is_out and negated, groups))
    return advances


def _parse_fielded_out(basic: str, token: str) -> ParsedPlay:
    """Grammar for ground/fly outs: fielder strings with optional (base)
    put-out targets, e.g. ``8``, ``64(1)3``, ``8(B)84(2)``, ``64(1)E3``."""
    putouts: list[Putout] = []
    batter_error = False
    i = 0
    while i < len(basic):
        m = _TRAILING_ERROR_RE.match(basic[i:])
        if m and putouts:
            # force out recorded, then an error let the batter reach: 64(1)E3
            batter_error = True
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
        putouts.append(Putout(runner, _digits(m.group(1))))
        i = m.end()
    if not putouts:
        raise UnparseableEvent(token, "empty out event")
    return ParsedPlay(
        PlayKind.FIELDED_OUT, putouts=putouts, batter_safe_on_error=batter_error
    )


def _parse_basic(basic: str, token: str) -> ParsedPlay:
    kind = _FIXED_WORDS.get(basic)
    if kind is not None:
        return ParsedPlay(kind)
    m = _STRIKEOUT_RE.match(basic)
    if m:
        chained = _parse_basic(m.group(2), token) if m.group(2) else None
        return ParsedPlay(
            PlayKind.STRIKEOUT, fielders=_digits(m.group(1)), chained=chained
        )
    m = _WALK_RE.match(basic)
    if m:
        kind = PlayKind.WALK if m.group(1) == "W" else PlayKind.INTENTIONAL_WALK
        chained = _parse_basic(m.group(2), token) if m.group(2) else None
        return ParsedPlay(kind, chained=chained)
    m = _STOLEN_RE.match(basic)
    if m:
        bases = [_TO_BASE[m.group(1)]]
        bases += [_TO_BASE[part[-1]] for part in m.group(2).split(";") if part]
        return ParsedPlay(PlayKind.STOLEN_BASE, bases_stolen=bases)
    for regex, kind in _TAG_EVENTS:
        m = regex.match(basic)
        if m:
            groups, negated = _paren_groups(m.group(2), token, UnparseableEvent)
            credits = [int(c) for g in groups if _PUTOUT_GROUP_RE.match(g)
                       for c in g if c.isdigit()]
            return ParsedPlay(kind, fielders=credits, target_base=_TO_BASE[m.group(1)],
                              negated_by_error=negated)
    m = _FOUL_ERROR_RE.match(basic)
    if m:
        return ParsedPlay(PlayKind.FOUL_ERROR, position=int(m.group(1)[0]))
    m = _DGR_RE.match(basic)
    if m:
        return ParsedPlay(PlayKind.GROUND_RULE_DOUBLE, fielders=_digits(m.group(1)))
    m = _HOMER_RE.match(basic)
    if m:
        return ParsedPlay(PlayKind.HOME_RUN, fielders=_digits(m.group(1)))
    m = _HIT_RE.match(basic)
    if m:
        return ParsedPlay(_HIT_KINDS[m.group(1)], fielders=_digits(m.group(2)))
    m = _FC_RE.match(basic)
    if m:
        position = int(m.group(1)) if m.group(1) else None
        return ParsedPlay(PlayKind.FIELDERS_CHOICE, position=position)
    m = _ERROR_RE.match(basic)
    if m:
        return ParsedPlay(
            PlayKind.REACHED_ON_ERROR,
            fielders=_digits(m.group(1)),
            position=int(m.group(2)[0]),
        )
    if basic and basic[0].isdigit():
        return _parse_fielded_out(basic, token)
    raise UnparseableEvent(token, f"unrecognized basic event {basic!r}")


def parse_play_token(text: str) -> ParsedPlay:
    """Parse a full play token such as ``S8/G.1-3`` or ``K+SB2``.

    Raises UnparseableEvent (or its subclass MalformedAdvance) on anything
    that does not fit the grammar; no other exception escapes.
    """
    if not isinstance(text, str) or not text:
        raise UnparseableEvent(str(text), "empty event")
    annotations = [c for c in text if c in "#?!"]
    cleaned = text.replace("#", "").replace("?", "").replace("!", "")
    if not cleaned:
        raise UnparseableEvent(text, "nothing left after uncertainty markers")

    event_part, dot, advance_part = cleaned.partition(".")
    if not event_part:
        raise UnparseableEvent(text, "missing basic event")
    sections = _SECTION_RE.findall(event_part)
    if "/".join(sections) != event_part:
        raise UnparseableEvent(text, "unbalanced parentheses or empty section")
    if not sections:
        raise UnparseableEvent(text, "missing basic event")

    play = _parse_basic(sections[0], text)
    play.modifiers = sections[1:]
    play.annotations = annotations
    if dot:
        play.advances = parse_advances(advance_part)
    return play
