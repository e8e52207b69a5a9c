"""Base-out state reconstruction by replaying parsed plays.

``replay_game`` walks a game account in order, recording the pre-play
base-out code ``bases << 2 | outs`` of every play that is not a no-play,
and folding each play's effects into the next state.  Anything it cannot
replay exactly (an unparseable token, an advance from an empty base, a
fourth out, a play after the third out) quarantines the enclosing
half-inning instead of guessing, and so does a runner placed on a base.

No output reads which runner stands where, so the bases are a 3-bit
occupancy mask throughout: ``apply_play`` resolves a play on the mask, and
replay resolves each (effect text, base-out code) only once per ingest
task, through a memo that maps each token as written to one row per effect
text of a transition table over the 32 base-out codes.  A row's slot holds
the play's move from that code: whether it is skipped, the next code, the
runs scored and the code's situation class.  The memo holds only the plays
that parse.  A second memo of the task cleans each distinct advance
section of an effect text once.

The tallies read no code.  Beside the codes, replay keeps what they need
of the open half-inning in loop locals: the batting side's score, the
fielding side's pitcher, the first play of each situation class, and each
pitcher who faced a play, with whether one of theirs was late and close.
When the half closes, ``_close`` builds its ``StateTimeline`` once, as a
tuple.  So the situation classes and the leverage window are
defined here, next to the walk that applies them.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple

from .eventfile import Diagnostic, GameAccount, Half, PlacedRunner
from .playtoken import (
    MAX_TOKEN_LENGTH, Base, ParsedPlay, PlayKind, UnparseableEvent, parse_play_token,
)

__all__ = [
    "CLASS_AT",
    "HIGH_LEVERAGE_INNINGS",
    "HIGH_LEVERAGE_MARGIN",
    "ClassKind",
    "GameReplay",
    "IllegalState",
    "SituationClass",
    "StateTimeline",
    "apply_play",
    "classify_state",
    "effect_text",
    "replay_game",
    "resolve_step",
]

FIRST, SECOND, THIRD = 1, 2, 4  # occupancy bit masks
_BIT = (0, FIRST, SECOND, THIRD)  # indexed by Base; the batter stands on none
# builds a StateTimeline in half the time of its Python-level __new__
_new_tuple = tuple.__new__

# a play is late and close in these innings, within this many runs,
# while the game's running score is still trusted
HIGH_LEVERAGE_INNINGS = (8, 9)
HIGH_LEVERAGE_MARGIN = 1


class ClassKind(Enum):
    THIRD_OCCUPIED = "third_occupied"
    SECOND_NO_THIRD = "second_no_third"
    FIRST_ONLY = "first_only"

    # members compare by identity, so the C-level identity hash agrees with
    # equality; Enum's own hashes the name in Python, once per tally key
    __hash__ = object.__hash__


class SituationClass(NamedTuple):
    kind: ClassKind
    outs: int


def classify_state(bases: int, outs: int) -> SituationClass | None:
    """Map an occupancy mask and out count to its situation class, if any.

    Third-occupied takes precedence, then second-no-third; first-only
    requires first to be the lone occupied base.  Classes are mutually
    exclusive by construction.
    """
    if bases & THIRD and outs in (0, 1):
        return SituationClass(ClassKind.THIRD_OCCUPIED, outs)
    if bases & SECOND and outs in (0, 1):
        return SituationClass(ClassKind.SECOND_NO_THIRD, outs)
    if bases == FIRST and outs in (1, 2):
        return SituationClass(ClassKind.FIRST_ONLY, outs)
    return None


# the class of every base-out state, at bases << 2 | outs; no play is
# replayed at 3 outs, since a play after the third out is refused, but the
# shift keeps a slot for them
CLASS_AT = tuple(classify_state(bases, outs) for bases in range(8) for outs in range(4))


class IllegalState(ValueError):
    """A play that cannot be applied to the current base-out state."""


class StateTimeline(NamedTuple):
    """Replay's record of one half-inning, built once when it closes.

    ``complete`` is False when the half was cut off short of three outs by
    anything other than a walk-off, and ``excluded`` is the quarantine
    reason, None when the half is usable.  ``firsts`` maps each situation
    class, in the order met, to its first play's (pitcher, runs earlier in
    the half, runs on that play, high leverage), and ``faced`` maps each
    pitcher who faced a play to whether one of theirs was high leverage.
    The tallies read these; ``snapshots`` holds each play's pre-play code
    ``bases << 2 | outs``.
    """

    half_inning_key: tuple[str, int, Half]
    season: int
    snapshots: list[int]
    runs: int  # scored in the half
    complete: bool
    excluded: str | None
    firsts: dict[SituationClass, tuple[str, int, int, bool]]
    faced: dict[str, bool]


class GameReplay(NamedTuple):
    timelines: list[StateTimeline]
    diagnostics: list[Diagnostic]


def apply_play(bases: int, outs_before: int, play: ParsedPlay) -> tuple[int, int, int]:
    """Resolve one play against an occupancy mask and the outs so far, to
    (outs recorded, runs scored, new occupancy mask).

    Lead runner first and the batter last, each follows their explicit
    advance, else the play retires them, else it moves them, else a home run
    scores them, else they hold: so K.B-1 on a dropped third strike is not an
    out.  A runner who holds is pushed the minimum number of bases when a
    trailing runner or the batter forces them on (a bases-loaded walk scores
    this way).  A play after the third out, a balk as much as a home run, is
    refused.
    """
    if outs_before >= 3:
        raise IllegalState("play after the third out")
    explicit = {a.frm: a for a in play.advances}
    home_run = play.kind is PlayKind.HOME_RUN
    # where each runner who is not out goes; lead runners resolved first
    movers: list[Base] = []
    new = pushable = 0  # occupancy masks
    outs = runs = 0

    for frm in (Base.THIRD, Base.SECOND, Base.FIRST, Base.BATTER):
        bit = _BIT[frm]
        occupied = frm is Base.BATTER or bases & bit
        adv = explicit.get(frm)
        if adv is not None:
            if not occupied:
                raise IllegalState(f"advance from empty base {frm.name}")
            if adv.retired:
                outs += 1
            else:
                movers.append(adv.to)
        elif frm in play.retired:
            if not occupied:
                raise IllegalState(f"out recorded on empty base {frm.name}")
            outs += 1
        elif frm in play.moves:
            if not occupied:
                raise IllegalState(f"implied advance from empty base {frm.name}")
            movers.append(play.moves[frm])
        elif occupied and home_run:
            movers.append(Base.HOME)
        elif occupied:
            new |= bit  # the batter has no bit: one who stays adds nothing
            pushable |= bit

    def place(dest: Base) -> None:
        nonlocal runs, new, pushable
        if dest is Base.HOME:
            runs += 1
            return
        bit = _BIT[dest]
        if new & bit:
            if not pushable & bit:
                raise IllegalState(f"two runners headed to {dest.name}")
            # the runner standing there is pushed on; the newcomer is not pushable
            pushable &= ~bit
            place(Base(dest + 1))
            if dest + 1 != Base.HOME:
                pushable |= _BIT[dest + 1]
        new |= bit

    for dest in movers:
        place(dest)

    if outs_before + outs > 3:
        raise IllegalState(f"{outs_before} outs before play, {outs} more recorded")

    return outs, runs, new


# (parse error, no-play, IllegalState message, outs recorded, runs scored,
# new occupancy): everything a play does to the replay
Step = tuple[str | None, bool, str | None, int, int, int]
# a Step as replay walks it from the base-out code it starts at: a skip mark
# (None for a play, "" for a no-play, or the IllegalState message), the next
# code bases << 2 | outs, the runs scored, and the start code's CLASS_AT
Move = tuple[str | None, int, int, SituationClass | None]
# a play token as written -> the row of its effect text in a transition
# table of the 32 base-out codes: the slot at a code holds the play's Move
# from there once a play there has parsed.  An effect text is a key too, so
# every token that reduces to it finds its row.  Shared by the files of one
# ingest task.
StepMemo = dict[str, list[Move | None]]
# an advance section as written -> the section less the notes on its safe
# advances.  Far fewer sections than tokens carry notes, so each is cleaned
# once per ingest task, whose files share the memo.
SectionMemo = dict[str, str]

# a basic event that is one whole parser section, up to the first "/", then
# modifier sections that are not empty and hold no group
_PLAIN_EVENT_RE = re.compile(r"((?:[^/(]|\([^/)]*\))+)(?:/[^/()]+)*")
# a safe advance and its notes, e.g. "1-3(UR)(NR)": the notes change nothing
_NOTED_SAFE_ADVANCE_RE = re.compile(r"([B123]-[123H])(?:\([^()]*\))+")


def _clean_advances(advances: str) -> str:
    """An advance section less the notes on each safe advance."""
    return ";".join(
        m.group(1) if (m := _NOTED_SAFE_ADVANCE_RE.fullmatch(part)) else part
        for part in advances.split(";")
    )


def effect_text(token: str, sections: SectionMemo) -> str:
    """The token less what the parser accepts but ``apply_play`` never reads:
    the modifier sections (``S8/G34`` -> ``S8``) and the notes on a safe
    advance (``B-1(UR)`` -> ``B-1``).

    A token with a ``#?!`` mark or longer than the parser takes, a basic
    event that is not one whole section, or a modifier that is empty or
    holds a parenthesis comes back unchanged.  An advance that is not
    exactly a safe advance followed by plain groups keeps its text: the
    groups of an ``X`` advance can cancel the out.  ``resolve_step`` gives
    the same step for both texts, or a parse error for both.  ``sections``
    is the ingest task's memo of cleaned advance sections.
    """
    if "/" not in token and "(" not in token:
        return token
    if "#" in token or "?" in token or "!" in token or len(token) > MAX_TOKEN_LENGTH:
        return token
    event, dot, advances = token.partition(".")
    if "(" in event:
        plain = _PLAIN_EVENT_RE.fullmatch(event)
        if plain is None:
            return token
        basic = plain.group(1)
    else:
        # the pattern's whole test where there is no group: the basic event,
        # up to the first "/", is not empty, and no modifier is empty or
        # holds a ")"
        basic, _, modifiers = event.partition("/")
        if not basic or ")" in modifiers or "//" in event or event[-1] == "/":
            return token
    if "(" in advances:
        cleaned = sections.get(advances)
        if cleaned is None:
            cleaned = sections[advances] = _clean_advances(advances)
        advances = cleaned
    return basic + dot + advances


def resolve_step(token: str, bases: int, outs: int) -> Step:
    """One play's whole effect on an occupancy mask and an out count, from
    the parser and ``apply_play``."""
    try:
        play = parse_play_token(token)
    except UnparseableEvent as exc:
        return (str(exc), False, None, 0, 0, bases)
    if play.kind is PlayKind.NO_PLAY:
        return (None, True, None, 0, 0, bases)
    try:
        outs_recorded, runs, new_bases = apply_play(bases, outs, play)
    except IllegalState as exc:
        return (None, False, str(exc), 0, 0, bases)
    return (None, False, None, outs_recorded, runs, new_bases)


def _close(
    key: tuple[str, int, Half], season: int, snapshots: list[int], runs: int,
    outs: int, walk_off: bool, excluded: str | None,
    firsts: dict[SituationClass, tuple[str, int, int, bool]], faced: dict[str, bool],
    diagnostics: list[Diagnostic],
) -> StateTimeline:
    """The record of a half-inning closed after ``outs`` outs and ``runs``
    runs; one cut off short of three by anything but a ``walk_off`` is
    reported unless it was already quarantined."""
    complete = outs == 3 or walk_off
    if not complete and excluded is None:
        game_id, inning, _ = key
        diagnostics.append(Diagnostic(
            "incomplete_half_inning", f"inning {inning} ended after {outs} outs",
            game_id=game_id,
        ))
    return _new_tuple(StateTimeline,
                      (key, season, snapshots, runs, complete, excluded, firsts, faced))


def replay_game(account: GameAccount, steps: StepMemo, sections: SectionMemo) -> GameReplay:
    """Replay a full game account into per-half-inning timelines.

    ``steps`` and ``sections`` are the ingest task's play memo and memo
    of cleaned advance sections.  A token met for the first time costs one
    ``effect_text`` call, and a move one ``resolve_step`` call.  Only plays
    that parse are stored, since a parse error quotes its own token.  The
    walk carries one base-out code, and keeps the batting side's score and
    the fielding side's pitcher in locals while a half is open.

    A game whose starters list no pitcher for a side, or two for one side,
    is dropped with one diagnostic.
    """
    game_id = account.game_id
    diagnostics: list[Diagnostic] = []
    pitchers: dict[int, str] = {}
    for entry in account.starters:
        if entry.position != 1:
            continue
        if entry.team in pitchers:
            diagnostics.append(Diagnostic(
                "lineup_card", f"team {entry.team} lists two starting pitchers, "
                f"{pitchers[entry.team]} and {entry.player_id}", game_id=game_id))
            return GameReplay([], diagnostics)
        pitchers[entry.team] = entry.player_id
    if 0 not in pitchers or 1 not in pitchers:
        diagnostics.append(
            Diagnostic("missing_info", "no starting pitcher listed", game_id=game_id)
        )
        return GameReplay([], diagnostics)

    season = account.season
    scores = [0, 0]  # visitor, home
    score_reliable = True  # no half so far was quarantined, so every run is known
    timelines: list[StateTimeline] = []
    inning = half = None  # of the open half-inning, None before the first
    batting = at = 0  # the open half's batting side and base-out code
    # the batting side's score now and at the half's start, and the other's;
    # these and the fielding side's pitcher are set when a half opens
    score = opening = fielding = 0
    late = False  # the half is late and its score trusted: a close play is high leverage
    # the open half's quarantine reason: once set, its remaining plays are skipped
    excluded: str | None = None
    placed: PlacedRunner | None = None  # a runner placed before the next play

    for item in account.events:
        if type(item) is not tuple:  # a sub or radj record; a play is a plain tuple
            if isinstance(item, PlacedRunner):
                placed = item
            elif item.position == 1:
                pitchers[item.team] = item.player_id
                if item.team != batting:
                    pitcher = item.player_id
            continue
        play_inning, play_half, _, token, line_no = item
        if play_inning != inning or play_half != half:
            if inning is not None:
                if (play_inning, play_half) < (inning, half):
                    # a game's account, a suspended game's too, runs in
                    # order, so a half that goes back belongs to another
                    # game whose id record is lost: drop the game
                    diagnostics.append(Diagnostic(
                        "halves_out_of_order",
                        f"inning {play_inning} {play_half.name.lower()} after "
                        f"inning {inning} {half.name.lower()}", line_no, game_id))
                    return GameReplay([], diagnostics)
                scores[batting] = score
                timelines.append(_close(key, season, snapshots, score - opening, at & 3,
                                        False, excluded, firsts, faced, diagnostics))
            inning, half = play_inning, play_half
            key = (game_id, inning, half)
            snapshots, firsts, faced, excluded = [], {}, {}, None
            batting, at = int(half), 0
            score = opening = scores[batting]
            fielding, pitcher = scores[1 - batting], pitchers[1 - batting]
            late = score_reliable and inning in HIGH_LEVERAGE_INNINGS
        if placed is not None:
            # the paper's seasons have no placed runner, so such a half is
            # left out rather than counted from an unusual start
            if excluded is None:
                excluded = f"runner {placed.runner_id} placed on base {placed.base}"
                score_reliable = False
                diagnostics.append(
                    Diagnostic("placed_runner", excluded, placed.line_no, game_id))
            placed = None
        row = steps.get(token)
        if row is None:
            effect = effect_text(token, sections)
            row = steps.get(effect)
            if row is None:
                row = steps[effect] = [None] * len(CLASS_AT)
            steps[token] = row
        move = row[at]
        if move is None:
            parse_error, no_play, illegal, outs_recorded, runs, new_bases = resolve_step(
                token, at >> 2, at & 3)
            if parse_error is not None:
                # never stored, since it quotes its own token; it quarantines
                # even a quarantined half
                excluded = parse_error
                score_reliable = False
                diagnostics.append(
                    Diagnostic("quarantined_half_inning", parse_error, line_no, game_id))
                continue
            move = row[at] = ("" if no_play else illegal,
                              new_bases << 2 | ((at & 3) + outs_recorded), runs, CLASS_AT[at])
        skip, next_at, runs, situation = move
        if skip is not None or excluded is not None:
            # a quarantined half or a no-play is skipped before an illegal
            # step quarantines
            if skip and excluded is None:
                excluded = skip
                # runs from here on are unknown, so later score margins are too
                score_reliable = False
                diagnostics.append(
                    Diagnostic("quarantined_half_inning", skip, line_no, game_id))
            continue
        snapshots.append(at)
        high = late and abs(score - fielding) <= HIGH_LEVERAGE_MARGIN
        if situation is not None and situation not in firsts:
            firsts[situation] = (pitcher, score - opening, runs, high)
        if high:
            faced[pitcher] = True
        elif pitcher not in faced:
            faced[pitcher] = False
        at = next_at
        score += runs

    if inning is not None:
        # the account ends, and the game with it, short of three outs only
        # where the home side went ahead in a trusted bottom half from the
        # 9th on: any other such half was cut off with the file
        walk_off = batting == 1 and inning >= 9 and score_reliable and (
            opening <= fielding < score)
        timelines.append(_close(key, season, snapshots, score - opening, at & 3,
                                walk_off, excluded, firsts, faced, diagnostics))
    return GameReplay(timelines, diagnostics)
