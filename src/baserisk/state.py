"""Base-out state reconstruction by replaying parsed plays.

``replay_game`` walks a game account in order, emitting a pre-play Snapshot
for every play that is not a no-play, and folding each play's effects into
the next state.  Anything it cannot replay exactly (an unparseable token, an
advance from an empty base, a fourth out) quarantines the enclosing
half-inning instead of guessing.

No output reads which runner stands where, so replay carries the bases as a
3-bit occupancy mask and resolves each (effect text, occupancy, outs) only
once, through a memo that holds only the plays that parse.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .eventfile import Diagnostic, GameAccount, Half, SubLine
from .playtoken import (
    BATTER_REACHES,
    Advance,
    Base,
    ParsedPlay,
    PlayKind,
    UnparseableEvent,
    parse_play_token,
)

__all__ = [
    "BaseState",
    "GameReplay",
    "IllegalState",
    "PlayEffects",
    "Snapshot",
    "StateTimeline",
    "apply_play",
    "effect_text",
    "replay_game",
    "resolve_step",
]

FIRST, SECOND, THIRD = 1, 2, 4  # occupancy bit masks


class IllegalState(ValueError):
    """A play that cannot be applied to the current base-out state."""


@dataclass(frozen=True)
class BaseState:
    first: str | None = None
    second: str | None = None
    third: str | None = None

    def occupant(self, base: Base) -> str | None:
        return (None, self.first, self.second, self.third)[base]

    def mask(self) -> int:
        runners = (self.first, self.second, self.third)
        return sum(bit for bit, r in zip((FIRST, SECOND, THIRD), runners) if r is not None)


@dataclass(frozen=True)
class Snapshot:
    """Pre-play state: everything needed to classify a situation."""

    bases: int  # occupancy mask of FIRST, SECOND, THIRD
    outs: int
    score_batting: int
    score_fielding: int
    pitcher_id: str
    inning: int


@dataclass
class PlayEffects:
    outs_recorded: int
    runs_scored: int
    new_bases: BaseState


@dataclass
class StateTimeline:
    """One half-inning's snapshots plus run bookkeeping.

    runs_after[i] is the number of runs scored from play i onward,
    including play i itself.  complete is False when the half-inning was
    cut off mid-stream by anything other than the end of the game.
    """

    half_inning_key: tuple[str, int, Half]
    season: int
    snapshots: list[Snapshot] = field(default_factory=list)
    runs_on_play: list[int] = field(default_factory=list)
    outs_total: int = 0
    complete: bool = False
    excluded: str | None = None  # quarantine reason, None when usable
    score_reliable: bool = True

    @property
    def runs_after(self) -> list[int]:
        suffix = []
        total = 0
        for runs in reversed(self.runs_on_play):
            total += runs
            suffix.append(total)
        suffix.reverse()
        return suffix


@dataclass
class GameReplay:
    game_id: str
    timelines: list[StateTimeline]
    diagnostics: list[Diagnostic]
    final_score: tuple[int, int]  # visitor, home


def _flatten(play: ParsedPlay) -> list[ParsedPlay]:
    chain = [play]
    while chain[-1].chained is not None:
        chain.append(chain[-1].chained)
    return chain


def _implications(
    play: ParsedPlay, bases: BaseState
) -> tuple[Base | None, bool, dict[Base, Base], set[Base]]:
    """Work out what the basic event implies beyond explicit advances."""
    batter_dest: Base | None = None
    batter_out = False
    implied: dict[Base, Base] = {}
    implied_out: set[Base] = set()

    kind = play.kind
    if kind in BATTER_REACHES:
        batter_dest = BATTER_REACHES[kind]
        if kind is PlayKind.HOME_RUN:
            for base in (Base.FIRST, Base.SECOND, Base.THIRD):
                if bases.occupant(base) is not None:
                    implied[base] = Base.HOME
    elif kind is PlayKind.STRIKEOUT:
        batter_out = True
    elif kind is PlayKind.FIELDED_OUT:
        for po in play.putouts:
            if po.runner is Base.BATTER:
                if not po.negated_by_error:
                    batter_out = True
            elif not po.negated_by_error:
                implied_out.add(po.runner)
        if not batter_out:
            # force out or error on the relay: the batter reached first
            batter_dest = Base.FIRST

    for part in _flatten(play):
        k = part.kind
        if k is PlayKind.STOLEN_BASE:
            for target in part.bases_stolen:
                implied.setdefault(Base(target - 1), target)
        elif k in (PlayKind.CAUGHT_STEALING, PlayKind.PICKOFF_CAUGHT_STEALING):
            frm = Base(part.target_base - 1)
            if part.negated_by_error:
                implied.setdefault(frm, part.target_base)
            else:
                implied_out.add(frm)
        elif k is PlayKind.PICKOFF:
            if not part.negated_by_error:
                implied_out.add(part.target_base)
    return batter_dest, batter_out, implied, implied_out


def apply_play(
    bases: BaseState, outs_before: int, play: ParsedPlay, batter_id: str
) -> PlayEffects:
    """Resolve one play against the runners on base and the outs so far.

    Explicit advances always win over implied ones.  Runners without any
    recorded movement hold their base unless a trailing runner or the
    batter forces them on, in which case they are pushed the minimum
    number of bases (a bases-loaded walk scores this way).
    """
    batter_dest, batter_out, implied, implied_out = _implications(play, bases)
    explicit: dict[Base, Advance] = {a.frm: a for a in play.advances}

    # (from, runner, dest, counts_as_out); lead runners resolved first
    movers: list[tuple[Base, str, Base | None, bool]] = []
    new: dict[Base, str | None] = {Base.FIRST: None, Base.SECOND: None, Base.THIRD: None}
    pushable: set[Base] = set()

    for frm in (Base.THIRD, Base.SECOND, Base.FIRST):
        occupant = bases.occupant(frm)
        if frm in explicit:
            if occupant is None:
                raise IllegalState(f"advance from empty base {frm.name}")
            adv = explicit[frm]
            movers.append((frm, occupant, adv.to, adv.is_out and not adv.negated_by_error))
        elif frm in implied_out:
            if occupant is None:
                raise IllegalState(f"out recorded on empty base {frm.name}")
            movers.append((frm, occupant, None, True))
        elif frm in implied:
            if occupant is None:
                raise IllegalState(f"implied advance from empty base {frm.name}")
            movers.append((frm, occupant, implied[frm], False))
        elif occupant is not None:
            new[frm] = occupant
            pushable.add(frm)

    outs = 0
    runs = 0
    if Base.BATTER in explicit:
        adv = explicit[Base.BATTER]
        # an explicit batter advance supersedes the strikeout / putout call,
        # e.g. K.B-1 on a dropped third strike is not an out
        movers.append((Base.BATTER, batter_id, adv.to, adv.is_out and not adv.negated_by_error))
    elif batter_out:
        outs += 1
    elif batter_dest is not None:
        movers.append((Base.BATTER, batter_id, batter_dest, False))

    def place(runner: str, dest: Base) -> None:
        nonlocal runs
        if dest is Base.HOME:
            runs += 1
            return
        if new[dest] is not None:
            if dest not in pushable:
                raise IllegalState(f"two runners headed to {dest.name}")
            pushed = new[dest]
            new[dest] = None
            pushable.discard(dest)
            place(pushed, Base(dest + 1))
            if dest + 1 != Base.HOME:
                pushable.add(Base(dest + 1))
        new[dest] = runner

    for frm, runner, dest, is_out in movers:
        if is_out:
            outs += 1
            continue
        if dest is None:
            raise IllegalState("safe runner with no destination")
        place(runner, dest)

    if outs_before + outs > 3:
        raise IllegalState(f"{outs_before} outs before play, {outs} more recorded")

    return PlayEffects(
        outs, runs, BaseState(new[Base.FIRST], new[Base.SECOND], new[Base.THIRD])
    )


# (parse error, no-play, IllegalState message, outs recorded, runs scored,
# new occupancy): everything a play does to the replay
Step = tuple[str | None, bool, str | None, int, int, int]
# (effect text, occupancy, outs) -> Step, shared by the files of one ingest task
StepMemo = dict[tuple[str, int, int], Step]

_PLACEHOLDER = "?"  # every runner and the batter: apply_play never compares ids

# a basic event that is one whole parser section, up to the first "/", then
# modifier sections that are not empty and hold no group
_PLAIN_EVENT_RE = re.compile(r"((?:[^/(]|\([^/)]*\))+)(?:/[^/()]+)*")
# a safe advance and its notes, e.g. "1-3(UR)(NR)": the notes change nothing
_NOTED_SAFE_ADVANCE_RE = re.compile(r"([B123]-[123H])(?:\([^()]*\))+")


def effect_text(token: str) -> str:
    """The token less what the parser accepts but ``apply_play`` never reads:
    the modifier sections (``S8/G34`` -> ``S8``) and the notes on a safe
    advance (``B-1(UR)`` -> ``B-1``).

    A token with a ``#?!`` mark, a basic event that is not one whole
    section, or a modifier that is empty or holds a parenthesis comes back
    unchanged.  An advance that is not exactly a safe advance followed by
    plain groups keeps its text: the groups of an ``X`` advance can cancel
    the out.  ``resolve_step`` gives the same step for both texts, or a
    parse error for both.
    """
    if "/" not in token and "(" not in token:
        return token
    if "#" in token or "?" in token or "!" in token:
        return token
    event, dot, advances = token.partition(".")
    plain = _PLAIN_EVENT_RE.fullmatch(event)
    if plain is None:
        return token
    if "(" in advances:
        advances = ";".join(
            m.group(1) if (m := _NOTED_SAFE_ADVANCE_RE.fullmatch(part)) else part
            for part in advances.split(";")
        )
    return plain.group(1) + dot + advances


def resolve_step(token: str, bases: int, outs: int) -> Step:
    """One play's whole effect on an occupancy mask and an out count, from
    the parser and ``apply_play`` run on placeholder runners."""
    try:
        play = parse_play_token(token)
    except UnparseableEvent as exc:
        return (str(exc), False, None, 0, 0, bases)
    if play.kind is PlayKind.NO_PLAY:
        return (None, True, None, 0, 0, bases)
    runners = BaseState(
        *(_PLACEHOLDER if bases & bit else None for bit in (FIRST, SECOND, THIRD))
    )
    try:
        fx = apply_play(runners, outs, play, _PLACEHOLDER)
    except IllegalState as exc:
        return (None, False, str(exc), 0, 0, bases)
    return (None, False, None, fx.outs_recorded, fx.runs_scored, fx.new_bases.mask())


def _close(
    timeline: StateTimeline, outs: int, at_game_end: bool, diagnostics: list[Diagnostic]
) -> None:
    """Close a half-inning after ``outs`` outs; one cut off short of three
    before the game ends is reported unless it was already quarantined."""
    timeline.outs_total = outs
    timeline.complete = outs == 3 or at_game_end
    if not timeline.complete and timeline.excluded is None:
        game_id, inning, _ = timeline.half_inning_key
        diagnostics.append(Diagnostic(
            "incomplete_half_inning", f"inning {inning} ended after {outs} outs",
            game_id=game_id,
        ))


def replay_game(account: GameAccount, steps: StepMemo | None = None) -> GameReplay:
    """Replay a full game account into per-half-inning timelines.

    ``steps`` is a play memo to share with the other games of an ingest
    task; without it the game gets a memo of its own.  Only plays that
    parse are stored, since a parse error quotes its own token.
    """
    game_id = account.game_id
    diagnostics: list[Diagnostic] = []
    pitchers = {e.team: e.player_id for e in account.starters if e.position == 1}
    if 0 not in pitchers or 1 not in pitchers:
        diagnostics.append(
            Diagnostic("missing_info", "no starting pitcher listed", game_id=game_id)
        )
        return GameReplay(game_id, [], diagnostics, (0, 0))

    memo: StepMemo = {} if steps is None else steps
    season = account.season
    scores = [0, 0]  # visitor, home
    score_reliable = True
    timelines: list[StateTimeline] = []
    timeline: StateTimeline | None = None
    batting = bases = outs = 0  # bases is an occupancy mask
    dead = False  # set by a quarantine: the half's remaining plays are skipped

    for item in account.events:
        if isinstance(item, SubLine):
            if item.position == 1:
                pitchers[item.team] = item.player_id
            continue
        key = (game_id, item.inning, item.half)
        if timeline is None or timeline.half_inning_key != key:
            if timeline is not None:
                _close(timeline, outs, False, diagnostics)
            timeline = StateTimeline(key, season, score_reliable=score_reliable)
            timelines.append(timeline)
            batting, bases, outs, dead = int(item.half), 0, 0, False
        token = item.event_text
        memo_key = (effect_text(token), bases, outs)
        step = memo.get(memo_key)
        if step is None:
            step = resolve_step(token, bases, outs)
            if step[0] is None:
                memo[memo_key] = step
        parse_error, no_play, illegal, outs_recorded, runs, new_bases = step
        # a parse error quarantines even a dead half; otherwise a dead half
        # or a no-play is skipped before an illegal step quarantines
        if parse_error is None and (dead or no_play):
            continue
        reason = illegal if parse_error is None else parse_error
        if reason is not None:
            timeline.excluded = reason
            dead = True
            # runs from here on are unknown, so later score margins are too
            score_reliable = False
            diagnostics.append(
                Diagnostic("quarantined_half_inning", reason, item.line_no, game_id)
            )
            continue
        timeline.snapshots.append(Snapshot(
            bases, outs, scores[batting], scores[1 - batting],
            pitchers[1 - batting], item.inning,
        ))
        timeline.runs_on_play.append(runs)
        bases = new_bases
        outs += outs_recorded
        scores[batting] += runs

    if timeline is not None:
        # the account simply ends: a walk-off or a home win with no bottom 9
        _close(timeline, outs, True, diagnostics)
    return GameReplay(game_id, timelines, diagnostics, (scores[0], scores[1]))
