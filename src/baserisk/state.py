"""Base-out state reconstruction by replaying parsed plays.

The replayer walks a game account in order, emitting a pre-play Snapshot for
every play that is not a no-play, and folding each play's effects into the
next state.  Anything it cannot replay exactly (an unparseable token, an
advance from an empty base, a fourth out) quarantines the enclosing
half-inning instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .eventfile import Diagnostic, GameAccount, Half, PlayLine, SubLine
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
    "initial_snapshot",
    "replay_game",
    "replay_half_inning",
]


class IllegalState(ValueError):
    """A play that cannot be applied to the current base-out state."""


@dataclass(frozen=True)
class BaseState:
    first: str | None = None
    second: str | None = None
    third: str | None = None

    def occupant(self, base: Base) -> str | None:
        return (None, self.first, self.second, self.third)[base]

    def occupancy(self) -> tuple[bool, bool, bool]:
        return (self.first is not None, self.second is not None, self.third is not None)

    def runners(self) -> list[tuple[Base, str]]:
        out = []
        for base in (Base.FIRST, Base.SECOND, Base.THIRD):
            occ = self.occupant(base)
            if occ is not None:
                out.append((base, occ))
        return out


@dataclass(frozen=True)
class Snapshot:
    """Pre-play state: everything needed to classify a situation."""

    bases: BaseState
    outs: int
    score_batting: int
    score_fielding: int
    pitcher_id: str
    inning: int
    half: Half


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
    runs_total: int = 0
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


def initial_snapshot(
    pitcher_id: str,
    inning: int = 1,
    half: Half = Half.TOP,
    score_batting: int = 0,
    score_fielding: int = 0,
) -> Snapshot:
    return Snapshot(
        BaseState(), 0, score_batting, score_fielding, pitcher_id, inning, half
    )


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
            for base, _ in bases.runners():
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


def apply_play(snap: Snapshot, play: ParsedPlay, batter_id: str) -> PlayEffects:
    """Resolve one play against a snapshot.

    Explicit advances always win over implied ones.  Runners without any
    recorded movement hold their base unless a trailing runner or the
    batter forces them on, in which case they are pushed the minimum
    number of bases (a bases-loaded walk scores this way).
    """
    bases = {b: snap.bases.occupant(b) for b in (Base.FIRST, Base.SECOND, Base.THIRD)}
    explicit: dict[Base, Advance] = {a.frm: a for a in play.advances}
    batter_dest, batter_out, implied, implied_out = _implications(play, snap.bases)

    # (from, runner, dest, counts_as_out); lead runners resolved first
    movers: list[tuple[Base, str, Base | None, bool]] = []
    new: dict[Base, str | None] = {Base.FIRST: None, Base.SECOND: None, Base.THIRD: None}
    pushable: set[Base] = set()

    for frm in (Base.THIRD, Base.SECOND, Base.FIRST):
        occupant = bases[frm]
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

    if snap.outs + outs > 3:
        raise IllegalState(f"{snap.outs} outs before play, {outs} more recorded")

    return PlayEffects(
        outs, runs, BaseState(new[Base.FIRST], new[Base.SECOND], new[Base.THIRD])
    )


@dataclass
class _SharedGameState:
    """Lineup and pitcher bookkeeping shared across half-innings."""

    pitchers: dict[int, str]
    lineups: dict[int, dict[int, str]]
    scores: list[int]  # visitor, home
    score_reliable: bool = True


class _HalfBuilder:
    def __init__(self, key: tuple[str, int, Half], season: int, shared: _SharedGameState):
        self.timeline = StateTimeline(key, season, score_reliable=shared.score_reliable)
        self.shared = shared
        self.bases = BaseState()
        self.outs = 0
        self.runs = 0
        self.dead = False  # set after a quarantine; remaining plays are skipped

    @property
    def batting_team(self) -> int:
        return int(self.timeline.half_inning_key[2])

    def quarantine(self, reason: str, diagnostics: list[Diagnostic], line_no: int) -> None:
        self.timeline.excluded = reason
        self.dead = True
        # runs from here on are unknown, so later score margins are too
        self.shared.score_reliable = False
        diagnostics.append(
            Diagnostic("quarantined_half_inning", reason, line_no,
                       self.timeline.half_inning_key[0])
        )

    def swap_runner(self, old_id: str, new_id: str) -> None:
        kwargs = {}
        for attr in ("first", "second", "third"):
            if getattr(self.bases, attr) == old_id:
                kwargs[attr] = new_id
        if kwargs:
            self.bases = replace(self.bases, **kwargs)

    def feed(self, line: PlayLine, diagnostics: list[Diagnostic]) -> None:
        """Parse and apply one play line.  An unreadable token quarantines
        the half-inning, even one already quarantined."""
        try:
            play = parse_play_token(line.event_text)
        except UnparseableEvent as exc:
            self.quarantine(str(exc), diagnostics, line.line_no)
            return
        if self.dead or play.kind is PlayKind.NO_PLAY:
            return
        batting = self.batting_team
        snap = Snapshot(
            self.bases, self.outs,
            self.shared.scores[batting], self.shared.scores[1 - batting],
            self.shared.pitchers[1 - batting],
            line.inning, line.half,
        )
        try:
            effects = apply_play(snap, play, line.batter_id)
        except IllegalState as exc:
            self.quarantine(str(exc), diagnostics, line.line_no)
            return
        self.timeline.snapshots.append(snap)
        self.timeline.runs_on_play.append(effects.runs_scored)
        self.bases = effects.new_bases
        self.outs += effects.outs_recorded
        self.runs += effects.runs_scored
        self.shared.scores[batting] += effects.runs_scored

    def close(self, at_game_end: bool) -> StateTimeline:
        self.timeline.outs_total = self.outs
        self.timeline.runs_total = self.runs
        self.timeline.complete = self.outs == 3 or at_game_end
        return self.timeline


def replay_half_inning(
    key: tuple[str, int, Half],
    season: int,
    items: list[PlayLine | SubLine],
    pitchers: dict[int, str],
    lineups: dict[int, dict[int, str]],
    entering_scores: tuple[int, int] = (0, 0),
    at_game_end: bool = True,
) -> tuple[StateTimeline, list[Diagnostic]]:
    """Replay one half-inning's play and sub lines in isolation.

    Convenience wrapper over the same machinery replay_game uses; pitcher
    and lineup maps are mutated in place as substitutions occur.
    """
    shared = _SharedGameState(pitchers, lineups, list(entering_scores))
    builder = _HalfBuilder(key, season, shared)
    diagnostics: list[Diagnostic] = []
    for item in items:
        if isinstance(item, SubLine):
            _apply_sub(item, shared, builder)
        else:
            builder.feed(item, diagnostics)
    return builder.close(at_game_end), diagnostics


def _apply_sub(sub: SubLine, shared: _SharedGameState, builder: _HalfBuilder | None) -> None:
    outgoing = shared.lineups.setdefault(sub.team, {}).get(sub.batting_order)
    shared.lineups[sub.team][sub.batting_order] = sub.player_id
    if sub.position == 1:
        shared.pitchers[sub.team] = sub.player_id
    if (
        builder is not None
        and outgoing is not None
        and sub.team == builder.batting_team
        and not builder.dead
    ):
        builder.swap_runner(outgoing, sub.player_id)


def replay_game(account: GameAccount) -> GameReplay:
    """Replay a full game account into per-half-inning timelines."""
    diagnostics: list[Diagnostic] = []
    pitchers: dict[int, str] = {}
    lineups: dict[int, dict[int, str]] = {0: {}, 1: {}}
    for entry in account.starters:
        lineups.setdefault(entry.team, {})[entry.batting_order] = entry.player_id
        if entry.position == 1:
            pitchers[entry.team] = entry.player_id
    if 0 not in pitchers or 1 not in pitchers:
        diagnostics.append(
            Diagnostic("missing_info", "no starting pitcher listed",
                       game_id=account.game_id)
        )
        return GameReplay(account.game_id, [], diagnostics, (0, 0))

    shared = _SharedGameState(pitchers, lineups, [0, 0])
    season = account.season
    timelines: list[StateTimeline] = []
    builder: _HalfBuilder | None = None

    for item in account.events:
        if isinstance(item, SubLine):
            _apply_sub(item, shared, builder)
            continue
        key = (account.game_id, item.inning, item.half)
        if builder is None or builder.timeline.half_inning_key != key:
            if builder is not None:
                timeline = builder.close(at_game_end=False)
                if not timeline.complete and timeline.excluded is None:
                    diagnostics.append(
                        Diagnostic(
                            "incomplete_half_inning",
                            f"inning {timeline.half_inning_key[1]} ended after "
                            f"{timeline.outs_total} outs",
                            game_id=account.game_id,
                        )
                    )
                timelines.append(timeline)
            builder = _HalfBuilder(key, season, shared)
        builder.feed(item, diagnostics)

    if builder is not None:
        # the account simply ends: a walk-off or a home win with no bottom 9
        timelines.append(builder.close(at_game_end=True))
    return GameReplay(
        account.game_id, timelines, diagnostics, (shared.scores[0], shared.scores[1])
    )
