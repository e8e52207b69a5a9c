"""Shared builders for the test suite.

Batter-id convention in built games: ids starting with "v" bat for the
visitors (half 0), everything else for the home side.
"""

from __future__ import annotations

import gc
import random
from dataclasses import dataclass, field
from typing import NamedTuple

import pytest

from baserisk.eventfile import GameAccount, Half, LineupEntry, PlacedRunner, SubLine
from baserisk.oracle import (
    DEFAULT_ADVANCES,
    Outcome,
    OutcomeModel,
    default_model,
    emit_event_file,
    simulate_season,
)
from baserisk.state import GameReplay, replay_game, resolve_step


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail a test that leaves the cyclic collector disabled, and enable it
    again, so that no later test runs without it."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic collector disabled")


def make_game_text(
    play_lines: list[tuple[int, int, str, str] | str],
    game_id: str = "TST200004010",
    date: str = "2000/04/01",
) -> str:
    """Minimal valid single-game event file around the given play lines.

    play_lines entries are (inning, half, batter_id, token) tuples or raw
    record strings (for sub lines and deliberate corruption).
    """
    batters = sorted(
        {line[2] for line in play_lines if isinstance(line, tuple)}
    )
    lines = [
        f"id,{game_id}",
        "version,2",
        "info,visteam,VIS",
        "info,hometeam,HOM",
        f"info,date,{date}",
    ]
    slots = {0: 0, 1: 0}
    for pid in batters:
        team = 0 if pid.startswith("v") else 1
        slots[team] += 1
        lines.append(f'start,{pid},"{pid}",{team},{slots[team]},{slots[team] + 1}')
    lines.append('start,vpit1,"V Pitcher",0,0,1')
    lines.append('start,hpit1,"H Pitcher",1,0,1')
    for line in play_lines:
        if isinstance(line, str):
            lines.append(line)
        else:
            inning, half, batter, token = line
            lines.append(f"play,{inning},{half},{batter},??,,{token}")
    return "\n".join(lines) + "\n"


def game_account(events: list) -> GameAccount:
    """A game between the starting pitchers vpit1 and hpit1 whose events
    are (inning, half, token) plays, each by a fresh batter, and sub or
    radj records given as ``SubLine`` or ``PlacedRunner``."""
    items = [
        (event[0], Half(event[1]), f"bat{n}", event[2], n + 1)
        if isinstance(event, tuple) else event
        for n, event in enumerate(events)
    ]
    return GameAccount(
        "TST200004010",
        {"visteam": "VIS", "hometeam": "HOM", "date": "2000/04/01"},
        [LineupEntry("vpit1", "V Pitcher", 0, 0, 1),
         LineupEntry("hpit1", "H Pitcher", 1, 0, 1)],
        items,
    )


def replay_events(events: list) -> GameReplay:
    """Replay the game of ``game_account(events)``."""
    return replay_game(game_account(events), {}, {})


def run_half(tokens: list):
    """Replay a bare token list, with any ``SubLine`` among the tokens, as
    the top of the first inning of a game, with fresh batters.  The account
    ends with it, so a half short of three outs is cut off."""
    events = [(1, Half.TOP, token) if isinstance(token, str) else token for token in tokens]
    replay = replay_events(events)
    return replay.timelines[0], replay.diagnostics


def final_score(replay: GameReplay) -> tuple[int, int]:
    """(visitor, home): the runs of each half summed by the side batting."""
    score = [0, 0]
    for timeline in replay.timelines:
        score[timeline.half_inning_key[2]] += timeline.runs
    return score[0], score[1]


class WalkedPlay(NamedTuple):
    code: int  # the pre-play base-out state, bases << 2 | outs
    runs: int  # scored on the play
    pitcher: str  # the fielding side's
    batting: int  # the batting side's score before the play
    fielding: int  # the fielding side's score


@dataclass
class WalkedHalf:
    inning: int
    half: Half
    trusted: bool  # no earlier half of the game was quarantined
    opening: tuple[int, int]  # (visitor, home) when the half began
    plays: list[WalkedPlay] = field(default_factory=list)
    outs: int = 0
    excluded: str | None = None  # the last quarantine reason met
    complete: bool = False


def walk_game(account: GameAccount) -> list[WalkedHalf]:
    """The account's halves, played out line by line with ``resolve_step``
    and nothing else of replay: no memo, no effect text, no record.

    The rules are replay's, in its order.  A sub record for position 1
    changes its side's pitcher.  A runner placed before a play quarantines
    that play's half, if nothing has yet.  A parse error quarantines even a
    quarantined half; otherwise a play in a quarantined half, or a no-play,
    is skipped before an illegal step quarantines.  A half is trusted while
    no earlier half of the game is quarantined.  A half is complete at its
    third out, and the account's last half also where it is a walk-off: a
    trusted, unquarantined bottom half from the 9th on in which the home
    side went from not ahead to ahead.  Unlike replay, the walk
    never drops a game: give it none that lacks a starting pitcher, lists
    two for a side, or has a half that goes back.
    """
    pitchers = {e.team: e.player_id for e in account.starters if e.position == 1}
    scores = [0, 0]  # visitor, home
    halves: list[WalkedHalf] = []
    placed: PlacedRunner | None = None
    bases = 0
    for item in account.events:
        if isinstance(item, PlacedRunner):
            placed = item
            continue
        if isinstance(item, SubLine):
            if item.position == 1:
                pitchers[item.team] = item.player_id
            continue
        inning, half, _, token, _ = item
        if not halves or (halves[-1].inning, halves[-1].half) != (inning, half):
            trusted = all(h.excluded is None for h in halves)
            halves.append(WalkedHalf(inning, half, trusted, tuple(scores)))
            bases = 0
        open_half = halves[-1]
        if placed is not None:
            if open_half.excluded is None:
                open_half.excluded = f"runner {placed.runner_id} placed on base {placed.base}"
            placed = None
        parse_error, no_play, illegal, outs, runs, new_bases = resolve_step(
            token, bases, open_half.outs)
        if parse_error is None and (open_half.excluded is not None or no_play):
            continue
        if parse_error is not None or illegal is not None:
            open_half.excluded = parse_error or illegal
            continue
        batting = int(half)
        open_half.plays.append(WalkedPlay(
            bases << 2 | open_half.outs, runs, pitchers[1 - batting],
            scores[batting], scores[1 - batting]))
        bases = new_bases
        open_half.outs += outs
        scores[batting] += runs
    for h in halves:
        h.complete = h.outs == 3
    if halves:
        last = halves[-1]
        visitor, home = last.opening
        last.complete |= (last.half is Half.BOTTOM and last.inning >= 9 and last.trusted
                          and last.excluded is None and home <= visitor < scores[1])
    return halves


# Outcome mix with no walk and no double play, and singles that stop the
# runner from second at third.  Under those rules the chance of scoring is
# the same for every occupancy pattern within a situation class, so the
# estimated class rates line up with the single-runner exact values.
CLOSURE_PROBS = {
    Outcome.OUT: 0.47,
    Outcome.STRIKEOUT: 0.20,
    Outcome.SINGLE: 0.215,
    Outcome.DOUBLE: 0.068,
    Outcome.TRIPLE: 0.006,
    Outcome.HOME_RUN: 0.041,
}


@pytest.fixture
def closure_model() -> OutcomeModel:
    advances = dict(DEFAULT_ADVANCES)
    advances[(Outcome.SINGLE, 2)] = 3
    return OutcomeModel(probs=dict(CLOSURE_PROBS), advances=advances)


# Valid tokens covering every shape of the grammar; the pin corpus mutates them.
PIN_SEEDS = [
    "NP", "C", "WP", "PB", "BK", "DI", "OA", "HP", "K", "K23", "K+SB2",
    "K+WP.1-2", "K+PO1(13)", "W", "I", "IW", "W+WP.2-3", "IW+SB3;SB2",
    "SB2", "SB3;SB2;SBH", "CS2(24)", "CS2(2E4)", "CSH(12)(E2)", "PO1(13)",
    "PO2(E1)", "POCS2(1361)", "POCSH(E2)(25)", "FLE5", "DGR", "DGR7", "HR",
    "H", "HR8.2-H;1-H", "S8/G.1-3", "D7/L.2-H;1-3", "T9/F", "E3/G", "3E1",
    "FC", "FC5.3XH(52)", "FC6.2X3(E5);B-1", "8/F", "43/G", "64(1)3/GDP",
    "8(B)84(2)/LDP", "64(1)E3", "54(B)/BG25/SH.1-2", "3/G.2-3;1-2",
    "S8.1XH(82)", "S8/G/R7(TH/X)", "S8!/G.1-3", "K#", "C/E2", "WP.3-H(UR)",
    "99/F", "46(1)3/GDP/G6", "D8.3-H(NR)(UR);1X3(85/TH3)",
]
PIN_ALPHABET = "0123456789BH-+#!/().;ESWKXCDFGLPRTUO? ,$"


def mutate(rng: random.Random, seeds: list[str], alphabet: str, min_edits: int = 0) -> str:
    """One seed with min_edits to 3 random deletions, insertions, swaps or
    splices, as the parser fuzz of criterion 8 makes them."""
    token = rng.choice(seeds)
    for _ in range(rng.randrange(min_edits, 4)):
        op = rng.randrange(4)
        pos = rng.randrange(len(token) + 1)
        if op == 0 and token:
            cut = rng.randrange(len(token))
            token = token[:cut] + token[cut + 1:]
        elif op == 1:
            token = token[:pos] + rng.choice(alphabet) + token[pos:]
        elif op == 2 and token:
            cut = rng.randrange(len(token))
            token = token[:cut] + rng.choice(alphabet) + token[cut + 1:]
        else:
            other = rng.choice(seeds)
            token = token[:pos] + other[rng.randrange(len(other) + 1):]
    return token


_LOCATIONS = ("G34", "F8XD+", "L7", "P5F", "BG25", "G", "FL", "L9LS-", "SH", "GDP")
_SAFE_NOTES = ("", "(UR)", "(NR)", "(RBI)", "(TH)", "(UR)(NR)", "(NR)(RBI)")
_OUT_GROUPS = ("", "(E4)", "(25)", "(5E4)", "(TH)", "(E2/TH)", "(82)(E5)")


def decorate(token: str, rng: random.Random) -> str:
    """The token with what a scorer adds around its meaning: a hit-location
    modifier, notes on each advance (groups that can cancel the out on an
    ``X`` advance), and now and then a ``#`` or ``!`` mark."""
    event, dot, advances = token.partition(".")
    if rng.random() < 0.8:
        event += "/" + rng.choice(_LOCATIONS)
    parts = advances.split(";") if dot else []
    for i, part in enumerate(parts):
        parts[i] = part + rng.choice(_OUT_GROUPS if part[1:2] == "X" else _SAFE_NOTES)
    token = event + dot + ";".join(parts)
    if rng.random() < 0.15:
        cut = rng.randrange(len(token) + 1)
        token = token[:cut] + rng.choice("#!") + token[cut:]
    return token


def pin_corpus() -> list[str]:
    """25,000 seeded mutations (0-3 edits) of PIN_SEEDS, then the play tokens
    of a seeded season with mid-game substitutions."""
    rng = random.Random(5)
    corpus = [mutate(rng, PIN_SEEDS, PIN_ALPHABET) for _ in range(25_000)]
    games = simulate_season(default_model(), 40, seed=23, midgame_subs=True)
    corpus += [p.token for g in games for h in g.halves for p in h.plays]
    return corpus


def broken_text() -> str:
    """Four relief-pitcher games, each damaged a different way."""
    lines = emit_event_file(
        simulate_season(default_model(), 4, seed=99, season=1990, midgame_subs=True)
    ).splitlines()
    starts = [i for i, line in enumerate(lines) if line.startswith("id,")]
    games = [lines[a:b] for a, b in zip(starts, starts[1:] + [len(lines)])]
    # an unparseable token quarantines a half; an unknown record is reported
    plays = [i for i, line in enumerate(games[0]) if line.startswith("play,3,")]
    games[0][plays[1]] = games[0][plays[1]].rsplit(",", 1)[0] + ",ZZ9"
    games[0].insert(plays[0], "bogus,record")
    # no date: dropped at assembly; no visiting pitcher: dropped at replay
    games[1] = [line for line in games[1] if not line.startswith("info,date")]
    games[2] = [line for line in games[2] if not line.startswith("start,vpit")]
    # the third out of the fourth inning's top half goes missing
    plays = [i for i, line in enumerate(games[3]) if line.startswith("play,4,0,")]
    del games[3][plays[-1]]
    return "\n".join(line for game in games for line in game) + "\n"


def _decorated(text: str, rng: random.Random) -> str:
    """The event file with every play token decorated."""
    lines = []
    for line in text.splitlines():
        if line.startswith("play,"):
            head, _, token = line.rpartition(",")
            line = f"{head},{decorate(token, rng)}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def decorated_texts() -> list[str]:
    """Eight small relief-pitcher seasons (1990-1997) and the broken file,
    with every play token decorated."""
    rng = random.Random(8)
    texts = [
        emit_event_file(simulate_season(
            default_model(), 5, seed=800 + n, season=1990 + n, midgame_subs=True))
        for n in range(8)
    ]
    texts.append(broken_text())
    return [_decorated(text, rng) for text in texts]


def damaged_texts() -> list[str]:
    """Three small relief-pitcher seasons (1995-1997) with about one record
    line in a hundred replaced by a criterion-8-style mutation of itself."""
    rng = random.Random(9)
    texts = []
    for n in range(3):
        lines = emit_event_file(simulate_season(
            default_model(), 20, seed=900 + n, season=1995 + n, midgame_subs=True)
        ).splitlines()
        for i, line in enumerate(lines):
            if rng.random() < 0.01:
                lines[i] = mutate(rng, [line], PIN_ALPHABET + '"', 1)
        texts.append("\n".join(lines) + "\n")
    return texts
