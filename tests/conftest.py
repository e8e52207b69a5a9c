"""Shared builders for the test suite.

Batter-id convention in built games: ids starting with "v" bat for the
visitors (half 0), everything else for the home side.
"""

from __future__ import annotations

import random

import pytest

from baserisk.eventfile import GameAccount, Half, LineupEntry, PlayLine
from baserisk.oracle import (
    DEFAULT_ADVANCES,
    Outcome,
    OutcomeModel,
    default_model,
    simulate_season,
)
from baserisk.state import replay_game


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


def run_half(tokens: list[str], at_game_end: bool = True):
    """Replay a bare token list as the top of the first inning of a game,
    with fresh batters.  Unless at_game_end, a no-play in the second inning
    follows, so the half closes cut off rather than with the game."""
    events = [
        PlayLine(1, Half.TOP, f"bat{i}", token, i + 1)
        for i, token in enumerate(tokens)
    ]
    if not at_game_end:
        events.append(PlayLine(2, Half.TOP, "bat", "NP", len(tokens) + 1))
    account = GameAccount(
        "TST200004010",
        {"visteam": "VIS", "hometeam": "HOM", "date": "2000/04/01"},
        [LineupEntry("vpit1", "V Pitcher", 0, 0, 1),
         LineupEntry("hpit1", "H Pitcher", 1, 0, 1)],
        events,
    )
    replay = replay_game(account)
    return replay.timelines[0], replay.diagnostics


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
