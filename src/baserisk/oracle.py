"""Exact scoring probabilities and a synthetic season generator.

A half-inning is modeled as an absorbing chain over the 24 live base-out
states (8 occupancy patterns x 3 out counts) plus two absorbing outcomes:
at least one run scored, or three outs with none.  Plate-appearance
outcomes and their deterministic runner-advance policies come from an
OutcomeModel.  A walk or a hit is written once, as the list of runner
moves it makes from an occupancy mask; ``OutcomeModel.apply_outcome``
folds that list into the next state for both the exact dynamic program
and the seeded simulator, and the event-file emitter writes the same list
as the play's advances, so its output round-trips through the parser and
state machine.
"""

from __future__ import annotations

import datetime
import itertools
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Iterator, Mapping

from .eventfile import Half, SubLine
from .state import FIRST, SECOND, THIRD

__all__ = [
    "DEFAULT_MODEL_TEXT",
    "InvalidModel",
    "Outcome",
    "OutcomeModel",
    "SimGame",
    "SimHalf",
    "SimPlay",
    "default_model",
    "emit_event_file",
    "exact_score_probability",
    "exact_tsf",
    "load_model",
    "parse_model_text",
    "simulate_game",
    "simulate_half_inning",
    "simulate_season",
]

PROB_TOLERANCE = 1e-12
HALF_INNING_CAP = 50  # plate appearances; guards degenerate models
GAME_INNINGS = 9

HOME = 4  # destination "base 4"


class InvalidModel(ValueError):
    """Probabilities that do not form a distribution, or advance policies
    that would let a runner pass another."""


class Outcome(Enum):
    OUT = "out"
    STRIKEOUT = "strikeout"
    WALK = "walk"
    SINGLE = "single"
    DOUBLE = "double"
    TRIPLE = "triple"
    HOME_RUN = "home_run"
    GDP = "gdp"

    # members compare by identity, so the C-level identity hash agrees with
    # equality; Enum's own hashes the name in Python, once per lookup
    __hash__ = object.__hash__


HITS = {
    Outcome.SINGLE: 1,
    Outcome.DOUBLE: 2,
    Outcome.TRIPLE: 3,
    Outcome.HOME_RUN: 4,
}

DEFAULT_ADVANCES = {
    (Outcome.SINGLE, 1): 2,
    (Outcome.SINGLE, 2): 3,
    (Outcome.SINGLE, 3): 4,
    (Outcome.DOUBLE, 1): 3,
    (Outcome.DOUBLE, 2): 4,
    (Outcome.DOUBLE, 3): 4,
    (Outcome.TRIPLE, 1): 4,
    (Outcome.TRIPLE, 2): 4,
    (Outcome.TRIPLE, 3): 4,
    (Outcome.HOME_RUN, 1): 4,
    (Outcome.HOME_RUN, 2): 4,
    (Outcome.HOME_RUN, 3): 4,
}


@dataclass(frozen=True)
class OutcomeModel:
    """Plate-appearance distribution plus deterministic advance policies.

    The double-play outcome only applies with a runner on first and fewer
    than two outs; elsewhere it is played as the plain out.

    ``probs`` and ``advances`` are read-only copies of the mappings given,
    ``advances`` over ``DEFAULT_ADVANCES``, so the tables cached from them
    cannot go stale.
    """

    probs: Mapping[Outcome, float]
    advances: Mapping[tuple[Outcome, int], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", MappingProxyType(dict(self.probs)))
        object.__setattr__(self, "advances",
                           MappingProxyType({**DEFAULT_ADVANCES, **self.advances}))
        unknown = set(self.probs) - set(Outcome)
        if unknown:
            raise InvalidModel(f"unknown outcomes: {sorted(o for o in unknown)!r}")
        total = 0.0
        for outcome in Outcome:
            p = self.probs.get(outcome, 0.0)
            if not 0.0 <= p <= 1.0:
                raise InvalidModel(f"{outcome.value} probability {p} out of range")
            total += p
        if abs(total - 1.0) > PROB_TOLERANCE:
            raise InvalidModel(f"probabilities sum to {total!r}, not 1")
        for hit, batter_dest in HITS.items():
            # trailing to leading: destinations must strictly increase, and
            # once somebody scores everyone ahead of them must too
            seq = [batter_dest]
            for base in (1, 2, 3):
                dest = self.dest(hit, base)
                if not base < dest <= 4:
                    raise InvalidModel(
                        f"{hit.value} advance from {base} to {dest} goes backward"
                    )
                seq.append(dest)
            for trailing, leading in zip(seq, seq[1:]):
                if leading <= trailing and leading != 4:
                    raise InvalidModel(
                        f"{hit.value} advances let a trailing runner pass a lead runner"
                    )

    def prob(self, outcome: Outcome) -> float:
        return self.probs.get(outcome, 0.0)

    def dest(self, outcome: Outcome, base: int) -> int:
        return self.advances[outcome, base]

    def gdp_applies(self, mask: int, outs: int) -> bool:
        return bool(mask & FIRST) and outs < 2

    def _moves(self, mask: int, outcome: Outcome) -> list[tuple[int, int]]:
        """The ``(from, to)`` runner moves of a walk or a hit from occupancy
        ``mask``: lead runner first, the batter (base 0) last, 4 for home.
        A walk moves only the runners it forces."""
        if outcome is Outcome.WALK:
            forced = 0
            while forced < 3 and mask & (1 << forced):
                forced += 1
            return [*((base, base + 1) for base in range(forced, 0, -1)), (0, 1)]
        return [*((base, self.dest(outcome, base))
                  for base in (3, 2, 1) if mask & (1 << (base - 1))),
                (0, HITS[outcome])]

    def apply_outcome(self, mask: int, outs: int, outcome: Outcome) -> tuple[int, int, int]:
        """Occupancy-level transition: (new_mask, outs_added, runs)."""
        if outcome in (Outcome.OUT, Outcome.STRIKEOUT):
            return mask, 1, 0
        if outcome is Outcome.GDP:
            if not self.gdp_applies(mask, outs):
                return mask, 1, 0
            return mask & ~FIRST, 2, 0
        runs = 0
        for frm, to in self._moves(mask, outcome):
            if frm:
                mask &= ~(1 << (frm - 1))
            if to == HOME:
                runs += 1
            else:
                mask |= 1 << (to - 1)
        return mask, 0, runs

    @cached_property
    def _ladder(self) -> tuple[list[float], tuple[Outcome, ...]]:
        """Cumulative probabilities in ``Outcome`` order and the outcome
        each ``bisect_right`` index picks: the first whose running sum
        exceeds the roll, or ``OUT`` past the top, where float slack can
        leave a roll."""
        ladder = []
        acc = 0.0
        for outcome in Outcome:
            acc += self.prob(outcome)
            ladder.append(acc)
        return ladder, (*Outcome, Outcome.OUT)

    @cached_property
    def _steps(
        self,
    ) -> dict[tuple[int, int, Outcome], tuple[tuple[str, ...] | None, str, int, int, int]]:
        """One plate appearance from each live state, by sampled outcome:
        ``(mask, outs, outcome) -> (choices, token, new_mask, outs_added,
        runs)``.  ``choices`` holds the event texts the simulator picks
        among with one draw, or is None where ``token`` is the only one."""
        steps = {}
        for mask, outs, outcome in itertools.product(range(8), range(3), Outcome):
            tokens = _event_tokens(self, mask, outs, outcome)
            steps[mask, outs, outcome] = (
                tokens if len(tokens) > 1 else None, tokens[0],
                *self.apply_outcome(mask, outs, outcome))
        return steps


def exact_score_probability(model: OutcomeModel, bases: int, outs: int) -> float:
    """P(at least one run scores before the third out) from the live state
    of occupancy mask ``bases`` and ``outs``, by dynamic programming over
    the absorbing chain.  ``OutcomeModel`` refuses every backward or
    passing advance, so a step that scores no run adds an out or puts one
    more runner on base, and no state recurs."""
    if outs not in (0, 1, 2):
        raise ValueError(f"outs must be 0-2, got {outs}")
    if not 0 <= bases <= 7:
        raise ValueError(f"base mask {bases} out of range")
    memo: dict[tuple[int, int], float] = {}

    def probability(mask: int, k: int) -> float:
        key = (mask, k)
        if key in memo:
            return memo[key]
        total = 0.0
        for outcome in Outcome:
            p = model.prob(outcome)
            if p <= 0.0:
                continue
            new_mask, outs_added, runs = model.apply_outcome(mask, k, outcome)
            if runs > 0:
                total += p
            elif k + outs_added < 3:
                total += p * probability(new_mask, k + outs_added)
        memo[key] = total
        return total

    return probability(bases, outs)


def exact_tsf(model: OutcomeModel, outs: int) -> tuple[float, float, float]:
    """Exact analogue of the three scoring rates at threshold index
    ``outs``, taken from the canonical single-runner state of each class."""
    if outs not in (0, 1):
        raise ValueError("threshold index must be 0 or 1")
    t = exact_score_probability(model, THIRD, outs)
    s = exact_score_probability(model, SECOND, outs)
    f = exact_score_probability(model, FIRST, outs + 1)
    return t, s, f


# --- simulation and emission -------------------------------------------------

# outcomes whose event texts carry no advances
_OUT_TOKENS = {
    Outcome.OUT: ("8/F", "7/F", "9/F", "3/G", "43/G", "63/G", "53/G", "4/P", "6/L"),
    Outcome.STRIKEOUT: ("K",),
    Outcome.GDP: ("64(1)3/GDP",),
}
_BASIC_TOKENS = {
    Outcome.WALK: ("W",),
    Outcome.SINGLE: ("S7", "S8", "S9", "S6"),
    Outcome.DOUBLE: ("D7", "D8", "D9"),
    Outcome.TRIPLE: ("T8", "T9"),
    Outcome.HOME_RUN: ("HR",),
}


def _event_tokens(
    model: OutcomeModel, mask: int, outs: int, outcome: Outcome
) -> tuple[str, ...]:
    """The event texts one outcome may be written as from state ``(mask,
    outs)``, with every movement written as an explicit advance so the
    parser never has to rely on implied rules.  A GDP that cannot apply is
    written as the plain out."""
    if outcome is Outcome.GDP and not model.gdp_applies(mask, outs):
        outcome = Outcome.OUT
    if outcome in _OUT_TOKENS:
        return _OUT_TOKENS[outcome]
    suffix = "." + ";".join(
        f"{frm or 'B'}-{'H' if to == HOME else to}" for frm, to in model._moves(mask, outcome))
    return tuple(basic + suffix for basic in _BASIC_TOKENS[outcome])


# the nine batters of the visitors (team 0) and of the home side (team 1)
_LINEUPS = tuple(
    tuple(f"{prefix}bat{slot:04d}" for slot in range(1, 10)) for prefix in "vh"
)


@dataclass
class SimPlay:
    batter_id: str
    token: str
    pre_mask: int
    pre_outs: int
    pre_runs: int  # runs already in this half-inning


@dataclass
class SimHalf:
    inning: int
    half: Half
    plays: list[SimPlay] = field(default_factory=list)
    subs: list[tuple[int, SubLine]] = field(default_factory=list)  # (before play idx, sub)
    runs: int = 0
    capped: bool = False


@dataclass
class SimGame:
    game_id: str
    date: str
    number: int
    halves: list[SimHalf]

    @property
    def score(self) -> tuple[int, int]:
        visitor = sum(h.runs for h in self.halves if h.half is Half.TOP)
        home = sum(h.runs for h in self.halves if h.half is Half.BOTTOM)
        return visitor, home


def simulate_half_inning(
    model: OutcomeModel,
    rng: random.Random,
    batters: Iterator[str] | None = None,
    inning: int = 1,
    half: Half = Half.TOP,
) -> SimHalf:
    """Seeded simulation of one half-inning.

    Stops after ``HALF_INNING_CAP`` plate appearances even without three
    outs, which only a degenerate model (e.g. all home runs) can reach; the
    half is marked capped and left incomplete.
    """
    if batters is None:
        batters = (f"bat{n:04d}" for n in range(1, 10_000))
    sim = SimHalf(inning, half)
    ladder, outcomes = model._ladder
    steps = model._steps
    plays = sim.plays
    mask, outs, runs = 0, 0, 0
    for _ in range(HALF_INNING_CAP):
        if outs >= 3:
            break
        # one roll per plate appearance, and one more draw only where the
        # outcome has several event texts
        choices, token, new_mask, outs_added, scored = steps[
            mask, outs, outcomes[bisect_right(ladder, rng.random())]]
        if choices is not None:
            token = rng.choice(choices)
        plays.append(SimPlay(next(batters), token, mask, outs, runs))
        mask = new_mask
        outs += outs_added
        runs += scored
    else:
        sim.capped = outs < 3
    sim.runs = runs
    return sim


def simulate_game(
    model: OutcomeModel,
    game_no: int,
    rng: random.Random,
    season: int = 2000,
    midgame_subs: bool = False,
) -> SimGame:
    """One synthetic game: fixed teams, nine innings, ties allowed.

    midgame_subs swaps in a relief pitcher for each side partway through
    the sixth inning to exercise mid-inning pitcher crediting.
    """
    day, number = divmod(game_no, 10)
    date = datetime.date(season, 4, 1) + datetime.timedelta(days=day)
    game_id = f"HOM{date.strftime('%Y%m%d')}{number}"
    # each side's order carries over from one half-inning to its next
    batting_orders = [itertools.cycle(lineup) for lineup in _LINEUPS]
    halves: list[SimHalf] = []

    for inning in range(1, GAME_INNINGS + 1):
        for half in (Half.TOP, Half.BOTTOM):
            team = int(half)
            sim = simulate_half_inning(
                model, rng, batting_orders[team], inning=inning, half=half
            )
            if midgame_subs and inning == 6 and len(sim.plays) >= 2:
                fielding = 1 - team
                prefix = "v" if fielding == 0 else "h"
                sim.subs.append(
                    (1, SubLine(f"{prefix}pit0002", f"Relief {prefix.upper()}", fielding, 0, 1))
                )
            halves.append(sim)
    return SimGame(game_id, date.strftime("%Y/%m/%d"), number, halves)


def simulate_season(
    model: OutcomeModel,
    games: int,
    seed: int,
    season: int = 2000,
    midgame_subs: bool = False,
) -> list[SimGame]:
    rng = random.Random(seed)
    return [
        simulate_game(model, n, rng, season=season, midgame_subs=midgame_subs)
        for n in range(games)
    ]


def emit_event_file(games: list[SimGame]) -> str:
    """Render simulated games in event-file format.

    Every roster referenced by a play line is declared in the start
    records, and every runner movement is written as an explicit advance,
    so a parse of the output yields zero diagnostics.
    """
    lines: list[str] = []
    for game in games:
        lines.append(f"id,{game.game_id}")
        lines.append("version,2")
        lines.append("info,visteam,VIS")
        lines.append("info,hometeam,HOM")
        lines.append(f"info,date,{game.date}")
        lines.append(f"info,number,{game.number}")
        lines.append(_START_BLOCK)
        for sim in game.halves:
            sub_at = dict()
            for idx, sub in sim.subs:
                sub_at.setdefault(idx, []).append(sub)
            head = f"play,{sim.inning},{int(sim.half)},"
            for idx, play in enumerate(sim.plays):
                for sub in sub_at.get(idx, []):
                    lines.append(
                        f'sub,{sub.player_id},"{sub.name}",{sub.team},{sub.batting_order},{sub.position}'
                    )
                lines.append(f"{head}{play.batter_id},??,,{play.token}")
    return "\n".join(lines) + "\n"


def _start_block() -> str:
    """The start records of every simulated game: both lineups and starting
    pitchers, as the lines of one block."""
    lines = []
    for team, lineup in enumerate(_LINEUPS):
        side = "VH"[team]
        for slot, player_id in enumerate(lineup, start=1):
            lines.append(f'start,{player_id},"{side} Batter {slot}",{team},{slot},{slot + 1}')
        lines.append(f'start,{side.lower()}pit0001,"{side} Pitcher",{team},0,1')
    return "\n".join(lines)


_START_BLOCK = _start_block()


# --- model files -------------------------------------------------------------

DEFAULT_MODEL_TEXT = """\
# plate-appearance outcome probabilities (must sum to 1)
out = 0.40
strikeout = 0.17
walk = 0.085
single = 0.185
double = 0.06
triple = 0.005
home_run = 0.035
gdp = 0.06

# deterministic runner advances: destination base, 4 = home
advance.single.first = 2
advance.single.second = 3
advance.single.third = 4
advance.double.first = 3
advance.double.second = 4
advance.double.third = 4
"""

_BASE_NAMES = {"first": 1, "second": 2, "third": 3}


def parse_model_text(text: str) -> OutcomeModel:
    """Read a key=value model description (see DEFAULT_MODEL_TEXT)."""
    probs: dict[Outcome, float] = {}
    advances: dict[tuple[Outcome, int], int] = {}
    outcome_names = {o.value: o for o in Outcome}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidModel(f"line {line_no}: expected key = value, got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        try:
            if key.startswith("advance."):
                _, outcome_name, base_name = key.split(".")
                outcome = outcome_names[outcome_name]
                if outcome not in HITS:
                    raise KeyError(outcome_name)
                advances[(outcome, _BASE_NAMES[base_name])] = int(value)
            elif key in outcome_names:
                probs[outcome_names[key]] = float(value)
            else:
                raise KeyError(key)
        except (KeyError, ValueError) as exc:
            raise InvalidModel(f"line {line_no}: bad entry {raw!r} ({exc})") from exc
    return OutcomeModel(probs, advances)


def load_model(path: str | Path) -> OutcomeModel:
    """A UTF-8 byte-order mark is not part of the first entry."""
    return parse_model_text(Path(path).read_text(encoding="utf-8-sig"))


def default_model() -> OutcomeModel:
    return parse_model_text(DEFAULT_MODEL_TEXT)
