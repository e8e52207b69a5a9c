"""Exact scoring probabilities and a synthetic season generator.

A half-inning is modeled as an absorbing chain over the 24 live base-out
states (8 occupancy patterns x 3 out counts) plus two absorbing outcomes:
at least one run scored, or three outs with none.  Plate-appearance
outcomes and their deterministic runner-advance policies come from an
OutcomeModel; the same transition rules drive an exact dynamic program,
a seeded simulator, and an event-file emitter whose output round-trips
through the parser and state machine.
"""

from __future__ import annotations

import datetime
import random
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterator

from .eventfile import Half
from .state import FIRST, SECOND, THIRD

__all__ = [
    "DEFAULT_MODEL_TEXT",
    "InvalidModel",
    "Outcome",
    "OutcomeModel",
    "SimGame",
    "SimHalf",
    "SimPlay",
    "SimSub",
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
    than two outs; elsewhere its probability folds into the plain out.
    """

    probs: dict[Outcome, float]
    advances: dict[tuple[Outcome, int], int] = field(default_factory=lambda: dict(DEFAULT_ADVANCES))

    def __post_init__(self) -> None:
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
                if trailing == 4 and leading != 4:
                    raise InvalidModel(
                        f"{hit.value} advances let a trailing runner pass a lead runner"
                    )
                if trailing != 4 and leading <= trailing:
                    raise InvalidModel(
                        f"{hit.value} advances let a trailing runner pass a lead runner"
                    )

    def prob(self, outcome: Outcome) -> float:
        return self.probs.get(outcome, 0.0)

    def dest(self, outcome: Outcome, base: int) -> int:
        return self.advances.get((outcome, base), DEFAULT_ADVANCES[(outcome, base)])

    def gdp_applies(self, mask: int, outs: int) -> bool:
        return bool(mask & FIRST) and outs < 2

    def effective_probs(self, mask: int, outs: int) -> list[tuple[Outcome, float]]:
        """Per-state distribution with GDP folded into OUT when inapplicable."""
        pairs = []
        gdp = self.prob(Outcome.GDP)
        for outcome in Outcome:
            p = self.prob(outcome)
            if outcome is Outcome.GDP:
                if not self.gdp_applies(mask, outs):
                    continue
            elif outcome is Outcome.OUT and not self.gdp_applies(mask, outs):
                p += gdp
            if p > 0.0:
                pairs.append((outcome, p))
        return pairs

    def apply_outcome(self, mask: int, outs: int, outcome: Outcome) -> tuple[int, int, int]:
        """Occupancy-level transition: (new_mask, outs_added, runs)."""
        if outcome in (Outcome.OUT, Outcome.STRIKEOUT):
            return mask, 1, 0
        if outcome is Outcome.GDP:
            if not self.gdp_applies(mask, outs):
                return mask, 1, 0
            return mask & ~FIRST, 2, 0
        if outcome is Outcome.WALK:
            if not mask & FIRST:
                return mask | FIRST, 0, 0
            if not mask & SECOND:
                return mask | SECOND, 0, 0
            if not mask & THIRD:
                return mask | THIRD, 0, 0
            return mask, 0, 1
        batter_dest = HITS[outcome]
        new_mask = 0
        runs = 0
        for base, bit in ((1, FIRST), (2, SECOND), (3, THIRD)):
            if mask & bit:
                dest = self.dest(outcome, base)
                if dest >= 4:
                    runs += 1
                else:
                    new_mask |= 1 << (dest - 1)
        if batter_dest >= 4:
            runs += 1
        else:
            new_mask |= 1 << (batter_dest - 1)
        return new_mask, 0, runs


def _as_mask(bases: int | tuple[bool, bool, bool]) -> int:
    if isinstance(bases, tuple):
        first, second, third = bases
        return (FIRST if first else 0) | (SECOND if second else 0) | (THIRD if third else 0)
    if not 0 <= bases <= 7:
        raise ValueError(f"base mask {bases} out of range")
    return bases


def exact_score_probability(
    model: OutcomeModel, bases: int | tuple[bool, bool, bool], outs: int
) -> float:
    """P(at least one run scores before the third out) from a live state,
    by dynamic programming over the absorbing chain."""
    if outs not in (0, 1, 2):
        raise ValueError(f"outs must be 0-2, got {outs}")
    start = _as_mask(bases)
    memo: dict[tuple[int, int], float] = {}
    on_stack: set[tuple[int, int]] = set()

    def probability(mask: int, k: int) -> float:
        key = (mask, k)
        if key in memo:
            return memo[key]
        if key in on_stack:
            raise InvalidModel("advance policy creates a state cycle")
        on_stack.add(key)
        total = 0.0
        for outcome, p in model.effective_probs(mask, k):
            new_mask, outs_added, runs = model.apply_outcome(mask, k, outcome)
            if runs > 0:
                total += p
            elif k + outs_added >= 3:
                continue
            else:
                total += p * probability(new_mask, k + outs_added)
        on_stack.discard(key)
        memo[key] = total
        return total

    return probability(start, outs)


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

_OUT_TOKENS = ("8/F", "7/F", "9/F", "3/G", "43/G", "63/G", "53/G", "4/P", "6/L")
_SINGLE_TOKENS = ("S7", "S8", "S9", "S6")
_DOUBLE_TOKENS = ("D7", "D8", "D9")
_TRIPLE_TOKENS = ("T8", "T9")


def _advance_token(base: int, dest: int) -> str:
    frm = "B" if base == 0 else str(base)
    to = "H" if dest >= 4 else str(dest)
    return f"{frm}-{to}"


def _emit_token(model: OutcomeModel, mask: int, outs: int, outcome: Outcome, rng: random.Random) -> str:
    """Event text for one sampled outcome, with every movement written as
    an explicit advance so the parser never has to rely on implied rules."""
    if outcome is Outcome.STRIKEOUT:
        return "K"
    if outcome is Outcome.OUT:
        return rng.choice(_OUT_TOKENS)
    if outcome is Outcome.GDP:
        return "64(1)3/GDP"
    advances: list[str] = []
    if outcome is Outcome.WALK:
        chain = 0
        while chain < 3 and mask & (1 << chain):
            chain += 1
        for base in range(chain, 0, -1):
            advances.append(_advance_token(base, base + 1))
        advances.append(_advance_token(0, 1))
        basic = "W"
    else:
        for base, bit in ((3, THIRD), (2, SECOND), (1, FIRST)):
            if mask & bit:
                advances.append(_advance_token(base, model.dest(outcome, base)))
        advances.append(_advance_token(0, HITS[outcome]))
        basic = {
            Outcome.SINGLE: lambda: rng.choice(_SINGLE_TOKENS),
            Outcome.DOUBLE: lambda: rng.choice(_DOUBLE_TOKENS),
            Outcome.TRIPLE: lambda: rng.choice(_TRIPLE_TOKENS),
            Outcome.HOME_RUN: lambda: "HR",
        }[outcome]()
    return basic + "." + ";".join(advances)


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
    subs: list[tuple[int, "SimSub"]] = field(default_factory=list)  # (before play idx, sub)
    runs: int = 0
    capped: bool = False


@dataclass
class SimSub:
    player_id: str
    name: str
    team: int
    batting_order: int
    position: int


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
    cap: int = HALF_INNING_CAP,
) -> SimHalf:
    """Seeded simulation of one half-inning.

    Stops after ``cap`` plate appearances even without three outs, which
    only a degenerate model (e.g. all home runs) can reach; the half is
    marked capped and left incomplete.
    """
    if batters is None:
        batters = (f"bat{n:04d}" for n in range(1, 10_000))
    sim = SimHalf(inning, half)
    mask, outs, runs = 0, 0, 0
    for _ in range(cap):
        if outs >= 3:
            break
        outcome = _sample(model, rng)
        if outcome is Outcome.GDP and not model.gdp_applies(mask, outs):
            outcome = Outcome.OUT
        token = _emit_token(model, mask, outs, outcome, rng)
        sim.plays.append(SimPlay(next(batters), token, mask, outs, runs))
        mask, outs_added, scored = model.apply_outcome(mask, outs, outcome)
        outs += outs_added
        runs += scored
    else:
        sim.capped = outs < 3
    sim.runs = runs
    return sim


def _sample(model: OutcomeModel, rng: random.Random) -> Outcome:
    roll = rng.random()
    acc = 0.0
    for outcome in Outcome:
        acc += model.prob(outcome)
        if roll < acc:
            return outcome
    return Outcome.OUT  # float slack at the top of the ladder


def simulate_game(
    model: OutcomeModel,
    game_no: int,
    rng: random.Random,
    season: int = 2000,
    innings: int = 9,
    midgame_subs: bool = False,
) -> SimGame:
    """One synthetic game: fixed teams, nine innings, ties allowed.

    midgame_subs swaps in a relief pitcher for each side partway through
    the sixth inning to exercise mid-inning pitcher crediting.
    """
    day, number = divmod(game_no, 10)
    date = datetime.date(season, 4, 1) + datetime.timedelta(days=day)
    game_id = f"HOM{date.strftime('%Y%m%d')}{number}"
    lineup_pos = {0: 0, 1: 0}
    halves: list[SimHalf] = []

    def batting_order(team: int):
        prefix = "v" if team == 0 else "h"
        while True:
            lineup_pos[team] = lineup_pos[team] % 9 + 1
            yield f"{prefix}bat{lineup_pos[team]:04d}"

    for inning in range(1, innings + 1):
        for half in (Half.TOP, Half.BOTTOM):
            team = int(half)
            sim = simulate_half_inning(
                model, rng, batting_order(team), inning=inning, half=half
            )
            if midgame_subs and inning == 6 and len(sim.plays) >= 2:
                fielding = 1 - team
                prefix = "v" if fielding == 0 else "h"
                sim.subs.append(
                    (1, SimSub(f"{prefix}pit0002", f"Relief {prefix.upper()}", fielding, 0, 1))
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
        for team, prefix in ((0, "v"), (1, "h")):
            for slot in range(1, 10):
                lines.append(
                    f'start,{prefix}bat{slot:04d},"{prefix.upper()} Batter {slot}",{team},{slot},{slot + 1}'
                )
            lines.append(
                f'start,{prefix}pit0001,"{prefix.upper()} Pitcher",{team},0,1'
            )
        for sim in game.halves:
            sub_at = dict()
            for idx, sub in sim.subs:
                sub_at.setdefault(idx, []).append(sub)
            for idx, play in enumerate(sim.plays):
                for sub in sub_at.get(idx, []):
                    lines.append(
                        f'sub,{sub.player_id},"{sub.name}",{sub.team},{sub.batting_order},{sub.position}'
                    )
                lines.append(
                    f"play,{sim.inning},{int(sim.half)},{play.batter_id},??,,{play.token}"
                )
    return "\n".join(lines) + "\n"


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
    advances = dict(DEFAULT_ADVANCES)
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
    return parse_model_text(Path(path).read_text())


def default_model() -> OutcomeModel:
    return parse_model_text(DEFAULT_MODEL_TEXT)
