"""Situation classification, tally tables, and the risk-threshold math.

Three situation classes are tracked, each at a fixed out count:

* third occupied (any first/second), 0 or 1 outs
* second occupied and third empty (any first), 0 or 1 outs
* exactly one runner, on first, 1 or 2 outs

A half-inning contributes at most one observation per class, taken at the
first qualifying snapshot; the recorded outcome is whether at least one run
scored from that point to the end of the half-inning.  The threshold for
sending a runner compares the scoring rate lost by an out on the bases
against the rate gained by taking the extra base:

    brt = f / (f + t - s)        when t > s, else clamped to 1

where t, s, f are the scoring rates from the third-occupied class at i
outs, the second-no-third class at i outs, and the first-only class at
i + 1 outs.  Sending the runner is worthwhile when the success probability
p is at least brt.
"""

from __future__ import annotations

import statistics
from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import Enum

from .eventfile import Half
from .state import FIRST, SECOND, THIRD, Snapshot, StateTimeline

__all__ = [
    "BRTValue",
    "BucketRow",
    "ClassKind",
    "CountingMode",
    "Decision",
    "EmptyBucket",
    "EmptyCell",
    "InningCounts",
    "Rate",
    "RateTriple",
    "SituationClass",
    "SituationObservation",
    "TallyTable",
    "add_cells",
    "brt_from_rates",
    "bucket_report",
    "career_high_leverage_innings",
    "classify_state",
    "compute_brt",
    "decide",
    "extract_observations",
    "group_summary",
    "pooled_rates",
    "rates",
    "rates_by_pitcher",
]

HIGH_LEVERAGE_INNINGS = (8, 9)
HIGH_LEVERAGE_MARGIN = 1


class ClassKind(Enum):
    THIRD_OCCUPIED = "third_occupied"
    SECOND_NO_THIRD = "second_no_third"
    FIRST_ONLY = "first_only"


@dataclass(frozen=True)
class SituationClass:
    kind: ClassKind
    outs: int


class CountingMode(Enum):
    """Whether a run scoring on the snapshot's own play counts as scoring
    later in the inning.  The snapshot is the pre-play state, so the default
    says yes; the alternative starts counting at the next play."""

    INCLUDE_PLAY = "include"
    EXCLUDE_PLAY = "exclude"


class Decision(Enum):
    AGGRESSIVE = "aggressive"
    INDIFFERENT = "indifferent"
    CONVENTIONAL = "conventional"


class EmptyCell(ValueError):
    """A rate was requested from a cell with a zero denominator."""


class EmptyBucket(ValueError):
    """No pitcher fell into any requested bucket."""


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


@dataclass(frozen=True)
class SituationObservation:
    half_inning_key: tuple[str, int, Half]
    pitcher_id: str
    situation: SituationClass
    scored_later: bool
    high_leverage: bool
    season: int


def _high_leverage(snap: Snapshot, timeline: StateTimeline) -> bool:
    """Late and close at this snapshot, and never once the game's running
    score is no longer trustworthy."""
    return (
        snap.inning in HIGH_LEVERAGE_INNINGS
        and abs(snap.score_batting - snap.score_fielding) <= HIGH_LEVERAGE_MARGIN
        and timeline.score_reliable
    )


def extract_observations(
    timeline: StateTimeline, mode: CountingMode = CountingMode.INCLUDE_PLAY
) -> list[SituationObservation]:
    """First qualifying snapshot per class, at most one per half-inning.

    Quarantined and incomplete timelines yield nothing.  The high-leverage
    flag is evaluated at the qualifying snapshot and is never set when the
    running score is no longer trustworthy for this game.
    """
    if timeline.excluded is not None or not timeline.complete:
        return []
    runs_after = timeline.runs_after
    seen: set[SituationClass] = set()
    observations: list[SituationObservation] = []
    for idx, snap in enumerate(timeline.snapshots):
        situation = classify_state(snap.bases, snap.outs)
        if situation is None or situation in seen:
            continue
        seen.add(situation)
        later = runs_after[idx]
        if mode is CountingMode.EXCLUDE_PLAY:
            later -= timeline.runs_on_play[idx]
        observations.append(
            SituationObservation(
                timeline.half_inning_key, snap.pitcher_id, situation,
                later >= 1, _high_leverage(snap, timeline), timeline.season,
            )
        )
    return observations


# (pitcher, class kind, outs, season, high_leverage) -> [numerator, denominator]
TallyKey = tuple[str, ClassKind, int, int, bool]


@dataclass
class TallyTable:
    cells: dict[TallyKey, list[int]] = field(default_factory=dict)

    def add(self, obs: SituationObservation) -> None:
        key = (
            obs.pitcher_id, obs.situation.kind, obs.situation.outs,
            obs.season, obs.high_leverage,
        )
        cell = self.cells.setdefault(key, [0, 0])
        cell[1] += 1
        if obs.scored_later:
            cell[0] += 1

    def add_all(self, observations: list[SituationObservation]) -> None:
        for obs in observations:
            self.add(obs)


def add_cells(into: dict, cells: dict) -> None:
    """Add [numerator, denominator] pair cells into ``into`` key by key.
    ``into`` never shares a list with ``cells``."""
    for key, (num, den) in cells.items():
        cell = into.setdefault(key, [0, 0])
        cell[0] += num
        cell[1] += den


@dataclass
class InningCounts:
    """Distinct half-innings per (pitcher, season): [high-leverage, total]."""

    counts: dict[tuple[str, int], list[int]] = field(default_factory=dict)

    def add_timeline(self, timeline: StateTimeline) -> None:
        if timeline.excluded is not None or not timeline.complete:
            return
        pitchers: set[str] = set()
        hl_pitchers: set[str] = set()
        for snap in timeline.snapshots:
            pitchers.add(snap.pitcher_id)
            if _high_leverage(snap, timeline):
                hl_pitchers.add(snap.pitcher_id)
        for pid in pitchers:
            cell = self.counts.setdefault((pid, timeline.season), [0, 0])
            cell[1] += 1
            if pid in hl_pitchers:
                cell[0] += 1


def career_high_leverage_innings(
    innings: InningCounts, years: tuple[int, int] | None = None
) -> dict[str, int]:
    """Distinct half-innings in which each pitcher faced at least one
    high-leverage snapshot, for every pitcher with an innings row (0 when
    none of their seasons falls inside ``years``)."""
    careers: dict[str, int] = {}
    for (pid, season), (hl, _) in innings.counts.items():
        inside = not years or years[0] <= season <= years[1]
        careers[pid] = careers.get(pid, 0) + (hl if inside else 0)
    return careers


@dataclass(frozen=True)
class Rate:
    numerator: int
    denominator: int

    @property
    def value(self) -> float | None:
        if self.denominator == 0:
            return None
        return self.numerator / self.denominator

    def require(self, label: str = "cell") -> float:
        if self.denominator == 0:
            raise EmptyCell(f"{label} has no observations")
        return self.numerator / self.denominator


@dataclass(frozen=True)
class RateTriple:
    t: Rate  # third occupied, i outs
    s: Rate  # second, third empty, i outs
    f: Rate  # first only, i + 1 outs
    outs: int

    def complete(self) -> bool:
        return all(r.denominator > 0 for r in (self.t, self.s, self.f))


# each class's place in a RateTriple
_SLOTS = {ClassKind.THIRD_OCCUPIED: 0, ClassKind.SECOND_NO_THIRD: 1, ClassKind.FIRST_ONLY: 2}


def rates_by_pitcher(
    table: TallyTable,
    outs: int,
    leverage: bool | None = None,
    years: tuple[int, int] | None = None,
) -> dict[str, RateTriple]:
    """Scoring rates for the three classes at threshold index ``outs`` (the
    first-only class is read at ``outs + 1``), for every pitcher with at
    least one matching cell.

    leverage=True keeps only high-leverage observations, None keeps all.
    """
    if outs not in (0, 1):
        raise ValueError("threshold index must be 0 or 1")
    wanted = {
        ClassKind.THIRD_OCCUPIED: outs,
        ClassKind.SECOND_NO_THIRD: outs,
        ClassKind.FIRST_ONLY: outs + 1,
    }
    sums: dict[tuple[str, ClassKind], list[int]] = {}
    for (pid, kind, cell_outs, season, lev), (num, den) in table.cells.items():
        if wanted.get(kind) != cell_outs:
            continue
        if leverage is not None and lev != leverage:
            continue
        if years and not (years[0] <= season <= years[1]):
            continue
        cell = sums.setdefault((pid, kind), [0, 0])
        cell[0] += num
        cell[1] += den
    return {
        pid: RateTriple(*(Rate(*sums.get((pid, kind), (0, 0))) for kind in wanted), outs)
        for pid in dict.fromkeys(pid for pid, _ in sums)
    }


def _pooled(triples: Iterable[RateTriple], outs: int) -> RateTriple:
    sums = [[0, 0], [0, 0], [0, 0]]
    for triple in triples:
        for cell, rate in zip(sums, (triple.t, triple.s, triple.f)):
            cell[0] += rate.numerator
            cell[1] += rate.denominator
    return RateTriple(*(Rate(*cell) for cell in sums), outs)


def pooled_rates(
    table: TallyTable,
    years: tuple[int, int] | None = None,
    pitchers: set[str] | None = None,
) -> dict[tuple[bool | None, int], RateTriple]:
    """Rates pooled over ``pitchers`` (all when None), from one walk of the
    table, keyed (leverage, threshold index): leverage None keeps every
    observation, True or False only those with that flag."""
    sums = {(lev, i): [[0, 0], [0, 0], [0, 0]] for lev in (None, True, False) for i in (0, 1)}
    for (pid, kind, cell_outs, season, lev), (num, den) in table.cells.items():
        slot = _SLOTS[kind]
        index = cell_outs - 1 if kind is ClassKind.FIRST_ONLY else cell_outs
        if (index not in (0, 1) or years and not years[0] <= season <= years[1]
                or pitchers is not None and pid not in pitchers):
            continue
        for scope in (None, lev):
            cell = sums[(scope, index)][slot]
            cell[0] += num
            cell[1] += den
    return {
        key: RateTriple(*(Rate(*cell) for cell in cells), key[1])
        for key, cells in sums.items()
    }


def rates(
    table: TallyTable,
    outs: int,
    pitchers: set[str] | None = None,
    leverage: bool | None = None,
    years: tuple[int, int] | None = None,
) -> RateTriple:
    """pooled_rates at one leverage and threshold index ``outs``."""
    if outs not in (0, 1):
        raise ValueError("threshold index must be 0 or 1")
    return pooled_rates(table, years, pitchers)[(leverage, outs)]


@dataclass(frozen=True)
class BRTValue:
    t: float
    s: float
    f: float
    brt: float
    clamped: bool


def compute_brt(t: float, s: float, f: float) -> BRTValue:
    """Break-even success probability for trading a base for an out risk.

    Derived from p*t >= p*s + (1-p)*f: aggressive baserunning is at least
    as good as holding exactly when p >= f / (f + t - s).  When t <= s the
    extra base never helps, so the threshold clamps to 1.
    """
    for name, value in (("t", t), ("s", s), ("f", f)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be a probability, got {value}")
    if t - s > 0.0:
        return BRTValue(t, s, f, f / (f + t - s), False)
    return BRTValue(t, s, f, 1.0, True)


def brt_from_rates(triple: RateTriple) -> BRTValue:
    t = triple.t.require("third-occupied cell")
    s = triple.s.require("second-no-third cell")
    f = triple.f.require("first-only cell")
    return compute_brt(t, s, f)


def decide(p: float, brt: float) -> Decision:
    """Compare a success probability to the threshold.  Exactly at the
    threshold the two strategies have equal expected value."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be a probability, got {p}")
    if p > brt:
        return Decision.AGGRESSIVE
    if p == brt:
        return Decision.INDIFFERENT
    return Decision.CONVENTIONAL


@dataclass
class BucketRow:
    label: str
    low: int
    high: int | None  # None for the open-ended top bucket
    pitchers: list[str]
    cumulative: BRTValue | None
    mean: float | None
    stddev: float | None
    excluded: list[str]  # pitchers dropped from mean/stddev for empty cells


def _bucket_row(
    label: str,
    low: int,
    high: int | None,
    members: list[str],
    by_pitcher: dict[str, RateTriple],
    outs: int,
) -> BucketRow:
    """Pooled threshold of the distinct members plus the spread of their
    own thresholds, leaving out members with an empty cell."""
    pooled = _pooled(
        (by_pitcher[pid] for pid in dict.fromkeys(members) if pid in by_pitcher),
        outs,
    )
    cumulative = brt_from_rates(pooled) if pooled.complete() else None
    per_pitcher: list[float] = []
    excluded: list[str] = []
    for pid in members:
        triple = by_pitcher.get(pid)
        if triple is not None and triple.complete():
            per_pitcher.append(brt_from_rates(triple).brt)
        else:
            excluded.append(pid)
    mean = statistics.fmean(per_pitcher) if per_pitcher else None
    stddev = statistics.pstdev(per_pitcher) if per_pitcher else None
    return BucketRow(label, low, high, sorted(members), cumulative, mean, stddev, excluded)


def bucket_report(
    table: TallyTable,
    innings: InningCounts,
    outs: int,
    boundaries: tuple[int, ...] = (100, 150, 200, 250, 300, 350),
    years: tuple[int, int] | None = None,
    cohort_last_season_min: int | None = None,
) -> list[BucketRow]:
    """Group pitchers by career high-leverage half-innings and report the
    pooled high-leverage threshold plus the spread of per-pitcher thresholds
    per bucket.

    With a single pitcher in a bucket the population stddev is 0.
    """
    careers = career_high_leverage_innings(innings, years)
    if cohort_last_season_min is not None:
        cohort = {pid for pid, season in innings.counts if season >= cohort_last_season_min}
        careers = {pid: career for pid, career in careers.items() if pid in cohort}
    by_pitcher = rates_by_pitcher(table, outs, leverage=True, years=years)

    edges = list(boundaries) + [None]
    rows: list[BucketRow] = []
    for low, high in zip(edges[:-1], edges[1:]):
        members = sorted(
            pid for pid, career in careers.items()
            if career >= low and (high is None or career < high)
        )
        label = f"{low}+" if high is None else f"{low}-{high - 1}"
        rows.append(_bucket_row(label, low, high, members, by_pitcher, outs))
    if not any(row.pitchers for row in rows):
        raise EmptyBucket("no pitcher reached the first boundary")
    return rows


def group_summary(
    table: TallyTable,
    pitcher_ids: list[str],
    outs: int,
    years: tuple[int, int] | None = None,
) -> BucketRow:
    """Bucket-style stats for an explicit pitcher list (e.g. save leaders)."""
    if not pitcher_ids:
        raise EmptyBucket("empty pitcher list")
    by_pitcher = rates_by_pitcher(table, outs, leverage=True, years=years)
    return _bucket_row("group", 0, None, pitcher_ids, by_pitcher, outs)
