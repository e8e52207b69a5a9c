"""Situation classification, tally tables, and the risk-threshold math.

Three situation classes are tracked, each at a fixed out count:

* third occupied (any first/second), 0 or 1 outs
* second occupied and third empty (any first), 0 or 1 outs
* exactly one runner, on first, 1 or 2 outs

A half-inning contributes at most one observation per class, taken at the
first play that starts in it; the recorded outcome is whether at least one
run scored from that point to the end of the half-inning.  The classes and
the high-leverage window are defined in ``state``, whose replay records
each half's first play per class and the pitchers who faced it; this module
turns that record into observations and tally cells.  The threshold for
sending a runner compares the scoring rate lost by an out on the bases
against the rate gained by taking the extra base:

    brt = f / (f + t - s)        when t > s, else clamped to 1

where t, s, f are the scoring rates from the third-occupied class at i
outs, the second-no-third class at i outs, and the first-only class at
i + 1 outs.  Sending the runner is worthwhile when the success probability
p is at least brt.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .eventfile import Half
from .state import CLASS_AT, ClassKind, SituationClass, StateTimeline, classify_state

__all__ = [
    "BRTValue",
    "BucketRow",
    "CELLS",
    "ClassKind",
    "CountingMode",
    "Decision",
    "EmptyBucket",
    "EmptyCell",
    "InningCounts",
    "Rate",
    "RateSummary",
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
    "rates",
    "tally_halves",
]


class CountingMode(Enum):
    """Whether a run scoring on the observed play itself counts as scoring
    later in the inning.  The observation is of the pre-play state, so the
    default says yes; the alternative starts counting at the next play."""

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


# the six cells that classify_state can produce, in the order of their slots
# in a block of a RateSummary row
CELLS = tuple(dict.fromkeys(situation for situation in CLASS_AT if situation is not None))


class SituationObservation(NamedTuple):
    """A tuple, since ingest builds one per class per half-inning."""

    half_inning_key: tuple[str, int, Half]
    pitcher_id: str
    situation: SituationClass
    scored_later: bool
    high_leverage: bool
    season: int


def extract_observations(
    timeline: StateTimeline, mode: CountingMode = CountingMode.INCLUDE_PLAY
) -> list[SituationObservation]:
    """The observations of replay's record of the half: the first
    qualifying play per class, with its pitcher and leverage, and
    whether a run scored from it to the end of the half.

    Quarantined and incomplete timelines yield nothing.
    """
    if timeline.excluded is not None or not timeline.complete:
        return []
    key, season, runs = timeline.half_inning_key, timeline.season, timeline.runs
    exclude = mode is CountingMode.EXCLUDE_PLAY
    return [
        SituationObservation(key, pid, situation,
                             runs - earlier - (on_play if exclude else 0) >= 1, high, season)
        for situation, (pid, earlier, on_play, high) in timeline.firsts.items()
    ]


# (pitcher, class kind, outs, season, high_leverage) -> [numerator, denominator]
TallyKey = tuple[str, ClassKind, int, int, bool]


@dataclass
class TallyTable:
    cells: dict[TallyKey, list[int]] = field(default_factory=dict)

    def add_all(self, observations: Iterable[SituationObservation]) -> None:
        cells = self.cells
        for _, pid, (kind, outs), scored_later, high_leverage, season in observations:
            cell = cells.setdefault((pid, kind, outs, season, high_leverage), [0, 0])
            cell[1] += 1
            if scored_later:
                cell[0] += 1


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
        """Count a usable half for each pitcher in replay's record of it."""
        if timeline.excluded is not None or not timeline.complete:
            return
        for pid, high in timeline.faced.items():
            cell = self.counts.setdefault((pid, timeline.season), [0, 0])
            cell[0] += high
            cell[1] += 1


def tally_halves(timelines: Iterable[StateTimeline], table: TallyTable,
                 innings: InningCounts, mode: CountingMode) -> int:
    """Add each half's record straight into the table's cells and the
    innings rows, as ``extract_observations``, ``TallyTable.add_all`` and
    ``InningCounts.add_timeline`` would, but with no observation built;
    return the number of observations.  Every half must be complete and
    unquarantined, as ``pipeline.iter_timelines`` yields them: this loop
    does not check."""
    cells, counts = table.cells, innings.counts
    exclude = mode is CountingMode.EXCLUDE_PLAY
    observations = 0
    for timeline in timelines:
        season, runs, firsts = timeline.season, timeline.runs, timeline.firsts
        observations += len(firsts)
        for (kind, outs), (pid, earlier, on_play, high) in firsts.items():
            cell = cells.setdefault((pid, kind, outs, season, high), [0, 0])
            cell[0] += runs - earlier - (on_play if exclude else 0) >= 1
            cell[1] += 1
        for pid, high in timeline.faced.items():
            cell = counts.setdefault((pid, season), [0, 0])
            cell[0] += high
            cell[1] += 1
    return observations


def career_high_leverage_innings(
    innings: InningCounts, years: tuple[int, int] | None = None
) -> dict[str, int]:
    """Distinct half-innings in which each pitcher faced at least one
    high-leverage play, for every pitcher with an innings row (0 when
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


# (class, outs) -> the slot of the cell in a block of a RateSummary row
_SLOT = {cell: i for i, cell in enumerate(CELLS)}
# where each block starts in a RateSummary row, by the leverage a question
# keeps: an all-innings question adds both blocks
_BLOCKS = {False: (0,), True: (len(CELLS),), None: (0, len(CELLS))}


def _triple_slots(outs: int, leverage: bool | None) -> tuple[tuple[int, ...], ...]:
    """The slots that add up to T, S and F at threshold index ``outs``."""
    if outs not in (0, 1):
        raise ValueError("threshold index must be 0 or 1")
    cells = (_SLOT[SituationClass(ClassKind.THIRD_OCCUPIED, outs)],
             _SLOT[SituationClass(ClassKind.SECOND_NO_THIRD, outs)],
             _SLOT[SituationClass(ClassKind.FIRST_ONLY, outs + 1)])
    return tuple(tuple(block + i for block in _BLOCKS[leverage]) for i in cells)


class RateSummary:
    """Each pitcher's six (class, outs) cells summed over the seasons
    inside ``years`` in one walk of the table, so that every rate question
    of a report reads the summary, not the table.

    A row holds two blocks of six slots, one per cell of ``CELLS``: the
    other cells, then the high-leverage cells.  Without a table the
    summary starts empty, and a reader adds each cell into ``row(pid)`` at
    ``slot(...)``.  ``triple`` and ``pooled`` answer every question.
    """

    def __init__(self, table: TallyTable | None = None,
                 years: tuple[int, int] | None = None) -> None:
        self.years = years
        # pitcher -> (numerators, denominators), for every pitcher with a
        # cell, inside years or not
        self.rows: dict[str, tuple[list[int], list[int]]] = {}
        if table is None:
            return
        for (pid, kind, outs, season, lev), (num, den) in table.cells.items():
            nums, dens = self.row(pid)
            i = self.slot(kind, outs, season, lev)
            if i is not None:
                nums[i] += num
                dens[i] += den

    def slot(self, kind: ClassKind, outs: int, season: int, high_leverage: bool) -> int | None:
        """Where a cell with this key adds in a row, or None when it adds
        nowhere: its season is outside ``years``, or no class has it, which
        only a table built by hand can hold."""
        i = _SLOT.get((kind, outs))
        years = self.years
        if i is None or years and not (years[0] <= season <= years[1]):
            return None
        return i + len(CELLS) * high_leverage

    def row(self, pid: str) -> tuple[list[int], list[int]]:
        """``pid``'s other and high-leverage blocks, zeros when new."""
        row = self.rows.get(pid)
        if row is None:
            row = self.rows[pid] = ([0] * 2 * len(CELLS), [0] * 2 * len(CELLS))
        return row

    def triple(self, pid: str, outs: int, leverage: bool | None = None) -> RateTriple | None:
        """``pid``'s scoring rates for the three classes at threshold index
        ``outs`` (the first-only class is read at ``outs + 1``), 0 of 0
        where no cell of theirs matches; None when ``pid`` has no row.

        leverage=True keeps only high-leverage observations, False only
        the others, None keeps all.
        """
        row = self.rows.get(pid)
        return None if row is None else _summed((row,), outs, leverage)

    def pooled(self, outs: int, leverage: bool | None = None,
               pids: Iterable[str] | None = None) -> RateTriple:
        """``triple`` summed slot by slot over ``pids``, each id once, or
        over every row; an id with no row adds nothing."""
        rows = self.rows
        chosen = rows.values() if pids is None else [rows[p] for p in set(pids) if p in rows]
        return _summed(chosen, outs, leverage)


def _summed(rows: Collection[tuple[list[int], list[int]]], outs: int,
            leverage: bool | None) -> RateTriple:
    """T, S and F summed over ``rows`` slot by slot."""
    return RateTriple(*(
        Rate(sum(nums[i] for nums, _ in rows for i in slots),
             sum(dens[i] for _, dens in rows for i in slots))
        for slots in _triple_slots(outs, leverage)
    ), outs)


def rates(
    table: TallyTable,
    outs: int,
    leverage: bool | None = None,
    years: tuple[int, int] | None = None,
) -> RateTriple:
    """``RateSummary.pooled`` for a single question."""
    return RateSummary(table, years).pooled(outs, leverage)


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
    pitchers: list[str]
    cumulative: BRTValue | None
    mean: float | None
    stddev: float | None
    excluded: list[str]  # pitchers dropped from mean/stddev for empty cells


def _bucket_row(label: str, members: list[str], summary: RateSummary, outs: int) -> BucketRow:
    """Pooled high-leverage threshold of the members, no id twice, plus
    the spread of their own thresholds, leaving out members with an empty
    cell."""
    pooled = summary.pooled(outs, True, members)
    cumulative = brt_from_rates(pooled) if pooled.complete() else None
    per_pitcher: list[float] = []
    excluded: list[str] = []
    for pid in members:
        triple = summary.triple(pid, outs, True)
        if triple is not None and triple.complete():
            per_pitcher.append(brt_from_rates(triple).brt)
        else:
            excluded.append(pid)
    import statistics  # only table2's bucket spread needs it

    mean = statistics.fmean(per_pitcher) if per_pitcher else None
    stddev = statistics.pstdev(per_pitcher) if per_pitcher else None
    return BucketRow(label, sorted(members), cumulative, mean, stddev, excluded)


def bucket_report(
    summary: RateSummary,
    innings: InningCounts,
    outs: int,
    boundaries: tuple[int, ...] = (100, 150, 200, 250, 300, 350),
    cohort_last_season_min: int | None = None,
) -> list[BucketRow]:
    """Group pitchers by career high-leverage half-innings and report the
    pooled high-leverage threshold plus the spread of per-pitcher thresholds
    per bucket.  Careers count the seasons the summary covers.

    With a single pitcher in a bucket the population stddev is 0.
    """
    careers = career_high_leverage_innings(innings, summary.years)
    if cohort_last_season_min is not None:
        cohort = {pid for pid, season in innings.counts if season >= cohort_last_season_min}
        careers = {pid: career for pid, career in careers.items() if pid in cohort}

    edges = list(boundaries) + [None]
    rows: list[BucketRow] = []
    for low, high in zip(edges[:-1], edges[1:]):
        members = sorted(
            pid for pid, career in careers.items()
            if career >= low and (high is None or career < high)
        )
        label = f"{low}+" if high is None else f"{low}-{high - 1}"
        rows.append(_bucket_row(label, members, summary, outs))
    if not any(row.pitchers for row in rows):
        raise EmptyBucket("no pitcher reached the first boundary")
    return rows


def group_summary(summary: RateSummary, pitcher_ids: list[str], outs: int) -> BucketRow:
    """A ``leaders`` row of bucket-style stats for an explicit pitcher list,
    each id counted once."""
    if not pitcher_ids:
        raise EmptyBucket("empty pitcher list")
    members = list(dict.fromkeys(pitcher_ids))
    return _bucket_row("leaders", members, summary, outs)
