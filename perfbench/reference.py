"""Output checks against computations made apart from the program.

Ingest workloads are checked against a tally built straight from the
simulator's record of each half-inning (``SimPlay.pre_mask``, ``pre_outs``,
``pre_runs``, ``SimHalf.runs`` and ``SimHalf.subs``).  It never touches the
play-token parser or the base-out replayer, so a fault in either shows as a
mismatch.  The query workload is checked against a recomputation of every
printed number from the generator's own tallies.

Every check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

from baserisk.cache import read_cache

from workloads import Inputs, SyntheticCache

HIGH_LEVERAGE_INNINGS = (8, 9)
HIGH_LEVERAGE_MARGIN = 1
FIRST, SECOND, THIRD = 1, 2, 4
# a printed three-decimal number may sit half a step from the true value
DISPLAY_TOLERANCE = 0.0005 + 1e-9
TABLE2_EDGES = (100, 150, 200, 250, 300, 350)
TABLE3_MIN_HL = 350


def classify(mask: int, outs: int) -> tuple[str, int] | None:
    if mask & THIRD and outs in (0, 1):
        return ("third_occupied", outs)
    if mask & SECOND and not mask & THIRD and outs in (0, 1):
        return ("second_no_third", outs)
    if mask == FIRST and outs in (1, 2):
        return ("first_only", outs)
    return None


def reference_tally(inputs: Inputs) -> tuple[dict, dict]:
    """Tally cells and per-pitcher half-innings from the simulator record.

    Applies the three classes, the first qualifying snapshot per class per
    half-inning, the 8th/9th-inning one-run leverage rule and the years
    window, with runs on the snapshot's own play counted (the default mode).
    """
    cells: dict[tuple, list[int]] = {}
    innings: dict[tuple[str, int], list[int]] = {}
    years = inputs.years
    for sim in inputs.sim_files:
        rename = sim.pitcher_ids
        for game in sim.games:
            season = int(game.date[:4])
            if years and not years[0] <= season <= years[1]:
                continue
            score = [0, 0]
            pitcher = {0: rename["vpit0001"], 1: rename["hpit0001"]}
            for half in game.halves:
                batting = int(half.half)
                subs = {}
                for idx, sub in half.subs:
                    subs.setdefault(idx, []).append(sub)
                seen: set[tuple[str, int]] = set()
                faced: set[str] = set()
                faced_hl: set[str] = set()
                for idx, play in enumerate(half.plays):
                    for sub in subs.get(idx, []):
                        if sub.position == 1:
                            pitcher[sub.team] = rename[sub.player_id]
                    pid = pitcher[1 - batting]
                    margin = abs(score[batting] + play.pre_runs - score[1 - batting])
                    hl = half.inning in HIGH_LEVERAGE_INNINGS and margin <= HIGH_LEVERAGE_MARGIN
                    faced.add(pid)
                    if hl:
                        faced_hl.add(pid)
                    situation = classify(play.pre_mask, play.pre_outs)
                    if situation is None or situation in seen:
                        continue
                    seen.add(situation)
                    cell = cells.setdefault((pid, *situation, season, hl), [0, 0])
                    cell[0] += half.runs - play.pre_runs >= 1
                    cell[1] += 1
                for pid in faced:
                    cell = innings.setdefault((pid, season), [0, 0])
                    cell[0] += pid in faced_hl
                    cell[1] += 1
                score[batting] += half.runs
    return cells, innings


def check_ingest(inputs: Inputs, summaries: list[str]) -> list[str]:
    """The written cache equals the reference tally cell for cell, and every
    ingest round reported the expected games and nothing dropped."""
    problems = []
    cells, innings = reference_tally(inputs)
    games = sum(
        1 for sim in inputs.sim_files for g in sim.games
        if not inputs.years or inputs.years[0] <= int(g.date[:4]) <= inputs.years[1]
    )
    for n, summary in enumerate(summaries):
        fields = dict(part.split("=", 1) for part in summary.split() if "=" in part)
        want = {"games": str(games), "skipped": "0", "quarantined": "0", "incomplete": "0"}
        for key, value in want.items():
            if fields.get(key) != value:
                problems.append(f"round {n}: {key}={fields.get(key)} in {summary!r}, "
                                f"expected {value}")
    cache = read_cache(inputs.cache_path)
    got_cells = {
        (pid, kind.value, outs, season, lev): cell
        for (pid, kind, outs, season, lev), cell in cache.table.cells.items()
    }
    problems += _diff("cell", got_cells, cells)
    problems += _diff("innings", cache.innings.counts, innings)
    return problems


def _diff(label: str, got: dict, want: dict) -> list[str]:
    problems = []
    for key in sorted(set(got) | set(want), key=repr):
        if list(got.get(key, [0, 0])) != list(want.get(key, [0, 0])):
            problems.append(f"{label} {key}: cache {got.get(key)}, reference {want.get(key)}")
    return problems[:20]


# --- query-reports -----------------------------------------------------------

def _threshold(t: float, s: float, f: float) -> tuple[float, bool]:
    if t > s:
        return f / (f + t - s), False
    return 1.0, True


def _pooled(syn: SyntheticCache, outs: int, pitchers: set[str] | None,
            leverage: bool | None) -> tuple[tuple[int, int], ...]:
    wanted = (("third_occupied", outs), ("second_no_third", outs), ("first_only", outs + 1))
    sums = {w: [0, 0] for w in wanted}
    for (pid, kind, cell_outs, _season, lev), (num, den) in syn.cells.items():
        if (kind, cell_outs) not in sums:
            continue
        if pitchers is not None and pid not in pitchers:
            continue
        if leverage is not None and lev != leverage:
            continue
        sums[(kind, cell_outs)][0] += num
        sums[(kind, cell_outs)][1] += den
    return tuple(tuple(sums[w]) for w in wanted)


def _rates_threshold(triple) -> tuple[float, float, float, float, bool] | None:
    if any(den == 0 for _, den in triple):
        return None
    t, s, f = (num / den for num, den in triple)
    brt, clamped = _threshold(t, s, f)
    return t, s, f, brt, clamped


def careers(syn: SyntheticCache) -> dict[str, int]:
    """Career high-leverage half-innings per pitcher."""
    total: dict[str, int] = {}
    for (pid, _season), (hl, _all) in syn.innings.items():
        total[pid] = total.get(pid, 0) + hl
    return total


def _per_pitcher(syn: SyntheticCache) -> dict[str, dict]:
    """Cells grouped by pitcher, so the per-pitcher pass stays linear."""
    grouped: dict[str, dict] = {}
    for key, value in syn.cells.items():
        grouped.setdefault(key[0], {})[key] = value
    return grouped


def check_query(syn: SyntheticCache, outputs: dict[str, str]) -> list[str]:
    problems = []
    problems += _check_table1(syn, outputs["table1"])
    grouped = {pid: SyntheticCache(cells, {}) for pid, cells in _per_pitcher(syn).items()}
    problems += _check_table2(syn, grouped, outputs["table2"])
    problems += _check_table3(syn, grouped, outputs["table3"])
    return problems


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _near(printed: str, value: float | None, where: str, problems: list[str]) -> None:
    if value is None:
        if printed != "":
            problems.append(f"{where}: printed {printed!r}, expected blank")
        return
    try:
        got = float(printed)
    except ValueError:
        problems.append(f"{where}: printed {printed!r}, expected {value:.6f}")
        return
    if abs(got - value) > DISPLAY_TOLERANCE:
        problems.append(f"{where}: printed {printed}, expected {value:.6f}")


def _exact(printed: str, value, where: str, problems: list[str]) -> None:
    if printed != str(value):
        problems.append(f"{where}: printed {printed!r}, expected {value!r}")


def _check_table1(syn: SyntheticCache, text: str) -> list[str]:
    problems: list[str] = []
    rows = _rows(text)
    columns = [("all", 1, None), ("all", 0, None), ("hl", 1, True), ("hl", 0, True)]
    want_header = ["stat", "all/1 out", "all/0 outs", "late close/1 out", "late close/0 outs"]
    if not rows or rows[0] != want_header:
        return [f"table1 header {rows[:1]!r}"]
    by_stat = {row[0]: row[1:] for row in rows[1:]}
    if sorted(by_stat) != sorted(["T", "S", "F", "threshold", "n(T)", "n(S)", "n(F)"]):
        return [f"table1 rows {sorted(by_stat)!r}"]
    for col, (scope, outs, leverage) in enumerate(columns):
        triple = _pooled(syn, outs, None, leverage)
        value = _rates_threshold(triple)
        where = f"table1 {scope}/{outs}"
        if value is None:
            problems.append(f"{where}: generator left an empty pooled cell")
            continue
        t, s, f, brt, clamped = value
        for stat, v in (("T", t), ("S", s), ("F", f)):
            _near(by_stat[stat][col], v, f"{where} {stat}", problems)
        printed = by_stat["threshold"][col]
        if printed.endswith("*") != clamped:
            problems.append(f"{where}: threshold {printed!r}, clamped={clamped}")
        _near(printed.rstrip("*"), brt, f"{where} threshold", problems)
        for stat, (_, den) in zip(("n(T)", "n(S)", "n(F)"), triple):
            _exact(by_stat[stat][col], den, f"{where} {stat}", problems)
    return problems


def _check_table2(syn: SyntheticCache, grouped: dict, text: str) -> list[str]:
    problems: list[str] = []
    rows = _rows(text)
    header = ["outs", "group", "pitchers", "cumulative", "mean", "stddev", "dropped"]
    career_of = careers(syn)
    edges = list(TABLE2_EDGES) + [None]
    expected = []
    for outs in (1, 0):
        for low, high in zip(edges[:-1], edges[1:]):
            members = {p for p, c in career_of.items() if c >= low and (high is None or c < high)}
            pooled = _rates_threshold(_pooled(syn, outs, members, True)) if members else None
            values, dropped = [], 0
            for pid in members:
                one = _rates_threshold(_pooled(grouped[pid], outs, None, True))
                if one is None:
                    dropped += 1
                else:
                    values.append(one[3])
            mean = sum(values) / len(values) if values else None
            stddev = (math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
                      if values else None)
            label = f"{low}+" if high is None else f"{low}-{high - 1}"
            expected.append((outs, label, len(members), pooled and pooled[3],
                             mean, stddev, dropped))
    if not rows or rows[0] != header or len(rows) != len(expected) + 1:
        return [f"table2 shape: {len(rows)} rows, header {rows[:1]!r}"]
    for row, (outs, label, n, cumulative, mean, stddev, dropped) in zip(rows[1:], expected):
        where = f"table2 outs={outs} {label}"
        _exact(row[0], outs, f"{where} outs", problems)
        _exact(row[1], label, f"{where} group", problems)
        _exact(row[2], n, f"{where} pitchers", problems)
        _near(row[3], cumulative, f"{where} cumulative", problems)
        _near(row[4], mean, f"{where} mean", problems)
        _near(row[5], stddev, f"{where} stddev", problems)
        _exact(row[6], dropped, f"{where} dropped", problems)
    return problems


def _check_table3(syn: SyntheticCache, grouped: dict, text: str) -> list[str]:
    problems: list[str] = []
    rows = _rows(text)
    career_of = careers(syn)
    expected = {}
    for pid, career in career_of.items():
        if career < TABLE3_MIN_HL:
            continue
        value = _rates_threshold(_pooled(grouped[pid], 1, None, True))
        if value is not None:
            expected[pid] = value
    if not rows or rows[0] != ["last", "first", "T", "S", "F", "threshold", "ERA"]:
        return [f"table3 header {rows[:1]!r}"]
    body, mean_row = rows[1:-1], rows[-1]
    printed = [row[0] for row in body]
    if sorted(printed) != sorted(expected):
        return [f"table3 pitchers {sorted(printed)!r}, expected {sorted(expected)!r}"]
    for before, after in zip(printed, printed[1:]):
        if expected[before][3] > expected[after][3] + 1e-12:
            problems.append(f"table3 order: {before} printed before {after}")
    for row in body:
        t, s, f, brt, _ = expected[row[0]]
        where = f"table3 {row[0]}"
        _exact(row[1], "", f"{where} first", problems)
        for col, v in zip(row[2:6], (t, s, f, brt)):
            _near(col, v, where, problems)
        _exact(row[6], "", f"{where} ERA", problems)
    n = len(expected)
    means = [sum(v[i] for v in expected.values()) / n for i in (0, 1, 2, 3)]
    if mean_row[:2] != ["mean", ""]:
        problems.append(f"table3 mean row {mean_row!r}")
    for col, v in zip(mean_row[2:6], means):
        _near(col, v, "table3 mean", problems)
    return problems


def check_same_cache(first: Path, second: Path) -> list[str]:
    if first.read_bytes() != second.read_bytes():
        return [f"{second.name} differs from {first.name}"]
    return []
