"""Seeded inputs for the three benchmark workloads.

Every input is a pure function of the workload seed.  The ingest workloads
are simulated with ``oracle.simulate_season`` and rendered with
``oracle.emit_event_file``; per-file pitcher renaming and token decoration
are plain text rewrites done here, so the program only ever sees the files.
The query workload's tally cache is synthesised directly and written with
``cache.write_cache``.

Each generator returns an ``Inputs`` record: the files handed to the
program, the CLI commands one round runs, the facts the independent checks
in ``reference.py`` need, and a one-line make-up summary.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from baserisk import oracle
from baserisk.cache import StatsCache, write_cache
from baserisk.stats import ClassKind, CountingMode, InningCounts, TallyTable

# season-ingest: one large file with mid-game relief.  The ROADMAP's 2,000
# games take about 9 s per ingest on a shared 2-core virtual machine, too
# long for several rounds per run, so the file holds fewer games of the
# same kind.
SEASON_GAMES = 600
SEASON_YEAR = 2000

# archive-ingest: many small files, each with its own pitcher ids, seasons
# running past both ends of the --years window.
ARCHIVE_FILES = 400
ARCHIVE_GAMES_PER_FILE = 2
ARCHIVE_SEASONS = (1978, 2017)
ARCHIVE_YEARS = (1984, 2011)

# query-reports: a synthetic cache over 28 seasons.
QUERY_PITCHERS = 160
QUERY_SEASONS = (1984, 2011)
QUERY_BUCKETS = ((20, 100), (100, 150), (150, 200), (200, 250), (250, 300),
                 (300, 350), (350, 520))  # career HL innings; first is below table2

# (class kind, outs) cells that the three situation classes use
CLASS_CELLS = (
    ("third_occupied", 0), ("third_occupied", 1),
    ("second_no_third", 0), ("second_no_third", 1),
    ("first_only", 1), ("first_only", 2),
)

_FIELDERS = ("1", "13", "15", "2", "23", "25", "3", "34", "3D", "4", "46", "5",
             "56", "6", "64", "7", "78", "8", "89", "9", "12", "16", "24", "26",
             "35", "36", "45", "57", "58", "67", "68", "79")
_DEPTHS = ("", "", "S", "M", "D", "L", "XD", "LS", "LD", "F", "MS", "MD")
_HARDNESS = ("", "", "+", "-")
_RUN_NOTES = ("", "", "(RBI)", "(UR)", "(NR)", "(UR)(NR)")
_ADVANCE_NOTES = ("", "", "", "(TH)")


@dataclass
class SimFile:
    """One generated event file and the simulator record behind it."""

    path: Path
    games: list[oracle.SimGame]
    pitcher_ids: dict[str, str]  # simulator pitcher id -> id in the file


@dataclass
class Inputs:
    commands: list[list[str]]
    makeup: str
    plays: int = 0  # play lines across the input files
    sim_files: list[SimFile] = field(default_factory=list)
    years: tuple[int, int] | None = None
    cache_path: Path | None = None  # cache each ingest round writes
    synthetic: "SyntheticCache | None" = None


@dataclass
class SyntheticCache:
    """Generator-side tallies, kept apart from baserisk's own tables.

    cells: (pitcher, kind, outs, season, high_leverage) -> (num, den)
    innings: (pitcher, season) -> (high-leverage half-innings, all)
    """

    cells: dict[tuple[str, str, int, int, bool], tuple[int, int]]
    innings: dict[tuple[str, int], tuple[int, int]]


def generate(workload: str, seed: int, work: Path) -> Inputs:
    work.mkdir(parents=True, exist_ok=True)
    if workload == "season-ingest":
        return _season(seed, work)
    if workload == "archive-ingest":
        return _archive(seed, work)
    if workload == "query-reports":
        return _query(seed, work)
    raise ValueError(f"unknown workload {workload!r}")


def play_tokens(paths: list[Path]) -> list[str]:
    """Event text of every play line, read straight from the files."""
    tokens = []
    for path in paths:
        for line in path.read_text(encoding="latin-1").splitlines():
            if line.startswith("play,"):
                tokens.append(line.split(",", 6)[6])
    return tokens


def _makeup(files: list[SimFile], pitchers: int) -> tuple[str, int]:
    tokens = play_tokens([f.path for f in files])
    size = sum(f.path.stat().st_size for f in files)
    games = sum(len(f.games) for f in files)
    share = len(set(tokens)) / len(tokens)
    text = (f"files={len(files)} games={games} plays={len(tokens)} bytes={size} "
            f"pitchers={pitchers} distinct_tokens={len(set(tokens))} "
            f"distinct_share={share:.3f}")
    return text, len(tokens)


def _season(seed: int, work: Path) -> Inputs:
    games = oracle.simulate_season(oracle.default_model(), SEASON_GAMES, seed,
                                   season=SEASON_YEAR, midgame_subs=True)
    path = work / "season.ev"
    path.write_text(oracle.emit_event_file(games), encoding="ascii")
    ids = {p: p for p in ("vpit0001", "vpit0002", "hpit0001", "hpit0002")}
    sim = SimFile(path, games, ids)
    cache = work / "season.csv"
    makeup, plays = _makeup([sim], len(ids))
    return Inputs(
        [["ingest", "-i", str(path), "--cache", str(cache), "--jobs", "1"]],
        makeup, plays, [sim], None, cache,
    )


def _archive(seed: int, work: Path) -> Inputs:
    model = oracle.default_model()
    rng = random.Random(f"archive-{seed}")
    span = ARCHIVE_SEASONS[1] - ARCHIVE_SEASONS[0] + 1
    files = []
    for n in range(ARCHIVE_FILES):
        season = ARCHIVE_SEASONS[0] + n % span
        games = oracle.simulate_season(model, ARCHIVE_GAMES_PER_FILE,
                                       rng.randrange(2**32), season=season,
                                       midgame_subs=True)
        team = _team_code(n)
        ids = {
            "vpit0001": f"{team.lower()}v0001", "vpit0002": f"{team.lower()}v0002",
            "hpit0001": f"{team.lower()}h0001", "hpit0002": f"{team.lower()}h0002",
        }
        text = oracle.emit_event_file(games)
        for old, new in ids.items():
            text = text.replace(old, new)
        text = text.replace("HOM", team)
        path = work / f"{season}{team}.EVN"
        path.write_text(_decorate(text, rng), encoding="ascii")
        files.append(SimFile(path, games, ids))
    cache = work / "archive.csv"
    command = ["ingest"]
    for sim in files:
        command += ["-i", str(sim.path)]
    command += ["--cache", str(cache), "--years", f"{ARCHIVE_YEARS[0]}-{ARCHIVE_YEARS[1]}",
                "--jobs", "1"]
    makeup, plays = _makeup(files, 4 * len(files))
    return Inputs([command], makeup, plays, files, ARCHIVE_YEARS, cache)


def _team_code(n: int) -> str:
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    return letters[n // 676 % 26] + letters[n // 26 % 26] + letters[n % 26]


def _decorate(text: str, rng: random.Random) -> str:
    """Rewrite play lines with modifiers that leave their meaning alone:
    hit-location modifiers, run annotations and real count/pitch fields."""
    out = []
    for line in text.splitlines():
        if line.startswith("play,"):
            fields = line.split(",", 6)
            balls, strikes = rng.randrange(4), rng.randrange(3)
            fields[4] = f"{balls}{strikes}"
            fields[5] = "".join(rng.choice("BCFS") for _ in range(balls + strikes)) + "X"
            fields[6] = _decorate_token(fields[6], rng)
            line = ",".join(fields)
        out.append(line)
    return "\n".join(out) + "\n"


def _decorate_token(token: str, rng: random.Random) -> str:
    event, dot, advances = token.partition(".")
    location = rng.choice(_FIELDERS) + rng.choice(_DEPTHS) + rng.choice(_HARDNESS)
    if event[0] in "SDTH":  # hits: add a batted-ball type and location
        event += "/" + rng.choice("GLFP") + location
    elif event[0].isdigit():  # fielded outs already carry a type modifier
        event += location
    if dot:
        parts = advances.split(";")
        for i, part in enumerate(parts):
            notes = _RUN_NOTES if part.endswith("-H") else _ADVANCE_NOTES
            parts[i] = part + rng.choice(notes)
        advances = ";".join(parts)
    return event + dot + advances


def _query(seed: int, work: Path) -> Inputs:
    rng = random.Random(f"query-{seed}")
    cells: dict[tuple[str, str, int, int, bool], tuple[int, int]] = {}
    innings: dict[tuple[str, int], tuple[int, int]] = {}
    first, last = QUERY_SEASONS
    for n in range(QUERY_PITCHERS):
        pid = f"p{n:04d}{rng.choice('abcdefgh')}"
        low, high = QUERY_BUCKETS[n % len(QUERY_BUCKETS)]
        career_hl = rng.randrange(low, high)
        # career lengths cycle through 4-28 seasons by index, so the cache
        # has the same number of cells, and the reports the same work, on
        # every seed
        length = 4 + n * 7 % (last - first - 2)
        start = rng.randint(first, last - length + 1)
        seasons = list(range(start, start + length))
        hl_by_season = [0] * length
        for _ in range(career_hl):
            hl_by_season[rng.randrange(length)] += 1
        # about one pitcher in eleven has no high-leverage first-only cell
        # at two outs, so table2 drops them from the mean and stddev
        sparse = n % 11 == 5
        for season, hl in zip(seasons, hl_by_season):
            innings[(pid, season)] = (hl, hl + rng.randint(20, 70))
            for kind, outs in CLASS_CELLS:
                for lev in (True, False):
                    if lev and sparse and (kind, outs) == ("first_only", 2):
                        continue
                    den = rng.randint(1, 6) if lev else rng.randint(5, 30)
                    cells[(pid, kind, outs, season, lev)] = (
                        _scored(rng, den, kind, outs), den)
    kinds = {k.value: k for k in ClassKind}
    table = TallyTable({
        (pid, kinds[kind], outs, season, lev): [num, den]
        for (pid, kind, outs, season, lev), (num, den) in cells.items()
    })
    counts = InningCounts({key: list(value) for key, value in innings.items()})
    cache = work / "query.csv"
    write_cache(cache, StatsCache(table, counts, CountingMode.INCLUDE_PLAY,
                                  f"synthetic{seed:08d}"))
    commands = [
        ["table1", "--cache", str(cache), "--format", "csv"],
        ["table2", "--cache", str(cache), "--format", "csv"],
        ["table3", "--cache", str(cache), "--format", "csv"],
    ]
    makeup = (f"files=1 pitchers={QUERY_PITCHERS} seasons={last - first + 1} "
              f"cache_cells={len(cells)} innings_rows={len(innings)} "
              f"bytes={cache.stat().st_size}")
    return Inputs(commands, makeup, cache_path=cache,
                  synthetic=SyntheticCache(cells, innings))


# rough scoring chances per class, so pooled rates look like baseball
_SCORE_CHANCE = {
    ("third_occupied", 0): 0.85, ("third_occupied", 1): 0.66,
    ("second_no_third", 0): 0.62, ("second_no_third", 1): 0.41,
    ("first_only", 1): 0.27, ("first_only", 2): 0.13,
}


def _scored(rng: random.Random, den: int, kind: str, outs: int) -> int:
    chance = _SCORE_CHANCE[(kind, outs)]
    return sum(rng.random() < chance for _ in range(den))
