"""End-to-end checks: synthetic seasons survive the full parse/replay path."""

import concurrent.futures
import hashlib
import os
import subprocess
import sys
import tracemalloc
from dataclasses import astuple
from pathlib import Path

import pytest

from baserisk import cli, state
from baserisk.cache import StatsCache, render_cache
from baserisk.eventfile import (
    Half, PlayLine, assemble_games, iter_games, tokenize_event_file,
)
from baserisk.oracle import default_model, emit_event_file, simulate_season
from baserisk.pipeline import (
    IngestResult, InputError, collect_observations, ingest_paths, ingest_text, iter_timelines,
)
from baserisk.state import replay_game
from baserisk.stats import CountingMode
from conftest import broken_text, damaged_texts, decorated_texts, make_game_text


@pytest.fixture(scope="module")
def replayed():
    """600 games simulated, emitted, re-parsed, and replayed."""
    games = simulate_season(default_model(), 600, seed=20_000)
    text = emit_event_file(games)
    tok_diags = tokenize_event_file(text)[1]
    accounts, asm_diags = assemble_games(text)
    replays = [replay_game(account) for account in accounts]
    return games, accounts, replays, tok_diags, asm_diags


def test_round_trip_is_diagnostic_free(replayed):
    games, accounts, replays, tok_diags, asm_diags = replayed
    assert tok_diags == []
    assert asm_diags == []
    assert len(accounts) == len(games) == 600
    for replay in replays:
        assert replay.diagnostics == []


def test_play_lines_match_simulation(replayed):
    games, accounts, _, _, _ = replayed
    for game, account in zip(games, accounts, strict=True):
        assert account.game_id == game.game_id
        assert account.season == 2000
        simulated = [
            (sim.inning, sim.half, play.batter_id, play.token)
            for sim in game.halves
            for play in sim.plays
        ]
        parsed = [
            (ev.inning, ev.half, ev.batter_id, ev.event_text)
            for ev in account.events
            if isinstance(ev, PlayLine)
        ]
        assert parsed == simulated


def test_state_traces_match_simulation(replayed):
    """Replayed pre-play state agrees with the generator, half by half."""
    games, _, replays, _, _ = replayed
    halves_checked = 0
    for game, replay in zip(games, replays, strict=True):
        assert replay.final_score == game.score
        for sim, timeline in zip(game.halves, replay.timelines, strict=True):
            assert timeline.half_inning_key == (game.game_id, sim.inning, sim.half)
            assert timeline.excluded is None
            assert timeline.complete
            assert timeline.score_reliable
            assert sum(timeline.runs_on_play) == sim.runs
            assert len(timeline.snapshots) == len(sim.plays)
            start_score = timeline.snapshots[0].score_batting
            for snap, play in zip(timeline.snapshots, sim.plays, strict=True):
                assert snap.bases == play.pre_mask
                assert snap.outs == play.pre_outs
                assert snap.score_batting - start_score == play.pre_runs
            halves_checked += 1
    assert halves_checked == 10_800


def test_ingest_counts_clean_season():
    games = simulate_season(default_model(), 100, seed=7)
    result = ingest_text(emit_event_file(games))
    assert result.games == 100
    assert result.games_skipped == 0
    assert result.half_innings == 1800
    assert result.quarantined == 0
    assert result.incomplete == 0
    assert result.diagnostic_counts == {}
    # every half contributes at most one observation per situation class
    assert 0 < result.observations <= 3 * result.half_innings
    total = sum(cell[1] for cell in result.table.cells.values())
    assert total == result.observations


def test_games_skipped_counts_every_dropped_block():
    """Two dropped game blocks under one id are two skipped games."""
    block = make_game_text([(1, 0, "vbat1", "K")])
    block = "".join(line for line in block.splitlines(keepends=True)
                    if not line.startswith("info,date"))
    result = ingest_text(block + block)
    assert (result.games, result.games_skipped) == (0, 2)
    assert result.diagnostic_counts == {"missing_info": 2}


@pytest.mark.parametrize("years,skipped,counts", [
    ((1990, 1990), 0, {}),
    ((2000, 2000), 1, {"malformed_record": 1}),
])
def test_date_after_malformed_record_sets_season(years, skipped, counts):
    """A block's last info,date decides its season, even one read after a
    malformed play has already cost the block: out of the window the block
    goes without a count or a diagnostic."""
    text = make_game_text(
        [(1, 0, "vbat1", "K"), "play,one,0,vbat1,??,,K", "info,date,2000/04/01"],
        date="1990/04/01",
    )
    result = ingest_text(text, years=years)
    assert (result.games, result.games_skipped) == (0, skipped)
    assert result.diagnostic_counts == counts


def test_start_record_after_its_batters_play_counts():
    """Every start record of a block introduces its player, one placed
    after that player's play too."""
    text = make_game_text(
        [(1, 0, "vbat1", "K"), "play,1,0,vlate1,??,,K", 'start,vlate1,"Late",0,9,7'])
    (game,), diags = assemble_games(text)
    assert diags == []
    assert "vlate1" in {entry.player_id for entry in game.starters}
    result = ingest_text(text)
    assert (result.games, result.games_skipped) == (1, 0)
    assert result.diagnostic_counts == {}


def test_ingest_heap_stays_small():
    """A 600-game file is ingested one game at a time from lines split a
    chunk at a time: the traced heap peak stays far below what the file's
    lines, records or games would take at once."""
    text = emit_event_file(simulate_season(default_model(), 600, seed=3, midgame_subs=True))
    tracemalloc.start()
    try:
        result = ingest_text(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.games == 600
    assert peak < 2 * 2**20


def test_year_filter():
    text = emit_event_file(simulate_season(default_model(), 5, seed=1, season=1984))
    assert ingest_text(text, years=(1984, 1984)).games == 5
    assert ingest_text(text, years=(1985, 1990)).games == 0


def test_ingest_workers_capped_at_file_count(tmp_path, monkeypatch):
    started = []

    class FakePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    paths = []
    for seed in range(2):
        path = tmp_path / f"sim{seed}.evn"
        path.write_text(emit_event_file(
            simulate_season(default_model(), 3, seed=seed, season=2000 + seed)))
        paths.append(path)
    assert ingest_paths(paths, jobs=64).games == 6
    assert started == [2]


@pytest.mark.parametrize("jobs,merges", [(1, 0), (2, 2)])
def test_only_worker_results_merge(tmp_path, monkeypatch, jobs, merges):
    """A task counts all its files into one result, so a serial ingest of
    three files merges nothing, and two workers' results merge once each."""
    calls = []
    merge = IngestResult.merge
    monkeypatch.setattr(IngestResult, "merge",
                        lambda self, other: calls.append(other) or merge(self, other))
    paths = []
    for seed in range(3):
        path = tmp_path / f"sim{seed}.evn"
        path.write_text(emit_event_file(
            simulate_season(default_model(), 3, seed=seed, season=2000 + seed)))
        paths.append(path)
    assert ingest_paths(paths, jobs=jobs).games == 9
    assert len(calls) == merges


def test_counting_mode_changes_numerators_only():
    text = emit_event_file(simulate_season(default_model(), 200, seed=9))
    include = ingest_text(text, CountingMode.INCLUDE_PLAY)
    exclude = ingest_text(text, CountingMode.EXCLUDE_PLAY)
    assert include.observations == exclude.observations
    assert set(include.table.cells) == set(exclude.table.cells)
    scored = lambda result: sum(c[0] for c in result.table.cells.values())
    seen = lambda result: sum(c[1] for c in result.table.cells.values())
    assert seen(include) == seen(exclude)
    assert scored(include) > scored(exclude)  # crediting the play itself


def test_parallel_ingest_matches_serial(tmp_path):
    paths = []
    for seed in range(8):
        path = tmp_path / f"sim{seed}.evn"
        path.write_text(
            emit_event_file(simulate_season(default_model(), 25, seed=seed,
                                            season=2000 + seed))
        )
        paths.append(path)
    serial = ingest_paths(paths, jobs=1)
    parallel = ingest_paths(paths, jobs=4)
    assert serial.games == parallel.games == 200
    assert serial.observations == parallel.observations
    assert serial.half_innings == parallel.half_innings
    # every worker's content digests come back for the fingerprint
    assert len(parallel.file_digests) == 8
    assert serial.file_digests == parallel.file_digests

    def rendered(result):
        return render_cache(
            StatsCache(result.table, result.innings, CountingMode.INCLUDE_PLAY, "0" * 16)
        )

    assert rendered(serial) == rendered(parallel)


def test_midgame_sub_switches_credited_pitcher():
    games = simulate_season(default_model(), 20, seed=3, midgame_subs=True)
    accounts, _ = assemble_games(emit_event_file(games))
    switches = 0
    for account in accounts:
        replay = replay_game(account)
        assert replay.diagnostics == []
        for timeline in replay.timelines:
            _, inning, half = timeline.half_inning_key
            fielding = "h" if half is Half.TOP else "v"
            pitchers = [s.pitcher_id for s in timeline.snapshots]
            if inning < 6:
                assert set(pitchers) == {f"{fielding}pit0001"}
            elif inning == 6 and len(pitchers) >= 2:
                assert pitchers[0] == f"{fielding}pit0001"
                assert set(pitchers[1:]) == {f"{fielding}pit0002"}
                switches += 1
            elif inning > 6 and pitchers:
                assert set(pitchers) == {f"{fielding}pit0002"}
    assert switches > 0


@pytest.mark.parametrize("mode", list(CountingMode), ids=lambda mode: mode.value)
@pytest.mark.parametrize("years", [None, (1984, 2005)], ids=["all-years", "1984-2005"])
def test_collect_observations_matches_ingest(tmp_path, mode, years):
    paths = []
    for season in (2000, 2010):
        path = tmp_path / f"season{season}.evn"
        path.write_text(emit_event_file(
            simulate_season(default_model(), 50, seed=11, season=season)))
        paths.append(path)
    result = ingest_paths(paths, mode, years)
    observations = list(collect_observations(paths, mode, years))
    assert len(observations) == result.observations
    assert {obs.season for obs in observations} == ({2000} if years else {2000, 2010})
    rebuilt = type(result.table)()
    rebuilt.add_all(observations)
    assert rebuilt.cells == result.table.cells


# --- differential pins -------------------------------------------------------
# SHA-256 digests of rendered caches and observation lists, computed before the
# ingest and query paths were folded onto one replay loop.  Any change to the
# chain that alters a single cell or observation changes a digest.

WINDOW = (1984, 2005)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cache_digest(result, mode):
    return _digest(render_cache(StatsCache(result.table, result.innings, mode, "0" * 16)))


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    """Twelve small relief-pitcher seasons spanning WINDOW, plus one broken file."""
    root = tmp_path_factory.mktemp("archive")
    paths = []
    for n in range(12):
        season = 1978 + 3 * n
        path = root / f"s{season}.evn"
        path.write_text(emit_event_file(simulate_season(
            default_model(), 6, seed=500 + n, season=season, midgame_subs=True)))
        paths.append(path)
    broken = root / "broken.evn"
    broken.write_text(broken_text())
    paths.append(broken)
    return paths


SEASON_DIGESTS = {
    CountingMode.INCLUDE_PLAY:
        "e46ccb74b374615053bdbb0d0715eb42ff8e2a2a8b4581814ccc93e38ab6906d",
    CountingMode.EXCLUDE_PLAY:
        "6c03032a23199f2e6fe43b93d06abc3871aa8a0bd1b535cefd12541269af4d2d",
}


@pytest.mark.parametrize("mode", list(CountingMode), ids=lambda mode: mode.value)
def test_ingest_text_cache_pinned(mode):
    text = emit_event_file(
        simulate_season(default_model(), 300, seed=4242, midgame_subs=True))
    assert _cache_digest(ingest_text(text, mode), mode) == SEASON_DIGESTS[mode]


def _own_broken_ids(paths: list[Path], root: Path) -> list[Path]:
    """The paths with the last one, a copy of the broken file, moved under
    ``root`` with its games under a home team of their own: its 1990 game
    ids are also those of a season file, and ingest and query refuse one
    game in two files.  Game ids are not in the cache."""
    broken = root / paths[-1].name
    broken.write_text(paths[-1].read_text().replace("id,HOM", "id,BRK"))
    return [*paths[:-1], broken]


@pytest.mark.parametrize("jobs", [1, 2])
def test_archive_with_a_game_in_two_files_refused(archive, jobs):
    both = r"game HOM199004010 is in both \S*/broken\.evn and \S*/s1990\.evn"
    with pytest.raises(InputError, match=both):
        ingest_paths(archive, years=WINDOW, jobs=jobs)


@pytest.mark.parametrize("jobs", [1, 2])
def test_ingest_paths_cache_pinned(archive, jobs, tmp_path):
    result = ingest_paths(_own_broken_ids(archive, tmp_path), years=WINDOW, jobs=jobs)
    assert _cache_digest(result, CountingMode.INCLUDE_PLAY) == (
        "dc85477256e60d676f09e0b9f2a2c0983cc1dfd3b285029c903f782af9a528f0")
    assert (result.games, result.games_skipped, result.observations) == (50, 2, 1144)
    assert result.diagnostic_counts == {
        "unknown_record_kind": 1, "missing_info": 2,
        "quarantined_half_inning": 1, "incomplete_half_inning": 1,
    }


def test_collect_observations_refuses_a_game_in_two_files(archive):
    both = r"game HOM199004010 is in both \S*/broken\.evn and \S*/s1990\.evn"
    with pytest.raises(InputError, match=both):
        list(collect_observations(archive, CountingMode.EXCLUDE_PLAY, WINDOW))


def test_collect_observations_pinned(archive, tmp_path):
    observations = collect_observations(
        _own_broken_ids(archive, tmp_path), CountingMode.EXCLUDE_PLAY, WINDOW)
    # the broken file's games are pinned under the ids they had before
    # they moved to a home team of their own
    rows = sorted(
        (obs.half_inning_key[0].replace("BRK", "HOM"), obs.half_inning_key[1],
         int(obs.half_inning_key[2]),
         obs.pitcher_id, obs.situation.kind.value, obs.situation.outs,
         obs.scored_later, obs.high_leverage, obs.season)
        for obs in observations
    )
    assert len(rows) == 1144
    assert _digest(repr(rows)) == (
        "c66e5fd6ad477bd7d058eeaa9b087586f01d9abfdd0e17016f9e839e8c13432f")


@pytest.fixture(scope="module")
def decorated_archive(tmp_path_factory):
    """Eight small relief-pitcher seasons and the broken file, with every
    play token decorated."""
    root = tmp_path_factory.mktemp("decorated")
    paths = []
    for n, text in enumerate(decorated_texts()):
        path = root / f"d{n}.evn"
        path.write_text(text)
        paths.append(path)
    return paths


@pytest.mark.parametrize("jobs", [1, 2])
def test_decorated_ingest_pinned(decorated_archive, jobs, tmp_path):
    result = ingest_paths(_own_broken_ids(decorated_archive, tmp_path), jobs=jobs)
    assert _cache_digest(result, CountingMode.INCLUDE_PLAY) == (
        "1d730f205167cd2f2281cbf8579f2696ece3281833f4592e1e5835f625c9c671")
    assert (result.games, result.games_skipped, result.half_innings, result.quarantined,
            result.incomplete, result.observations) == (42, 2, 756, 1, 1, 982)
    assert result.diagnostic_counts == {
        "unknown_record_kind": 1, "missing_info": 2,
        "quarantined_half_inning": 1, "incomplete_half_inning": 1,
    }


@pytest.fixture(scope="module")
def damaged_archive(tmp_path_factory):
    """Three small relief-pitcher seasons with about one record line in a
    hundred replaced by a criterion-8-style mutation of itself."""
    root = tmp_path_factory.mktemp("damaged")
    paths = []
    for n, text in enumerate(damaged_texts()):
        path = root / f"m{n}.evn"
        path.write_text(text)
        paths.append(path)
    return paths


@pytest.mark.parametrize("jobs", [1, 2])
def test_damaged_ingest_pinned(damaged_archive, jobs):
    """Digest and counters computed before ingest streamed one game at a time."""
    # no id names two game blocks, so counting dropped blocks or dropped ids
    # gives the same games_skipped
    ids = [fields[0]
           for path in damaged_archive
           for kind, fields, _ in tokenize_event_file(path.read_text(encoding="latin-1"))[0]
           if kind == "id" and fields and fields[0]]
    assert len(ids) == len(set(ids))
    result = ingest_paths(damaged_archive, jobs=jobs)
    assert _cache_digest(result, CountingMode.INCLUDE_PLAY) == (
        "34d2b3ae820ccf2d90e898af06e188be464ff329957cfd331940dfddf3e282a1")
    assert (result.games, result.games_skipped, result.half_innings, result.quarantined,
            result.incomplete, result.observations) == (28, 32, 504, 2, 2, 624)
    assert sorted(result.diagnostic_counts.items()) == [
        ("incomplete_half_inning", 2), ("malformed_record", 20), ("missing_info", 1),
        ("orphan_player", 11), ("quarantined_half_inning", 2), ("unknown_record_kind", 22),
    ]


def test_diagnostics_pinned(decorated_archive, damaged_archive):
    """Digest of every diagnostic, in order and with its wording, that
    assembly and replay give for the broken, decorated broken and damaged
    files, computed before the replay loop was folded into one function."""
    texts = [broken_text()] + [
        path.read_text(encoding="latin-1")
        for path in [decorated_archive[-1], *damaged_archive]
    ]
    steps: state.StepMemo = {}
    rows = []
    for text in texts:
        diags = []
        for account in iter_games(text, diags):
            if account is not None:
                rows += [astuple(d) for d in replay_game(account, steps).diagnostics]
        rows += [astuple(d) for d in diags]
    assert len(rows) == 68
    assert _digest(repr(rows)) == (
        "d7ccd564393f4080bd5b99f3ea71aa0adf095eea507d48bb9c18dd5abd24f7b2")


def test_memo_holds_only_resolved_plays(damaged_archive):
    """A parse error quotes its own token, so it is never memoized."""
    steps: state.StepMemo = {}
    counts = IngestResult()
    for path in damaged_archive:
        list(iter_timelines(path.read_text(encoding="latin-1"), None, counts, steps))
    assert steps
    assert all(step[0] is None for step in steps.values())


def test_repeated_plays_resolve_once(tmp_path, monkeypatch):
    """A second file with the same plays in other games is answered from
    the memo of the first."""
    calls = []
    resolve = state.resolve_step
    monkeypatch.setattr(state, "resolve_step", lambda *key: calls.append(key) or resolve(*key))
    text = emit_event_file(simulate_season(default_model(), 5, seed=31))
    first, second = tmp_path / "a.evn", tmp_path / "b.evn"
    first.write_text(text)
    second.write_text(text.replace("id,HOM", "id,AWY"))
    ingest_paths([first])
    once = len(calls)
    calls.clear()
    ingest_paths([first, second])
    assert len(calls) == once > 0


def test_benchmark_hooks_restore_originals(monkeypatch):
    """Every name the traced benchmark run wraps exists and is put back."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import spans

    calls = spans.LAYER_CALLS + spans.SETUP_CALLS
    originals = [owner.__dict__[attr] for owner, attr, _, _ in calls]
    tracer = spans.Tracer()
    try:
        tracer.install(calls)
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr, _, _), original in zip(calls, originals))
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is original
               for (owner, attr, _, _), original in zip(calls, originals))


def test_benchmark_selftest_passes(tmp_path):
    """The benchmark's output checks pass on this program's reports and
    catch each single wrong input, run from a scratch directory that links
    to this checkout's source."""
    root = Path(__file__).parents[1]
    (tmp_path / "src").symlink_to(root / "src", target_is_directory=True)
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "selftest.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 5 and all(line.startswith("ok ") for line in lines), done.stdout


def _tally_digest(result) -> str:
    """SHA-256 of what a result counted: its sorted cells and innings rows
    and three of its counters, apart from any cache format."""
    cells = sorted((pid, kind.value, outs, season, lev, num, den)
                   for (pid, kind, outs, season, lev), (num, den) in result.table.cells.items())
    innings = sorted((pid, season, hl, total)
                     for (pid, season), (hl, total) in result.innings.counts.items())
    counters = (result.games, result.games_skipped, result.observations)
    return _digest(repr((cells, innings, counters)))


TALLY_DIGESTS = {
    "season-include":
        "0a2b5e0a712f06a0a070bd0b9c37f2b52a75734bd7786bd2d9510346162208f2",
    "season-exclude":
        "4a70adae45af4cdfe5abe6c3bd8c631f065467ba7d40b03caa7609e6c75efc21",
    "archive":
        "e7fc1deb4f83f22249ca7da1549f2a3dcaa043850bc554727b788296720a3d8e",
    "decorated":
        "e96a864e8319d9224192241600939c5bdbc5b2a3175dac1b594e62023a7c7a68",
    "damaged":
        "e3ff4a1b44c709add477d8b4bcb78cab1ee5d8f485765115cd5f4d1fd232c880",
}


@pytest.mark.parametrize("case,jobs", [
    ("season-include", 1), ("season-exclude", 1), ("archive", 1), ("archive", 2),
    ("decorated", 1), ("decorated", 2), ("damaged", 1), ("damaged", 2),
])
def test_tally_content_pinned(case, jobs, request, tmp_path):
    """The tally behind each cache pin above, recorded before ingest
    counted each task into one result: it holds across a change of the
    cache format, which moves every cache pin."""
    if case.startswith("season"):
        mode = CountingMode(case.split("-")[1])
        text = emit_event_file(
            simulate_season(default_model(), 300, seed=4242, midgame_subs=True))
        result = ingest_text(text, mode)
    elif case == "archive":
        paths = _own_broken_ids(request.getfixturevalue("archive"), tmp_path)
        result = ingest_paths(paths, years=WINDOW, jobs=jobs)
    elif case == "decorated":
        paths = _own_broken_ids(request.getfixturevalue("decorated_archive"), tmp_path)
        result = ingest_paths(paths, jobs=jobs)
    else:
        result = ingest_paths(request.getfixturevalue("damaged_archive"), jobs=jobs)
    assert _tally_digest(result) == TALLY_DIGESTS[case]


@pytest.mark.parametrize("seed", [2, 3])
def test_archive_ingest_matches_the_reference(seed, tmp_path, monkeypatch, capsys):
    """The benchmark's archive workload, ingested at --jobs 1 and 2, holds
    the tally that the simulator's own record gives without the parser or
    the replayer, and one strikeout turned into a home run shows."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import reference
    import workloads

    inputs = workloads.generate("archive-ingest", seed, tmp_path / "work")
    (serial,) = inputs.commands
    assert serial[-2:] == ["--jobs", "1"]
    parallel_cache = tmp_path / "parallel.csv"
    parallel = [str(parallel_cache) if arg == str(inputs.cache_path) else arg
                for arg in serial[:-1]] + ["2"]

    def summary(argv):
        capsys.readouterr()
        assert cli.main(argv) == 0
        return capsys.readouterr().err.splitlines()[0]

    summaries = [summary(serial), summary(parallel)]
    assert reference.check_ingest(inputs, summaries) == []
    assert reference.check_same_cache(inputs.cache_path, parallel_cache) == []

    low, high = inputs.years
    path = next(sim.path for sim in inputs.sim_files
                if low <= int(sim.games[0].date[:4]) <= high and ",K\n" in sim.path.read_text())
    path.write_text(path.read_text().replace(",K\n", ",HR\n", 1))
    assert reference.check_ingest(inputs, [summary(serial)]) != []
