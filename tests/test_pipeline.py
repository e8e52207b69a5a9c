"""End-to-end checks: synthetic seasons survive the full parse/replay path."""

import hashlib
import random
import tracemalloc
from dataclasses import astuple
from pathlib import Path

import pytest

from baserisk import pipeline, state
from baserisk.cache import StatsCache, render_cache
from baserisk.eventfile import (
    Half, PlayLine, assemble_games, iter_games, iter_records, tokenize_event_file,
)
from baserisk.oracle import default_model, emit_event_file, simulate_season
from baserisk.pipeline import collect_observations, ingest_paths, ingest_text
from baserisk.state import replay_game
from baserisk.stats import CountingMode
from conftest import PIN_ALPHABET, decorate, make_game_text, mutate


@pytest.fixture(scope="module")
def replayed():
    """600 games simulated, emitted, re-parsed, and replayed."""
    games = simulate_season(default_model(), 600, seed=20_000)
    records, tok_diags = tokenize_event_file(emit_event_file(games))
    accounts, asm_diags = assemble_games(records)
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
    (game,), diags = assemble_games(tokenize_event_file(text)[0])
    assert diags == []
    assert "vlate1" in {entry.player_id for entry in game.starters}
    result = ingest_text(text)
    assert (result.games, result.games_skipped) == (1, 0)
    assert result.diagnostic_counts == {}


def test_ingest_heap_stays_small():
    """A 600-game file is ingested one game at a time: the traced heap peak
    stays far below what the file's records and games would take at once."""
    text = emit_event_file(simulate_season(default_model(), 600, seed=3, midgame_subs=True))
    tracemalloc.start()
    try:
        result = ingest_text(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.games == 600
    assert peak < 10 * 2**20


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

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", FakePool)
    paths = []
    for seed in range(2):
        path = tmp_path / f"sim{seed}.evn"
        path.write_text(emit_event_file(simulate_season(default_model(), 3, seed=seed)))
        paths.append(path)
    assert ingest_paths(paths, jobs=64).games == 6
    assert started == [2]

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
            emit_event_file(simulate_season(default_model(), 25, seed=seed))
        )
        paths.append(path)
    serial = ingest_paths(paths, jobs=1)
    parallel = ingest_paths(paths, jobs=4)
    assert serial.games == parallel.games == 200
    assert serial.observations == parallel.observations
    assert serial.half_innings == parallel.half_innings

    def rendered(result):
        return render_cache(
            StatsCache(result.table, result.innings, CountingMode.INCLUDE_PLAY, "0" * 16)
        )

    assert rendered(serial) == rendered(parallel)


def test_midgame_sub_switches_credited_pitcher():
    games = simulate_season(default_model(), 20, seed=3, midgame_subs=True)
    records, _ = tokenize_event_file(emit_event_file(games))
    accounts, _ = assemble_games(records)
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


def _broken_text() -> str:
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
    broken.write_text(_broken_text())
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


@pytest.mark.parametrize("jobs", [1, 2])
def test_ingest_paths_cache_pinned(archive, jobs):
    result = ingest_paths(archive, years=WINDOW, jobs=jobs)
    assert _cache_digest(result, CountingMode.INCLUDE_PLAY) == (
        "dc85477256e60d676f09e0b9f2a2c0983cc1dfd3b285029c903f782af9a528f0")
    assert (result.games, result.games_skipped, result.observations) == (50, 2, 1144)
    assert result.diagnostic_counts == {
        "unknown_record_kind": 1, "missing_info": 2,
        "quarantined_half_inning": 1, "incomplete_half_inning": 1,
    }


def test_collect_observations_pinned(archive):
    observations = collect_observations(archive, CountingMode.EXCLUDE_PLAY, WINDOW)
    rows = sorted(
        (obs.half_inning_key[0], obs.half_inning_key[1], int(obs.half_inning_key[2]),
         obs.pitcher_id, obs.situation.kind.value, obs.situation.outs,
         obs.scored_later, obs.high_leverage, obs.season)
        for obs in observations
    )
    assert len(rows) == 1144
    assert _digest(repr(rows)) == (
        "c66e5fd6ad477bd7d058eeaa9b087586f01d9abfdd0e17016f9e839e8c13432f")


def _decorated(text: str, rng: random.Random) -> str:
    """The event file with every play token decorated."""
    lines = []
    for line in text.splitlines():
        if line.startswith("play,"):
            head, _, token = line.rpartition(",")
            line = f"{head},{decorate(token, rng)}"
        lines.append(line)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def decorated_archive(tmp_path_factory):
    """Eight small relief-pitcher seasons and the broken file, with every
    play token decorated."""
    root = tmp_path_factory.mktemp("decorated")
    rng = random.Random(8)
    texts = [
        emit_event_file(simulate_season(
            default_model(), 5, seed=800 + n, season=1990 + n, midgame_subs=True))
        for n in range(8)
    ]
    texts.append(_broken_text())
    paths = []
    for n, text in enumerate(texts):
        path = root / f"d{n}.evn"
        path.write_text(_decorated(text, rng))
        paths.append(path)
    return paths


@pytest.mark.parametrize("jobs", [1, 2])
def test_decorated_ingest_pinned(decorated_archive, jobs):
    result = ingest_paths(decorated_archive, jobs=jobs)
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
    rng = random.Random(9)
    paths = []
    for n in range(3):
        lines = emit_event_file(simulate_season(
            default_model(), 20, seed=900 + n, season=1995 + n, midgame_subs=True)
        ).splitlines()
        for i, line in enumerate(lines):
            if rng.random() < 0.01:
                lines[i] = mutate(rng, [line], PIN_ALPHABET + '"', 1)
        path = root / f"m{n}.evn"
        path.write_text("\n".join(lines) + "\n")
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
    texts = [_broken_text()] + [
        path.read_text(encoding="latin-1")
        for path in [decorated_archive[-1], *damaged_archive]
    ]
    steps: state.StepMemo = {}
    rows = []
    for text in texts:
        diags = []
        for account in iter_games(iter_records(text, diags), diags):
            if account is not None:
                rows += [astuple(d) for d in replay_game(account, steps).diagnostics]
        rows += [astuple(d) for d in diags]
    assert len(rows) == 68
    assert _digest(repr(rows)) == (
        "d7ccd564393f4080bd5b99f3ea71aa0adf095eea507d48bb9c18dd5abd24f7b2")


def test_memo_holds_only_resolved_plays(damaged_archive):
    """A parse error quotes its own token, so it is never memoized."""
    steps: state.StepMemo = {}
    for path in damaged_archive:
        ingest_text(path.read_text(encoding="latin-1"), steps=steps)
    assert steps
    assert all(step[0] is None for step in steps.values())


def test_repeated_plays_resolve_once(tmp_path, monkeypatch):
    """A second file with the same plays under another name is answered
    from the memo of the first."""
    calls = []
    resolve = state.resolve_step
    monkeypatch.setattr(state, "resolve_step", lambda *key: calls.append(key) or resolve(*key))
    text = emit_event_file(simulate_season(default_model(), 5, seed=31))
    first, second = tmp_path / "a.evn", tmp_path / "b.evn"
    first.write_text(text)
    second.write_text(text)
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
