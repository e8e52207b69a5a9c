"""End-to-end checks: synthetic seasons survive the full parse/replay path."""

import concurrent.futures
import hashlib
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import astuple
from pathlib import Path

import pytest

from baserisk import cli, pipeline, state
from baserisk.cache import StatsCache, read_cache, render_cache
from baserisk.eventfile import (
    Half, LineupEntry, assemble_games, iter_games, tokenize_event_file,
)
from baserisk.oracle import default_model, emit_event_file, simulate_season
from baserisk.pipeline import (
    SUMMARY, IngestResult, InputError, collect_observations, ingest_paths, ingest_text,
)
from baserisk.state import classify_state, replay_game
from baserisk.stats import CountingMode, extract_observations
from conftest import (
    PIN_ALPHABET, broken_text, damaged_texts, decorated_texts, final_score, make_game_text,
    walk_game,
)


@pytest.fixture(scope="module")
def replayed():
    """600 games simulated, emitted, re-parsed, and replayed."""
    games = simulate_season(default_model(), 600, seed=20_000)
    text = emit_event_file(games)
    tok_diags = tokenize_event_file(text)[1]
    accounts, asm_diags = assemble_games(text)
    replays = [replay_game(account, {}, {}) for account in accounts]
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
        parsed = [ev[:4] for ev in account.events if type(ev) is tuple]
        assert parsed == simulated


def test_state_traces_match_simulation(replayed):
    """Replayed pre-play states, and the runs before and on each class's
    first play, agree with the generator, half by half."""
    games, _, replays, _, _ = replayed
    halves_checked = 0
    for game, replay in zip(games, replays, strict=True):
        assert final_score(replay) == game.score
        for sim, timeline in zip(game.halves, replay.timelines, strict=True):
            assert timeline.half_inning_key == (game.game_id, sim.inning, sim.half)
            assert timeline.excluded is None
            assert timeline.complete
            assert timeline.runs == sim.runs
            assert timeline.snapshots == [p.pre_mask << 2 | p.pre_outs for p in sim.plays]
            after = [p.pre_runs for p in sim.plays[1:]] + [sim.runs]
            firsts = {}
            for play, runs_after in zip(sim.plays, after):
                situation = classify_state(play.pre_mask, play.pre_outs)
                if situation is not None and situation not in firsts:
                    firsts[situation] = (play.pre_runs, runs_after - play.pre_runs)
            assert [(situation, earlier, on_play) for situation, (_, earlier, on_play, _)
                    in timeline.firsts.items()] == [(s, *runs) for s, runs in firsts.items()]
            halves_checked += 1
    assert halves_checked == 10_800


def test_ingest_counts_clean_season():
    games = simulate_season(default_model(), 100, seed=7)
    result = ingest_text(emit_event_file(games))
    observations = result.counts["observations"]
    assert result.counts == Counter(games=100, half_innings=1800, observations=observations)
    assert result.diagnostic_counts == {}
    # every half contributes at most one observation per situation class
    assert 0 < observations <= 3 * 1800
    total = sum(cell[1] for cell in result.table.cells.values())
    assert total == observations


def test_games_skipped_counts_every_dropped_block():
    """Two dropped game blocks under one id are two skipped games."""
    block = make_game_text([(1, 0, "vbat1", "K")])
    block = "".join(line for line in block.splitlines(keepends=True)
                    if not line.startswith("info,date"))
    result = ingest_text(block + block)
    assert result.counts == Counter(skipped=2)
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
    assert result.counts == Counter(skipped=skipped)
    assert result.diagnostic_counts == counts


def test_start_record_after_the_first_play_drops_the_game():
    """A start record after the block's first play belongs to another game
    whose id record is lost, so the block is dropped whole, not counted
    with the late record's player in its lineup."""
    text = make_game_text(
        [(1, 0, "vbat1", "K"), "play,1,0,vlate1,??,,K", 'start,vlate1,"Late",0,9,7'])
    games, diags = assemble_games(text)
    assert games == []
    assert [(d.code, d.line_no) for d in diags] == [("malformed_record", 11)]
    assert "after the game's first play" in diags[0].detail
    result = ingest_text(text)
    assert result.counts == Counter(skipped=1)
    assert result.diagnostic_counts == {"malformed_record": 1}


@pytest.mark.parametrize("tokens", [["K", "K", "K"], ["S8", "K", "K", "K"]],
                         ids=["three-strikeouts", "single-first"])
def test_placed_runner_quarantines_its_half(tokens):
    """A runner placed on second before an extra-inning half (radj, from
    2020 on) is a known record, and the half it starts is quarantined under
    a code of its own, not counted from empty bases."""
    text = emit_event_file(simulate_season(default_model(), 1, seed=1, season=2021))
    extra = ["radj,vbat0005,2"] + [
        f"play,10,0,vbat{n:04d},??,,{token}" for n, token in enumerate(tokens, start=6)]
    plain = ingest_text(text)
    placed = ingest_text(text + "\n".join(extra) + "\n")
    assert plain.diagnostic_counts == {}
    assert placed.diagnostic_counts == {"placed_runner": 1}
    assert placed.counts == plain.counts + Counter(half_innings=1, quarantined=1)
    assert placed.table.cells == plain.table.cells
    assert placed.innings.counts == plain.innings.counts


def test_lost_id_record_drops_the_merged_game():
    """A lost ``id`` record would run two games into one account, which
    assembly drops at the second game's first start record, so the rest
    count as before."""
    text = emit_event_file(simulate_season(default_model(), 6, seed=1, midgame_subs=True))
    lines = text.split("\n")
    ids = [i for i, line in enumerate(lines) if line.startswith("id,")]
    merged = ingest_text("\n".join(lines[:ids[1]] + lines[ids[1] + 1:]))
    rest = ingest_text("\n".join(lines[ids[2]:]))
    assert (merged.counts["games"], merged.counts["skipped"]) == (4, 1)
    assert merged.diagnostic_counts == {"malformed_record": 1}
    assert merged.table.cells == rest.table.cells
    assert merged.innings.counts == rest.innings.counts


def test_lost_id_record_after_a_cut_off_first_half_drops_the_merged_game():
    """A game cut off in the top of the 1st, then the next game with its
    ``id`` record lost: that game's plays would carry on the open half, so
    its start records drop the merged game."""
    text = emit_event_file(simulate_season(default_model(), 6, seed=1, midgame_subs=True))
    lines = text.split("\n")
    ids = [i for i, line in enumerate(lines) if line.startswith("id,")]
    first_play = next(i for i in range(ids[0], ids[1]) if lines[i].startswith("play,"))
    merged = ingest_text("\n".join(lines[:first_play + 2] + lines[ids[1] + 1:]))
    rest = ingest_text("\n".join(lines[ids[2]:]))
    assert (merged.counts["games"], merged.counts["skipped"]) == (4, 1)
    assert merged.diagnostic_counts == {"malformed_record": 1}
    assert merged.table.cells == rest.table.cells
    assert merged.innings.counts == rest.innings.counts


def test_account_cut_off_with_its_file_leaves_its_half_incomplete():
    """A file that ends one out into a game's top of the 1st, where no
    walk-off can end the game, leaves that half incomplete with one
    diagnostic, and its plays count nowhere: the tallies are those of the
    file cut before the half's first play."""
    lines = emit_event_file(simulate_season(default_model(), 6, seed=1)).splitlines()
    assert lines[578] == "play,1,0,vbat0005,??,,6/L"
    cut = ingest_text("\n".join(lines[:579]) + "\n")
    assert cut.counts == Counter(games=6, half_innings=91, incomplete=1, observations=129)
    assert cut.diagnostic_counts == {"incomplete_half_inning": 1}
    last_id = max(i for i in range(579) if lines[i].startswith("id,"))
    first_play = next(i for i in range(last_id, 579) if lines[i].startswith("play,"))
    before = ingest_text("\n".join(lines[:first_play]) + "\n")
    assert before.counts["half_innings"] == 90
    assert cut.table.cells == before.table.cells
    assert cut.innings.counts == before.innings.counts


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
    assert result.counts["games"] == 600
    assert peak < 2 * 2**20


def test_year_filter():
    text = emit_event_file(simulate_season(default_model(), 5, seed=1, season=1984))
    assert ingest_text(text, years=(1984, 1984)).counts["games"] == 5
    assert ingest_text(text, years=(1985, 1990)).counts["games"] == 0


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
    assert ingest_paths(paths, jobs=64).counts["games"] == 6
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
    assert ingest_paths(paths, jobs=jobs).counts["games"] == 9
    assert len(calls) == merges


def test_counting_mode_changes_numerators_only():
    text = emit_event_file(simulate_season(default_model(), 200, seed=9))
    include = ingest_text(text, CountingMode.INCLUDE_PLAY)
    exclude = ingest_text(text, CountingMode.EXCLUDE_PLAY)
    assert include.counts == exclude.counts
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
    assert serial.counts == parallel.counts
    assert serial.counts["games"] == 200
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
        replay = replay_game(account, {}, {})
        assert replay.diagnostics == []
        for timeline, walked in zip(replay.timelines, walk_game(account), strict=True):
            _, inning, half = timeline.half_inning_key
            fielding = "h" if half is Half.TOP else "v"
            pitchers = [play.pitcher for play in walked.plays]
            # replay credits the pitchers the walk does, in the same order
            assert list(timeline.faced) == list(dict.fromkeys(pitchers))
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
    assert len(observations) == result.counts["observations"]
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
    assert (result.counts["games"], result.counts["skipped"], result.counts["observations"]) == (
        50, 2, 1144)
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
    assert result.counts == Counter(games=42, skipped=2, half_innings=756, quarantined=1,
                                   incomplete=1, observations=982)
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
    """Digest and counters computed before ingest streamed one game at a
    time, and re-recorded when a half that ends its account short of three
    outs without a walk-off became incomplete: HOM199604024's bottom 9th,
    whose first out a damaged ``pla,`` line lost."""
    # no id names two game blocks, so counting dropped blocks or dropped ids
    # gives the same games_skipped
    ids = [fields[0]
           for path in damaged_archive
           for kind, fields, _ in tokenize_event_file(path.read_text(encoding="latin-1"))[0]
           if kind == "id" and fields and fields[0]]
    assert len(ids) == len(set(ids))
    result = ingest_paths(damaged_archive, jobs=jobs)
    assert _cache_digest(result, CountingMode.INCLUDE_PLAY) == (
        "0a703063712e97c8859289dacd78f6b538695547a44d656189371e573d8127be")
    assert result.counts == Counter(games=28, skipped=32, half_innings=504, quarantined=2,
                                   incomplete=3, observations=623)
    assert sorted(result.diagnostic_counts.items()) == [
        ("incomplete_half_inning", 3), ("malformed_record", 20), ("missing_info", 1),
        ("orphan_player", 11), ("quarantined_half_inning", 2), ("unknown_record_kind", 22),
    ]


def test_ingest_text_matches_a_one_file_ingest(tmp_path):
    """A text and a file holding it count the same through the one ingest
    loop: counters, diagnostic codes, cells and innings rows, over the
    broken, decorated and damaged texts."""
    path = tmp_path / "one.evn"
    for text in [broken_text(), *decorated_texts(), *damaged_texts()]:
        path.write_bytes(text.encode("latin-1"))
        from_text, from_file = ingest_text(text), ingest_paths([path])
        assert from_text.counts == from_file.counts
        assert from_text.diagnostic_counts == from_file.diagnostic_counts
        assert from_text.table.cells == from_file.table.cells
        assert from_text.innings.counts == from_file.innings.counts


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("fixture", ["archive", "decorated_archive", "damaged_archive"])
def test_ingest_counts_only_summary_words(fixture, jobs, request, tmp_path):
    """Every counter an ingest writes is one the summary line prints, so a
    misspelt counter cannot drop out of it unseen."""
    paths = request.getfixturevalue(fixture)
    if fixture != "damaged_archive":
        paths = _own_broken_ids(paths, tmp_path)
    result = ingest_paths(paths, years=WINDOW if fixture == "archive" else None, jobs=jobs)
    assert result.counts
    assert set(result.counts) <= set(SUMMARY)


def test_diagnostics_pinned(decorated_archive, damaged_archive):
    """Digest of every diagnostic, in order and with its wording, that
    assembly and replay give for the broken, decorated broken and damaged
    files, computed before the replay loop was folded into one function and
    re-recorded with HOM199604024's incomplete bottom 9th, as above."""
    texts = [broken_text()] + [
        path.read_text(encoding="latin-1")
        for path in [decorated_archive[-1], *damaged_archive]
    ]
    steps: state.StepMemo = {}
    rows = []
    for text in texts:
        diags = []
        for account in iter_games(text, diags, None, {}):
            if account is not None:
                rows += [astuple(d) for d in replay_game(account, steps, {}).diagnostics]
        rows += [astuple(d) for d in diags]
    assert len(rows) == 69
    assert _digest(repr(rows)) == (
        "5a87dce0e0c8887b403677904ddd0af0d059c557f779ea8df326261285e76bc2")


def _counting_calls(monkeypatch, name: str) -> list:
    """The arguments of every call the program makes to ``state.<name>``."""
    calls = []
    original = getattr(state, name)
    monkeypatch.setattr(state, name, lambda *args: calls.append(args) or original(*args))
    return calls


def test_memo_holds_only_resolved_plays(damaged_archive, monkeypatch):
    """A parse error quotes its own token, so it is never memoized: every
    filled slot of the token index holds a step that parsed, and a token
    that does not parse is resolved again at each of its plays, even where
    it shares its effect text's row with another token."""
    steps: state.StepMemo = {}
    for path in damaged_archive:
        for account in iter_games(path.read_text(encoding="latin-1"), [], None, {}):
            if account is not None:
                replay_game(account, steps, {})
    filled = [step for row in steps.values() for step in row if step is not None]
    assert filled
    assert all(step[0] is None for step in filled)

    calls = _counting_calls(monkeypatch, "resolve_step")
    plays = [(1, 0, "v1", "ZZ9"), (1, 0, "v2", "ZZ9/G"), (1, 1, "h1", "ZZ9")]
    text = make_game_text(plays) + make_game_text(plays, game_id="TST200004020")
    diags = []
    for account in iter_games(text, diags, None, {}):
        diags += replay_game(account, steps, {}).diagnostics
    assert sorted(token for token, _, _ in calls) == ["ZZ9"] * 4 + ["ZZ9/G"] * 2
    assert steps["ZZ9"] is steps["ZZ9/G"]
    assert [d.detail.count("ZZ9/G") for d in diags] == [0, 1, 0] * 2
    assert all(d.code == "quarantined_half_inning" for d in diags)


def test_repeated_plays_resolve_once(tmp_path, monkeypatch):
    """A second file with the same plays in other games is answered from
    the memo of the first, and no memo outlives its task: a second ingest
    in one process derives as many effect texts and steps as the first."""
    calls = _counting_calls(monkeypatch, "resolve_step")
    effects = _counting_calls(monkeypatch, "effect_text")
    text = emit_event_file(simulate_season(default_model(), 5, seed=31))
    first, second = tmp_path / "a.evn", tmp_path / "b.evn"
    first.write_text(text)
    second.write_text(text.replace("id,HOM", "id,AWY"))
    work = []
    for paths in ([first], [first, second], [first]):
        ingest_paths(paths)
        tokens = [token for token, _ in effects]
        assert len(tokens) == len(set(tokens))  # each token once per task
        work.append((len(calls), len(effects)))
        calls.clear()
        effects.clear()
    assert work[0] == work[1] == work[2]
    assert min(work[0]) > 0


@pytest.mark.parametrize("case", ["decorated", "damaged"])
def test_memos_dropped_at_the_limit_count_the_same(case, request, tmp_path, monkeypatch):
    """Memos dropped whole before each file, once past a limit of 8
    entries, change no count: they only cost the work again.  A task
    cleans each noted advance section once while its memos are kept, and
    again after they are dropped; the damaged files note no advance."""
    if case == "decorated":
        paths = _own_broken_ids(request.getfixturevalue("decorated_archive"), tmp_path)
    else:
        paths = request.getfixturevalue("damaged_archive")
    effects = _counting_calls(monkeypatch, "effect_text")
    cleaned = _counting_calls(monkeypatch, "_clean_advances")
    kept = ingest_paths(paths)
    derived, sections = len(effects), len(cleaned)
    assert len(set(cleaned)) == sections
    effects.clear()
    cleaned.clear()
    monkeypatch.setattr(pipeline, "_MEMO_LIMIT", 8)
    dropped = ingest_paths(paths)
    assert len(effects) > derived
    assert (len(cleaned) > sections > 0) == (case == "decorated")
    assert _tally_digest(dropped) == _tally_digest(kept)
    assert dropped.diagnostic_counts == kept.diagnostic_counts


def test_long_token_quarantines_its_half_only():
    """A 128 KB play token, whose unclosed groups once cost the parser
    time quadratic in its length, is refused in linear time and
    quarantines its own half, as a short unparseable token there does."""
    lines = emit_event_file(simulate_season(default_model(), 2, seed=1)).splitlines()
    at = [i for i, line in enumerate(lines) if line.startswith("play,")][40]
    head = lines[at].rpartition(",")[0]

    def with_token(token):
        return "\n".join([*lines[:at], f"{head},{token}", *lines[at + 1:]]) + "\n"

    # the line stays within csv's field limit, so it is read as a play
    long = "S8.1-2(" + "(" * (131_000 - 7 - len(head))
    start = time.perf_counter()
    result = ingest_text(with_token(long))
    assert time.perf_counter() - start < 2.0
    reference = ingest_text(with_token("ZZ9"))
    assert result.counts == reference.counts
    assert result.counts["quarantined"] == 1
    assert result.diagnostic_counts == reference.diagnostic_counts == {
        "quarantined_half_inning": 1}
    assert result.table.cells == reference.table.cells
    assert result.innings.counts == reference.innings.counts


def test_line_over_the_field_limit_drops_its_game():
    """A play line longer than csv's field limit cannot be read, so its
    game is dropped with the line's one diagnostic, not counted without the
    play; the other game counts as it does alone."""
    lines = emit_event_file(simulate_season(default_model(), 2, seed=1)).splitlines()
    at = [i for i, line in enumerate(lines) if line.startswith("play,")][40]
    head = lines[at].rpartition(",")[0]
    result = ingest_text("\n".join([*lines[:at], f"{head},{'S' * 131_100}", *lines[at + 1:]]))
    assert result.counts == Counter(games=1, skipped=1, half_innings=18, observations=19)
    assert result.diagnostic_counts == {"unreadable_line": 1}
    second = max(i for i, line in enumerate(lines) if line.startswith("id,"))
    assert at < second
    alone = ingest_text("\n".join(lines[second:]))
    assert result.table.cells == alone.table.cells
    assert result.innings.counts == alone.innings.counts


def _lineup_texts() -> list[str]:
    """Two simulated relief-pitcher seasons whose teams and pitchers are
    the same."""
    return [emit_event_file(simulate_season(
        default_model(), 4, seed=seed, season=season, midgame_subs=True))
        for seed, season in ((61, 1990), (62, 1991))]


def test_task_lineup_memo_spans_its_files(tmp_path, monkeypatch):
    """One task of two files builds a lineup line of both once: the second
    file's repeated start and sub lines share the first file's entries."""
    first, second = _lineup_texts()
    accounts = []
    original = pipeline.iter_games

    def recording(*args):
        for account in original(*args):
            accounts.append(account)
            yield account

    monkeypatch.setattr(pipeline, "iter_games", recording)
    a, b = tmp_path / "a.evn", tmp_path / "b.evn"
    a.write_text(first)
    b.write_text(second)
    ingest_paths([a, b])
    entries = [entry for account in accounts
               for entry in [*account.starters, *account.events]
               if isinstance(entry, LineupEntry)]
    assert len({id(entry) for entry in entries}) == len(set(entries)) < len(entries)
    first_ids = {id(entry) for account in accounts[:4] for entry in account.starters}
    assert first_ids & {id(entry) for account in accounts[4:] for entry in account.starters}


def test_start_line_built_in_an_earlier_file_still_refused_late(tmp_path):
    """A start line built in the first file of a task and met after a
    game's first play in the second is refused as a line never seen
    before, and the two files as one task count what they count apart."""
    first, text = _lineup_texts()
    second = text.splitlines()
    play = next(i for i, line in enumerate(second) if line.startswith("play,"))
    start = next(i for i, line in enumerate(second[:play])
                 if line.startswith("start,") and line in first.splitlines())
    line = second.pop(start)
    second.insert(play, line)  # just after the game's first play
    late = "\n".join(second) + "\n"

    alone, after = [], []
    list(iter_games(late, alone, None, {}))
    lineups = {}
    list(iter_games(first, [], None, lineups))
    assert line in lineups
    list(iter_games(late, after, None, lineups))
    assert [astuple(d) for d in after] == [astuple(d) for d in alone]
    assert [d.code for d in after] == ["malformed_record"]

    a, b = tmp_path / "a.evn", tmp_path / "b.evn"
    a.write_text(first)
    b.write_text(late)
    together = ingest_paths([a, b])
    apart = ingest_paths([a]).merge(ingest_paths([b]))
    assert together.counts["skipped"] == 1
    assert _tally_digest(together) == _tally_digest(apart)
    assert together.diagnostic_counts == apart.diagnostic_counts


def _task_games(paths: list[Path]) -> tuple[dict, dict]:
    """What one ingest task of the files counts, by game id: the file that
    counted the game, and the observations of each usable half."""
    result = IngestResult()
    halves = {}
    inputs = pipeline._read_files([str(p) for p in paths], result)
    for timeline in pipeline.iter_timelines(inputs, None, result):
        game_id, inning, half = timeline.half_inning_key
        halves.setdefault(game_id, {})[inning, half] = extract_observations(timeline)
    return result.game_files, halves


def _mutate_line(rng: random.Random, lines: list[str]) -> tuple[list[str], list[int]]:
    """The lines after one random line mutation, and the indices of the
    lines it damaged: a line deleted, repeated, swapped with the next,
    with one character changed or deleted, or joined to the next."""
    op = rng.randrange(6)
    i = rng.randrange(len(lines) - 1)
    line, out = lines[i], list(lines)
    cut = rng.randrange(len(line))
    if op == 0:
        del out[i]
    elif op == 1:
        out.insert(i, line)
    elif op == 2:
        out[i:i + 2] = [lines[i + 1], line]
    elif op == 3:
        out[i] = line[:cut] + rng.choice(PIN_ALPHABET + '"') + line[cut + 1:]
    elif op == 4:
        out[i] = line[:cut] + line[cut + 1:]
    else:
        out[i:i + 2] = [line + lines[i + 1]]
    return out, [i, i + 1] if op in (2, 5) else [i]


def test_line_damage_stays_in_its_game(tmp_path):
    """One task of two simulated files, the second with one line damaged:
    every game that holds no damaged line counts exactly as before, in
    both files; the damaged game keeps the halves it finished before the
    damage or is dropped whole; and only ``InputError`` escapes.  A
    damaged ``id`` line counts as damage to the game before it too, since
    losing the line merges the two games."""
    texts = [emit_event_file(simulate_season(
        default_model(), 6, seed=seed, season=season, midgame_subs=True))
        for seed, season in ((71, 1990), (72, 1991))]
    paths = [tmp_path / "a.evn", tmp_path / "b.evn"]
    for path, text in zip(paths, texts):
        path.write_text(text)
    base_files, base_halves = _task_games(paths)
    lines = texts[1].splitlines()
    game_of, last_line, previous = [], {}, {}
    game_id = None
    for n, line in enumerate(lines):
        cells = line.split(",")
        if cells[0] == "id":
            previous[cells[1]], game_id = game_id, cells[1]
        elif cells[0] == "play":
            last_line[game_id, int(cells[1]), Half(int(cells[2]))] = n
        game_of.append(game_id)

    rng = random.Random(11)
    escaped = 0
    for _ in range(250):
        damaged, hit = _mutate_line(rng, lines)
        paths[1].write_text("\n".join(damaged) + "\n")
        try:
            files, halves = _task_games(paths)
        except InputError:
            escaped += 1
            continue
        games = {game_of[n] for n in hit}
        games |= {previous[game_of[n]] for n in hit if lines[n].startswith("id,")}
        for game_id, path in base_files.items():
            got, before = halves.get(game_id, {}), base_halves.get(game_id, {})
            if game_id not in games:
                assert (files.get(game_id), got) == (path, before), (hit, damaged[min(hit)])
            elif game_id in files:
                kept = {key: obs for key, obs in before.items()
                        if last_line[(game_id, *key)] < min(hit)}
                assert {key: got.get(key) for key in kept} == kept, (hit, damaged[min(hit)])
    assert escaped < 10


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
    counters = (result.counts["games"], result.counts["skipped"], result.counts["observations"])
    return _digest(repr((cells, innings, counters)))


# the damaged digest re-recorded with HOM199604024's incomplete bottom 9th
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
        "e743902a4409ad604e63f0d1367ec4a45103c00b0c67a93aa0ea8005c1d93c43",
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


def _exclude_mode_tally(games):
    """Cells and innings rows of ``--counting-mode exclude`` from the
    simulator's record alone, by the rules of the benchmark's
    ``reference_tally``, with a run on the observed play itself left out.
    A play's runs are the next play's ``pre_runs`` less its own, or the
    half's runs less its own after its last play."""
    from reference import HIGH_LEVERAGE_INNINGS, HIGH_LEVERAGE_MARGIN, classify

    cells, innings = {}, {}
    for game in games:
        season = int(game.date[:4])
        score = [0, 0]
        pitcher = {0: "vpit0001", 1: "hpit0001"}
        for half in game.halves:
            batting = int(half.half)
            subs = {}
            for idx, sub in half.subs:
                subs.setdefault(idx, []).append(sub)
            seen, faced, faced_hl = set(), set(), set()
            for idx, play in enumerate(half.plays):
                for sub in subs.get(idx, []):
                    if sub.position == 1:
                        pitcher[sub.team] = sub.player_id
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
                after = half.plays[idx + 1].pre_runs if idx + 1 < len(half.plays) else half.runs
                on_play = after - play.pre_runs
                cell = cells.setdefault((pid, *situation, season, hl), [0, 0])
                cell[0] += half.runs - play.pre_runs - on_play >= 1
                cell[1] += 1
            for pid in faced:
                row = innings.setdefault((pid, season), [0, 0])
                row[0] += pid in faced_hl
                row[1] += 1
            score[batting] += half.runs
    return cells, innings


def _ingest_matches_the_record(parts, counted, options, jobs, tmp_path, capsys):
    """Ingest the simulated games of ``parts``, one file each, in exclude
    mode with ``options``, and check that the cache holds the record's
    tally of the games ``counted``."""
    inputs = []
    for n, part in enumerate(parts):
        inputs += ["-i", str(tmp_path / f"part{n}.ev")]
        Path(inputs[-1]).write_text(emit_event_file(part))
    cache_path = tmp_path / "exclude.csv"
    assert cli.main(["ingest", *inputs, "--cache", str(cache_path),
                     "--counting-mode", "exclude", *options, "--jobs", str(jobs)]) == 0
    summary = capsys.readouterr().err
    assert summary.startswith(f"games={len(counted)} skipped=0 ")
    assert " quarantined=0 incomplete=0 " in summary
    cache = read_cache(cache_path)
    assert cache.counting_mode is CountingMode.EXCLUDE_PLAY
    cells, innings = _exclude_mode_tally(counted)
    assert {(pid, kind.value, outs, season, lev): cell
            for (pid, kind, outs, season, lev), cell in cache.table.cells.items()} == cells
    assert cache.innings.counts == innings


@pytest.mark.parametrize("jobs", [1, 2])
def test_exclude_mode_ingest_matches_the_simulator_record(jobs, tmp_path, monkeypatch, capsys):
    """A relief-pitcher season in three files, ingested in exclude mode with
    no years filter, holds the tally of the simulator's own record, which
    reads neither the parser nor the replayer."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    games = simulate_season(default_model(), 240, seed=31, midgame_subs=True)
    parts = [games[80 * n:80 * (n + 1)] for n in range(3)]
    _ingest_matches_the_record(parts, games, [], jobs, tmp_path, capsys)


@pytest.mark.parametrize("jobs", [1, 2])
def test_years_filtered_ingest_matches_the_simulator_record(jobs, tmp_path, monkeypatch,
                                                            capsys):
    """Four relief-pitcher seasons, mixed in three files so that each file
    goes in and out of the window, ingested with ``--years 1984-1985``:
    the cache holds the record's tally of the two seasons inside the
    window, and nothing of the seasons just outside it."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    seasons = [simulate_season(default_model(), 60, seed=year, season=year, midgame_subs=True)
               for year in range(1983, 1987)]
    parts = [[game for games in seasons for game in games[20 * n:20 * (n + 1)]]
             for n in range(3)]
    counted = [game for part in parts for game in part if 1984 <= int(game.date[:4]) <= 1985]
    assert len(counted) == 120
    _ingest_matches_the_record(parts, counted, ["--years", "1984-1985"], jobs, tmp_path,
                               capsys)
