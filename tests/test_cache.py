"""On-disk tally cache: round trips, determinism, and validation."""

import os

import pytest

from baserisk.cache import (
    CacheError,
    StatsCache,
    fingerprint_paths,
    load_era_csv,
    read_cache,
    render_cache,
    write_cache,
)
from baserisk.oracle import default_model, emit_event_file, simulate_season
from baserisk.pipeline import ingest_text
from baserisk.stats import ClassKind, CountingMode, InningCounts, TallyTable

SAMPLE_CELLS = {
    ("riverma01", ClassKind.THIRD_OCCUPIED, 1, 2003, True): [3, 21],
    ("riverma01", ClassKind.FIRST_ONLY, 2, 2003, False): [1, 40],
    ("wagnebi01", ClassKind.SECOND_NO_THIRD, 0, 1999, False): [9, 17],
}
SAMPLE_INNINGS = {("riverma01", 2003): [12, 60], ("wagnebi01", 1999): [4, 70]}


def sample_cache(mode=CountingMode.INCLUDE_PLAY):
    table = TallyTable(dict(SAMPLE_CELLS))
    innings = InningCounts(dict(SAMPLE_INNINGS))
    return StatsCache(table, innings, mode, "abcd1234abcd1234")


def test_round_trip(tmp_path):
    path = tmp_path / "stats.cache"
    write_cache(path, sample_cache(CountingMode.EXCLUDE_PLAY))
    loaded = read_cache(path)
    assert loaded.table.cells == SAMPLE_CELLS
    assert loaded.innings.counts == SAMPLE_INNINGS
    assert loaded.counting_mode is CountingMode.EXCLUDE_PLAY
    assert loaded.fingerprint == "abcd1234abcd1234"


def test_failed_write_leaves_old_cache(tmp_path, monkeypatch):
    path = tmp_path / "stats.cache"
    write_cache(path, sample_cache())
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("simulated failure")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        write_cache(path, sample_cache(CountingMode.EXCLUDE_PLAY))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_round_trip_empty(tmp_path):
    path = tmp_path / "empty.cache"
    write_cache(path, StatsCache(TallyTable(), InningCounts(),
                                 CountingMode.INCLUDE_PLAY, ""))
    loaded = read_cache(path)
    assert loaded.table.cells == {}
    assert loaded.innings.counts == {}


def test_render_independent_of_insertion_order():
    forward = TallyTable()
    backward = TallyTable()
    items = list(SAMPLE_CELLS.items())
    for key, cell in items:
        forward.cells[key] = list(cell)
    for key, cell in reversed(items):
        backward.cells[key] = list(cell)
    innings = InningCounts(dict(SAMPLE_INNINGS))
    mode = CountingMode.INCLUDE_PLAY
    assert render_cache(StatsCache(forward, innings, mode, "f" * 16)) == \
        render_cache(StatsCache(backward, innings, mode, "f" * 16))


def test_round_trip_of_ingested_season(tmp_path):
    result = ingest_text(emit_event_file(simulate_season(default_model(), 40, seed=2)))
    cache = StatsCache(result.table, result.innings, CountingMode.INCLUDE_PLAY, "00" * 8)
    path = tmp_path / "sim.cache"
    write_cache(path, cache)
    loaded = read_cache(path)
    assert loaded.table.cells == result.table.cells
    assert loaded.innings.counts == result.innings.counts
    # a second write of the re-read cache is byte-identical
    assert render_cache(loaded) == path.read_text()


@pytest.mark.parametrize(
    "text",
    [
        "pitcher_id,class,outs,stratum,numerator,denominator\n",
        "#wrong-magic schema=1 counting_mode=include fingerprint=x\nheader\n",
        "#baserisk-cache schema=9 counting_mode=include fingerprint=x\n",
        "#baserisk-cache schema=1 counting_mode=sideways fingerprint=x\n",
        "#baserisk-cache schema=1 fingerprint=x\n",
    ],
)
def test_bad_manifest_rejected(tmp_path, text):
    path = tmp_path / "bad.cache"
    path.write_text(text)
    with pytest.raises(CacheError):
        read_cache(path)


def test_bad_header_rejected(tmp_path):
    good = render_cache(sample_cache()).splitlines()
    path = tmp_path / "bad.cache"
    path.write_text("\n".join([good[0], "a,b,c", *good[2:]]) + "\n")
    with pytest.raises(CacheError):
        read_cache(path)


@pytest.mark.parametrize(
    "row",
    [
        "riverma01,third_occupied,one,2003:hl,3,21",  # outs not an int
        "riverma01,no_such_class,1,2003:hl,3,21",
        "riverma01,innings,0,notaseason,3,21",
        "riverma01,third_occupied,1,2003:hl,3",  # short row
    ],
)
def test_bad_row_rejected(tmp_path, row):
    good = render_cache(sample_cache()).splitlines()
    path = tmp_path / "bad.cache"
    path.write_text("\n".join([good[0], good[1], row]) + "\n")
    with pytest.raises(CacheError):
        read_cache(path)


def test_class_names_match_tally_kinds(tmp_path):
    """Every class kind survives a cache round trip under its own name."""
    table = TallyTable()
    for i, kind in enumerate(ClassKind):
        table.cells[(f"p{i}", kind, 1, 2000, False)] = [i, i + 5]
    path = tmp_path / "kinds.cache"
    write_cache(path, StatsCache(table, InningCounts(), CountingMode.INCLUDE_PLAY, ""))
    assert read_cache(path).table.cells == table.cells


def test_fingerprint_ignores_directory_and_order(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    one = tmp_path / "a" / "1990.evn"
    two = tmp_path / "a" / "1991.evn"
    one.write_text("alpha\n")
    two.write_text("beta\n")
    moved = tmp_path / "b" / "1990.evn"
    moved.write_text("alpha\n")

    base = fingerprint_paths([one, two])
    assert len(base) == 16 and int(base, 16) >= 0
    assert fingerprint_paths([two, one]) == base
    assert fingerprint_paths([moved, two]) == base
    two.write_text("beta changed\n")
    assert fingerprint_paths([one, two]) != base


def test_load_era_csv(tmp_path):
    path = tmp_path / "era.csv"
    path.write_text(
        "pitcher_id,era\n"
        "riverma01,2.21\n"
        "wagnebi01,2.31\n"
        "brokenro,not-a-number\n"
        "shortrow\n"
        ",3.00\n"
    )
    assert load_era_csv(path) == {"riverma01": 2.21, "wagnebi01": 2.31}


def test_load_era_csv_skips_non_finite(tmp_path):
    path = tmp_path / "era.csv"
    path.write_text("hpit0001,nan\nhpit0002,inf\nhpit0003,-Infinity\nhpit0004,3.10\n")
    assert load_era_csv(path) == {"hpit0004": 3.1}
