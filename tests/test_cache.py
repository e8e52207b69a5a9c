"""On-disk tally cache: round trips, determinism, and validation."""

import csv
import gc
import hashlib
import io
import itertools
import os
from contextlib import nullcontext

import pytest
from hypothesis import event, given, settings, strategies as st

from baserisk.cache import (
    CacheError,
    StatsCache,
    fingerprint_paths,
    load_era_csv,
    read_cache,
    read_summary,
    render_cache,
    write_cache,
)
from baserisk.oracle import default_model, emit_event_file, simulate_season
from baserisk.pipeline import ingest_text
from baserisk.stats import (
    CELLS,
    ClassKind,
    CountingMode,
    InningCounts,
    RateSummary,
    TallyTable,
)

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


# str.splitlines, and so read_cache, ends a line at each of these, so no
# pitcher id read from an event file holds one, and the writer refuses one
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def test_line_breaks_are_those_of_splitlines():
    splitting = {chr(c) for c in range(0x110000) if len(f"a{chr(c)}b".splitlines()) == 2}
    assert splitting == set(LINE_BREAKS)


@pytest.mark.parametrize("brk", LINE_BREAKS, ids=lambda brk: f"U+{ord(brk):04X}")
@pytest.mark.parametrize("where", ["cells", "innings"])
def test_write_refuses_pitcher_id_with_line_break(tmp_path, brk, where):
    path = tmp_path / "stats.cache"
    write_cache(path, sample_cache())
    before = path.read_bytes()
    bad = sample_cache()
    pid = f"rive{brk}ra01"
    if where == "cells":
        bad.table.cells[(pid, ClassKind.FIRST_ONLY, 1, 2003, True)] = [0, 1]
    else:
        bad.innings.counts[(pid, 2003)] = [0, 1]
    with pytest.raises(CacheError, match="line break"):
        render_cache(bad)
    with pytest.raises(CacheError, match="line break"):
        write_cache(path, bad)
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


@pytest.mark.parametrize("pid", [
    "a,b", 'a"b', '"', ",", " lead", "", "a\tb", "a\x00b", "ñé漢字", "riverma01",
], ids=ascii)
def test_render_matches_csv_writer(tmp_path, pid):
    """The rows are those ``csv.writer`` writes, sorted by key, whatever the
    pitcher id holds, and they read back."""
    cache = sample_cache()
    cache.table.cells[(pid, ClassKind.FIRST_ONLY, 1, 2003, True)] = [2, 5]
    cache.innings.counts[(pid, 2003)] = [1, 9]
    rows = [(p, kind.value, outs, f"{season}:{'hl' if lev else 'other'}", num, den)
            for (p, kind, outs, season, lev), (num, den) in cache.table.cells.items()]
    rows += [(p, "innings", 0, str(season), hl, total)
             for (p, season), (hl, total) in cache.innings.counts.items()]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["pitcher_id", "class", "outs", "stratum", "numerator", "denominator"])
    try:
        writer.writerows(sorted(rows, key=lambda row: row[:4]))
    except csv.Error:  # before Python 3.11, csv.writer refuses a NUL
        pytest.skip("this csv module cannot write the id")
    manifest, _, body = render_cache(cache).partition("\n")
    assert manifest.startswith("#baserisk-cache ")
    assert body == out.getvalue()
    path = tmp_path / "stats.cache"
    write_cache(path, cache)
    loaded = read_cache(path)
    assert loaded.table.cells == cache.table.cells
    assert loaded.innings.counts == cache.innings.counts


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
        # a good cache but for its magic, which only starts with the right one
        pytest.param(
            render_cache(sample_cache()).replace("#baserisk-cache ", "#baserisk-cacheXYZ ", 1),
            id="magic-with-a-suffix"),
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


# a row of the wrong width is refused with the text of unpacking its
# fields into six names
WIDTH_REFUSALS = {
    "riverma01,third_occupied,1,2003:hl,3":
        "bad cache row ['riverma01', 'third_occupied', '1', '2003:hl', '3']: "
        "not enough values to unpack (expected 6, got 5)",
    "riverma01,third_occupied,1,2003:hl,3,21,7":
        "bad cache row ['riverma01', 'third_occupied', '1', '2003:hl', '3', '21', '7']: "
        "too many values to unpack (expected 6)",
    "riverma01,third_occupied,1,2003,hl,3,21":
        "bad cache row ['riverma01', 'third_occupied', '1', '2003', 'hl', '3', '21']: "
        "too many values to unpack (expected 6)",
    "garbage": "bad cache row ['garbage']: not enough values to unpack (expected 6, got 1)",
}


@pytest.mark.parametrize(
    "row",
    [
        "riverma01,third_occupied,one,2003:hl,3,21",  # outs not an int
        "riverma01,no_such_class,1,2003:hl,3,21",
        "riverma01,innings,0,notaseason,3,21",
        "riverma01,third_occupied,1,2003:hl,3",  # short row
        "riverma01,third_occupied,1,2003:hl,3,21,7",  # long row
        "riverma01,third_occupied,1,2003,hl,3,21",  # a stratum split by a comma
        "garbage",  # no comma at all
        "riverma01,third_occupied,1,2003:foo,3,21",  # neither hl nor other
        "riverma01,third_occupied,1,2003,3,21",  # bare season
        "riverma01,third_occupied,1,:hl,3,21",  # no season
        "riverma01,third_occupied,1,+2003:hl,3,21",  # not as written
        "riverma01,third_occupied,2,2003:hl,3,21",  # not a situation cell
        "riverma01,first_only,0,2003:hl,3,21",
        "riverma01,third_occupied, 1,2003:hl,3,21",
        "riverma01,innings,1,2003,3,21",  # innings rows have outs 0
        "riverma01,innings,0,2003:hl,3,21",
        # counts that int() reads but the writer never writes
        "riverma01,third_occupied,1,2003:hl,1_0,2_0",
        "riverma01,third_occupied,1,2003:hl,+3,21",
        "riverma01,third_occupied,1,2003:hl, 3,21",
        "riverma01,third_occupied,1,2003:hl,03,21",
        "riverma01,third_occupied,1,2003:hl,\u0663,21",  # ARABIC-INDIC DIGIT THREE
        "riverma01,third_occupied,1,2003:hl,3,2\u0661",  # ... DIGIT ONE
        "riverma01,innings,0,2003,-0,21",
        '"riverma01",innings,0,2003,12,060',  # through csv.reader
        # a quoted id over csv's field limit: an unreadable cache line
        pytest.param(f'"{"r" * (csv.field_size_limit() + 1)}",innings,0,2003,12,60',
                     id="id-over-field-limit"),
    ],
)
def test_bad_row_rejected(tmp_path, row):
    """Both readers refuse the row with the same text, the report read
    even when the row's season lies outside its years; a row of the wrong
    width with the text of unpacking it into six fields."""
    good = render_cache(sample_cache()).splitlines()
    path = tmp_path / "bad.cache"
    path.write_text("\n".join([good[0], good[1], row]) + "\n", encoding="utf-8")
    with pytest.raises(CacheError) as whole:
        read_cache(path)
    if row in WIDTH_REFUSALS:
        assert str(whole.value) == WIDTH_REFUSALS[row]
    for years in (None, (2004, 2010)):
        with pytest.raises(CacheError) as summed:
            read_summary(path, years)
        assert str(summed.value) == str(whole.value)


@pytest.mark.parametrize("kind", ClassKind)
@pytest.mark.parametrize("outs", range(4))
def test_reader_accepts_exactly_the_cells(tmp_path, kind, outs):
    good = render_cache(sample_cache()).splitlines()
    path = tmp_path / "cell.cache"
    row = f"zzz01,{kind.value},{outs},2003:hl,3,21"
    path.write_text("\n".join([*good, row]) + "\n", encoding="utf-8")
    if (kind, outs) in CELLS:
        assert read_cache(path).table.cells[("zzz01", kind, outs, 2003, True)] == [3, 21]
    else:
        with pytest.raises(CacheError, match="is not a situation cell"):
            read_cache(path)


@pytest.mark.parametrize(
    "row",
    [
        "riverma01,third_occupied,1,2003:hl,0,5",
        "riverma01,innings,0,2003,0,5",
    ],
)
def test_repeated_key_rejected(tmp_path, row):
    """A rendered cache never repeats a key, so a repeat is damage, not a
    newer count to keep."""
    good = render_cache(sample_cache()).splitlines()
    path = tmp_path / "repeat.cache"
    path.write_text("\n".join([*good, row]) + "\n")
    with pytest.raises(CacheError, match="repeats"):
        read_cache(path)
    with pytest.raises(CacheError, match="repeats"):
        read_summary(path)


@pytest.mark.parametrize("quoted", [False, True], ids=["split", "csv"])
def test_rows_out_of_order_rejected(tmp_path, quoted):
    """The writer sorts its rows by key, so two distinct rows swapped are
    damage, though neither repeats a key."""
    cache = sample_cache()
    if quoted:  # a quote anywhere sends the read through csv.reader
        cache.innings.counts[('o"neil01', 2003)] = [1, 2]
    lines = render_cache(cache).splitlines()
    assert lines[2] != lines[3]
    lines[2], lines[3] = lines[3], lines[2]
    path = tmp_path / "swapped.cache"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for read in (read_cache, read_summary):
        with pytest.raises(CacheError, match="sorts before the key of the row above"):
            read(path)


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("case", ["good", "bad row", "not UTF-8", "missing"])
def test_read_cache_restores_collector(tmp_path, enabled, case):
    """The read leaves the cyclic collector as the caller set it, on every
    exit: pausing it is ``cli.main``'s work, for the whole command."""
    path = tmp_path / "c.cache"
    text = render_cache(sample_cache())
    if case == "bad row":
        path.write_text(text + "zz01,innings,0,2003,3,2\n")
    elif case == "not UTF-8":
        path.write_bytes(text.replace("riverma01", "rivéra01").encode("latin-1"))
    elif case == "good":
        path.write_text(text)
    expected = {"good": nullcontext(), "missing": pytest.raises(FileNotFoundError)}
    if not enabled:
        gc.disable()
    try:
        with expected.get(case, pytest.raises(CacheError)):
            read_cache(path)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_undecodable_cache_rejected(tmp_path):
    path = tmp_path / "latin1.cache"
    path.write_bytes(render_cache(sample_cache()).replace("riverma01", "rivéra01")
                     .encode("latin-1"))
    with pytest.raises(CacheError, match="UTF-8"):
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

    def fingerprint(*paths):
        # each path's content digest, as ingest records it
        return fingerprint_paths(
            {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in paths})

    base = fingerprint(one, two)
    assert len(base) == 16 and int(base, 16) >= 0
    assert fingerprint(two, one) == base
    assert fingerprint(moved, two) == base
    two.write_text("beta changed\n")
    assert fingerprint(one, two) != base


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


def reference_read_cache(text):
    """The first schema-1 reader, a csv.reader over every line, kept as the
    reference for read_cache: (cells, innings, counting mode, fingerprint)."""
    lines = text.splitlines()
    manifest = dict(part.split("=", 1) for part in lines[0].split()[1:] if "=" in part)
    assert manifest["schema"] == "1"
    kinds = {k.value: k for k in ClassKind}
    cells, innings = {}, {}
    reader = csv.reader(lines[1:])
    assert next(reader) == ["pitcher_id", "class", "outs", "stratum", "numerator",
                            "denominator"]
    for row in reader:
        if not row:
            continue
        pid, class_name, outs, stratum, num, den = row
        n, d = int(num), int(den)
        assert 0 <= n <= d
        if class_name == "innings":
            innings[(pid, int(stratum))] = [n, d]
            continue
        season, _, leverage = stratum.partition(":")
        cells[(pid, kinds[class_name], int(outs), int(season), leverage == "hl")] = [n, d]
    return cells, innings, CountingMode(manifest["counting_mode"]), manifest["fingerprint"]


SITUATION_CELLS = [(ClassKind.THIRD_OCCUPIED, 0), (ClassKind.THIRD_OCCUPIED, 1),
                   (ClassKind.SECOND_NO_THIRD, 0), (ClassKind.SECOND_NO_THIRD, 1),
                   (ClassKind.FIRST_ONLY, 1), (ClassKind.FIRST_ONLY, 2)]

pitcher_ids = st.one_of(
    st.sampled_from(["hpit0001", "riverma01", "a,b", 'say "hi"', "señor01", '"', ","]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=LINE_BREAKS),
            max_size=6),
)
counts = st.integers(0, 300).flatmap(lambda d: st.integers(0, d).map(lambda n: [n, d]))
seasons = st.integers(1871, 2030)


def caches_of(ids):
    return st.builds(
        lambda cells, innings, mode, fingerprint: StatsCache(
            TallyTable(cells), InningCounts(innings), mode, fingerprint),
        st.dictionaries(st.tuples(ids, st.sampled_from(SITUATION_CELLS), seasons,
                                  st.booleans())
                        .map(lambda k: (k[0], *k[1], k[2], k[3])), counts, max_size=25),
        st.dictionaries(st.tuples(ids, seasons), counts, max_size=8),
        st.sampled_from(CountingMode),
        st.text("0123456789abcdef", max_size=16),
    )


caches = caches_of(pitcher_ids)
# ids that hold a character sorting below the comma (a space, "!", "+") or
# that are a prefix of another: a whole line, or the id and the tail joined
# by a comma, sorts "p1!" before "p1", where the writer's key sorts it after
sorting_ids = st.one_of(
    pitcher_ids,
    st.sampled_from(["", "p1", "p1!", "p1x", "p1 ", "p1+", " ", "!", "+", "p1,", '"p1']),
)


_NAMES = itertools.count()


@settings(max_examples=200, deadline=None)
@given(caches)
def test_read_cache_matches_reference(tmp_path_factory, cache):
    """Split and quoted caches alike read back as written, in the reference
    reader's order, and render again byte for byte."""
    text = render_cache(cache)
    # a new name each time: rewriting one file can cost tens of ms on ext4
    path = tmp_path_factory.getbasetemp() / f"differential-{next(_NAMES)}.cache"
    path.write_text(text, encoding="utf-8")
    loaded = read_cache(path)
    path.unlink()
    event("quoted" if '"' in text else "split")
    assert loaded.table.cells == cache.table.cells
    assert loaded.innings.counts == cache.innings.counts
    cells, innings, mode, fingerprint = reference_read_cache(text)
    assert list(loaded.table.cells.items()) == list(cells.items())
    assert list(loaded.innings.counts.items()) == list(innings.items())
    assert (loaded.counting_mode, loaded.fingerprint) == (mode, fingerprint)
    assert render_cache(loaded) == text


years_windows = st.one_of(st.none(), st.tuples(seasons, seasons).map(lambda ys: tuple(sorted(ys))))


@settings(max_examples=200, deadline=None)
@given(caches, years_windows)
def test_read_summary_matches_read_cache(tmp_path_factory, cache, years):
    """The report read adds the rows into the summary that ``RateSummary``
    makes of ``read_cache``'s table, with a row for every pitcher with a
    situation row and none for a pitcher with innings rows alone, and reads
    the same innings rows."""
    text = render_cache(cache)
    path = tmp_path_factory.getbasetemp() / f"summary-{next(_NAMES)}.cache"
    path.write_text(text, encoding="utf-8")
    summary, innings = read_summary(path, years)
    whole = read_cache(path)
    path.unlink()
    event("quoted" if '"' in text else "split")
    situated = {key[0] for key in cache.table.cells}
    if {pid for pid, _ in cache.innings.counts} - situated:
        event("a pitcher with innings rows alone")
    expected = RateSummary(whole.table, years)
    assert summary.years == years
    assert set(summary.rows) == situated
    assert list(summary.rows.items()) == list(expected.rows.items())
    assert list(innings.counts.items()) == list(whole.innings.counts.items())


@settings(max_examples=300, deadline=None)
@given(caches_of(sorting_ids), st.data())
def test_readers_refuse_exactly_the_unsorted(tmp_path_factory, cache, data):
    """Both readers refuse a cache exactly when the (pitcher_id, class,
    outs, stratum) keys of its ``csv.reader`` rows do not increase
    strictly: as written, with two body lines swapped, or with a line that
    repeats another's key with other counts."""
    lines = render_cache(cache).splitlines()
    body = lines[2:]
    how = data.draw(st.sampled_from(["as written", "swap", "repeat"]) if body
                    else st.just("as written"))
    if how == "swap":
        i, j = data.draw(st.lists(st.integers(0, len(body) - 1), min_size=2, max_size=2))
        body[i], body[j] = body[j], body[i]
    elif how == "repeat":
        i = data.draw(st.integers(0, len(body) - 1))
        at = data.draw(st.integers(0, len(body)))
        n, d = data.draw(counts)
        body.insert(at, f"{body[i].rsplit(',', 2)[0]},{n},{d}")
    keys = [tuple(row[:4]) for row in csv.reader(body)]
    ordered = all(above < key for above, key in zip(keys, keys[1:]))
    event("quoted" if any('"' in line for line in body) else "split")
    event(f"{how}, {'ordered' if ordered else 'unordered'}")
    if keys and keys[0][0] == "":
        event("an empty id first")
    path = tmp_path_factory.getbasetemp() / f"order-{next(_NAMES)}.cache"
    path.write_text("\n".join([*lines[:2], *body]) + "\n", encoding="utf-8")
    refused = "repeats or sorts before the key of the row above"
    try:
        for read in (read_cache, read_summary):
            with nullcontext() if ordered else pytest.raises(CacheError, match=refused):
                read(path)
    finally:
        path.unlink()
