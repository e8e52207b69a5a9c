"""Record tokenizing and game assembly."""

import csv
import hashlib
import io
import random
import string

import pytest
from hypothesis import given, strategies as st

from baserisk import eventfile
from baserisk.eventfile import (
    _CHUNK,
    Diagnostic,
    Half,
    SubLine,
    assemble_games,
    iter_games,
    load_roster_names,
    tokenize_event_file,
)
from baserisk.pipeline import ingest_text
from conftest import (
    PIN_ALPHABET, broken_text, damaged_texts, decorated_texts, make_game_text, mutate,
    pin_corpus,
)


def test_id_record():
    records, diags = tokenize_event_file("id,NYA200309180\n")
    assert diags == []
    assert records == [("id", ["NYA200309180"], 1)]


def test_play_record_cells():
    records, diags = tokenize_event_file("play,9,0,jeted001,12,BCX,S8/G.1-3\n")
    assert diags == []
    assert records[0][1] == ["9", "0", "jeted001", "12", "BCX", "S8/G.1-3"]


def test_blank_lines_skipped():
    records, diags = tokenize_event_file("\n\nid,TST200004010\n\n")
    assert len(records) == 1 and diags == []


def test_quoted_comma_preserved():
    records, _ = tokenize_event_file('start,doej001,"Doe, John",0,1,2\n')
    assert records[0][1][1] == "Doe, John"


def test_unknown_kind_kept_as_comment():
    records, diags = tokenize_event_file("frobnicate,x,y\n")
    assert diags[0].code == "unknown_record_kind"
    assert records == [("com", ["frobnicate", "x", "y"], 1)]


def test_missing_first_cell_is_unreadable():
    records, diags = tokenize_event_file(",id,oops\n")
    assert records == []
    assert diags[0].code == "unreadable_line"


@given(st.lists(st.text(alphabet=string.ascii_letters + ",", max_size=30)))
def test_tokenizer_accounts_for_every_line(lines):
    text = "\n".join(lines)
    records, diags = tokenize_event_file(text)
    nonempty = sum(1 for line in lines if line.strip())
    # records and diagnostics partition the input lines; an unknown kind
    # yields both a record and a diagnostic for the same line
    diag_lines = {d.line_no for d in diags}
    record_lines = {line_no for _, _, line_no in records}
    assert len(record_lines | diag_lines) == nonempty


# every line boundary of str.splitlines; latin-1 text can hold all but the last two
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]


@pytest.mark.parametrize("brk", LINE_BREAKS, ids=lambda brk: repr(brk)[1:-1])
def test_line_numbers_at_every_line_break(brk):
    """Records and diagnostics name the line each break starts, blank
    lines counted."""
    lines = ["id,TST200004010", "", "frobnicate,x", ",oops", "play,one,0,x,??,,K",
             "info,date,2000/04/01", ""]
    records, diags = tokenize_event_file(brk.join(lines))
    assert records == [
        ("id", ["TST200004010"], 1), ("com", ["frobnicate", "x"], 3),
        ("play", ["one", "0", "x", "??", "", "K"], 5), ("info", ["date", "2000/04/01"], 6),
    ]
    assert diags == [Diagnostic("unknown_record_kind", "frobnicate", 3),
                     Diagnostic("unreadable_line", ",oops", 4)]
    games, diags = assemble_games(brk.join(lines))
    assert games == []
    assert [(d.code, d.line_no) for d in diags] == [
        ("unknown_record_kind", 3), ("unreadable_line", 4)]
    # the unreadable line alone drops the block; blanked, the play does
    games, diags = assemble_games(brk.join(lines).replace(",oops", ""))
    assert games == []
    assert [(d.code, d.line_no) for d in diags] == [
        ("unknown_record_kind", 3), ("malformed_record", 5)]


def test_unreadable_line_drops_its_block_only():
    """A line that cannot be read drops the block it falls in, with the
    line's one diagnostic; before any id record it drops nothing."""
    first = make_game_text([(1, 0, "vbat1", "K")])
    second = make_game_text([(1, 0, "vbat1", "K")], game_id="TST200004020")
    games, diags = assemble_games(",oops\n" + first + second)
    assert [game.game_id for game in games] == ["TST200004010", "TST200004020"]
    assert [(d.code, d.line_no) for d in diags] == [("unreadable_line", 1)]
    diags = []
    games = list(iter_games(first + ",oops\n" + second, diags, None, {}))
    assert [game and game.game_id for game in games] == [None, "TST200004020"]
    at = first.count("\n") + 1
    assert [(d.code, d.line_no) for d in diags] == [("unreadable_line", at)]


def test_line_numbers_across_mixed_line_breaks():
    """A file that mixes every break counts one line per break; a CR LF
    pair is one break, an LF CR pair two."""
    text = "".join(f"com,{n}{brk}" for n, brk in enumerate(LINE_BREAKS, start=1))
    text += "com,12\n\rcom,14"
    records, diags = tokenize_event_file(text)
    assert diags == []
    assert [(fields[0], line_no) for _, fields, line_no in records] == [
        (str(n), n) for n in [*range(1, 13), 14]]


def test_line_numbers_across_chunk_cuts():
    """Text longer than two chunks is split a chunk at a time, each chunk
    ending just after the first "\n" at least _CHUNK characters past its
    start.  Every break, CR LF and LF CR among them, is laid at and just
    before a point where that search starts, and just after the cut it
    finds; the records and line numbers are those of one splitlines() of
    the whole text."""
    text, start = "", 0
    for offset in (-1, 0):
        for n, brk in enumerate([*LINE_BREAKS, "\n\r"]):
            head = f"com,{n},"
            pad = "x" * (start + _CHUNK + offset - len(text) - len(head))
            text += head + pad + brk + f"com,{n}\n" + brk
            start = text.find("\n", start + _CHUNK) + 1
    assert len(text) > 2 * _CHUNK
    whole = [("com", line.split(",")[1:], n)
             for n, line in enumerate(text.splitlines(), start=1) if line]
    assert tokenize_event_file(text) == (whole, [])


@given(st.lists(st.sampled_from(["c", "o", "m", ",", "x", *LINE_BREAKS]),
                max_size=60).map("".join),
       st.integers(min_value=1, max_value=8))
def test_any_chunk_size_splits_as_the_whole_text(text, chunk):
    """Records, line numbers and diagnostics do not depend on the chunk
    size; a text this short is otherwise split in one piece."""
    whole = tokenize_event_file(text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(eventfile, "_CHUNK", chunk)
        assert tokenize_event_file(text) == whole


def test_two_games_split_in_order():
    text = make_game_text([(1, 0, "vbat1", "K")], game_id="AAA200004010") + \
        make_game_text([(1, 0, "vbat1", "W")], game_id="BBB200004010")
    games, diags = assemble_games(text)
    assert [g.game_id for g in games] == ["AAA200004010", "BBB200004010"]
    assert diags == []


def test_games_stream_before_the_file_ends():
    """The first game comes out once the second game's id record closes
    it, before any diagnostic of the second block exists."""
    text = make_game_text([(1, 0, "vbat1", "K")], game_id="AAA200004010") + \
        make_game_text([(1, 0, "vbat1", "W")], game_id="BBB200004010").replace(
            "version,2", "frobnicate,x\nversion,2")
    diags = []
    games = iter_games(text, diags, None, {})
    assert next(games).game_id == "AAA200004010"
    assert diags == []
    assert next(games).game_id == "BBB200004010"
    assert [d.code for d in diags] == ["unknown_record_kind"]


def test_orphan_records_before_first_id():
    games, diags = assemble_games("play,1,0,x,??,,K\nid,TST200004010\n")
    assert games == []  # the id-only account lacks info records
    assert diags[0].code == "orphan_record"


def test_missing_info_skips_game():
    text = "id,TST200004010\ninfo,visteam,VIS\n"
    games, diags = assemble_games(text)
    assert games == []
    assert any(d.code == "missing_info" for d in diags)


def test_unlisted_batter_skips_game():
    text = make_game_text([(1, 0, "vbat1", "K")])
    text = text.replace("play,1,0,vbat1", "play,1,0,ghost1")
    games, diags = assemble_games(text)
    assert games == []
    assert any(d.code == "orphan_player" for d in diags)


def test_malformed_cells_skip_game():
    text = make_game_text([(1, 0, "vbat1", "K")])
    text = text.replace("play,1,0", "play,one,0")
    games, diags = assemble_games(text)
    assert games == []
    assert any(d.code == "malformed_record" for d in diags)


def test_assembled_events_typed_and_ordered():
    text = make_game_text([
        (1, 0, "vbat1", "K"),
        'sub,hpit2,"Relief",1,0,1',
        (1, 0, "vbat2", "W"),
    ])
    (game,), diags = assemble_games(text)
    assert diags == []
    kinds = [type(e) for e in game.events]
    assert kinds == [tuple, SubLine, tuple]  # a play is a plain PlayLine tuple
    play = game.events[0]
    assert play == (1, Half.TOP, "vbat1", "K", 10) and play[1] is Half.TOP
    assert game.events[1].position == 1


def test_season_from_date_and_fallback():
    text = make_game_text([(1, 0, "vbat1", "K")], date="1987/06/15")
    (game,), _ = assemble_games(text)
    assert game.season == 1987
    game.info["date"] = "junk"
    assert game.season == 2000  # falls back to the id, TST2000...


def test_data_records_ignored():
    # no report reads data records, so a malformed one must not cost its game
    text = make_game_text([(1, 0, "vbat1", "K")]) + (
        "data,er,hpit0001,x\ndata,er,hpit0001,2\n")
    (game,), diags = assemble_games(text)
    assert diags == []
    assert game.game_id == "TST200004010"
    result = ingest_text(text)
    assert (result.counts["games"], result.counts["skipped"]) == (1, 0)
    assert "malformed_record" not in result.diagnostic_counts


def test_roster_names(tmp_path):
    ros = tmp_path / "VIS2000.ROS"
    ros.write_text(
        "rivem001,Rivera,Mariano,R,R,NYA,P\nshort\n", encoding="latin-1"
    )
    names = load_roster_names([ros])
    assert names["rivem001"] == ("Rivera", "Mariano")
    assert "short" not in names


LINE_SEEDS = [
    "id,NYA200309180", "version,2", "info,date,2003/09/18",
    'start,doej001,"Doe, John",0,1,2', 'sub,vbat9,"Runner",0,1,12',
    "play,9,0,jeted001,12,BCX,S8/G.1-3", "play,1,1,hbat1,??,,64(1)3/GDP",
    'com,"runner held, then ""sent"""', "data,er,hpit0001,2", "badj,x,L",
]


KINDS = {"id", "version", "info", "start", "sub", "play", "data", "com", "badj",
         "padj", "ladj"}


def csv_per_line(text):
    """Records and diagnostics from one csv reader per line."""
    records, diagnostics = [], []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            cells = next(csv.reader(io.StringIO(line)))
        except (csv.Error, StopIteration):
            diagnostics.append(Diagnostic("unreadable_line", line, line_no))
            continue
        if not cells[0]:
            diagnostics.append(Diagnostic("unreadable_line", line, line_no))
        elif cells[0] in KINDS:
            records.append((cells[0], cells[1:], line_no))
        else:
            diagnostics.append(Diagnostic("unknown_record_kind", cells[0], line_no))
            records.append(("com", cells, line_no))
    return records, diagnostics


def test_tokenizer_matches_csv_per_line():
    """Criterion-8-style mutations of record lines, quotes included, split
    the same as a csv reader per line would split them."""
    rng = random.Random(86)
    lines = [mutate(rng, LINE_SEEDS, PIN_ALPHABET + '"', 1) for _ in range(20_000)]
    lines.append("com," + "x" * (csv.field_size_limit() + 1))  # over csv's limit
    text = "\n".join(lines)
    records, diagnostics = tokenize_event_file(text)
    assert (records, diagnostics) == csv_per_line(text)
    assert sum(d.code == "unreadable_line" for d in diagnostics) > 100
    assert sum('"' in line for line in lines) > 1_000


@pytest.mark.parametrize("half,ok", [("0", True), ("1", True), ("01", True),
                                     ("2", False), ("x", False), ("", False)])
def test_play_half_values(half, ok):
    text = make_game_text([f"play,1,{half},vbat1,??,,K", (1, 0, "vbat1", "K")])
    games, diags = assemble_games(text)
    assert len(games) == int(ok)
    assert [d.code for d in diags] == ([] if ok else ["malformed_record"])


# --- front-end pins ----------------------------------------------------------
# SHA-256 over every field of every GameAccount and Diagnostic, in the order
# iter_games yields them, under each of WINDOWS; recorded before iter_games
# split its own lines.

WINDOWS = [None, (1984, 2011), (1990, 1990), (2005, 2005), (1979, 1979), (1991, 1999),
           (0, 0)]


def _diagnostic_row(diag):
    return ("diagnostic", diag.code, diag.detail, diag.line_no, diag.game_id)


def _game_row(game):
    if game is None:
        return ("dropped",)
    events = [
        ("sub", ev.player_id, ev.name, ev.team, ev.batting_order, ev.position)
        if isinstance(ev, SubLine) else
        ("play", ev[0], int(ev[1]), ev[2], ev[3], ev[4])
        for ev in game.events
    ]
    starters = [(s.player_id, s.name, s.team, s.batting_order, s.position)
                for s in game.starters]
    return ("game", game.game_id, list(game.info.items()), game.season, starters, events)


def front_end_rows(text, years):
    """Every game and diagnostic of the text, the diagnostics that exist
    at each yield placed before the game it yields."""
    diags, rows, seen = [], [], 0
    for game in iter_games(text, diags, years, {}):
        assert len(diags) >= seen
        rows += [_diagnostic_row(d) for d in diags[seen:]]
        seen = len(diags)
        rows.append(_game_row(game))
    assert len(diags) >= seen
    rows += [_diagnostic_row(d) for d in diags[seen:]]
    return rows


PLAYS = ["play,1,0,vbat1,??,,K", "play,1,0,vbat1,??,,S8/G.1-3", "play,1,0,vbat1,??,,63/G",
         "play,1,1,hbat1,??,,W", "play,1,1,hbat1,??,,CS2(24)", "play,2,0,vbat1,??,,HR"]


def _block(game_id, *body, date=None):
    lines = [f"id,{game_id}", "version,2", "info,visteam,VIS", "info,hometeam,HOM"]
    if date is not None:
        lines.append(f"info,date,{date}")
    lines += ['start,vbat1,"Vee, Bat",0,1,7', "start,hbat1,H Bat,1,1,7",
              "start,vpit1,V Pitcher,0,0,1", "start,hpit1,H Pitcher,1,0,1"]
    return [*lines, *body]


def _hand_made_texts():
    """Tokenizer cases and blocks whose season changes inside them, each
    joined by four kinds of line break."""
    limit = csv.field_size_limit()
    long_unreadable = "com," + "x" * (limit + 1)
    long_play = "play,1,0,vbat1,??,,K" + ",x" * (limit // 2 + 1)
    damage = ["frobnicate,x,y", ",oops", 'com,"unclosed', 'info,"note, with comma",x',
              "ixx,1", '"play",2,0,vbat1,??,,W', '"frob",1', 'com,"a\x00b"',
              long_unreadable, long_play, "play,one,0,vbat1,??,,K"]
    tokenizing = [
        "play,1,0,x,??,,K", "frobnicate,before",
        *_block("AAA199004010", 'start,doej001,"Doe, John",0,2,2', *PLAYS, *damage,
                date="1990/04/01"),
        '"id","QQQ200504010"', "info,visteam,VIS", "info,hometeam,HOM",
        '"info","date","2005/04/01"', "start,vbat1,x,0,1,7", "start,vpit1,x,0,0,1",
        "start,hpit1,x,1,0,1", 'sub,vpit2,"Relief, One",0,0,1', "play,1,0,vbat1,??,,K",
        "data,er,vpit1,0", "padj,x,L", "frobnicate,late",
        "id,", "play,1,0,vbat1,??,,K", "info,date,1990/01/01",
        *_block("BBB197904010", *PLAYS, "frobnicate,q", date="1979/04/01"),
        *_block("CCC200004010", *PLAYS, "play,1,0,ghost1,??,,K", date="2000/04/01"),
    ]
    seasons = [
        # a second date; a date after the plays; no date; a date that is not one
        *_block("SCA199004010", *PLAYS[:2], "info,date,2005/04/01", *PLAYS[2:],
                date="1990/04/01"),
        *_block("SCB200004010", *PLAYS, "frobnicate,b", "info,date,1988/04/01"),
        *_block("SCC199204010", *PLAYS, "frobnicate,c"),
        *_block("SCD199304010", *PLAYS, date="junk"),
        *_block("SCE199304010", *PLAYS, "info,date"),
        # a late date brings a block whose id year is outside back in
        *_block("SCF197904010", *damage[:9], "sub,vpit2,Relief,0,0,1", *PLAYS,
                "info,date,1990/04/01", *PLAYS),
        *_block("SCG197904010", "frobnicate,g", '"play",1,0,vbat1,??,,W', *PLAYS,
                "info,date,1999/04/01", *PLAYS, "frobnicate,h"),
        # in, out and in again; in, then out for good after a malformed record
        *_block("SCH199004010", *PLAYS[:2], "info,date,1970/01/01", "frobnicate,z",
                *PLAYS[2:], "info,date,1991/01/01", "bogus,1", date="1990/04/01"),
        *_block("SCI199004010", "play,x,0,vbat1,??,,K", "frobnicate,w",
                "info,date,1970/01/01", *PLAYS, date="1990/04/01"),
        # no year in the id; a quoted date record
        *_block("ABCDEFGHIJKL", *PLAYS, "frobnicate,i", date="1995/01/01"),
        *_block("SCJ197904010", *PLAYS, '"info","date","1984/04/01"', *PLAYS),
    ]
    return [brk.join(lines) for lines in (tokenizing, seasons)
            for brk in ("\n", "\r\n", "\r", "\x0b")]


def _pin_corpus_text():
    """The pin corpus as play records, 500 to a game, one season per game."""
    corpus = pin_corpus()
    blocks = []
    for n, start in enumerate(range(0, len(corpus), 500)):
        season = 1978 + n % 40
        plays = [(1 + i // 6 % 9, i // 3 % 2, "hbat1" if i // 3 % 2 else "vbat1", token)
                 for i, token in enumerate(corpus[start:start + 500])]
        blocks.append(make_game_text(plays, game_id=f"HOM{season}{n:05d}",
                                     date=f"{season}/04/01"))
    return "".join(blocks)


FRONT_END_INPUTS = {
    "pin_corpus": lambda: [_pin_corpus_text()],
    "broken": lambda: [broken_text()],
    "decorated": decorated_texts,
    "damaged": damaged_texts,
    "hand_made": _hand_made_texts,
}

# hand_made re-recorded when an unreadable line began to drop its block:
# SCF197904010 is dropped, and AAA199004010 no longer adds a malformed_record
FRONT_END_PINS = {
    "pin_corpus":
        "bc6b43d6f744b736bb8b04aef8ecfe75511c38d9aaaac2128ea17013847b9898",
    "broken":
        "9d3efcee4ecc9934e8e2d69649877cd261e8082cd93c676dc63c20626fe381d0",
    "decorated":
        "695c91d7242a0e49577edd9dea0f44e4ba675fce736f105ae398a9af2d9182b4",
    "damaged":
        "d5d6d4c37f9ba2148160115f2ea6a3e6ce918914e2bb1ec8a7b772b7be0f8e12",
    "hand_made":
        "bfed48242b6dc3f180cdb3675eae28d2ea0aaa13d92f26814f7327fd93c9a84d",
}


@pytest.mark.parametrize("name", list(FRONT_END_PINS))
def test_front_end_pinned(name):
    rows = [(years, front_end_rows(text, years))
            for text in FRONT_END_INPUTS[name]() for years in WINDOWS]
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == FRONT_END_PINS[name]


def test_out_of_window_lines_are_held_unbuilt(monkeypatch):
    """A block outside the window builds no play; one that a late date
    brings back builds every play, with the diagnostics it has when no
    window is set: its held unreadable line drops it when the line runs."""
    built = []

    class Events(list):
        """A game's events, which keep aside every play appended."""

        def append(self, item):
            if type(item) is tuple:
                built.append(item)
            super().append(item)

    real = eventfile.GameAccount
    monkeypatch.setattr(eventfile, "GameAccount",
                        lambda game_id, info, starters, _: real(game_id, info, starters, Events()))
    window = (1984, 2011)
    outside = "".join(make_game_text(PLAYS[:3] + ["frobnicate,x"], game_id=f"OUT{year}04010",
                                     date=f"{date}/04/01")
                      for year, date in [(1979, 1979), (1990, 1979), (1979, 2012)])
    diags = []
    assert list(iter_games(outside, diags, window, {})) == []
    assert (diags, built) == ([], [])

    late = "\n".join(_block("LAT197904010", "frobnicate,x", ",oops", *PLAYS,
                            "info,date,1990/04/01", "play,2,1,hbat1,??,,K"))
    rows = front_end_rows(late, window)
    assert len(built) == len(PLAYS) + 1
    assert rows == front_end_rows(late, None)
    assert [row[:2] for row in rows] == [
        ("diagnostic", "unknown_record_kind"), ("diagnostic", "unreadable_line"),
        ("dropped",)]


# --- lineup memo and the orphan check ----------------------------------------


def _games_and_diagnostics(text):
    """The ids of the text's games, and its diagnostics as tuples."""
    games, diags = assemble_games(text)
    return [g.game_id for g in games], [(d.code, d.detail, d.line_no, d.game_id) for d in diags]


def test_repeated_lineup_lines_share_one_entry_per_file():
    text = "".join(make_game_text([(1, 0, "vbat1", "K"), 'sub,hpit2,"Relief",1,0,1'],
                                  game_id=f"G{n}0200004010") for n in range(2))
    first, second = assemble_games(text)[0]
    assert first.starters == second.starters
    assert all(a is b for a, b in zip(first.starters, second.starters, strict=True))
    assert first.events[1] is second.events[1] and isinstance(second.events[1], SubLine)
    # another call, as for another file, builds entries of its own
    again = assemble_games(text)[0][0]
    assert again.starters == first.starters and again.starters[0] is not first.starters[0]


def test_repeated_start_line_after_a_play_is_malformed():
    """A start line built in an earlier game is still refused after the
    game's first play, in the words of a line never seen before."""
    first = make_game_text([(1, 0, "vbat1", "K")], game_id="AAA200004010")
    second = make_game_text([(1, 0, "vbat1", "K"), 'start,vbat1,"vbat1",0,1,2'],
                            game_id="BBB200004010")
    detail = ("start ['vbat1', 'vbat1', '0', '1', '2'] "
              "(after the game's first play, sub or radj record)")
    assert _games_and_diagnostics(first + second) == (
        ["AAA200004010"], [("malformed_record", detail, 19, "BBB200004010")])
    assert _games_and_diagnostics(second) == (
        [], [("malformed_record", detail, 10, "BBB200004010")])


def test_repeated_malformed_lineup_line_drops_each_game():
    text = "".join(make_game_text(['start,x,"N",0,1,z', (1, 0, "vbat1", "K")],
                                  game_id=f"G{n}0200004010") for n in range(2))
    detail = "start ['x', 'N', '0', '1', 'z'] (invalid literal for int() with base 10: 'z')"
    assert _games_and_diagnostics(text) == ([], [
        ("malformed_record", detail, 9, "G00200004010"),
        ("malformed_record", detail, 19, "G10200004010")])


@pytest.mark.parametrize("kind", ["start", "sub"])
@pytest.mark.parametrize("team", ["2", "7", "-1"])
def test_lineup_team_neither_visitor_nor_home_is_malformed(kind, team):
    """Replay keeps each side's pitcher under team 0 or 1, so a reliever of
    another team left the pitcher it relieved on the mound.  The line drops
    its game, and so does its repeat in a later game."""
    line = f'{kind},hpit2,"Relief",{team},0,1'
    body = [line, (1, 0, "vbat1", "K")] if kind == "start" else [(1, 0, "vbat1", "K"), line]
    text = "".join(make_game_text(body, game_id=f"G{n}0200004010") for n in range(2))
    detail = (f"{kind} ['hpit2', 'Relief', '{team}', '0', '1'] "
              f"(team {team} is neither 0 (visitor) nor 1 (home))")
    at = 9 if kind == "start" else 10
    assert _games_and_diagnostics(text) == ([], [
        ("malformed_record", detail, at, "G00200004010"),
        ("malformed_record", detail, at + 10, "G10200004010")])
    assert len(assemble_games(text.replace(f'",{team},0,1', '",1,0,1'))[0]) == 2


def test_repeated_sub_line_makes_its_batter_known():
    sub = 'sub,vbat9,"Runner",0,1,12'
    known = make_game_text([(1, 0, "vbat1", "W"), sub, "play,1,0,vbat9,??,,K"],
                           game_id="AAA200004010")
    again = known.replace("AAA", "BBB")
    early = make_game_text([(1, 0, "vbat1", "W"), "play,1,0,vbat9,??,,K", sub],
                           game_id="CCC200004010")
    assert _games_and_diagnostics(known + again + early) == (
        ["AAA200004010", "BBB200004010"],
        [("orphan_player", "batter vbat9 not in lineup", 32, "CCC200004010")])


def test_orphan_batter_comes_after_a_malformed_record_and_missing_info():
    """A game with a play by an unknown batter is dropped for its first
    malformed record, else for a missing info record, else for its first
    such play."""
    ghosts = ["play,1,0,ghost1,??,,K", "play,1,0,ghost2,??,,K"]
    orphan = make_game_text([(1, 0, "vbat1", "K"), *ghosts])
    assert _games_and_diagnostics(orphan) == (
        [], [("orphan_player", "batter ghost1 not in lineup", 10, "TST200004010")])
    no_date = orphan.replace("info,date,2000/04/01\n", "")
    assert _games_and_diagnostics(no_date) == (
        [], [("missing_info", "no date record", None, "TST200004010")])
    for malformed in (no_date + "play,x,0,vbat1,??,,K\n",
                      no_date.replace("play,1,0,vbat1", "play,x,0,vbat1")):
        assert [d[0] for d in _games_and_diagnostics(malformed)[1]] == ["malformed_record"]
