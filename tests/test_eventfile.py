"""Record tokenizing and game assembly."""

import csv
import io
import random
import string

import pytest
from hypothesis import given, strategies as st

from baserisk.eventfile import (
    Diagnostic,
    Half,
    PlayLine,
    RawRecord,
    RecordKind,
    SubLine,
    assemble_games,
    iter_games,
    iter_records,
    load_roster_names,
    tokenize_event_file,
)
from baserisk.pipeline import ingest_text
from conftest import PIN_ALPHABET, make_game_text, mutate


def test_id_record():
    records, diags = tokenize_event_file("id,NYA200309180\n")
    assert diags == []
    (rec,) = records
    assert rec.kind is RecordKind.ID
    assert rec.fields == ["NYA200309180"]
    assert rec.line_no == 1


def test_play_record_cells():
    records, diags = tokenize_event_file("play,9,0,jeted001,12,BCX,S8/G.1-3\n")
    assert diags == []
    assert records[0].fields == ["9", "0", "jeted001", "12", "BCX", "S8/G.1-3"]


def test_blank_lines_skipped():
    records, diags = tokenize_event_file("\n\nid,TST200004010\n\n")
    assert len(records) == 1 and diags == []


def test_quoted_comma_preserved():
    records, _ = tokenize_event_file('start,doej001,"Doe, John",0,1,2\n')
    assert records[0].fields[1] == "Doe, John"


def test_unknown_kind_kept_as_comment():
    records, diags = tokenize_event_file("frobnicate,x,y\n")
    assert diags[0].code == "unknown_record_kind"
    assert records[0].kind is RecordKind.COM
    assert records[0].fields == ["frobnicate", "x", "y"]


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
    record_lines = {r.line_no for r in records}
    assert len(record_lines | diag_lines) == nonempty


def test_two_games_split_in_order():
    text = make_game_text([(1, 0, "vbat1", "K")], game_id="AAA200004010") + \
        make_game_text([(1, 0, "vbat1", "W")], game_id="BBB200004010")
    games, diags = assemble_games(tokenize_event_file(text)[0])
    assert [g.game_id for g in games] == ["AAA200004010", "BBB200004010"]
    assert diags == []


def test_games_stream_before_the_file_ends():
    """The first game comes out once the second game's id record closes
    it, without a pull of any later record."""
    text = make_game_text([(1, 0, "vbat1", "K")], game_id="AAA200004010") + \
        make_game_text([(1, 0, "vbat1", "W")], game_id="BBB200004010")
    diags = []

    def records():
        ids = 0
        for rec in iter_records(text, diags):
            yield rec
            ids += rec.kind is RecordKind.ID
            if ids == 2:
                raise AssertionError("pulled past the second game's id record")

    games = iter_games(records(), diags)
    assert next(games).game_id == "AAA200004010"
    assert diags == []
    with pytest.raises(AssertionError, match="second game's id"):
        next(games)


def test_orphan_records_before_first_id():
    records, _ = tokenize_event_file("play,1,0,x,??,,K\nid,TST200004010\n")
    games, diags = assemble_games(records)
    assert games == []  # the id-only account lacks info records
    assert diags[0].code == "orphan_record"


def test_missing_info_skips_game():
    text = "id,TST200004010\ninfo,visteam,VIS\n"
    games, diags = assemble_games(tokenize_event_file(text)[0])
    assert games == []
    assert any(d.code == "missing_info" for d in diags)


def test_unlisted_batter_skips_game():
    text = make_game_text([(1, 0, "vbat1", "K")])
    text = text.replace("play,1,0,vbat1", "play,1,0,ghost1")
    games, diags = assemble_games(tokenize_event_file(text)[0])
    assert games == []
    assert any(d.code == "orphan_player" for d in diags)


def test_malformed_cells_skip_game():
    text = make_game_text([(1, 0, "vbat1", "K")])
    text = text.replace("play,1,0", "play,one,0")
    games, diags = assemble_games(tokenize_event_file(text)[0])
    assert games == []
    assert any(d.code == "malformed_record" for d in diags)


def test_assembled_events_typed_and_ordered():
    text = make_game_text([
        (1, 0, "vbat1", "K"),
        'sub,hpit2,"Relief",1,0,1',
        (1, 0, "vbat2", "W"),
    ])
    (game,), diags = assemble_games(tokenize_event_file(text)[0])
    assert diags == []
    kinds = [type(e) for e in game.events]
    assert kinds == [PlayLine, SubLine, PlayLine]
    play = game.events[0]
    assert play.inning == 1 and play.half is Half.TOP
    assert game.events[1].position == 1


def test_season_from_date_and_fallback():
    text = make_game_text([(1, 0, "vbat1", "K")], date="1987/06/15")
    (game,), _ = assemble_games(tokenize_event_file(text)[0])
    assert game.season == 1987
    game.info["date"] = "junk"
    assert game.season == 2000  # falls back to the id, TST2000...


def test_data_records_ignored():
    # no report reads data records, so a malformed one must not cost its game
    text = make_game_text([(1, 0, "vbat1", "K")]) + (
        "data,er,hpit0001,x\ndata,er,hpit0001,2\n")
    (game,), diags = assemble_games(tokenize_event_file(text)[0])
    assert diags == []
    assert game.game_id == "TST200004010"
    result = ingest_text(text)
    assert (result.games, result.games_skipped) == (1, 0)
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


def csv_per_line(text):
    """Records and diagnostics from one csv reader per line."""
    records, diagnostics = [], []
    kinds = {k.value: k for k in RecordKind}
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
        elif cells[0] in kinds:
            records.append(RawRecord(kinds[cells[0]], cells[1:], line_no))
        else:
            diagnostics.append(Diagnostic("unknown_record_kind", cells[0], line_no))
            records.append(RawRecord(RecordKind.COM, cells, line_no))
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
    games, diags = assemble_games(tokenize_event_file(text)[0])
    assert len(games) == int(ok)
    assert [d.code for d in diags] == ([] if ok else ["malformed_record"])
