"""Rendered report layout and formatting."""

import pytest

from baserisk.reports import (
    Table3Row,
    fmt3,
    render_table1,
    render_table2,
    render_table3,
)
from baserisk.reports import Table1Cell
from baserisk.stats import BRTValue, BucketRow, Rate, RateTriple, compute_brt


def triple(t=(5, 8), s=(2, 5), f=(1, 7), outs=1):
    return RateTriple(Rate(*t), Rate(*s), Rate(*f), outs)


def brt_of(rt):
    return compute_brt(rt.t.value, rt.s.value, rt.f.value)


@pytest.mark.parametrize(
    "value,expected",
    [
        (0.0625, "0.062"),  # exact binary ties round to even under format()
        (0.1875, "0.188"),
        (0.3825, "0.383"),  # stored slightly above .3825, so rounds up
        (1.0, "1.000"),
        (0.0, "0.000"),
        (None, ""),
    ],
)
def test_fmt3(value, expected):
    assert fmt3(value) == expected


def test_table1_layout():
    rt = triple()
    cells = {
        ("all", 1): Table1Cell(rt, brt_of(rt)),
        ("all", 0): Table1Cell(rt, brt_of(rt)),
        ("hl", 1): Table1Cell(rt, brt_of(rt)),
        ("hl", 0): Table1Cell(rt, brt_of(rt)),
    }
    text = render_table1(cells)
    lines = text.splitlines()
    assert lines[0].split() == [
        "stat", "all/1", "out", "all/0", "outs",
        "late", "close/1", "out", "late", "close/0", "outs",
    ]
    assert lines[1].startswith("T") and "0.625" in lines[1]
    assert lines[2].startswith("S") and "0.400" in lines[2]
    assert lines[3].startswith("F") and "0.143" in lines[3]
    assert lines[4].startswith("threshold")
    assert lines[5].split()[:2] == ["n(T)", "8"]
    assert "*" not in text


def test_table1_partial_columns():
    rt = triple()
    text = render_table1({("hl", 0): Table1Cell(rt, brt_of(rt))})
    assert "all/1 out" not in text
    assert "late close/0 outs" in text


def test_table1_clamp_footnote():
    clamped = RateTriple(Rate(1, 4), Rate(3, 4), Rate(1, 8), 1)
    cell = Table1Cell(clamped, brt_of(clamped))
    text = render_table1({("all", 1): cell})
    assert "1.000*" in text
    assert "clamped" in text.splitlines()[-1]
    csv_text = render_table1({("all", 1): cell}, fmt="csv")
    assert "1.000*" in csv_text
    assert "clamped" not in csv_text  # footnote is text-format only


def test_table1_csv_matches_text_values():
    rt = triple()
    cells = {("all", 1): Table1Cell(rt, brt_of(rt))}
    csv_text = render_table1(cells, fmt="csv")
    rows = [line.split(",") for line in csv_text.splitlines()]
    assert rows[0] == ["stat", "all/1 out"]
    assert rows[1] == ["T", "0.625"]
    assert rows[4][0] == "threshold"


def bucket(label, pitchers, cumulative, mean, stddev, excluded=()):
    return BucketRow(label, list(pitchers), cumulative, mean, stddev, list(excluded))


def test_table2_layout():
    value = compute_brt(0.6, 0.4, 0.1)
    blocks = {
        1: [bucket("100-149", ["a", "b"], value, 0.25, 0.01),
            bucket("leaders", ["c"], value, 0.3, 0.0)],
        0: [bucket("100-149", ["a"], value, 0.5, None)],
    }
    text = render_table2(blocks)
    lines = text.splitlines()
    assert lines[0].split() == [
        "outs", "group", "pitchers", "cumulative", "mean", "stddev", "dropped",
    ]
    # one-out block first, each row under its own label
    assert lines[1].split() == ["1", "100-149", "2", "0.333", "0.250", "0.010", "0"]
    assert lines[2].split() == ["1", "leaders", "1", "0.333", "0.300", "0.000", "0"]
    assert lines[3].split()[:3] == ["0", "100-149", "1"]
    assert lines[3].split()[-1] == "0"


def test_table2_blank_stddev_singleton():
    value = compute_brt(0.6, 0.4, 0.1)
    text = render_table2({0: [bucket("350+", ["x"], value, 0.2, None)]},
                         fmt="csv")
    assert text.splitlines()[1] == "0,350+,1,0.333,0.200,,0"


def test_table2_counts_dropped():
    value = compute_brt(0.6, 0.4, 0.1)
    row = bucket("150-199", list("abcde"), value, 0.2, 0.1, excluded=["d", "e"])
    text = render_table2({1: [row]})
    assert text.splitlines()[1].split()[-1] == "2"


def rows_for_table3():
    return [
        Table3Row("bbb01", "Beta", "Bob", BRTValue(0.6, 0.4, 0.1, 0.333, False), 3.5),
        Table3Row("aaa01", "Alpha", "Ann", BRTValue(0.5, 0.3, 0.1, 0.333, False), None),
        Table3Row("ccc01", "Gamma", "Gil", BRTValue(0.7, 0.5, 0.05, 0.2, False), 2.5),
    ]


def test_table3_sorted_by_threshold_then_id():
    text = render_table3(rows_for_table3())
    lines = text.splitlines()
    assert lines[0].split() == ["last", "first", "T", "S", "F", "threshold", "ERA"]
    assert [line.split()[0] for line in lines[1:]] == [
        "Gamma", "Alpha", "Beta", "mean",
    ]


def test_table3_mean_row():
    text = render_table3(rows_for_table3(), fmt="csv")
    mean = text.splitlines()[-1].split(",")
    assert mean[0] == "mean"
    assert mean[2] == "0.600"  # (0.6 + 0.5 + 0.7) / 3
    assert mean[5] == fmt3((0.333 + 0.333 + 0.2) / 3)
    assert mean[6] == "3.000"  # mean over present ERAs only


def test_table3_missing_era_blank():
    csv_text = render_table3(rows_for_table3(), fmt="csv")
    alpha = next(line for line in csv_text.splitlines() if line.startswith("Alpha"))
    assert alpha.endswith(",")


def test_table3_empty_list_renders_header_only():
    assert render_table3([]).splitlines()[0].split()[0] == "last"
    assert len(render_table3([]).splitlines()) == 1


def test_renderers_are_deterministic():
    rt = triple()
    cells = {("all", 1): Table1Cell(rt, brt_of(rt))}
    assert render_table1(cells) == render_table1(cells)
    rows = rows_for_table3()
    assert render_table3(rows) == render_table3(list(reversed(rows)))


def test_aligned_output_has_no_trailing_spaces():
    rt = triple()
    text = render_table1({("all", 1): Table1Cell(rt, brt_of(rt))})
    for line in text.splitlines():
        assert line == line.rstrip()
