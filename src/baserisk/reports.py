"""Deterministic report rendering for the command-line tools.

All probabilities are displayed rounded to three decimals (Python's
banker's rounding via string formatting); full precision is kept
internally.  Given equal inputs the renderers return byte-identical
strings, so reports can be diffed across runs and machines.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .stats import BRTValue, BucketRow, RateTriple

__all__ = [
    "Table1Cell",
    "Table3Row",
    "fmt3",
    "render_table1",
    "render_table2",
    "render_table3",
]


def fmt3(value: float | None) -> str:
    return "" if value is None else f"{value:.3f}"


def _brt_or_none(value: BRTValue | None) -> float | None:
    return None if value is None else value.brt


@dataclass
class Table1Cell:
    triple: RateTriple
    brt: BRTValue | None  # None when any class has no observations


def render_table1(
    cells: dict[tuple[str, int], Table1Cell], fmt: str = "text"
) -> str:
    """Aggregate rates and thresholds; columns are (scope, outs) pairs."""
    order = [("all", 1), ("all", 0), ("hl", 1), ("hl", 0)]
    captions = {
        ("all", 1): "all/1 out", ("all", 0): "all/0 outs",
        ("hl", 1): "late close/1 out", ("hl", 0): "late close/0 outs",
    }
    present = [key for key in order if key in cells]

    def row(label: str, pick) -> list[str]:
        return [label] + [pick(cells[key]) for key in present]

    rows = [
        row("T", lambda c: fmt3(c.triple.t.value)),
        row("S", lambda c: fmt3(c.triple.s.value)),
        row("F", lambda c: fmt3(c.triple.f.value)),
        row("threshold", lambda c: fmt3(_brt_or_none(c.brt))
            + ("*" if c.brt is not None and c.brt.clamped else "")),
        row("n(T)", lambda c: str(c.triple.t.denominator)),
        row("n(S)", lambda c: str(c.triple.s.denominator)),
        row("n(F)", lambda c: str(c.triple.f.denominator)),
    ]
    header = ["stat"] + [captions[key] for key in present]
    if fmt == "csv":
        return _csv([header] + rows)
    text = _aligned([header] + rows)
    if any(cells[k].brt is not None and cells[k].brt.clamped for k in present):
        text += "* threshold clamped: taking the extra base never helps\n"
    return text


def render_table2(
    blocks: dict[int, list[BucketRow]],
    extras: dict[int, list[tuple[str, BucketRow]]] | None = None,
    fmt: str = "text",
) -> str:
    """Bucketed thresholds by career high-leverage innings.

    blocks maps the threshold index (1 or 0 outs) to its bucket rows;
    extras adds labeled rows such as a save-leader group.
    """
    extras = extras or {}
    records: list[list[str]] = []
    header = ["outs", "group", "pitchers", "cumulative", "mean", "stddev", "dropped"]
    for outs in sorted(blocks, reverse=True):
        rows = list(blocks[outs]) + [row for _, row in extras.get(outs, [])]
        labels = [row.label for row in blocks[outs]] + [
            label for label, _ in extras.get(outs, [])
        ]
        for label, row in zip(labels, rows):
            records.append([
                str(outs), label, str(len(row.pitchers)),
                fmt3(_brt_or_none(row.cumulative)),
                fmt3(row.mean), fmt3(row.stddev), str(len(row.excluded)),
            ])
    if fmt == "csv":
        return _csv([header] + records)
    return _aligned([header] + records)


@dataclass
class Table3Row:
    pitcher_id: str
    last: str
    first: str
    value: BRTValue
    era: float | None


def render_table3(rows: list[Table3Row], fmt: str = "text") -> str:
    """Per-pitcher rates sorted by ascending threshold, with a mean row."""
    ordered = sorted(rows, key=lambda r: (r.value.brt, r.pitcher_id))
    header = ["last", "first", "T", "S", "F", "threshold", "ERA"]
    body = [
        [
            r.last, r.first,
            fmt3(r.value.t), fmt3(r.value.s), fmt3(r.value.f),
            fmt3(r.value.brt), fmt3(r.era) if r.era is not None else "",
        ]
        for r in ordered
    ]
    if ordered:
        n = len(ordered)
        eras = [r.era for r in ordered if r.era is not None]
        body.append([
            "mean", "",
            fmt3(sum(r.value.t for r in ordered) / n),
            fmt3(sum(r.value.s for r in ordered) / n),
            fmt3(sum(r.value.f for r in ordered) / n),
            fmt3(sum(r.value.brt for r in ordered) / n),
            fmt3(sum(eras) / len(eras)) if eras else "",
        ])
    if fmt == "csv":
        return _csv([header] + body)
    return _aligned([header] + body)


def _csv(rows: list[list[str]]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerows(rows)
    return out.getvalue()


def _aligned(rows: list[list[str]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [cell.ljust(w) if i == 0 else cell.rjust(w)
                 for i, (cell, w) in enumerate(zip(row, widths))]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"
