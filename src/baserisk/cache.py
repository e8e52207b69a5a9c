"""Columnar cache of ingested tallies, plus small metadata loaders.

The cache is a CSV of (pitcher_id, class, outs, stratum, numerator,
denominator) rows preceded by a manifest comment line recording the
counting mode and a fingerprint of the ingested inputs.  Situation rows
use a "<season>:<hl|other>" stratum so the two leverage strata stay
disjoint; per-pitcher appearance counts ride along as class "innings"
rows with outs 0, numerator = high-leverage half-innings and denominator
= all half-innings.  Rows are written sorted, so equal tallies produce
byte-identical files.

The writer quotes a pitcher id as ``csv.writer`` would: only one that
holds a quote or a comma, since it refuses a line break.  So in a cache
whose text holds no quote a row's id ends at its first comma and its two
counts follow its last two, as ``csv.reader`` would split them; any other
cache goes through ``csv.reader``.  Either way a row reads as its pitcher
id, one tail text ``class,outs,stratum`` and two count texts.  Two readers
share one loop of checks, and so refuse the same text with the same
``CacheError``: text that is not UTF-8, a row of the wrong width, counts
outside 0 <= numerator <= denominator, a (class, outs) that is not one of
``stats.CELLS``, a stratum that is not ``<season>:hl`` or
``<season>:other`` (or, on an innings row, a bare season) in the form the
writer writes, a count that is not in that form either (``03``, ``+3``,
`` 3``, ``1_0``), and a row whose (pitcher_id, class, outs, stratum) key
does not sort strictly after the row above's, as the writer sorts them:
a repeated key or a row out of place.  The loop compares the id with the
row above's, and the tail text with the row above's only where the two
ids are equal.  The writer refuses a pitcher id that holds a line break.

``read_cache`` keeps every row under its own key, and so allocates two
containers per row, a key tuple and a count list.  ``read_summary``, the
report commands' read, adds each situation row straight into its
pitcher's ``stats.RateSummary`` row and allocates those two only per
innings row.  A split row's lists live until the next row is read.  None
of these form cycles.  The cyclic collector counts them toward its
thresholds all the same and, left running, walks them again and again,
freeing nothing: on the perfbench query cache (32,970 rows), one round of
``table1``, ``table2`` and ``table3`` that each read the whole table ran 252
generation-0, 22 generation-1 and 2 full collections.  ``cli.main``
therefore pauses it for the whole command and puts back the caller's
setting; a caller that reads a cache outside ``main`` decides for itself.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

from .stats import CELLS, CountingMode, InningCounts, RateSummary, TallyTable

__all__ = [
    "CacheError",
    "StatsCache",
    "fingerprint_paths",
    "load_era_csv",
    "read_cache",
    "read_summary",
    "render_cache",
    "write_cache",
]

_MAGIC = "#baserisk-cache"
_SCHEMA = "1"
_HEADER = ["pitcher_id", "class", "outs", "stratum", "numerator", "denominator"]
_INNINGS_CLASS = "innings"
# the six (class, outs) cells, by their text
_CELLS = {(cell.kind.value, str(cell.outs)): cell for cell in CELLS}
_LEVERAGE = {"hl": True, "other": False}
_UNSORTED = "repeats or sorts before the key of the row above"


class CacheError(ValueError):
    """A cache file that cannot be trusted: bad magic, schema, or rows."""


@dataclass
class StatsCache:
    table: TallyTable
    innings: InningCounts
    counting_mode: CountingMode
    fingerprint: str


def render_cache(cache: StatsCache) -> str:
    """The cache file's text.  Raises ``CacheError`` for a pitcher id that
    holds a line break, since the reader splits lines as ``str.splitlines``
    does and such an id would read back as another key or a short row."""
    pids = {key[0] for key in cache.table.cells}
    pids.update(key[0] for key in cache.innings.counts)
    # each id as csv.writer writes it: quoted, each quote doubled, where it
    # holds a comma or a quote
    fields = {}
    for pid in pids:
        # an id with no line break splits into itself, or nothing when empty
        if pid.splitlines() not in ([pid], []):
            raise CacheError(f"pitcher id {pid!r} holds a line break")
        fields[pid] = '"' + pid.replace('"', '""') + '"' if "," in pid or '"' in pid else pid
    rows = [(pid, kind.value, outs, f"{season}:{'hl' if lev else 'other'}", num, den)
            for (pid, kind, outs, season, lev), (num, den) in cache.table.cells.items()]
    rows += [(pid, _INNINGS_CLASS, 0, str(season), hl, total)
             for (pid, season), (hl, total) in cache.innings.counts.items()]
    # the keys are unique, so the counts never decide the order
    rows.sort()
    lines = [
        f"{_MAGIC} schema={_SCHEMA} counting_mode={cache.counting_mode.value} "
        f"fingerprint={cache.fingerprint}\n",
        ",".join(_HEADER) + "\n",
    ]
    lines += [f"{fields[pid]},{kind},{outs},{stratum},{num},{den}\n"
              for pid, kind, outs, stratum, num, den in rows]
    return "".join(lines)


def write_cache(path: str | Path, cache: StatsCache) -> None:
    """Write through a temp file beside ``path`` and rename it into place,
    so a failed write leaves any earlier cache untouched."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(render_cache(cache), encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _row_tail(
    class_name: str, outs: str, stratum: str, innings: InningCounts,
    sink: TallyTable | RateSummary,
) -> tuple[dict | None, tuple | None, int | None]:
    """Where a row with this (class, outs, stratum) text goes: the dict it
    fills and its key there after the pitcher id; or, for a situation row
    read into a ``RateSummary``, no dict and the slot the row adds into,
    None when it adds nowhere.  Raises ValueError for text the writer never
    writes."""
    if class_name == _INNINGS_CLASS:
        if outs != "0":
            raise ValueError("innings rows have outs 0")
        return innings.counts, (_as_written(stratum),), None
    cell = _CELLS.get((class_name, outs))
    if cell is None:
        raise ValueError(f"({class_name}, {outs}) is not a situation cell")
    season, _, leverage = stratum.partition(":")
    if leverage not in _LEVERAGE:
        raise ValueError("stratum must be <season>:hl or <season>:other")
    key = (*cell, _as_written(season), _LEVERAGE[leverage])
    if isinstance(sink, TallyTable):
        return sink.cells, key, None
    return None, None, sink.slot(*key)


def _as_written(text: str) -> int:
    """The integer ``text`` spells in the writer's form: ``str(int)``.
    Raises ValueError for any other spelling, such as ``03``, ``+3``,
    `` 3``, ``1_0`` or non-ASCII digits, all of which ``int`` accepts."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"{text!r} is not an integer in the form the writer writes")
    return value


class _Memo(dict):
    """text -> ``convert(text)``, computed on the first lookup of a key."""

    def __init__(self, convert) -> None:
        super().__init__()
        self.convert = convert

    def __missing__(self, key):
        value = self[key] = self.convert(key)
        return value


def read_cache(path: str | Path) -> StatsCache:
    """The whole cache: every row under its own key."""
    table = TallyTable()
    innings = InningCounts()
    mode, fingerprint = _read(path, innings, table)
    return StatsCache(table, innings, mode, fingerprint)


def read_summary(
    path: str | Path, years: tuple[int, int] | None = None
) -> tuple[RateSummary, InningCounts]:
    """What the reports read: the situation rows added straight into the
    rows of a ``RateSummary`` over ``years``, which holds a row for every
    pitcher with a situation row, and the innings rows.  The summary is
    whole once the last row is read.  The same rows are refused, with the
    same text, as by ``read_cache``."""
    summary = RateSummary(years=years)
    innings = InningCounts()
    _read(path, innings, summary)
    return summary, innings


def _read(
    path: str | Path, innings: InningCounts, sink: TallyTable | RateSummary
) -> tuple[CountingMode, str]:
    """Check every row of the cache at ``path`` and add it into ``innings``
    or ``sink``; return the manifest's counting mode and fingerprint."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CacheError(f"{path} is not UTF-8 text: {exc}") from exc
    lines = text.splitlines()
    # the first word is the magic itself, not a word that starts with it
    words = lines[0].split() if lines and lines[0].startswith(_MAGIC) else []
    if words[:1] != [_MAGIC]:
        raise CacheError(f"{path} is not a stats cache")
    manifest = dict(part.split("=", 1) for part in words[1:] if "=" in part)
    if manifest.get("schema") != _SCHEMA:
        raise CacheError(f"unsupported cache schema {manifest.get('schema')!r}")
    try:
        mode = CountingMode(manifest["counting_mode"])
    except (KeyError, ValueError) as exc:
        raise CacheError(f"bad counting mode in manifest: {exc}") from exc

    # no quote: a row's pitcher id ends at its first comma and its counts
    # follow its last two, as csv.reader would split them, and a read
    # takes a fifth less time.  Empty lines are skipped.
    body = filter(None, lines[2:])
    quoted = '"' in text
    rows = csv.reader(body) if quoted else body

    def tail_of(tail: str) -> tuple[dict | None, tuple | None, int | None]:
        # a tail of other than three fields, from a row of the wrong width
        # or a csv field that holds a comma, raises ValueError here, and
        # _refuse words it
        class_name, outs, stratum = tail.split(",")
        return _row_tail(class_name, outs, stratum, innings, sink)

    # a few hundred distinct "class,outs,stratum" tails and a few hundred
    # distinct count texts cover any number of rows, so each is checked
    # and converted once
    tails = _Memo(tail_of)
    counts = _Memo(_as_written)
    # the row above's pitcher id and tail; None stands above the first row,
    # whose id may be empty
    last = above = None
    try:
        header = next(csv.reader(lines[1:2]), None)
        if header != _HEADER:
            raise CacheError(f"unexpected cache header {header!r}")
        for row in rows:
            try:
                if quoted:
                    pid, class_name, outs, stratum, num, den = row
                    tail = f"{class_name},{outs},{stratum}"
                else:
                    pid, rest = row.split(",", 1)
                    tail, num, den = rest.rsplit(",", 2)
                store, key, slot = tails[tail]
                n, d = counts[num], counts[den]
                if not 0 <= n <= d:
                    raise ValueError("counts must be 0 <= numerator <= denominator")
                # the writer's rows sort strictly by (pid, class, outs,
                # stratum).  No class name is a prefix of another and outs
                # is one digit, so a valid tail's text sorts as those three
                # fields do, and the tails of one pitcher's rows compare as
                # their keys do
                if pid != last:
                    if last is not None and pid < last:
                        raise ValueError(_UNSORTED)
                    last, sums = pid, None
                elif tail <= above:
                    raise ValueError(_UNSORTED)
                above = tail
                if store is not None:
                    store[(pid,) + key] = [n, d]
                    continue
                if sums is None:
                    nums, dens = sums = sink.row(pid)
                if slot is not None:
                    nums[slot] += n
                    dens[slot] += d
            except ValueError as exc:
                _refuse(row if quoted else row.split(","), exc, innings, sink)
    except csv.Error as exc:
        raise CacheError(f"unreadable cache line: {exc}") from exc
    return mode, manifest.get("fingerprint", "")


def _refuse(
    row: list[str], exc: ValueError, innings: InningCounts, sink: TallyTable | RateSummary
) -> NoReturn:
    """Raise the ``CacheError`` for a body row, split into its fields, that
    the read refused with ``exc``.  It names the first check the row fails
    in the order width, tail, counts, key, as ``exc`` does for a row six
    fields wide whose tail holds no comma."""
    try:
        _, class_name, outs, stratum, _, _ = row
        _row_tail(class_name, outs, stratum, innings, sink)
    except ValueError as first:
        exc = first
    raise CacheError(f"bad cache row {row!r}: {exc}") from exc


def fingerprint_paths(digests: dict[str, str]) -> str:
    """Hash of the input files from each path's SHA-256 content digest,
    stable across directories and order."""
    import hashlib  # only ingest fingerprints, and OpenSSL is costly to load

    digest = hashlib.sha256()
    for name, content_hash in sorted((Path(p).name, h) for p, h in digests.items()):
        digest.update(f"{name}:{content_hash}\n".encode())
    return digest.hexdigest()[:16]


def load_era_csv(path: str | Path) -> dict[str, float]:
    """Read (pitcher_id, era) rows; a header line is allowed and skipped, and
    so is a row whose era is not a finite number.  A UTF-8 byte-order mark
    is not part of the first id."""
    eras: dict[str, float] = {}
    text = Path(path).read_text(encoding="utf-8-sig")
    for row in csv.reader(io.StringIO(text)):
        if len(row) < 2 or not row[0] or row[0] == "pitcher_id":
            continue
        try:
            era = float(row[1])
        except ValueError:
            continue
        if math.isfinite(era):
            eras[row[0]] = era
    return eras
