"""Columnar cache of ingested tallies, plus small metadata loaders.

The cache is a CSV of (pitcher_id, class, outs, stratum, numerator,
denominator) rows preceded by a manifest comment line recording the
counting mode and a fingerprint of the ingested inputs.  Situation rows
use a "<season>:<hl|other>" stratum so the two leverage strata stay
disjoint; per-pitcher appearance counts ride along as class "innings"
rows with numerator = high-leverage half-innings and denominator = all
half-innings.  Rows are written sorted, so equal tallies produce
byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
from dataclasses import dataclass
from pathlib import Path

from .stats import ClassKind, CountingMode, InningCounts, TallyTable

__all__ = [
    "CacheError",
    "StatsCache",
    "fingerprint_paths",
    "load_era_csv",
    "read_cache",
    "render_cache",
    "write_cache",
]

_MAGIC = "#baserisk-cache"
_SCHEMA = "1"
_HEADER = ["pitcher_id", "class", "outs", "stratum", "numerator", "denominator"]
_INNINGS_CLASS = "innings"


class CacheError(ValueError):
    """A cache file that cannot be trusted: bad magic, schema, or rows."""


@dataclass
class StatsCache:
    table: TallyTable
    innings: InningCounts
    counting_mode: CountingMode
    fingerprint: str


def render_cache(cache: StatsCache) -> str:
    out = io.StringIO()
    out.write(
        f"{_MAGIC} schema={_SCHEMA} counting_mode={cache.counting_mode.value} "
        f"fingerprint={cache.fingerprint}\n"
    )
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_HEADER)
    rows = []
    for (pid, kind, outs, season, lev), (num, den) in cache.table.cells.items():
        stratum = f"{season}:{'hl' if lev else 'other'}"
        rows.append((pid, kind.value, outs, stratum, num, den))
    for (pid, season), (hl, total) in cache.innings.counts.items():
        rows.append((pid, _INNINGS_CLASS, 0, str(season), hl, total))
    for row in sorted(rows, key=lambda r: (r[0], r[1], r[2], r[3])):
        writer.writerow(row)
    return out.getvalue()


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


def read_cache(path: str | Path) -> StatsCache:
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or not lines[0].startswith(_MAGIC):
        raise CacheError(f"{path} is not a stats cache")
    manifest = dict(
        part.split("=", 1) for part in lines[0].split()[1:] if "=" in part
    )
    if manifest.get("schema") != _SCHEMA:
        raise CacheError(f"unsupported cache schema {manifest.get('schema')!r}")
    try:
        mode = CountingMode(manifest["counting_mode"])
    except (KeyError, ValueError) as exc:
        raise CacheError(f"bad counting mode in manifest: {exc}") from exc

    kinds = {k.value: k for k in ClassKind}
    table = TallyTable()
    innings = InningCounts()
    reader = csv.reader(lines[1:])
    header = next(reader, None)
    if header != _HEADER:
        raise CacheError(f"unexpected cache header {header!r}")
    for row in reader:
        if not row:
            continue
        try:
            pid, class_name, outs, stratum, num, den = row
            n, d = int(num), int(den)
            if not 0 <= n <= d:
                raise ValueError("counts must be 0 <= numerator <= denominator")
            if class_name == _INNINGS_CLASS:
                innings.counts[(pid, int(stratum))] = [n, d]
                continue
            season, _, leverage = stratum.partition(":")
            key = (pid, kinds[class_name], int(outs), int(season), leverage == "hl")
            table.cells[key] = [n, d]
        except (KeyError, ValueError) as exc:
            raise CacheError(f"bad cache row {row!r}: {exc}") from exc
    return StatsCache(table, innings, mode, manifest.get("fingerprint", ""))


def fingerprint_paths(paths: list[str | Path]) -> str:
    """Content hash of the input files, stable across path spellings."""
    digest = hashlib.sha256()
    entries = []
    for path in paths:
        p = Path(path)
        entries.append((p.name, hashlib.sha256(p.read_bytes()).hexdigest()))
    for name, content_hash in sorted(entries):
        digest.update(f"{name}:{content_hash}\n".encode())
    return digest.hexdigest()[:16]


def load_era_csv(path: str | Path) -> dict[str, float]:
    """Read (pitcher_id, era) rows; a header line is allowed and skipped, and
    so is a row whose era is not a finite number."""
    eras: dict[str, float] = {}
    text = Path(path).read_text(encoding="utf-8")
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
