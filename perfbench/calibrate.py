"""Host-speed calibration loop.

The shared 2-core virtual machine this benchmark was built on changes
speed by up to 2x within a minute: identical ingests of one file took
0.59 s to 1.0 s back to back, and run medians of the same workload
differed by 14-31 % between runs.  The slow and fast phases last seconds,
so a fixed loop of the same kinds of interpreter work as the program,
timed right before and after each measured piece, sees the same phase.
The loop has two halves: parsing event-like lines into a tally dict (csv,
regex, tuple keys with enum members, small lists), and repeated filtered
scans of that dict, as the report queries do.  It starts from a collected
heap, as the measured rounds do.  Timings are reported scaled to the speed
at which this loop takes ``NOMINAL_S``:

    scaled = measured * NOMINAL_S / calibration

The loop is benchmark code and never changes with the program, so a change
to the program moves the scaled time by the same share as the wall time.
The correction is partial: across slow and fast phases the loop's time
moves more than the workloads' times do, which leaves run-to-run spreads
of 4-16 % where raw wall time gave 6-31 %.
"""

from __future__ import annotations

import csv
import gc
import re
import time
from enum import Enum

NOMINAL_S = 0.25
_PASSES = 4
_SCANS = 40


class _Kind(Enum):
    THIRD = "third"
    SECOND = "second"
    FIRST = "first"


_KINDS = tuple(_Kind)
_LINES = [
    f"play,{i % 9 + 1},{i & 1},p{i % 211:04d},{i % 4}{i % 3},BCX,"
    f"{'SDTK'[i % 4]}{i % 9 + 1}/{'GLF'[i % 3]}{i % 7}.{i % 3 + 1}-{'23H'[i % 3]};B-1"
    for i in range(6000)
]
_TOKEN_RE = re.compile(r"^([SDTK])(\d*)(?:/([GLF])(\d*))?$")
_ADVANCE_RE = re.compile(r"^([B123])([-X])([123H])$")


def calibrate() -> float:
    """Seconds the fixed loop takes now, from a collected heap."""
    gc.collect()
    start = time.perf_counter()
    for _ in range(_PASSES):
        table: dict[tuple[str, _Kind, int, int, bool], list[int]] = {}
        for n, line in enumerate(_LINES):
            row = next(csv.reader([line]))
            event, _, advances = row[6].partition(".")
            match = _TOKEN_RE.match(event)
            key = (row[3], _KINDS[n % 3], int(row[1]) % 3, 1984 + n % 28, match.group(1) == "K")
            cell = table.setdefault(key, [0, 0])
            cell[1] += 1
            moves = [_ADVANCE_RE.match(part).groups() for part in advances.split(";")]
            cell[0] += sum(1 for frm, _, to in moves if to > frm)
        for outs in range(_SCANS):
            wanted = {_Kind.THIRD: outs % 2, _Kind.SECOND: outs % 2, _Kind.FIRST: outs % 2 + 1}
            sums = {kind: [0, 0] for kind in wanted}
            for (pid, kind, cell_outs, season, lev), (num, den) in table.items():
                if wanted.get(kind) != cell_outs or pid[-1] == str(outs % 10):
                    continue
                sums[kind][0] += num
                sums[kind][1] += den
    return time.perf_counter() - start
