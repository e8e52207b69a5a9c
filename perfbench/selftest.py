"""Shows that the benchmark's output checks catch a single wrong input.

Run from the root of a baserisk checkout:

    python3 perfbench/selftest.py

For the season workload it ingests the generated file, requires the check
to pass, then changes one play token and requires the check to fail; it
does the same with one cell of the written cache.  For the query workload
it changes one cell of the synthetic cache and requires the report check
to fail.  Exits 0 when every mutation was caught.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import workloads  # noqa: E402
from baserisk import cli  # noqa: E402

WORK = ROOT / ".perfbench-work" / "selftest"


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def ingest_problems(inputs) -> list[str]:
    code, _, err = run(inputs.commands[0])
    if code != 0:
        return [f"ingest exited {code}"]
    return reference.check_ingest(inputs, [err.splitlines()[0]])


def change_one_token(path: Path) -> str:
    """Turn the first strikeout into a home run."""
    lines = path.read_text().splitlines()
    for n, line in enumerate(lines):
        if line.startswith("play,") and line.endswith(",K"):
            lines[n] = line[:-1] + "HR"
            path.write_text("\n".join(lines) + "\n")
            return f"line {n + 1}: K -> HR"
    raise RuntimeError("no strikeout in the generated file")


def change_one_cell(path: Path, wanted) -> str:
    """Move the numerator of the first cache row that ``wanted`` accepts by
    one, keeping it within its denominator."""
    lines = path.read_text().splitlines()
    for n, line in enumerate(lines[2:], start=2):
        row = line.split(",")
        if wanted(row):
            num, den = int(row[4]), int(row[5])
            row[4] = str(num + 1 if num < den else num - 1)
            lines[n] = ",".join(row)
            path.write_text("\n".join(lines) + "\n")
            return f"row {n + 1}: {line} -> {lines[n]}"
    raise RuntimeError("no cache row to change")


def query_problems(inputs) -> list[str]:
    outputs = {}
    for argv in inputs.commands:
        code, out, _ = run(argv)
        if code != 0:
            return [f"{argv[0]} exited {code}"]
        outputs[argv[0]] = out
    return reference.check_query(inputs.synthetic, outputs)


def expect(label: str, problems: list[str], caught: bool) -> bool:
    ok = bool(problems) == caught
    verdict = "caught" if problems else "passed"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: check {verdict}"
          + (f" ({problems[0]})" if problems else ""))
    return ok


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    results = []
    try:
        season = workloads.generate("season-ingest", 1, WORK / "season")
        results.append(expect("season, as generated", ingest_problems(season), False))
        cell = change_one_cell(season.cache_path, lambda row: row[1] != "innings")
        results.append(expect(f"season, cache {cell}",
                              reference.check_ingest(season, []), True))
        token = change_one_token(season.sim_files[0].path)
        results.append(expect(f"season, token {token}", ingest_problems(season), True))

        query = workloads.generate("query-reports", 1, WORK / "query")
        results.append(expect("query, as generated", query_problems(query), False))
        careers = reference.careers(query.synthetic)
        cell = change_one_cell(query.cache_path, lambda row: (
            row[1] == "third_occupied" and row[2] == "1" and row[3].endswith(":hl")
            and careers[row[0]] >= reference.TABLE3_MIN_HL))
        results.append(expect(f"query, cache {cell}", query_problems(query), True))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
