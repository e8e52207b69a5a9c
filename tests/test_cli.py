"""Command-line flows, exit codes, and report plumbing."""

import gc
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import baserisk
from baserisk import cli
from baserisk.cli import DataError, _unique_inputs, main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One simulated season ingested into a cache, shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    evn = root / "season.evn"
    cache = root / "stats.cache"
    assert main(["simulate", "-o", str(evn), "--games", "120", "--seed", "17"]) == 0
    assert main(["ingest", "-i", str(evn), "--cache", str(cache)]) == 0
    return {"root": root, "evn": evn, "cache": cache}


def test_no_command_is_usage_error(capsys):
    assert main([]) == 1
    assert "Usage" in capsys.readouterr().err


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_simulate_writes_parseable_file(tmp_path, capsys):
    out = tmp_path / "mini.evn"
    assert main(["simulate", "-o", str(out), "--games", "3", "--seed", "1"]) == 0
    assert "wrote 3 games" in capsys.readouterr().err
    text = out.read_text()
    assert text.startswith("id,HOM2000")
    assert text.count("id,") == 3


def test_simulate_rejects_nonpositive_games(tmp_path):
    out = tmp_path / "none.evn"
    assert main(["simulate", "-o", str(out), "--games", "0"]) == 1
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["--season", "0"],
    ["--season", "-5"],
    ["--season", "99999"],
    ["--season", "9999", "--games", "3000"],
    ["--season", "2000", "--games", "2751"],
], ids=["season-0", "season-negative", "season-99999", "past-year-9999", "season-overfull"])
def test_simulate_refuses_dates_it_cannot_write(tmp_path, capsys, args):
    """Games are dated ten a day from April 1, so a season holds 2,750 of
    them, and a year must lie in 1-9999; anything else is a usage error
    before any file is written."""
    out = tmp_path / "none.evn"
    assert main(["simulate", "-o", str(out), *args]) == 1
    assert "Error: Invalid value for '--" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_fills_the_season_to_december_31(tmp_path):
    out = tmp_path / "full.evn"
    assert main(["simulate", "-o", str(out), "--season", "9999", "--games", "2750"]) == 0
    dates = [line for line in out.read_text().splitlines() if line.startswith("info,date,")]
    assert len(dates) == 2750
    assert dates[-1] == "info,date,9999/12/31"


def test_simulate_bad_model_file(tmp_path, capsys):
    model = tmp_path / "broken.model"
    model.write_text("out = 0.5\n")  # does not sum to one
    out = tmp_path / "x.evn"
    assert main(["simulate", "-o", str(out), "--model", str(model)]) == 2
    assert "error:" in capsys.readouterr().err


def test_ingest_reports_summary(workspace, capsys):
    other = workspace["root"] / "again.cache"
    assert main(["ingest", "-i", str(workspace["evn"]), "--cache", str(other)]) == 0
    err = capsys.readouterr().err
    assert err.startswith("games=120 skipped=0 half_innings=2160 ")
    assert "quarantined=0" in err and "incomplete=0" in err
    assert other.read_text() == workspace["cache"].read_text()


def test_ingest_cache_manifest(workspace):
    head = workspace["cache"].read_text().splitlines()[0]
    assert head.startswith("#baserisk-cache schema=1 counting_mode=include ")
    assert "fingerprint=" in head


def test_ingest_counting_mode_recorded(workspace):
    path = workspace["root"] / "exclude.cache"
    args = ["ingest", "-i", str(workspace["evn"]), "--cache", str(path),
            "--counting-mode", "exclude"]
    assert main(args) == 0
    assert "counting_mode=exclude" in path.read_text().splitlines()[0]


def test_ingest_year_filter_can_empty(workspace, capsys):
    path = workspace["root"] / "never.cache"
    args = ["ingest", "-i", str(workspace["evn"]), "--cache", str(path),
            "--years", "1990"]
    assert main(args) == 2
    assert "no usable games" in capsys.readouterr().err
    assert not path.exists()


def test_ingest_year_filter_drops_damage_outside_window(tmp_path, capsys):
    """Games outside --years are dropped before they are built, so their
    damage is neither skipped nor diagnosed."""
    season, old = tmp_path / "s1996.evn", tmp_path / "s1990.evn"
    for path, year in ((season, "1996"), (old, "1990")):
        args = ["simulate", "-o", str(path), "--games", "10", "--seed", "5",
                "--season", year]
        assert main(args) == 0
    capsys.readouterr()
    lines = [line for line in old.read_text().splitlines()
             if not line.startswith("info,date")]
    ids = [i for i, line in enumerate(lines) if line.startswith("id,")]
    old.write_text("\n".join(lines[:ids[2]] + ["bogus,record"]) + "\n")
    alone, both = tmp_path / "alone.cache", tmp_path / "both.cache"
    assert main(["ingest", "-i", str(season), "--cache", str(alone)]) == 0
    summary = capsys.readouterr().err
    args = ["ingest", "-i", str(season), "-i", str(old), "--cache", str(both),
            "--years", "1996-1996"]
    assert main(args) == 0
    assert capsys.readouterr().err == summary
    assert summary.startswith("games=10 skipped=0 ")
    assert "\n  " not in summary
    # the two caches differ only in the fingerprint of their inputs
    assert both.read_text().splitlines()[1:] == alone.read_text().splitlines()[1:]


def test_ingest_counts_a_repeated_input_once(workspace, capsys, monkeypatch):
    monkeypatch.chdir(workspace["root"])
    once = workspace["root"] / "once.cache"
    assert main(["ingest", "-i", "season.evn", "--cache", str(once)]) == 0
    summary = capsys.readouterr().err
    thrice = workspace["root"] / "thrice.cache"
    args = ["ingest", "-i", "season.evn", "-i", "./season.evn",
            "-i", str(workspace["evn"]), "--cache", str(thrice)]
    assert main(args) == 0
    assert capsys.readouterr().err == summary
    assert thrice.read_text() == once.read_text()


def test_ingest_counts_a_hard_link_once(workspace, tmp_path, capsys):
    """A hard link is the same file under a second name, not a copy."""
    link = tmp_path / "link.evn"
    os.link(workspace["evn"], link)
    once, twice = tmp_path / "once.cache", tmp_path / "twice.cache"
    assert main(["ingest", "-i", str(workspace["evn"]), "--cache", str(once)]) == 0
    summary = capsys.readouterr().err
    args = ["ingest", "-i", str(workspace["evn"]), "-i", str(link), "--cache", str(twice)]
    assert main(args) == 0
    assert capsys.readouterr().err == summary
    assert twice.read_text() == once.read_text()


def test_unique_inputs_reports_a_path_it_cannot_stat(tmp_path):
    with pytest.raises(DataError, match="^cannot read input: "):
        _unique_inputs((str(tmp_path / "ghost.evn"),))


def test_ingest_fingerprints_the_bytes_it_ingested(workspace, tmp_path, monkeypatch):
    """An input rewritten after it was read does not change the manifest:
    the fingerprint hashes the bytes that were tallied."""
    evn = tmp_path / "season.evn"
    data = workspace["evn"].read_bytes()
    evn.write_bytes(data)
    ingest_paths = cli.ingest_paths

    def ingest_then_rewrite(*args, **kwargs):
        result = ingest_paths(*args, **kwargs)
        evn.write_bytes(data + b"com,\"rewritten\"\n")
        return result

    monkeypatch.setattr(cli, "ingest_paths", ingest_then_rewrite)
    cache = tmp_path / "stats.cache"
    assert main(["ingest", "-i", str(evn), "--cache", str(cache)]) == 0
    entry = f"season.evn:{hashlib.sha256(data).hexdigest()}\n"
    expected = hashlib.sha256(entry.encode()).hexdigest()[:16]
    assert f"fingerprint={expected}" in cache.read_text().splitlines()[0]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_ingest_refuses_a_byte_copy(workspace, tmp_path, capsys, jobs):
    """A copy under another name holds the same games, so counting it too
    would double every tally."""
    copy = tmp_path / "copy.evn"
    copy.write_bytes(workspace["evn"].read_bytes())
    cache = tmp_path / "stats.cache"
    args = ["ingest", "-i", str(workspace["evn"]), "-i", str(copy),
            "--cache", str(cache), "--jobs", jobs]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: game HOM200004010 is in both ")
    assert str(workspace["evn"]) in err and str(copy) in err
    assert not cache.exists()


def test_ingest_refuses_a_game_repeated_in_one_file(workspace, tmp_path, capsys):
    """A file holding its own games twice, as ``cat s.evn s.evn`` makes,
    would double every tally too."""
    doubled = tmp_path / "dbl.evn"
    doubled.write_bytes(workspace["evn"].read_bytes() * 2)
    cache = tmp_path / "stats.cache"
    args = ["ingest", "-i", str(doubled), "--cache", str(cache)]
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: game HOM200004010 is twice in {doubled}\n"
    assert not cache.exists()


@pytest.mark.parametrize("command", ["ingest", "query"])
def test_ingest_and_query_name_the_same_repeated_game(tmp_path, capsys, command):
    """b.evn holds a.evn's first game, then another game twice.  Ingest and
    query read their inputs by one rule, so both name the first repeat they
    meet: the game that a.evn holds too."""
    a, b = tmp_path / "a.evn", tmp_path / "b.evn"
    assert main(["simulate", "-o", str(a), "--games", "2", "--seed", "3"]) == 0
    assert main(["simulate", "-o", str(b), "--games", "1", "--seed", "4",
                 "--season", "2001"]) == 0
    first = a.read_text().split("id,")[1]
    other = b.read_text()
    b.write_text("id," + first + other + other)
    args = [command, "-i", str(a), "-i", str(b)]
    args += ["--cache", str(tmp_path / "stats.cache")] if command == "ingest" else []
    capsys.readouterr()
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: game HOM200004010 is in both {a} and {b}\n"


def test_ingest_missing_input(tmp_path):
    args = ["ingest", "-i", str(tmp_path / "ghost.evn"),
            "--cache", str(tmp_path / "c")]
    assert main(args) == 1


@pytest.mark.parametrize("target,reason", [
    ("no-such-dir/stats.cache", "No such file or directory"),
    ("a-directory", "Is a directory"),
])
def test_ingest_cache_path_it_cannot_write(workspace, tmp_path, capsys, target, reason):
    """The error names the path given, not the temp file written beside it,
    and the temp file is gone."""
    (tmp_path / "a-directory").mkdir()
    cache = tmp_path / target
    assert main(["ingest", "-i", str(workspace["evn"]), "--cache", str(cache)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write cache {cache}: {reason}\n"
    assert captured.out == ""
    assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]


@pytest.mark.parametrize("spelling", ["same", "dot", "hard-link"])
def test_ingest_refuses_a_cache_that_is_an_input(workspace, tmp_path, capsys, spelling):
    """A cache path that names one of the inputs, however spelled, is
    refused before anything is read or written: the input keeps its bytes."""
    evn = tmp_path / "season.evn"
    data = workspace["evn"].read_bytes()
    evn.write_bytes(data)
    cache = {"same": str(evn), "dot": f"{tmp_path}/./season.evn",
             "hard-link": str(tmp_path / "link.evn")}[spelling]
    if spelling == "hard-link":
        os.link(evn, cache)
    assert main(["ingest", "-i", str(evn), "--cache", cache]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cache {cache} would replace the input file {evn}\n"
    assert captured.out == ""
    assert evn.read_bytes() == data
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        {"season.evn", Path(cache).name})


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this baserisk, run to its end."""
    src = str(Path(baserisk.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=60)


def test_python_m_runs_the_cli():
    done = run_python("-m", "baserisk", "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("Usage: python -m baserisk ")
    assert "ingest" in done.stdout and "table3" in done.stdout


IMPORT_CHECK = """
import sys
before = set(sys.modules)
from baserisk import cli
late = ["baserisk.oracle", "concurrent.futures.process", "multiprocessing",
        "hashlib", "statistics"]
print(*[name for name in late if name in sys.modules and name not in before])
code = cli.main(["ingest", "-i", sys.argv[1], "--cache", sys.argv[2], "--jobs", "1"])
print(code, "multiprocessing" in sys.modules and "multiprocessing" not in before)
"""


def test_import_defers_what_only_some_commands_use(workspace, tmp_path):
    """A fresh import of the CLI loads neither the simulator, the process
    pool, hashing nor statistics; ingest at --jobs 1 still starts no pool."""
    done = run_python("-c", IMPORT_CHECK, str(workspace["evn"]),
                      str(tmp_path / "stats.cache"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["", "0 False"]


# --- inputs that cannot be read are data errors, not tracebacks -------------


def unreadable(root: Path, kind: str) -> Path:
    """A directory, or a file that is not UTF-8 text."""
    path = root / f"unreadable-{kind}"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"hpit0001,2.50\nrivera\xe9,1.00\n")
    return path


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_ingest_input_is_a_directory(workspace, tmp_path, capsys, jobs):
    cache = tmp_path / "stats.cache"
    folder = unreadable(tmp_path, "directory")
    args = ["ingest", "-i", str(workspace["evn"]), "-i", str(folder),
            "--cache", str(cache), "--jobs", jobs]
    assert main(args) == 2
    assert "error: cannot read input:" in capsys.readouterr().err
    assert not cache.exists()


@pytest.mark.parametrize("kind,message", [
    ("latin1", "is not UTF-8 text"), ("directory", "cannot read era file")])
def test_table3_era_unreadable(workspace, tmp_path, capsys, kind, message):
    args = ["table3", "--cache", str(workspace["cache"]), "--min-appearances", "50",
            "--era", str(unreadable(tmp_path, kind))]
    assert main(args) == 2
    assert message in capsys.readouterr().err


def test_table3_roster_is_a_directory(workspace, tmp_path, capsys):
    args = ["table3", "--cache", str(workspace["cache"]), "--min-appearances", "50",
            "--roster", str(unreadable(tmp_path, "directory"))]
    assert main(args) == 2
    assert "cannot read roster" in capsys.readouterr().err


@pytest.mark.parametrize("kind,message", [
    ("latin1", "is not UTF-8 text"), ("directory", "cannot read leaders file")])
def test_table2_save_leaders_unreadable(workspace, tmp_path, capsys, kind, message):
    args = ["table2", "--cache", str(workspace["cache"]), "--boundaries", "50",
            "--save-leaders", str(unreadable(tmp_path, kind))]
    assert main(args) == 2
    assert message in capsys.readouterr().err


# --- a UTF-8 byte-order mark is not part of the first id or key -------------

BOM = "\ufeff"


def test_table3_era_file_with_a_byte_order_mark(workspace, tmp_path, capsys):
    era = tmp_path / "era.csv"
    era.write_text(BOM + "hpit0001,2.50\n", encoding="utf-8")
    args = ["table3", "--cache", str(workspace["cache"]), "--min-appearances", "50",
            "--era", str(era), "--format", "csv"]
    assert main(args) == 0
    homer = next(line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("hpit0001"))
    assert homer.endswith(",2.500")


def test_table2_leaders_file_with_a_byte_order_mark(workspace, tmp_path, capsys):
    """The marked file's first id still counts in the leaders row."""
    outputs = []
    for mark in ("", BOM):
        leaders = tmp_path / "leaders.txt"
        leaders.write_text(mark + "hpit0001\nvpit0001\n", encoding="utf-8")
        args = ["table2", "--cache", str(workspace["cache"]), "--boundaries", "50",
                "--save-leaders", str(leaders)]
        assert main(args) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[1] == outputs[0]
    assert [line.split()[2] for line in outputs[0].splitlines()
            if "leaders" in line] == ["2", "2"]


def test_config_file_with_a_byte_order_mark(workspace, tmp_path, capsys):
    cfg = tmp_path / "marked.cfg"
    cfg.write_text(BOM + f"table1.format = csv\ntable1.cache = {workspace['cache']}\n",
                   encoding="utf-8")
    assert main(["--config", str(cfg), "table1"]) == 0
    assert capsys.readouterr().out.startswith("stat,all/1 out")


@pytest.mark.parametrize("kind,message", [
    ("latin1", "is not UTF-8 text"), ("directory", "cannot read model")])
def test_simulate_model_unreadable(tmp_path, capsys, kind, message):
    out = tmp_path / "season.evn"
    args = ["simulate", "-o", str(out), "--model", str(unreadable(tmp_path, kind))]
    assert main(args) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_simulate_into_missing_directory(tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "season.evn"
    assert main(["simulate", "-o", str(out), "--games", "2"]) == 2
    assert "error: cannot write event file" in capsys.readouterr().err


def test_table1_text(workspace, capsys):
    assert main(["table1", "--cache", str(workspace["cache"])]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].split()[0] == "stat"
    assert "late close/1 out" in lines[0]
    assert lines[4].split()[0] == "threshold"
    # deterministic: a second render is byte-identical
    assert main(["table1", "--cache", str(workspace["cache"])]) == 0
    assert capsys.readouterr().out == out


def test_table1_csv(workspace, capsys):
    args = ["table1", "--cache", str(workspace["cache"]), "--format", "csv"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert out.startswith("stat,all/1 out,all/0 outs,late close/1 out")


def test_table1_missing_cache(tmp_path, capsys):
    assert main(["table1", "--cache", str(tmp_path / "nope.cache")]) == 2
    assert "cache not found" in capsys.readouterr().err


def test_table2_bad_boundaries_before_the_cache(tmp_path, capsys):
    """A bad --boundaries list is a usage error at parse time, before the
    cache is looked for."""
    assert main(["table2", "--cache", str(tmp_path / "missing"),
                 "--boundaries", "1,x"]) == 1
    err = capsys.readouterr().err
    assert "Error: bad boundaries: '1,x'" in err
    assert "cache not found" not in err


def test_table1_unreadable_cache(tmp_path, capsys):
    bad = tmp_path / "junk.cache"
    bad.write_text("not a cache\n")
    assert main(["table1", "--cache", str(bad)]) == 2


def test_table1_cache_not_utf8(workspace, tmp_path, capsys):
    bad = tmp_path / "latin1.cache"
    bad.write_bytes(workspace["cache"].read_bytes().replace(b"hpit0001", b"hpit\xe90001"))
    assert main(["table1", "--cache", str(bad)]) == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_table1_cache_is_a_directory(tmp_path, capsys):
    assert main(["table1", "--cache", str(tmp_path)]) == 2
    assert "cannot read cache" in capsys.readouterr().err


def test_decide_cache_not_permitted(workspace, capsys, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", refuse)
    args = ["decide", "0.3", "--cache", str(workspace["cache"])]
    assert main(args) == 2
    assert "Permission denied" in capsys.readouterr().err


@pytest.mark.parametrize("row", [
    "hpit0001,third_occupied,1,2000:hl,33,20",  # more scored than chances
    "hpit0001,third_occupied,1,2000:other,-1,20",
    "hpit0001,innings,0,2000,90,80",  # more high-leverage innings than innings
])
def test_table1_refuses_impossible_counts(workspace, tmp_path, capsys, row):
    lines = workspace["cache"].read_text().splitlines()
    bad = tmp_path / "impossible.cache"
    bad.write_text("\n".join([*lines[:2], row, *lines[2:]]) + "\n")
    assert main(["table1", "--cache", str(bad)]) == 2
    assert "numerator <= denominator" in capsys.readouterr().err


def test_table1_backward_years(workspace):
    args = ["table1", "--cache", str(workspace["cache"]), "--years", "1990-1980"]
    assert main(args) == 1


def test_table2_custom_boundaries_and_leaders(workspace, capsys):
    leaders = workspace["root"] / "leaders.txt"
    leaders.write_text("vpit0001\nhpit0001\n")
    args = ["table2", "--cache", str(workspace["cache"]),
            "--boundaries", "50", "--save-leaders", str(leaders)]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split()[0] == "outs"
    assert "50+" in out
    assert "leaders" in out
    # both simulated pitchers land in the 50+ bucket at both out counts
    assert [line.split()[2] for line in out.splitlines()
            if "50+" in line] == ["2", "2"]


def test_table2_default_boundaries_all_empty(workspace, capsys):
    # synthetic careers stay under 100 high-leverage half-innings
    assert main(["table2", "--cache", str(workspace["cache"])]) == 2
    assert "error:" in capsys.readouterr().err


def test_table2_refuses_an_empty_leaders_file(workspace, tmp_path, capsys):
    """A leaders file of blank lines names no pitcher, so the table is not
    printed without its leaders row."""
    leaders = tmp_path / "blank.txt"
    leaders.write_text("\n   \n\n")
    args = ["table2", "--cache", str(workspace["cache"]), "--boundaries", "50",
            "--save-leaders", str(leaders)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: empty pitcher list\n"
    assert captured.out == ""


def test_table3_names_and_blank_era(workspace, capsys):
    era = workspace["root"] / "era.csv"
    era.write_text("pitcher_id,era\nhpit0001,2.50\n")
    roster = workspace["root"] / "team.ros"
    roster.write_text(
        "vpit0001,Visitor,Vic,R,R,VIS,P\nhpit0001,Homer,Hank,R,R,HOM,P\n"
    )
    args = ["table3", "--cache", str(workspace["cache"]),
            "--min-appearances", "50", "--era", str(era),
            "--roster", str(roster), "--format", "csv"]
    assert main(args) == 0
    out = capsys.readouterr().out
    homer = next(line for line in out.splitlines() if line.startswith("Homer"))
    visitor = next(line for line in out.splitlines() if line.startswith("Visitor"))
    assert homer.endswith(",2.500")
    assert visitor.endswith(",")  # no ERA on file
    assert out.splitlines()[-1].startswith("mean,")


def test_table3_skips_non_finite_era(workspace, capsys):
    era = workspace["root"] / "nan-era.csv"
    era.write_text("hpit0001,nan\nvpit0001,3.00\n")
    args = ["table3", "--cache", str(workspace["cache"]),
            "--min-appearances", "50", "--era", str(era), "--format", "csv"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "nan" not in out
    assert out.splitlines()[-1].endswith(",3.000")


def test_table3_bar_too_high(workspace, capsys):
    assert main(["table3", "--cache", str(workspace["cache"])]) == 2
    assert "350" in capsys.readouterr().err


def test_decide_with_direct_rates(capsys):
    assert main(["decide", "0.5", "--tsf", "0.6", "0.4", "0.1"]) == 0
    assert capsys.readouterr().out == \
        "threshold=0.333333 p=0.500000 -> aggressive\n"
    assert main(["decide", "0.2", "--tsf", "0.6", "0.4", "0.1"]) == 0
    assert capsys.readouterr().out.endswith("-> conventional\n")
    assert main(["decide", "0.5", "--tsf", "0.5", "0.25", "0.25"]) == 0
    assert capsys.readouterr().out.endswith("-> indifferent\n")


def test_decide_clamped(capsys):
    assert main(["decide", "0.99", "--tsf", "0.3", "0.5", "0.1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("threshold=1.000000 (clamped)")
    assert out.endswith("-> conventional\n")


@pytest.mark.parametrize("argv", [
    ["decide", "nan", "--tsf", "0.5", "0.4", "0.1"],
    ["decide", "0.5", "--tsf", "nan", "0.4", "0.1"],
    ["decide", "0.5", "--tsf", "0.5", "NaN", "0.1"],
    ["decide", "0.5", "--tsf", "0.5", "0.4", "nan"],
], ids=["p", "t", "s", "f"])
def test_decide_refuses_nan(capsys, argv):
    """NaN is no probability: it is refused as a usage error, as inf is."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nan is not in the range 0.0<=x<=1.0." in captured.err


def test_decide_usage_errors(workspace):
    assert main(["decide", "1.5", "--tsf", "0.6", "0.4", "0.1"]) == 1
    assert main(["decide", "0.5"]) == 1  # neither --tsf nor --cache


@pytest.mark.parametrize("extra,config", [
    (["--cache", "/nonexistent.csv"], None),
    (["--pitcher", "nobody"], None),
    (["--years", "1990-1991"], None),
    ([], "decide.cache = /nonexistent.csv"),
    ([], "decide.years = 1990"),
    (["--outs", "1"], None),
    (["--leverage"], None),
    (["--all-innings"], None),
    ([], "decide.outs = 0"),
    ([], "decide.leverage = false"),
], ids=["cache", "pitcher", "years", "config-cache", "config-years",
        "outs", "leverage", "all-innings", "config-outs", "config-leverage"])
def test_decide_tsf_refuses_cache_side_options(tmp_path, capsys, extra, config):
    """Rates given directly leave nothing for a cache, pitcher, season
    range, out count or leverage stratum to select, so such an option is
    refused, not ignored, even when it repeats the default."""
    argv = ["decide", "0.5", "--tsf", "0.6", "0.4", "0.1", *extra]
    if config is not None:
        cfg = tmp_path / "decide.cfg"
        cfg.write_text(config + "\n")
        argv = ["--config", str(cfg), *argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tsf takes no --cache, --pitcher or --years" in captured.err


@pytest.mark.parametrize("args", [
    ["decide", "0.5", "--outs", "2"],
    ["decide", "0.5", "--tsf", "0.5", "0.4", "1.5"],
    ["table2", "--outs", "3"],
    ["table2", "--boundaries", "5,1"],
    ["table2", "--boundaries", "100,100"],
    ["table3", "--outs", "2"],
    ["table2", "--boundaries", ""],
    ["table2", "--boundaries=-5,100"],
    ["ingest", "-i", "EVN", "--jobs", "0"],
    ["query", "-i", "EVN", "--outs", "7"],
])
def test_out_of_range_options_are_usage_errors(workspace, args):
    args = [str(workspace["evn"]) if a == "EVN" else a for a in args]
    if args[0] != "query":  # query reads event files and takes no --cache
        args += ["--cache", str(workspace["cache"])]
    assert main(args) == 1


def test_decide_from_cache(workspace, capsys):
    args = ["decide", "0.9", "--cache", str(workspace["cache"]),
            "--pitcher", "vpit0001", "--outs", "1"]
    assert main(args) == 0
    assert " -> " in capsys.readouterr().out


def test_decide_from_cache_all_innings(workspace, capsys):
    args = ["decide", "0.5", "--cache", str(workspace["cache"]), "--all-innings"]
    assert main(args) == 0
    assert capsys.readouterr().out.startswith("threshold=")


def test_query_lists_observations(workspace, capsys):
    args = ["query", "-i", str(workspace["evn"]),
            "--situation", "third", "--outs", "1"]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "n=322 scored=184 rate=0.571429"
    assert len(lines) == 323
    assert lines[0].startswith("HOM2000")
    assert "class=third_occupied outs=1 " in lines[0]


def test_query_leverage_narrows(workspace, capsys):
    base = ["query", "-i", str(workspace["evn"]), "--situation", "third",
            "--outs", "1"]
    assert main(base + ["--leverage"]) == 0
    n_hl = len(capsys.readouterr().out.splitlines()) - 1
    assert n_hl == 13  # matches the high-leverage stratum of the cache


def test_query_counts_a_repeated_input_once(workspace, capsys, monkeypatch):
    monkeypatch.chdir(workspace["root"])
    assert main(["query", "-i", "season.evn", "--situation", "third"]) == 0
    once = capsys.readouterr().out
    args = ["query", "-i", "season.evn", "-i", "./season.evn",
            "-i", str(workspace["evn"]), "--situation", "third"]
    assert main(args) == 0
    assert capsys.readouterr().out == once


def test_query_refuses_a_byte_copy(workspace, tmp_path, capsys):
    copy = tmp_path / "copy.evn"
    copy.write_bytes(workspace["evn"].read_bytes())
    args = ["query", "-i", str(workspace["evn"]), "-i", str(copy), "--situation", "third"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: game HOM200004010 is in both ")
    assert str(workspace["evn"]) in captured.err and str(copy) in captured.err
    assert not any(line.startswith("n=") for line in captured.out.splitlines())


def test_query_refusal_prints_no_observation(workspace, tmp_path, capsys):
    """Lines wait until every input is read, so a refused input leaves
    stdout empty rather than a plausible list."""
    copy = tmp_path / "copy.evn"
    copy.write_bytes(workspace["evn"].read_bytes())
    for second in (copy, unreadable(tmp_path, "directory")):
        assert main(["query", "-i", str(workspace["evn"]), "-i", str(second)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""


def test_query_input_is_a_directory(workspace, tmp_path, capsys):
    args = ["query", "-i", str(workspace["evn"]),
            "-i", str(unreadable(tmp_path, "directory"))]
    assert main(args) == 2
    assert "error: cannot read input:" in capsys.readouterr().err


def test_query_without_matches(workspace, capsys):
    args = ["query", "-i", str(workspace["evn"]), "--pitcher", "nobody99"]
    assert main(args) == 2
    assert "no matching observations" in capsys.readouterr().err


def test_config_supplies_defaults(workspace, capsys):
    cfg = workspace["root"] / "defaults.cfg"
    cfg.write_text(
        "# report format defaults\n"
        "table1.format = csv\n"
        f"table1.cache = {workspace['cache']}\n"
    )
    assert main(["--config", str(cfg), "table1"]) == 0
    assert capsys.readouterr().out.startswith("stat,all/1 out")


def test_config_rejects_garbage(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a key value pair\n")
    assert main(["--config", str(cfg), "table1", "--cache", "x"]) == 2
    assert "bad config line" in capsys.readouterr().err


def test_config_not_utf8(tmp_path, capsys):
    cfg = unreadable(tmp_path, "latin1")
    assert main(["--config", str(cfg), "table1", "--cache", "x"]) == 2
    assert "is not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("line,argv,fix", [
    ("format = csv", ["table1"], None),
    ("tabel1.format = csv", ["table1"], None),
    ("table1.fromat = csv", ["table1"], None),
    ("ingest.input = EVN", ["ingest", "--cache", "OUT"], None),
    ("query.input = EVN", ["query"], None),
    ("table2.outs = 0", ["table2", "--boundaries", "0"], None),
    ("table3.roster = EVN", ["table3", "--min-appearances", "0"], None),
    ("decide.all-innings = true", ["decide", "0.5", "--tsf", "0.6", "0.4", "0.1"],
     "write decide.leverage = false"),
    ("query.all_innings = true", ["query", "-i", "EVN"], "write query.leverage = false"),
], ids=["undotted", "unknown-command", "unknown-option", "repeatable-ingest-input",
        "repeatable-query-input", "repeatable-table2-outs",
        "repeatable-table3-roster", "off-switch-decide", "off-switch-query"])
def test_config_refuses_key_it_cannot_apply(workspace, tmp_path, capsys, line, argv, fix):
    cfg = tmp_path / "keys.cfg"
    cfg.write_text(line.replace("EVN", str(workspace["evn"])) + "\n")
    paths = {"EVN": str(workspace["evn"]), "OUT": str(tmp_path / "out.cache")}
    argv = [paths.get(a, a) for a in argv]
    if argv[0].startswith("table"):
        argv += ["--cache", str(workspace["cache"])]
    assert main(["--config", str(cfg)] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: config key ")
    assert repr(line.split(" =")[0]) in captured.err
    if fix is not None:
        assert captured.err.rstrip().endswith(fix)


# --- report outputs pinned on a synthetic many-pitcher cache ----------------


@pytest.fixture(scope="module")
def report_cache(tmp_path_factory):
    """A seeded cache of 60 pitchers over 1980-2009 with uneven careers.

    Every seventh pitcher lacks the high-leverage first-only cell at two
    outs and every ninth the one at one out, so buckets and table3 drop
    them at the matching out count.  One pitcher has tallies but no
    innings rows and one has innings rows but no tallies.
    """
    import random

    from baserisk.cache import StatsCache, write_cache
    from baserisk.stats import ClassKind, CountingMode, InningCounts, TallyTable

    rng = random.Random(3)
    # (class, outs, chance of scoring), so most thresholds are not clamped
    cells = (
        (ClassKind.THIRD_OCCUPIED, 0, 0.8), (ClassKind.THIRD_OCCUPIED, 1, 0.65),
        (ClassKind.SECOND_NO_THIRD, 0, 0.6), (ClassKind.SECOND_NO_THIRD, 1, 0.4),
        (ClassKind.FIRST_ONLY, 1, 0.27), (ClassKind.FIRST_ONLY, 2, 0.12),
    )
    table, innings = TallyTable(), InningCounts()
    for n in range(60):
        pid = f"p{n:03d}"
        length = rng.randint(2, 12)
        start = rng.randint(1980, 2010 - length)
        for season in range(start, start + length):
            if n != 58:
                hl = rng.randint(0, 70)
                innings.counts[(pid, season)] = [hl, hl + rng.randint(10, 60)]
            if n == 59:
                continue
            for kind, outs, chance in cells:
                for lev in (True, False):
                    if lev and kind is ClassKind.FIRST_ONLY and (
                        (outs == 2 and n % 7 == 3) or (outs == 1 and n % 9 == 4)
                    ):
                        continue
                    den = rng.randint(1, 8) if lev else rng.randint(5, 40)
                    scored = sum(rng.random() < chance for _ in range(den))
                    table.cells[(pid, kind, outs, season, lev)] = [scored, den]
    root = tmp_path_factory.mktemp("reports")
    path = root / "many.cache"
    write_cache(path, StatsCache(table, innings, CountingMode.INCLUDE_PLAY,
                                 "synthetic"))
    leaders = root / "leaders.txt"
    leaders.write_text("p010\np003\nghost01\np010\np041\n")
    return {"cache": str(path), "leaders": str(leaders)}


# SHA-256 of stdout, recorded before the reports were rebuilt on one pass
# over the tally store per question; any change to the output shows here.
# The two --save-leaders digests were recorded again when the leaders row
# began to count an id listed twice (p010 in the fixture) once; only the
# leaders rows changed.
PINNED_REPORTS = [
    (["table1"], 0,
     "1ae55ebbac6de9f80bdc5d4ee6bedf7cb75b903528b945ae178415f26d86578d"),
    (["table1", "--format", "csv"], 0,
     "1aa3ca2333f00afd3bb4dc74eedc60f8a43af2f8130b9dd1b67ca54cc876f015"),
    (["table2"], 0,
     "6d36f5d9f773f0fbfb2bd23c6e22ca6890d7297228acc2052d395d170c9ba627"),
    (["table2", "--format", "csv"], 0,
     "50599ba9a91593062d04b6105029a2a35c67b5069bc89a7093b6cc69c1dde14e"),
    (["table3"], 0,
     "912f50eb9cbfd0344a963d7cca17aa7470cd83fb5faf092e3219ce7f97dd5ab6"),
    (["table3", "--format", "csv"], 0,
     "1f7745f0bac8bcec724620fbb3600afe3f3b57873024a5fd8d08e4d68f625dfc"),
    (["table2", "--cohort-min-season", "1995", "--years", "1985-2004",
      "--save-leaders", "LEADERS"], 0,
     "2b6aa7982d100ca67d67a99980ba699ac1c0e751f8e7b2ef46fe6174fb302639"),
    (["table2", "--boundaries", "0,50,400", "--outs", "0",
      "--save-leaders", "LEADERS", "--format", "csv"], 0,
     "e98d5a6b0e33f3a9276048de496836798e233297b94bf6784b4645867f3bc04f"),
    (["table3", "--outs", "0", "--min-appearances", "120"], 0,
     "4cfe60144b5114ef56693e88b7983df7927dc3294d8e22d424b4ef0b978c7676"),
    (["table3", "--years", "1990-1999", "--min-appearances", "60"], 0,
     "6c3f84074d00db4d6c51c834f959e8982de6116cb46c49ea3ffe7914eb1a0acb"),
    (["table3", "--min-appearances", "0", "--format", "csv"], 0,
     "d53f599a50be3e0c2db36c3d4277940f064505be9f4ff8da28ea047a688775f2"),
    (["decide", "0.3", "--pitcher", "p007"], 0,
     "37b3135ff6a52358d3120e828832ac9aa51d76ea615e758003c2a2ca4736d4e3"),
    (["decide", "0.3", "--all-innings"], 0,
     "5ddd23af97ec29017ae36da3dc4c07ee50a9ce3cdecfe6147b14f3ee78fdbbb0"),
    (["decide", "0.3", "--pitcher", "ghost01"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["table1", "--years", "1990-1999"], 0,
     "91c0a0b790a8ae22af401c00a7e6eaff31a4bc1a834008e3d545cc8d95693b74"),
    (["table1", "--years", "1990-1999", "--format", "csv"], 0,
     "491b2e0d638c66c1314ccb5a39e2e71b00283b7b13c926bd22f4bbbd4064e449"),
    (["decide", "0.3", "--years", "1990-1999"], 0,
     "cad63dbeac4f1fb0cba144598e51673bac8e6233355ad780804a051ee5a170e6"),
    (["decide", "0.3", "--pitcher", "p007", "--outs", "0", "--all-innings"], 0,
     "e45484db20c5afaef8f6fb5e06d6b5290d143ea82a5e6125f47d0bf0217814c4"),
]


@pytest.mark.parametrize("args,code,digest", PINNED_REPORTS)
def test_reports_pinned(report_cache, capsys, args, code, digest):
    import hashlib

    args = [report_cache["leaders"] if a == "LEADERS" else a for a in args]
    assert main(args + ["--cache", report_cache["cache"]]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_decide_names_pitcher_missing_from_cache(report_cache, capsys):
    args = ["decide", "0.3", "--pitcher", "ghost01", "--cache", report_cache["cache"]]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ghost01" in captured.err
    assert "no tally rows" in captured.err


# --- data errors leave through main with the line they had ------------------


# stderr of each refusal, recorded when every command still turned its own
# data errors into exit 2; EVN, COPY, CACHE and REPEATED stand for the paths
REFUSALS = [
    (["table1", "--cache", "CACHE", "--years", "1990"],
     "error: third-occupied cell has no observations\n"),
    (["table2", "--cache", "CACHE", "--boundaries", "100000"],
     "error: no pitcher reached the first boundary\n"),
    (["table1", "--cache", "REPEATED"],
     "error: bad cache row ['hpit0001', 'first_only', '1', '2000:hl', '5', '23']: "
     "repeats the key of an earlier row\n"),
    (["ingest", "-i", "EVN", "-i", "COPY", "--cache", "OUT"],
     "error: game HOM200004010 is in both COPY and EVN\n"),
    (["query", "-i", "EVN", "-i", "COPY"],
     "error: game HOM200004010 is in both COPY and EVN\n"),
    (["decide", "0.5", "--cache", "CACHE", "--years", "1990"],
     "error: third-occupied cell has no observations\n"),
]


@pytest.mark.parametrize("argv,err", REFUSALS,
                         ids=["empty-cell", "empty-bucket", "repeated-cache-row",
                              "ingest-game-twice", "query-game-twice",
                              "decide-empty-cell"])
def test_refusal_keeps_its_error_line(workspace, tmp_path, capsys, argv, err):
    # both event files in one directory, as when the lines were recorded
    evn, copy = tmp_path / "season.evn", tmp_path / "copy.evn"
    for path in (evn, copy):
        path.write_bytes(workspace["evn"].read_bytes())
    lines = workspace["cache"].read_text().splitlines()
    repeated = tmp_path / "repeated.cache"
    repeated.write_text("\n".join([*lines, lines[2]]) + "\n")
    paths = {"EVN": str(evn), "COPY": str(copy),
             "CACHE": str(workspace["cache"]), "REPEATED": str(repeated),
             "OUT": str(tmp_path / "out.cache")}
    for name, path in paths.items():
        err = err.replace(name, path)
    assert main([paths.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == err
    assert captured.out == ""


# --- the collector is paused for the command, and the tally walked once ------


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("case,code", [
    ("good", 0), ("usage", 1), ("missing", 2), ("bad row", 2), ("help", 0),
    ("raises", None),
])
def test_main_restores_collector(workspace, tmp_path, capsys, monkeypatch,
                                 enabled, case, code):
    """main runs the command with the cyclic collector paused and puts back
    the caller's setting on every exit, an escaping exception included."""
    cache = workspace["cache"]
    if case == "bad row":
        cache = tmp_path / "bad.cache"
        cache.write_text(workspace["cache"].read_text() + "zz01,innings,0,2003,3,2\n")
    argv = {"usage": ["table1", "--cache", str(cache), "--years", "x"],
            "missing": ["table1", "--cache", str(tmp_path / "ghost.cache")],
            "help": ["table1", "--help"]}.get(case, ["table1", "--cache", str(cache)])
    seen = []
    render = cli.render_table1

    def traced_render(*args):
        seen.append(gc.isenabled())
        if case == "raises":
            raise RuntimeError("escapes main")
        return render(*args)

    monkeypatch.setattr(cli, "render_table1", traced_render)
    if not enabled:
        gc.disable()
    try:
        if code is None:
            with pytest.raises(RuntimeError):
                main(argv)
        else:
            assert main(argv) == code
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert seen == ([False] if case in ("good", "raises") else [])


def test_table2_starts_no_collection(tmp_path, capsys):
    """A report builds two containers a cache row that form no cycles and
    live until it returns, so a collection while it runs could free
    nothing, and none starts."""
    from baserisk.cache import StatsCache, write_cache
    from baserisk.stats import ClassKind, CountingMode, InningCounts, TallyTable

    cells = [(ClassKind.THIRD_OCCUPIED, 0), (ClassKind.THIRD_OCCUPIED, 1),
             (ClassKind.SECOND_NO_THIRD, 0), (ClassKind.SECOND_NO_THIRD, 1),
             (ClassKind.FIRST_ONLY, 1), (ClassKind.FIRST_ONLY, 2)]
    pitchers, seasons = [f"p{n:03d}" for n in range(100)], range(1990, 1995)
    table = TallyTable({
        (pid, kind, outs, season, lev): [1, 2]
        for pid in pitchers for kind, outs in cells
        for season in seasons for lev in (True, False)
    })
    assert len(table.cells) >= 5_000
    innings = InningCounts({(pid, season): [30, 60] for pid in pitchers for season in seasons})
    path = tmp_path / "big.cache"
    write_cache(path, StatsCache(table, innings, CountingMode.INCLUDE_PLAY, ""))
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    assert gc.isenabled()
    gc.collect()
    gc.callbacks.append(count)
    try:
        assert main(["table2", "--cache", str(path)]) == 0
    finally:
        gc.callbacks.remove(count)
    assert started == []
    assert gc.isenabled()
    assert "150-199" in capsys.readouterr().out


class CountingCells(dict):
    """A cell dict that counts the walks made over it."""

    walks = 0

    def items(self):
        self.walks += 1
        return super().items()

    def keys(self):
        self.walks += 1
        return super().keys()

    def values(self):
        self.walks += 1
        return super().values()

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


@pytest.mark.parametrize("args", [
    ["table1"],
    ["table1", "--years", "1990-1999"],
    ["table2", "--outs", "1", "--outs", "0", "--save-leaders", "LEADERS"],
    ["table3", "--min-appearances", "0"],
    ["decide", "0.3"],
    ["decide", "0.3", "--pitcher", "p007", "--all-innings"],
], ids=["table1", "table1-years", "table2-leaders", "table3", "decide", "decide-pitcher"])
def test_report_walks_the_tally_once(report_cache, capsys, monkeypatch, args):
    """Every rate a report prints comes from one walk of the cache's cells."""
    read = cli.read_cache
    tables = []

    def counted_read(path):
        cache = read(path)
        cache.table.cells = CountingCells(cache.table.cells)
        tables.append(cache.table)
        return cache

    monkeypatch.setattr(cli, "read_cache", counted_read)
    args = [report_cache["leaders"] if a == "LEADERS" else a for a in args]
    assert main(args + ["--cache", report_cache["cache"]]) == 0
    assert [table.cells.walks for table in tables] == [1]
