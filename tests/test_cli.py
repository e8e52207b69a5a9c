"""Command-line flows, exit codes, and report plumbing."""

import pytest

from baserisk.cli import main


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


def test_ingest_missing_input(tmp_path):
    args = ["ingest", "-i", str(tmp_path / "ghost.evn"),
            "--cache", str(tmp_path / "c")]
    assert main(args) == 1


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


def test_table1_unreadable_cache(tmp_path, capsys):
    bad = tmp_path / "junk.cache"
    bad.write_text("not a cache\n")
    assert main(["table1", "--cache", str(bad)]) == 2


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


def test_decide_usage_errors(workspace):
    assert main(["decide", "1.5", "--tsf", "0.6", "0.4", "0.1"]) == 1
    assert main(["decide", "0.5"]) == 1  # neither --tsf nor --cache


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
     "2a03fa6e3c20f02df90f6c3a28452adcff5c240e543cc36ff62666afa67b032c"),
    (["table2", "--boundaries", "0,50,400", "--outs", "0",
      "--save-leaders", "LEADERS", "--format", "csv"], 0,
     "ba682e26a354ac09c78e8c1c6baaf38bfd5aacfe2e65c5aaccc97e19feb4642d"),
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
