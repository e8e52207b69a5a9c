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
])
def test_out_of_range_options_are_usage_errors(workspace, args):
    assert main(args + ["--cache", str(workspace["cache"])]) == 1


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
