"""Command-line interface.

Exit codes: 0 success, 1 usage error (among them ``decide --tsf`` with
``--cache``, ``--pitcher``, ``--years``, ``--outs`` or
``--leverage/--all-innings``, given on the command line or in the config
file, a NaN ``decide`` probability, a bad ``table2 --boundaries`` list, and
a ``simulate --season`` outside 1-9999 or ``--games`` above 2,750), 2 data
error (unreadable cache or input file, a game in two input files, empty
cells, an empty leaders file, missing inputs, an output path or cache that
cannot be written, an ``ingest --cache`` that names one of the inputs, a
config key that sets no option).  ``main`` is the one place
that turns a data error into exit 2, and it runs every command with the
cyclic garbage collector paused.
"""

from __future__ import annotations

import gc
import math
import os
from functools import partial
from pathlib import Path

import click
from click.core import ParameterSource

from .cache import (
    CacheError,
    StatsCache,
    fingerprint_paths,
    load_era_csv,
    read_cache,  # no command calls it; perfbench/spans.py wraps cli.read_cache by name
    read_summary,
    write_cache,
)
from .eventfile import load_roster_names
from .pipeline import SUMMARY, InputError, collect_observations, ingest_paths
from .reports import (
    Table1Cell,
    Table3Row,
    render_table1,
    render_table2,
    render_table3,
)
from .stats import (
    ClassKind,
    CountingMode,
    EmptyBucket,
    EmptyCell,
    bucket_report,
    brt_from_rates,
    career_high_leverage_innings,
    compute_brt,
    decide,
    group_summary,
    rates,  # no command calls it; perfbench/spans.py wraps cli.rates by name
)

__all__ = ["DataError", "cli", "main"]


class DataError(Exception):
    """Inputs were found but could not be used."""


class _Probability(click.FloatRange):
    """A float in range, NaN refused too: it compares false with both
    bounds, so the range check alone would let it through."""

    def convert(self, value, param, ctx):
        rv = super().convert(value, param, ctx)
        if math.isnan(rv):
            self.fail(f"{rv} is not in the range {self.min}<=x<={self.max}.", param, ctx)
        return rv


# a threshold pairs classes at i and i + 1 outs, so i is 0 or 1
_THRESHOLD_OUTS = click.IntRange(0, 1)
_PROBABILITY = _Probability(0.0, 1.0)
# simulated games are dated ten a day from April 1 to December 31
_SEASON_GAMES = 2750

_CLASS_NAMES = {
    "third": ClassKind.THIRD_OCCUPIED,
    "second": ClassKind.SECOND_NO_THIRD,
    "first": ClassKind.FIRST_ONLY,
}


def _parse_years(ctx, param, text: str | None) -> tuple[int, int] | None:
    if not text:
        return None
    try:
        if "-" in text:
            lo, hi = text.split("-", 1)
            span = (int(lo), int(hi))
        else:
            span = (int(text), int(text))
    except ValueError:
        raise click.UsageError(f"bad year range: {text!r}")
    if span[0] > span[1]:
        raise click.UsageError(f"bad year range: {text!r}")
    return span


def _parse_boundaries(ctx, param, text: str) -> tuple[int, ...]:
    try:
        # an empty field fails int() too: "100,,150" is no list of edges
        edges = tuple(int(b) for b in text.split(","))
    except ValueError:
        raise click.UsageError(f"bad boundaries: {text!r}")
    if not edges or edges[0] < 0:
        raise click.UsageError(f"boundaries must be non-negative: {text!r}")
    if any(low >= high for low, high in zip(edges, edges[1:])):
        raise click.UsageError(f"boundaries must increase: {text!r}")
    return edges


_years_option = click.option("--years", default=None, callback=_parse_years,
                             help="season range, e.g. 1978-1992")
_format_option = click.option("--format", "fmt", type=click.Choice(["text", "csv"]),
                              default="text", show_default=True)
_counting_mode_option = click.option(
    "--counting-mode", type=click.Choice([m.value for m in CountingMode]),
    default=CountingMode.INCLUDE_PLAY.value, show_default=True,
    callback=lambda ctx, param, value: CountingMode(value))


def _read_input(load, path, what: str):
    """``load(path)``, with a file that is missing, cannot be read or is
    not UTF-8 text turned into a data error naming it."""
    try:
        return load(path)
    except UnicodeDecodeError as exc:
        raise DataError(f"{what} {path} is not UTF-8 text: {exc}")
    except FileNotFoundError as exc:
        raise DataError(f"{what} not found: {exc.filename}")
    except OSError as exc:
        raise DataError(f"cannot read {what}: {exc}")


def _file_id(path: str) -> tuple[int, int]:
    """(device, inode) of the file ``path`` names, the same for every
    spelling of it and every hard link to it."""
    stat = os.stat(path)
    return stat.st_dev, stat.st_ino


def _unique_inputs(inputs: tuple[str, ...]) -> dict[tuple[int, int], str]:
    """The input paths by ``_file_id``, with a file named twice (a.ev,
    ./a.ev, a link to it) kept once, under its first spelling, so that no
    file counts twice."""
    unique: dict[tuple[int, int], str] = {}
    for path in inputs:
        try:
            unique.setdefault(_file_id(path), path)
        except OSError as exc:
            raise DataError(f"cannot read input: {exc}")
    return unique


def _read_ids(path: str) -> list[str]:
    """Non-blank lines of a file, stripped, less a UTF-8 byte-order mark."""
    lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    return [line.strip() for line in lines if line.strip()]


def _load_config(path: str | None) -> dict[str, dict[str, str]]:
    """The default map of command.option=value lines, per command; a UTF-8
    byte-order mark is not part of the first key."""
    if path is None:
        return {}
    defaults: dict[str, dict[str, str]] = {}
    text = _read_input(lambda p: Path(p).read_text(encoding="utf-8-sig"), path, "config")
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"bad config line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        scope, name = _config_param(key)
        defaults.setdefault(scope, {})[name] = value
    return defaults


def _config_param(key: str) -> tuple[str, str]:
    """The command and parameter names a dotted ``command.option`` config
    key sets.  A key that names no command option, the off switch of an
    on/off flag, or a repeatable option is a data error, so that no key is
    silently ignored."""
    scope, dot, option = key.partition(".")
    if not dot:
        raise DataError(f"config key {key!r} names no command: write command.option")
    command = cli.commands.get(scope)
    if command is None:
        raise DataError(f"config key {key!r}: no command {scope!r}")
    wanted = option.replace("-", "_")

    def spellings(opts: list[str]) -> set[str]:
        return {opt.lstrip("-").replace("-", "_") for opt in opts}

    for param in command.params:
        if wanted in spellings(param.secondary_opts):
            raise DataError(f"config key {key!r} names the off switch of a flag; "
                            f"write {scope}.{param.name} = false")
        if wanted in {param.name} | spellings(param.opts):
            if param.multiple:
                raise DataError(f"config key {key!r} sets a repeatable option; "
                                "give it on the command line")
            return scope, param.name
    raise DataError(f"config key {key!r}: {scope} has no option {option!r}")


@click.group()
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="key=value file of option defaults")
@click.pass_context
def cli(ctx, config_path):
    """Estimate scoring rates and break-even thresholds from play accounts."""
    ctx.default_map = _load_config(config_path)


@cli.command()
@click.option("-i", "--input", "inputs", multiple=True, required=True,
              type=click.Path(exists=True), help="event file (repeatable)")
@click.option("--cache", "cache_path", required=True, type=click.Path(),
              help="where to write the tally cache")
@_years_option
@_counting_mode_option
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help="worker processes, at most one per input file")
def ingest(inputs, cache_path, years, counting_mode, jobs):
    """Replay event files and write the aggregated tally cache."""
    paths = _unique_inputs(inputs)
    try:
        target = _file_id(cache_path)
    except OSError:  # no file to replace; an unwritable path fails at the write
        target = None
    if target in paths:
        raise DataError(f"cache {cache_path} would replace the input file {paths[target]}")
    result = ingest_paths(list(paths.values()), counting_mode, years, jobs=jobs)
    if result.counts["games"] == 0:
        raise DataError("no usable games in the given inputs")
    cache = StatsCache(
        table=result.table,
        innings=result.innings,
        counting_mode=counting_mode,
        fingerprint=fingerprint_paths(result.file_digests),
    )
    try:
        write_cache(cache_path, cache)
    except OSError as exc:
        # the error names the temp file beside the target, not the target
        raise DataError(f"cannot write cache {cache_path}: {exc.strerror}")
    click.echo(" ".join(f"{key}={result.counts[key]}" for key in SUMMARY), err=True)
    for code in sorted(result.diagnostic_counts):
        click.echo(f"  {code}: {result.diagnostic_counts[code]}", err=True)


@cli.command()
@click.option("--cache", "cache_path", required=True, type=click.Path())
@_years_option
@_format_option
def table1(cache_path, years, fmt):
    """League-wide rates and thresholds, all innings vs high leverage."""
    summary, _ = _read_input(partial(read_summary, years=years), cache_path, "cache")
    cells = {}
    for scope, leverage in (("all", None), ("hl", True)):
        for outs in (1, 0):
            triple = summary.pooled(outs, leverage)
            cells[(scope, outs)] = Table1Cell(triple, brt_from_rates(triple))
    click.echo(render_table1(cells, fmt), nl=False)


@cli.command()
@click.option("--cache", "cache_path", required=True, type=click.Path())
@click.option("--outs", "outs_list", multiple=True, type=_THRESHOLD_OUTS,
              default=(1, 0), show_default=True)
@click.option("--boundaries", default="100,150,200,250,300,350",
              show_default=True, callback=_parse_boundaries,
              help="bucket edges in career HL innings")
@click.option("--save-leaders", "leaders_path", type=click.Path(exists=True),
              default=None, help="file of pitcher ids, one per line")
@click.option("--cohort-min-season", type=int, default=None,
              help="drop pitchers whose last season precedes this")
@_years_option
@_format_option
def table2(cache_path, outs_list, boundaries, leaders_path, cohort_min_season,
           years, fmt):
    """Career-workload buckets of per-pitcher thresholds."""
    summary, innings = _read_input(partial(read_summary, years=years), cache_path, "cache")
    leaders = _read_input(_read_ids, leaders_path, "leaders file") if leaders_path else None
    blocks = {}
    for outs in outs_list:
        blocks[outs] = bucket_report(summary, innings, outs, boundaries=boundaries,
                                     cohort_last_season_min=cohort_min_season)
        if leaders is not None:
            blocks[outs].append(group_summary(summary, leaders, outs))
    click.echo(render_table2(blocks, fmt), nl=False)


@cli.command()
@click.option("--cache", "cache_path", required=True, type=click.Path())
@click.option("--min-appearances", type=int, default=350, show_default=True,
              help="career high-leverage half-innings required")
@click.option("--outs", type=_THRESHOLD_OUTS, default=1, show_default=True)
@click.option("--era", "era_path", type=click.Path(exists=True), default=None,
              help="csv of pitcher_id,era")
@click.option("--roster", "roster_paths", multiple=True,
              type=click.Path(exists=True), help="roster file (repeatable)")
@_years_option
@_format_option
def table3(cache_path, min_appearances, outs, era_path, roster_paths, years, fmt):
    """Per-pitcher thresholds for heavy high-leverage workloads."""
    summary, innings = _read_input(partial(read_summary, years=years), cache_path, "cache")
    eras = _read_input(load_era_csv, era_path, "era file") if era_path else {}
    names = {}
    if roster_paths:
        names = _read_input(load_roster_names, list(roster_paths), "roster")
    careers = career_high_leverage_innings(innings, years)
    rows = []
    for pid in sorted(summary.rows):
        if careers.get(pid, 0) < min_appearances:
            continue
        triple = summary.triple(pid, outs, leverage=True)
        if not triple.complete():
            continue
        last, first = names.get(pid, (pid, ""))
        rows.append(Table3Row(pid, last, first, brt_from_rates(triple), eras.get(pid)))
    if not rows:
        raise DataError(
            f"no pitcher reaches {min_appearances} high-leverage half-innings")
    click.echo(render_table3(rows, fmt), nl=False)


@cli.command(name="decide")
@click.argument("p", type=_PROBABILITY)
@click.option("--tsf", nargs=3, type=_PROBABILITY, default=None,
              help="rates T S F given directly")
@click.option("--cache", "cache_path", type=click.Path(), default=None)
@click.option("--pitcher", "pitcher_id", default=None)
@click.option("--outs", type=_THRESHOLD_OUTS, default=1, show_default=True)
@click.option("--leverage/--all-innings", default=True, show_default=True)
@_years_option
@click.pass_context
def decide_cmd(ctx, p, tsf, cache_path, pitcher_id, outs, leverage, years):
    """Compare a success probability P against the break-even threshold."""
    if tsf:
        # every one of these selects rates from a cache; one given on the
        # command line or in the config file would be ignored
        if any(ctx.get_parameter_source(name) is not ParameterSource.DEFAULT
               for name in ("cache_path", "pitcher_id", "years", "outs", "leverage")):
            raise click.UsageError("--tsf takes no --cache, --pitcher or --years, "
                                   "and no --outs, --leverage or --all-innings")
        value = compute_brt(*tsf)
    elif cache_path:
        summary, _ = _read_input(partial(read_summary, years=years), cache_path, "cache")
        lev = True if leverage else None
        if pitcher_id is not None:
            triple = summary.triple(pitcher_id, outs, lev)
            if triple is None:
                raise DataError(f"pitcher {pitcher_id} has no tally rows in the cache")
        else:
            triple = summary.pooled(outs, lev)
        value = brt_from_rates(triple)
    else:
        raise click.UsageError("give either --tsf T S F or --cache")
    verdict = decide(p, value.brt)
    clamp = " (clamped)" if value.clamped else ""
    click.echo(f"threshold={value.brt:.6f}{clamp} p={p:.6f} -> {verdict.value}")


@cli.command()
@click.option("-i", "--input", "inputs", multiple=True, required=True,
              type=click.Path(exists=True))
@click.option("--pitcher", "pitcher_id", default=None)
@click.option("--situation", "class_name",
              type=click.Choice(sorted(_CLASS_NAMES)), default=None)
@click.option("--outs", type=click.IntRange(0, 2), default=None)
@_years_option
@click.option("--leverage/--all-innings", "leverage", default=False)
@_counting_mode_option
def query(inputs, pitcher_id, class_name, outs, years, leverage, counting_mode):
    """List matching observations straight from raw event files."""
    observations = collect_observations(
        list(_unique_inputs(inputs).values()), counting_mode, years)
    kind = _CLASS_NAMES[class_name] if class_name else None
    scored = 0
    # files are read as the loop drains the generator; nothing is printed
    # until all are read, so a refused input leaves stdout empty
    lines: list[str] = []
    for obs in observations:
        if pitcher_id is not None and obs.pitcher_id != pitcher_id:
            continue
        if kind and obs.situation.kind is not kind:
            continue
        if outs is not None and obs.situation.outs != outs:
            continue
        if leverage and not obs.high_leverage:
            continue
        game_id, inning, half = obs.half_inning_key
        scored += obs.scored_later
        lines.append(
            f"{game_id} inning={inning} half={half.name.lower()} "
            f"pitcher={obs.pitcher_id} class={obs.situation.kind.value} "
            f"outs={obs.situation.outs} scored={int(obs.scored_later)} "
            f"hl={int(obs.high_leverage)}")
    if not lines:
        raise DataError("no matching observations")
    lines.append(f"n={len(lines)} scored={scored} rate={scored / len(lines):.6f}")
    click.echo("\n".join(lines))


@cli.command()
@click.option("--model", "model_path", type=click.Path(exists=True),
              default=None, help="outcome model file (defaults to built-in)")
@click.option("--games", type=click.IntRange(1, _SEASON_GAMES), default=100,
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--season", type=click.IntRange(1, 9999), default=2000, show_default=True)
@click.option("--subs/--no-subs", default=False, show_default=True,
              help="bring in relief pitchers mid-game")
@click.option("-o", "--output", "out_path", required=True, type=click.Path())
def simulate(model_path, games, seed, season, subs, out_path):
    """Generate a synthetic event file from an outcome model."""
    from . import oracle  # only simulate runs the simulator

    if not model_path:
        model = oracle.default_model()
    else:
        try:
            model = _read_input(oracle.load_model, model_path, "model")
        except oracle.InvalidModel as exc:
            raise DataError(f"model {model_path}: {exc}")
    sims = oracle.simulate_season(model, games, seed, season=season,
                                  midgame_subs=subs)
    try:
        Path(out_path).write_text(oracle.emit_event_file(sims), encoding="ascii")
    except OSError as exc:
        raise DataError(f"cannot write event file: {exc}")
    click.echo(f"wrote {games} games to {out_path}", err=True)


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    The command runs with the cyclic garbage collector paused, and the
    caller's setting, enabled or disabled, is put back on every exit.  A
    report command reads thousands of innings keys and count lists and a
    set per pitcher that live until it returns and form no cycles, so a
    collection while it runs could free nothing; ingest leaves a few
    thousand cyclic objects, which wait until the collector runs again.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except (DataError, CacheError, InputError, EmptyCell, EmptyBucket) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    finally:
        if enabled:
            gc.enable()
    return 0

