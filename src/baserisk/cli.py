"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable cache,
empty cells, missing inputs).
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from . import oracle
from .cache import (
    CacheError,
    StatsCache,
    fingerprint_paths,
    load_era_csv,
    read_cache,
    write_cache,
)
from .eventfile import load_roster_names
from .pipeline import collect_observations, ingest_paths
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
    pooled_rates,
    rates,
    rates_by_pitcher,
)

__all__ = ["DataError", "cli", "main"]


class DataError(Exception):
    """Inputs were found but could not be used."""


# a threshold pairs classes at i and i + 1 outs, so i is 0 or 1
_THRESHOLD_OUTS = click.IntRange(0, 1)
_PROBABILITY = click.FloatRange(0.0, 1.0)

_CLASS_NAMES = {
    "third": ClassKind.THIRD_OCCUPIED,
    "second": ClassKind.SECOND_NO_THIRD,
    "first": ClassKind.FIRST_ONLY,
}


def _parse_years(text: str | None) -> tuple[int, int] | None:
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


def _load_cache(path: str) -> StatsCache:
    try:
        return read_cache(path)
    except FileNotFoundError:
        raise DataError(f"cache not found: {path}")
    except CacheError as exc:
        raise DataError(str(exc))


def _load_config(path: str | None) -> dict:
    """key=value defaults; dotted keys (command.option) scope to one command."""
    if path is None:
        return {}
    defaults: dict = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot read config: {exc}")
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"bad config line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if "." in key:
            scope, option = key.split(".", 1)
            defaults.setdefault(scope, {})[option.replace("-", "_")] = value
        else:
            defaults[key.replace("-", "_")] = value
    return defaults


def _param_name(command: click.Command, key: str) -> str:
    """Map a user-facing option name (e.g. "format") to its parameter name."""
    for param in command.params:
        aliases = {param.name} | {
            opt.lstrip("-").replace("-", "_") for opt in param.opts
        }
        if key in aliases:
            return param.name
    return key


@click.group()
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="key=value file of option defaults")
@click.pass_context
def cli(ctx, config_path):
    """Estimate scoring rates and break-even thresholds from play accounts."""
    defaults = _load_config(config_path)
    for scope, options in defaults.items():
        command = cli.commands.get(scope)
        if command is not None and isinstance(options, dict):
            defaults[scope] = {
                _param_name(command, key): value for key, value in options.items()
            }
    ctx.default_map = defaults


@cli.command()
@click.option("-i", "--input", "inputs", multiple=True, required=True,
              type=click.Path(exists=True), help="event file (repeatable)")
@click.option("--cache", "cache_path", required=True, type=click.Path(),
              help="where to write the tally cache")
@click.option("--years", default=None, help="season range, e.g. 1978-1992")
@click.option("--counting-mode",
              type=click.Choice([m.value for m in CountingMode]),
              default=CountingMode.INCLUDE_PLAY.value, show_default=True)
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help="worker processes, at most one per input file")
def ingest(inputs, cache_path, years, counting_mode, jobs):
    """Replay event files and write the aggregated tally cache."""
    mode = CountingMode(counting_mode)
    span = _parse_years(years)
    # one file named twice (a.ev, ./a.ev) counts once, under its first spelling
    unique: dict[Path, str] = {}
    for path in inputs:
        unique.setdefault(Path(path).resolve(), path)
    paths = list(unique.values())
    result = ingest_paths(paths, mode, span, jobs=jobs)
    if result.games == 0:
        raise DataError("no usable games in the given inputs")
    cache = StatsCache(
        table=result.table,
        innings=result.innings,
        counting_mode=mode,
        fingerprint=fingerprint_paths(paths),
    )
    write_cache(cache_path, cache)
    click.echo(
        f"games={result.games} skipped={result.games_skipped} "
        f"half_innings={result.half_innings} quarantined={result.quarantined} "
        f"incomplete={result.incomplete} observations={result.observations}",
        err=True,
    )
    for code in sorted(result.diagnostic_counts):
        click.echo(f"  {code}: {result.diagnostic_counts[code]}", err=True)


@cli.command()
@click.option("--cache", "cache_path", required=True, type=click.Path())
@click.option("--years", default=None)
@click.option("--format", "fmt", type=click.Choice(["text", "csv"]),
              default="text", show_default=True)
def table1(cache_path, years, fmt):
    """League-wide rates and thresholds, all innings vs high leverage."""
    cache = _load_cache(cache_path)
    triples = pooled_rates(cache.table, _parse_years(years))
    cells = {}
    try:
        for scope, leverage in (("all", None), ("hl", True)):
            for outs in (1, 0):
                triple = triples[(leverage, outs)]
                cells[(scope, outs)] = Table1Cell(triple, brt_from_rates(triple))
    except EmptyCell as exc:
        raise DataError(str(exc))
    click.echo(render_table1(cells, fmt), nl=False)


@cli.command()
@click.option("--cache", "cache_path", required=True, type=click.Path())
@click.option("--outs", "outs_list", multiple=True, type=_THRESHOLD_OUTS,
              default=(1, 0), show_default=True)
@click.option("--boundaries", default="100,150,200,250,300,350",
              show_default=True, help="bucket edges in career HL innings")
@click.option("--save-leaders", "leaders_path", type=click.Path(exists=True),
              default=None, help="file of pitcher ids, one per line")
@click.option("--cohort-min-season", type=int, default=None,
              help="drop pitchers whose last season precedes this")
@click.option("--years", default=None)
@click.option("--format", "fmt", type=click.Choice(["text", "csv"]),
              default="text", show_default=True)
def table2(cache_path, outs_list, boundaries, leaders_path, cohort_min_season,
           years, fmt):
    """Career-workload buckets of per-pitcher thresholds."""
    cache = _load_cache(cache_path)
    span = _parse_years(years)
    try:
        edges = tuple(int(b) for b in boundaries.split(",") if b.strip())
    except ValueError:
        raise click.UsageError(f"bad boundaries: {boundaries!r}")
    if not edges or edges[0] < 0:
        raise click.UsageError(f"boundaries must be non-negative: {boundaries!r}")
    if any(low >= high for low, high in zip(edges, edges[1:])):
        raise click.UsageError(f"boundaries must increase: {boundaries!r}")
    leaders = None
    if leaders_path:
        leaders = [line.strip() for line in Path(leaders_path).read_text().splitlines()
                   if line.strip()]
    blocks, extras = {}, {}
    try:
        for outs in outs_list:
            blocks[outs] = bucket_report(
                cache.table, cache.innings, outs, boundaries=edges,
                years=span, cohort_last_season_min=cohort_min_season)
            if leaders:
                extras[outs] = [
                    ("leaders", group_summary(cache.table, leaders, outs, years=span))
                ]
    except EmptyBucket as exc:
        raise DataError(str(exc))
    click.echo(render_table2(blocks, extras, fmt), nl=False)


@cli.command()
@click.option("--cache", "cache_path", required=True, type=click.Path())
@click.option("--min-appearances", type=int, default=350, show_default=True,
              help="career high-leverage half-innings required")
@click.option("--outs", type=_THRESHOLD_OUTS, default=1, show_default=True)
@click.option("--era", "era_path", type=click.Path(exists=True), default=None,
              help="csv of pitcher_id,era")
@click.option("--roster", "roster_paths", multiple=True,
              type=click.Path(exists=True), help="roster file (repeatable)")
@click.option("--years", default=None)
@click.option("--format", "fmt", type=click.Choice(["text", "csv"]),
              default="text", show_default=True)
def table3(cache_path, min_appearances, outs, era_path, roster_paths, years, fmt):
    """Per-pitcher thresholds for heavy high-leverage workloads."""
    cache = _load_cache(cache_path)
    span = _parse_years(years)
    eras = load_era_csv(era_path) if era_path else {}
    names = load_roster_names(list(roster_paths)) if roster_paths else {}
    careers = career_high_leverage_innings(cache.innings, span)
    by_pitcher = rates_by_pitcher(cache.table, outs, leverage=True, years=span)
    rows = []
    for pid in sorted(by_pitcher):
        triple = by_pitcher[pid]
        if careers.get(pid, 0) < min_appearances or not triple.complete():
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
@click.option("--years", default=None)
def decide_cmd(p, tsf, cache_path, pitcher_id, outs, leverage, years):
    """Compare a success probability P against the break-even threshold."""
    if tsf:
        value = compute_brt(*tsf)
    elif cache_path:
        cache = _load_cache(cache_path)
        if pitcher_id and pitcher_id not in {key[0] for key in cache.table.cells}:
            raise DataError(f"pitcher {pitcher_id} has no tally rows in the cache")
        try:
            triple = rates(cache.table, outs,
                           pitchers=[pitcher_id] if pitcher_id else None,
                           leverage=True if leverage else None,
                           years=_parse_years(years))
            value = brt_from_rates(triple)
        except EmptyCell as exc:
            raise DataError(str(exc))
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
@click.option("--years", default=None)
@click.option("--leverage/--all-innings", "leverage", default=False)
@click.option("--counting-mode",
              type=click.Choice([m.value for m in CountingMode]),
              default=CountingMode.INCLUDE_PLAY.value, show_default=True)
def query(inputs, pitcher_id, class_name, outs, years, leverage, counting_mode):
    """List matching observations straight from raw event files."""
    observations = collect_observations(
        list(inputs), CountingMode(counting_mode), _parse_years(years))
    kind = _CLASS_NAMES[class_name] if class_name else None
    scored = total = 0
    for obs in observations:
        if pitcher_id and obs.pitcher_id != pitcher_id:
            continue
        if kind and obs.situation.kind is not kind:
            continue
        if outs is not None and obs.situation.outs != outs:
            continue
        if leverage and not obs.high_leverage:
            continue
        game_id, inning, half = obs.half_inning_key
        total += 1
        scored += obs.scored_later
        click.echo(
            f"{game_id} inning={inning} half={half.name.lower()} "
            f"pitcher={obs.pitcher_id} class={obs.situation.kind.value} "
            f"outs={obs.situation.outs} scored={int(obs.scored_later)} "
            f"hl={int(obs.high_leverage)}")
    if total == 0:
        raise DataError("no matching observations")
    click.echo(f"n={total} scored={scored} rate={scored / total:.6f}")


@cli.command()
@click.option("--model", "model_path", type=click.Path(exists=True),
              default=None, help="outcome model file (defaults to built-in)")
@click.option("--games", type=click.IntRange(min=1), default=100, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--season", type=int, default=2000, show_default=True)
@click.option("--subs/--no-subs", default=False, show_default=True,
              help="bring in relief pitchers mid-game")
@click.option("-o", "--output", "out_path", required=True, type=click.Path())
def simulate(model_path, games, seed, season, subs, out_path):
    """Generate a synthetic event file from an outcome model."""
    try:
        model = oracle.load_model(model_path) if model_path else oracle.default_model()
    except oracle.InvalidModel as exc:
        raise DataError(str(exc))
    sims = oracle.simulate_season(model, games, seed, season=season,
                                  midgame_subs=subs)
    Path(out_path).write_text(oracle.emit_event_file(sims), encoding="ascii")
    click.echo(f"wrote {games} games to {out_path}", err=True)


def main(argv: list[str] | None = None) -> int:
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
    except DataError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
