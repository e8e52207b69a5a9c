"""Benchmark of baserisk's ingest and report commands.

Run from the root of a baserisk checkout:

    python3 perfbench/run.py --workload season-ingest --seed 1 --seconds 25 --trace 0

Workloads: season-ingest, archive-ingest, query-reports (see README.md).
The run generates the workload's inputs from the seed, times whole rounds
of CLI commands in a worker process that runs nothing else, checks every
output against a computation made apart from the program, and prints one
JSON object as its last line of output.  With --trace 0 it reports the
end-to-end metrics; with --trace 1 the per-layer metrics of a traced run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORK_DIR = ".perfbench-work"
SETUP_REPEATS = 3
INGEST_WORKLOADS = ("season-ingest", "archive-ingest")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("season-ingest", "archive-ingest", "query-reports"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "baserisk" / "__init__.py").is_file():
        print(f"error: {src / 'baserisk'} not found; run from the root of a "
              "baserisk checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = root / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return run(args, root, src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args: argparse.Namespace, root: Path, src: Path, work: Path) -> int:
    import reference
    import workloads
    from calibrate import NOMINAL_S, calibrate
    from spans import SETUP_CALLS, Tracer

    setup_times, setup_layers = [], []
    cal_before = calibrate()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        tracer = Tracer()
        if args.trace:
            tracer.install(SETUP_CALLS)
        gc.collect()
        start = time.perf_counter()
        try:
            inputs = workloads.generate(args.workload, args.seed, work)
        finally:
            tracer.uninstall()
        elapsed = time.perf_counter() - start
        cal_after = calibrate()
        setup_times.append(elapsed * NOMINAL_S / ((cal_before + cal_after) / 2))
        cal_before = cal_after
        setup_layers.append(tracer.totals())
    print(f"{args.workload} seed={args.seed} {inputs.makeup}")

    trace_out = root / WORK_DIR / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    result, usage = run_worker(inputs, args, src, work, trace_out)
    rounds = result["rounds"]
    commands = [c for r in rounds for c in r["commands"]]
    failed = sum(c["code"] != 0 for c in commands)

    problems = [f"{c['command']} exited {c['code']}" for c in commands if c["code"] != 0]
    for n, command in enumerate(inputs.commands):
        if len({r["commands"][n]["stdout_sha"] for r in rounds}) != 1:
            problems.append(f"{command[0]} printed different output across rounds")
    if args.workload in INGEST_WORKLOADS:
        problems += reference.check_ingest(
            inputs, [r["commands"][0]["summary"] for r in rounds])
    else:
        problems += reference.check_query(inputs.synthetic, result["outputs"])
    if args.workload == "archive-ingest":
        problems += partition_check(inputs, work)
    for problem in problems:
        print(f"check failed: {problem}")

    untraced = [r for r in rounds if not r["traced"]]
    round_s = statistics.median(r["scaled_s"] for r in untraced)
    wall_s = statistics.median(r["wall_s"] for r in untraced)
    print(f"rounds={len(rounds)} traced={len(rounds) - len(untraced)} "
          f"round_scaled_s={round_s:.4f} round_wall_s={wall_s:.4f} "
          f"calibration_s={statistics.median(r['cal_s'] for r in untraced):.4f}")
    if inputs.plays:
        print(f"ingest_plays_per_s={inputs.plays / wall_s:.1f} (wall)")
    if args.trace:
        metrics = layer_metrics(result, setup_layers, rounds)
    else:
        metrics = {
            "round_scaled_s": {"value": round_s, "unit": "s"},
            "peak_rss_mb": {"value": usage.ru_maxrss / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_times) + result["import_scaled_s"],
                        "unit": "s"},
        }
    print(json.dumps({"correct": not problems, "attempted": len(commands),
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


def run_worker(inputs, args, src: Path, work: Path, trace_out: Path):
    """Run the timed loop in a child process; return its results and the
    child's resource usage, which holds its peak resident memory."""
    spec = work / "spec.json"
    result_path = work / "result.json"
    spec.write_text(json.dumps({
        "commands": inputs.commands, "seconds": args.seconds, "trace": bool(args.trace),
        "token_files": [str(f.path) for f in inputs.sim_files],
        "trace_out": str(trace_out), "result": str(result_path),
    }))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(BENCH)]),
               TMPDIR=str(work))
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), str(spec)],
                            stdout=sys.stderr, env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"error: worker exited with {proc.returncode}")
    return json.loads(result_path.read_text()), usage


def partition_check(inputs, work: Path) -> list[str]:
    """Ingest once more with two worker processes; the cache must be
    byte-identical to the serial one."""
    import reference
    from baserisk import cli

    parallel = work / "parallel.csv"
    argv = list(inputs.commands[0])
    argv[argv.index("--cache") + 1] = str(parallel)
    argv[argv.index("--jobs") + 1] = "2"
    code = cli.main(argv)
    if code != 0:
        return [f"ingest --jobs 2 exited {code}"]
    return reference.check_same_cache(inputs.cache_path, parallel)


def layer_metrics(result: dict, setup_layers: list[dict], rounds: list[dict]) -> dict:
    layers = result["layers"]

    def seconds(name: str) -> float:
        return statistics.median(layer["seconds"].get(name, 0.0) for layer in layers)

    def count(name: str) -> int:
        return layers[-1]["counts"].get(name, 0)

    parse_s = statistics.median(layer["parse_s"] for layer in layers)
    values = {
        "playtoken.parse_s": (parse_s, "s"),
        "playtoken.tokens": (result["tokens"], "count"),
        "playtoken.distinct_tokens": (result["distinct_tokens"], "count"),
        "eventfile.tokenize_s": (seconds("eventfile.tokenize"), "s"),
        "eventfile.assemble_s": (seconds("eventfile.assemble"), "s"),
        "eventfile.records": (count("eventfile.records"), "count"),
        "state.replay_s": (seconds("state.replay"), "s"),
        "state.replay_self_s": (statistics.median(
            layer["seconds"].get("state.replay", 0.0) - layer["parse_s"]
            for layer in layers), "s"),
        "state.snapshots": (count("state.snapshots"), "count"),
        "stats.extract_s": (seconds("stats.extract"), "s"),
        "stats.tally_s": (seconds("stats.tally"), "s"),
        "stats.observations": (count("stats.observations"), "count"),
        "pipeline.merge_s": (seconds("pipeline.merge"), "s"),
        "pipeline.merge_calls": (count("pipeline.merge_calls"), "count"),
        "cache.fingerprint_s": (seconds("cache.fingerprint"), "s"),
        "cache.write_s": (seconds("cache.write"), "s"),
        "cache.rows": (count("cache.rows"), "count"),
        "cache.bytes": (count("cache.bytes"), "count"),
        "cache.read_s": (seconds("cache.read"), "s"),
        "stats.bucket_report_s": (seconds("stats.bucket_report"), "s"),
        "stats.rates_s": (seconds("stats.rates"), "s"),
        "stats.rates_calls": (count("stats.rates_calls"), "count"),
        "stats.career_hl_s": (seconds("stats.career_hl"), "s"),
        "stats.career_hl_calls": (count("stats.career_hl_calls"), "count"),
        "reports.render_s": (seconds("reports.render"), "s"),
        "cli.ingest_s": (seconds("cli.ingest"), "s"),
        "cli.table1_s": (seconds("cli.table1"), "s"),
        "cli.table2_s": (seconds("cli.table2"), "s"),
        "cli.table3_s": (seconds("cli.table3"), "s"),
        "oracle.simulate_s": (statistics.median(
            s.get("oracle.simulate", 0.0) for s in setup_layers), "s"),
        "oracle.emit_s": (statistics.median(
            s.get("oracle.emit", 0.0) for s in setup_layers), "s"),
        "trace.overhead_s": (
            statistics.median(r["wall_s"] for r in rounds if r["traced"])
            - statistics.median(r["wall_s"] for r in rounds if not r["traced"]), "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


if __name__ == "__main__":
    sys.exit(main())
