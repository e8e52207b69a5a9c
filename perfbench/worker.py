"""Timed loop of one workload, run in a process of its own.

Usage: python3 worker.py SPEC.json

The spec names the CLI commands of one round, the seconds to measure and
whether to trace.  The loop is closed: one caller runs whole rounds, each
command called in-process through ``baserisk.cli.main``, until the seconds
are used up.  With tracing on, untraced and traced rounds alternate so
their difference gives the tracing overhead, and a separate pass of
``parse_play_token`` over every input token gives the parse time.  The
results go to the JSON file the spec names.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import sys
import time
from pathlib import Path

from calibrate import NOMINAL_S, calibrate


def run_command(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    wall = time.perf_counter() - start
    return {"command": argv[0], "code": code, "wall_s": wall,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def parse_pass(tokens: list[str]) -> float:
    from baserisk.playtoken import parse_play_token

    start = time.perf_counter()
    for token in tokens:
        parse_play_token(token)
    return time.perf_counter() - start


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    start = time.perf_counter()
    from baserisk import cli
    import_s = time.perf_counter() - start
    cal_before = first_cal = calibrate()

    tracer = tokens = None
    if spec["trace"]:
        from spans import Tracer
        from workloads import play_tokens
        tracer = Tracer()
        tokens = play_tokens([Path(p) for p in spec["token_files"]])

    rounds, layers = [], []
    outputs: dict[str, str] = {}
    loop_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            first_span, counts_before = len(tracer.spans), dict(tracer.counts)
            tracer.install()
        gc.collect()  # every round starts from a collected heap, as a new process does
        round_start = time.perf_counter()
        results = []
        for argv in spec["commands"]:
            if traced:
                results.append(tracer.span(f"cli.{argv[0]}", run_command, cli, argv))
            else:
                results.append(run_command(cli, argv))
        wall = time.perf_counter() - round_start
        if traced:
            tracer.uninstall()
        cal_after = calibrate()
        cal = (cal_before + cal_after) / 2
        cal_before = cal_after
        if traced:
            counts = {k: v - counts_before.get(k, 0) for k, v in tracer.counts.items()}
            layers.append({"seconds": tracer.totals(first_span), "counts": counts,
                           "parse_s": parse_pass(tokens) if tokens else 0.0})
        for result in results:
            outputs[result["command"]] = result["stdout"]
        rounds.append({
            "traced": traced, "wall_s": wall, "scaled_s": wall * NOMINAL_S / cal,
            "cal_s": cal,
            "commands": [{
                "command": r["command"], "code": r["code"], "wall_s": r["wall_s"],
                "stdout_sha": hashlib.sha256(r["stdout"].encode()).hexdigest(),
                "summary": r["stderr"].splitlines()[0] if r["stderr"] else "",
            } for r in results],
        })
        elapsed = time.perf_counter() - loop_start
        if elapsed >= spec["seconds"] and (tracer is None or len(rounds) >= 2):
            break

    if tracer is not None:
        tracer.write(Path(spec["trace_out"]))
    Path(spec["result"]).write_text(json.dumps({
        "import_scaled_s": import_s * NOMINAL_S / first_cal,
        "rounds": rounds, "layers": layers,
        "tokens": len(tokens or []), "distinct_tokens": len(set(tokens or [])),
        "outputs": outputs,
    }))


if __name__ == "__main__":
    main(sys.argv[1])
