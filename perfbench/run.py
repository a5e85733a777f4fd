#!/usr/bin/env python3
"""Benchmark of the bellkit CLI: fixed command chains, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Every command runs in a fresh
`python -m bellkit.cli` process with `src/` on the path, one at a time (a
closed loop with one client), so each pays interpreter start-up and
imports as a user does. The chain is repeated in whole passes until
`--seconds` have elapsed; every output is checked against an independent
computation (checks.py). The last line of standard output is one JSON
object: correct, attempted, failed and the metrics, the end-to-end ones
with `--trace 0`, the per-layer ones with `--trace 1`. The line before it
holds the run metadata. See README.md for workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import scipy

import checks
import tracer
from workloads import WORKLOADS, Outputs, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
PYCACHE = BUILD / "pycache"

# Set-ups per run; setup_s is their median.
SETUP_REPEATS = 3
# A command still running this long after `--seconds` have elapsed is
# killed and counted as failed: about ten times the slowest pass, so a run
# of 30 s ends within three minutes.
DEADLINE_MARGIN_S = 120.0


class SetupFailed(Exception):
    """The program could not be started at all; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Bytecode is cached under .bench_build, not in src/: the first set-up
    # compiles, and commands run from the cache as an installed package does.
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_process(argv: list[str], cwd: Path, env: dict[str, str], stem: str, deadline: float) -> tuple[float, float, int]:
    """Run one child to completion or the deadline: (wall seconds, peak RSS in MB, exit code)."""
    with open(cwd / f"{stem}.out", "wb") as out, open(cwd / f"{stem}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(max(0.0, deadline - start), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def set_up(workload: Workload, workdir: Path, seed: int, env: dict[str, str], deadline: float) -> float:
    """Fresh working directory, generated inputs, one warm-up start of the CLI."""
    start = time.perf_counter()
    workdir.mkdir(parents=True)
    workload.make_inputs(workdir, seed)
    _, _, code = run_process([sys.executable, "-m", "bellkit.cli", "--version"], workdir, env, "warmup", deadline)
    if code != 0:
        raise SetupFailed((workdir / "warmup.err").read_text(errors="replace").strip() or f"exit code {code}")
    return time.perf_counter() - start


def run_pass(workload: Workload, seed: int, workdir: Path, env: dict[str, str], traced: bool, deadline: float) -> dict:
    """One pass through the chain; every command checked after it ends."""
    outputs = Outputs(workdir)
    times, rss, failures, span_files = {}, {}, [], []
    for command in workload.commands(seed):
        stem = command.key
        if traced:
            spans = workdir / f"{stem}.spans.npz"
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans), *command.argv]
            span_files.append(str(spans))
        else:
            argv = [sys.executable, "-m", "bellkit.cli", *command.argv]
        times[stem], rss[stem], code = run_process(argv, workdir, env, stem, deadline)
        try:
            checks.require(code == 0, f"exit code {code}: {(workdir / f'{stem}.err').read_text(errors='replace')[-500:]}")
            report = json.loads((workdir / f"{stem}.out").read_text(encoding="utf-8"))
            command.check(report, outputs)
        except Exception as exc:  # any fault in an output counts against this command only
            failures.append(f"{workload.name}/{stem}: {type(exc).__name__}: {exc}")
    result = {"traced": traced, "times": times, "rss_mb": rss, "failures": failures}
    if traced:
        result["layers"] = tracer.summarize([f for f in span_files if Path(f).exists()])
    return result


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "bellkit").glob("*.py")))


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "bellkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def metadata(args: argparse.Namespace) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "src_lines": src_line_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def command_medians(passes: list[dict], field: str = "times") -> dict[str, float]:
    """Per command, the median of its values over the passes.

    On a shared host the CPU speed drifts in bursts of a few seconds; a
    per-command median over the passes drops the samples a burst slowed,
    where the median of whole-pass sums would keep them.
    """
    return {key: statistics.median(p[field][key] for p in passes) for key in passes[0][field]}


def per_layer_metrics(workload: Workload, plain: list[dict], traced: list[dict], layer_names: list[str]) -> dict:
    """Per-layer metrics (medians over traced passes) plus command metrics and tracing overhead."""
    metrics = {name: statistics.median(p["layers"].get(name, 0.0) for p in traced) for name in layer_names}
    command_s = command_medians(plain)
    metrics.update(workload.metrics(command_s))
    metrics["trace_overhead_s"] = sum(command_medians(traced).values()) - sum(command_s.values())
    return metrics


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]}, {m["name"]: m["unit"] for m in spec["per_layer"]})


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "bellkit" / "cli.py").is_file():
        print(f"error: no bellkit sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    end_to_end_units, per_layer_units = declared_metrics()
    env = child_env()
    base = BUILD / "work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    deadline = time.perf_counter() + args.seconds + DEADLINE_MARGIN_S
    try:
        setups = []
        for i in range(SETUP_REPEATS):
            workdir = base / f"setup{i}"
            setups.append(set_up(workload, workdir, args.seed, env, deadline))
            if i + 1 < SETUP_REPEATS:
                shutil.rmtree(workdir)
        passes = []
        start = time.perf_counter()
        # With tracing, untraced and traced passes alternate, at least one of each.
        while not passes or time.perf_counter() - start < args.seconds or (args.trace and len(passes) < 2):
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(workload, args.seed, workdir, env, traced, deadline))
    except SetupFailed as exc:
        print(f"error: bellkit did not start: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(base, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    failures = [f for p in passes for f in p["failures"]]
    for failure in failures:
        print(failure, file=sys.stderr)
    command_s = command_medians(plain)
    if args.trace:
        values = per_layer_metrics(workload, plain, traced, list(per_layer_units))
        units = per_layer_units
    else:
        values = {
            "setup_s": statistics.median(setups),
            "chain_s": sum(command_s.values()),
            "peak_rss_mb": max(command_medians(plain, "rss_mb").values()),
        }
        units = end_to_end_units
    meta = metadata(args)
    meta["passes"] = len(passes)
    meta["command_s"] = command_s
    print(json.dumps({"meta": meta}))
    result = {
        "correct": not failures,
        "attempted": sum(len(p["times"]) for p in passes),
        "failed": len(failures),
        # A per-layer metric of a layer or command this workload does not run reads 0.
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
