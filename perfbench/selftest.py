#!/usr/bin/env python3
"""Checker self-test: every check must reject an output with one value perturbed.

    python3 perfbench/selftest.py [--seed N]

Runs each workload's chain once from the root of a source checkout,
requires every check to accept the real outputs, then hands each check
copies of its command's report or output file with one value changed and
requires it to reject every one. Exits 1 if a check accepts a real output
or fails to reject a perturbed one; this shows the checks are not vacuous.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path
from typing import Callable

import checks
import run
from workloads import WORKLOADS, Outputs

Undo = list[Callable[[], None]]
Perturb = Callable[[dict, Path, Undo], None]


def in_report(edit: Callable[[dict], None]) -> Perturb:
    return lambda report, workdir, undo: edit(report)


def in_file(name: str, edit: Callable[[list[str]], None]) -> Perturb:
    """Edit the lines of an output file; the original is restored afterwards."""

    def apply(report: dict, workdir: Path, undo: Undo) -> None:
        path = workdir / name
        original = path.read_text(encoding="utf-8")
        undo.append(lambda: path.write_text(original, encoding="utf-8"))
        lines = original.splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    return apply


def scale(key: str, factor: float) -> Perturb:
    def edit(report: dict) -> None:
        report[key] *= factor

    return in_report(edit)


def shift(key: str, delta: float) -> Perturb:
    def edit(report: dict) -> None:
        report[key] += delta

    return in_report(edit)


def set_to(key: str, value: float) -> Perturb:
    return in_report(lambda report: report.__setitem__(key, value))


def flip_bit(index: int) -> Callable[[list[str]], None]:
    def edit(lines: list[str]) -> None:
        lines[index] = "1" if lines[index] == "0" else "0"

    return edit


def swap_rows(i: int, j: int) -> Callable[[list[str]], None]:
    def edit(lines: list[str]) -> None:
        lines[i], lines[j] = lines[j], lines[i]

    return edit


def bump_csv_field(row: int, column: int) -> Callable[[list[str]], None]:
    def edit(lines: list[str]) -> None:
        fields = lines[row].split(",")
        fields[column] = str(int(fields[column]) + 1)
        lines[row] = ",".join(fields)

    return edit


def shift_first_correlator(report: dict) -> None:
    cell = next(iter(report["correlators"].values()))
    cell["e"] += 1e-6


def drop_one_run(report: dict) -> None:
    first = next(iter(report["by_strategy"].values()))
    first["runs"] -= 1


PERTURBATIONS: dict[str, list[tuple[str, str, Perturb]]] = {
    "analysis-chain": [
        ("simulate-reference", "k off by one", shift("k", 1)),
        ("analyze-reference", "k off by one", shift("k", 1)),
        ("analyze-reference", "p_complete scaled by 1.01", scale("p_complete", 1.01)),
        ("analyze-reference", "p_conventional scaled by 1.01", scale("p_conventional", 1.01)),
        ("analyze-reference", "one correlator E shifted by 1e-6", in_report(shift_first_correlator)),
        ("simulate", "wins off by one", shift("wins", 1)),
        ("simulate", "win rate above 3/4 + 5 sigma", set_to("win_rate", 0.8)),
        ("analyze-lhv", "s_weighted shifted by 1e-6", shift("s_weighted", 1e-6)),
        ("bound", "tau curve rows swapped", in_file("curve.csv", swap_rows(1, 6))),
        ("bound", "beta_expanded above beta_lemma", shift("beta_expanded", 1e-3)),
        ("combine-merge", "p scaled by 1.01", scale("p", 1.01)),
        ("combine-fisher", "p scaled by 1.01", scale("p", 1.01)),
    ],
    "herald-sweep": [
        ("herald-synth", "detection count off by one", shift("detections", 1)),
        ("herald-sweep", "one sweep row's n changed", in_file("sweep.csv", bump_csv_field(3, 3))),
        ("herald-sweep", "one sweep row's k changed", in_file("sweep.csv", bump_csv_field(1, 4))),
    ],
    "audits": [
        ("audit-small", "p_rng_a scaled by 1.01", scale("p_rng_a", 1.01)),
        ("audit-small", "p_joint_lee off the paper's 0.13 +- 0.02", set_to("p_joint_lee", 0.16)),
        ("audit-small", "p_threshold off the paper's 0.021 +- 0.008", set_to("p_threshold", 0.012)),
        ("audit-large", "p_independence scaled by 1.01", scale("p_independence", 1.01)),
        ("audit-large", "p_threshold above alpha", set_to("p_threshold", 0.051)),
        ("adversary", "one strategy's run count off by one", in_report(drop_one_run)),
        ("rng-extract", "one extracted bit flipped", in_file("bits.txt", flip_bit(0))),
        ("rng-bias", "uncertainty scaled by 1.01", scale("uncertainty", 1.01)),
        ("rng-combine", "one combined bit flipped", in_file("combined.txt", flip_bit(-1))),
        ("rng-independence", "p scaled by 1.01", scale("p", 1.01)),
    ],
}


def self_test(workload_name: str, seed: int) -> list[str]:
    """Problems found for one workload; empty when every check behaves."""
    workload = WORKLOADS[workload_name]
    workdir = run.BUILD / "selftest" / workload_name
    shutil.rmtree(workdir, ignore_errors=True)
    env = run.child_env()
    try:
        deadline = time.perf_counter() + run.DEADLINE_MARGIN_S
        run.set_up(workload, workdir, seed, env, deadline)
        result = run.run_pass(workload, seed, workdir, env, False, deadline)
        if result["failures"]:
            return [f"real output rejected: {f}" for f in result["failures"]]
        commands = {c.key: c for c in workload.commands(seed)}
        problems = []
        for key, what, perturb in PERTURBATIONS[workload_name]:
            report = json.loads((workdir / f"{key}.out").read_text(encoding="utf-8"))
            undo: Undo = []
            try:
                perturb(report, workdir, undo)
                commands[key].check(report, Outputs(workdir))
                problems.append(f"{workload_name}/{key}: accepted ({what})")
            except checks.CheckFailed as exc:
                print(f"ok   {workload_name}/{key}: rejected {what}: {exc}")
            finally:
                for restore in undo:
                    restore()
        return problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    problems = [p for name in WORKLOADS for p in self_test(name, args.seed)]
    for problem in problems:
        print(f"FAIL {problem}")
    total = sum(len(v) for v in PERTURBATIONS.values())
    print(f"{total - len(problems)} of {total} perturbed outputs rejected" if not problems else "self-test failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
