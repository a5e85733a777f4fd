"""The benchmark's three workloads: inputs, command chains, checks and metrics.

A workload is a fixed chain of bellkit CLI commands. `make_inputs` writes
the files the benchmark generates itself into a fresh working directory;
`commands` lists the chain for a seed, each command with the independent
check of its output; `metrics` turns one pass's per-command wall times
into the workload's command metrics.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

# analysis-chain sizes.
REFERENCE_ATTEMPTS = 60_000
REFERENCE_HERALD_RATE = 0.3
REFERENCE_WIN_PROB = 0.78
LHV_ATTEMPTS = 30_000
BOUND_N, BOUND_K = 300, 237
TAU_GRID = "0:0.01:0.001"
TAUS = [i * 0.001 for i in range(11)]
MERGE_PAIRS = [(245, 196), (300, 237)]
FISHER_PVALUES = [0.039, 0.061]

# herald-sweep: the window-pollution scenario of acceptance criterion 9.
HERALD_ATTEMPTS = 30_000
WINDOWS = {
    "start_ch0_ps": 5_426_000,
    "start_ch1_ps": 5_425_100,
    "len_first_ps": 50_000,
    "len_second_ch0_ps": 4_000,
    "len_second_ch1_ps": 2_500,
    "second_window_offset_ps": 250_000,
}
SWEEP_STEP = 500
SWEEP_OFFSETS = list(range(-2000, 1, SWEEP_STEP))

# audits.
PAPER_COUNTS = (53, 79, 62, 51)
LARGE_AUDIT_N = 4000
ALPHA = 0.05
ADVERSARY_N, ADVERSARY_RUNS = 100, 2_000
LARGE_AUDIT_LEE_REPS = 2_000
MESSAGES = 139_952
MAX_MESSAGE_CHARS = 140
# Printable ASCII plus a few code points from the Latin-1, Greek, CJK and
# emoji ranges, so messages mix one- to four-byte UTF-8 characters.
MESSAGE_ALPHABET = np.array(
    list(range(32, 127)) + [0xE9, 0xFC, 0x3B1, 0x3C9, 0x4E2D, 0x6587, 0x1F600, 0x1F680], dtype="<u4"
)


class Outputs:
    """Files of one pass, read lazily and once, for the checks."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self._cache: dict[str, object] = {}

    def get(self, name: str, reader: Callable[[Path], object]) -> object:
        if name not in self._cache:
            self._cache[name] = reader(self.workdir / name)
        return self._cache[name]

    def trials(self, name: str) -> np.ndarray:
        return self.get(name, lambda p: checks.read_json_lines(p, checks.TRIAL_FIELDS))

    def attempts(self, name: str) -> np.ndarray:
        return self.get(name, lambda p: checks.read_json_lines(p, checks.ATTEMPT_FIELDS))

    def detections(self, name: str) -> np.ndarray:
        return self.get(name, checks.read_detections)

    def bits(self, name: str) -> np.ndarray:
        return self.get(name, checks.read_bit_lines)

    def message_bits(self, name: str) -> np.ndarray:
        return self.get(f"{name}#parity", lambda p: checks.message_bits(self.workdir / name))


Check = Callable[[dict, Outputs], None]


@dataclass(frozen=True)
class Command:
    """One CLI call, named by `key` within its workload."""

    key: str
    argv: tuple[str, ...]
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[Path, int], None]
    commands: Callable[[int], list[Command]]
    metrics: Callable[[dict[str, float]], dict[str, float]]


# ---------------------------------------------------------------------------
# analysis-chain


def _analysis_commands(seed: int) -> list[Command]:
    win = str(REFERENCE_WIN_PROB)
    return [
        Command(
            "simulate-reference",
            ("simulate-reference", "--attempts", str(REFERENCE_ATTEMPTS), "--herald-rate", str(REFERENCE_HERALD_RATE),
             "--win-prob-minus", win, "--win-prob-plus", win, "--seed", str(seed), "--trials-out", "reference.jsonl"),
            lambda r, o: checks.check_simulate_reference(r, o.trials("reference.jsonl"), REFERENCE_ATTEMPTS),
        ),
        Command("analyze-reference", ("analyze", "reference.jsonl"),
                lambda r, o: checks.check_analyze(r, o.trials("reference.jsonl"))),
        Command(
            "simulate",
            ("simulate", "--strategy", "herald-gating", "--attempts", str(LHV_ATTEMPTS), "--seed", str(seed),
             "--trials-out", "lhv.jsonl"),
            lambda r, o: checks.check_simulate(r, o.trials("lhv.jsonl"), LHV_ATTEMPTS),
        ),
        Command("analyze-lhv", ("analyze", "lhv.jsonl"), lambda r, o: checks.check_analyze(r, o.trials("lhv.jsonl"))),
        Command(
            "bound",
            ("bound", "--n", str(BOUND_N), "--k", str(BOUND_K), "--tau-grid", TAU_GRID, "--curve-out", "curve.csv"),
            lambda r, o: checks.check_bound(r, o.workdir / "curve.csv", BOUND_N, BOUND_K, TAUS),
        ),
        Command("combine-merge", ("combine", "--mode", "merge", "--counts", ",".join(f"{n}:{k}" for n, k in MERGE_PAIRS)),
                lambda r, o: checks.check_combine_merge(r, MERGE_PAIRS)),
        Command("combine-fisher", ("combine", "--mode", "fisher", "--pvalues", ",".join(map(str, FISHER_PVALUES))),
                lambda r, o: checks.check_combine_fisher(r, FISHER_PVALUES)),
    ]


def _analysis_metrics(t: dict[str, float]) -> dict[str, float]:
    quick = sorted(t[key] for key in ("bound", "combine-merge", "combine-fisher"))
    return {
        "generate_trials_per_s": REFERENCE_ATTEMPTS / t["simulate-reference"],
        "analyze_trials_per_s": (REFERENCE_ATTEMPTS + LHV_ATTEMPTS) / (t["analyze-reference"] + t["analyze-lhv"]),
        "lhv_simulate_attempts_per_s": LHV_ATTEMPTS / t["simulate"],
        "quick_command_s": quick[1],
    }


# ---------------------------------------------------------------------------
# herald-sweep


def _herald_inputs(workdir: Path, seed: int) -> None:
    (workdir / "windows.json").write_text(json.dumps(WINDOWS), encoding="utf-8")


def _herald_commands(seed: int) -> list[Command]:
    return [
        Command(
            "herald-synth",
            ("herald", "synth", "--attempts", str(HERALD_ATTEMPTS), "--seed", str(seed), "--window-config", "windows.json",
             "--entangle-prob", "0.55", "--decay-ps", "2500", "--reflection-amplitude", "2.0",
             "--reflection-center-ps=-1800", "--reflection-sigma-ps", "250", "--afterpulse-prob", "0.02",
             "--dark-rate", "0.005", "--detections-out", "detections.csv", "--attempts-out", "attempts.jsonl"),
            lambda r, o: checks.check_herald_synth(
                r, o.detections("detections.csv"), o.attempts("attempts.jsonl"), HERALD_ATTEMPTS),
        ),
        Command(
            "herald-sweep",
            ("herald", "sweep", "--detections", "detections.csv", "--attempts", "attempts.jsonl",
             "--window-config", "windows.json", f"--offsets={SWEEP_OFFSETS[0]}:{SWEEP_OFFSETS[-1]}:{SWEEP_STEP}",
             "--sweep-out", "sweep.csv"),
            lambda r, o: checks.check_herald_sweep(
                r, o.workdir / "sweep.csv", o.detections("detections.csv"), o.attempts("attempts.jsonl"),
                WINDOWS, SWEEP_OFFSETS),
        ),
    ]


def _herald_metrics(t: dict[str, float]) -> dict[str, float]:
    return {
        "synth_attempts_per_s": HERALD_ATTEMPTS / t["herald-synth"],
        "sweep_offsets_per_s": len(SWEEP_OFFSETS) / t["herald-sweep"],
    }


# ---------------------------------------------------------------------------
# audits


def large_audit_counts(seed: int) -> tuple[int, int, int, int]:
    """A near-uniform 2x2 setting table of LARGE_AUDIT_N events, from the seed."""
    draw = np.random.default_rng([seed, 4000]).multinomial(LARGE_AUDIT_N, [0.25] * 4)
    return tuple(int(c) for c in draw)


def _audit_inputs(workdir: Path, seed: int) -> None:
    """Message file (one message of 1..140 characters per line) and quantum bits."""
    rng = np.random.default_rng([seed, 140])
    lengths = rng.integers(1, MAX_MESSAGE_CHARS + 1, size=MESSAGES)
    ends = np.cumsum(lengths + 1) - 1
    codes = MESSAGE_ALPHABET[rng.integers(0, len(MESSAGE_ALPHABET), size=int(ends[-1]) + 1)]
    codes[ends] = ord("\n")
    text = codes.tobytes().decode("utf-32-le")
    (workdir / "messages.txt").write_text(text, encoding="utf-8")
    quantum = rng.integers(0, 2, size=MESSAGES // 8)
    (workdir / "quantum.txt").write_text("".join("01"[b] + "\n" for b in quantum.tolist()), encoding="ascii")


def _audit_commands(seed: int) -> list[Command]:
    large = large_audit_counts(seed)
    return [
        Command("audit-small", ("audit", "--counts", ",".join(map(str, PAPER_COUNTS)), "--seed", str(seed)),
                lambda r, o: checks.check_audit(r, PAPER_COUNTS, ALPHA, paper=True)),
        Command("audit-large", ("audit", "--counts", ",".join(map(str, large)), "--lee-reps", str(LARGE_AUDIT_LEE_REPS),
                                "--seed", str(seed)),
                lambda r, o: checks.check_audit(r, large, ALPHA, paper=False)),
        Command("adversary", ("adversary", "--n", str(ADVERSARY_N), "--runs", str(ADVERSARY_RUNS), "--seed", str(seed)),
                lambda r, o: checks.check_adversary(r, ADVERSARY_RUNS, ALPHA)),
        Command("rng-extract", ("rng", "extract", "--messages", "messages.txt", "--bits-out", "bits.txt"),
                lambda r, o: checks.check_rng_extract(r, o.bits("bits.txt"), o.message_bits("messages.txt"))),
        Command("rng-bias", ("rng", "bias", "--bits", "bits.txt", "--block8"),
                lambda r, o: checks.check_rng_bias(r, o.message_bits("messages.txt"))),
        Command("rng-combine", ("rng", "combine", "--classical", "bits.txt", "--quantum", "quantum.txt",
                                "--bits-out", "combined.txt"),
                lambda r, o: checks.check_rng_combine(
                    r, o.bits("combined.txt"), o.message_bits("messages.txt"), o.bits("quantum.txt"))),
        Command("rng-independence", ("rng", "independence", "--a", "combined.txt", "--b", "quantum.txt"),
                lambda r, o: checks.check_rng_independence(r, o.bits("combined.txt"), o.bits("quantum.txt"))),
    ]


def _audit_metrics(t: dict[str, float]) -> dict[str, float]:
    return {
        "audit_small_s": t["audit-small"],
        "audit_large_s": t["audit-large"],
        "adversary_runs_per_s": ADVERSARY_RUNS / t["adversary"],
        "rng_pipeline_s": sum(t[k] for k in ("rng-extract", "rng-bias", "rng-combine", "rng-independence")),
    }


def _no_inputs(workdir: Path, seed: int) -> None:
    pass


WORKLOADS = {
    w.name: w
    for w in (
        Workload("analysis-chain", _no_inputs, _analysis_commands, _analysis_metrics),
        Workload("herald-sweep", _herald_inputs, _herald_commands, _herald_metrics),
        Workload("audits", _audit_inputs, _audit_commands, _audit_metrics),
    )
}
