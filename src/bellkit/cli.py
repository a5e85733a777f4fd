"""Command-line interface tying the analysis modules into reproducible runs.

Every command writes one JSON report, which embeds the tool version, the
seed and a hash of the resolved configuration: every option of the command
except --out, output paths included. Identical configuration and seed give
byte-identical output files.
A --config file supplies the command's defaults; each value is checked as
the same flag's would be. Every option changes the result: one that the
chosen mode would not read is an error. Exit codes: 0 success, 1 domain or
validation error, 2 I/O error.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import sys
import types
from typing import IO, Sequence

from . import __version__

# No command calls BLAS, yet numpy's OpenBLAS starts a spinning worker thread
# per extra core when numpy loads, about 70 ms of CPU on two cores. It reads
# this variable once, then, so it is set here, before any command can load
# numpy (perfbench's tracer walks the modules before main() runs), and not in
# bellkit/__init__.py, which leaves a library caller's environment alone.
# A value the caller set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _lazy_module(name: str) -> types.ModuleType:
    """bellkit.<name>, registered in sys.modules now and executed on first attribute access."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


# A command executes only the modules it touches, so --version, --help and
# usage errors load no numpy. `rngstream`, which no command calls directly,
# is registered too: whatever walks sys.modules after `import bellkit.cli`
# (perfbench's tracer) sees the whole package.
heralding, lhv, pvalues, randomness, settings_audit, trials_mod = map(
    _lazy_module, ("heralding", "lhv", "pvalues", "randomness", "settings_audit", "trials")
)
_lazy_module("rngstream")

COMBINE_CAVEAT = (
    "fisher treats the runs as independent tests; merge pools them into a single "
    "test. These are opposite extremes of how runs may relate, so quote the mode "
    "next to the number."
)

SWEEP_CAVEAT = (
    "swept P-values are local: scanning offsets multiplies hypotheses. p_bonferroni, "
    "min(1, m * p_local_min) over the m offsets scanned, bounds the global P-value."
)


class CliError(ValueError):
    """Usage or domain error surfaced with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliError(f"{self.prog}: {message}")


def _config_hash(params: dict[str, object]) -> str:
    canonical = json.dumps(params, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _report_envelope(command: argparse.ArgumentParser, args: argparse.Namespace, payload: dict) -> dict:
    """`payload` under the version, the seed and the hash of every option of `command` but --out."""
    params = {"seed": None}
    params.update((a.dest, getattr(args, a.dest)) for a in command._actions if a.dest not in ("out", "help"))
    return {
        "tool": "bellkit",
        "version": __version__,
        "command": command.prog.split(" ", 1)[1],
        "seed": params["seed"],
        "config_hash": _config_hash(params),
        **payload,
    }


def _emit(text: str, out: str | None) -> None:
    text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise CliError(f"could not parse {what}: {text!r}") from None


def _range_parts(text: str, number: type, what: str) -> tuple:
    """(start, stop, step) of a start:stop:step option, each converted by `number`."""
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError(f"expected start:stop:step, got {text!r}")
    try:
        return tuple(number(p) for p in parts)
    except ValueError:
        raise CliError(f"expected {what} in start:stop:step, got {text!r}") from None


def _parse_range(text: str) -> list[int]:
    """start:stop:step integers, either step sign, inclusive of stop when it lands on the grid."""
    start, stop, step = _range_parts(text, int, "integers")
    if step == 0:
        raise CliError("step must be nonzero")
    values = list(range(start, stop + (1 if step > 0 else -1), step))
    if not values:
        raise CliError(f"empty range {text!r}")
    return values


def _parse_float_range(text: str) -> list[float]:
    """start:stop:step numbers, positive step; a point past stop by at most 1e-12 is clamped to it."""
    start, stop, step = _range_parts(text, float, "numbers")
    if step <= 0:
        raise CliError("step must be positive")
    if not all(map(math.isfinite, (start, stop, step))):
        raise CliError(f"expected finite numbers in start:stop:step, got {text!r}")
    values = []
    k = 0
    while (value := start + k * step) <= stop + 1e-12:
        values.append(min(value, stop))
        k += 1
    if not values:
        raise CliError(f"empty range {text!r}")
    return values


# ---------------------------------------------------------------------------
# Subcommand implementations


def _cmd_analyze(args: argparse.Namespace) -> dict[str, object]:
    trialset = trials_mod.read_trials(args.trials)
    if len(trialset) == 0:
        raise CliError(f"{args.trials}: no trials")
    table = trialset.cells()
    k, n = table.k_n()
    estimate = trials_mod.chsh_s(table)
    beta = pvalues.beta_win_lemma(pvalues.BiasParams(f=args.f, tau=args.tau))
    cells = {
        f"tag={tag},a={a},b={b}": {"e": cell.e, "count": cell.count, "stderr": cell.stderr}
        for (tag, a, b), cell in sorted(table.correlators().items())
    }
    # sigma = 0 means every populated cell is perfectly correlated; the
    # Gaussian analysis is undefined there and reported as missing.
    p_conventional = (
        pvalues.pvalue_conventional(estimate.s_weighted, estimate.sigma) if estimate.sigma > 0 else None
    )
    return {
        "n": n,
        "k": k,
        "s_psi_minus": estimate.s_psi_minus,
        "s_psi_plus": estimate.s_psi_plus,
        "s_weighted": estimate.s_weighted,
        "sigma": estimate.sigma,
        "n_psi_minus": estimate.n_psi_minus,
        "n_psi_plus": estimate.n_psi_plus,
        "correlators": cells,
        "beta": beta,
        "p_conventional": p_conventional,
        "p_complete": pvalues.pvalue_complete(n, k, beta),
    }


def _cmd_combine(args: argparse.Namespace) -> dict[str, object]:
    if args.mode == "fisher":
        # Each mode reads its own options; one given to the other mode would be ignored.
        for flag, given in (("--counts", args.counts is not None), ("--f", args.f != 0.0), ("--tau", args.tau != 0.0)):
            if given:
                raise CliError(f"{flag} needs --mode merge")
        if not args.pvalues:
            raise CliError("--pvalues is required for fisher mode")
        try:
            p_list = [float(p) for p in args.pvalues.split(",")]
        except ValueError:
            raise CliError(f"could not parse --pvalues: {args.pvalues!r}") from None
        if len(p_list) < 2:
            raise CliError("fisher mode needs at least two P-values")
        return {
            "method": "fisher",
            "p": pvalues.fisher_combine(p_list),
            "inputs": {"pvalues": p_list},
            "note": COMBINE_CAVEAT,
        }
    if args.pvalues is not None:
        raise CliError("--pvalues needs --mode fisher")
    if not args.counts:
        raise CliError("--counts is required for merge mode")
    pairs = []
    for chunk in args.counts.split(","):
        bits = chunk.split(":")
        if len(bits) != 2:
            raise CliError(f"expected n:k pairs in --counts, got {chunk!r}")
        try:
            run_n, run_k = int(bits[0]), int(bits[1])
        except ValueError:
            raise CliError(f"could not parse --counts: {args.counts!r}") from None
        if run_n < 1 or not 0 <= run_k <= run_n:
            raise CliError(f"--counts pair {chunk!r} needs n >= 1 and 0 <= k <= n")
        pairs.append((run_n, run_k))
    n = sum(p[0] for p in pairs)
    k = sum(p[1] for p in pairs)
    beta = pvalues.beta_win_lemma(pvalues.BiasParams(f=args.f, tau=args.tau))
    return {
        "method": "merged",
        "p": pvalues.pvalue_complete(n, k, beta),
        "inputs": {"pairs": pairs, "n": n, "k": k, "beta": beta},
        "note": COMBINE_CAVEAT,
    }


def _cmd_bound(args: argparse.Namespace) -> dict[str, object]:
    if args.n is not None and args.k is None:
        raise CliError("--n needs --k")
    if args.k is not None and args.n is None:
        raise CliError("--k needs --n")
    if args.tau_grid and args.n is None:
        raise CliError("--tau-grid needs --n and --k")
    if args.curve_out and not args.tau_grid:
        raise CliError("--curve-out needs --tau-grid")
    bias = pvalues.BiasParams(f=args.f, tau=args.tau)
    beta = pvalues.beta_win_lemma(bias)
    # beta_expanded is printed for comparison only; no P-value uses it (see bellkit.pvalues).
    payload: dict[str, object] = {
        "f": args.f,
        "tau": args.tau,
        "beta_lemma": beta,
        "beta_expanded": pvalues.beta_win_expanded(bias),
    }
    if args.n is not None:
        payload["p_complete"] = pvalues.pvalue_complete(args.n, args.k, beta)
        if args.tau_grid:
            curve = pvalues.pvalue_vs_tau_curve(args.n, args.k, _parse_float_range(args.tau_grid), f=args.f)
            if args.curve_out:
                pvalues.write_curve_csv(args.curve_out, curve)
                payload["curve_file"] = args.curve_out
            else:
                payload["curve"] = [[tau, p] for tau, p in curve]
    return payload


def _cmd_simulate(args: argparse.Namespace) -> dict[str, object]:
    strategy = lhv.make_strategy(args.strategy)
    bias = pvalues.BiasParams(f=args.f, tau=args.tau)
    trialset, stats = lhv.simulate_with_stats(strategy, bias, args.attempts, args.seed)
    if args.trials_out:
        trials_mod.write_trials(args.trials_out, trialset)
    return {
        "strategy": args.strategy,
        "attempts": stats.attempts,
        "heralded": stats.heralded,
        "wins": stats.wins,
        "win_rate": stats.win_rate,
        "early_a": stats.early_a,
        "early_b": stats.early_b,
        "trials_file": args.trials_out,
    }


def _cmd_simulate_reference(args: argparse.Namespace) -> dict[str, object]:
    win_prob: dict[int, float] = {}
    if args.win_prob_minus is not None:
        win_prob[trials_mod.HERALD_PSI_MINUS] = args.win_prob_minus
    if args.win_prob_plus is not None:
        win_prob[trials_mod.HERALD_PSI_PLUS] = args.win_prob_plus
    if not win_prob:
        raise CliError("need --win-prob-minus and/or --win-prob-plus")
    trialset = lhv.simulate_reference(win_prob, herald_rate=args.herald_rate, attempts=args.attempts, seed=args.seed)
    if args.trials_out:
        trials_mod.write_trials(args.trials_out, trialset)
    k, n = trials_mod.aggregate(trialset)
    return {"attempts": args.attempts, "n": n, "k": k, "trials_file": args.trials_out}


def _cmd_adversary(args: argparse.Namespace) -> dict[str, object]:
    names = args.strategies.split(",") if args.strategies is not None else None
    report = lhv.adversary_suite(
        n=args.n,
        runs=args.runs,
        alpha=args.alpha,
        seed=args.seed,
        f=args.f,
        tau=args.tau,
        strategies=names,
    )
    return report.to_dict()


def _json_object(source: IO[str], what: str) -> dict:
    """The JSON object read from `source`; malformed JSON or another value raise."""
    try:
        data = json.load(source)
    except json.JSONDecodeError as exc:
        raise CliError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise CliError(f"{what} must be a JSON object")
    return data


def _load_windows(path: str | None) -> heralding.WindowConfig:
    if path is None:
        return heralding.WindowConfig()
    with pvalues._reading(path) as source:
        return heralding.WindowConfig.from_dict(_json_object(source, "window config"))


def _cmd_herald_synth(args: argparse.Namespace) -> dict[str, object]:
    windows = _load_windows(args.window_config)
    stream_params = heralding.StreamParams(
        decay_ps=args.decay_ps,
        reflection_amplitude=args.reflection_amplitude,
        reflection_center_ps=args.reflection_center_ps,
        reflection_sigma_ps=args.reflection_sigma_ps,
        afterpulse_prob=args.afterpulse_prob,
        dark_rate=args.dark_rate,
    )
    events, records = heralding.synth_experiment(
        stream_params,
        windows,
        attempts=args.attempts,
        seed=args.seed,
        entangle_prob=args.entangle_prob,
    )
    heralding.write_attempts(args.attempts_out, records)
    heralding.write_detections(args.detections_out, events)
    return {
        "attempts": args.attempts,
        "detections": len(events),
        "detections_file": args.detections_out,
        "attempts_file": args.attempts_out,
    }


def _cmd_herald_sweep(args: argparse.Namespace) -> dict[str, object]:
    windows = _load_windows(args.window_config)
    events = heralding.read_detections(args.detections)
    records = heralding.read_attempts(args.attempts)
    offsets = _parse_range(args.offsets)
    rows = heralding.sweep(events, records, windows, offsets, beta=args.beta)
    heralding.write_sweep_csv(args.sweep_out, rows)
    local = [(row.p_local, row.offset_ps) for row in rows if row.p_local is not None]
    p_min, p_min_offset = min(local) if local else (None, None)
    return {
        "offsets": offsets,
        "rows": len(rows),
        "attempts": len(records),
        "detections": len(events),
        "herald_counts": [
            {
                "offset_ps": row.offset_ps,
                "heralded": row.n,
                "extra_click": row.extra_click,
                "missing_round": row.missing_round,
                "no_click": row.no_click,
            }
            for row in rows
        ],
        "p_local_min": p_min,
        "p_local_min_offset_ps": p_min_offset,
        "p_bonferroni": None if p_min is None else min(1.0, len(rows) * p_min),
        "sweep_file": args.sweep_out,
        "note": SWEEP_CAVEAT,
    }


def _cmd_rng_extract(args: argparse.Namespace) -> dict[str, object]:
    with open(args.messages, "rb") as handle:
        data = handle.read()
    try:
        stream = randomness.extract_bits(data)
    except ValueError as exc:
        raise CliError(f"{args.messages}: {exc}") from None
    randomness.write_bits(args.bits_out, stream)
    return {"messages": len(stream), "bits": len(stream), "bits_file": args.bits_out}


def _cmd_rng_bias(args: argparse.Namespace) -> dict[str, object]:
    stream = randomness.read_bits(args.bits)
    unused = 0
    try:  # each check here is of the file's number of bits
        if args.block8:
            unused = len(stream) % 8
            stream = randomness.block8(stream)
        estimate = randomness.estimate_bias(stream)
    except ValueError as exc:
        raise CliError(f"{args.bits}: {exc}") from None
    return {
        "n": estimate.n,
        "bias": estimate.bias,
        "uncertainty": estimate.uncertainty,
        "block8": args.block8,
        "unused_bits": unused,
    }


def _cmd_rng_combine(args: argparse.Namespace) -> dict[str, object]:
    classical = randomness.read_bits(args.classical)
    quantum = randomness.read_bits(args.quantum)
    combined = randomness.combine_streams(classical, quantum)
    randomness.write_bits(args.bits_out, combined)
    return {"bits": len(combined), "bits_file": args.bits_out}


def _cmd_rng_independence(args: argparse.Namespace) -> dict[str, object]:
    stream_a = randomness.read_bits(args.a)
    stream_b = randomness.read_bits(args.b)
    for path, stream in ((args.a, stream_a), (args.b, stream_b)):
        if len(stream) == 0:
            raise CliError(f"{path}: cannot test empty streams")
    p = randomness.independence_test(stream_a, stream_b)
    return {"n": len(stream_a), "p": p}


def _cmd_audit(args: argparse.Namespace) -> dict[str, object]:
    if (args.counts is None) == (args.settings is None):
        raise CliError("provide exactly one of --counts or --settings")
    if args.settings is not None:
        counts = settings_audit.read_settings_stream(args.settings)
        if counts.total == 0:
            raise CliError(f"{args.settings}: need at least one event")
    else:
        values = _parse_int_list(args.counts, "--counts")
        if len(values) != 4:
            raise CliError(f"--counts needs exactly four values, got {len(values)}")
        counts = settings_audit.SettingCounts(*values)
    row = settings_audit.audit_row(counts, seed=args.seed, lee_reps=args.lee_reps, alpha=args.alpha)
    return row.to_dict()


# ---------------------------------------------------------------------------
# Parser assembly


def _add_common(parser: argparse.ArgumentParser, seed: bool = True) -> None:
    parser.add_argument("--out", default=None, help="report file (default stdout)")
    if seed:
        parser.add_argument("--seed", type=int, default=0, help="64-bit unsigned seed (default 0)")


def _command_parser(parser: argparse.ArgumentParser, args: argparse.Namespace) -> argparse.ArgumentParser:
    """The innermost subparser of the command that `args` was parsed for."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return _command_parser(action.choices[getattr(args, action.dest)], args)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bellkit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"bellkit {__version__}")
    parser.add_argument(
        "--config",
        default=None,
        help="JSON file of parameter defaults; explicit flags override",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="score a trial file: S, k, n, correlators, P-values")
    p.add_argument("trials", help="JSON-lines trial file")
    p.add_argument("--f", type=float, default=0.0, help="early-number probability bound")
    p.add_argument("--tau", type=float, default=0.0, help="mean bias bound")
    _add_common(p, seed=False)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("combine", help="combine runs: Fisher's method or merged counts")
    p.add_argument("--mode", choices=("fisher", "merge"), required=True)
    p.add_argument("--pvalues", default=None, help="comma-separated P-values (fisher mode)")
    p.add_argument("--counts", default=None, help="comma-separated n:k pairs (merge mode)")
    p.add_argument("--f", type=float, default=0.0)
    p.add_argument("--tau", type=float, default=0.0)
    _add_common(p, seed=False)
    p.set_defaults(func=_cmd_combine)

    p = sub.add_parser("bound", help="winning-probability bound, optional P-value curve")
    p.add_argument("--f", type=float, default=0.0)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--tau-grid", default=None, help="start:stop:step grid of tau values")
    p.add_argument("--curve-out", default=None, help="CSV file for the (tau, p) curve")
    _add_common(p, seed=False)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("simulate", help="run a local-hidden-variable strategy")
    p.add_argument("--strategy", default="classical-optimal", help="catalog name")
    p.add_argument("--attempts", type=int, required=True)
    p.add_argument("--f", type=float, default=0.0)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--trials-out", default=None, help="JSON-lines trial file to write")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("simulate-reference", help="i.i.d. synthetic experiment trials")
    p.add_argument("--win-prob-minus", type=float, default=None)
    p.add_argument("--win-prob-plus", type=float, default=None)
    p.add_argument("--herald-rate", type=float, default=1.0)
    p.add_argument("--attempts", type=int, required=True)
    p.add_argument("--trials-out", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_simulate_reference)

    p = sub.add_parser("adversary", help="false-rejection audit over the strategy catalog")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--f", type=float, default=0.0)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--strategies", default=None, help="comma-separated catalog names")
    _add_common(p)
    p.set_defaults(func=_cmd_adversary)

    herald = sub.add_parser("herald", help="heralding-window tools")
    herald_sub = herald.add_subparsers(dest="herald_command", required=True)

    p = herald_sub.add_parser("synth", help="generate synthetic detections and attempt records")
    p.add_argument("--attempts", type=int, required=True)
    p.add_argument("--window-config", default=None, help="JSON window config file")
    p.add_argument("--decay-ps", type=float, default=12_000.0)
    p.add_argument("--entangle-prob", type=float, default=0.3)
    p.add_argument("--reflection-amplitude", type=float, default=0.0)
    p.add_argument("--reflection-center-ps", type=float, default=-2_000.0)
    p.add_argument("--reflection-sigma-ps", type=float, default=250.0)
    p.add_argument("--afterpulse-prob", type=float, default=0.0)
    p.add_argument("--dark-rate", type=float, default=0.0)
    p.add_argument("--detections-out", required=True)
    p.add_argument("--attempts-out", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_herald_synth)

    p = herald_sub.add_parser("sweep", help="window-offset sweep of S, n and local P")
    p.add_argument("--detections", required=True, help="detections CSV")
    p.add_argument("--attempts", required=True, help="attempt records JSON-lines")
    p.add_argument("--window-config", default=None)
    p.add_argument("--offsets", required=True, help="start:stop:step in picoseconds")
    p.add_argument("--beta", type=float, default=0.75)
    p.add_argument("--sweep-out", required=True, help="sweep CSV file")
    _add_common(p, seed=False)
    p.set_defaults(func=_cmd_herald_sweep)

    rng = sub.add_parser("rng", help="randomness extraction tools")
    rng_sub = rng.add_subparsers(dest="rng_command", required=True)

    p = rng_sub.add_parser("extract", help="one parity bit per message line")
    p.add_argument("--messages", required=True)
    p.add_argument("--bits-out", required=True)
    _add_common(p, seed=False)
    p.set_defaults(func=_cmd_rng_extract)

    p = rng_sub.add_parser("bias", help="bias of a bit stream")
    p.add_argument("--bits", required=True)
    p.add_argument("--block8", action="store_true", help="XOR 8-bit blocks first; a last part-block is left unused")
    _add_common(p, seed=False)
    p.set_defaults(func=_cmd_rng_bias)

    p = rng_sub.add_parser("combine", help="XOR 8 classical bits with 1 quantum bit")
    p.add_argument("--classical", required=True)
    p.add_argument("--quantum", required=True)
    p.add_argument("--bits-out", required=True)
    _add_common(p, seed=False)
    p.set_defaults(func=_cmd_rng_combine)

    p = rng_sub.add_parser("independence", help="Fisher exact independence of two streams")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    _add_common(p, seed=False)
    p.set_defaults(func=_cmd_rng_independence)

    p = sub.add_parser(
        "audit",
        help="setting-choice uniformity audit with LEE correction",
        description="Up to 300 events every P-value is exact, and --lee-reps and --seed are only checked and "
        "reported; above 300 they set the Monte Carlo reference sample and look-elsewhere tape, and the per-test "
        "threshold is Bonferroni's alpha/4.",
    )
    p.add_argument("--counts", default=None, help="n00,n01,n10,n11")
    p.add_argument("--settings", default=None, help="raw settings stream (JSON-lines) to tabulate")
    p.add_argument("--lee-reps", type=int, default=10_000,
                   help="look-elsewhere tape size above 300 events, at least 1000 (default 10000)")
    p.add_argument("--alpha", type=float, default=0.05)
    _add_common(p)
    p.set_defaults(func=_cmd_audit)

    return parser


def _config_defaults(path: str, command: argparse.ArgumentParser) -> dict[str, object]:
    """The config file at `path` as defaults of `command`, each value checked as its flag would be."""
    options = {action.dest: action for action in command._actions if action.dest != "help"}
    defaults = {}
    with pvalues._reading(path) as source:
        config = _json_object(source, "config")
        unknown = sorted(set(key.replace("-", "_") for key in config) - set(options))
        if unknown:
            raise CliError(f"keys {unknown} name no option of {command.prog}")
        for key, value in config.items():
            action = options[key.replace("-", "_")]
            switch = action.nargs == 0  # a store_true flag such as --block8
            if isinstance(value, bool) != switch or not isinstance(value, (str, int, float)):
                expected = "true or false" if switch else "a string or a number"
                raise CliError(f"{key} must be {expected}, got {json.dumps(value)}")
            if not switch:
                try:
                    value = (action.type or str)(str(value))
                except ValueError:
                    raise CliError(f"{key}: invalid {action.type.__name__} value {value!r}") from None
                if action.choices is not None and value not in action.choices:
                    raise CliError(f"{key}: {value!r} is not one of {list(action.choices)}")
            defaults[action.dest] = value
    return defaults


def main(argv: Sequence[str] | None = None) -> int:
    """Parse, apply --config, run the command and write its report; the exit code."""
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
        command = _command_parser(parser, args)
        if args.config:
            # A config file supplies the command parser's defaults; explicit flags still win.
            command.set_defaults(**_config_defaults(args.config, command))
            args = parser.parse_args(argv)
        result = args.func(args)
        _emit(json.dumps(_report_envelope(command, args, result), indent=2, sort_keys=True), args.out)
        return 0
    except ValueError as exc:  # CliError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
