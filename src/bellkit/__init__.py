"""bellkit: statistics and simulation toolkit for event-ready CHSH Bell tests.

Subsystems:

* `trials`: trial data model, win scoring, correlators, CHSH S.
* `pvalues`: complete (memory-robust) and conventional P-values, the
  RNG-imperfection winning-probability bound, Fisher's method.
* `lhv`: local-hidden-variable adversary simulation and bound validation.
* `heralding`: detection-window classification, offset sweeps, a synthetic
  experiment.
* `randomness`: text-to-bit extraction, XOR whitening, bias and
  independence audits.
* `settings_audit`: setting-choice uniformity tests with look-elsewhere
  corrections.
* `cli`: the `bellkit` command-line interface.

`import bellkit` loads neither numpy nor any of these modules: each name
in `__all__` is imported from its module on first access. The CLI executes
a module only when a command first uses it. `bellkit --version`, `--help`,
a usage error, `bound`, `combine` and the four `rng` commands load no
numpy: `pvalues` runs on `math` alone and `randomness` on `bytes` and
`int`. A command executes its own module and, through it, only what it
calls of `trials`, `pvalues` and `rngstream`:

* `analyze`, `combine`, `bound`: `pvalues` (and `trials` for `analyze`);
* `simulate`, `simulate-reference`, `adversary`: `lhv`;
* `herald synth`, `herald sweep`: `heralding`;
* `rng extract`, `bias`, `combine`, `independence`: `randomness` and
  `pvalues`, and nothing else;
* `audit`: `settings_audit`.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "pvalues": (
        "BiasParams",
        "beta_win_expanded",
        "beta_win_lemma",
        "fisher_combine",
        "pvalue_complete",
        "pvalue_conventional",
        "pvalue_vs_tau_curve",
    ),
    "trials": (
        "ChshEstimate",
        "TrialSet",
        "aggregate",
        "chsh_s",
        "correlators",
        "read_trials",
        "win_indicator",
        "write_trials",
    ),
    "settings_audit": ("look_elsewhere",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
