"""bellkit: statistics and simulation toolkit for event-ready CHSH Bell tests.

Subsystems:

* `trials`: trial data model, win scoring, correlators, CHSH S.
* `pvalues`: complete (memory-robust) and conventional P-values, the
  RNG-imperfection winning-probability bound, Fisher's method.
* `lhv`: local-hidden-variable adversary simulation and bound validation.
* `heralding`: detection-window classification, offset sweeps, synthetic
  photon streams.
* `randomness`: text-to-bit extraction, XOR whitening, bias and
  independence audits.
* `settings_audit`: setting-choice uniformity tests with look-elsewhere
  corrections.
* `cli`: the `bellkit` command-line interface.
"""

__version__ = "0.1.0"

from .pvalues import (  # noqa: F401
    BiasParams,
    PValueReport,
    beta_win,
    beta_win_expanded,
    beta_win_lemma,
    fisher_combine,
    pvalue_complete,
    pvalue_conventional,
    pvalue_vs_tau_curve,
)
from .trials import (  # noqa: F401
    ChshEstimate,
    TrialSet,
    aggregate,
    chsh_s,
    correlators,
    read_trials,
    win_indicator,
    write_trials,
)
from .settings_audit import lee_joint, lee_threshold  # noqa: F401
