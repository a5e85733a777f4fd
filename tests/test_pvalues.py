"""P-value engine: bound algebra, tails, Fisher's method, tau curves."""
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from bellkit.pvalues import (
    BiasParams,
    beta_win_expanded,
    beta_win_lemma,
    fisher_combine,
    pvalue_complete,
    pvalue_conventional,
    pvalue_vs_tau_curve,
)

from test_exact import binom_survival_oracle


class TestBiasParams:
    def test_domain(self):
        with pytest.raises(ValueError):
            BiasParams(f=-0.1)
        with pytest.raises(ValueError):
            BiasParams(f=1.1)
        with pytest.raises(ValueError):
            BiasParams(tau=0.6)


class TestBetaWinLemma:
    def test_perfect_rng_gives_classical_bound(self):
        assert beta_win_lemma(BiasParams(0.0, 0.0)) == 0.75

    def test_maximal_bias_gives_one(self):
        assert beta_win_lemma(BiasParams(0.0, 0.5)) == 1.0

    def test_always_early_gives_one(self):
        assert beta_win_lemma(BiasParams(1.0, 0.0)) == 1.0

    def test_small_f_matches_symbolic_expansion(self):
        # At tau = 0 the lemma form collapses to 3/4 + f - f^2 exactly.
        for f in (0.001, 0.01, 0.05, 0.2, 0.4):
            got = beta_win_lemma(BiasParams(f, 0.0))
            assert got == pytest.approx(0.75 + f - f * f, abs=1e-12)

    def test_zero_f_quadratic_in_tau(self):
        for tau in np.linspace(0.0, 0.5, 26):
            got = beta_win_lemma(BiasParams(0.0, float(tau)))
            assert got == pytest.approx(0.75 + tau - tau * tau, abs=1e-15)


class TestBetaWinExpanded:
    def test_trivial_points(self):
        assert beta_win_expanded(BiasParams(0.0, 0.0)) == 0.75
        assert beta_win_expanded(BiasParams(0.2, 0.0)) == pytest.approx(0.84, abs=1e-15)
        assert beta_win_expanded(BiasParams(0.0, 0.1)) == pytest.approx(0.84, abs=1e-15)

    def test_f_and_two_tau_on_equal_footing(self):
        for f in np.arange(0.0, 0.5001, 0.01):
            lhs = beta_win_expanded(BiasParams(float(f), 0.0))
            rhs = beta_win_expanded(BiasParams(0.0, float(f) / 2.0))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_lemma_dominates_expanded_on_grid(self):
        for f in np.linspace(0.0, 0.5, 26):
            for tau in np.linspace(0.0, 0.25, 26):
                params = BiasParams(float(f), float(tau))
                assert beta_win_lemma(params) >= beta_win_expanded(params) - 1e-12


class TestPvalueComplete:
    def test_tail_at_zero_is_one(self):
        assert pvalue_complete(10, 0, 0.75) == 1.0

    def test_two_of_two(self):
        assert pvalue_complete(2, 2, 0.75) == pytest.approx(0.5625, rel=1e-12, abs=0)

    def test_reference_run_values_against_exact_oracle(self):
        beta = Fraction(3, 4)
        cases = {(300, 237): 0.061, (545, 433): 0.0080, (245, 196): 0.039}
        for (n, k), approx in cases.items():
            got = pvalue_complete(n, k, 0.75)
            want = float(binom_survival_oracle(k, n, beta))
            assert got == pytest.approx(want, rel=1e-10, abs=0)
            assert got == pytest.approx(approx, abs=0.004)

    def test_monotone_in_beta(self):
        betas = np.linspace(0.6, 0.9, 16)
        values = [pvalue_complete(300, 237, float(b)) for b in betas]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_monotone_in_k(self):
        values = [pvalue_complete(300, k, 0.75) for k in range(0, 301)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_direct_summation_oracle_medium_n(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(1, 1000))
            k = int(rng.integers(0, n + 1))
            got = pvalue_complete(n, k, 0.75)
            want = float(binom_survival_oracle(k, n, Fraction(3, 4)))
            assert got == pytest.approx(want, rel=1e-10, abs=0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            pvalue_complete(10, 11, 0.75)
        with pytest.raises(ValueError):
            pvalue_complete(10, 5, 1.5)
        with pytest.raises(ValueError):
            pvalue_complete(10, 5, 0.0)
        with pytest.raises(ValueError):
            pvalue_complete(10, 11, 1.0)

    def test_beta_one_gives_one(self):
        # beta = 1 is the bound at tau = 1/2 or f = 1, corners BiasParams accepts.
        assert beta_win_lemma(BiasParams(tau=0.5)) == beta_win_lemma(BiasParams(f=1.0)) == 1.0
        assert [pvalue_complete(10, k, 1.0) for k in range(11)] == [1.0] * 11
        with pytest.raises(ValueError):
            pvalue_complete(10, 5.5, 0.75)


class TestPvalueConventional:
    def test_zero_z_score(self):
        assert pvalue_conventional(2.0, 0.18) == 0.5

    def test_combined_runs_value(self):
        assert pvalue_conventional(2.38, 0.136) == pytest.approx(2.6e-3, abs=1e-4)

    def test_second_run_from_rounded_inputs(self):
        # Phi tail at z = 0.35 / 0.18 = 1.9444.
        got = pvalue_conventional(2.35, 0.18)
        assert got == pytest.approx(float(stats.norm.sf(0.35 / 0.18)), rel=1e-12, abs=0)
        assert got == pytest.approx(0.0259, abs=2e-4)

    def test_sigma_domain(self):
        with pytest.raises(ValueError):
            pvalue_conventional(2.35, 0.0)
        with pytest.raises(ValueError):
            pvalue_conventional(2.35, -1.0)


class TestFisherCombine:
    def test_all_ones(self):
        for m in range(1, 7):
            assert fisher_combine([1.0] * m) == 1.0

    def test_single_p_identity(self):
        for p in (0.05, 0.3, 0.9):
            assert fisher_combine([p]) == pytest.approx(p, rel=1e-12, abs=0)

    def test_reference_combination(self):
        assert fisher_combine([0.039, 0.061]) == pytest.approx(0.017, abs=5e-4)

    def test_matches_scipy_chi2(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            ps = rng.uniform(0.001, 1.0, size=int(rng.integers(1, 6)))
            statistic = -2.0 * np.sum(np.log(ps))
            want = float(stats.chi2.sf(statistic, 2 * len(ps)))
            assert fisher_combine([float(p) for p in ps]) == pytest.approx(want, rel=1e-10, abs=0)

    def test_domain(self):
        with pytest.raises(ValueError):
            fisher_combine([])
        with pytest.raises(ValueError):
            fisher_combine([0.5, 0.0])
        with pytest.raises(ValueError):
            fisher_combine([0.5, 1.2])


class TestTauCurve:
    def test_single_point_matches_pvalue_complete(self):
        curve = pvalue_vs_tau_curve(300, 237, [0.0])
        assert curve == [(0.0, pvalue_complete(300, 237, 0.75))]

    def test_nondecreasing_in_tau(self):
        grid = [0.0, 1e-4, 1e-3, 1e-2, 0.05, 0.1]
        curve = pvalue_vs_tau_curve(300, 237, grid)
        ps = [p for _, p in curve]
        assert ps[0] == pytest.approx(0.0606, abs=0.002)
        assert all(a <= b + 1e-15 for a, b in zip(ps, ps[1:]))

    def test_f_and_tau_match_when_beta_matches(self):
        # Solve 3/4 + tau - tau^2 = beta(f=1e-3, tau=0) for tau; identical
        # beta values must give identical P-values.
        f = 1e-3
        beta = beta_win_lemma(BiasParams(f, 0.0))
        tau_star = 0.5 * (1.0 - math.sqrt(1.0 - 4.0 * (beta - 0.75)))
        p_f = pvalue_vs_tau_curve(300, 237, [0.0], f=f)[0][1]
        p_tau = pvalue_vs_tau_curve(300, 237, [tau_star], f=0.0)[0][1]
        assert p_f == pytest.approx(p_tau, rel=1e-9, abs=0)

    def test_grid_validation_propagates(self):
        with pytest.raises(ValueError):
            pvalue_vs_tau_curve(300, 237, [0.6])

