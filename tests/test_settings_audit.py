"""Setting-choice uniformity tests and look-elsewhere machinery."""
import dataclasses
import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import fisher_exact

from bellkit import pvalues
from bellkit import settings_audit as sa
from bellkit.settings_audit import (
    McPValue,
    SettingCounts,
    audit_row,
    fisher_2x2,
    look_elsewhere,
)

import oracles
from oracles import binom_two_sided_oracle, fisher_two_sided_oracle

FIRST_RUN = SettingCounts(53, 79, 62, 51)
# Just above the enumeration limit, where the look-elsewhere law is a tape.
ABOVE_LIMIT = SettingCounts(80, 75, 78, 82)


class TestSettingCounts:
    def test_totals_and_marginals(self):
        assert FIRST_RUN.total == 245
        assert FIRST_RUN.marginal_a == 113
        assert FIRST_RUN.marginal_b == 130

    def test_from_pairs(self):
        counts = SettingCounts.from_pairs([(0, 0), (0, 1), (0, 1), (1, 1)])
        assert (counts.n00, counts.n01, counts.n10, counts.n11) == (1, 2, 0, 1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SettingCounts(-1, 0, 0, 0)

    @pytest.mark.parametrize("value", [53.0, True])
    def test_rejects_a_count_that_is_not_an_integer(self, value):
        with pytest.raises(ValueError, match=f"^n00 must be a nonnegative integer, got {value!r}$"):
            SettingCounts(value, 79, 62, 51)

    def test_stores_numpy_integers_as_int(self):
        counts = SettingCounts(np.int64(53), 79, np.uint8(62), 51)
        assert counts == FIRST_RUN
        assert type(counts.n00) is int and type(counts.n10) is int and type(counts.total) is int


class TestBinomUniform:
    """The marginal tests audit_row makes: pvalues.binom_two_sided on each side's count of setting 1."""

    def test_most_balanced_split_is_one(self):
        counts = SettingCounts(61, 61, 61, 62)  # marginal A = 123 of 245
        assert pvalues.binom_two_sided(counts.marginal_a, counts.total) == pytest.approx(1.0, abs=1e-12)

    def test_first_run_marginals_match_exact_oracle(self):
        half = Fraction(1, 2)
        want_a = float(binom_two_sided_oracle(113, 245, half))
        want_b = float(binom_two_sided_oracle(130, 245, half))
        assert pvalues.binom_two_sided(FIRST_RUN.marginal_a, 245) == pytest.approx(want_a, rel=1e-12, abs=0)
        assert pvalues.binom_two_sided(FIRST_RUN.marginal_b, 245) == pytest.approx(want_b, rel=1e-12, abs=0)

    def test_extreme_marginal(self):
        counts = SettingCounts(0, 0, 122, 123)  # marginal A = 245 of 245
        assert pvalues.binom_two_sided(counts.marginal_a, 245) == pytest.approx(2.0 * 0.5**245, rel=1e-10, abs=0)


def tape(n, reps, seed):
    """The look-elsewhere tape of `reps` tables from `seed`: the audit's own above n = 300, the one it drew below."""
    if n <= sa._ENUMERATION_LIMIT:
        return oracles.lee_tape(n, reps, seed)
    return sa._lee_local_pvalues(n, reps, seed, sa._uniform4_sample(n, reps, seed))


def joint_uniform(counts, reps=1000, seed=0):
    """The audit's joint-uniformity P-value of `counts`, on the null built from `reps` and `seed`."""
    return sa._joint_uniform_pvalue(counts, sa._null(counts.total, reps, seed))


def joint_uniform_oracle(cells):
    """Probability, as a Fraction, that a Multinomial(n; 1/4 each) table is no more probable than `cells`."""
    n = sum(cells)

    def prob(table):
        return Fraction(math.factorial(n), math.prod(math.factorial(c) for c in table) * 4**n)

    tables = (t for t in itertools.product(range(n + 1), repeat=3) if sum(t) <= n)
    observed = prob(cells)
    return sum(p for p in (prob((*t, n - sum(t))) for t in tables) if p <= observed)


class TestJointUniform:
    """p_joint_uniform: the observed table scored against the null that scores the look-elsewhere tape."""

    def test_balanced_counts_near_one(self):
        result = joint_uniform(SettingCounts(61, 61, 61, 62))
        assert result.p > 0.97 and result.mc_error == 0.0

    def test_corner_table_is_the_four_corners_mass(self):
        result = joint_uniform(SettingCounts(245, 0, 0, 0))
        assert result.p == pytest.approx(float(4 * Fraction(1, 4) ** 245), rel=1e-12, abs=0)
        assert result.mc_error == 0.0

    def test_extreme_table_above_the_enumeration_limit(self):
        # No reference table is as extreme, and the estimate counts the observed table as one.
        result = joint_uniform(SettingCounts(400, 0, 0, 0), reps=1000, seed=2)
        p = 1 / (1 + 100_000)
        assert result == McPValue(p=p, mc_error=math.sqrt(p * (1 - p) / 100_000))

    def test_first_run_is_the_enumerated_value(self):
        result = joint_uniform(FIRST_RUN)
        assert result.p == pytest.approx(0.05309022675084, rel=0, abs=1e-12)
        assert result.mc_error == 0.0

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_every_table_against_fraction_enumeration(self, n):
        null = sa._null(n, 1000, 0)
        for t in itertools.product(range(n + 1), repeat=3):
            if sum(t) <= n:
                cells = (*t, n - sum(t))
                got = sa._joint_uniform_pvalue(SettingCounts(*cells), null)
                assert got.p == pytest.approx(float(joint_uniform_oracle(cells)), rel=1e-12, abs=0), cells

    def test_reference_sample_agrees_with_the_enumeration(self):
        # Just above the limit the reference sample stands in for the enumeration it no longer makes.
        counts = SettingCounts(65, 90, 76, 70)
        exact = sa._joint_uniform_pvalue(counts, sa._ExactNull(counts.total)).p
        estimate = joint_uniform(counts, seed=3)
        assert estimate.mc_error > 0.0
        assert abs(estimate.p - exact) <= 4.0 * estimate.mc_error


class TestFisher2x2:
    def test_first_run_value(self):
        assert fisher_2x2(FIRST_RUN) == pytest.approx(0.029, abs=0.002)

    def test_balanced_table(self):
        assert fisher_2x2(SettingCounts(10, 10, 10, 10)) == 1.0

    def test_diagonal_against_enumeration(self):
        got = fisher_2x2(SettingCounts(5, 0, 0, 5))
        want = float(fisher_two_sided_oracle(5, 0, 0, 5))
        assert got == pytest.approx(want, rel=1e-12, abs=0)
        assert got == pytest.approx(1 / 126, rel=1e-12, abs=0)

    def test_small_tables_against_enumeration(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            cells = [int(c) for c in rng.integers(0, 15, size=4)]
            if sum(cells) == 0:
                continue
            got = fisher_2x2(SettingCounts(*cells))
            want = float(fisher_two_sided_oracle(*cells))
            assert got == pytest.approx(want, rel=1e-12, abs=0), cells

    def test_degenerate_margin_is_one(self):
        assert fisher_2x2(SettingCounts(0, 0, 5, 7)) == 1.0


class TestCalibration:
    @pytest.mark.parametrize("seed", [8, 21])
    def test_exact_tests_super_uniform_under_null(self, seed):
        # Under uniform settings Pr[p <= alpha] <= alpha for the exact tests.
        pvals = tape(101, 4000, seed)
        for alpha in (0.01, 0.05, 0.1, 0.3):
            for column in range(4):
                rate = float(np.mean(pvals[:, column] <= alpha))
                mc = 3.0 * math.sqrt(alpha * (1 - alpha) / len(pvals))
                assert rate <= alpha + mc, (alpha, column, rate)


class TestLookElsewhere:
    def test_one_tape_gives_both_values(self, monkeypatch):
        # Above n = 300, where the law is a tape.
        calls = []
        tape = sa._lee_local_pvalues

        def counted(*args):
            calls.append(args)
            return tape(*args)

        monkeypatch.setattr(sa, "_lee_local_pvalues", counted)
        joint, threshold = look_elsewhere(400, 0.05, reps=2000, seed=5)
        assert [args[:3] for args in calls] == [(400, 2000, 5)]
        min_p = tape(400, 2000, 5, calls[0][3]).min(axis=1)
        p = float(np.mean(min_p < 0.05))
        assert joint == McPValue(p=p, mc_error=math.sqrt(p * (1 - p) / 2000))
        assert threshold == sa._threshold_quantile(min_p, 0.05)

    @pytest.mark.parametrize("alpha", [-0.1, 1.5, math.nan])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must lie in"):
            look_elsewhere(245, alpha, reps=2000, seed=0)

    def test_checks_come_before_the_null(self, monkeypatch):
        # The exact law at n = 300, or the reference sample of 100,000 tables above it.
        def no_null(*args):
            raise AssertionError("the null was built")

        monkeypatch.setattr(sa, "_ExactNull", no_null)
        monkeypatch.setattr(sa, "_uniform4_sample", no_null)
        for counts in (SettingCounts(75, 75, 75, 75), ABOVE_LIMIT):
            n = counts.total
            for alpha, reps, message in ((1.5, 1000, "alpha must lie in"), (0.05, 10, "need at least 1000")):
                with pytest.raises(ValueError, match=message):
                    look_elsewhere(n, alpha, reps=reps, seed=0)
                with pytest.raises(ValueError, match=message):
                    audit_row(counts, seed=0, lee_reps=reps, alpha=alpha)
            assert look_elsewhere(n, 1.0, reps=1000, seed=0) == (McPValue(p=1.0, mc_error=0.0), 1.0)

    def test_tape_scores_independence_with_fisher_above_the_old_switch(self):
        # Pearson's chi-squared scored the tape from n = 5,000 until Fisher's test took every n.
        draws = sa.rngstream.stream(7, 0).multinomial(6000, [0.25] * 4, size=1000)
        assert np.array_equal(tape(6000, 1000, 7)[:, 3], sa.fisher_two_sided_tables(draws))


class TestLeeJoint:
    """The joint rejection probability, look_elsewhere's first value."""

    def test_alpha_one_rejects_by_convention(self, monkeypatch):
        # A threshold of 1 rejects every table, with no law computed and no tape drawn.
        monkeypatch.setattr(sa, "_null", None)
        monkeypatch.setattr(sa, "_lee_local_pvalues", None)
        for n in (245, 400):
            assert look_elsewhere(n, 1.0, reps=2000, seed=0)[0] == McPValue(p=1.0, mc_error=0.0)

    def test_monotone_in_alpha_common_random_numbers(self):
        values = [look_elsewhere(60, a, reps=2000, seed=5)[0].p for a in (0.01, 0.02, 0.05, 0.1, 0.2)]
        assert all(x <= y + 1e-15 for x, y in zip(values, values[1:]))

    def test_bonferroni_sandwich(self):
        pvals = tape(60, 3000, 6)
        alpha = 0.05
        singles = [float(np.mean(pvals[:, j] < alpha)) for j in range(4)]
        joint = float(np.mean(pvals.min(axis=1) < alpha))
        assert max(singles) <= joint <= sum(singles) + 1e-12

    def test_independent_ideal_reference(self):
        # Four independent continuous tests at alpha = 0.05 would reject at
        # 1 - 0.95^4 = 0.18; the correlated Monte Carlo value sits below it.
        ideal = 1.0 - (1.0 - 0.05) ** 4
        assert ideal == pytest.approx(0.18549, abs=1e-4)
        joint = look_elsewhere(245, 0.05, reps=4000, seed=7)[0].p
        assert joint < ideal

    def test_reps_floor(self):
        with pytest.raises(ValueError):
            look_elsewhere(245, 0.05, reps=10, seed=0)


def bisected_threshold(min_p: np.ndarray, target: float) -> float:
    """The threshold search as a 60-step bisection of the joint rate on one tape."""

    def joint(threshold):
        return float(np.mean(min_p < threshold))

    if joint(1.0) <= target:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if joint(mid) <= target:
            lo = mid
        else:
            hi = mid
    return lo


def null_table_double_loop(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The exact joint-uniformity null, enumerated row by row as it first was, on the package's log k! table."""
    lg = sa._log_factorial(n + 1)
    ln_quarter = n * math.log(0.25)
    stats, probs = [], []
    for c0 in range(n + 1):
        for c1 in range(n - c0 + 1):
            c2 = np.arange(n - c0 - c1 + 1)
            c3 = n - c0 - c1 - c2
            logpmf = lg[n] - (lg[c0] + lg[c1] + lg[c2] + lg[c3]) + ln_quarter
            stats.append(logpmf)
            probs.append(np.exp(logpmf))
    stat, prob = np.concatenate(stats), np.concatenate(probs)
    order = np.argsort(stat, kind="stable")
    return stat[order], np.minimum(np.cumsum(prob[order]), 1.0)


class TestUniform4NullTable:
    """The enumerated null that scored the tape at n <= 300, now the oracle of the exact law."""

    @pytest.mark.parametrize("n", [1, 2, 5, 37, 245])
    def test_matches_double_loop(self, n):
        stat, cum = oracles.uniform4_null_table(n)
        want_stat, want_cum = null_table_double_loop(n)
        assert np.array_equal(stat, want_stat)
        assert np.array_equal(cum, want_cum)


class TestLeeThreshold:
    """The per-test threshold, look_elsewhere's second value: an order statistic of the tape."""

    def test_target_one(self, monkeypatch):
        monkeypatch.setattr(sa, "_null", None)
        monkeypatch.setattr(sa, "_lee_local_pvalues", None)
        assert look_elsewhere(245, 1.0, reps=2000, seed=0)[1] == 1.0

    @pytest.mark.parametrize(
        "n, reps, seed",
        [(1, 1000, 3), (7, 2000, 4), (60, 3000, 5), (245, 10_000, 19), (400, 1000, 6), (6000, 1000, 7)],
    )
    def test_order_statistic_equals_bisection(self, n, reps, seed):
        min_p = tape(n, reps, seed).min(axis=1)
        # target * reps rounds below the count k with k / reps == target for 0.29
        # (3000 reps) and 0.57 (3000, 10000), and up to k + 1 for the value just
        # below 0.05 (3000) and just below 0.0037 (10000).
        edges = (0.29, 0.57, math.nextafter(0.05, 0.0), math.nextafter(0.0037, 0.0))
        for target in (1e-4, 5e-4, 1e-3, 3e-3, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 0.9, 0.999, *edges):
            assert sa._threshold_quantile(min_p, target) == bisected_threshold(min_p, target), target

    def test_thresholds_below_the_bisection_grid_step_are_floored(self):
        # 0.0031 is finer than the 2^-60 grid; 1e-19 lies below its first step.
        min_p = np.array([1e-19, 0.0031, 0.2, 0.7])
        assert sa._threshold_quantile(min_p, 0.0) == bisected_threshold(min_p, 0.0) == 0.0
        floored = sa._threshold_quantile(min_p, 0.25)
        assert floored == bisected_threshold(min_p, 0.25) < 0.0031
        assert sa._threshold_quantile(min_p, 0.5) == bisected_threshold(min_p, 0.5) == 0.2

    def test_self_consistency_fixed_point(self):
        alpha0 = 0.07
        reps, seed, n = 4000, 9, 60
        joint = look_elsewhere(n, alpha0, reps=reps, seed=seed)[0].p
        threshold = look_elsewhere(n, joint, reps=reps, seed=seed)[1]
        assert threshold >= alpha0 - 1e-9
        assert threshold == pytest.approx(alpha0, abs=0.02)
        # The threshold saturates its own target on the same tape.
        assert look_elsewhere(n, threshold, reps=reps, seed=seed)[0].p <= joint + 1e-12

    def test_threshold_below_alpha_with_four_tests(self):
        threshold = look_elsewhere(60, 0.05, reps=3000, seed=10)[1]
        assert 0.0 < threshold < 0.05


class TestAuditRow:
    def test_row_assembly_and_serialization(self):
        row = audit_row(FIRST_RUN, seed=11, lee_reps=1000)
        assert row.n == 245
        assert row.p_independence == pytest.approx(0.029, abs=0.002)
        data = row.to_dict()
        assert data["independence_test"] == "fisher" and data["seed"] == 11
        # Every field is reported, each Monte Carlo P-value with its error, and the test's name.
        fields = {field.name for field in dataclasses.fields(row)}
        assert set(data) == fields | {"p_joint_uniform_mc_error", "p_joint_lee_mc_error", "independence_test"}

    @pytest.mark.parametrize("counts, lee_reps", [(ABOVE_LIMIT, 2000), (SettingCounts(1300, 1210, 1280, 1250), 1000)])
    def test_one_tape_gives_both_look_elsewhere_values(self, monkeypatch, counts, lee_reps):
        calls = []
        tape = sa._lee_local_pvalues

        def counted(*args):
            calls.append(args)
            return tape(*args)

        monkeypatch.setattr(sa, "_lee_local_pvalues", counted)
        row = audit_row(counts, seed=3, lee_reps=lee_reps, alpha=0.02)
        assert len(calls) == 1
        monkeypatch.undo()
        assert (row.p_joint_lee, row.p_threshold) == look_elsewhere(counts.total, 0.02, reps=lee_reps, seed=3)

    def test_alpha_one_needs_no_tape(self, monkeypatch):
        monkeypatch.setattr(sa, "_lee_local_pvalues", None)
        row = audit_row(FIRST_RUN, seed=3, lee_reps=1000, alpha=1.0)
        assert row.p_threshold == 1.0 and row.p_joint_lee == McPValue(p=1.0, mc_error=0.0)

    @pytest.mark.parametrize("alpha", [-0.1, 1.5, math.nan])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must lie in"):
            audit_row(FIRST_RUN, seed=3, lee_reps=1000, alpha=alpha)

    def test_pearson_branch_for_large_n(self):
        # From n = 5,000 the audit once switched to Pearson's chi-squared; Fisher's test runs here at 10,000.
        big = SettingCounts(2600, 2400, 2400, 2600)
        data = audit_row(big, seed=12, lee_reps=1000).to_dict()
        want = fisher_exact([[2600, 2400], [2400, 2600]]).pvalue
        assert data["independence_test"] == "fisher"
        assert data["p_independence"] == pytest.approx(want, rel=1e-9, abs=0)

    def test_fisher_at_twenty_thousand_events(self):
        counts = SettingCounts(5100, 4950, 4900, 5050)
        want = fisher_exact([[5100, 4950], [4900, 5050]]).pvalue
        assert audit_row(counts, seed=12, lee_reps=1000).p_independence == pytest.approx(want, rel=1e-9, abs=0)

    @pytest.mark.parametrize("counts", [FIRST_RUN, SettingCounts(942, 985, 1040, 1033)])
    def test_one_null_per_audit(self, monkeypatch, counts):
        # The exact law at n <= 300, with no draws; above, the one reference sample from stream 1 and the tape
        # from stream 0.
        nulls, streams = [], []
        exact_null, stream = sa._ExactNull, sa.rngstream.stream

        def counted_null(n):
            nulls.append(n)
            return exact_null(n)

        def counted_stream(seed, stream_id=0):
            streams.append(stream_id)
            return stream(seed, stream_id)

        monkeypatch.setattr(sa, "_ExactNull", counted_null)
        monkeypatch.setattr(sa.rngstream, "stream", counted_stream)
        row = audit_row(counts, seed=11, lee_reps=1000)
        monkeypatch.undo()
        exact = counts.total <= sa._ENUMERATION_LIMIT
        assert (nulls, sorted(streams)) == (([counts.total], []) if exact else ([], [0, 1]))
        assert row.p_joint_uniform == joint_uniform(counts, reps=1000, seed=11)
        assert (row.p_joint_uniform.mc_error == 0.0) == exact


class TestSettingsStream:
    def test_tabulates_jsonl(self, tmp_path):
        import json as _json

        path = tmp_path / "settings.jsonl"
        pairs = [(0, 0), (0, 1), (0, 1), (1, 0), (1, 1), (1, 1), (1, 1)]
        path.write_text(
            "".join(_json.dumps({"setting_a": a, "setting_b": b}) + "\n" for a, b in pairs),
            encoding="utf-8",
        )
        counts = sa.read_settings_stream(str(path))
        assert (counts.n00, counts.n01, counts.n10, counts.n11) == (1, 2, 1, 3)

    def test_rejects_bad_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"setting_a": 2, "setting_b": 0}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            sa.read_settings_stream(str(path))


@functools.cache
def enumerated_law(n):
    """`oracles.enumerated_min_p_law(n)` with its atoms sorted and the mass below each: (atoms, below, min_p, prob)."""
    min_p, prob = oracles.enumerated_min_p_law(n)
    order = np.argsort(min_p)
    atoms = min_p[order]
    below = np.concatenate([[0.0], np.cumsum(prob[order])])[np.searchsorted(atoms, atoms, side="left")]
    return atoms, below, min_p, prob


class TestExactLaw:
    """Up to n = 300 the look-elsewhere values are exact, from the min-P law by margin decomposition."""

    def test_paper_counts(self):
        # The same bits on every CPU: the CI step without numpy's AVX-512 kernels runs this too.
        row = audit_row(FIRST_RUN, seed=11, lee_reps=10_000)
        assert row.p_joint_uniform.p == pytest.approx(0.05309022675083941, rel=1e-12, abs=0)
        assert row.p_joint_uniform.mc_error == row.p_joint_lee.mc_error == 0.0
        assert (row.p_joint_uniform.p, row.p_joint_lee.p, row.p_threshold) == (
            0.053090226750840304, 0.12070714715975546, 0.0212478182155012
        )

    @pytest.mark.parametrize(
        "n, joint, threshold, rate",
        [(245, 0.120707, 0.02124782, 0.04998), (300, 0.128819, 0.01777934, 0.04321)],
    )
    def test_full_enumeration(self, n, joint, threshold, rate):
        # Every table scored by the tape's kernels against the enumerated null. At n = 300 the atom after the
        # threshold takes the joint rate past alpha, so the rate stays well below it.
        atoms, below, min_p, prob = enumerated_law(n)
        for alpha in (0.01, 0.05, 0.1):
            got_joint, got_threshold = look_elsewhere(n, alpha, reps=1000, seed=0)
            assert got_joint.p == pytest.approx(prob[min_p < alpha].sum(), rel=1e-10, abs=0)
            assert got_threshold == pytest.approx(atoms[below <= alpha].max(), rel=1e-10, abs=0)
            assert prob[min_p < got_threshold * (1 - sa._P_TIE)].sum() <= alpha
        got_joint, got_threshold = look_elsewhere(n, 0.05, reps=1000, seed=0)
        assert (round(got_joint.p, 6), round(got_threshold, 8)) == (joint, threshold)
        assert round(prob[min_p < got_threshold * (1 - sa._P_TIE)].sum(), 5) == rate

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
    def test_fraction_law(self, n):
        # The whole min-P law in rationals. alpha is a rational too: an atom at 1/10 lies below the float 0.1.
        law = oracles.fraction_min_p_law(n)
        for alpha in (Fraction(0), Fraction(1, 100), Fraction(1, 20), Fraction(1, 10), Fraction(3, 10), Fraction(9, 10)):
            joint, threshold = oracles.law_values(law, alpha)
            got_joint, got_threshold = look_elsewhere(n, float(alpha), reps=1000, seed=0)
            assert got_joint == McPValue(p=pytest.approx(float(joint), rel=1e-12, abs=0), mc_error=0.0), alpha
            assert got_threshold == pytest.approx(float(threshold), rel=1e-12, abs=0), alpha

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 12, 25, 60, 101, 150, 245, 299, 300])
    def test_rate_at_threshold_within_alpha(self, n):
        # The law itself, without the convention that a threshold of 1 (n = 1's only atom) rejects.
        null = sa._ExactNull(n)
        for alpha in (0.01, 0.05, 0.1):
            threshold = look_elsewhere(n, alpha, reps=1000, seed=0)[1]
            assert null.look_elsewhere(threshold)[0].p <= alpha, alpha

    @pytest.mark.parametrize("n, seed", [(60, 7), (245, 7), (245, 11)])
    def test_old_tape_within_four_sigma(self, n, seed):
        reps = 10_000
        min_p = oracles.lee_tape(n, reps, seed).min(axis=1)
        exact = look_elsewhere(n, 0.05, reps=reps, seed=seed)[0].p
        rate = float(np.mean(min_p < 0.05))
        assert abs(rate - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / reps)

    def test_reps_and_seed_are_only_checked(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("a stream was drawn")

        monkeypatch.setattr(sa.rngstream, "stream", no_draws)
        want = look_elsewhere(245, 0.05, reps=1000, seed=0)
        assert look_elsewhere(245, 0.05, reps=50_000, seed=9) == want
        assert audit_row(FIRST_RUN, seed=3, lee_reps=2000)

    @pytest.mark.parametrize("alpha", [1e-9, 0.05, 0.5])
    def test_scored_tables_give_the_law_of_every_table(self, alpha):
        # The tables far below the most probable are counted, not scored, unless they could change the values.
        null = sa._ExactNull(245)
        full = null._law_above(alpha, -math.inf)
        assert null.look_elsewhere(alpha) == full
        truncated = null._law_above(alpha, float(null.row_max.max()) - sa._DROP_LOG_P)
        assert truncated in (full, None)
        assert (truncated is None) == (alpha == 1e-9)
