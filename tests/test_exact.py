"""Exact-test primitives against independent rational-arithmetic oracles."""
import math
from array import array
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from scipy import special, stats

from bellkit import pvalues, settings_audit

from oracles import binom_two_sided_array, binom_two_sided_oracle, fisher_chunk_gather, fisher_two_sided_oracle

# log sqrt(2 pi) to 50 digits.
LOG_SQRT_2PI = Decimal("0.91893853320467274178032973640561763986139747363778")


def binom_survival_oracle(k: int, n: int, p: Fraction) -> Fraction:
    """Direct summation of binomial pmf terms in exact rational arithmetic."""
    return sum(
        Fraction(math.comb(n, j)) * p**j * (1 - p) ** (n - j) for j in range(k, n + 1)
    )


def three_quarters_tail_oracle(k: int, n: int) -> float:
    """Pr[Bin(n, 3/4) >= k] = sum of C(n, j) 3^j over j >= k, over 4^n, in integers, rounded once."""
    term = math.comb(n, k) * 3**k
    total = 0
    for j in range(k, n + 1):
        total += term
        term = term * 3 * (n - j) // (j + 1)
    return total / 4**n


def assert_relative(got: float, want: float, rel: float) -> None:
    """|got - want| <= rel * |want|, with no absolute floor (pytest.approx passes anything below 1e-12)."""
    assert abs(got - want) <= rel * abs(want), (got, want, abs(got - want) / abs(want) if want else None)


class TestLogFactorial:
    """`_log_factorial` must equal scipy's gammaln(k + 1) bit for bit: the pinned reports were made with it."""

    def test_equals_gammaln_bit_for_bit(self):
        n = 2_000_001
        assert np.array_equal(settings_audit._log_factorial(n)[:n], special.gammaln(np.arange(n) + 1.0))

    @pytest.mark.parametrize("k", [0, 1, 2, 11, 12, 13, 998, 999, 1000, 1001])
    def test_branch_edges(self, k, monkeypatch):
        # x = k + 1 < 13 takes the exact product, x < 1000 the five-term
        # series and x >= 1000 the three-term one; k is the last entry of
        # a fresh table, so each edge is also an end of a build.
        monkeypatch.setattr(pvalues, "_log_factorial_table", array("d"))
        assert settings_audit._log_factorial(k + 1)[k] == special.gammaln(k + 1.0)

    def test_extension_equals_one_build(self, monkeypatch):
        monkeypatch.setattr(pvalues, "_log_factorial_table", array("d"))
        for size in (1, 3, 12, 13, 14, 999, 1000, 1001, 1002, 5000):
            grown = settings_audit._log_factorial(size)
            assert grown.size == size
        monkeypatch.setattr(pvalues, "_log_factorial_table", array("d"))
        assert np.array_equal(grown, settings_audit._log_factorial(5000))
        assert np.array_equal(grown, special.gammaln(np.arange(5000) + 1.0))

    def test_smaller_request_reuses_the_table(self):
        table = settings_audit._log_factorial(100)
        assert np.shares_memory(settings_audit._log_factorial(50), table)
        assert not table.flags.writeable


class TestBinomSurvival:
    def test_matches_exact_oracle(self):
        half = Fraction(1, 2)
        three_quarters = Fraction(3, 4)
        for k, n, p in [(3, 10, half), (50, 60, three_quarters), (7, 7, half), (0, 5, half),
                        (237, 300, three_quarters), (600, 1000, Fraction(3, 5))]:
            got = pvalues.binom_survival(k, n, float(p))
            want = float(binom_survival_oracle(k, n, p))
            assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            n = int(rng.integers(1, 800))
            k = int(rng.integers(0, n + 1))
            p = float(rng.uniform(0.05, 0.95))
            assert pvalues.binom_survival(k, n, p) == pytest.approx(
                float(stats.binom.sf(k - 1, n, p)), rel=1e-10, abs=0
            )

    def test_beta_identity_path_large_n(self):
        # The exact rational tail (about 2.7e-22) is short enough to compare
        # directly, with no absolute floor.
        n, k = 20_000, 19_920
        p = Fraction(99, 100)
        got = pvalues.binom_survival(k, n, float(p))
        want = float(binom_survival_oracle(k, n, p))
        assert got == pytest.approx(want, rel=1e-9, abs=0)

    @pytest.mark.parametrize(
        "n, k",
        [(100, 80), (245, 196), (300, 237), (545, 433), (1000, 780), (10_000, 7_501), (10_000, 7_630), (10_000, 8_450), (10_001, 7_501), (10_001, 7_630), (10_001, 8_451),
         (10_138, 7_604), (10_138, 8_554), (10_824, 9_149), (17_192, 12_911), (17_192, 13_100), (17_192, 14_500)],
    )
    def test_three_quarters_against_exact_integers(self, n, k):
        # From the mean to tails near 1e-194; n = 10,138 and 10,824 at these
        # k are the heralding sweep's largest offsets. log k! differences
        # would lose about log10(n) digits here (1.6e-11 at n = 10,000); the
        # saddle-point terms keep 1e-12.
        assert_relative(pvalues.binom_survival(k, n, 0.75), three_quarters_tail_oracle(k, n), 1e-12)

    def test_above_the_limit_matches_betainc(self):
        # n above 10,000 up to 1e6, where exact rational sums are too slow to serve as the oracle.
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(10_001, 10**6 + 1))
            p = float(rng.uniform(0.05, 0.95))
            sd = math.sqrt(n * p * (1 - p))
            k = int(np.clip(round(n * p + rng.uniform(-3.0, 30.0) * sd), 1, n))
            assert_relative(pvalues.binom_survival(k, n, p), float(special.betainc(k, n - k + 1, p)), 1e-11)

    @pytest.mark.parametrize(
        "n, k, p",
        [(10_001, 1, 1e-12), (10_001, 2, 1e-12), (12_000, 1, 1e-6), (12_000, 3, 1e-6),
         (12_000, 12_000, 1 - 2.0**-40), (12_000, 11_999, 1 - 2.0**-40), (12_000, 11_991, 0.9995),
         (20_000, 20_000, 0.999), (10_001, 10_001, 0.9), (10_001, 10_000, 0.9)],
    )
    def test_extreme_p_and_k_equal_n(self, n, k, p):
        # The terms j = k..k+9 of the tail, exactly for the double p = a / b
        # (int / int division rounds correctly): for these p near 0 the rest
        # is below 1e-20 of the sum, and for k >= n - 9 there is no rest.
        a, b = p.as_integer_ratio()
        head = sum(math.comb(n, j) * a**j * (b - a) ** (n - j) for j in range(k, min(n, k + 9) + 1))
        assert_relative(pvalues.binom_survival(k, n, p), head / b**n, 1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            pvalues.binom_survival(5, 4, 0.5)
        with pytest.raises(ValueError):
            pvalues.binom_survival(-1, 4, 0.5)
        with pytest.raises(ValueError):
            pvalues.binom_survival(2, 4, 0.0)
        with pytest.raises(ValueError, match=r"\(0, 1\], got 1.5"):
            pvalues.binom_survival(2, 4, 1.5)
        with pytest.raises(ValueError):
            pvalues.binom_survival(0, 0, 0.5)
        with pytest.raises(ValueError):
            pvalues.binom_survival(5, 4, 1.0)

    def test_certain_success_tail_is_one(self):
        # Bin(n, 1) is n with certainty, so Pr[Bin(n, 1) >= k] = 1 for 0 <= k <= n.
        for n in (1, 4, 10_001):
            for k in (0, 1, n // 2, n):
                assert pvalues.binom_survival(k, n, 1.0) == 1.0


class TestLoaderTerms:
    """The pieces of the saddle-point pmf that every binomial tail sums."""

    def test_stirlerr_table(self):
        for m in range(1, 16):
            want = math.lgamma(m + 1) - (m + 0.5) * math.log(m) + m - 0.5 * math.log(2 * math.pi)
            assert abs(pvalues._stirlerr(m) - want) <= 1e-14, m

    @pytest.mark.parametrize("m", [1, 15, 16, 17, 35, 36, 80, 81, 500, 501, 1000, 2500])
    def test_stirlerr_against_fifty_digits(self, m):
        with localcontext() as ctx:
            ctx.prec = 50
            want = Decimal(math.factorial(m)).ln() - (m + Decimal("0.5")) * Decimal(m).ln() + m - LOG_SQRT_2PI
        # Absolute, as delta(m) enters a log pmf: five series terms leave
        # 1.1e-16 at m = 16, well below the log pmf's own rounding.
        assert abs(pvalues._stirlerr(m) - float(want)) <= 2e-16

    def test_stirlerr_of_zero_is_unbounded(self):
        assert pvalues._stirlerr(0) == math.inf

    @pytest.mark.parametrize("mean", [1000.0, 7603.5, 0.012])
    def test_bd0_on_both_sides_of_the_series_boundary(self, mean):
        # The series serves |x - mean| < 0.1 (x + mean), that is
        # mean * 9/11 < x < mean * 11/9.
        lo, hi = mean * 9 / 11, mean * 11 / 9
        xs = sorted({1.0, math.floor(lo), math.ceil(lo), math.floor(mean), math.ceil(mean), math.floor(hi),
                     math.ceil(hi), 5 * math.ceil(mean)} - {0.0})
        got = [pvalues._bd0(x, mean) for x in xs]
        with localcontext() as ctx:
            ctx.prec = 50
            m = Decimal(mean)
            want = [float(Decimal(x) * (Decimal(x) / m).ln() + m - Decimal(x)) for x in xs]
        for x, g, w in zip(xs, got, want):
            assert abs(g - w) <= 1e-14 * w + 1e-300, (x, g, w)

    def test_log_pmf_against_exact_rationals(self):
        # Every k of a small n, so the table, the ends and the bd0 series all
        # take part; the ends are the plain n log(1 - p) and n log p.
        n, p = 40, 0.3
        got = [pvalues._binom_logpmf(k, n, p) for k in range(n + 1)]
        exact_p = Fraction(p)
        for k in range(n + 1):
            want = Fraction(math.comb(n, k)) * exact_p**k * (1 - exact_p) ** (n - k)
            assert_relative(math.exp(got[k]), float(want), 1e-13)
        assert got[0] == n * math.log1p(-p) and got[n] == n * math.log(p)
        assert [pvalues._binom_logpmf(k, 1, p) for k in (0, 1)] == [math.log1p(-p), math.log(p)]


class TestBinomTwoSided:
    def test_matches_exact_oracle_small_n(self):
        half = Fraction(1, 2)
        for n in range(1, 61, 7):
            for k in range(0, n + 1, max(1, n // 5)):
                got = pvalues.binom_two_sided(k, n)
                want = float(binom_two_sided_oracle(k, n, half))
                assert got == pytest.approx(want, rel=1e-12, abs=0), (k, n)

    def test_bit_for_bit_with_the_array_form(self):
        # Every k up to n = 120, and k across 5 sd of the mean and at both
        # ends at the audits' sizes, odd and even, up to the stream length.
        # The array form adds, subtracts and multiplies only, and sums on
        # libm's exp, so it gives the same bits with every numpy kernel.
        cases = [(k, n) for n in range(1, 121) for k in range(n + 1)]
        for n in (300, 1000, 2000, 3999, 4000, 4001, 5000, 17_494):
            near_mean = np.linspace(n / 2 - 2.5 * math.sqrt(n), n / 2 + 2.5 * math.sqrt(n), 13).round()
            cases += [(k, n) for k in {0, 1, n - 1, n, *map(int, near_mean)}]
        for k, n in cases:
            assert pvalues.binom_two_sided(k, n).hex() == binom_two_sided_array(k, n).hex(), (k, n)

    def test_domain_errors(self):
        for k, n in ((5, 4), (-1, 4), (0, 0)):
            with pytest.raises(ValueError):
                pvalues.binom_two_sided(k, n)

    def test_table_matches_scalar(self):
        table = settings_audit.binom_two_sided_table(245)
        for m in (0, 1, 53, 113, 122, 123, 132, 200, 245):
            assert table[m] == pytest.approx(pvalues.binom_two_sided(m, 245), rel=1e-12, abs=0)


def fisher_tables_gammaln(tables: np.ndarray, max_cells: int) -> np.ndarray:
    """`fisher_two_sided_tables` as it was, with gammaln evaluated on every padded cell."""
    lg = special.gammaln
    out = np.empty(len(tables))
    chunk = max(1, max_cells // (int(tables.sum(axis=1).max()) + 1))
    for lo in range(0, len(tables), chunk):
        t = tables[lo : lo + chunk]
        r0, r1, c0 = t[:, 0] + t[:, 1], t[:, 2] + t[:, 3], t[:, 0] + t[:, 2]
        n = r0 + r1
        a_min, a_max = np.maximum(0, c0 - r1), np.minimum(r0, c0)
        a = a_min[:, None] + np.arange(int((a_max - a_min).max()) + 1)[None, :]
        valid = a <= a_max[:, None]
        a = np.where(valid, a, 0)
        b = c0[:, None] - a
        lp = (
            (lg(r0 + 1) + lg(r1 + 1) - lg(n + 1) + lg(c0 + 1) + lg(n - c0 + 1))[:, None]
            - lg(a + 1)
            - lg(np.where(valid, r0[:, None] - a, 0) + 1)
            - lg(np.where(valid, b, 0) + 1)
            - lg(np.where(valid, r1[:, None] - b, 0) + 1)
        )
        lp = np.where(valid, lp, -np.inf)
        lp_obs = lp[np.arange(len(t)), t[:, 0] - a_min]
        p = np.where(lp <= lp_obs[:, None] + math.log1p(pvalues.TIE_RELATIVE_EPS), np.exp(lp), 0.0).sum(axis=1)
        degenerate = (r0 == 0) | (r1 == 0) | (c0 == 0) | (c0 == n)
        out[lo : lo + chunk] = np.where(degenerate, 1.0, np.minimum(p, 1.0))
    return out


class TestFisherTwoSided:
    def test_matches_enumeration_oracle(self):
        tables = [(5, 0, 0, 5), (3, 7, 6, 2), (10, 10, 10, 10), (1, 9, 9, 1), (8, 2, 3, 12),
                  (0, 10, 10, 0), (20, 5, 6, 19)]
        for cells in tables:
            got = pvalues.fisher_two_sided(*cells)
            want = float(fisher_two_sided_oracle(*cells))
            assert got == pytest.approx(want, rel=1e-12, abs=0), cells

    def test_diagonal_table_value(self):
        # [[5,0],[0,5]]: only the two diagonal tables are as unlikely as the
        # observed one, each with probability 1/C(10,5).
        assert pvalues.fisher_two_sided(5, 0, 0, 5) == pytest.approx(2 / 252, rel=1e-12, abs=0)

    def test_integral_float_cells_match_int_cells(self):
        assert pvalues.fisher_two_sided(5.0, 0, 0, 5) == pvalues.fisher_two_sided(5, 0, 0, 5)

    def test_matches_scipy(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            cells = rng.integers(0, 40, size=4)
            got = pvalues.fisher_two_sided(*(int(c) for c in cells))
            want = stats.fisher_exact([[cells[0], cells[1]], [cells[2], cells[3]]])[1]
            assert got == pytest.approx(want, rel=1e-7, abs=0), cells

    def test_degenerate_margins(self):
        assert pvalues.fisher_two_sided(0, 0, 3, 5) == 1.0
        assert pvalues.fisher_two_sided(4, 0, 6, 0) == 1.0

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(2)
        draws = rng.multinomial(245, [0.25] * 4, size=200)
        vec = settings_audit.fisher_two_sided_tables(draws)
        for row, p in zip(draws, vec):
            assert p == pytest.approx(pvalues.fisher_two_sided(*(int(c) for c in row)), rel=1e-10, abs=0)

    @pytest.mark.parametrize("n, reps, max_cells", [(1, 50, 4_000_000), (37, 300, 500), (245, 2000, 4_000_000),
                                                    (4000, 2000, 4_000_000)])
    def test_table_lookup_matches_gammaln_form(self, n, reps, max_cells, monkeypatch):
        monkeypatch.setattr(settings_audit, "_FISHER_MAX_CELLS", max_cells)
        draws = np.random.default_rng(n).multinomial(n, [0.25] * 4, size=reps)
        got = settings_audit.fisher_two_sided_tables(draws)
        assert np.array_equal(got, fisher_tables_gammaln(draws, max_cells))

    @pytest.mark.parametrize("n, max_cells", [(1, 4_000_000), (2, 7), (37, 500), (37, 4_000_000), (245, 3_000),
                                              (245, 4_000_000), (4000, 40_000), (4000, 4_000_000)])
    def test_window_chunks_equal_element_gathers_bit_for_bit(self, n, max_cells):
        rng = np.random.default_rng(n + max_cells)
        draws = rng.multinomial(n, rng.dirichlet([1.0] * 4), size=300)
        margins = [[n, 0, 0, 0], [0, n, 0, 0], [0, 0, n, 0], [0, 0, 0, n], [n - n // 2, n // 2, 0, 0],
                   [n - n // 2, 0, n // 2, 0]]
        tables = np.vstack([draws, margins]).astype(np.int64)
        lg = settings_audit._log_factorial(n + 1)
        chunk = max(1, max_cells // (n + 1))
        for lo in range(0, len(tables), chunk):
            part = tables[lo : lo + chunk]
            new, old = settings_audit._fisher_chunk(part, lg), fisher_chunk_gather(part, lg)
            assert np.array_equal(new.view(np.int64), old.view(np.int64))

    def test_rejects_bad_cells(self):
        with pytest.raises(ValueError):
            pvalues.fisher_two_sided(-1, 2, 3, 4)
        with pytest.raises(ValueError, match="nonnegative"):
            settings_audit.fisher_two_sided_tables(np.array([[-1, 2, 3, 4]]))


class TestChi2Survival:
    @pytest.mark.parametrize("df", [2, 4, 6, 8, 12])
    def test_matches_scipy(self, df):
        for x in (0.1, 1.0, 3.841458820694124, 10.0, 16.0, 40.0):
            assert pvalues.chi2_survival(x, df) == pytest.approx(
                float(stats.chi2.sf(x, df)), rel=1e-10, abs=0
            )

    def test_quantile_inversion(self):
        # 0.95 quantile of chi-squared with 2 dof.
        assert pvalues.chi2_survival(float(stats.chi2.isf(0.05, 2)), 2) == pytest.approx(0.05, abs=1e-12)

    def test_at_zero(self):
        assert pvalues.chi2_survival(0.0, 4) == 1.0

    @pytest.mark.parametrize("df", [0, 1, 3, 5])
    def test_rejects_df_without_a_closed_form(self, df):
        with pytest.raises(ValueError, match="degrees of freedom must be even"):
            pvalues.chi2_survival(2.0, df)


class TestNormalSurvival:
    def test_matches_scipy(self):
        for z in (-3.0, -1.0, 0.0, 0.5, 1.944444444, 2.7941176, 5.0):
            assert pvalues.normal_survival(z) == pytest.approx(float(stats.norm.sf(z)), rel=1e-12, abs=0)


class TestUniform4Logpmf:
    def test_matches_scipy_multinomial(self):
        rng = np.random.default_rng(3)
        n = 245
        draws = rng.multinomial(n, [0.25] * 4, size=20)
        want = stats.multinomial.logpmf(draws, n, [0.25] * 4)
        got = settings_audit.uniform4_logpmf(draws, n)
        np.testing.assert_allclose(got, want, rtol=1e-10)
