"""The scalar tests of `bellkit.pvalues` against the numpy forms they replaced, and their bits on every CPU.

The tails and Fisher's test on one table run on `math` (libm) alone. The
numpy forms they replaced, kept in `oracles.py`, give the same bits
wherever numpy's exp and log are libm's; numpy's AVX-512 kernels may
differ from libm in the last bit. A child interpreter with those kernels
disabled through NPY_DISABLE_CPU_FEATURES evaluates the same grid as the
test process.
"""
import json
import math
import os
import subprocess
import sys
from array import array
from collections import Counter

import numpy as np
import pytest

from bellkit import pvalues, settings_audit

import oracles

NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"
TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.dirname(os.path.dirname(pvalues.__file__))


def avx512_targets():
    """The AVX-512 targets among the dispatch targets numpy runs in this process."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return []
    return [t for t in __cpu_dispatch__ if __cpu_features__.get(t) and ("AVX512" in t or t == "X86_V4")]


def binom_grid():
    """3,000 fixed (k, n, p), k from 3 sd below the mean to 30 above; 40 of them have 10^4 <= n < 10^6."""
    rng = np.random.default_rng(16)
    cases = []
    for lo, hi, count in ((0.0, 4.0, 2960), (4.0, 6.0, 40)):
        for _ in range(count):
            n = int(10 ** rng.uniform(lo, hi))
            p = float(rng.uniform(0.01, 0.99))
            sd = math.sqrt(n * p * (1 - p))
            cases.append((int(np.clip(round(n * p + rng.uniform(-3.0, 30.0) * sd), 1, n)), n, p))
    return cases


def grid():
    rng = np.random.default_rng(17)
    tables = [rng.multinomial(rng.integers(1, 500), rng.dirichlet([1.0] * 4)).tolist() for _ in range(300)]
    # The audits' stream length, and symmetric tables, whose support is full of ties.
    tables += [rng.multinomial(17_494, p).tolist() for p in [[0.25] * 4] * 20 + list(rng.dirichlet([1.0] * 4, 20))]
    tables += [[5, 0, 0, 5], [0, 5, 5, 0], [1, 1, 1, 1], [2, 1, 1, 2], [3, 3, 3, 3], [7, 3, 3, 7], [10, 10, 10, 10],
               [4374, 4373, 4373, 4374], [4373, 4374, 4374, 4373], [8747, 0, 0, 8747]]
    two_sided = []
    for _ in range(300):
        n = int(rng.integers(1, 2000))
        two_sided.append((int(rng.integers(0, n + 1)), n))
    return {
        "binom": binom_grid(),
        # The last three differ in the last bit between numpy's AVX-512 exp and libm's.
        "chi2": [(x, df) for x in (0.5, 3.0, 9.5, 17.2, 40.0, 81.3, 150.0, 333.3, 700.0, 1500.0, 3000.0, 4500.0, 9000.0)
                 for df in (4, 10, 2000)] + [(818.6, 1094), (2748.7, 2106), (175.6, 892)],
        "two_sided": two_sided,
        "fisher": tables,
    }


def evaluate(cases, reference=False):
    """Each tail of the grid as float.hex: the numpy reference forms, or bellkit's own."""
    if reference:
        return {
            "binom": [oracles.binom_survival_array(*c).hex() for c in cases["binom"]],
            "chi2": [oracles.chi2_survival_array(*c).hex() for c in cases["chi2"]],
            "two_sided": [oracles.binom_two_sided_array(*c).hex() for c in cases["two_sided"]],
            "fisher": [oracles.fisher_two_sided_array(*c).hex() for c in cases["fisher"]],
        }
    return {
        "binom": [pvalues.binom_survival(*c).hex() for c in cases["binom"]],
        "chi2": [pvalues.chi2_survival(*c).hex() for c in cases["chi2"]],
        "two_sided": [pvalues.binom_two_sided(*c).hex() for c in cases["two_sided"]],
        "fisher": [pvalues.fisher_two_sided(*c).hex() for c in cases["fisher"]],
    }


def evaluate_without_avx512(cases, reference=False):
    """`evaluate` in a child interpreter where numpy's AVX-512 kernels are disabled.

    Skips the calling test where this numpy names its AVX-512 targets
    otherwise and still runs one in the child.
    """
    script = ("import json, sys, test_tails\n"
              "print(json.dumps([test_tails.avx512_targets(), test_tails.evaluate(json.load(sys.stdin), %r)]))" % reference)
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": NO_AVX512, "PYTHONPATH": os.pathsep.join((SRC, TESTS))}
    result = subprocess.run([sys.executable, "-c", script], input=json.dumps(cases), env=env, capture_output=True,
                            text=True, check=True)
    left_on, got = json.loads(result.stdout)
    if left_on:
        pytest.skip(f"NPY_DISABLE_CPU_FEATURES={NO_AVX512!r} leaves this numpy's AVX-512 targets {left_on} on")
    return got


@pytest.fixture(scope="module")
def cases():
    return grid()


@pytest.fixture(scope="module")
def ours(cases):
    return evaluate(cases)


def unhex(values):
    return [float.fromhex(v) for v in values]


class TestAgainstTheArrayForms:
    def test_grid_reaches_a_million(self, cases):
        assert len(cases["binom"]) >= 3000 and max(n for _, n, _ in cases["binom"]) > 500_000

    def test_binom_survival_within_rounding_of_the_array_form(self, cases, ours):
        # 2e-14 relative, plus four units in the last place of log(tail): a
        # one-ulp change in a log term of -460 alone moves the tail by 5.7e-14.
        for case, got in zip(cases["binom"], unhex(ours["binom"])):
            want = oracles.binom_survival_array(*case)
            assert abs(got - want) <= want * (2e-14 + 4 * 2.0**-52 * abs(math.log(want))), (case, got, want)

    def test_bit_for_bit_where_numpy_uses_libm(self, cases, ours):
        want = evaluate_without_avx512(cases, reference=True)
        assert ours["binom"] == want["binom"]
        assert ours["chi2"] == want["chi2"]
        assert ours["two_sided"] == want["two_sided"]
        assert ours["fisher"] == want["fisher"]

    def test_fisher_bit_for_bit_with_the_array_form(self, cases, ours):
        # Fisher's numpy form only adds and subtracts, and sums on libm's
        # exp, so it needs no kernel switched off to give the same bits.
        assert len(cases["fisher"]) == 350 and max(map(sum, cases["fisher"])) == 17_494
        assert ours["fisher"] == [oracles.fisher_two_sided_array(*c).hex() for c in cases["fisher"]]

    @pytest.mark.parametrize("n", [50, 300, 2000, 12_000])
    @pytest.mark.parametrize("p", [0.01, 0.3, 0.75, 0.99])
    def test_the_cut_drops_only_terms_whose_exp_is_zero(self, n, p):
        sd = math.sqrt(n * p * (1 - p))
        for z in (-40.0, -3.0, 0.0, 3.0, 30.0, 60.0):
            k = int(np.clip(round(n * p + z * sd), 1, n))
            full = [pvalues._binom_logpmf(j, n, p) for j in range(k, n + 1)]
            cut = pvalues._tail_log_terms(k, n, p)
            assert not Counter(cut) - Counter(full)
            top = max(full)
            assert max(cut) == top
            assert all(math.exp(t - top) == 0.0 for t in (Counter(full) - Counter(cut)).elements())
            assert pvalues._sum_exp(cut) == pvalues._sum_exp(full)

    @pytest.mark.parametrize("k, n, p, most", [(5000, 12_000, 0.3, 2500), (1, 10**6, 0.5, 40_000),
                                               (780_000, 10**6, 0.75, 5000)])
    def test_the_cut_leaves_out_most_of_a_long_tail(self, k, n, p, most):
        assert len(pvalues._tail_log_terms(k, n, p)) <= most

    @pytest.mark.parametrize("size", [4001, 17_500])
    def test_mapped_log_factorial_table_equals_the_array_form(self, size, monkeypatch):
        monkeypatch.setattr(pvalues, "_log_factorial_table", array("d"))
        table = settings_audit._log_factorial(size)
        assert np.array_equal(table.view(np.int64), oracles.lgam_whole(0, size).view(np.int64))


@pytest.mark.skipif(not avx512_targets(), reason="numpy here runs no AVX-512 target, so both runs take the same kernels")
def test_same_bits_with_and_without_avx512(cases, ours):
    assert evaluate_without_avx512(cases) == ours
