"""Adversary simulation: locality, bound domination, reference generator."""
import math

import numpy as np
import pytest
import oracles
from oracles import (
    DeterministicStrategy,
    all_deterministic_strategies,
    best_deterministic_winprob,
    streak_digests,
    wins,
)

from bellkit import lhv, rngstream, trials
from bellkit.lhv import (
    CATALOG,
    MEMORY_CATALOG,
    SimStats,
    adversary_suite,
    make_strategy,
    simulate_reference,
    simulate_with_stats,
)
from bellkit.pvalues import BiasParams, beta_win_lemma, pvalue_complete
from bellkit.trials import aggregate, chsh_s


def three_sigma(p, n):
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


def play_heralded(strategy, model, n_heralds, seed):
    """Counters of one run drawn from stream (seed, 0) until n_heralds trials are scored."""
    return SimStats(*lhv._play_heralded(strategy, model, n_heralds, seed, range(1))[0].tolist())


def play_tape(strategy, model, tape, stop_after_heralds=None):
    """Trials and counters of one run over the whole (rows, 9) `tape`, or until it has stop_after_heralds heralds."""
    stop = None if stop_after_heralds is None else np.array([stop_after_heralds])
    records, counts, _ = lhv._run_tapes(strategy, model, tape[None], np.zeros(1, dtype=np.int64), stop)
    played = counts[0, 0]
    return lhv._trials(records[0, :played]), SimStats(*counts[0].tolist())


def win_rate(name, model, n_heralds, seed):
    """Win fraction of strategy `name` over exactly n_heralds scored trials, and that count."""
    stats = play_heralded(make_strategy(name), model, n_heralds, seed)
    return stats.win_rate, stats.heralded


def columns(ts, stop=None):
    """The trial set's columns, each cut before row `stop`."""
    fields = ("index", "tag", "setting_a", "setting_b", "outcome_a", "outcome_b")
    return [getattr(ts, f)[:stop].tolist() for f in fields]


class TestDeterministicStrategies:
    def test_exactly_sixteen(self):
        strategies = all_deterministic_strategies()
        assert len(strategies) == 16
        assert len(set(strategies)) == 16

    def test_all_zeros_wins_three_of_four_cells(self):
        table = DeterministicStrategy(0, 0, 0, 0)
        assert [wins(table, a, b) for a in (0, 1) for b in (0, 1)] == [True, True, True, False]

    def test_psi_plus_game_flips_setting_b(self):
        table = DeterministicStrategy(0, 0, 0, 0)
        assert wins(table, 1, 0, tag=+1) is False
        assert wins(table, 1, 1, tag=+1) is True


class TestStrategyTables:
    def test_streak_keyed_state_is_low_bits_of_rolling_hash(self):
        next_state = CATALOG["streak-keyed"].next_state
        for seed in range(5):
            items = np.random.default_rng(seed).integers(0, 48, size=2000).tolist()
            state = 0
            for item, digest in zip(items, streak_digests(items)):
                state = next_state[state][item]
                assert state == digest & 15

    @pytest.mark.parametrize("name", ["loss-switching", "streak-keyed"])
    def test_switching_output_maps_are_the_deterministic_tables_in_order(self, name):
        want = [
            ((d.output_a0, d.output_a1), (d.output_b0, d.output_b1)) for d in all_deterministic_strategies()
        ]
        assert list(CATALOG[name].outputs) == want


class TestBestDeterministicWinprob:
    def test_unbiased_classical_bound(self):
        winprob, _ = best_deterministic_winprob(0.0, 0.0)
        assert winprob == 0.75

    def test_maximal_bias_wins_always(self):
        winprob, _ = best_deterministic_winprob(0.5, 0.5)
        assert winprob == 1.0

    def test_asymmetric_example(self):
        winprob, _ = best_deterministic_winprob(0.1, 0.2)
        assert winprob == pytest.approx(0.88, abs=1e-12)

    def test_matches_closed_form_on_grid(self):
        for tau_a in np.linspace(0.0, 0.5, 11):
            for tau_b in np.linspace(0.0, 0.5, 11):
                winprob, _ = best_deterministic_winprob(float(tau_a), float(tau_b))
                want = 0.75 + 0.5 * (tau_a + tau_b) - tau_a * tau_b
                assert winprob == pytest.approx(want, abs=1e-12)

    def test_argmax_achieves_maximum(self):
        winprob, table = best_deterministic_winprob(0.2, 0.1)
        direct = sum(
            (0.5 + 0.2 if a == 0 else 0.5 - 0.2) * (0.5 + 0.1 if b == 0 else 0.5 - 0.1)
            for a in (0, 1)
            for b in (0, 1)
            if wins(table, a, b)
        )
        assert direct == pytest.approx(winprob, abs=1e-12)


class TestSimulate:
    def test_classical_optimum_win_rate(self):
        rate, n = win_rate("classical-optimal", BiasParams(), 200_000, seed=1)
        assert abs(rate - 0.75) <= three_sigma(0.75, n)

    def test_all_early_wins_every_trial(self):
        rate, _ = win_rate("classical-optimal", BiasParams(f=1.0), 20_000, seed=2)
        assert rate == 1.0

    def test_bias_exploitation_reaches_bound(self):
        # At tau = 0.1 on both sides the optimum is 0.84.
        rate, n = win_rate("classical-optimal", BiasParams(tau=0.1), 200_000, seed=3)
        assert abs(rate - 0.84) <= three_sigma(0.84, n)

    def test_early_fraction_matches_f(self):
        f = 0.05
        _, stats = simulate_with_stats(make_strategy("classical-optimal"), BiasParams(f=f), 100_000, seed=4)
        for early in (stats.early_a, stats.early_b):
            assert abs(early / stats.heralded - f) <= three_sigma(f, stats.heralded)

    def test_records_and_scoring_agree(self):
        model = BiasParams(f=0.02, tau=0.05)
        trialset, stats = simulate_with_stats(make_strategy("loss-switching"), model, 20_000, seed=5)
        k, n = aggregate(trialset)
        assert (k, n) == (stats.wins, stats.heralded)
        assert len(trialset) == stats.attempts

    def test_blocks_play_as_one_tape(self):
        # play_heralded draws its tape in blocks of max(64, 1.5 n) rows; the
        # machine state must carry from one block into the next.
        model = BiasParams()
        n_heralds, block = 100, 150
        spanned = 0
        for seed in range(20, 30):
            stats = play_heralded(make_strategy("herald-gating"), model, n_heralds, seed)
            rng = rngstream.stream(seed)
            tape = np.concatenate([rng.random((block, 9)) for _ in range(stats.attempts // block + 1)])
            _, one_tape = play_tape(make_strategy("herald-gating"), model, tape, stop_after_heralds=n_heralds)
            assert one_tape == stats
            spanned += stats.attempts > block
        assert spanned >= 5

    def test_determinism_per_seed(self):
        a, b, c = (
            simulate_with_stats(make_strategy("streak-keyed"), BiasParams(tau=0.1), 2000, seed=seed)[0]
            for seed in (6, 6, 7)
        )
        assert columns(a) == columns(b)
        assert columns(a) != columns(c)


# Each setting's bias is a point mass at tau.
MODELS = [BiasParams(f=f, tau=tau) for f, tau in [(0.0, 0.0), (0.03, 0.08), (1.0, 0.0), (0.0, 0.5)]]


def threshold_tape(strategy, model, rows, seed):
    """A tape whose draws sit on the comparisons the engine makes, or at random.

    Each draw is 0.0, a herald cut, 1/2, 1/2 + tau, an output probability,
    f or a uniform value. Every third row puts each setting draw exactly on
    1/2 + tau.
    """
    special = {0.0, 0.5, model.f, 0.5 + model.tau, 1.0}
    special.update(cut for cut, _, _ in strategy.herald)
    special.update(p for side_tables in strategy.outputs for side in side_tables for p in side)
    rng = np.random.default_rng(seed)
    values = np.array(sorted(special))
    tape = np.where(rng.random((rows, 9)) < 0.5, rng.choice(values, (rows, 9)), rng.random((rows, 9)))
    tape[::3, [lhv._T_SET_A, lhv._T_SET_B]] = 0.5 + model.tau
    return tape


class TestTapeEngine:
    """The lockstep engine against the row-at-a-time oracle, bit for bit."""

    @pytest.mark.parametrize("name", sorted(CATALOG))
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: f"point-{m.f}-{m.tau}")
    def test_matches_row_oracle(self, name, model):
        strategy = make_strategy(name)
        for seed, tape in enumerate([rngstream.stream(21).random((500, 9)), threshold_tape(strategy, model, 500, 22)]):
            for state in range(len(strategy.herald)):
                want_trials, want_stats, want_state = oracles.run_tape(strategy, model, tape.tolist(), state=state)
                records, counts, end = lhv._run_tapes(strategy, model, tape[None], np.array([state]))
                assert columns(lhv._trials(records[0])) == columns(want_trials), (seed, state)
                assert SimStats(*counts[0].tolist()) == want_stats
                assert end.tolist() == [want_state]

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_runs_in_lockstep_stop_on_their_own(self, name):
        # Eight runs from different states and with different herald
        # targets share one call; each must play as it would alone.
        strategy = make_strategy(name)
        model = BiasParams(f=0.03, tau=0.08)
        tapes = np.stack([threshold_tape(strategy, model, 120, seed) for seed in range(8)])
        state = np.arange(8) % len(strategy.herald)
        stop = np.array([1, 2, 5, 40, 80, 119, 120, 500])
        records, counts, end = lhv._run_tapes(strategy, model, tapes, state, stop)
        for run in range(8):
            want_trials, want_stats, want_state = oracles.run_tape(
                strategy, model, tapes[run].tolist(), state=int(state[run]), stop_after_heralds=int(stop[run])
            )
            played = counts[run, 0]
            assert columns(lhv._trials(records[run, :played])) == columns(want_trials), run
            assert SimStats(*counts[run].tolist()) == want_stats
            assert end[run] == want_state

    @pytest.mark.parametrize("name", sorted(CATALOG))
    @pytest.mark.parametrize("n_heralds", [1, 7, 100])
    def test_heralded_runs_match_oracle(self, name, n_heralds):
        model = BiasParams(f=0.03, tau=0.08)
        strategy = make_strategy(name)
        got = lhv._play_heralded(strategy, model, n_heralds, 4, range(40))
        want = [oracles.play_heralded(strategy, model, n_heralds, rngstream.stream(4, i)) for i in range(40)]
        assert [SimStats(*row) for row in got.tolist()] == want

    def test_heralded_runs_span_blocks(self):
        # A box that heralds 30% of its attempts needs about 333 for 100
        # heralds: runs go on for two or three blocks of 150 rows and stop
        # inside the last, some while their batch mates have finished.
        sparse = lhv.Strategy("sparse", ((0.3, -1, 0),), (((0.0, 0.5), (0.5, 1.0)),), ((0,) * 48,))
        model = BiasParams(f=0.03, tau=0.08)
        got = lhv._play_heralded(sparse, model, 100, 5, range(40))
        want = [oracles.play_heralded(sparse, model, 100, rngstream.stream(5, i)) for i in range(40)]
        assert [SimStats(*row) for row in got.tolist()] == want
        blocks = set((got[:, 0] - 1) // 150 + 1)
        assert blocks == {2, 3}

    def test_gives_up_on_a_strategy_that_never_heralds(self):
        silent = lhv.Strategy("silent", ((0.0, 0, 0),), (((0.0, 0.0), (0.0, 0.0)),), ((0,) * 48,))
        with pytest.raises(RuntimeError, match="produced 0 heralds in 1024 attempts"):
            lhv._play_heralded(silent, BiasParams(), 1, 6, range(3))

    def test_gives_up_naming_the_first_run_short_of_heralds(self):
        # A box that heralds one attempt in 2,000 rarely reaches 5 heralds
        # within the budget of 5,000 attempts, 79 blocks of 64 rows. At seed
        # 1, run 0 gets there and runs 1-3 do not, with 2, 2 and 3 heralds:
        # the error names run 1, as playing the runs one by one would.
        rare = lhv.Strategy("rare", ((0.0005, -1, 0),), (((0.0, 0.0), (0.0, 0.0)),), ((0,) * 48,))
        tape = rngstream.stream(1, 1).random((79 * 64, 9)).tolist()
        _, short, _ = oracles.run_tape(rare, BiasParams(), tape, stop_after_heralds=5)
        with pytest.raises(RuntimeError, match=f"produced {short.heralded} heralds in {79 * 64} attempts"):
            lhv._play_heralded(rare, BiasParams(), 5, 1, range(4))

    @pytest.mark.parametrize("n, alpha", [(1, 0.9), (30, 0.3)])
    def test_batch_split_does_not_change_the_report(self, monkeypatch, n, alpha):
        def report():
            return adversary_suite(
                n=n, runs=45, alpha=alpha, seed=23, f=0.03, tau=0.08, strategies=sorted(CATALOG)
            )

        monkeypatch.setattr(lhv, "_BATCH_ROWS", 1)
        one_run_each = report()
        monkeypatch.setattr(lhv, "_BATCH_ROWS", 10**9)
        all_at_once = report()
        assert one_run_each == all_at_once
        assert 0 < one_run_each.rejections < one_run_each.runs


class TestLocality:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_flipping_b_setting_leaves_a_outcome_unchanged(self, name):
        model = BiasParams(f=0.03, tau=0.08)
        attempts = 400
        tape = rngstream.stream(8).random((attempts, 9))
        base = play_tape(make_strategy(name), model, tape)[0]
        for position in (50, 200, attempts - 1):
            # B's setting draw at its extremes: below 1/2 + tau picks B's
            # preferred setting, above it the other one.
            runs = []
            for draw in (0.0, np.nextafter(1.0, 0.0)):
                perturbed = tape.copy()
                perturbed[position, lhv._T_SET_B] = draw
                runs.append(play_tape(make_strategy(name), model, perturbed)[0])
            assert {int(run.setting_b[position]) for run in runs} == {0, 1}
            for run in runs:
                assert run.outcome_a[position] == base.outcome_a[position]
                # The prefix is untouched by construction.
                assert columns(run, position) == columns(base, position)


class TestBoundDomination:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    @pytest.mark.parametrize("f,tau", [(0.0, 0.0), (0.0, 0.1), (0.05, 0.0), (0.1, 0.05)])
    def test_no_strategy_beats_beta_win(self, name, f, tau):
        model = BiasParams(f=f, tau=tau)
        beta = beta_win_lemma(model)
        rate, n = win_rate(name, model, 20_000, seed=9)
        assert rate <= beta + three_sigma(beta, n), (name, f, tau, rate, beta)


class TestSimulateReference:
    def test_always_win_psi_minus_reaches_four(self):
        ts = simulate_reference({-1: 1.0}, herald_rate=1.0, attempts=2000, seed=11)
        estimate = chsh_s(ts.cells())
        assert estimate.s_psi_minus == 4.0
        assert estimate.s_weighted == 4.0

    def test_classical_rate_concentrates_at_two(self):
        ts = simulate_reference({-1: 0.75}, herald_rate=1.0, attempts=40_000, seed=12)
        k, n = aggregate(ts)
        estimate = chsh_s(ts.cells())
        assert abs(estimate.s_weighted - 2.0) < 5 * estimate.sigma
        assert abs(k / n - 0.75) <= three_sigma(0.75, n)

    def test_quantum_rate_concentrates_at_2_sqrt_2(self):
        w = (2.0 + math.sqrt(2.0)) / 4.0
        ts = simulate_reference({-1: w, +1: w}, herald_rate=0.8, attempts=50_000, seed=13)
        estimate = chsh_s(ts.cells())
        assert abs(estimate.s_weighted - 2.0 * math.sqrt(2.0)) < 5 * estimate.sigma

    def test_herald_rate_and_state_split(self):
        # Both states given: heralds split evenly between them.
        ts = simulate_reference({-1: 0.8, +1: 0.8}, herald_rate=0.5, attempts=40_000, seed=14)
        tags = ts.tag.tolist()
        n_heralded = sum(1 for t in tags if t != 0)
        n_plus = sum(1 for t in tags if t == 1)
        assert abs(n_heralded / len(tags) - 0.5) <= three_sigma(0.5, len(tags))
        assert abs(n_plus / n_heralded - 0.5) <= three_sigma(0.5, n_heralded)

    def test_single_state_map_forces_share(self):
        for state in (-1, +1):
            ts = simulate_reference({state: 0.9}, herald_rate=1.0, attempts=500, seed=15)
            assert all(t == state for t in ts.tag.tolist())

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_reference({}, herald_rate=0.5, attempts=10, seed=0)
        with pytest.raises(ValueError):
            simulate_reference({-1: 1.5}, herald_rate=0.5, attempts=10, seed=0)
        with pytest.raises(ValueError):
            simulate_reference({2: 0.5}, herald_rate=0.5, attempts=10, seed=0)
        with pytest.raises(ValueError):
            simulate_reference({-1: 0.5}, herald_rate=0.0, attempts=10, seed=0)


class TestAdversarySuite:
    def test_never_rejects_when_alpha_below_reach(self):
        # At n = 1 the smallest attainable P-value is 0.75 > 0.5.
        report = adversary_suite(n=1, runs=200, alpha=0.5, seed=16, strategies=["classical-optimal"])
        assert report.rejection_rate == 0.0

    def test_alpha_one_always_rejects(self):
        report = adversary_suite(n=20, runs=100, alpha=1.0, seed=17, strategies=["classical-optimal"])
        assert report.rejection_rate == 1.0

    def test_rate_bounded_smoke(self):
        report = adversary_suite(n=100, runs=2000, alpha=0.05, seed=18)
        assert set(report.by_strategy) == set(MEMORY_CATALOG)
        assert report.rejection_rate <= 0.05 + 3 * report.mc_error
        payload = report.to_dict()
        assert payload["runs"] == 2000

    def test_each_rate_has_its_error(self):
        # A per-strategy rate carries the binomial error that the pooled rate carries.
        report = lhv.AdversaryReport(n=50, alpha=0.05, beta=0.75, runs=40, rejections=1,
                                     by_strategy={"herald-gating": (1, 10), "coin-flip": (0, 30)})
        payload = report.to_dict()
        assert payload["by_strategy"]["herald-gating"] == {
            "rejections": 1, "runs": 10, "rate": 0.1, "mc_error": math.sqrt(0.1 * 0.9 / 10)}
        assert payload["by_strategy"]["coin-flip"]["mc_error"] == 0.0
        assert payload["mc_error"] == math.sqrt(0.025 * 0.975 / 40)

    def test_runs_split_across_catalog(self):
        report = adversary_suite(n=10, runs=10, alpha=0.05, seed=19, strategies=["classical-optimal", "coin-flip"])
        assert report.by_strategy["classical-optimal"][1] == 5
        assert report.by_strategy["coin-flip"][1] == 5

    def test_repeated_name_rejected(self, monkeypatch):
        # A name given twice would take two shares of the runs; the check comes before any run is played.
        monkeypatch.setattr(lhv, "_play_heralded", None)
        names = ["coin-flip", "classical-optimal", "coin-flip"]
        with pytest.raises(ValueError, match="^strategy 'coin-flip' is named more than once$"):
            adversary_suite(n=10, runs=9, alpha=0.3, seed=19, strategies=names)

    def test_fewer_runs_than_strategies_rejected(self, monkeypatch):
        # With 2 runs for 3 names the last name would get none and be left out of the report.
        names = ["coin-flip", "classical-optimal", "loss-switching"]
        report = adversary_suite(n=5, runs=3, alpha=0.05, seed=0, strategies=names)
        assert [(name, runs) for name, (_, runs) in report.by_strategy.items()] == [(name, 1) for name in names]
        monkeypatch.setattr(lhv, "_play_heralded", None)
        with pytest.raises(ValueError, match="^runs must be at least the number of strategies, 3, got 2$"):
            adversary_suite(n=5, runs=2, alpha=0.05, seed=0, strategies=names)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            adversary_suite(n=10, runs=10, alpha=0.05, seed=0, strategies=["nope"])

    @pytest.mark.parametrize("n", [1, 2, 7, 20, 100, 245, 500])
    @pytest.mark.parametrize("beta", [0.5, 0.75, 0.7975, 0.853553, 0.99, 1.0])
    def test_least_rejected_wins_matches_the_full_table(self, n, beta):
        # The bisection relies on pvalue_complete being nonincreasing in k;
        # the full table of n + 1 tails checks both the premise and the answer.
        table = [pvalue_complete(n, k, beta) for k in range(n + 1)]
        for alpha in (0.0, 1e-300, 1e-12, 1e-3, 0.05, 0.5, table[n // 2], 1.0):
            rejected = [p <= alpha for p in table]
            want = rejected.index(True) if True in rejected else n + 1
            assert rejected == [k >= want for k in range(n + 1)], (n, beta, alpha)
            assert lhv._least_rejected_wins(n, beta, alpha) == want, (n, beta, alpha)
