import numpy as np
import pytest

import zsgdual as zd
from zsgdual import duality

from oracles import (
    finite_scenario_value,
    random_finite_game,
    random_policy,
    random_ssp_game,
    reference_path,
    ssp_path_value,
)


@pytest.fixture(scope="module")
def upper_view(two_period):
    nu_hat = zd.suboptimal_minimizer_policy(two_period)
    return zd.fix_player(two_period, nu_hat, zd.PLAYER_B)


@pytest.fixture(scope="module")
def exact_upper_values(upper_view):
    values, _ = zd.solve_view(upper_view)
    return values


def one_period_view():
    p = np.ones((2, 2, 1))
    g = np.zeros((2, 2, 1))
    g[:, :, 0] = [[1.0, -2.0], [4.0, 0.5]]
    raw = zd.make_game(zd.FiniteHorizon(periods=1), [p], [g], root=0)
    emb = zd.embed_finite_horizon(raw)
    nu = zd.uniform_policy(emb, zd.PLAYER_B)
    return zd.fix_player(emb, nu, zd.PLAYER_B)


class TestInverseCdfTransition:
    def test_basic_rows(self):
        assert zd.inverse_cdf_transition(np.array([0.64, 0.36]), 0.5) == 0
        assert zd.inverse_cdf_transition(np.array([0.64, 0.36]), 0.7) == 1
        assert zd.inverse_cdf_transition(np.array([0.64, 0.36]), 0.0) == 0

    def test_deterministic_row(self):
        row = np.array([0.0, 0.0, 1.0, 0.0])
        for w in (0.0, 0.3, 0.999):
            assert zd.inverse_cdf_transition(row, w) == 2

    def test_shared_uniform_couples_rows(self):
        rows = [np.array([0.64, 0.36]), np.array([0.44, 0.56])]
        for w in (0.1, 0.5, 0.9):
            picks = [zd.inverse_cdf_transition(r, w) for r in rows]
            assert picks == sorted(picks)  # higher-mass-first row lags behind

    def test_rounding_shortfall_guarded(self):
        row = np.array([1.0 / 3.0] * 3)
        assert zd.inverse_cdf_transition(row, 0.9999999999999999) == 2

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            zd.inverse_cdf_transition(np.array([1.0]), 1.0)


class TestScenarioStreams:
    def test_deterministic_per_index(self):
        a = zd.scenario_rng(7, 3).random(5)
        b = zd.scenario_rng(7, 3).random(5)
        np.testing.assert_array_equal(a, b)

    def test_independent_across_indices(self):
        a = zd.scenario_rng(7, 0).random(5)
        b = zd.scenario_rng(7, 1).random(5)
        assert not np.array_equal(a, b)


class TestPenaltyTerm:
    def test_expected_minus_realized(self, two_period, upper_view):
        h = zd.first_action_value_generator(two_period)
        assert upper_view.kernel[0][0] @ h == pytest.approx(2.24, abs=1e-12)
        got = zd.make_penalty_term(upper_view, h, 0, 0, 1)
        assert got == pytest.approx(2.24 - 8.0, abs=1e-12)

    def test_zero_generator_gives_zero(self, upper_view):
        h = np.zeros(4)
        for x, a, nxt in [(0, 0, 1), (0, 1, 2), (1, 0, 3)]:
            assert zd.make_penalty_term(upper_view, h, x, a, nxt) == 0.0

    def test_unreachable_next_state_flagged(self, upper_view):
        h = np.zeros(4)
        with pytest.raises(zd.SupportViolation):
            zd.make_penalty_term(upper_view, h, 0, 0, 3)

    def test_zero_mean_under_nonanticipating_play(self, upper_view):
        # Simulate a fixed pure policy forward with the canonical coupling
        # and accumulate penalties; the sample mean must vanish.
        rng = np.random.default_rng(40)
        h = np.array([0.0, rng.uniform(-9, 9), rng.uniform(-9, 9), 0.0])
        n = 6000
        totals = np.empty(n)
        for i in range(n):
            w = zd.scenario_rng(40, i).random(2)
            x, total = 0, 0.0
            for t in range(2):
                nxt = zd.inverse_cdf_transition(upper_view.kernel[x][0], w[t])
                total += zd.make_penalty_term(upper_view, h, x, 0, nxt)
                x = nxt
            totals[i] = total
        se = totals.std(ddof=1) / np.sqrt(n)
        assert abs(totals.mean()) <= 3 * se


class TestFiniteInnerProblem:
    def test_exact_generator_is_tight_pathwise(self, upper_view, exact_upper_values):
        for w in ([0.1, 0.5], [0.43, 0.99], [0.64, 0.0], [0.999, 0.2]):
            got = zd.pi_inner_finite(upper_view, np.array(w), exact_upper_values)
            assert got == pytest.approx(5.6, abs=1e-9)

    def test_one_period_view_ignores_generator(self):
        view = one_period_view()
        h = np.array([3.0, 0.0])
        for w in (0.0, 0.37, 0.99):
            got = zd.pi_inner_finite(view, np.array([w]), h)
            assert got == pytest.approx(2.25, abs=1e-12)  # max_a of mixed costs

    def test_scenario_length_checked(self, upper_view):
        with pytest.raises(ValueError):
            zd.pi_inner_finite(upper_view, np.array([0.5]), np.zeros(4))

    def test_piecewise_structure_matches_enumeration(self, upper_view, two_period):
        # Inner values are constant between transition CDF breakpoints, so
        # probability-weighted cell samples must average to the oracle value.
        h = zd.first_action_value_generator(two_period)
        cells = [(0.0, 0.44), (0.44, 0.64), (0.64, 1.0)]
        total = 0.0
        for lo, hi in cells:
            v_lo = zd.pi_inner_finite(upper_view, np.array([lo + 1e-9, 0.5]), h)
            v_hi = zd.pi_inner_finite(upper_view, np.array([hi - 1e-9, 0.5]), h)
            assert v_lo == pytest.approx(v_hi, abs=1e-12)
            total += (hi - lo) * v_lo
        oracle = zd.exact_dual_bound_enumeration(upper_view, h)
        assert total == pytest.approx(oracle, abs=1e-9)


class TestEnumerationOracle:
    def test_exact_generator_reproduces_best_response(
        self, upper_view, exact_upper_values
    ):
        got = zd.exact_dual_bound_enumeration(upper_view, exact_upper_values)
        assert got == pytest.approx(5.6, abs=1e-12)

    def test_rough_generator_golden_value(self, upper_view, two_period):
        h = zd.first_action_value_generator(two_period)
        got = zd.exact_dual_bound_enumeration(upper_view, h)
        assert got == pytest.approx(6.0, abs=1e-12)

    def test_weak_duality_for_random_generators(self, upper_view):
        rng = np.random.default_rng(41)
        for _ in range(20):
            h = np.array([0.0, rng.uniform(-12, 12), rng.uniform(-12, 12), 0.0])
            bound = zd.exact_dual_bound_enumeration(upper_view, h)
            assert bound >= 5.6 - 1e-9

    def test_weak_duality_min_orientation(self, two_period):
        _, mu_star, _ = zd.shapley_value_iteration(two_period, tol=1e-12)
        view = zd.fix_player(two_period, mu_star, zd.PLAYER_A)
        exact, _ = zd.solve_view(view)
        rng = np.random.default_rng(42)
        for _ in range(20):
            h = np.array([0.0, rng.uniform(-12, 12), rng.uniform(-12, 12), 0.0])
            bound = zd.exact_dual_bound_enumeration(view, h)
            assert bound <= exact[0] + 1e-9
            est = zd.estimate_dual_bound_finite(view, h, 2000, seed=1)
            assert abs(est.mean - bound) <= max(3 * est.standard_error, 1e-9)

    def test_one_period_view(self):
        view = one_period_view()
        got = zd.exact_dual_bound_enumeration(view, np.zeros(2))
        assert got == pytest.approx(2.25, abs=1e-12)

    def test_cell_budget_guard(self, upper_view):
        with pytest.raises(zd.CellBudgetExceeded):
            zd.exact_dual_bound_enumeration(upper_view, np.zeros(4), cell_budget=2)


class TestFiniteEstimator:
    def test_strong_duality_zero_variance(self, upper_view, exact_upper_values):
        est = zd.estimate_dual_bound_finite(
            upper_view, exact_upper_values, 1000, seed=1, keep_values=True
        )
        assert est.mean == pytest.approx(5.6, abs=1e-9)
        assert est.standard_error == 0.0
        assert np.abs(est.per_scenario_values - 5.6).max() < 1e-9

    def test_estimate_matches_oracle(self, upper_view, two_period):
        h = zd.first_action_value_generator(two_period)
        oracle = zd.exact_dual_bound_enumeration(upper_view, h)
        est = zd.estimate_dual_bound_finite(upper_view, h, 10_000, seed=1)
        assert abs(est.mean - oracle) <= 3 * est.standard_error
        assert est.standard_error <= 0.05

    def test_same_seed_same_bits(self, upper_view, two_period):
        h = zd.first_action_value_generator(two_period)
        a = zd.estimate_dual_bound_finite(upper_view, h, 500, seed=9, keep_values=True)
        b = zd.estimate_dual_bound_finite(upper_view, h, 500, seed=9, keep_values=True)
        assert a.mean == b.mean and a.standard_error == b.standard_error
        np.testing.assert_array_equal(a.per_scenario_values, b.per_scenario_values)

    def test_scenario_values_are_prefix_stable(self, upper_view, two_period):
        # Scenario i depends only on (seed, i): drawing more scenarios
        # cannot change the ones already drawn.
        h = zd.first_action_value_generator(two_period)
        short, full = (
            zd.estimate_dual_bound_finite(upper_view, h, n, seed=3, keep_values=True)
            for n in (1000, 2000)
        )
        assert np.unique(full.per_scenario_values).size > 1
        np.testing.assert_array_equal(
            short.per_scenario_values, full.per_scenario_values[:1000]
        )

    def test_requires_two_scenarios(self, upper_view):
        with pytest.raises(ValueError):
            zd.estimate_dual_bound_finite(upper_view, np.zeros(4), 1, seed=1)


class TestReferenceMeasure:
    def test_uniform_covers_all_states(self, waste3):
        q = zd.make_uniform_reference(waste3)
        n = waste3.n_states
        np.testing.assert_allclose(q.kernel[0], np.full(n, 1.0 / n), atol=1e-15)
        assert q.kernel[q.absorbing, q.absorbing] == 1.0

    def test_two_state_toy(self):
        model = random_ssp_game(np.random.default_rng(50), n_states=2, max_actions=1)
        q = zd.make_uniform_reference(model)
        np.testing.assert_allclose(q.kernel[0], [0.5, 0.5])

    def test_rejects_unreachable_absorption(self):
        kernel = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            zd.ReferenceMeasure(kernel=kernel, absorbing=1)

    def test_abs_continuity_flags_missing_support(self, waste3):
        mu = zd.uniform_policy(waste3, zd.PLAYER_A)
        view = zd.fix_player(waste3, mu, zd.PLAYER_A)
        q = zd.make_uniform_reference(waste3)
        assert zd.validate_abs_continuity(view, q) == []
        # Forbid self-transitions: every on-diagonal reachable move is listed.
        n = waste3.n_states
        kernel = np.full((n, n), 1.0 / (n - 1))
        np.fill_diagonal(kernel, 0.0)
        kernel[q.absorbing] = 0.0
        kernel[q.absorbing, q.absorbing] = 1.0
        q_noself = zd.ReferenceMeasure(kernel=kernel, absorbing=q.absorbing)
        bad = zd.validate_abs_continuity(view, q_noself)
        assert bad and all(x == j for x, _, j in bad)


class TestQPathSimulation:
    def test_immediate_absorption(self, waste3):
        n = waste3.n_states
        kernel = np.zeros((n, n))
        kernel[:, waste3.absorbing] = 1.0
        q = zd.ReferenceMeasure(kernel=kernel, absorbing=waste3.absorbing)
        path = zd.simulate_q_path(q, waste3.root, seed=1)
        assert list(path) == [waste3.root, waste3.absorbing]

    def test_geometric_path_length(self, waste3):
        q = zd.make_uniform_reference(waste3)
        n = waste3.n_states
        lengths = np.array(
            [len(zd.simulate_q_path(q, waste3.root, seed=s)) - 1 for s in range(4000)]
        )
        se = lengths.std(ddof=1) / np.sqrt(len(lengths))
        assert abs(lengths.mean() - n) <= 3 * se

    def test_seed_reproducibility(self, waste3):
        q = zd.make_uniform_reference(waste3)
        a = zd.simulate_q_path(q, waste3.root, seed=123)
        b = zd.simulate_q_path(q, waste3.root, seed=123)
        np.testing.assert_array_equal(a, b)

    def test_path_cap(self, waste3):
        q = zd.make_uniform_reference(waste3)
        with pytest.raises(zd.PathCapExceeded):
            zd.simulate_q_path(q, waste3.root, seed=1, cap=1)

    def test_matches_one_uniform_at_a_time_redraw(self, waste3):
        q = zd.make_uniform_reference(waste3)
        for seed in range(20):
            np.testing.assert_array_equal(
                zd.simulate_q_path(q, waste3.root, seed=seed),
                reference_path(q.kernel, q.absorbing, waste3.root, seed, 0),
            )


class TestWeakFormInner:
    def test_exact_generator_zero_variance(self, waste3):
        nu = zd.uniform_policy(waste3, zd.PLAYER_B)
        view = zd.fix_player(waste3, nu, zd.PLAYER_B)
        values, _ = zd.solve_view(view, tol=0.0)
        q = zd.make_uniform_reference(waste3)
        for s in range(40):
            path = zd.simulate_q_path(q, waste3.root, seed=s)
            got = zd.weak_form_inner_ssp(view, path, q, values)
            assert got == values[waste3.root]

    def test_deterministic_chain_totals_path_cost(self):
        # 0 -> 1 -> absorbing with unit action sets and q equal to the chain.
        n = 3
        costs = [1.5, 2.5]
        trans, cost = [], []
        for i, c in enumerate(costs):
            p = np.zeros((1, 1, n))
            p[0, 0, i + 1] = 1.0
            g = np.full((1, 1, n), c)
            trans.append(p)
            cost.append(g)
        pa = np.zeros((1, 1, n))
        pa[0, 0, 2] = 1.0
        trans.append(pa)
        cost.append(np.zeros((1, 1, n)))
        model = zd.make_game(zd.Ssp(absorbing=2), trans, cost, root=0)
        view = zd.fix_player(
            model, zd.uniform_policy(model, zd.PLAYER_B), zd.PLAYER_B
        )
        kernel = np.zeros((n, n))
        kernel[0, 1] = 1.0
        kernel[1, 2] = 1.0
        kernel[2, 2] = 1.0
        q = zd.ReferenceMeasure(kernel=kernel, absorbing=2)
        got = zd.weak_form_inner_ssp(view, np.array([0, 1, 2]), q, np.zeros(n))
        assert got == pytest.approx(4.0, abs=1e-12)

    def test_one_step_path_reduces_to_stage_optimum(self):
        # True kernel cannot absorb from the start state, q can: with a zero
        # generator the single-step value is just the best stage cost.
        rng = np.random.default_rng(51)
        n = 3
        p0 = np.zeros((2, 2, n))
        p0[:, :, 1] = 1.0  # every action pair moves to state 1, never absorbs
        g0 = rng.uniform(1.0, 4.0, size=(2, 2, n))
        p1 = np.zeros((1, 1, n))
        p1[0, 0, 2] = 0.5
        p1[0, 0, 1] = 0.5
        g1 = np.ones((1, 1, n))
        pa = np.zeros((1, 1, n))
        pa[0, 0, 2] = 1.0
        model = zd.make_game(
            zd.Ssp(absorbing=2), [p0, p1, pa], [g0, g1, np.zeros((1, 1, n))], root=0
        )
        mu = zd.uniform_policy(model, zd.PLAYER_A)
        view = zd.fix_player(model, mu, zd.PLAYER_A)  # min orientation, 1 action
        q = zd.make_uniform_reference(model)
        got = zd.weak_form_inner_ssp(view, np.array([0, 2]), q, np.zeros(n))
        expected = view.cost[0].min()
        assert got == pytest.approx(float(expected), abs=1e-12)

    def test_path_must_reach_absorbing(self, waste3):
        nu = zd.uniform_policy(waste3, zd.PLAYER_B)
        view = zd.fix_player(waste3, nu, zd.PLAYER_B)
        q = zd.make_uniform_reference(waste3)
        with pytest.raises(ValueError):
            zd.weak_form_inner_ssp(view, np.array([0, 1]), q, np.zeros(13))


class TestSspEstimator:
    def test_zero_variance_at_exact_generator(self, waste3):
        mu = zd.uniform_policy(waste3, zd.PLAYER_A)
        view = zd.fix_player(waste3, mu, zd.PLAYER_A)
        values, _ = zd.solve_view(view, tol=0.0)
        q = zd.make_uniform_reference(waste3)
        est = zd.estimate_dual_bound_ssp(
            view, values, q, 300, seed=5, keep_values=True
        )
        assert est.mean == values[waste3.root]
        assert est.standard_error == 0.0

    def test_bounds_hold_on_random_views(self):
        rng = np.random.default_rng(52)
        for trial in range(6):
            model = random_ssp_game(rng, n_states=4, max_actions=2)
            q = zd.make_uniform_reference(model)
            for player, orientation in ((zd.PLAYER_B, "max"), (zd.PLAYER_A, "min")):
                fixed = random_policy(rng, model, player)
                view = zd.fix_player(model, fixed, player)
                values, _ = zd.solve_view(view, tol=1e-12)
                h = values + rng.uniform(-0.5, 0.5, size=model.n_states) * np.array(
                    [1, 1, 1, 0]
                )
                est = zd.estimate_dual_bound_ssp(view, h, q, 20_000, seed=trial)
                if orientation == "max":
                    assert est.mean + 3 * est.standard_error >= values[0] - 1e-9
                else:
                    assert est.mean - 3 * est.standard_error <= values[0] + 1e-9

    def test_seed_reproducibility(self, waste3):
        nu = zd.uniform_policy(waste3, zd.PLAYER_B)
        view = zd.fix_player(waste3, nu, zd.PLAYER_B)
        values, _ = zd.solve_view(view, tol=0.0)
        q = zd.make_uniform_reference(waste3)
        a = zd.estimate_dual_bound_ssp(view, values, q, 200, seed=8, keep_values=True)
        b = zd.estimate_dual_bound_ssp(view, values, q, 200, seed=8, keep_values=True)
        assert a.mean == b.mean
        np.testing.assert_array_equal(a.per_scenario_values, b.per_scenario_values)

    def test_path_values_are_prefix_stable(self, waste3):
        mu = zd.uniform_policy(waste3, zd.PLAYER_A)
        view = zd.fix_player(waste3, mu, zd.PLAYER_A)
        values, _ = zd.solve_view(view, tol=0.0)
        h = values * 0.98  # small perturbation keeps per-path values distinct
        q = zd.make_uniform_reference(waste3)
        short, full = (
            zd.estimate_dual_bound_ssp(view, h, q, n, seed=4, keep_values=True)
            for n in (500, 1000)
        )
        assert np.unique(full.per_scenario_values).size > 1
        np.testing.assert_array_equal(
            short.per_scenario_values, full.per_scenario_values[:500]
        )

    def test_path_values_are_prefix_stable_across_blocks(self, waste3):
        # A run that ends inside its second block, against one that ends
        # inside its third: neither count is a multiple of the block size.
        nu = zd.uniform_policy(waste3, zd.PLAYER_B)
        view = zd.fix_player(waste3, nu, zd.PLAYER_B)
        values, _ = zd.solve_view(view, tol=0.0)
        q = zd.make_uniform_reference(waste3)
        k = duality._BLOCK + 37
        short, full = (
            zd.estimate_dual_bound_ssp(view, 0.98 * values, q, n, seed=6, keep_values=True)
            for n in (k, 2 * k)
        )
        assert np.unique(full.per_scenario_values).size > 1
        np.testing.assert_array_equal(
            short.per_scenario_values, full.per_scenario_values[:k]
        )

    def test_path_cap_applies_to_every_path(self, waste3):
        nu = zd.uniform_policy(waste3, zd.PLAYER_B)
        view = zd.fix_player(waste3, nu, zd.PLAYER_B)
        q = zd.make_uniform_reference(waste3)
        with pytest.raises(zd.PathCapExceeded):
            zd.estimate_dual_bound_ssp(view, np.zeros(13), q, 50, seed=1, cap=1)

    def test_overflow_reports_infinite_standard_error(self, waste3):
        # A generator near the float limit overflows the recursion on some
        # paths: the estimate says so (se = inf), with no NumPy warning.
        nu = zd.uniform_policy(waste3, zd.PLAYER_B)
        view = zd.fix_player(waste3, nu, zd.PLAYER_B)
        q = zd.make_uniform_reference(waste3)
        pair = zd.evaluate_policy_pair(
            waste3, zd.uniform_policy(waste3, zd.PLAYER_A), nu
        )
        est = zd.estimate_dual_bound_ssp(
            view, 1e300 * pair, q, 300, seed=1, keep_values=True
        )
        assert 0 < np.isinf(est.per_scenario_values).sum() < 300
        assert est.mean == np.inf
        assert est.standard_error == np.inf

    @pytest.mark.parametrize("x0", [6, 7, -1, -2])
    def test_start_must_be_a_non_absorbing_state(self, x0):
        # Waste N=2 has 7 states; state 6 absorbs and its value is 0, so a
        # negative index or the absorbing state would bound another state.
        model = zd.build_waste_inspection_game(zd.WasteGameConfig(n_sites=2))
        assert (model.n_states, model.absorbing) == (7, 6)
        nu = zd.uniform_policy(model, zd.PLAYER_B)
        view = zd.fix_player(model, nu, zd.PLAYER_B)
        values, _ = zd.solve_view(view, tol=0.0)
        q = zd.make_uniform_reference(model)
        with pytest.raises(ValueError, match="non-absorbing"):
            zd.estimate_dual_bound_ssp(view, values, q, 50, seed=1, x0=x0)


class TestBatchedKernelsMatchScalarReference:
    """Per-scenario values equal the one-scenario loops in ``oracles`` bit
    for bit, across block boundaries, both orientations, overflow and the
    zero-likelihood-ratio branch."""

    @staticmethod
    def assert_same_bits(got, want):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def check_ssp(self, view, h, q, n, seed):
        est = zd.estimate_dual_bound_ssp(view, h, q, n, seed, keep_values=True)
        want = np.array([
            ssp_path_value(
                view, reference_path(q.kernel, q.absorbing, view.root, seed, i),
                q.kernel, h,
            )
            for i in range(n)
        ])
        self.assert_same_bits(est.per_scenario_values, want)
        return want

    def check_finite(self, view, h, n, seed):
        est = zd.estimate_dual_bound_finite(view, h, n, seed, keep_values=True)
        want = np.array([
            finite_scenario_value(view, zd.scenario_rng(seed, i).random(view.horizon), h)
            for i in range(n)
        ])
        self.assert_same_bits(est.per_scenario_values, want)
        return want

    @pytest.mark.parametrize("player", [zd.PLAYER_A, zd.PLAYER_B])
    def test_waste_game_generators(self, waste3, player):
        mu = zd.uniform_policy(waste3, zd.PLAYER_A)
        nu = zd.uniform_policy(waste3, zd.PLAYER_B)
        view = zd.fix_player(waste3, mu if player == zd.PLAYER_A else nu, player)
        exact, _ = zd.solve_view(view, tol=0.0)
        pair = zd.evaluate_policy_pair(waste3, mu, nu)
        q = zd.make_uniform_reference(waste3)
        for h in (exact, 0.97 * exact, pair):
            self.check_ssp(view, h, q, 200, seed=2)
        overflowed = self.check_ssp(view, 1e300 * pair, q, 200, seed=2)
        assert np.isinf(overflowed).any()

    def test_random_ssp_games(self):
        rng = np.random.default_rng(53)
        for trial in range(3):
            model = random_ssp_game(rng, n_states=5, max_actions=3)
            q = zd.make_uniform_reference(model)
            for player in (zd.PLAYER_A, zd.PLAYER_B):
                view = zd.fix_player(model, random_policy(rng, model, player), player)
                values, _ = zd.solve_view(view, tol=1e-12)
                h = values + rng.uniform(-1.0, 1.0, model.n_states) * (
                    np.arange(model.n_states) != model.absorbing
                )
                self.check_ssp(view, h, q, 150, seed=trial)

    def test_two_period_game(self, two_period, upper_view, exact_upper_values):
        h = zd.first_action_value_generator(two_period)
        values = self.check_finite(upper_view, h, duality._BLOCK + 88, seed=4)
        assert np.unique(values).size > 1
        self.check_finite(upper_view, exact_upper_values, 300, seed=4)
        mu = zd.uniform_policy(two_period, zd.PLAYER_A)
        lower = zd.fix_player(two_period, mu, zd.PLAYER_A)
        self.check_finite(lower, h, 300, seed=5)

    def test_random_embedded_finite_game(self):
        rng = np.random.default_rng(54)
        game = zd.embed_finite_horizon(random_finite_game(rng, periods=4))
        for player in (zd.PLAYER_A, zd.PLAYER_B):
            view = zd.fix_player(game, random_policy(rng, game, player), player)
            values, _ = zd.solve_view(view)
            h = values + rng.uniform(-1.0, 1.0, game.n_states)
            self.check_finite(view, h, 300, seed=7)
            self.check_finite(view, values, 100, seed=8)

    def test_single_scenario_helpers(self, waste3, upper_view, two_period):
        h = zd.first_action_value_generator(two_period)
        for w in ([0.1, 0.5], [0.43, 0.99], [0.999, 0.0]):
            got = zd.pi_inner_finite(upper_view, np.array(w), h)
            assert got == finite_scenario_value(upper_view, np.array(w), h)
        nu = zd.uniform_policy(waste3, zd.PLAYER_B)
        view = zd.fix_player(waste3, nu, zd.PLAYER_B)
        values, _ = zd.solve_view(view, tol=0.0)
        q = zd.make_uniform_reference(waste3)
        for seed in range(5):
            path = zd.simulate_q_path(q, waste3.root, seed=seed)
            got = zd.weak_form_inner_ssp(view, path, q, 0.9 * values)
            assert got == ssp_path_value(view, path, q.kernel, 0.9 * values)


class TestDualSandwich:
    def test_two_period_with_rough_upper_generator(self, two_period):
        _, mu_star, _ = zd.shapley_value_iteration(two_period, tol=1e-12)
        nu_hat = zd.suboptimal_minimizer_policy(two_period)
        view_lower = zd.fix_player(two_period, mu_star, zd.PLAYER_A)
        h_lower, _ = zd.solve_view(view_lower)
        h_upper = zd.first_action_value_generator(two_period)
        bounds = zd.dual_sandwich(
            two_period, mu_star, nu_hat, h_lower, h_upper, None, n=4000, seed=2
        )
        assert bounds.lower.mean == pytest.approx(5.0, abs=1e-9)
        assert bounds.lower.standard_error == 0.0
        assert abs(bounds.upper.mean - 6.0) <= 3 * bounds.upper.standard_error

    def test_collapses_at_equilibrium(self, two_period):
        _, mu_star, nu_star = zd.shapley_value_iteration(two_period, tol=1e-12)
        h_low, _ = zd.solve_view(zd.fix_player(two_period, mu_star, zd.PLAYER_A))
        h_up, _ = zd.solve_view(zd.fix_player(two_period, nu_star, zd.PLAYER_B))
        bounds = zd.dual_sandwich(
            two_period, mu_star, nu_star, h_low, h_up, None, n=500, seed=3
        )
        assert bounds.lower.mean == pytest.approx(5.0, abs=1e-9)
        assert bounds.upper.mean == pytest.approx(5.0, abs=1e-9)
        assert bounds.lower.standard_error == 0.0
        assert bounds.upper.standard_error == 0.0

    def test_waste_game_with_response_value_generators(self, waste3):
        mu = zd.uniform_policy(waste3, zd.PLAYER_A)
        nu = zd.uniform_policy(waste3, zd.PLAYER_B)
        lo_exact, _ = zd.solve_view(zd.fix_player(waste3, mu, zd.PLAYER_A), tol=0.0)
        hi_exact, _ = zd.solve_view(zd.fix_player(waste3, nu, zd.PLAYER_B), tol=0.0)
        bounds = zd.dual_sandwich(
            waste3, mu, nu, lo_exact, hi_exact, None, n=400, seed=6
        )
        assert bounds.lower.mean == lo_exact[waste3.root]
        assert bounds.upper.mean == hi_exact[waste3.root]

    def test_brackets_equilibrium_with_slack(self):
        rng = np.random.default_rng(53)
        for trial in range(4):
            model = random_ssp_game(rng, n_states=4, max_actions=2)
            J_star, _, _ = zd.shapley_value_iteration(model, tol=1e-11)
            mu = random_policy(rng, model, zd.PLAYER_A)
            nu = random_policy(rng, model, zd.PLAYER_B)
            h_low, _ = zd.solve_view(zd.fix_player(model, mu, zd.PLAYER_A), tol=1e-12)
            h_up, _ = zd.solve_view(zd.fix_player(model, nu, zd.PLAYER_B), tol=1e-12)
            bounds = zd.dual_sandwich(
                model, mu, nu, h_low, h_up, None, n=4000, seed=trial
            )
            lo = bounds.lower.mean - 3 * bounds.lower.standard_error
            hi = bounds.upper.mean + 3 * bounds.upper.standard_error
            assert lo <= J_star[0] + 1e-7
            assert J_star[0] <= hi + 1e-7

    def test_discounted_games_rejected(self):
        model_rng = np.random.default_rng(54)
        from oracles import random_discounted_game

        model = random_discounted_game(model_rng, n_states=3)
        mu = random_policy(model_rng, model, zd.PLAYER_A)
        nu = random_policy(model_rng, model, zd.PLAYER_B)
        with pytest.raises(ValueError):
            zd.dual_sandwich(
                model, mu, nu, np.zeros(3), np.zeros(3), None, n=10, seed=1
            )
