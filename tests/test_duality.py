import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

import zsgdual as zd
from zsgdual import duality

from oracles import (
    dense_kernel,
    finite_scenario_value,
    icdf,
    random_finite_game,
    random_policy,
    random_sparse_ssp_game,
    random_ssp_game,
    reference_path,
    skipping_view,
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
        assert duality.inverse_cdf_transition(np.array([0.64, 0.36]), 0.5) == 0
        assert duality.inverse_cdf_transition(np.array([0.64, 0.36]), 0.7) == 1
        assert duality.inverse_cdf_transition(np.array([0.64, 0.36]), 0.0) == 0

    def test_deterministic_row(self):
        row = np.array([0.0, 0.0, 1.0, 0.0])
        for w in (0.0, 0.3, 0.999):
            assert duality.inverse_cdf_transition(row, w) == 2

    def test_shared_uniform_couples_rows(self):
        rows = [np.array([0.64, 0.36]), np.array([0.44, 0.56])]
        for w in (0.1, 0.5, 0.9):
            picks = [duality.inverse_cdf_transition(r, w) for r in rows]
            assert picks == sorted(picks)  # higher-mass-first row lags behind

    def test_rounding_shortfall_guarded(self):
        row = np.array([1.0 / 3.0] * 3)
        assert duality.inverse_cdf_transition(row, 0.9999999999999999) == 2

    @pytest.mark.parametrize(
        "row", [[0.2, 0.2], [np.nan, 1.0], [-0.5, 1.5], [0.5, 0.5 + 1e-11], [[0.5, 0.5]]]
    )
    def test_rejects_rows_that_are_not_distributions(self, row):
        with pytest.raises(ValueError, match="not a distribution"):
            duality.inverse_cdf_transition(np.array(row), 0.5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            duality.inverse_cdf_transition(np.array([1.0]), 1.0)

    def test_last_rise_table_matches_rounding_loop(self):
        # Rows whose cumulative sum falls short of 1, with zero or tiny
        # trailing masses, padded with zeros to one width.
        rows = [
            [0.1] * 10,
            [0.1] * 10 + [1e-20],
            [0.7, 0.2, 0.1, 1e-18],
            [1.0 / 3.0] * 3,
            [0.0, 0.0, 1.0, 0.0],
            [1.0],
            [0.0] * 12,
        ]
        cum = np.cumsum([r + [0.0] * (12 - len(r)) for r in rows], axis=1)
        w = np.unique(np.concatenate([
            np.linspace(0.0, 1.0, 201)[:-1], cum.ravel(), [np.nextafter(1.0, 0.0)]
        ]))
        w = w[w < 1.0]
        last = zd.games.last_rise(cum)
        fallback = 0
        for c, k in zip(cum, last):
            got = duality._icdf(c, w, k)
            assert got.tolist() == [icdf(c, x) for x in w]
            fallback += int((np.searchsorted(c, w, side="right") >= len(c)).sum())
        assert fallback > 0
        pick = np.arange(len(w)) % len(rows)
        search = duality._GuideTable.of(cum)
        got = search(pick, w * search.scale)
        assert got.tolist() == [icdf(cum[i], x) for i, x in zip(pick, w)]

    @pytest.mark.parametrize("row", [[0.5, 0.5, 1e-17], [0.7, 0.2, 0.1, 1e-17]])
    def test_trailing_mass_that_leaves_the_cdf_is_never_drawn(self, row):
        # The second row's CDF falls short of 1, so the draw nextafter(1, 0)
        # runs past its end and takes the cap.
        n = len(row)
        cum = np.cumsum(row)
        assert cum[-1] == cum[-2]
        w = np.unique(np.concatenate([
            np.linspace(0.0, 1.0, 101)[:-1], cum, [np.nextafter(1.0, 0.0)]
        ]))
        w = w[w < 1.0]
        want = [icdf(cum, x) for x in w]
        assert max(want) == n - 2
        search = duality._GuideTable.of(cum[None])
        assert search(np.zeros(len(w), dtype=np.intp), w * search.scale).tolist() == want
        # State 0 (period 0) moves by the row to states 1..n (period 1),
        # which absorb at state n + 1.
        kernel = np.zeros((n + 2, 1, n + 2))
        kernel[0, 0, 1 : n + 1] = row
        kernel[1:, 0, n + 1] = 1.0
        cost, succ, prob = zd.games.stack_view(list(np.zeros((n + 2, 1))), list(kernel), "max")
        view = zd.games.MdpView(
            orientation="max", n_states=n + 2, n_actions=np.ones(n + 2, dtype=int),
            cost=cost, succ=succ, prob=prob, regime=zd.Ssp(absorbing=n + 1),
            root=0, horizon=2, period=np.array([0] + [1] * n + [2]),
        )
        p = view.periods[0]
        assert p.cols.tolist() == list(range(1, n))
        got = [int(p.cols[p.dest[0, np.count_nonzero(p.cum[0] <= x)]]) - 1 for x in w]
        assert got == want


class TestGuideTableSearch:
    """The bucketed inverse-CDF search of reference paths returns
    ``oracles.icdf``'s index for every row and draw."""

    @staticmethod
    def check(rows):
        cum = np.cumsum(rows, axis=1)
        search = duality._GuideTable.of(cum)
        B = search.scale
        assert B >= cum.shape[1] and B & (B - 1) == 0
        w = np.unique(np.concatenate([
            np.arange(B) / B,  # bucket edges
            cum.ravel(),  # breakpoints, and the doubles beside them
            np.nextafter(cum.ravel(), 0.0),
            np.nextafter(cum.ravel(), 2.0),
            np.linspace(0.0, 1.0, 97),
            [np.nextafter(1.0, 0.0)],
        ]))
        w = w[(w >= 0.0) & (w < 1.0)]
        x = np.repeat(np.arange(len(cum)), len(w))
        w = np.tile(w, len(cum))
        got = search(x, w * B)
        assert got.tolist() == [icdf(cum[i], v) for i, v in zip(x, w)]
        return search

    def test_clustered_breakpoints_share_a_bucket(self):
        tiny = [1e-9] * 5
        rows = [
            [0.3] + tiny + [0.7 - 5e-9, 0.0],
            tiny + [0.5, 0.5 - 5e-9, 0.0],
            [0.125] * 8,
        ]
        search = self.check(rows)
        assert len(search.cols) >= 5

    def test_runs_of_zero_masses_are_not_searched(self):
        # Only rise values are compared, so a repeated CDF value never
        # crowds a bucket.
        search = self.check([[0.5] + [0.0] * 6 + [0.5], [0.0] * 7 + [1.0]])
        assert len(search.cols) == 1

    @pytest.mark.parametrize("n", [1, 2, 65])
    def test_row_widths(self, n):
        rng = np.random.default_rng(n)
        rows = [rng.dirichlet(np.ones(n)), np.full(n, 1.0 / n), np.eye(n)[n - 1]]
        sparse = np.zeros(n)
        sparse[rng.choice(n, size=min(n, 3), replace=False)] = 1.0
        rows.append(sparse / sparse.sum())
        search = self.check(rows)
        assert search.scale == {1: 1, 2: 2, 65: 128}[n]

    def test_final_sums_off_one_by_rounding(self):
        rows = [[0.1] * 10, [0.7, 0.2, 0.1] + [0.0] * 7, [0.5, 0.5000000000000002] + [0.0] * 8]
        cum = np.cumsum(rows, axis=1)
        assert cum[:2, -1].tolist() == [0.9999999999999999] * 2
        assert cum[2, -1] == 1.0000000000000002
        self.check(rows)

    @pytest.mark.parametrize("kind", ["clustered", "sparse"])
    def test_estimates_match_one_uniform_at_a_time_redraw(self, kind):
        # q puts weight where a random view moves, plus the absorbing state;
        # a clustered q also puts 1e-9 on every other state, so a run of CDF
        # entries 1e-9 apart shares a bucket.
        rng = np.random.default_rng(64)
        for trial in range(3):
            model = random_sparse_ssp_game(rng, n_states=8, max_actions=3)
            view = zd.fix_player(model, random_policy(rng, model, zd.PLAYER_B), zd.PLAYER_B)
            a = model.absorbing
            moves = (dense_kernel(view) > 0.0).any(axis=1)
            moves[:, a] = True
            weight = rng.uniform(0.5, 1.5, moves.shape)
            kernel = np.where(moves, weight, 1e-9 if kind == "clustered" else 0.0)
            kernel[a] = np.eye(8)[a]
            q = zd.ReferenceMeasure(kernel=kernel / kernel.sum(axis=1, keepdims=True), absorbing=a)
            assert kind == "sparse" or len(q.search.cols) > 2
            h = rng.uniform(-2.0, 2.0, 8)
            est = zd.estimate_dual_bound_ssp(view, h, q, 200, seed=trial, keep_values=True)
            paths = [reference_path(q.kernel, a, view.root, trial, i) for i in range(200)]
            want = np.array([ssp_path_value(view, path, q.kernel, h) for path in paths])
            assert est.per_scenario_values.tobytes() == want.tobytes()


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
    """A period's penalty is the expected minus the realized value of the
    generator at the next state, ``kernel[x, a] @ h - h[next]``."""

    def test_expected_minus_realized(self, two_period, upper_view):
        h = zd.first_action_value_generator(two_period)
        kernel = dense_kernel(upper_view)
        assert kernel[0, 0] @ h == pytest.approx(2.24, abs=1e-12)
        assert kernel[0, 0] @ h - h[1] == pytest.approx(2.24 - 8.0, abs=1e-12)

    def test_zero_generator_gives_zero(self, upper_view):
        # With h = 0 a scenario's value is the unpenalized clairvoyant optimum.
        h = np.zeros(4)
        est = zd.estimate_dual_bound_finite(upper_view, h, 50, seed=3, keep_values=True)
        want = [finite_scenario_value(upper_view, zd.scenario_rng(3, i).random(2), h)
                for i in range(50)]
        assert est.per_scenario_values.tolist() == want

    @pytest.mark.parametrize("h", [[np.nan, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    def test_generator_checked(self, upper_view, waste3, h):
        with pytest.raises(ValueError, match="generator"):
            zd.estimate_dual_bound_finite(upper_view, np.array(h), 10, seed=1)
        view = zd.fix_player(waste3, zd.uniform_policy(waste3, zd.PLAYER_B), zd.PLAYER_B)
        q = zd.make_uniform_reference(waste3)
        with pytest.raises(ValueError, match="generator"):
            zd.estimate_dual_bound_ssp(view, np.array(h), q, 10, seed=1)

    def test_zero_mean_under_nonanticipating_play(self, upper_view):
        # Simulate a fixed pure policy forward with the canonical coupling
        # and accumulate penalties; the sample mean must vanish.
        rng = np.random.default_rng(40)
        h = np.array([0.0, rng.uniform(-9, 9), rng.uniform(-9, 9), 0.0])
        n = 6000
        totals = np.empty(n)
        kernel = dense_kernel(upper_view)
        for i in range(n):
            w = zd.scenario_rng(40, i).random(2)
            x, total = 0, 0.0
            for t in range(2):
                nxt = icdf(np.cumsum(kernel[x, 0]), w[t])
                total += kernel[x, 0] @ h - h[nxt]
                x = nxt
            totals[i] = total
        se = totals.std(ddof=1) / np.sqrt(n)
        assert abs(totals.mean()) <= 3 * se


class TestFiniteInnerProblem:
    def test_exact_generator_is_tight_pathwise(self, upper_view, exact_upper_values):
        est = zd.estimate_dual_bound_finite(
            upper_view, exact_upper_values, 200, seed=9, keep_values=True
        )
        np.testing.assert_allclose(est.per_scenario_values, 5.6, rtol=0.0, atol=1e-9)

    def test_one_period_view_ignores_generator(self):
        view = one_period_view()
        est = zd.estimate_dual_bound_finite(view, np.array([3.0, 0.0]), 50, seed=2, keep_values=True)
        # max_a of mixed costs
        np.testing.assert_allclose(est.per_scenario_values, 2.25, rtol=0.0, atol=1e-12)

    def test_piecewise_structure_matches_enumeration(self, upper_view, two_period):
        # Inner values are constant between transition CDF breakpoints, so
        # probability-weighted cell samples must average to the oracle value.
        h = zd.first_action_value_generator(two_period)
        cells = [(0.0, 0.44), (0.44, 0.64), (0.64, 1.0)]
        total = 0.0
        for lo, hi in cells:
            v_lo = finite_scenario_value(upper_view, np.array([lo + 1e-9, 0.5]), h)
            v_hi = finite_scenario_value(upper_view, np.array([hi - 1e-9, 0.5]), h)
            assert v_lo == pytest.approx(v_hi, abs=1e-12)
            total += (hi - lo) * v_lo
        oracle = zd.exact_dual_bound_enumeration(upper_view, h)
        assert total == pytest.approx(oracle, abs=1e-9)


class TestVectorizedFiniteInner:
    """``_FiniteInner.evaluate`` solves each period for a whole block from
    one merge of its CDF values into the sorted uniforms; its values equal
    the one-state-at-a-time oracle bit for bit."""

    @pytest.mark.parametrize("orientation", ["max", "min"])
    def test_padded_slots_empty_period_and_breakpoints(self, orientation):
        view = skipping_view(orientation)
        assert not (view.period == 2).any()
        assert len(set(view.n_actions.tolist())) > 1
        h = np.array([0.3, -1.2, 2.5, 0.7, -0.4, 1.1, 0.0])
        inner = duality._FiniteInner(view, h)
        cum = np.cumsum(dense_kernel(view), axis=2)
        # Every CDF value, each on both sides, and the ends of [0, 1).
        points = np.unique(cum[cum < 1.0])
        points = np.unique(np.concatenate([
            points, np.nextafter(points, 0.0), np.nextafter(points, 1.0),
            [0.0, 0.5, np.nextafter(1.0, 0.0)],
        ]))
        points = points[(points >= 0.0) & (points < 1.0)]
        shortfall = cum[1, 0, -1]
        assert shortfall < 1.0 and (points >= shortfall).any()
        k = np.arange(len(points) * 3)
        scenarios = np.stack(
            [points[(k * s) % len(points)] for s in (1, 7, 3, 5)], axis=1
        )
        got = inner.evaluate(scenarios)
        want = np.array([finite_scenario_value(view, w, h) for w in scenarios])
        assert got.tobytes() == want.tobytes()
        assert np.unique(got).size > 1

    def test_padded_slots_stay_out_of_overflow(self):
        # Padded slots move to state 0 (their CDF never rises). Here state 0
        # is solved in a later period than the root and V[0] - h[0]
        # overflows to +inf, so a padded slot's -inf + inf would be NaN.
        rows = [
            [[0, 0, 0, 1.0]],
            [[0.5, 0, 0.5, 0]],
            [[0, 0, 0, 1.0]] * 2,
            [[0, 0, 0, 1.0]],
        ]
        cost, succ, prob = zd.games.stack_view(
            [np.array([1.5e308]), np.array([1.0]), np.array([2.0, 3.0]), np.zeros(1)],
            [np.array(r) for r in rows],
            "max",
        )
        view = zd.games.MdpView(
            orientation="max", n_states=4, n_actions=np.array([1, 1, 2, 1]),
            cost=cost, succ=succ, prob=prob, regime=zd.Ssp(absorbing=3),
            root=1, horizon=2, period=np.array([1, 0, 1, 2]),
        )
        h = np.array([-1e308, 0.0, 0.0, 0.0])
        scenarios = np.array([[0.2, 0.3], [0.7, 0.3]])
        with np.errstate(over="ignore", invalid="ignore"):
            got = duality._FiniteInner(view, h).evaluate(scenarios)
            want = np.array([finite_scenario_value(view, w, h) for w in scenarios])
        assert got.tobytes() == want.tobytes()
        assert got[0] == np.inf and np.isfinite(got[1])

    def test_one_plan_per_period(self):
        view = skipping_view("max")
        plan = duality._FiniteInner(view, np.zeros(7)).plan
        assert [p.states.tolist() for p in plan] == [[0], [1, 2], [], [3, 4, 5]]
        # Rises: period 1's CDFs rise at columns 3, 4 and 5 only; the
        # trailing 1e-18 does not move its sum.
        assert plan[1].cols.tolist() == [3, 4, 5]
        # Rows are slots first. A real slot's last rise is one of the rise
        # columns; a padded one reads the zero column after them.
        real = plan[1].dest[:, -1] < len(plan[1].cols)
        assert real.reshape(3, 2).T.tolist() == [[True, False, False], [True, True, False]]

    @pytest.mark.parametrize("orientation", ["max", "min"])
    def test_merge_on_ties_breakpoints_and_small_blocks(self, orientation):
        # Uniforms drawn with replacement from the CDF breakpoints and a few
        # other points: many fall exactly on a breakpoint, and equal ones
        # repeat across scenarios. Period 2 of the view is empty.
        view = skipping_view(orientation)
        h = np.array([0.3, -1.2, 2.5, 0.7, -0.4, 1.1, 0.0])
        inner = duality._FiniteInner(view, h)
        cum = np.cumsum(dense_kernel(view), axis=2)
        points = np.concatenate([np.unique(cum[(cum > 0.0) & (cum < 1.0)]), [0.0, 0.1, 0.95]])
        rng = np.random.default_rng(8)
        scenarios = rng.choice(points, size=(64, view.horizon))
        want = np.array([finite_scenario_value(view, w, h) for w in scenarios])
        assert len(np.unique(scenarios[:, 1])) < 64 and np.unique(want).size > 1
        for size in (64, 2, 1):
            for start in range(0, 64, size):
                got = inner.evaluate(scenarios[start : start + size])
                assert got.tobytes() == want[start : start + size].tobytes()


class TestPeriodLayout:
    def test_built_once_per_view(self, monkeypatch, two_period):
        builds = []
        layout = zd.games.period_layout

        def counting(view):
            builds.append(view)
            return layout(view)

        monkeypatch.setattr(zd.games, "period_layout", counting)
        view = zd.fix_player(two_period, zd.suboptimal_minimizer_policy(two_period), zd.PLAYER_B)
        exact, _ = zd.solve_view(view)
        h = zd.first_action_value_generator(two_period)
        zd.estimate_dual_bound_finite(view, exact, 100, seed=1)
        zd.estimate_dual_bound_finite(view, h, 100, seed=2)
        zd.exact_dual_bound_enumeration(view, h)
        assert len(builds) == 1 and builds[0] is view
        assert all(not a.flags.writeable for p in view.periods for a in p)

    def test_needs_a_time_embedded_view(self, waste3):
        view = zd.fix_player(waste3, zd.uniform_policy(waste3, zd.PLAYER_B), zd.PLAYER_B)
        with pytest.raises(ValueError, match="time-embedded"):
            view.periods


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        # abs(nan - 1) > 1e-12 is False: a NaN entry passes the row-sum test.
        kernel = np.array([[0.5, 0.5, 0.0], [0.25, 0.25, 0.5], [0.0, 0.0, 1.0]])
        kernel[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            zd.ReferenceMeasure(kernel=kernel, absorbing=2)

    @pytest.mark.parametrize("absorbing", [-1, 2, 1.0, True])
    def test_absorbing_must_be_a_state_index(self, absorbing):
        kernel = np.array([[0.5, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match=r"absorbing state must be an integer in \[0, 2\)"):
            zd.ReferenceMeasure(kernel=kernel, absorbing=absorbing)

    def test_abs_continuity_with_unequal_action_counts(self):
        # A keeps 3, 1 and 2 actions at states 0-2; padded slots carry no
        # kernel mass, so only real actions are reported, in index order.
        n = 4
        moves = [
            [[0.5, 0.5, 0, 0], [0, 0, 0.5, 0.5], [0, 0, 0, 1]],
            [[0.5, 0, 0, 0.5]],
            [[0, 0.5, 0.5, 0], [0, 0, 0, 1]],
            [[0, 0, 0, 1]],
        ]
        transition = [np.array(m, dtype=float)[:, None, :] for m in moves]
        cost = [np.ones_like(p) for p in transition[:3]] + [np.zeros((1, 1, n))]
        model = zd.make_game(zd.Ssp(absorbing=3), transition, cost, root=0)
        view = zd.fix_player(model, zd.uniform_policy(model, zd.PLAYER_B), zd.PLAYER_B)
        kernel = np.array(
            [[0, 0.5, 0, 0.5], [0, 0, 0.5, 0.5], [0.5, 0, 0, 0.5], [0, 0, 0, 1]]
        )
        q = zd.ReferenceMeasure(kernel=kernel, absorbing=3)
        assert zd.validate_abs_continuity(view, q) == [
            (0, 0, 0), (0, 1, 2), (1, 0, 0), (2, 0, 1), (2, 0, 2)
        ]

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

    @pytest.mark.parametrize("b, bad", [
        ([1.0 + 5e-13, -5e-13], []),
        ([0.5, 0.5], [(0, 0, 1)]),
    ])
    def test_check_and_estimator_share_one_move_predicate(self, b, bad):
        # check_policy accepts B at [1 + 5e-13, -5e-13], which leaves the
        # kernel entry (0, 0, 1) of A's view at -5e-13: no move, so a q with
        # q[0, 1] = 0 passes the check and the estimator alike. B uniform
        # moves there, and both name that transition first.
        model = zd.build_waste_inspection_game(zd.WasteGameConfig(n_sites=2))
        nu = zd.make_policy([np.array(b) if c == 2 else np.ones(1) for c in model.actions_b])
        view = zd.fix_player(model, nu, zd.PLAYER_B)
        kernel = zd.make_uniform_reference(model).kernel.copy()
        kernel[0, 1] = 0.0
        kernel[0] /= kernel[0].sum()
        q = zd.ReferenceMeasure(kernel=kernel, absorbing=model.absorbing)
        assert zd.validate_abs_continuity(view, q) == bad
        h = np.zeros(model.n_states)
        if bad:
            with pytest.raises(zd.AbsContinuityViolation, match=re.escape(
                f"at {len(bad)} transitions, first (state, action, next) = {bad[0]}"
            )):
                zd.estimate_dual_bound_ssp(view, h, q, n_paths=50, seed=1)
        else:
            est = zd.estimate_dual_bound_ssp(view, h, q, n_paths=50, seed=1)
            assert np.isfinite(est.mean)


class TestQPathSimulation:
    def test_immediate_absorption(self, waste3):
        n = waste3.n_states
        kernel = np.zeros((n, n))
        kernel[:, waste3.absorbing] = 1.0
        q = zd.ReferenceMeasure(kernel=kernel, absorbing=waste3.absorbing)
        path = duality.simulate_q_path(q, waste3.root, seed=1)
        assert list(path) == [waste3.root, waste3.absorbing]

    def test_geometric_path_length(self, waste3):
        q = zd.make_uniform_reference(waste3)
        n = waste3.n_states
        # One 4,000-path draw, every path to absorption: stop nowhere.
        never = np.zeros(q.kernel.shape, dtype=bool)
        windows = duality._draw_paths(
            q, waste3.root, 0, np.arange(4000), duality.DEFAULT_PATH_CAP, never
        )
        lengths = np.zeros(4000)
        for ids, _, takes in windows:
            for k in takes:
                lengths[ids[:k]] += 1
        se = lengths.std(ddof=1) / np.sqrt(len(lengths))
        assert abs(lengths.mean() - n) <= 3 * se

    def test_seed_reproducibility(self, waste3):
        q = zd.make_uniform_reference(waste3)
        a = duality.simulate_q_path(q, waste3.root, seed=123)
        b = duality.simulate_q_path(q, waste3.root, seed=123)
        np.testing.assert_array_equal(a, b)

    def test_path_cap(self, waste3):
        q = zd.make_uniform_reference(waste3)
        with pytest.raises(zd.PathCapExceeded):
            duality.simulate_q_path(q, waste3.root, seed=1, cap=1)

    def test_matches_one_uniform_at_a_time_redraw(self, waste3):
        q = zd.make_uniform_reference(waste3)
        for seed in range(20):
            np.testing.assert_array_equal(
                duality.simulate_q_path(q, waste3.root, seed=seed),
                reference_path(q.kernel, q.absorbing, waste3.root, seed, 0),
            )


class TestWeakFormInner:
    def test_reference_measure_must_match_view(self, waste3):
        view = zd.fix_player(waste3, zd.uniform_policy(waste3, zd.PLAYER_B), zd.PLAYER_B)
        h = np.zeros(waste3.n_states)
        n = waste3.n_states
        small = np.zeros((n - 1, n - 1))
        small[:, -1] = 1.0
        shifted = np.zeros((n, n))
        shifted[:, 0] = 1.0
        for q in (
            zd.ReferenceMeasure(kernel=small, absorbing=n - 2),
            zd.ReferenceMeasure(kernel=shifted, absorbing=0),
        ):
            with pytest.raises(ValueError, match="does not match"):
                zd.estimate_dual_bound_ssp(view, h, q, 2, seed=1, x0=1)

    def test_exact_generator_zero_variance(self, waste3):
        nu = zd.uniform_policy(waste3, zd.PLAYER_B)
        view = zd.fix_player(waste3, nu, zd.PLAYER_B)
        values, _ = zd.solve_view(view, tol=0.0)
        q = zd.make_uniform_reference(waste3)
        est = zd.estimate_dual_bound_ssp(view, values, q, 40, seed=0, keep_values=True)
        assert (est.per_scenario_values == values[waste3.root]).all()

    def test_deterministic_chain_totals_path_cost(self):
        # 0 -> 1 -> absorbing with unit action sets and q equal to the chain,
        # so every path is [0, 1, 2].
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
        est = zd.estimate_dual_bound_ssp(view, np.zeros(n), q, 20, seed=1, keep_values=True)
        np.testing.assert_allclose(est.per_scenario_values, 4.0, rtol=0.0, atol=1e-12)
        assert est.standard_error == 0.0

    def test_one_step_path_reduces_to_stage_optimum(self):
        # True kernel cannot absorb from the start state, q can: with a zero
        # generator a path's single step 0 -> 2 is worth the best stage cost.
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
        est = zd.estimate_dual_bound_ssp(view, np.zeros(n), q, 60, seed=3, keep_values=True)
        one_step = [
            i for i in range(60) if len(reference_path(q.kernel, 2, 0, 3, i)) == 2
        ]
        assert one_step
        np.testing.assert_allclose(
            est.per_scenario_values[one_step], view.cost[0].min(), rtol=0.0, atol=1e-12
        )


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
        k = duality._PATH_BLOCK + 37
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

    @pytest.mark.parametrize("cap", [0, -3, 2.5])
    def test_cap_must_be_a_positive_integer(self, monkeypatch, waste3, cap):
        def no_draw(*args):
            raise AssertionError("a path was drawn")

        monkeypatch.setattr(duality, "uniforms", no_draw)
        nu = zd.uniform_policy(waste3, zd.PLAYER_B)
        view = zd.fix_player(waste3, nu, zd.PLAYER_B)
        q = zd.make_uniform_reference(waste3)
        with pytest.raises(ValueError, match="cap must be an integer >= 1"):
            zd.estimate_dual_bound_ssp(view, np.zeros(13), q, 50, seed=1, cap=cap)
        with pytest.raises(ValueError, match="cap must be an integer >= 1"):
            duality.simulate_q_path(q, waste3.root, seed=1, cap=cap)

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

    @pytest.mark.parametrize("x0", [6, 7, -1, -2, 1.5, 1.9, 1.0, np.float64(1.0), True, "1"])
    def test_start_must_be_a_non_absorbing_state(self, x0):
        # Waste N=2 has 7 states; state 6 absorbs and its value is 0, so a
        # negative index or the absorbing state would bound another state,
        # and a float or bool would start from int(x0).
        model = zd.build_waste_inspection_game(zd.WasteGameConfig(n_sites=2))
        assert (model.n_states, model.absorbing) == (7, 6)
        nu = zd.uniform_policy(model, zd.PLAYER_B)
        view = zd.fix_player(model, nu, zd.PLAYER_B)
        values, _ = zd.solve_view(view, tol=0.0)
        q = zd.make_uniform_reference(model)
        with pytest.raises(ValueError, match="non-absorbing state index"):
            zd.estimate_dual_bounds([(view, values)], 50, seed=1, q=q, x0=x0)
        with pytest.raises(ValueError, match="non-absorbing state index"):
            duality.simulate_q_path(q, x0, seed=1)
        assert duality.simulate_q_path(q, np.int64(1), seed=1)[0] == 1


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
        # Seed 3 overflows 23 of A's paths and 8 of B's.
        overflowed = self.check_ssp(view, 1e300 * pair, q, 200, seed=3)
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

    def test_skipping_view_across_a_block_boundary(self):
        # Padded slots, an empty period and a CDF that falls short of 1.
        h = np.array([0.3, -1.2, 2.5, 0.7, -0.4, 1.1, 0.0])
        self.check_finite(skipping_view("min"), h, duality._BLOCK + 37, seed=6)

    def test_random_embedded_finite_game(self):
        rng = np.random.default_rng(54)
        game = zd.embed_finite_horizon(random_finite_game(rng, periods=4))
        for player in (zd.PLAYER_A, zd.PLAYER_B):
            view = zd.fix_player(game, random_policy(rng, game, player), player)
            values, _ = zd.solve_view(view)
            h = values + rng.uniform(-1.0, 1.0, game.n_states)
            self.check_finite(view, h, 300, seed=7)
            self.check_finite(view, values, 100, seed=8)

    def test_two_scenario_estimates(self, waste3, upper_view, two_period):
        h = zd.first_action_value_generator(two_period)
        for seed in range(3):
            self.check_finite(upper_view, h, 2, seed)
        nu = zd.uniform_policy(waste3, zd.PLAYER_B)
        view = zd.fix_player(waste3, nu, zd.PLAYER_B)
        values, _ = zd.solve_view(view, tol=0.0)
        q = zd.make_uniform_reference(waste3)
        for seed in range(5):
            self.check_ssp(view, 0.9 * values, q, 2, seed)


class TestDualSandwich:
    """Both dual bounds of a fixed policy pair: ``fix_player`` on each side,
    then one ``estimate_dual_bounds`` call on a shared draw."""

    @staticmethod
    def pairs(model, mu, nu, h_lower, h_upper):
        return [
            (zd.fix_player(model, mu, zd.PLAYER_A), h_lower),
            (zd.fix_player(model, nu, zd.PLAYER_B), h_upper),
        ]

    def test_two_period_with_rough_upper_generator(self, two_period):
        _, mu_star, _ = zd.shapley_value_iteration(two_period, tol=1e-12)
        nu_hat = zd.suboptimal_minimizer_policy(two_period)
        view_lower = zd.fix_player(two_period, mu_star, zd.PLAYER_A)
        h_lower, _ = zd.solve_view(view_lower)
        h_upper = zd.first_action_value_generator(two_period)
        lower, upper = zd.estimate_dual_bounds(
            self.pairs(two_period, mu_star, nu_hat, h_lower, h_upper), 4000, seed=2
        )
        assert lower.mean == pytest.approx(5.0, abs=1e-9)
        assert lower.standard_error == 0.0
        assert abs(upper.mean - 6.0) <= 3 * upper.standard_error

    def test_collapses_at_equilibrium(self, two_period):
        _, mu_star, nu_star = zd.shapley_value_iteration(two_period, tol=1e-12)
        h_low, _ = zd.solve_view(zd.fix_player(two_period, mu_star, zd.PLAYER_A))
        h_up, _ = zd.solve_view(zd.fix_player(two_period, nu_star, zd.PLAYER_B))
        lower, upper = zd.estimate_dual_bounds(
            self.pairs(two_period, mu_star, nu_star, h_low, h_up), 500, seed=3
        )
        assert lower.mean == pytest.approx(5.0, abs=1e-9)
        assert upper.mean == pytest.approx(5.0, abs=1e-9)
        assert lower.standard_error == 0.0
        assert upper.standard_error == 0.0

    def test_waste_game_with_response_value_generators(self, waste3):
        mu = zd.uniform_policy(waste3, zd.PLAYER_A)
        nu = zd.uniform_policy(waste3, zd.PLAYER_B)
        lo_exact, _ = zd.solve_view(zd.fix_player(waste3, mu, zd.PLAYER_A), tol=0.0)
        hi_exact, _ = zd.solve_view(zd.fix_player(waste3, nu, zd.PLAYER_B), tol=0.0)
        lower, upper = zd.estimate_dual_bounds(
            self.pairs(waste3, mu, nu, lo_exact, hi_exact), 400, seed=6,
            q=zd.make_uniform_reference(waste3),
        )
        assert lower.mean == lo_exact[waste3.root]
        assert upper.mean == hi_exact[waste3.root]

    def test_brackets_equilibrium_with_slack(self):
        rng = np.random.default_rng(53)
        for trial in range(4):
            model = random_ssp_game(rng, n_states=4, max_actions=2)
            J_star, _, _ = zd.shapley_value_iteration(model, tol=1e-11)
            mu = random_policy(rng, model, zd.PLAYER_A)
            nu = random_policy(rng, model, zd.PLAYER_B)
            h_low, _ = zd.solve_view(zd.fix_player(model, mu, zd.PLAYER_A), tol=1e-12)
            h_up, _ = zd.solve_view(zd.fix_player(model, nu, zd.PLAYER_B), tol=1e-12)
            lower, upper = zd.estimate_dual_bounds(
                self.pairs(model, mu, nu, h_low, h_up), 4000, seed=trial,
                q=zd.make_uniform_reference(model),
            )
            lo = lower.mean - 3 * lower.standard_error
            hi = upper.mean + 3 * upper.standard_error
            assert lo <= J_star[0] + 1e-7
            assert J_star[0] <= hi + 1e-7

    def test_discounted_games_rejected(self):
        model_rng = np.random.default_rng(54)
        from oracles import random_discounted_game

        model = random_discounted_game(model_rng, n_states=3)
        mu = random_policy(model_rng, model, zd.PLAYER_A)
        nu = random_policy(model_rng, model, zd.PLAYER_B)
        pairs = self.pairs(model, mu, nu, np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match="time-embedded"):
            zd.estimate_dual_bounds(pairs, 10, seed=1)
        with pytest.raises(ValueError, match="absorbing-state game"):
            zd.make_uniform_reference(model)
        # Nor does a hand-made reference measure turn them into SSP views.
        k = np.full((3, 3), 1.0 / 3)
        k[0] = [1.0, 0.0, 0.0]
        q = zd.ReferenceMeasure(kernel=k, absorbing=0)
        with pytest.raises(ValueError, match="absorbing-state view"):
            zd.estimate_dual_bounds(pairs, 10, seed=1, q=q)


class TestSharedDraw:
    """Estimates that share one draw equal separate calls bit for bit."""

    @staticmethod
    def assert_same(shared, separate):
        assert len(shared) == len(separate)
        for a, b in zip(shared, separate):
            assert (a.mean, a.standard_error, a.n_scenarios, a.seed) == (
                b.mean, b.standard_error, b.n_scenarios, b.seed
            )
            assert a.per_scenario_values.tobytes() == b.per_scenario_values.tobytes()

    @staticmethod
    def waste_pairs(model):
        mu = zd.uniform_policy(model, zd.PLAYER_A)
        nu = zd.uniform_policy(model, zd.PLAYER_B)
        pair = zd.evaluate_policy_pair(model, mu, nu)
        pairs = []
        for policy, player in ((mu, zd.PLAYER_A), (nu, zd.PLAYER_B)):
            view = zd.fix_player(model, policy, player)
            exact, _ = zd.solve_view(view, tol=0.0)
            pairs += [(view, exact), (view, 0.97 * exact), (view, 1e300 * pair)]
        return pairs

    @staticmethod
    def two_period_pairs(model):
        _, mu_star, _ = zd.shapley_value_iteration(model, tol=1e-12)
        lower = zd.fix_player(model, mu_star, zd.PLAYER_A)
        upper = zd.fix_player(model, zd.suboptimal_minimizer_policy(model), zd.PLAYER_B)
        return [
            (upper, zd.first_action_value_generator(model)),
            (lower, zd.solve_view(lower)[0]),
            (upper, zd.solve_view(upper)[0]),
        ]

    def test_two_period_generators(self, two_period):
        pairs = self.two_period_pairs(two_period)
        shared = zd.estimate_dual_bounds(pairs, 700, seed=3, keep_values=True)
        separate = [
            zd.estimate_dual_bound_finite(v, h, 700, seed=3, keep_values=True)
            for v, h in pairs
        ]
        self.assert_same(shared, separate)
        assert np.unique(shared[0].per_scenario_values).size > 1

    def test_waste_game_both_sides(self, waste3):
        pairs = self.waste_pairs(waste3)
        q = zd.make_uniform_reference(waste3)
        shared = zd.estimate_dual_bounds(pairs, 300, seed=2, q=q, keep_values=True)
        separate = [
            zd.estimate_dual_bound_ssp(v, h, q, 300, seed=2, keep_values=True)
            for v, h in pairs
        ]
        self.assert_same(shared, separate)
        assert np.isinf(shared[2].per_scenario_values).any()

    def test_views_of_different_horizons(self, two_period):
        # One draw serves every horizon: a view reads the first uniforms of
        # each scenario's stream.
        rng = np.random.default_rng(55)
        game = zd.embed_finite_horizon(random_finite_game(rng, periods=4))
        view = zd.fix_player(game, random_policy(rng, game, zd.PLAYER_A), zd.PLAYER_A)
        h = rng.uniform(-1.0, 1.0, game.n_states)
        pairs = [self.two_period_pairs(two_period)[0], (view, h)]
        shared = zd.estimate_dual_bounds(pairs, 200, seed=5, keep_values=True)
        separate = [
            zd.estimate_dual_bound_finite(v, g, 200, seed=5, keep_values=True)
            for v, g in pairs
        ]
        self.assert_same(shared, separate)

    def test_block_boundaries(self, monkeypatch, two_period, waste3):
        # Small blocks: 23 scenarios cross several block boundaries, and
        # the values match runs with the shipped block sizes.
        fin = self.two_period_pairs(two_period)
        ssp = self.waste_pairs(waste3)
        q = zd.make_uniform_reference(waste3)
        want_fin = zd.estimate_dual_bounds(fin, 23, seed=4, keep_values=True)
        want_ssp = zd.estimate_dual_bounds(ssp, 23, seed=4, q=q, keep_values=True)
        monkeypatch.setattr(duality, "_BLOCK", 5)
        monkeypatch.setattr(duality, "_PATH_BLOCK", 7)
        self.assert_same(zd.estimate_dual_bounds(fin, 23, seed=4, keep_values=True), want_fin)
        self.assert_same(
            zd.estimate_dual_bounds(ssp, 23, seed=4, q=q, keep_values=True), want_ssp
        )
        self.assert_same(
            [zd.estimate_dual_bound_ssp(v, h, q, 23, seed=4, keep_values=True) for v, h in ssp],
            want_ssp,
        )

    def test_bad_pair_raises_before_any_draw(self, monkeypatch, two_period, waste3):
        def no_draw(*args):
            raise AssertionError("a scenario was drawn")

        # The estimators draw whole blocks through uniforms; scenario_rng is
        # its specification.
        for name in ("scenario_rng", "uniforms"):
            monkeypatch.setattr(duality, name, no_draw)
        (good, h), *_ = self.waste_pairs(waste3)
        q = zd.make_uniform_reference(waste3)
        absorb_only = np.zeros_like(q.kernel)
        absorb_only[:, waste3.absorbing] = 1.0
        q_bad = zd.ReferenceMeasure(kernel=absorb_only, absorbing=waste3.absorbing)
        with pytest.raises(ValueError, match="one value per state"):
            zd.estimate_dual_bounds([(good, h), (good, h[:-1])], 50, seed=1, q=q)
        bad = zd.validate_abs_continuity(good, q_bad)
        with pytest.raises(zd.AbsContinuityViolation, match=re.escape(
            f"reference measure fails absolute continuity at {len(bad)} "
            f"transitions, first (state, action, next) = {bad[0]}"
        )):
            zd.estimate_dual_bounds([(good, h), (good, h)], 50, seed=1, q=q_bad)
        with pytest.raises(ValueError, match="non-absorbing"):
            zd.estimate_dual_bounds([(good, h), (good, h)], 50, seed=1, q=q, x0=-1)
        with pytest.raises(ValueError, match="scenario count must be an integer >= 2"):
            zd.estimate_dual_bounds([(good, h), (good, h)], 1, seed=1, q=q)
        with pytest.raises(ValueError, match="pairs"):
            zd.estimate_dual_bounds([], 50, seed=1, q=q)
        finite = self.two_period_pairs(two_period)
        with pytest.raises(ValueError, match="time-embedded"):
            zd.estimate_dual_bounds([finite[0], (good, h)], 50, seed=1)
        with pytest.raises(ValueError, match="does not match"):
            zd.estimate_dual_bounds([(good, h), finite[0]], 50, seed=1, q=q)
        # Good pairs do reach the patched draw.
        for kwargs in ({"q": q}, {}):
            pair = (good, h) if kwargs else finite[0]
            with pytest.raises(AssertionError, match="drawn"):
                zd.estimate_dual_bounds([pair], 50, seed=1, **kwargs)

    def test_finite_draw_rejects_path_arguments(self, two_period):
        pair = self.two_period_pairs(two_period)[0]
        [est] = zd.estimate_dual_bounds([pair], 100, seed=1)
        assert est.mean == pytest.approx(5.80)
        for kwargs in ({"x0": 2, "cap": -5}, {"x0": 1.5}, {"cap": 10}):
            with pytest.raises(ValueError, match="pass q"):
                zd.estimate_dual_bounds([pair], 100, seed=1, **kwargs)

    @pytest.mark.parametrize("n", [2.5, 10.0, np.float64(4.0), "10", True, 1, -3])
    def test_scenario_count_must_be_an_integer(self, monkeypatch, two_period, waste3, n):
        def never(*args):
            raise AssertionError("an inner problem was built or a scenario drawn")

        (view, h), *_ = self.waste_pairs(waste3)
        finite = self.two_period_pairs(two_period)[0]
        q = zd.make_uniform_reference(waste3)
        for name in ("uniforms", "_FiniteInner", "_SspInner"):
            monkeypatch.setattr(duality, name, never)
        calls = [
            lambda: zd.estimate_dual_bounds([(view, h)], n, seed=1, q=q),
            lambda: zd.estimate_dual_bounds([finite], n, seed=1),
            lambda: zd.estimate_dual_bound_ssp(view, h, q, n, seed=1),
            lambda: zd.estimate_dual_bound_finite(*finite, n, seed=1),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"^scenario count must be an integer >= 2"):
                call()
        # An integer count passes the check and reaches the patched inner problem.
        with pytest.raises(AssertionError, match="inner problem"):
            zd.estimate_dual_bounds([(view, h)], np.int64(10), seed=1, q=q)

    def test_views_must_share_a_start(self, waste3):
        (view, h), *_ = self.waste_pairs(waste3)
        moved = dataclasses.replace(view, root=1)
        q = zd.make_uniform_reference(waste3)
        with pytest.raises(ValueError, match="different roots"):
            zd.estimate_dual_bounds([(view, h), (moved, h)], 50, seed=1, q=q)
        shared = zd.estimate_dual_bounds(
            [(view, h), (moved, h)], 50, seed=1, q=q, x0=1, keep_values=True
        )
        separate = zd.estimate_dual_bound_ssp(view, h, q, 50, seed=1, x0=1, keep_values=True)
        self.assert_same(shared, [separate, separate])


def with_entry(view, x, a, y, p):
    """``view`` with slot ``a`` of state ``x`` listing destination ``y`` at
    probability ``p`` (a -0.0 included), its lists otherwise as they were."""
    kernel = dense_kernel(view)
    kernel[x, a, y] = p
    keys = np.flatnonzero((kernel != 0.0) | np.signbit(kernel))
    succ, prob = zd.games._pack(
        keys, kernel.ravel()[keys], view.n_states, kernel.shape[1], view.n_states
    )
    return dataclasses.replace(view, succ=succ, prob=prob)


def signed_zero_case(monkeypatch):
    """A 3-state game whose view has a -0.0 action value at state 0: its
    view, generator, uniform ``q`` and the action values the estimators
    read, where that -0.0 is +0.0.

    The lookahead of this view holds no -0.0 on its own; it is injected
    here. No action moves 0 -> 1, through a listed entry of probability
    -0.0, so a step 0 -> 1 is a stop; its carry is -0.0 after a zero
    continuation, and -0.0 + -0.0 would keep a -0.0 action value.
    """
    n = 3
    p0 = np.zeros((1, 1, n))
    p0[0, 0] = [0.5, 0.0, 0.5]
    p1 = np.zeros((1, 1, n))
    p1[0, 0] = [0.0, 0.5, 0.5]
    pa = np.zeros((1, 1, n))
    pa[0, 0, 2] = 1.0
    ones, zeros = np.ones((1, 1, n)), np.zeros((1, 1, n))
    model = zd.make_game(zd.Ssp(absorbing=2), [p0, p1, pa], [zeros, ones, zeros], root=0)
    view = zd.fix_player(model, zd.uniform_policy(model, zd.PLAYER_B), zd.PLAYER_B)
    view = with_entry(view, 0, 0, 1, -0.0)
    lookahead = duality.lookahead

    def signed(view, h):
        base = lookahead(view, h)
        base[0, 0] = -0.0
        return base

    monkeypatch.setattr(duality, "lookahead", signed)
    h = np.zeros(n)
    return view, h, zd.make_uniform_reference(model), signed(view, h) + 0.0


def step_records(windows):
    """A draw's windows expanded to one ``(ids, x, next)`` record per step:
    the ids of the paths that take the step, their states and next states."""
    return [
        (ids[:k], path[j, :k], path[j + 1, :k])
        for ids, path, takes in windows
        for j, k in enumerate(takes)
    ]


class TestStoppedPaths:
    """A reference path ends at its first transition that no action of the
    views can make; every value is byte-equal to the walk of the full path
    to absorption."""

    @staticmethod
    def full_paths(view, q, n, seed):
        return [reference_path(q.kernel, q.absorbing, view.root, seed, i) for i in range(n)]

    @staticmethod
    def oracle_values(view, h, q, paths):
        return np.array([ssp_path_value(view, path, q.kernel, h) for path in paths])

    @staticmethod
    def drawn_estimates(monkeypatch, pairs, q, n, seed, **kwargs):
        """``estimate_dual_bounds`` values and the number of path steps drawn."""
        draw, drawn = duality._draw_paths, []

        def counted(*args):
            windows = draw(*args)
            drawn.append(sum(len(ids) for ids, _, _ in step_records(windows)))
            return windows

        monkeypatch.setattr(duality, "_draw_paths", counted)
        ests = zd.estimate_dual_bounds(pairs, n, seed, q=q, keep_values=True, **kwargs)
        return [e.per_scenario_values for e in ests], sum(drawn)

    @staticmethod
    def pure_view(model, player):
        fixed = zd.pure_policy(model, player, [0] * model.n_states)
        return zd.fix_player(model, fixed, player)

    def test_sparse_random_games(self, monkeypatch):
        rng = np.random.default_rng(61)
        for trial in range(3):
            model = random_sparse_ssp_game(rng, n_states=8, max_actions=3)
            q = zd.make_uniform_reference(model)
            for player in (zd.PLAYER_A, zd.PLAYER_B):
                view = self.pure_view(model, player)
                paths = self.full_paths(view, q, 300, seed=trial)
                full_steps = sum(len(path) - 1 for path in paths)
                for h in (np.zeros(8), rng.uniform(-2.0, 2.0, 8)):
                    [got], drawn = self.drawn_estimates(
                        monkeypatch, [(view, h)], q, 300, seed=trial
                    )
                    assert got.tobytes() == self.oracle_values(view, h, q, paths).tobytes()
                    assert 2 * drawn < full_steps

    def test_shared_draw_stops_only_where_every_pair_stops(self, monkeypatch):
        rng = np.random.default_rng(62)
        model = random_sparse_ssp_game(rng, n_states=8, max_actions=3)
        q = zd.make_uniform_reference(model)
        pairs = [
            (self.pure_view(model, player), rng.uniform(-2.0, 2.0, 8))
            for player in (zd.PLAYER_A, zd.PLAYER_B)
        ]
        lower, upper = (duality._SspInner(view, h, q).stop for view, h in pairs)
        assert (lower & ~upper).any() and (upper & ~lower).any()
        values, drawn = self.drawn_estimates(monkeypatch, pairs, q, 400, seed=5)
        paths = self.full_paths(pairs[0][0], q, 400, seed=5)
        for got, (view, h) in zip(values, pairs):
            assert got.tobytes() == self.oracle_values(view, h, q, paths).tobytes()
        assert drawn < sum(len(path) - 1 for path in paths)

    def test_overflowing_generator(self, monkeypatch, waste3):
        mu = zd.uniform_policy(waste3, zd.PLAYER_A)
        nu = zd.uniform_policy(waste3, zd.PLAYER_B)
        view = zd.fix_player(waste3, nu, zd.PLAYER_B)
        h = 1e300 * zd.evaluate_policy_pair(waste3, mu, nu)
        q = zd.make_uniform_reference(waste3)
        [got], drawn = self.drawn_estimates(monkeypatch, [(view, h)], q, 300, seed=1)
        paths = self.full_paths(view, q, 300, seed=1)
        want = self.oracle_values(view, h, q, paths)
        assert got.tobytes() == want.tobytes()
        assert np.isinf(want).any()
        assert drawn < sum(len(path) - 1 for path in paths)

    def test_negative_zero_action_value_is_read_as_positive_zero(self, monkeypatch):
        view, h, q, base = signed_zero_case(monkeypatch)
        inner = duality._SspInner(view, h, q)
        assert inner.stop[0].tolist() == [False, True, False] and not np.signbit(inner.base[0, 0])
        paths = self.full_paths(view, q, 200, seed=3)
        assert any(((path[:-1] == 0) & (path[1:] == 1)).any() for path in paths)
        est = zd.estimate_dual_bound_ssp(view, h, q, 200, seed=3, keep_values=True)
        want = np.array([ssp_path_value(view, path, q.kernel, h, base) for path in paths])
        assert est.per_scenario_values.tobytes() == want.tobytes()
        assert (want == 0.0).all() and not np.signbit(want).any()

    def test_cap_counts_steps_until_a_stop(self):
        # 0 -> 1 -> absorbing under every action: each path is absorbed or
        # stopped within 2 steps, while a full uniform-q path often is not.
        n = 3
        trans = []
        for nxt in (1, 2, 2):
            p = np.zeros((1, 1, n))
            p[0, 0, nxt] = 1.0
            trans.append(p)
        cost = [np.full((1, 1, n), 1.5), np.full((1, 1, n), 2.5), np.zeros((1, 1, n))]
        model = zd.make_game(zd.Ssp(absorbing=2), trans, cost, root=0)
        view = zd.fix_player(model, zd.uniform_policy(model, zd.PLAYER_B), zd.PLAYER_B)
        q = zd.make_uniform_reference(model)
        h = np.array([0.5, -1.0, 0.0])
        paths = self.full_paths(view, q, 100, seed=2)
        assert max(len(path) - 1 for path in paths) > 2
        capped = zd.estimate_dual_bound_ssp(view, h, q, 100, seed=2, cap=2, keep_values=True)
        uncapped = zd.estimate_dual_bound_ssp(view, h, q, 100, seed=2, keep_values=True)
        want = self.oracle_values(view, h, q, paths)
        assert capped.per_scenario_values.tobytes() == want.tobytes()
        assert uncapped.per_scenario_values.tobytes() == want.tobytes()


class TestRatioTableWalk:
    """The walk reads its likelihood ratios from a table built once and
    repairs zero ratios only on steps where the repair can change a bit;
    every value equals the oracle's walk, which divides at every step and
    always repairs, byte for byte."""

    oracle_values = staticmethod(TestStoppedPaths.oracle_values)

    def test_overflow_partway_padded_slots_and_a_shared_draw(self):
        # Dense random kernels: the only zero ratios are padded action slots,
        # whose base is +-inf, so an overflowed continuation there gives NaN
        # unless the repair runs.
        rng = np.random.default_rng(62)
        model = random_ssp_game(rng, n_states=5, max_actions=3)
        q = zd.make_uniform_reference(model)
        pairs = []
        for player in (zd.PLAYER_A, zd.PLAYER_B):
            view = zd.fix_player(model, random_policy(rng, model, player), player)
            h = 1e307 * rng.uniform(-1.0, 1.0, model.n_states)
            h[model.absorbing] = 0.0
            assert (view.n_actions[:-1] < view.cost.shape[1]).any()
            pairs.append((view, h))
        assert [view.orientation for view, _ in pairs] == ["min", "max"]
        ests = zd.estimate_dual_bounds(pairs, 200, seed=3, q=q, keep_values=True)
        paths = [reference_path(q.kernel, q.absorbing, model.root, 3, i) for i in range(200)]
        for est, (view, h) in zip(ests, pairs):
            want = self.oracle_values(view, h, q, paths)
            assert est.per_scenario_values.tobytes() == want.tobytes()
            assert np.isinf(want).any() and np.isfinite(want).any()
            # An overflowed path's walk is finite over its last steps and
            # infinite from some step back: the value of each suffix of the
            # path is the walk's continuation at that step.
            path = paths[int(np.flatnonzero(np.isinf(want))[0])]
            walk = self.oracle_values(view, h, q, [path[k:] for k in range(len(path) - 1)])
            assert np.isinf(walk[0]) and np.isfinite(walk[-1])

    @pytest.mark.parametrize("free", [zd.PLAYER_A, zd.PLAYER_B])
    def test_zero_ratio_with_a_finite_negative_continuation(self, free):
        # State 0: the free player's action 0 moves to state 1, action 1
        # absorbs at cost 0; state 1 absorbs at cost 0.5. With h = (0, 5, 0)
        # the step 0 -> 1 has diff = 0.5 - 5 = -4.5, so action 1 (rho = 0,
        # base +0.0) carries 0 * -4.5 = -0.0 where the repair gives +0.0;
        # +0.0 + -0.0 is +0.0 either way, and it is the optimum.
        n = 3
        shape = (2, 1, n) if free == zd.PLAYER_A else (1, 2, n)
        p0 = np.zeros(shape)
        p0.reshape(2, n)[:, 1:] = np.eye(2)
        g0 = np.zeros(shape)
        g0.reshape(2, n)[0] = -1.0 if free == zd.PLAYER_A else 10.0
        p1 = np.zeros((1, 1, n))
        p1[0, 0, 2] = 1.0
        cost = [g0, np.full((1, 1, n), 0.5), np.zeros((1, 1, n))]
        model = zd.make_game(zd.Ssp(absorbing=2), [p0, p1, p1.copy()], cost, root=0)
        fixed = zd.PLAYER_B if free == zd.PLAYER_A else zd.PLAYER_A
        view = zd.fix_player(model, zd.uniform_policy(model, fixed), fixed)
        q = zd.make_uniform_reference(model)
        h = np.array([0.0, 5.0, 0.0])
        paths = [reference_path(q.kernel, q.absorbing, 0, 4, i) for i in range(100)]
        est = zd.estimate_dual_bound_ssp(view, h, q, 100, seed=4, keep_values=True)
        assert est.per_scenario_values.tobytes() == self.oracle_values(view, h, q, paths).tobytes()
        got = est.per_scenario_values[[list(path) == [0, 1, 2] for path in paths]]
        assert got.size and (got == 0.0).all() and not np.signbit(got).any()


class TestOneWalk:
    """Every pair of a shared draw is walked in one backward pass over
    stacked tables; each pair's values equal, byte for byte, a draw of that
    pair alone and the oracle's walk of the full path."""

    @staticmethod
    def assert_pairwise(pairs, q, n, seed, x0=None, base=None):
        ests = zd.estimate_dual_bounds(pairs, n, seed, q=q, x0=x0, keep_values=True)
        start = pairs[0][0].root if x0 is None else x0
        paths = [reference_path(q.kernel, q.absorbing, start, seed, i) for i in range(n)]
        for est, (view, h) in zip(ests, pairs):
            alone = zd.estimate_dual_bound_ssp(view, h, q, n, seed, x0=x0, keep_values=True)
            want = np.array([
                ssp_path_value(view, path, q.kernel, h, None if base is None else base(view, h))
                for path in paths
            ])
            assert est.per_scenario_values.tobytes() == want.tobytes()
            assert alone.per_scenario_values.tobytes() == want.tobytes()
        return ests

    def test_mixed_orientations_slot_counts_and_overflow(self, waste3):
        # waste N=3 with a copy of B's first action at every live state:
        # the min view has 4 action slots and the max view 3.
        grow = [
            (np.concatenate([p, p[:, :1]], axis=1), np.concatenate([g, g[:, :1]], axis=1))
            if s != waste3.absorbing else (p, g)
            for s, (p, g) in enumerate(zip(waste3.transition, waste3.cost))
        ]
        model = zd.make_game(waste3.regime, *map(list, zip(*grow)), root=waste3.root)
        mu = zd.uniform_policy(model, zd.PLAYER_A)
        nu = zd.uniform_policy(model, zd.PLAYER_B)
        lower = zd.fix_player(model, mu, zd.PLAYER_A)
        upper = zd.fix_player(model, nu, zd.PLAYER_B)
        exact_lower = zd.solve_view(lower, tol=0.0)[0]
        exact_upper = zd.solve_view(upper, tol=0.0)[0]
        rough = np.random.default_rng(63).uniform(-2.0, 2.0, model.n_states)
        pairs = [
            (lower, rough),
            (upper, 1e300 * zd.evaluate_policy_pair(model, mu, nu)),
            (lower, exact_lower),
            (upper, 0.97 * exact_upper),
        ]
        assert [view.orientation for view, _ in pairs] == ["min", "max"] * 2
        assert [view.cost.shape[1] for view, _ in pairs] == [4, 3] * 2
        ests = self.assert_pairwise(pairs, zd.make_uniform_reference(model), 300, seed=1)
        assert np.isinf(ests[1].per_scenario_values).any()
        assert np.isfinite(ests[0].per_scenario_values).all()
        assert ests[2].standard_error == 0.0
        assert ests[2].mean == exact_lower[model.root]

    @staticmethod
    def patch_lookahead(monkeypatch, target, slot):
        """Make the action value at ``(0, slot)`` of view ``target`` a -0.0."""
        lookahead = duality.lookahead

        def signed(view, h):
            base = lookahead(view, h)
            if view is target:
                base[0, slot] = -0.0
            return base

        monkeypatch.setattr(duality, "lookahead", signed)
        return signed

    def test_negative_zero_action_value_in_a_two_pair_draw(self, monkeypatch):
        # The game and the injected -0.0 of signed_zero_case, with the other
        # player's view first on the same draw: the second pair reads its
        # -0.0 as +0.0, so the shared draw stops at 0 -> 1, where neither
        # view moves.
        n = 3
        p0 = np.zeros((1, 1, n))
        p0[0, 0] = [0.5, 0.0, 0.5]
        p1 = np.zeros((1, 1, n))
        p1[0, 0] = [0.0, 0.5, 0.5]
        pa = np.zeros((1, 1, n))
        pa[0, 0, 2] = 1.0
        ones, zeros = np.ones((1, 1, n)), np.zeros((1, 1, n))
        model = zd.make_game(zd.Ssp(absorbing=2), [p0, p1, pa], [zeros, ones, zeros], root=0)
        view = zd.fix_player(model, zd.uniform_policy(model, zd.PLAYER_B), zd.PLAYER_B)
        view = with_entry(view, 0, 0, 1, -0.0)
        other = zd.fix_player(model, zd.uniform_policy(model, zd.PLAYER_A), zd.PLAYER_A)
        signed = self.patch_lookahead(monkeypatch, view, 0)
        pairs = [(other, np.array([0.5, -1.0, 0.0])), (view, np.zeros(n))]
        q = zd.make_uniform_reference(model)
        assert all(duality._SspInner(v, h, q).stop[0, 1] for v, h in pairs)
        ests = self.assert_pairwise(pairs, q, 200, seed=3, base=lambda v, h: signed(v, h) + 0.0)
        assert (ests[1].per_scenario_values == 0.0).all()
        assert not np.signbit(ests[1].per_scenario_values).any()

    def test_negative_zero_tie_over_nine_slots_is_read_as_positive_zero(self, monkeypatch):
        # State 0: B picks one of 9 actions, each staying w.p. 0.75 and
        # absorbing w.p. 0.25, at cost 0; q is uniform, so every ratio is
        # 1.5 or 0.5. With h = (0, 5e-324) a last step 0 -> 1 carries
        # 0.5 * -5e-324 = -0.0 in every slot, and with the last slot's value
        # made -0.0 the row to minimize would be eight +0.0 and one -0.0, a
        # tie that np.min and an elementwise min over the slots in order can
        # break differently. Read as +0.0, the -0.0 leaves no tie. Every
        # transition of state 0 has a slot that moves, so it never stops.
        n, k = 2, 9
        p = np.zeros((1, k, n))
        p[0, :, 0], p[0, :, 1] = 0.75, 0.25
        pa = np.zeros((1, 1, n))
        pa[0, 0, 1] = 1.0
        model = zd.make_game(
            zd.Ssp(absorbing=1), [p, pa], [np.zeros((1, k, n)), np.zeros((1, 1, n))], root=0
        )
        lower = zd.fix_player(model, zd.uniform_policy(model, zd.PLAYER_A), zd.PLAYER_A)
        upper = zd.fix_player(model, zd.uniform_policy(model, zd.PLAYER_B), zd.PLAYER_B)
        assert (lower.orientation, lower.cost.shape[1]) == ("min", k)
        signed = self.patch_lookahead(monkeypatch, lower, -1)
        h = np.array([0.0, 5e-324])
        q = zd.make_uniform_reference(model)
        inner = duality._SspInner(lower, h, q)
        assert not inner.stop[0].any() and not np.signbit(inner.base[0]).any()
        ests = self.assert_pairwise(
            [(upper, h), (lower, h)], q, 50, seed=2, base=lambda v, h: signed(v, h) + 0.0
        )
        assert (ests[1].per_scenario_values == 0.0).all()
        assert not np.signbit(ests[1].per_scenario_values).any()

    def test_wide_state_indices(self):
        # 300 states come in uint16, and a walk from state 298 reads flat
        # indices x * n + y and x * B + bucket above 2**16. The rows of q
        # differ, so a wrapped index reads another row's CDF.
        rng = np.random.default_rng(64)
        model = random_sparse_ssp_game(rng, n_states=300, max_actions=3)
        kernel = rng.dirichlet(np.ones(300), size=300)
        kernel[:, model.absorbing] += 0.05  # paths of about 20 steps
        kernel[model.absorbing] = np.eye(300)[model.absorbing]
        kernel /= kernel.sum(axis=1, keepdims=True)
        q = zd.ReferenceMeasure(kernel=kernel, absorbing=model.absorbing)
        assert q.search.dest.dtype == np.uint16 and q.search.scale == 512
        pairs = [
            (zd.fix_player(model, random_policy(rng, model, player), player),
             rng.uniform(-2.0, 2.0, model.n_states))
            for player in (zd.PLAYER_A, zd.PLAYER_B)
        ]
        self.assert_pairwise(pairs, q, 40, seed=9, x0=298)


class TestWindowDraw:
    """Each live path draws a window of steps at a time, with one search
    for the whole window when the non-absorbing rows of ``q`` are all the
    same and one search per step otherwise; every path's states equal the
    scalar oracle's path up to its first stop or absorption, every value the
    oracle's walk of the full path, byte for byte, and both fills draw the
    same record."""

    @staticmethod
    def shared_row_q(rng, model, zeros):
        """A ``q`` whose live rows are one Dirichlet row, zero at ``zeros``."""
        row = rng.dirichlet(np.full(model.n_states, 0.5))
        row[list(zeros)] = 0.0
        row[model.absorbing] += 0.05
        row /= row.sum()
        kernel = np.tile(row, (model.n_states, 1))
        kernel[model.absorbing] = np.eye(model.n_states)[model.absorbing]
        return zd.ReferenceMeasure(kernel=kernel, absorbing=model.absorbing)

    @staticmethod
    def half_dirichlet_q(rng, model):
        """A ``q`` whose live rows differ: each half uniform, half a
        Dirichlet row."""
        uniform = zd.make_uniform_reference(model).kernel
        kernel = 0.5 * uniform + 0.5 * rng.dirichlet(np.ones(model.n_states), size=model.n_states)
        kernel[model.absorbing] = uniform[model.absorbing]
        return zd.ReferenceMeasure(kernel=kernel, absorbing=model.absorbing)

    @staticmethod
    def recorded(monkeypatch):
        """Wrap the draw: its window records and the windows of uniforms drawn."""
        draws, windows = [], []
        draw, uniforms = duality._draw_paths, duality.uniforms

        def drawn(*args):
            draws.append(draw(*args))
            return draws[-1]

        def counted(seed, index, start, count):
            windows.append((start, count))
            return uniforms(seed, index, start, count)

        monkeypatch.setattr(duality, "_draw_paths", drawn)
        monkeypatch.setattr(duality, "uniforms", counted)
        return draws, windows

    @staticmethod
    def paths_of(windows, x0, n):
        paths = [[x0] for _ in range(n)]
        for ids, x, xn in step_records(windows):
            for i, a, b in zip(ids.tolist(), x.tolist(), xn.tolist()):
                assert paths[i][-1] == a
                paths[i].append(b)
        return paths

    @staticmethod
    def truncated(path, stop, absorbing):
        for t in range(len(path) - 1):
            if stop[path[t], path[t + 1]] or path[t + 1] == absorbing:
                return [int(s) for s in path[: t + 2]]
        raise AssertionError("an oracle path ends at absorption")

    def check_draw(self, monkeypatch, model, q, n, seed):
        """Bound both players' views at random mixed policies on one draw;
        return the paths' drawn lengths and the windows."""
        rng = np.random.default_rng(seed)
        pairs = [
            (zd.fix_player(model, random_policy(rng, model, player), player),
             rng.uniform(-2.0, 2.0, model.n_states))
            for player in (zd.PLAYER_A, zd.PLAYER_B)
        ]
        draws, windows = self.recorded(monkeypatch)
        ests = zd.estimate_dual_bounds(pairs, n, seed, q=q, keep_values=True)
        [drawn] = draws
        full = [reference_path(q.kernel, q.absorbing, model.root, seed, i) for i in range(n)]
        for est, (view, h) in zip(ests, pairs):
            want = TestStoppedPaths.oracle_values(view, h, q, full)
            assert est.per_scenario_values.tobytes() == want.tobytes()
        stop = np.logical_and.reduce([duality._SspInner(v, h, q).stop for v, h in pairs])
        got = self.paths_of(drawn, model.root, n)
        assert got == [self.truncated(path, stop, q.absorbing) for path in full]
        # The state-dependent fill draws the same paths.
        stepwise = dataclasses.replace(q)
        object.__setattr__(stepwise, "iid", False)
        again = duality._draw_paths(stepwise, model.root, seed, np.arange(n), 10**6, stop)
        assert self.paths_of(again, model.root, n) == got
        assert sum(len(p) - 1 for p in got) < sum(len(p) - 1 for p in full)
        return [len(p) - 1 for p in got], windows

    @pytest.mark.parametrize("cells", [None, 1])
    @pytest.mark.parametrize("kind", ["uniform", "dirichlet", "state"])
    def test_paths_and_values_match_the_scalar_oracle(self, monkeypatch, kind, cells):
        if cells is not None:  # windows of 8 steps throughout
            monkeypatch.setattr(duality, "_CELLS", cells)
        rng = np.random.default_rng(71)
        at_window_end = 0
        for trial in range(3):
            zeros = (2, 4) if kind == "dirichlet" else ()
            support = [s for s in range(8) if s not in zeros]
            model = random_sparse_ssp_game(rng, n_states=8, max_actions=4, support=support)
            if kind == "state":
                q = self.half_dirichlet_q(rng, model)
                assert not q.iid
            else:
                q = self.shared_row_q(rng, model, zeros) if zeros else zd.make_uniform_reference(model)
                assert q.iid
            if zeros:
                assert len(q.search.cols) > 1  # a guide bucket holds K > 1 rises
            lengths, windows = self.check_draw(monkeypatch, model, q, 400, seed=trial)
            ends = {start + count for start, count in windows}
            at_window_end += sum(length in ends for length in lengths)
        if cells is not None:
            assert at_window_end > 0

    def test_wide_state_indices(self):
        # 300 states in uint16: x * n + next exceeds 2**16.
        rng = np.random.default_rng(72)
        model = random_sparse_ssp_game(rng, n_states=300, max_actions=3)
        q = self.shared_row_q(rng, model, ())
        assert q.iid and q.search.dest.dtype == np.uint16
        pairs = [
            (zd.fix_player(model, random_policy(rng, model, player), player),
             rng.uniform(-2.0, 2.0, model.n_states))
            for player in (zd.PLAYER_A, zd.PLAYER_B)
        ]
        TestOneWalk.assert_pairwise(pairs, q, 40, seed=9, x0=298)

    def test_cap_as_in_the_state_dependent_fill(self):
        rng = np.random.default_rng(73)
        model = random_sparse_ssp_game(rng, n_states=8, max_actions=3)
        q = zd.make_uniform_reference(model)
        stepwise = dataclasses.replace(q)
        object.__setattr__(stepwise, "iid", False)
        stop = duality._SspInner(TestStoppedPaths.pure_view(model, zd.PLAYER_A), np.zeros(8), q).stop
        index = np.arange(300)
        windows = duality._draw_paths(q, model.root, 4, index, 10**6, stop)
        longest = len(step_records(windows))
        # Every path ends inside the first window, which the cap must cut.
        assert 2 < longest < duality._refill(300, 10**6)
        for cap in (1, 2, longest - 1, longest, longest + 1):
            for measure in (q, stepwise):
                if cap < longest:
                    with pytest.raises(zd.PathCapExceeded):
                        duality._draw_paths(measure, model.root, 4, index, cap, stop)
                else:
                    drawn = duality._draw_paths(measure, model.root, 4, index, cap, stop)
                    assert self.paths_of(drawn, model.root, 300) == self.paths_of(windows, model.root, 300)

    def test_first_values_do_not_depend_on_the_path_count(self, waste3):
        view = zd.fix_player(waste3, zd.uniform_policy(waste3, zd.PLAYER_B), zd.PLAYER_B)
        h = 0.9 * zd.solve_view(view, tol=0.0)[0]
        q = zd.make_uniform_reference(waste3)
        many = zd.estimate_dual_bound_ssp(view, h, q, 2000, seed=6, keep_values=True)
        few = zd.estimate_dual_bound_ssp(view, h, q, 37, seed=6, keep_values=True)
        assert duality._refill(2000, 10**6) != duality._refill(37, 10**6)
        assert many.per_scenario_values[:37].tobytes() == few.per_scenario_values.tobytes()

    def test_negative_zero_action_value_is_read_as_positive_zero(self, monkeypatch):
        view, h, q, base = signed_zero_case(monkeypatch)
        assert q.iid
        draws, _ = self.recorded(monkeypatch)
        est = zd.estimate_dual_bound_ssp(view, h, q, 200, seed=3, keep_values=True)
        paths = [reference_path(q.kernel, q.absorbing, 0, 3, i) for i in range(200)]
        want = np.array([ssp_path_value(view, path, q.kernel, h, base) for path in paths])
        assert est.per_scenario_values.tobytes() == want.tobytes()
        assert (want == 0.0).all() and not np.signbit(want).any()
        # State 0 stops at 0 -> 1 as state 1 does at 1 -> 0: a path is drawn
        # up to the first of them or to absorption.
        inner = duality._SspInner(view, h, q)
        stop = inner.stop
        assert stop[0, 1] and stop[1, 0] and not np.signbit(inner.base[0, 0])
        [drawn] = draws
        got = self.paths_of(drawn, 0, 200)
        assert got == [self.truncated(path, stop, q.absorbing) for path in paths]
        assert any(path[-2:] == [0, 1] for path in got)

    @pytest.mark.parametrize("kind", ["uniform", "state"])
    def test_window_draw_memory_is_linear_in_path_steps(self, kind):
        # 8,192 paths to absorption on waste N=10: about 920,000 path-steps
        # under the uniform q, the longest path over 900 steps. A step
        # record takes 6 bytes per path-step (int32 id, uint8 state and
        # next state); the draw's peak stays within that, while a dense
        # paths-by-longest-path matrix of states alone would exceed it.
        model = zd.build_waste_inspection_game(zd.WasteGameConfig(n_sites=10))
        if kind == "state":
            q = self.half_dirichlet_q(np.random.default_rng(5), model)
            assert not q.iid
        else:
            q = zd.make_uniform_reference(model)
        index = np.arange(duality._PATH_BLOCK)
        never = np.zeros(q.kernel.shape, dtype=bool)
        tracemalloc.start()
        try:
            windows = duality._draw_paths(q, model.root, 7, index, 10**6, never)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        steps = step_records(windows)
        record = sum(a.nbytes for step in steps for a in step)
        assert record == 6 * sum(len(ids) for ids, _, _ in steps)
        assert duality._PATH_BLOCK * (len(steps) + 1) > record
        assert peak <= record


class TestCompactTable:
    """The walk's table holds, for each transition x -> y, one entry for
    the slots that cannot move to y and one per slot that can; a step into
    absorption is one entry, the step's value at continuation 0. Every
    value equals, byte for byte, the walk of each pair alone and the
    oracle's walk over all slots."""

    @staticmethod
    def walk(pairs, q):
        return duality._Walk([duality._SspInner(view, h, q) for view, h in pairs], q)

    @staticmethod
    def random_pairs(rng, model, h_end=None):
        pairs = []
        for player in (zd.PLAYER_A, zd.PLAYER_B):
            h = rng.uniform(-2.0, 2.0, model.n_states)
            if h_end is not None:
                h[model.absorbing] = h_end
            pairs.append((zd.fix_player(model, random_policy(rng, model, player), player), h))
        return pairs

    def test_sparse_random_games_with_several_slots_per_transition(self):
        rng = np.random.default_rng(81)
        for trial in range(3):
            model = random_sparse_ssp_game(rng, n_states=8, max_actions=4)
            q = zd.make_uniform_reference(model)
            pairs = self.random_pairs(rng, model)
            assert len(self.walk(pairs, q).rho) >= 2 * 3  # K >= 2
            TestOneWalk.assert_pairwise(pairs, q, 300, seed=trial)

    def test_steps_into_absorption_with_a_nonzero_generator_there(self):
        # Dense kernels: every path is drawn to absorption, and every action
        # can absorb, so each last step's entry 0 is the whole step.
        rng = np.random.default_rng(82)
        model = random_ssp_game(rng, n_states=5, max_actions=3)
        q = zd.make_uniform_reference(model)
        for h_end in (1.75, -0.5):
            pairs = self.random_pairs(rng, model, h_end)
            walk = self.walk(pairs, q)
            assert len(walk.rho) == 2 * (1 + max(view.cost.shape[1] for view, _ in pairs))
            TestOneWalk.assert_pairwise(pairs, q, 200, seed=4)

    def test_reference_kernel_with_zeros(self):
        rng = np.random.default_rng(83)
        zeros = (1, 4)
        for trial in range(2):
            support = [s for s in range(8) if s not in zeros]
            model = random_sparse_ssp_game(rng, n_states=8, max_actions=4, support=support)
            q = TestWindowDraw.shared_row_q(rng, model, zeros)
            assert (q.kernel[:, list(zeros)] == 0.0).all()
            pairs = self.random_pairs(rng, model, 0.5)
            assert len(self.walk(pairs, q).rho) >= 2 * 3
            TestOneWalk.assert_pairwise(pairs, q, 300, seed=trial)

    def test_overflowing_pair_beside_a_finite_one(self, waste3):
        mu = zd.uniform_policy(waste3, zd.PLAYER_A)
        nu = zd.uniform_policy(waste3, zd.PLAYER_B)
        lower = zd.fix_player(waste3, mu, zd.PLAYER_A)
        upper = zd.fix_player(waste3, nu, zd.PLAYER_B)
        rough = np.random.default_rng(84).uniform(-2.0, 2.0, waste3.n_states)
        pairs = [(upper, 1e300 * zd.evaluate_policy_pair(waste3, mu, nu)), (lower, rough)]
        q = zd.make_uniform_reference(waste3)
        ests = TestOneWalk.assert_pairwise(pairs, q, 300, seed=1)
        assert np.isinf(ests[0].per_scenario_values).any()
        assert np.isfinite(ests[1].per_scenario_values).all()

    def test_negative_zero_action_value_in_the_compact_table(self, monkeypatch):
        # The nine-slot game of TestOneWalk's tie test with a -0.0 on the
        # maximizer's one slot in place of 1.5: read as +0.0, it takes the
        # compact table of 1 + 9 entries like every other value, and the
        # maximizer's values go below zero. No transition of state 0 stops.
        n, k = 2, 9
        p = np.zeros((1, k, n))
        p[0, :, 0], p[0, :, 1] = 0.75, 0.25
        pa = np.zeros((1, 1, n))
        pa[0, 0, 1] = 1.0
        model = zd.make_game(
            zd.Ssp(absorbing=1), [p, pa], [np.zeros((1, k, n)), np.zeros((1, 1, n))], root=0
        )
        lower = zd.fix_player(model, zd.uniform_policy(model, zd.PLAYER_A), zd.PLAYER_A)
        upper = zd.fix_player(model, zd.uniform_policy(model, zd.PLAYER_B), zd.PLAYER_B)
        signed = TestOneWalk.patch_lookahead(monkeypatch, upper, 0)
        pairs = [(lower, np.array([1.0, 0.0])), (upper, np.array([2.0, 0.0]))]
        q = zd.make_uniform_reference(model)
        walk = self.walk(pairs, q)
        assert len(walk.rho) == 2 * (1 + k)
        assert not np.signbit(walk.value[walk.value == 0.0]).any()
        ests = TestOneWalk.assert_pairwise(
            pairs, q, 100, seed=5, base=lambda v, h: signed(v, h) + 0.0
        )
        values = ests[1].per_scenario_values
        assert (values < 0.0).any() and (values == 0.0).any()
        assert not np.signbit(values[values == 0.0]).any()

    def test_zero_ratios_of_an_overflowed_pair_where_only_the_other_moves(self):
        # The maximizer's generator overflows its continuation to +-inf. On
        # a step x -> y that none of its slots can make while the
        # minimizer's can, each of its entries 1..K has ratio 0: 0 * inf is
        # NaN, and the step's value is its entry 0, as in the oracle.
        rng = np.random.default_rng(2)
        model = random_sparse_ssp_game(rng, n_states=8, max_actions=4)
        q = zd.make_uniform_reference(model)
        big = 1e307 * rng.uniform(-1.0, 1.0, model.n_states)
        big[model.absorbing] = 0.0
        pairs = [
            (TestStoppedPaths.pure_view(model, zd.PLAYER_B), big),
            (TestStoppedPaths.pure_view(model, zd.PLAYER_A), rng.uniform(-2.0, 2.0, 8)),
        ]
        assert [view.orientation for view, _ in pairs] == ["max", "min"]
        assert len(self.walk(pairs, q).rho) >= 2 * 3  # K >= 2
        (view, h), n = pairs[0], 200
        alone, moves = (duality._SspInner(v, hv, q).stop for v, hv in pairs)
        paths = [reference_path(q.kernel, q.absorbing, model.root, 3, i) for i in range(n)]
        padded = [
            ssp_path_value(view, path[t + 1 :], q.kernel, h)
            for path in paths
            for t in range(len(path) - 1)
            if alone[path[t], path[t + 1]] and not moves[path[t], path[t + 1]]
        ]
        assert np.isinf(padded).any()
        ests = TestOneWalk.assert_pairwise(pairs, q, n, seed=3)
        values = np.concatenate([est.per_scenario_values for est in ests])
        assert np.isinf(values).any() and not np.isnan(values).any()

    def test_overflowed_ratio_at_a_zero_difference_keeps_its_nan(self, monkeypatch):
        # q(1|0) = 5e-324 is the first mass of its row, so a uniform of
        # exactly 0 draws 0 -> 1, whose ratio 0.5 / 5e-324 overflows to inf.
        # State 1 absorbs at cost 0 and h = 0, so that step meets a diff of
        # exactly 0: inf * 0 is NaN, as the oracle has it, and it is kept.
        n = 3
        p0 = np.zeros((1, 1, n))
        p0[0, 0, 1:] = 0.5
        pa = np.zeros((1, 1, n))
        pa[0, 0, 2] = 1.0
        zeros = np.zeros((1, 1, n))
        model = zd.make_game(zd.Ssp(absorbing=2), [p0, pa, pa.copy()], [zeros] * 3, root=0)
        kernel = np.array([[0.0, 5e-324, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        q = zd.ReferenceMeasure(kernel=kernel, absorbing=2)

        def zero_uniforms(seed, index, start, count):
            return np.zeros((len(index), count))

        monkeypatch.setattr(duality, "uniforms", zero_uniforms)
        for player in (zd.PLAYER_A, zd.PLAYER_B):
            view = zd.fix_player(model, zd.uniform_policy(model, player), player)
            est = zd.estimate_dual_bound_ssp(view, np.zeros(n), q, 2, seed=0, keep_values=True)
            want = ssp_path_value(view, np.array([0, 1, 2]), q.kernel, np.zeros(n))
            assert np.isnan(want) and np.isnan(est.per_scenario_values).all()

    def test_table_is_at_most_half_the_dense_one_at_waste_n10(self):
        model = zd.build_waste_inspection_game(zd.WasteGameConfig(n_sites=10))
        q = zd.make_uniform_reference(model)
        pairs = [
            (zd.fix_player(model, zd.uniform_policy(model, player), player), np.zeros(model.n_states))
            for player in (zd.PLAYER_A, zd.PLAYER_B)
        ]
        walk = self.walk(pairs, q)
        n, S = model.n_states, max(view.cost.shape[1] for view, _ in pairs)
        dense = n * n * len(pairs) * S * 8
        assert walk.rho.nbytes + walk.value.nbytes <= dense // 2
