import numpy as np
import pytest

from zsgdual import matrix_games

import zsgdual as zd
from zsgdual import solvers

from oracles import matrix_game, shapley_sweep, two_by_two_game_value


def assert_saddle(R, sol, tol=1e-7):
    assert (sol.row_strategy @ R).min() >= sol.value - tol
    assert (R @ sol.col_strategy).max() <= sol.value + tol
    assert abs(sol.row_strategy.sum() - 1.0) < 1e-9
    assert abs(sol.col_strategy.sum() - 1.0) < 1e-9
    assert sol.row_strategy.min() >= -1e-9
    assert sol.col_strategy.min() >= -1e-9


class TestSolveKnownGames:
    def test_pure_saddle_game(self):
        sol = matrix_games.solve(np.array([[8.0, 15.0], [10.0, 12.0]]))
        assert sol.value == pytest.approx(10.0, abs=1e-9)
        np.testing.assert_allclose(sol.row_strategy, [0.0, 1.0], atol=1e-9)
        np.testing.assert_allclose(sol.col_strategy, [1.0, 0.0], atol=1e-9)

    def test_negative_pure_saddle_game(self):
        sol = matrix_games.solve(np.array([[-8.0, -10.0], [3.0, -11.0]]))
        assert sol.value == pytest.approx(-10.0, abs=1e-9)
        np.testing.assert_allclose(sol.row_strategy, [1.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(sol.col_strategy, [0.0, 1.0], atol=1e-9)

    def test_mixed_equilibrium_game(self):
        sol = matrix_games.solve(np.array([[6.0, 2.0], [4.0, 8.0]]))
        assert sol.value == pytest.approx(5.0, abs=1e-9)
        np.testing.assert_allclose(sol.row_strategy, [0.5, 0.5], atol=1e-7)
        np.testing.assert_allclose(sol.col_strategy, [0.75, 0.25], atol=1e-7)

    def test_one_by_one(self):
        sol = matrix_games.solve(np.array([[3.25]]))
        assert sol.value == pytest.approx(3.25, abs=1e-12)
        np.testing.assert_allclose(sol.row_strategy, [1.0])
        np.testing.assert_allclose(sol.col_strategy, [1.0])

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            matrix_games.solve(np.array([[np.nan, 1.0]]))
        with pytest.raises(ValueError):
            matrix_games.solve(np.zeros((0, 2)))
        with pytest.raises(ValueError, match="overflows"):
            matrix_games.solve(np.array([[1.7e308, -1.7e308]]))
        stack = np.array([[[1.0, 2.0]], [[-1e308, 1e308]]])
        with pytest.raises(ValueError, match="game 1: payoff range overflows"):
            matrix_games.solve_many(stack)
        with pytest.raises(ValueError):
            matrix_games.solve_many(np.ones((2, 3)))


class TestValueOf:
    # The row player's expected payoff under mixed strategies y, z is y @ R @ z.

    def test_bilinear_evaluation(self):
        R = np.array([[2.0, 1.0], [6.0, 8.0]])
        y, z = np.array([0.5, 0.5]), np.array([0.75, 0.25])
        assert y @ R @ z == pytest.approx(4.125, abs=1e-12)

    def test_pure_strategies_pick_entries(self):
        rng = np.random.default_rng(5)
        R = rng.uniform(-4, 4, size=(3, 4))
        for u in range(3):
            for v in range(4):
                assert np.eye(3)[u] @ R @ np.eye(4)[v] == pytest.approx(R[u, v])

    def test_equilibrium_strategies_reach_value(self):
        R = np.array([[6.0, 2.0], [4.0, 8.0]])
        y, z = np.array([0.5, 0.5]), np.array([0.75, 0.25])
        assert y @ R @ z == pytest.approx(5.0, abs=1e-12)


class TestSolverProperties:
    def test_saddle_inequalities_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            m, n = rng.integers(1, 7, size=2)
            R = rng.uniform(-10, 10, size=(m, n))
            assert_saddle(R, matrix_games.solve(R))

    def test_affine_covariance(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            m, n = rng.integers(1, 7, size=2)
            R = rng.uniform(-10, 10, size=(m, n))
            a = rng.uniform(0.1, 3.0)
            b = rng.uniform(-5.0, 5.0)
            sol = matrix_games.solve(R)
            shifted = matrix_games.solve(a * R + b)
            assert shifted.value == pytest.approx(a * sol.value + b, abs=1e-7)
            # The original strategies stay optimal for the shifted game.
            S = a * R + b
            assert (sol.row_strategy @ S).min() >= shifted.value - 1e-7
            assert (S @ sol.col_strategy).max() <= shifted.value + 1e-7

    def test_antisymmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            m, n = rng.integers(1, 7, size=2)
            R = rng.uniform(-10, 10, size=(m, n))
            v = matrix_games.solve(R).value
            v_swap = matrix_games.solve(-R.T).value
            assert v_swap == pytest.approx(-v, abs=1e-7)

    def test_matches_two_by_two_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            R = rng.uniform(-10, 10, size=(2, 2))
            assert matrix_games.solve(R).value == pytest.approx(
                two_by_two_game_value(R), abs=1e-9
            )

    def test_strictly_dominant_row_is_pure(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            m, n = int(rng.integers(2, 6)), int(rng.integers(1, 6))
            R = rng.uniform(-5, 5, size=(m, n))
            k = int(rng.integers(0, m))
            R[k] = R.max(axis=0) + rng.uniform(0.5, 2.0, size=n)
            sol = matrix_games.solve(R)
            expected = np.zeros(m)
            expected[k] = 1.0
            np.testing.assert_allclose(sol.row_strategy, expected, atol=1e-7)

    def test_degenerate_games_terminate(self):
        # All-equal and rank-one payoffs exercise heavy pivot ties.
        for R in (np.zeros((4, 4)), np.ones((3, 5)), np.outer([1, 2, 3], [1, 1, 1.0])):
            sol = matrix_games.solve(R)
            assert_saddle(R, sol)


class TestScaleFree:
    """The answer does not depend on the payoff scale: the simplex sees
    every game mapped onto entries in [1, 2)."""

    def test_large_pure_saddle(self):
        sol = matrix_games.solve(np.array([[-8e12, -1e13], [3e12, -1.1e13]]))
        assert sol.value == -1e13
        np.testing.assert_array_equal(sol.row_strategy, [1.0, 0.0])
        np.testing.assert_array_equal(sol.col_strategy, [0.0, 1.0])

    def test_large_single_row(self):
        sol = matrix_games.solve(np.array([[1e12, 0.0]]))
        assert sol.value == 0.0
        np.testing.assert_array_equal(sol.col_strategy, [0.0, 1.0])

    @pytest.mark.parametrize("c", [0.0, -3.5e-300, 7e12])
    def test_constant_game(self, c):
        sol = matrix_games.solve(np.full((2, 3), c))
        assert sol.value == c

    def test_exploitability_gap_at_every_scale(self):
        # max(R z) - min(y R) >= 0 is the gain the better deviation buys;
        # it is a rounding error relative to the payoff range.
        rng = np.random.default_rng(45)
        eps = np.finfo(float).eps
        for k in range(-12, 13):
            for m in range(1, 7):
                for n in range(1, 7):
                    for R in (rng.normal(size=(3, m, n)),
                              rng.integers(-3, 4, size=(3, m, n)).astype(float)):
                        R = R * 10.0**k
                        _, rows, cols = matrix_games.solve_many(R)
                        gap = (np.einsum("guv,gv->gu", R, cols).max(axis=1)
                               - np.einsum("gu,guv->gv", rows, R).min(axis=1))
                        span = R.max(axis=(1, 2)) - R.min(axis=(1, 2))
                        assert np.all(gap <= 64 * eps * span), (k, m, n)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_matches_reference(R):
    """solve_many on the stack R and solve on each game equal the scalar
    simplex, game by game, bit for bit."""
    values, rows, cols = matrix_games.solve_many(R)
    for g in range(len(R)):
        value, row, col = matrix_game(R[g])
        assert_same_bits(values[g], value)
        assert_same_bits(rows[g], row)
        assert_same_bits(cols[g], col)
        sol = matrix_games.solve(R[g])
        assert_same_bits(sol.value, value)
        assert_same_bits(sol.row_strategy, row)
        assert_same_bits(sol.col_strategy, col)


def assert_sweep_matches_reference(model, J):
    new, mu, nu = zd.shapley_backup(model, J)
    want, want_mu, want_nu = shapley_sweep(model, J)
    assert_same_bits(new, want)
    for i in range(model.n_states):
        assert_same_bits(mu[i], want_mu[i])
        assert_same_bits(nu[i], want_nu[i])
    return new


class TestBatchedSimplexMatchesScalarReference:
    def test_random_integer_matrices(self):
        # Small integer payoffs tie in the ratio test, so the leaving row is
        # often decided by the smallest basic index alone.
        rng = np.random.default_rng(40)
        for m in range(1, 7):
            for n in range(1, 7):
                assert_matches_reference(
                    rng.integers(-3, 4, size=(40, m, n)).astype(float)
                )

    def test_random_normal_matrices(self):
        rng = np.random.default_rng(41)
        for m in range(1, 7):
            for n in range(1, 7):
                assert_matches_reference(rng.normal(size=(20, m, n)))

    def test_single_row_and_single_column_games(self):
        rng = np.random.default_rng(42)
        for k in range(1, 9):
            assert_matches_reference(rng.uniform(-5, 5, size=(10, 1, k)))
            assert_matches_reference(rng.uniform(-5, 5, size=(10, k, 1)))
            assert_matches_reference(rng.integers(0, 2, size=(10, 1, k)).astype(float))

    def test_a_game_does_not_depend_on_its_stack(self):
        rng = np.random.default_rng(43)
        R = rng.integers(-2, 3, size=(30, 4, 4)).astype(float)
        values, rows, cols = matrix_games.solve_many(R)
        for lo, hi in ((0, 1), (5, 9), (12, 30)):
            part = matrix_games.solve_many(R[lo:hi])
            assert_same_bits(part[0], values[lo:hi])
            assert_same_bits(part[1], rows[lo:hi])
            assert_same_bits(part[2], cols[lo:hi])

    def test_empty_stack(self):
        values, rows, cols = matrix_games.solve_many(np.zeros((0, 2, 3)))
        assert values.shape == (0,) and rows.shape == (0, 2) and cols.shape == (0, 3)

    @pytest.mark.parametrize("n_sites, every", [(3, 1), (5, 10)])
    def test_waste_trajectory_sweeps(self, n_sites, every):
        model = zd.build_waste_inspection_game(zd.WasteGameConfig(n_sites=n_sites))
        J = np.zeros(model.n_states)
        for k in range(100_000):
            if k % every == 0:
                new = assert_sweep_matches_reference(model, J)
            else:
                new, _, _ = zd.shapley_backup(model, J)
            if np.abs(new - J).max() <= 1e-8:
                break
            J = new
        assert k > 100


@pytest.fixture(scope="module")
def waste5_stage_stacks():
    """The stage stacks that the sweeps of a waste N=5 solve at tol=1e-8
    pass to ``solve_mixed``."""
    stacks, solve_mixed = [], matrix_games.solve_mixed
    matrix_games.solve_mixed = lambda R: stacks.append(np.array(R)) or solve_mixed(R)
    try:
        model = zd.build_waste_inspection_game(zd.WasteGameConfig(n_sites=5))
        zd.shapley_value_iteration(model, tol=1e-8)
    finally:
        matrix_games.solve_mixed = solve_mixed
    return stacks


def gap_bound(R):
    """``solve_mixed``'s acceptance bound: GAP_ULPS ulps of max |R| per action."""
    eps = np.finfo(float).eps
    return matrix_games.GAP_ULPS * R.shape[2] * eps * np.abs(R).max(axis=(1, 2))


@pytest.fixture
def simplex_calls(monkeypatch):
    """The stacks that ``solve_mixed`` hands to ``solve_many``."""
    calls, solve_many = [], matrix_games.solve_many
    monkeypatch.setattr(matrix_games, "solve_many", lambda R: calls.append(R) or solve_many(R))
    return calls


class TestSolveMixed:
    """The completely mixed step: one batched equalizing solve per stack,
    accepted game by game, and the simplex for the rest."""

    def test_accepts_exactly_the_full_supports_of_a_waste_solve(
        self, waste5_stage_stacks, simplex_calls
    ):
        eps = np.finfo(float).eps
        accepted = []
        for R in waste5_stage_stacks:
            want, want_rows, want_cols = matrix_games.solve_many(R)
            full = (want_rows > 0).all(axis=1) & (want_cols > 0).all(axis=1)
            simplex_calls.clear()
            values, rows, cols, gaps = matrix_games.solve_mixed(R)
            if full.all():
                assert simplex_calls == []
            else:
                assert len(simplex_calls) == 1
                assert_same_bits(simplex_calls[0], R[~full])
            accepted.append(int(full.sum()))
            assert not any(a.flags.writeable for a in (values, rows, cols))
            assert_same_bits(gaps, matrix_games.exploitability(R, rows, cols))
            assert np.all(gaps[full] <= gap_bound(R)[full])
            # Each value lies within its own stage gap of the game value.
            want_gap = matrix_games.exploitability(R, want_rows, want_cols)
            scale = np.abs(R).max(axis=(1, 2))
            assert np.all(np.abs(values - want) <= gaps + want_gap + 4 * eps * scale)
        # From the third sweep on, every stage game is completely mixed.
        assert accepted[:2] == [0, 5] and accepted[2:] == [30] * (len(accepted) - 2)

    @pytest.mark.parametrize("name", ["pure saddle", "dominated row", "subnormal"])
    def test_refused_game_leaves_the_others_alone(self, waste5_stage_stacks, name, simplex_calls):
        good = waste5_stage_stacks[-1][:4]
        bad = good[0].copy()
        if name == "pure saddle":
            bad[2] += 10.0  # row 2 dominates every other
        elif name == "dominated row":
            bad[0] = bad[1] - np.linspace(1.0, 2.0, 5)  # its system is regular
        else:
            bad *= 1e-310 / np.abs(bad).max()
        alone = matrix_games.solve_mixed(good)
        assert simplex_calls == []
        R = np.concatenate([good[:2], bad[None], good[2:]])
        mixed = matrix_games.solve_mixed(R)
        assert len(simplex_calls) == 1
        assert_same_bits(simplex_calls[0], bad[None])
        simplex = matrix_games.solve_many(bad[None])
        simplex += (matrix_games.exploitability(bad[None], *simplex[1:]),)
        for got, want, other in zip(mixed, simplex, alone):
            assert_same_bits(got[2], want[0])
            assert_same_bits(got[[0, 1, 3, 4]], other)

    def test_singular_game_sends_the_whole_stack_to_the_simplex(
        self, waste5_stage_stacks, simplex_calls
    ):
        # A constant game's equalizing system is singular, which fails the
        # batched solve of the whole stack.
        good = waste5_stage_stacks[-1][:4]
        R = np.concatenate([good[:2], np.full_like(good[:1], 2.5), good[2:]])
        mixed = matrix_games.solve_mixed(R)
        assert len(simplex_calls) == 1
        assert_same_bits(simplex_calls[0], R)
        want = matrix_games.solve_many(R)
        want += (matrix_games.exploitability(R, *want[1:]),)
        for got, w in zip(mixed, want):
            assert_same_bits(got, w)

    def test_one_by_one_and_non_square_games_take_the_simplex(self):
        for R in (np.full((3, 1, 1), 2.0), np.ones((2, 2, 3))):
            assert not matrix_games.equalizable(R.shape)
            want = matrix_games.solve_many(R)
            want += (matrix_games.exploitability(R, *want[1:]),)
            for got, w in zip(matrix_games.solve_mixed(R), want):
                assert_same_bits(got, w)

    def test_empty_stack(self):
        values, rows, cols, gaps = matrix_games.solve_mixed(np.zeros((0, 3, 3)))
        assert values.shape == gaps.shape == (0,)
        assert rows.shape == cols.shape == (0, 3)

    def test_rejects_what_solve_many_rejects(self):
        R = np.ones((2, 3, 3))
        R[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            matrix_games.solve_mixed(R)
        R[1, 0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            matrix_games.solve_mixed(R)
        R[1, 0, 0], R[1, 1, 1] = 1e308, -1e308
        with pytest.raises(ValueError, match="game 1: payoff range overflows"):
            matrix_games.solve_mixed(R)
