import re
import time
import tracemalloc

import numpy as np
import pytest

import zsgdual as zd
from zsgdual import solvers
from zsgdual.games import lookahead

from oracles import (
    dense_chain,
    dense_chain_values,
    finite_backward_induction,
    finite_forward_value,
    induced_chain_by_state,
    random_discounted_game,
    random_finite_game,
    random_policy,
    random_sparse_ssp_game,
    random_ssp_game,
    rollout_pair,
    shapley_iteration,
    shapley_sweep,
    skipping_view,
    sweep_polished_view,
    value_iteration,
)


def single_state_discounted(alpha=0.9, cost=1.0):
    p = np.ones((1, 1, 1))
    g = np.full((1, 1, 1), cost)
    return zd.make_game(zd.Discounted(alpha=alpha), [p], [g], root=0)


def optimal_pair(model, tol=1e-12):
    _, mu, nu = zd.shapley_value_iteration(model, tol=tol)
    return mu, nu


class TestEvaluatePolicyPair:
    def test_geometric_series(self):
        model = single_state_discounted(alpha=0.9, cost=1.0)
        pol = zd.make_policy([np.array([1.0])])
        J = zd.evaluate_policy_pair(model, pol, pol)
        assert J[0] == pytest.approx(10.0, abs=1e-10)

    def test_equilibrium_pair_on_two_period_game(self, two_period):
        mu, nu = optimal_pair(two_period)
        J = zd.evaluate_policy_pair(two_period, mu, nu)
        np.testing.assert_allclose(J, [5.0, 10.0, -10.0, 0.0], atol=1e-9)

    def test_matches_rollout_on_waste_game(self, waste3):
        mu = zd.uniform_policy(waste3, zd.PLAYER_A)
        nu = zd.uniform_policy(waste3, zd.PLAYER_B)
        J = zd.evaluate_policy_pair(waste3, mu, nu)
        mean, se = rollout_pair(waste3, mu, nu, waste3.root, 50_000, seed=21)
        assert abs(mean - J[waste3.root]) <= 3 * se

    def test_matches_rollout_on_discounted_game(self):
        rng = np.random.default_rng(22)
        model = random_discounted_game(rng, n_states=4, alpha=0.8)
        mu = random_policy(rng, model, zd.PLAYER_A)
        nu = random_policy(rng, model, zd.PLAYER_B)
        J = zd.evaluate_policy_pair(model, mu, nu)
        mean, se = rollout_pair(model, mu, nu, 0, 60_000, seed=23)
        assert abs(mean - J[0]) <= 3 * se

    def test_improper_pair_raises(self):
        # Two states, the pair loops between them and never absorbs.
        n = 3
        p0 = np.zeros((1, 1, n)); p0[0, 0, 1] = 1.0
        p1 = np.zeros((1, 1, n)); p1[0, 0, 0] = 1.0
        pa = np.zeros((1, 1, n)); pa[0, 0, 2] = 1.0
        model = zd.make_game(
            zd.Ssp(absorbing=2),
            [p0, p1, pa],
            [np.ones((1, 1, n)), np.ones((1, 1, n)), np.zeros((1, 1, n))],
        )
        pol = zd.make_policy([np.array([1.0])] * 3)
        with pytest.raises(zd.ImproperPair):
            zd.evaluate_policy_pair(model, pol, pol)

    def test_raw_finite_horizon_rejected(self):
        model = single_state_discounted()
        raw = zd.make_game(
            zd.FiniteHorizon(periods=2), model.transition, model.cost
        )
        pol = zd.make_policy([np.array([1.0])])
        with pytest.raises(ValueError):
            zd.evaluate_policy_pair(raw, pol, pol)


def finite_embeddings():
    """Raw random finite games (unequal action counts, seeds 0-5), each with
    its root and without one, paired with their embeddings."""
    out = []
    for seed in range(6):
        raw = random_finite_game(np.random.default_rng(seed), n_states=6, periods=4)
        rootless = zd.make_game(raw.regime, raw.transition, raw.cost)
        out += [(g, zd.embed_finite_horizon(g)) for g in (raw, rootless)]
    return out


def seeded_finite_game(n, periods, seed, actions=4, successors=3):
    """The random finite game of the CI scale steps: ``successors`` next
    states per action pair, Dirichlet weights, costs in [0, 10) on them."""
    rng = np.random.default_rng(seed)
    p = np.zeros((n, actions, actions, n))
    for x in range(n):
        for u in range(actions):
            for v in range(actions):
                p[x, u, v, rng.choice(n, successors, replace=False)] = rng.dirichlet(
                    np.ones(successors)
                )
    g = np.where(p > 0.0, rng.uniform(0.0, 10.0, p.shape), 0.0)
    return zd.make_game(zd.FiniteHorizon(periods), list(p), list(g), root=0)


def seeded_chain(rng, n, L, absorbing):
    """``(L, n)`` successor lists in which every state lists its first
    destination twice, about a third of the later entries are pads of
    probability 0 to state 0 or to ``n``, and, with ``absorbing``, entry 2
    of every state moves there."""
    succ = rng.integers(0, n, (L, n))
    succ[1] = succ[0]
    prob = rng.dirichlet(np.ones(L), size=n).T
    pad = rng.random((L, n)) < 0.3
    pad[:3] = False
    prob[pad] = 0.0
    succ[pad] = np.where(rng.random(int(pad.sum())) < 0.5, 0, n)
    if absorbing is not None:
        succ[2] = absorbing
    return succ, prob


class TestChainValues:
    """``_chain_values`` solves the one system of every chain: pair values,
    Howard's policies and Newton's corrections."""

    @pytest.mark.parametrize("alpha, absorbing", [(0.9, None), (1.0, 3)])
    def test_matches_the_dense_solve(self, alpha, absorbing, monkeypatch):
        rng = np.random.default_rng(31 if absorbing is None else 32)
        real = np.linalg.solve
        for _ in range(20):
            n = 7
            succ, prob = seeded_chain(rng, n, 6, absorbing)
            cost = rng.uniform(-5.0, 5.0, n)
            P = dense_chain(succ, prob)
            want = dense_chain_values(P, cost, alpha, absorbing)
            systems = []
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "solve", lambda A, b: systems.append(np.array(A)) or real(A, b))
                got = solvers._chain_values(succ, prob, cost, alpha, absorbing)
            # The assembled I - alpha P has the dense system's bits.
            keep = np.arange(n) != absorbing
            (A,) = systems
            assert A.tobytes() == (np.eye(int(keep.sum())) - alpha * P[np.ix_(keep, keep)]).tobytes()
            assert got.tobytes() == want.tobytes()
            if absorbing is not None:
                assert got[absorbing] == 0.0

    def test_improper_chain_is_none(self):
        # States 1 and 2 move between themselves; the only entry from them to
        # the absorbing state 0 is a pad of probability 0.
        succ = np.array([[0, 2, 1, 0], [4, 0, 0, 4]])
        prob = np.array([[1.0, 1.0, 1.0, 0.5], [0.0, 0.0, 0.0, 0.0]])
        assert solvers._chain_values(succ, prob, np.ones(4), 1.0, 0) is None
        prob[:, 1] = 0.5  # state 1 now moves to 0 half the time
        assert solvers._chain_values(succ, prob, np.ones(4), 1.0, 0) is not None


class TestTimeEmbeddedModels:
    """Pair values and best responses of time-embedded models come from one
    backward pass over the periods, never from a linear solve or from
    sweeps over every state."""

    def test_pair_values_match_the_linear_solve_and_forward_recursion(self, two_period):
        rng = np.random.default_rng(26)
        cases = [(raw, emb, zd.lift_policy) for raw, emb in finite_embeddings()]
        cases.append((two_period, two_period, lambda emb, policy: policy))
        for raw, emb, lift in cases:
            mu = random_policy(rng, raw, zd.PLAYER_A)
            nu = random_policy(rng, raw, zd.PLAYER_B)
            mu_e, nu_e = lift(emb, mu), lift(emb, nu)
            J = zd.evaluate_policy_pair(emb, mu_e, nu_e)
            P, G = induced_chain_by_state(emb, mu_e, nu_e)
            lu = dense_chain_values(P, G, 1.0, emb.absorbing)
            scale = np.abs(lu).max()
            np.testing.assert_allclose(J, lu, rtol=1e-13, atol=1e-13 * scale)
            if raw is emb:
                starts = [(0, emb.root)]
                forward = lambda x0: finite_forward_value(emb, mu, nu, x0, emb.horizon)
            else:
                starts = [(x0, np.flatnonzero((emb.period == 0) & (emb.base_state == x0))[0])
                          for x0 in ([raw.root] if raw.root is not None else range(raw.n_states))]
                forward = lambda x0: finite_forward_value(raw, mu, nu, x0, raw.regime.periods)
            for x0, x in starts:
                assert J[x] == pytest.approx(forward(x0), rel=1e-13, abs=1e-13 * scale)

    def test_large_pair_builds_no_dense_matrix(self):
        # 100 base states over 40 periods: 3,839 states once embedded, so
        # one (n, n) float array takes 118 MB.
        model = zd.embed_finite_horizon(seeded_finite_game(100, 40, seed=100))
        n = model.n_states
        mu = zd.uniform_policy(model, zd.PLAYER_A)
        nu = zd.uniform_policy(model, zd.PLAYER_B)
        tracemalloc.start()
        try:
            zd.evaluate_policy_pair(model, mu, nu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8
        took = []
        for _ in range(3):
            start = time.perf_counter()
            zd.evaluate_policy_pair(model, mu, nu)
            took.append(time.perf_counter() - start)
        assert min(took) < 0.05

    def test_best_responses_are_backward_induction_in_two_sweeps(
        self, monkeypatch, two_period
    ):
        # Backward induction reads one period's rows at a time; only the
        # full-view calls are sweeps.
        sweeps = [0]
        lookahead_ = solvers.lookahead

        def counting(view, values, states=slice(None)):
            sweeps[0] += isinstance(states, slice)
            return lookahead_(view, values, states)

        monkeypatch.setattr(solvers, "lookahead", counting)
        rng = np.random.default_rng(27)
        views = [skipping_view("max"), skipping_view("min")]
        for game in [emb for _, emb in finite_embeddings()] + [two_period]:
            for player in (zd.PLAYER_A, zd.PLAYER_B):
                views.append(zd.fix_player(game, random_policy(rng, game, player), player))
        for view in views:
            sweeps[0] = 0
            values, actions = zd.solve_view(view)
            assert sweeps[0] <= 2
            want_values, want_actions = finite_backward_induction(view)
            assert values.tobytes() == want_values.tobytes()
            np.testing.assert_array_equal(actions, want_actions)
            assert_fixed_point(view, values)


class TestShapleyValueIteration:
    def test_two_period_game_solution(self, two_period):
        J, mu, nu = zd.shapley_value_iteration(two_period, tol=1e-12)
        np.testing.assert_allclose(J, [5.0, 10.0, -10.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(mu[0], [0.5, 0.5], atol=1e-7)
        np.testing.assert_allclose(nu[0], [0.75, 0.25], atol=1e-7)
        np.testing.assert_allclose(mu[1], [0.0, 1.0], atol=1e-7)
        np.testing.assert_allclose(nu[1], [1.0, 0.0], atol=1e-7)
        np.testing.assert_allclose(mu[2], [1.0, 0.0], atol=1e-7)
        np.testing.assert_allclose(nu[2], [0.0, 1.0], atol=1e-7)

    def test_embedded_game_ignores_tol(self):
        # One backward pass, whatever the tolerance or the iteration cap.
        rng = np.random.default_rng(33)
        for _ in range(5):
            game = zd.embed_finite_horizon(random_finite_game(rng, n_states=6, periods=4))
            want = zd.shapley_value_iteration(game, tol=0.0, max_iter=1)
            for tol in (1e-12, 10.0, 1e6):
                got = zd.shapley_value_iteration(game, tol=tol)
                assert got[0].tobytes() == want[0].tobytes()
                for x in range(game.n_states):
                    assert got[1][x].tobytes() == want[1][x].tobytes()
                    assert got[2][x].tobytes() == want[2][x].tobytes()

    def test_embedded_game_is_one_backward_pass(self, two_period, monkeypatch):
        # Each live state's stage game is solved once, and the solution is,
        # bit for bit, that of Shapley sweeps from zero run until one
        # changes no value.
        solved = []
        solve_many = zd.matrix_games.solve_many
        monkeypatch.setattr(
            zd.matrix_games, "solve_many", lambda stage: solved.append(len(stage)) or solve_many(stage)
        )
        rng = np.random.default_rng(36)
        games = [two_period, *(
            zd.embed_finite_horizon(random_finite_game(rng, n_states=n, periods=t))
            for n, t in ((6, 4), (9, 7), (20, 8))
        )]
        for game in games:
            solved.clear()
            J, mu, nu = zd.shapley_value_iteration(game)
            assert sum(solved) == game.n_states - 1
            V = np.zeros(game.n_states)
            while True:
                new, want_mu, want_nu = zd.shapley_backup(game, V)
                if np.array_equal(new, V):
                    break
                V = new
            assert J.tobytes() == V.tobytes()
            for x in range(game.n_states):
                assert mu[x].tobytes() == want_mu[x].tobytes()
                assert nu[x].tobytes() == want_nu[x].tobytes()

    def test_single_action_game_is_linear_solve(self):
        rng = np.random.default_rng(30)
        model = random_discounted_game(rng, n_states=4, max_actions=1, alpha=0.85)
        J, mu, nu = zd.shapley_value_iteration(model, tol=1e-12)
        expected = zd.evaluate_policy_pair(model, mu, nu)
        np.testing.assert_allclose(J, expected, atol=1e-9)

    def test_self_consistency_via_best_responses(self):
        rng = np.random.default_rng(31)
        model = random_discounted_game(rng, n_states=5, max_actions=3, alpha=0.8)
        J, mu_star, nu_star = zd.shapley_value_iteration(model, tol=1e-10)
        up, _ = zd.best_response(model, nu_star, zd.PLAYER_B, tol=1e-12)
        lo, _ = zd.best_response(model, mu_star, zd.PLAYER_A, tol=1e-12)
        np.testing.assert_allclose(up, J, atol=1e-6)
        np.testing.assert_allclose(lo, J, atol=1e-6)

    def test_contraction_of_backup_operator(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            model = random_discounted_game(rng, n_states=4, alpha=0.85)
            J1 = rng.uniform(-10, 10, size=4)
            J2 = rng.uniform(-10, 10, size=4)
            T1, _, _ = zd.shapley_backup(model, J1)
            T2, _, _ = zd.shapley_backup(model, J2)
            lhs = np.abs(T1 - T2).max()
            rhs = 0.85 * np.abs(J1 - J2).max()
            assert lhs <= rhs + 1e-9


    # A float cap would reach range(); True would run one iteration.
    @pytest.mark.parametrize("max_iter", [0, -3, 2.5, True])
    def test_max_iter_must_be_positive(self, waste3, max_iter):
        with pytest.raises(ValueError, match="max_iter"):
            zd.shapley_value_iteration(waste3, tol=1e-8, max_iter=max_iter)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_tol_must_be_finite_and_non_negative(self, waste3, tol):
        with pytest.raises(ValueError, match="tol must be finite"):
            zd.shapley_value_iteration(waste3, tol=tol)
        view = zd.fix_player(waste3, zd.uniform_policy(waste3, zd.PLAYER_B), zd.PLAYER_B)
        with pytest.raises(ValueError, match="tol must be finite"):
            zd.solve_view(view, tol=tol)

    def test_zero_tol_only_for_ssp(self):
        model = random_discounted_game(np.random.default_rng(33))
        with pytest.raises(ValueError, match="tol must be positive"):
            zd.shapley_value_iteration(model, tol=0.0)

    def test_zero_tol_only_for_embedded_games(self, waste3, two_period):
        with pytest.raises(ValueError, match="tol must be positive"):
            zd.shapley_value_iteration(waste3, tol=0.0)
        J, _, _ = zd.shapley_value_iteration(two_period, tol=0.0)
        assert J[two_period.root] == 5.0

    @pytest.mark.parametrize("n_sites, tol", [(5, 1e-15), (11, 1e-13)])
    def test_rounding_noise_stops_with_the_width_reached(self, n_sites, tol):
        # At N=5 the residual flattens at a few ulps of the values; at N=11
        # at the error of the 11x11 stage solutions, far above that. Either
        # way the solve names the certified width instead of running out its
        # iterations.
        model = zd.build_waste_inspection_game(zd.WasteGameConfig(n_sites=n_sites))
        with pytest.raises(zd.NoConvergence, match="certified width") as info:
            zd.shapley_value_iteration(model, tol=tol, max_iter=40)
        assert tol < info.value.last_delta < 1e-8

    def test_climbing_values_stop_naming_max_v(self):
        # Sparse seed 10's values climb toward an unbounded game until the
        # residual 5.0 meets the stage gap 5.8: no rounding noise, so the
        # message names the gap and max |V|.
        rng = np.random.default_rng(10)
        n, a = int(rng.integers(3, 25)), int(rng.integers(2, 5))
        with pytest.raises(zd.NoConvergence, match=r"stage gap 5\.8.* max \|V\| ") as info:
            zd.shapley_value_iteration(random_sparse_ssp_game(rng, n, a), tol=1e-8)
        assert "rounding noise" not in str(info.value)
        assert 8.0e9 < float(re.search(r"max \|V\| (\S+);", str(info.value))[1]) < 8.2e9

    def test_max_iter_caps_iterations(self, waste3):
        with pytest.raises(zd.NoConvergence, match="within 2 iterations"):
            zd.shapley_value_iteration(waste3, tol=1e-10, max_iter=2)

    @pytest.mark.parametrize("n_sites, most", [(5, 7), (10, 8)])
    def test_newton_steps_cut_the_sweeps(self, n_sites, most, monkeypatch):
        # Hoffman-Karp steps alone take 11 sweeps at N=5 and 10 at N=10.
        calls = []
        sweep = solvers._sweep
        monkeypatch.setattr(
            solvers, "_sweep", lambda *args, **kwargs: calls.append(1) or sweep(*args, **kwargs)
        )
        model = zd.build_waste_inspection_game(zd.WasteGameConfig(n_sites=n_sites))
        J, mu, nu = zd.shapley_value_iteration(model, tol=1e-8)
        assert len(calls) <= most
        assert_certified(model, J, mu, nu, 1e-8)

    @pytest.mark.parametrize("n_sites, tol", [(5, 1e-8), (20, 1e-7)])
    def test_completely_mixed_sweeps_skip_the_simplex(self, n_sites, tol, monkeypatch):
        # Every live state has N x N actions, so a sweep makes at most one
        # solve_many call. From the third sweep on every stage game is
        # completely mixed and takes its equalizing solution, so the simplex
        # runs on the first two sweeps and for the certificate: 3 calls,
        # where every sweep's simplex made 6 at N=5 and 7 at N=20.
        calls = []
        solve_many = zd.matrix_games.solve_many
        monkeypatch.setattr(
            zd.matrix_games, "solve_many", lambda stage: calls.append(1) or solve_many(stage)
        )
        model = zd.build_waste_inspection_game(zd.WasteGameConfig(n_sites=n_sites))
        J, mu, nu = zd.shapley_value_iteration(model, tol=tol)
        assert len(calls) <= 3
        assert_certified(model, J, mu, nu, tol)

    @pytest.mark.parametrize("n_sites, tol, sweeps", [(5, 1e-8, 6), (20, 1e-7, 7)])
    def test_one_certificate_per_solve(self, n_sites, tol, sweeps, monkeypatch):
        # The certificate (two solve_view calls) waits while the Newton step
        # still moves V by more than tol, so the first one succeeds; a
        # Hoffman-Karp value equal to the rejected candidate reuses its sweep.
        calls = {"_sweep": 0, "solve_view": 0}

        def counted(name):
            f = getattr(solvers, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(solvers, name, counted(name))
        model = zd.build_waste_inspection_game(zd.WasteGameConfig(n_sites=n_sites))
        J, mu, nu = zd.shapley_value_iteration(model, tol=tol)
        assert calls == {"_sweep": sweeps, "solve_view": 2}
        monkeypatch.undo()
        assert_certified(model, J, mu, nu, tol)

    def test_no_certificate_waits_without_progress(self, monkeypatch):
        # Shifted by 1, every Newton candidate fails the halving test, so a
        # deferred certificate must run at once: the solve then takes the
        # 11 iterations of Hoffman-Karp steps alone, where a certificate
        # that waited for the rounding-noise floor would take 14.
        pair_values = solvers._pair_values
        monkeypatch.setattr(
            solvers, "_pair_values", lambda model, parts: pair_values(model, parts) + 1.0
        )
        model = zd.build_waste_inspection_game(zd.WasteGameConfig(n_sites=3))
        J, mu, nu = zd.shapley_value_iteration(model, tol=1e-8, max_iter=11)
        assert_certified(model, J, mu, nu, 1e-8)
        for seed, error in [(4, zd.UnboundedValue), (10, zd.NoConvergence),
                            (37, zd.NoConvergence)]:
            rng = np.random.default_rng(seed)
            n, a = int(rng.integers(3, 25)), int(rng.integers(2, 5))
            with pytest.raises(error):
                zd.shapley_value_iteration(random_sparse_ssp_game(rng, n, a), tol=1e-8)

    def test_rejected_candidate_falls_back_to_hoffman_karp(self, monkeypatch):
        # At V = 0 the stage pair's exact value sweeps to a residual of 2,
        # twice the residual 1 of V itself: the step is a Hoffman-Karp one.
        model = zd.build_waste_inspection_game(zd.WasteGameConfig(n_sites=5))
        groups = solvers._stage_groups(model)
        V = np.zeros(model.n_states)
        TV, strategies, _ = solvers._sweep(model, groups, V)
        J = solvers._pair_values(model, strategies)
        TJ, _, _ = solvers._sweep(model, groups, J)
        assert np.abs(TJ - J).max() >= np.abs(TV - V).max() / 2
        # Count the Howard solves made outside solve_view's best responses.
        steps, inside = [0], [False]
        howard, solve_view = solvers._howard, solvers.solve_view

        def counting_howard(view):
            steps[0] += not inside[0]
            return howard(view)

        def flagged_solve_view(*args, **kwargs):
            inside[0] = True
            try:
                return solve_view(*args, **kwargs)
            finally:
                inside[0] = False

        monkeypatch.setattr(solvers, "_howard", counting_howard)
        monkeypatch.setattr(solvers, "solve_view", flagged_solve_view)
        J, mu, nu = zd.shapley_value_iteration(model, tol=1e-8)
        assert steps[0] >= 1
        assert_certified(model, J, mu, nu, 1e-8)

    def test_sparse_game_certifies(self):
        # Hoffman-Karp steps alone stall here at residual 7.6e-10 and run
        # 3,000 iterations without reaching tol.
        rng = np.random.default_rng(8)
        n, a = int(rng.integers(3, 25)), int(rng.integers(2, 5))
        assert (n, a) == (18, 2)
        model = random_sparse_ssp_game(rng, n, a)
        J, mu, nu = zd.shapley_value_iteration(model, tol=1e-9, max_iter=50)
        assert_certified(model, J, mu, nu, 1e-9)

    def test_certified_on_random_games(self):
        # Discount factors up to 0.99 leave the residual far below the
        # interval width, so a stop on the residual alone fails here.
        rng = np.random.default_rng(36)
        for k in range(300):
            if k % 2:
                model = random_ssp_game(rng, n_states=int(rng.integers(2, 7)), max_actions=3)
            else:
                alpha = float(rng.choice([0.5, 0.9, 0.97, 0.99]))
                model = random_discounted_game(
                    rng, n_states=int(rng.integers(1, 6)), max_actions=3, alpha=alpha
                )
            J, mu, nu = zd.shapley_value_iteration(model, tol=1e-10)
            assert_certified(model, J, mu, nu, 1e-10)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_certified(model, J, mu, nu, tol):
    """``J`` is B's exact best response to ``mu``, and A's response to ``nu``
    lies at most ``tol`` above it: the game value is within ``tol`` of J."""
    lo, _ = zd.solve_view(zd.fix_player(model, mu, zd.PLAYER_A), tol=0.0)
    up, _ = zd.solve_view(zd.fix_player(model, nu, zd.PLAYER_B), tol=0.0)
    assert_same_bits(J, lo)
    assert np.all(up - J <= tol)


class TestShapleyMatchesScalarReference:
    """Batched sweeps equal a sweep that solves one stage game at a time with
    the scalar simplex, bit for bit in values and both strategies. A
    time-embedded game's solution is the scalar sweeps' own; an
    infinite-horizon one is certified by exact best responses and agrees
    with the scalar sweeps run to a tight tolerance."""

    def assert_solution_matches(self, model, tol):
        J, mu, nu = zd.shapley_value_iteration(model, tol=tol)
        want, want_mu, want_nu = shapley_iteration(model, tol)
        assert_same_bits(J, want)
        for i in range(model.n_states):
            assert_same_bits(mu[i], want_mu[i])
            assert_same_bits(nu[i], want_nu[i])

    def assert_certified_near_reference(self, model, tol):
        J, mu, nu = zd.shapley_value_iteration(model, tol=tol)
        assert_certified(model, J, mu, nu, tol)
        want, want_mu, want_nu = shapley_iteration(model, 1e-13)
        # The value lies in the best-response interval of the reference's own
        # strategies, so the reference is off by at most its distance to the
        # far end of that interval.
        lo, _ = zd.best_response(model, zd.make_policy(want_mu), zd.PLAYER_A, tol=0.0)
        up, _ = zd.best_response(model, zd.make_policy(want_nu), zd.PLAYER_B, tol=0.0)
        err = np.maximum(np.abs(want - lo), np.abs(up - want))
        assert np.all(np.abs(J - want) <= tol + err)

    def test_random_ssp_games_with_mixed_shapes(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            model = random_ssp_game(rng, n_states=8, max_actions=3)
            shapes = set(zip(model.actions_a.tolist(), model.actions_b.tolist()))
            assert len(shapes) > 2
            for J in (np.zeros(8), rng.uniform(-5, 5, size=8)):
                new, mu, nu = zd.shapley_backup(model, J)
                want, want_mu, want_nu = shapley_sweep(model, J)
                assert_same_bits(new, want)
                for i in range(8):
                    assert_same_bits(mu[i], want_mu[i])
                    assert_same_bits(nu[i], want_nu[i])
            self.assert_certified_near_reference(model, 1e-10)

    def test_random_discounted_games(self):
        rng = np.random.default_rng(35)
        for _ in range(5):
            self.assert_certified_near_reference(
                random_discounted_game(rng, n_states=5, max_actions=4), 1e-10
            )

    def test_two_period_game(self, two_period):
        self.assert_solution_matches(two_period, 1e-12)

    def test_waste_game(self, waste3):
        self.assert_certified_near_reference(waste3, 1e-8)


class TestBestResponse:
    def test_value_against_imbalanced_minimizer(self, two_period):
        nu_hat = zd.suboptimal_minimizer_policy(two_period)
        values, responder = zd.best_response(two_period, nu_hat, zd.PLAYER_B)
        assert values[0] == pytest.approx(5.6, abs=1e-9)
        np.testing.assert_allclose(responder[0], [0.0, 1.0])  # second action

    def test_lookahead_matrix_at_root(self, two_period):
        nu_hat = zd.suboptimal_minimizer_policy(two_period)
        values, _ = zd.best_response(two_period, nu_hat, zd.PLAYER_B)
        continuation = np.array([0.0, values[1], values[2], 0.0])
        Q = two_period.cost[0] + two_period.transition[0] @ continuation
        np.testing.assert_allclose(Q, [[6.0, 2.0], [4.0, 8.0]], atol=1e-12)

    def test_response_to_equilibrium_gives_value(self, two_period):
        _, nu_star = optimal_pair(two_period)
        values, _ = zd.best_response(two_period, nu_star, zd.PLAYER_B)
        assert values[0] == pytest.approx(5.0, abs=1e-9)

    def test_pure_inspector_is_improper(self, waste3):
        pure = zd.pure_policy(waste3, zd.PLAYER_B, [0] * waste3.n_states)
        with pytest.raises(zd.UnboundedValue):
            zd.best_response(waste3, pure, zd.PLAYER_B)

    def test_embedded_views_match_backward_induction(self, two_period):
        rng = np.random.default_rng(31)
        games = [two_period] + [
            zd.embed_finite_horizon(random_finite_game(rng, n_states=8, periods=5))
            for _ in range(4)
        ]
        for game in games:
            for player in (zd.PLAYER_A, zd.PLAYER_B):
                view = zd.fix_player(game, random_policy(rng, game, player), player)
                values, actions = zd.solve_view(view)
                want_values, want_actions = finite_backward_induction(view)
                assert values.tobytes() == want_values.tobytes()
                np.testing.assert_array_equal(actions, want_actions)

    def test_embedded_view_is_not_value_capped(self, two_period):
        # Time-embedded views have finite values by construction, however
        # large the costs.
        big = zd.make_game(
            two_period.regime,
            two_period.transition,
            [1e9 * g for g in two_period.cost],
            root=two_period.root,
            horizon=two_period.horizon,
            period=two_period.period,
            base_state=two_period.base_state,
        )
        nu_hat = zd.suboptimal_minimizer_policy(big)
        values, _ = zd.best_response(big, nu_hat, zd.PLAYER_B)
        assert values[0] == pytest.approx(5.6e9, rel=1e-12)
        want, _ = finite_backward_induction(zd.fix_player(big, nu_hat, zd.PLAYER_B))
        assert values.tobytes() == want.tobytes()

    def test_ssp_responses_bracket_pair_value(self, waste3):
        mu = zd.uniform_policy(waste3, zd.PLAYER_A)
        nu = zd.uniform_policy(waste3, zd.PLAYER_B)
        J = zd.evaluate_policy_pair(waste3, mu, nu)
        lo, _ = zd.best_response(waste3, mu, zd.PLAYER_A)
        hi, _ = zd.best_response(waste3, nu, zd.PLAYER_B)
        assert np.all(lo <= J + 1e-8)
        assert np.all(J <= hi + 1e-8)


def scaled_costs(model, scale):
    return zd.make_game(
        model.regime, model.transition, [scale * g for g in model.cost], root=model.root
    )


def assert_fixed_point(view, values):
    """The ``tol == 0`` contract: one more sweep leaves every bit in place."""
    opt = np.max if view.orientation == "max" else np.min
    assert opt(lookahead(view, values), axis=1).tobytes() == values.tobytes()


def single_choice_game(costs):
    """SSP game on states 0, 1 and absorbing 2 where A has one action and B
    picks a next state: ``costs[i][j]`` is B's cost of moving from i to j
    (None: no such action)."""
    transition, cost = [], []
    for row in costs:
        moves = [j for j, c in enumerate(row) if c is not None]
        p = np.zeros((1, len(moves), 3))
        g = np.zeros((1, len(moves), 3))
        for v, j in enumerate(moves):
            p[0, v, j] = 1.0
            g[0, v, j] = row[j]
        transition.append(p)
        cost.append(g)
    p_abs = np.zeros((1, 1, 3)); p_abs[0, 0, 2] = 1.0
    transition.append(p_abs)
    cost.append(np.zeros((1, 1, 3)))
    return zd.make_game(zd.Ssp(absorbing=2), transition, cost, root=0)


class TestSolveViewMatchesValueIteration:
    """Howard policy iteration plus the polish agree with plain value
    iteration from zero and end on an exact fixed point of ``lookahead``."""

    def assert_matches(self, view, tol):
        values, actions = zd.solve_view(view, tol=0.0)
        want, want_actions = value_iteration(view, tol)
        assert np.abs(values - want).max() <= 1e-9 * max(1.0, np.abs(want).max())
        np.testing.assert_array_equal(actions, want_actions)
        assert_fixed_point(view, values)

    def test_random_views_both_orientations(self):
        # Plain sweeps end in a float cycle on 8 of these 320 views, which
        # need the restart from the cycle's minimum.
        rng = np.random.default_rng(40)
        for _ in range(80):
            ssp = random_ssp_game(rng, n_states=int(rng.integers(3, 9)), max_actions=3)
            disc = random_discounted_game(
                rng, n_states=int(rng.integers(2, 8)), max_actions=3
            )
            for model in (ssp, disc):
                for player in (zd.PLAYER_A, zd.PLAYER_B):
                    view = zd.fix_player(model, random_policy(rng, model, player), player)
                    self.assert_matches(view, 1e-13)

    @pytest.mark.parametrize("n_sites", [3, 5, 10])
    def test_waste_views_under_uniform_policies(self, n_sites):
        # Some actions tie exactly in real arithmetic; value iteration run to
        # its own fixed point breaks those ties the same way.
        model = zd.build_waste_inspection_game(zd.WasteGameConfig(n_sites=n_sites))
        for player in (zd.PLAYER_A, zd.PLAYER_B):
            view = zd.fix_player(model, zd.uniform_policy(model, player), player)
            self.assert_matches(view, 0.0)

    @pytest.mark.parametrize("scale", [1e7, 1e9, 1e12])
    def test_large_costs_scale_the_values(self, waste3, scale):
        # Plain sweeps from Howard's values cycle at scale 1e7 on B's side.
        big = scaled_costs(waste3, scale)
        for player in (zd.PLAYER_A, zd.PLAYER_B):
            view = zd.fix_player(big, zd.uniform_policy(big, player), player)
            values, _ = zd.solve_view(view, tol=0.0)
            base, _ = zd.solve_view(
                zd.fix_player(waste3, zd.uniform_policy(waste3, player), player),
                tol=0.0,
            )
            root = waste3.root
            assert values[root] == pytest.approx(scale * base[root], rel=1e-12)
            assert_fixed_point(view, values)

    def test_min_side_negative_cost_cycle_is_unbounded(self):
        # Absorbing from 0 costs 1, but looping 0 -> 1 -> 0 pays -1 a step.
        model = single_choice_game([[None, -1.0, 1.0], [-1.0, None, None]])
        view = zd.fix_player(model, zd.uniform_policy(model, zd.PLAYER_A), zd.PLAYER_A)
        with pytest.raises(zd.UnboundedValue, match="-inf"):
            zd.solve_view(view, tol=0.0)

    def test_state_that_cannot_absorb_is_unbounded(self):
        model = single_choice_game([[None, None, 1.0], [None, 1.0, None]])
        for player in (zd.PLAYER_A, zd.PLAYER_B):
            view = zd.fix_player(model, zd.uniform_policy(model, player), player)
            with pytest.raises(zd.UnboundedValue, match="state 1 cannot reach"):
                zd.solve_view(view)


def test_waste_30_best_response_memory():
    # Waste N=30 has 931 states and 30 slots: one dense (n, amax, n) kernel
    # takes 931 * 30 * 931 * 8 bytes, 198 MiB. Its successor lists take
    # 10 MiB, and fixing a player plus an exact best response stays small.
    model = zd.build_waste_inspection_game(zd.WasteGameConfig(n_sites=30))
    policy = zd.uniform_policy(model, zd.PLAYER_B)
    tracemalloc.start()
    try:
        view = zd.fix_player(model, policy, zd.PLAYER_B)
        values, _ = zd.solve_view(view)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (view.succ.nbytes + view.prob.nbytes) < 11 * 2**20
    assert peak < 30 * 2**20
    assert np.isfinite(values).all()


class TestNewtonPolish:
    """Residual-correction steps between Howard and the polish sweeps reach
    an exact float fixed point of ``lookahead``, within 1e-12 relative of
    the one that sweeps alone reach, in few sweeps."""

    def assert_matches_sweeps(self, view):
        values, _ = zd.solve_view(view, tol=0.0)
        assert_fixed_point(view, values)
        want = sweep_polished_view(view)
        scale = np.abs(want).max()
        assert np.abs(values - want).max() <= 1e-12 * scale

    def test_random_views(self):
        rng = np.random.default_rng(15)
        for _ in range(60):
            ssp = random_ssp_game(rng, n_states=int(rng.integers(3, 12)), max_actions=3)
            disc = random_discounted_game(
                rng, n_states=int(rng.integers(2, 10)), max_actions=3, alpha=0.97
            )
            for model in (ssp, disc):
                for player in (zd.PLAYER_A, zd.PLAYER_B):
                    view = zd.fix_player(model, random_policy(rng, model, player), player)
                    self.assert_matches_sweeps(view)

    @pytest.mark.parametrize("n_sites", [3, 5, 10])
    def test_waste_views_of_uniform_and_equilibrium_opponents(self, n_sites):
        model = zd.build_waste_inspection_game(zd.WasteGameConfig(n_sites=n_sites))
        _, mu, nu = zd.shapley_value_iteration(model, tol=1e-8)
        uniform = {p: zd.uniform_policy(model, p) for p in (zd.PLAYER_A, zd.PLAYER_B)}
        for player, equilibrium in ((zd.PLAYER_A, mu), (zd.PLAYER_B, nu)):
            for policy in (uniform[player], equilibrium):
                self.assert_matches_sweeps(zd.fix_player(model, policy, player))

    def test_greedy_tie_with_a_free_loop_stops_the_steps(self):
        # At state 0 B's free self-loop ties exactly with absorbing at cost
        # 1. Elsewhere Howard's values leave a residual of a few ulps, so a
        # step is due, but the lowest-index greedy policy loops at 0 for ever
        # and its system is singular: the steps end there.
        rng = np.random.default_rng(0)
        n = 6
        p0 = np.zeros((1, 2, n)); p0[0, 0, 0] = p0[0, 1, n - 1] = 1.0
        g0 = np.zeros((1, 2, n)); g0[0, 1, n - 1] = 1.0
        transition, cost = [p0], [g0]
        for _ in range(1, n - 1):
            p = rng.dirichlet(np.ones(n), size=(1, 1))
            p[0, 0, 0] = 0.0
            p[0, 0, n - 1] += 0.2
            transition.append(p / p.sum())
            cost.append(np.full((1, 1, n), rng.uniform(0.1, 3.0)))
        p_abs = np.zeros((1, 1, n)); p_abs[0, 0, n - 1] = 1.0
        transition.append(p_abs)
        cost.append(np.zeros((1, 1, n)))
        model = zd.make_game(zd.Ssp(absorbing=n - 1), transition, cost, root=0)
        view = zd.fix_player(model, zd.uniform_policy(model, zd.PLAYER_A), zd.PLAYER_A)
        start, _ = solvers._howard(view)
        assert np.abs(lookahead(view, start).min(axis=1) - start).max() > 0.0
        values, _ = zd.solve_view(view, tol=0.0)
        assert values[0] == 1.0
        assert_fixed_point(view, values)

    def test_certification_polish_is_short(self, monkeypatch):
        # Waste N=5 at tol 1e-8 is the benchmark's equilibrium solve. Plain
        # sweeps from Howard's values took 429 to polish one of its views.
        calls, polishes = [0], []
        lookahead_, polish_ = solvers.lookahead, solvers._polish

        def counting_lookahead(view, values):
            calls[0] += 1
            return lookahead_(view, values)

        def counting_polish(*args):
            before = calls[0]
            out = polish_(*args)
            polishes.append(calls[0] - before)
            return out

        monkeypatch.setattr(solvers, "lookahead", counting_lookahead)
        monkeypatch.setattr(solvers, "_polish", counting_polish)
        model = zd.build_waste_inspection_game(zd.WasteGameConfig(n_sites=5))
        zd.shapley_value_iteration(model, tol=1e-8)
        assert polishes and max(polishes) <= 20
        assert calls[0] <= 100

    def test_exact_generators_keep_zero_variance(self):
        model = zd.build_waste_inspection_game(zd.WasteGameConfig(n_sites=5))
        _, mu, nu = zd.shapley_value_iteration(model, tol=1e-8)
        q = zd.make_uniform_reference(model)
        for player, policy in ((zd.PLAYER_A, mu), (zd.PLAYER_B, nu)):
            view = zd.fix_player(model, policy, player)
            h, _ = zd.solve_view(view, tol=0.0)
            est = zd.estimate_dual_bound_ssp(view, h, q, 200, seed=3)
            assert est.standard_error == 0.0
            assert est.mean == h[model.root]


class TestNaivePolicyIteration:
    def test_round_zero_records_initial_pair(self, waste3):
        mu = zd.uniform_policy(waste3, zd.PLAYER_A)
        nu = zd.uniform_policy(waste3, zd.PLAYER_B)
        trace = zd.naive_policy_iteration(waste3, mu, nu, rounds=0)
        assert len(trace.rounds) == 1
        expected = zd.evaluate_policy_pair(waste3, mu, nu)
        np.testing.assert_allclose(trace.rounds[0].values, expected, atol=0)

    @pytest.mark.parametrize("rounds", [-3, 1.5, True])
    def test_rounds_must_be_a_non_negative_integer(self, waste3, rounds):
        # -3 would record round 0 alone, as if 0 rounds were asked for.
        mu = zd.uniform_policy(waste3, zd.PLAYER_A)
        nu = zd.uniform_policy(waste3, zd.PLAYER_B)
        with pytest.raises(ValueError, match="rounds must be an integer >= 0"):
            zd.naive_policy_iteration(waste3, mu, nu, rounds=rounds)

    @pytest.mark.parametrize("tol, error", [
        (np.inf, ValueError), (np.nan, ValueError), (-1e-9, ValueError), ("1e-9", TypeError),
    ])
    def test_tol_is_checked_before_any_round(self, waste3, tol, error, monkeypatch):
        # tol=inf once reported convergence after any round, and a string
        # failed only after the last one.
        evaluations = []
        monkeypatch.setattr(solvers, "_pair_values", lambda *a: evaluations.append(a))
        mu = zd.uniform_policy(waste3, zd.PLAYER_A)
        nu = zd.uniform_policy(waste3, zd.PLAYER_B)
        with pytest.raises(error):
            zd.naive_policy_iteration(waste3, mu, nu, rounds=2, tol=tol)
        assert evaluations == []

    def test_reaches_equilibrium_on_two_period_game(self, two_period):
        mu = zd.uniform_policy(two_period, zd.PLAYER_A)
        nu = zd.uniform_policy(two_period, zd.PLAYER_B)
        trace = zd.naive_policy_iteration(two_period, mu, nu, rounds=3)
        J_star, _, _ = zd.shapley_value_iteration(two_period, tol=1e-12)
        np.testing.assert_allclose(trace.rounds[-1].values, J_star, atol=1e-9)
        assert trace.converged

    def test_interval_tightens_on_waste_game(self, waste3):
        mu = zd.uniform_policy(waste3, zd.PLAYER_A)
        nu = zd.uniform_policy(waste3, zd.PLAYER_B)
        trace = zd.naive_policy_iteration(waste3, mu, nu, rounds=2)
        root = waste3.root
        sw0 = zd.sandwich(waste3, trace.rounds[0].mu, trace.rounds[0].nu)
        sw2 = zd.sandwich(waste3, trace.rounds[2].mu, trace.rounds[2].nu)
        gap0 = sw0.upper[root] - sw0.lower[root]
        gap2 = sw2.upper[root] - sw2.lower[root]
        assert gap2 < gap0

    def test_trace_diagnostics(self, waste3):
        mu = zd.uniform_policy(waste3, zd.PLAYER_A)
        nu = zd.uniform_policy(waste3, zd.PLAYER_B)
        trace = zd.naive_policy_iteration(waste3, mu, nu, rounds=3)
        assert len(trace.deltas) == 3
        assert trace.failure is None
        assert trace.monotone_deltas


class TestSandwich:
    def test_imbalanced_minimizer_interval(self, two_period):
        mu_star, _ = optimal_pair(two_period)
        nu_hat = zd.suboptimal_minimizer_policy(two_period)
        sw = zd.sandwich(two_period, mu_star, nu_hat)
        assert sw.lower[0] == pytest.approx(5.0, abs=1e-9)
        assert sw.upper[0] == pytest.approx(5.6, abs=1e-9)
        assert np.all(sw.lower <= sw.pair_value + 1e-7)
        assert np.all(sw.pair_value <= sw.upper + 1e-7)

    def test_collapses_at_equilibrium(self, two_period):
        mu_star, nu_star = optimal_pair(two_period)
        sw = zd.sandwich(two_period, mu_star, nu_star)
        assert sw.upper[0] - sw.lower[0] == pytest.approx(0.0, abs=1e-8)
        assert sw.lower[0] == pytest.approx(5.0, abs=1e-9)

    def test_brackets_iterated_value_on_waste_game(self, waste3):
        mu = zd.uniform_policy(waste3, zd.PLAYER_A)
        nu = zd.uniform_policy(waste3, zd.PLAYER_B)
        sw = zd.sandwich(waste3, mu, nu)
        assert np.all(sw.lower <= sw.upper + 1e-7)
        trace = zd.naive_policy_iteration(waste3, mu, nu, rounds=3)
        root = waste3.root
        assert sw.lower[root] <= trace.rounds[-1].values[root] <= sw.upper[root]

    def test_brackets_equilibrium_on_random_games(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            model = random_discounted_game(rng, n_states=4, alpha=0.8)
            J_star, _, _ = zd.shapley_value_iteration(model, tol=1e-10)
            mu = random_policy(rng, model, zd.PLAYER_A)
            nu = random_policy(rng, model, zd.PLAYER_B)
            sw = zd.sandwich(model, mu, nu)
            assert np.all(sw.lower <= J_star + 1e-6)
            assert np.all(J_star <= sw.upper + 1e-6)
            assert np.all(sw.lower <= sw.upper + 1e-6)
