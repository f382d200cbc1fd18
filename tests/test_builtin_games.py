import numpy as np
import pytest

import zsgdual as zd

from oracles import waste_game_by_site


class TestTwoPeriodGame:
    def test_structure_and_validation(self, two_period):
        assert two_period.n_states == 4
        assert two_period.root == 0
        assert zd.validate(two_period) == []

    def test_root_stage_payoffs(self, two_period):
        # A plays its second action, B its first.
        assert two_period.cost[0][1, 0] == pytest.approx(6.0)
        np.testing.assert_allclose(
            two_period.transition[0][1, 0], [0.0, 0.4, 0.6, 0.0], atol=1e-12
        )

    def test_equilibrium(self, two_period):
        J, mu, nu = zd.shapley_value_iteration(two_period, tol=1e-12)
        np.testing.assert_allclose(J, [5.0, 10.0, -10.0, 0.0], atol=1e-9)

    def test_benchmark_policy_and_generator(self, two_period):
        nu_hat = zd.suboptimal_minimizer_policy(two_period)
        np.testing.assert_allclose(nu_hat[0], [0.6, 0.4])
        np.testing.assert_allclose(nu_hat[1], [1.0, 0.0])
        np.testing.assert_allclose(nu_hat[2], [0.0, 1.0])
        values, _ = zd.best_response(two_period, nu_hat, zd.PLAYER_B)
        assert values[0] == pytest.approx(5.6, abs=1e-9)

        h = zd.first_action_value_generator(two_period)
        assert h[1] == 8.0 and h[2] == -8.0
        assert h[0] == 0.0 and h[3] == 0.0

    def test_benchmark_objects_reject_other_games(self, waste3):
        with pytest.raises(ValueError):
            zd.suboptimal_minimizer_policy(waste3)
        with pytest.raises(ValueError):
            zd.first_action_value_generator(waste3)


class TestDetectionProbability:
    # From state 0 (both players were at site 1, dumper not caught), the
    # detection probability of tonight's choices (s, s) is the mass that
    # transition[0][s, s] puts on the caught state N*N + s.

    def test_miss_when_sites_differ(self):
        model = zd.build_waste_inspection_game(zd.WasteGameConfig(n_sites=10))
        assert not model.transition[0][3, 4, 100:].any()

    def test_peak_when_nobody_moves(self):
        model = zd.build_waste_inspection_game(zd.WasteGameConfig(n_sites=10))
        assert model.transition[0][0, 0, 100] == pytest.approx(0.95)

    def test_floor_at_maximum_travel(self):
        model = zd.build_waste_inspection_game(zd.WasteGameConfig(n_sites=10))
        assert model.transition[0][9, 9, 109] == pytest.approx(0.5, abs=1e-12)

    def test_monotone_and_bounded(self):
        cfg = zd.WasteGameConfig(n_sites=6)
        model = zd.build_waste_inspection_game(cfg)
        probs = [model.transition[0][s, s, 36 + s] for s in range(6)]
        assert all(a >= b for a, b in zip(probs, probs[1:]))
        assert all(cfg.p_low <= p <= cfg.p_high for p in probs)

    def test_config_invariants(self):
        with pytest.raises(ValueError):
            zd.WasteGameConfig(n_sites=1)
        with pytest.raises(ValueError):
            zd.WasteGameConfig(n_sites=3, p_low=0.9, p_high=0.5)
        with pytest.raises(ValueError):
            zd.WasteGameConfig(n_sites=3, k1=0.0)
        for k in (np.inf, np.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                zd.WasteGameConfig(n_sites=3, k1=k)
            with pytest.raises(ValueError, match="positive and finite"):
                zd.WasteGameConfig(n_sites=3, k2=k)
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="positions must be finite"):
                zd.WasteGameConfig(n_sites=3, positions=[1.0, bad, 3.0])
        with pytest.raises(ValueError, match="positions must not all coincide"):
            zd.WasteGameConfig(n_sites=3, positions=[2.0, 2.0, 2.0])


class TestWasteGameModel:
    @pytest.mark.parametrize("n_sites", [2, 3, 5, 10])
    def test_state_count_and_validation(self, n_sites):
        model = zd.build_waste_inspection_game(zd.WasteGameConfig(n_sites=n_sites))
        assert model.n_states == n_sites * n_sites + n_sites + 1
        assert zd.validate(model) == []

    def test_double_detection_absorbs(self, waste3):
        # From (site 1, site 1, caught), both picking site 1 again absorbs
        # with the no-travel detection probability.
        caught_idx = 9  # first caught state: (site 1, site 1)
        assert waste3.label(caught_idx) == "d1:i1:caught"
        row = waste3.transition[caught_idx][0, 0]
        assert row[waste3.absorbing] == pytest.approx(0.95)
        assert row[0] == pytest.approx(0.05)  # miss clears the flag

    def test_mismatch_never_raises_flag(self, waste3):
        for x in range(waste3.n_states - 1):
            row = waste3.transition[x][0, 1]  # dump site 1, inspect site 2
            target = 0 * 3 + 1  # (site 1, site 2, clear)
            assert row[target] == pytest.approx(1.0)

    def test_cost_one_per_night(self, waste3):
        for x in range(waste3.n_states - 1):
            assert np.all(waste3.cost[x] == 1.0)
        assert np.all(waste3.cost[waste3.absorbing] == 0.0)

    def test_root_is_first_sites_clear(self, waste3):
        assert waste3.label(waste3.root) == "d1:i1:clear"

    @pytest.mark.parametrize("n_sites", [2, 3, 5])
    def test_tensors_match_site_by_site_build(self, n_sites):
        positions = np.array([0.0, 2.5, 3.0, 7.0, 7.5])[:n_sites]
        for cfg in (
            zd.WasteGameConfig(n_sites=n_sites),
            zd.WasteGameConfig(
                n_sites=n_sites, positions=positions, p_low=0.2, p_high=0.7, k1=0.5, k2=3.0
            ),
        ):
            got, want = zd.build_waste_inspection_game(cfg), waste_game_by_site(cfg)
            assert got.labels == want.labels and got.root == want.root
            assert got.regime == want.regime
            for x in range(got.n_states):
                assert got.transition[x].tobytes() == want.transition[x].tobytes()
                assert got.cost[x].tobytes() == want.cost[x].tobytes()


class TestUniformPolicy:
    def test_waste_game_weights(self, waste3):
        mu = zd.uniform_policy(waste3, zd.PLAYER_A)
        np.testing.assert_allclose(mu[0], np.full(3, 1 / 3))
        np.testing.assert_allclose(mu[waste3.absorbing], [1.0])

    def test_two_period_weights(self, two_period):
        nu = zd.uniform_policy(two_period, zd.PLAYER_B)
        np.testing.assert_allclose(nu[0], [0.5, 0.5])

    def test_composes_with_evaluation(self, waste3):
        mu = zd.uniform_policy(waste3, zd.PLAYER_A)
        nu = zd.uniform_policy(waste3, zd.PLAYER_B)
        J = zd.evaluate_policy_pair(waste3, mu, nu)
        assert np.isfinite(J).all()
        assert J[waste3.absorbing] == 0.0
        assert np.all(J[: waste3.absorbing] > 1.0)
