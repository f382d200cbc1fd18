import numpy as np
import pytest

import zsgdual as zd
from zsgdual import duality, streams

# Seeds across the 64-bit key word, and seeds of NumPy's integer types.
SEEDS = [0, 1, 7, 2**32 - 1, 2**40, 2**63, np.int64(7), np.uint64(7), 2**64 - 1]


@pytest.mark.parametrize("seed", SEEDS)
def test_keys_are_seed_and_index(seed):
    for i in (0, 1, 3, duality._PATH_BLOCK, 2**32, 2**64 - 1):
        rng = zd.scenario_rng(seed, i)
        assert rng.bit_generator.state["state"]["key"].tolist() == [int(seed), i]
        key = np.array([seed, i], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key)).random(9)
        assert rng.random(9).tobytes() == want.tobytes()
        if max(seed, i) < 2**63:
            # NumPy takes a list key through float64 from 2**63 up.
            listed = np.random.Generator(np.random.Philox(key=[seed, i])).random(9)
            assert listed.tobytes() == want.tobytes()


class TestBlockDraw:
    """``streams.uniforms`` reproduces ``scenario_rng(seed, i).random(k)``
    byte for byte, a block of streams at a time."""

    # The first and last index of a full path block.
    INDICES = np.array([*range(40), duality._PATH_BLOCK - 1])

    @staticmethod
    def want(seed, indices, start, count):
        draws = [zd.scenario_rng(seed, int(i)).random(start + count)[start:] for i in indices]
        return np.stack(draws).view(np.uint64)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_uniforms_match_scenario_rng(self, seed):
        # Up to and across Philox's four-word buffer, and refills of any size
        # from any offset, as _draw_paths makes them (duality._refill).
        for start, count in [(0, 1), (0, 3), (0, 4), (0, 5), (0, 70), (64, 64), (128, 64),
                             (32, 37), (13, 256), (257, 3)]:
            got = streams.uniforms(seed, self.INDICES, start, count)
            assert got.dtype == np.float64 and got.shape == (len(self.INDICES), count)
            assert got.view(np.uint64).tobytes() == self.want(
                seed, self.INDICES, start, count
            ).tobytes()

    def test_full_path_block(self):
        indices = np.arange(duality._PATH_BLOCK)
        count = duality._refill(len(indices), duality.DEFAULT_PATH_CAP)
        for seed in (11, 2**64 - 1):
            got = streams.uniforms(seed, indices, 0, count)
            assert got.view(np.uint64).tobytes() == self.want(seed, indices, 0, count).tobytes()

    @pytest.mark.parametrize("rows, start, count", [
        # Six counters per row: several row chunks, the last one partial.
        (5000, 13, 20),
        # One row past a full path block, at that block's refill size.
        (duality._PATH_BLOCK + 1, 0, duality._refill(duality._PATH_BLOCK + 1, 10**6)),
    ])
    def test_rows_across_chunk_boundaries(self, rows, start, count):
        blocks = -(-(start + count) // 4) - start // 4
        assert rows % (streams._PHILOX_CHUNK // blocks) and rows > streams._PHILOX_CHUNK // blocks
        indices = np.arange(rows)
        got = streams.uniforms(11, indices, start, count)
        assert got.view(np.uint64).tobytes() == self.want(11, indices, start, count).tobytes()

    @pytest.mark.parametrize("start", range(8))
    def test_empty_draws(self, start):
        indices = np.arange(5)
        assert streams.uniforms(3, indices, start, 0).shape == (5, 0)
        assert streams.uniforms(3, indices[:0], start, 7).shape == (0, 7)
        assert streams.uniforms(3, indices[:0], start, 0).shape == (0, 0)

    # A list of words was a seed to SeedSequence; it is not a key word.
    @pytest.mark.parametrize("seed, error", [
        (-1, ValueError), (2**64, ValueError), (1.5, ValueError), (True, ValueError),
        ([7, 3], ValueError),
    ])
    def test_bad_seed_raises_as_scenario_rng(self, monkeypatch, seed, error, two_period, waste3):
        def no_draw(*args):
            raise AssertionError("a scenario was drawn")

        monkeypatch.setattr(duality, "uniforms", no_draw)
        finite = zd.fix_player(two_period, zd.uniform_policy(two_period, zd.PLAYER_B), zd.PLAYER_B)
        ssp = zd.fix_player(waste3, zd.uniform_policy(waste3, zd.PLAYER_B), zd.PLAYER_B)
        q = zd.make_uniform_reference(waste3)
        calls = [
            lambda: zd.scenario_rng(seed, 0),
            lambda: zd.estimate_dual_bound_finite(finite, np.zeros(finite.n_states), 5, seed),
            lambda: zd.estimate_dual_bound_ssp(ssp, np.zeros(ssp.n_states), q, 5, seed),
            lambda: duality.simulate_q_path(q, waste3.root, seed),
        ]
        for call in calls:
            with pytest.raises(error, match=rf"^seed must be an integer in \[0, {2**64}\)"):
                call()
