import numpy as np
import pytest

import zsgdual as zd
from zsgdual import duality, streams


class TestBlockDraw:
    """``streams.stream_keys`` and ``streams.uniforms`` reproduce
    ``scenario_rng(seed, i).random(k)`` byte for byte, a block of streams at
    a time."""

    # 2**40 takes two seed words, 2**100 four: five entropy words in all. A
    # list of words is a seed that SeedSequence takes and the vectorized
    # mixing does not: every row takes the fallback.
    SEEDS = [0, 1, 7, 2**32 - 1, 2**40, 2**100, np.int64(7), [7, 3]]
    # The first and last index of a full path block, and 2**32, which needs
    # a second index word and takes the SeedSequence fallback.
    INDICES = [*range(40), duality._PATH_BLOCK - 1, 2**32 - 1, 2**32]

    @staticmethod
    def want(seed, indices, start, count):
        draws = [zd.scenario_rng(seed, i).random(start + count)[start:] for i in indices]
        return np.stack(draws).view(np.uint64)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_keys_match_seed_sequence(self, seed):
        indices = [*range(duality._PATH_BLOCK), 2**32, 2**32 + 5]
        k0, k1 = streams.stream_keys(seed, indices)
        want = np.array([
            np.random.SeedSequence(entropy=(seed, i)).generate_state(2, np.uint64)
            for i in indices
        ])
        assert k0.dtype == k1.dtype == np.uint64
        assert np.stack([k0, k1], axis=1).tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_uniforms_match_scenario_rng(self, seed):
        k0, k1 = streams.stream_keys(seed, self.INDICES)
        # Up to and across Philox's four-word buffer, and refills of any size
        # from any offset, as _draw_paths makes them (duality._refill).
        for start, count in [(0, 1), (0, 3), (0, 4), (0, 5), (0, 70), (64, 64), (128, 64),
                             (32, 37), (13, 256), (257, 3)]:
            got = streams.uniforms(k0, k1, start, count)
            assert got.dtype == np.float64 and got.shape == (len(self.INDICES), count)
            assert got.view(np.uint64).tobytes() == self.want(
                seed, self.INDICES, start, count
            ).tobytes()

    def test_full_path_block(self):
        indices = range(duality._PATH_BLOCK)
        count = duality._refill(len(indices), duality.DEFAULT_PATH_CAP)
        got = streams.uniforms(*streams.stream_keys(11, indices), 0, count)
        assert got.view(np.uint64).tobytes() == self.want(11, indices, 0, count).tobytes()

    @pytest.mark.parametrize("rows, start, count", [
        # Six counters per row: several row chunks, the last one partial.
        (5000, 13, 20),
        # One row past a full path block, at that block's refill size.
        (duality._PATH_BLOCK + 1, 0, duality._refill(duality._PATH_BLOCK + 1, 10**6)),
    ])
    def test_rows_across_chunk_boundaries(self, rows, start, count):
        blocks = -(-(start + count) // 4) - start // 4
        assert rows % (streams._PHILOX_CHUNK // blocks) and rows > streams._PHILOX_CHUNK // blocks
        got = streams.uniforms(*streams.stream_keys(11, range(rows)), start, count)
        assert got.view(np.uint64).tobytes() == self.want(11, range(rows), start, count).tobytes()

    @pytest.mark.parametrize("start", range(8))
    def test_empty_draws(self, start):
        k0, k1 = streams.stream_keys(3, range(5))
        assert streams.uniforms(k0, k1, start, 0).shape == (5, 0)
        assert streams.uniforms(k0[:0], k1[:0], start, 7).shape == (0, 7)
        assert streams.uniforms(k0[:0], k1[:0], start, 0).shape == (0, 0)

    @pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.5, TypeError)])
    def test_bad_seed_raises_as_scenario_rng(self, seed, error, two_period):
        view = zd.fix_player(
            two_period, zd.uniform_policy(two_period, zd.PLAYER_B), zd.PLAYER_B
        )
        with pytest.raises(error):
            zd.scenario_rng(seed, 0)
        with pytest.raises(error):
            streams.stream_keys(seed, range(3))
        with pytest.raises(error):
            zd.estimate_dual_bound_finite(view, np.zeros(view.n_states), 5, seed)
