"""Define a small custom game, save it as JSON, and drive the CLI formats.

The game: a two-state discounted pursuit toy where the evader (maximizer)
earns 1 per period while uncaught. Shows the game-file schema in both of its
forms (successor lists, which ``game_to_dict`` writes, and dense transition
tensors, written here by hand), the policy file schema, and round-tripping
through the loader.

Run:  python demos/custom_game_json.py
"""

import json
import tempfile
from pathlib import Path

import numpy as np

import zsgdual as zd


def build():
    # State 0: evader loose, state 1: evader cornered. Both players pick
    # left/right; matching moves corner (from 0) or catch-and-reset (from 1).
    # Each state's cost is its (A, B) stage cost: what B pays A per period.
    p0 = np.zeros((2, 2, 2))
    for u in range(2):
        for v in range(2):
            p0[u, v, 1 if u == v else 0] = 1.0
    g0 = np.ones((2, 2))
    p1 = np.zeros((2, 2, 2))
    p1[:, :, 0] = 1.0
    g1 = 1.0 - np.eye(2)
    return zd.make_game(
        regime=zd.Discounted(alpha=0.9),
        transition=[p0, p1],
        cost=[g0, g1],
        labels=("loose", "cornered"),
        root=0,
    )


def same_blocks(x, y) -> bool:
    """Whether two models hold the same blocks: states, successor lists,
    probabilities and costs of equal dtype, shape and bytes."""
    return len(x.blocks) == len(y.blocks) and all(
        b.width == c.width and all(
            (p.dtype, p.shape, p.tobytes()) == (q.dtype, q.shape, q.tobytes())
            for p, q in zip((b.states, b.succ, b.transition, b.cost),
                            (c.states, c.succ, c.transition, c.cost))
        )
        for b, c in zip(x.blocks, y.blocks)
    )


def main():
    model = build()
    print("validation:", zd.validate(model) or "clean")

    values, mu, nu = zd.shapley_value_iteration(model, tol=1e-12)
    for i in range(model.n_states):
        print(f"  {model.label(i):9s} value {values[i]:.6f}  A {mu[i]}  B {nu[i]}")

    with tempfile.TemporaryDirectory() as d:
        # game_to_dict lists each move's destinations of nonzero probability,
        # ascending, in "succ" and their probabilities in "prob".
        doc = zd.game_to_dict(model)
        print("state 0, move (0, 0):", doc["succ"][0][0][0], doc["prob"][0][0][0])
        path = Path(d) / "pursuit.json"
        path.write_text(json.dumps(doc, indent=2))
        again = zd.load_game(str(path))
        v2, _, _ = zd.shapley_value_iteration(again, tol=1e-12)
        print("round-trip value drift:", float(np.abs(values - v2).max()))

        # The same game as dense tensors: transition[i][u][v][j] is the
        # probability of moving from state i to j under actions (u, v).
        dense = {key: doc[key] for key in ("n_states", "regime", "cost", "labels", "root")}
        dense["transition"] = [[[[1.0, 0.0] if u != v else [0.0, 1.0] for v in range(2)]
                                for u in range(2)], [[[1.0, 0.0]] * 2] * 2]
        dense_path = Path(d) / "pursuit_dense.json"
        dense_path.write_text(json.dumps(dense))
        same = same_blocks(again, zd.load_game(str(dense_path)))
        print("list and dense documents load to the same blocks, bit for bit:", same)
        assert same

        policy_doc = {str(i): list(map(float, nu[i])) for i in range(model.n_states)}
        ppath = Path(d) / "inspector.json"
        ppath.write_text(json.dumps(policy_doc))
        nu_again = zd.policy_from_dict(again, zd.PLAYER_B, json.loads(ppath.read_text()))
        br, _ = zd.best_response(again, nu_again, zd.PLAYER_B)
        print(f"best response to the saved policy at root: {br[again.root]:.6f} "
              f"(equilibrium value {values[0]:.6f})")


if __name__ == "__main__":
    main()
