"""Data model for finite dynamic zero-sum games.

A game is played by two players on a finite state space: player A (the
maximizer) picks an action ``u``, player B (the minimizer) simultaneously
picks ``v``, B pays A the stage cost ``g[i][u][v]`` and the system moves
from state ``i`` to ``j`` with probability ``p[i][u][v][j]``. Mixed
(randomized) per-state policies, one-player views (``MdpView``: one padded
layout of successor lists and one move predicate for all states;
``OPTIMIZERS``, how a view optimizes; ``lookahead``, the one action value
expression; ``last_rise``, the last destination a CDF draws;
``absorbing_attractor``, the one reachability fixpoint), time embedding and
JSON game files (each state's block row, ``succ`` and ``prob``, or a dense
``transition`` read through ``make_game``) all live here.

A ``GameModel`` stores its tensors as blocks: the states of one action
shape ``(A, B)`` share one ``Block`` of stage costs and padded successor
lists, which hold only the destinations a move can reach; ``pack_blocks``,
the one packer, groups them. A view keeps successor lists too: fixing a
player folds the fixed player's actions into each free slot's list with
``np.bincount`` over the compressed ``(state, slot, destination)`` keys
(``successor_lists``), a batch of states at a time, so no ``(n, slots,
n)`` array is ever built. A pair's
chain is one slot of that layout (``solvers._chain_values``). The dense
per-state tensors ``transition[i]`` are rebuilt from the lists on access,
never stored. Every sum over a successor list is in list order, so a
state's sums depend on its list alone: ``list_sum`` for a block's, and
``lookahead``'s the same running sums with each addition's rounding error
added back.

All objects are immutable after construction and safe to share across
threads; every operation in this module is pure. The only derived state
is a view's ``moves`` and ``periods``, each built on first use and cached:
functions of the view's fields that no caller can change, so two threads
that race to build one build equal ones.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np

SIMPLEX_TOL = 1e-12
# Entries that ``fix_rows`` folds into successor lists, and ``lookahead``
# takes rounding errors of, at a time.
_ENTRIES = 1 << 16

PLAYER_A = "A"  # maximizer
PLAYER_B = "B"  # minimizer


# ---------------------------------------------------------------------------
# Regimes


@dataclass(frozen=True)
class FiniteHorizon:
    """Play for a fixed number of periods, then stop (no discounting)."""

    periods: int


@dataclass(frozen=True)
class Discounted:
    """Infinite horizon with discount factor ``alpha`` in (0, 1)."""

    alpha: float


@dataclass(frozen=True)
class Ssp:
    """Undiscounted infinite horizon with one absorbing terminal state."""

    absorbing: int


Regime = FiniteHorizon | Discounted | Ssp


def regime_alpha(regime: Regime) -> float:
    return regime.alpha if isinstance(regime, Discounted) else 1.0


# ---------------------------------------------------------------------------
# Core types


def _freeze(a: np.ndarray, dtype: type = float) -> np.ndarray:
    """A read-only contiguous view of ``a`` as ``dtype``; ``a`` itself stays
    writable (it is copied only when its layout or dtype differ)."""
    a = np.ascontiguousarray(a, dtype=dtype).view()
    a.setflags(write=False)
    return a


class Block(NamedTuple):
    """States of one action shape ``(A, B)``, ascending, with their read-only
    ``(k, A, B)`` stage costs and their rows as read-only padded successor
    lists of shape ``(k, A, B, S)``.

    Under actions ``(u, v)``, state ``states[r]`` makes B pay A ``cost[r, u,
    v]``, and entry ``s`` of its row moves to state ``succ[r, u, v, s]`` with
    probability ``transition[r, u, v, s]``. A row lists, in ascending order,
    the destinations of nonzero probability; the other ``S`` slots are pads
    of probability 0. ``width`` is the length ``n`` of a dense row.
    """

    states: np.ndarray
    succ: np.ndarray
    transition: np.ndarray
    cost: np.ndarray
    width: int


def make_block(
    states: np.ndarray, succ: np.ndarray, transition: np.ndarray, cost: np.ndarray, width: int
) -> Block:
    """A block of fresh arrays, frozen in place."""
    for a in (states, succ, transition, cost):
        a.setflags(write=False)
    return Block(states, succ, transition, cost, int(width))


def take_rows(b: Block, rows: np.ndarray) -> Block:
    """The block of the rows ``rows`` (a boolean mask) of ``b``."""
    return Block(b.states[rows], b.succ[rows], b.transition[rows], b.cost[rows], b.width)


class DenseRows(Sequence):
    """Per-state dense ``(A, B, n)`` transition tensors of a model's blocks,
    rebuilt read-only from the successor lists on every access."""

    def __init__(self, blocks: tuple[Block, ...], where: np.ndarray):
        self._blocks, self._where = blocks, where

    def __len__(self) -> int:
        return len(self._where)

    def __getitem__(self, i: int) -> np.ndarray:
        k, r = self._where[i]
        b = self._blocks[k]
        _, na, nb, _ = b.succ.shape
        index = b.succ[r] + b.width * np.arange(na * nb).reshape(na, nb, 1)
        dense = np.bincount(index.ravel(), b.transition[r].ravel(), minlength=na * nb * b.width)
        return _freeze(dense.reshape(na, nb, b.width))


def by_state(n: int, stacks: Iterable[tuple[np.ndarray, np.ndarray]]) -> tuple:
    """Views of the rows ``array[r]`` of each pair ``(states, array)`` of
    ``stacks``, placed at state ``states[r]``; other states get None."""
    out = np.empty(n, dtype=object)
    for states, array in stacks:
        out[states] = np.fromiter(array, dtype=object, count=len(states))
    return tuple(out)


@dataclass(frozen=True)
class GameModel:
    """A finite two-player zero-sum stochastic game.

    Each ``Block`` stacks the states of one action shape ``(A, B)`` (the
    absorbing state of a built-in game keeps its own). ``cost[i]`` is state
    ``i``'s read-only ``(A, B)`` stage cost, a view of its block:
    ``cost[i][u][v]`` is what B pays A under actions ``(u, v)``.
    ``transition[i]`` is its dense read-only ``(A, B, n)`` tensor, rebuilt
    from its block on each access: ``transition[i][u][v]`` is the
    distribution of the next state. Time-embedded models also carry a
    per-state ``period`` tag, the original ``base_state`` of each embedded
    state and the ``horizon``.
    """

    n_states: int
    regime: Regime
    blocks: tuple[Block, ...]
    labels: tuple[str, ...] | None = None
    root: int | None = None
    horizon: int | None = None
    period: np.ndarray | None = None
    base_state: np.ndarray | None = None
    actions_a: np.ndarray = field(init=False, repr=False, compare=False)
    actions_b: np.ndarray = field(init=False, repr=False, compare=False)
    transition: DenseRows = field(init=False, repr=False, compare=False)
    cost: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        where = np.zeros((self.n_states, 2), dtype=int)  # block and row of each state
        counts = np.zeros((2, self.n_states), dtype=int)
        for k, b in enumerate(self.blocks):
            where[b.states] = np.column_stack([np.full(len(b.states), k), np.arange(len(b.states))])
            counts[:, b.states] = np.array(b.succ.shape[1:3])[:, None]
        where.setflags(write=False)
        object.__setattr__(self, "transition", DenseRows(self.blocks, where))
        stacks = ((b.states, b.cost) for b in self.blocks)
        object.__setattr__(self, "cost", by_state(self.n_states, stacks))
        object.__setattr__(self, "actions_a", _freeze(counts[0], int))
        object.__setattr__(self, "actions_b", _freeze(counts[1], int))
        for name in ("period", "base_state"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _freeze(getattr(self, name), int))
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def absorbing(self) -> int | None:
        return self.regime.absorbing if isinstance(self.regime, Ssp) else None

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else str(i)


def list_sum(p: np.ndarray, x: np.ndarray | float = 1.0) -> np.ndarray:
    """Sum of ``p * x`` over the last axis, entry after entry in list order.
    Entries where ``p`` is 0 (pads, a dense row's unlisted destinations) add
    nothing, not even a zero's sign. Overflow gives inf or NaN unwarned, as
    every caller flags or carries non-finite results."""
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.multiply(p, x, out=np.full(p.shape, -0.0), where=p != 0.0)
        return np.add.accumulate(terms, axis=-1)[..., -1]


def make_game(
    regime: Regime,
    transition: Sequence[np.ndarray],
    cost: Sequence[np.ndarray],
    labels: Sequence[str] | None = None,
    root: int | None = None,
    horizon: int | None = None,
    period: Sequence[int] | None = None,
    base_state: Sequence[int] | None = None,
) -> GameModel:
    """Assemble a GameModel from per-state dense tensors: each ``(A, B, n)``
    row is packed as the list of all ``n`` destinations, its zeros as pads
    (``pack_blocks``); the caller's arrays stay as they are.

    A state's ``cost`` is its ``(A, B)`` stage cost, or an ``(A, B, n)`` cost
    per destination. The latter is reduced, state by state, to the expected
    stage cost over the destinations of nonzero probability in destination
    order (``list_sum``); a stage cost whose destinations hold a non-finite
    value, listed or not, is NaN, so that ``validate`` flags it.
    """
    transition = [np.asarray(t, dtype=float) for t in transition]
    cost = [np.asarray(c, dtype=float) for c in cost]
    for i, (p, g) in enumerate(zip(transition, cost, strict=True)):
        if p.ndim != 3 or g.shape not in (p.shape, p.shape[:2]):
            raise ValueError(
                f"state {i}: transition shape {p.shape} and cost shape {g.shape} "
                "must agree as (|U|, |V|, n) and (|U|, |V|) or (|U|, |V|, n)"
            )
        if g.ndim == 3:
            cost[i] = np.where(np.isfinite(g).all(axis=2), list_sum(p, g), np.nan)

    def rows(states: list[int], shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        p = np.stack([transition[i] for i in states])
        return np.broadcast_to(np.arange(p.shape[3]), p.shape), p

    blocks = pack_blocks([(p.shape[:2], p.shape[2]) for p in transition], rows, cost)
    return GameModel(len(transition), regime, blocks, labels, root, horizon, period, base_state)


def pack_blocks(shapes: Sequence[tuple], rows: Callable, cost: Sequence[np.ndarray]) -> tuple:
    """Blocks of states grouped by ``shapes[i]``, ``((A, B), width)``, in state
    order, with stage costs ``cost[i]``: ``rows(states, (A, B))`` gives a
    group's ``(k, A, B, S)`` successor lists ``(succ, prob)``, whose zeros are
    pads, moved to each row's end as destination 0 and cut to the longest row.
    ValueError names the first move whose listed destinations do not ascend."""
    by_shape: dict[tuple, list[int]] = {}
    for i, shape in enumerate(shapes):
        by_shape.setdefault(shape, []).append(i)
    blocks = []
    for (actions, width), s in by_shape.items():
        dest, p = rows(s, actions)
        keep = p != 0.0
        *lead, _ = np.nonzero(keep)
        row = np.ravel_multi_index(lead, keep.shape[:-1])
        where = (*lead, np.arange(len(row)) - np.searchsorted(row, row))
        shape = (len(s), *actions, int(where[-1].max(initial=0)) + 1)
        succ, listed = np.zeros(shape, dtype=np.intp), np.zeros(shape)
        succ[where], listed[where] = dest[keep], p[keep]
        climb = (listed[..., 1:] != 0.0) & (succ[..., 1:] <= succ[..., :-1])
        if climb.any():
            r, u, v = np.argwhere(climb.any(axis=3))[0]
            got = succ[r, u, v][listed[r, u, v] != 0.0].tolist()
            raise ValueError(f"state {s[r]}, u={u}, v={v}: listed destinations {got} "
                             "do not strictly ascend")
        blocks.append(make_block(np.array(s), succ, listed, np.stack([cost[i] for i in s]), width))
    return tuple(blocks)


@dataclass(frozen=True)
class MixedPolicy:
    """One probability vector over the owning player's actions per state."""

    probs: tuple[np.ndarray, ...]

    def __getitem__(self, i: int) -> np.ndarray:
        return self.probs[i]

    def __len__(self) -> int:
        return len(self.probs)


def make_policy(vectors: Iterable[np.ndarray]) -> MixedPolicy:
    return MixedPolicy(tuple(_freeze(np.atleast_1d(v)) for v in vectors))


def pure_policy(model: GameModel, player: str, actions: Sequence[int]) -> MixedPolicy:
    """Degenerate MixedPolicy playing ``actions[i]`` with probability one."""
    counts = model.actions_a if player == PLAYER_A else model.actions_b
    return make_policy(np.eye(c)[a] for c, a in zip(counts, actions))


def check_policy(model: GameModel, policy: MixedPolicy, player: str) -> None:
    """Raise ValueError unless ``policy`` is valid for ``player`` on ``model``.

    One array pass flags every state that may be faulty (its sums test half
    the tolerance, as their order differs from ``_check_simplex``'s); the
    per-state checks then name the first faulty state, where a wrong length
    comes before a vector that is not a probability vector.
    """
    if player not in (PLAYER_A, PLAYER_B):
        raise ValueError(f"unknown player {player!r}")
    counts = model.actions_a if player == PLAYER_A else model.actions_b
    if len(policy) != model.n_states:
        raise ValueError(
            f"policy covers {len(policy)} states, model has {model.n_states}"
        )
    lengths = np.array([len(v) if v.ndim == 1 else -1 for v in policy.probs])
    sizes = np.where(lengths == counts, counts, 0)
    suspect = sizes == 0  # a wrong length, or an empty vector, which sums to 0
    if not suspect.all():
        flat = np.concatenate([v for v, s in zip(policy.probs, suspect) if not s])
        starts = (np.cumsum(sizes) - sizes)[~suspect]
        ok = flat >= -SIMPLEX_TOL  # NaN fails here, +inf the sum test
        with np.errstate(over="ignore"):  # an overflowed sum is flagged
            sums = np.add.reduceat(np.where(ok, flat, 0.0), starts)
        suspect[~suspect] = ~np.logical_and.reduceat(ok, starts) | (
            np.abs(sums - 1.0) > 0.5 * SIMPLEX_TOL
        )
    for i in np.flatnonzero(suspect):
        v = policy[i]
        if v.shape != (counts[i],):
            raise ValueError(
                f"state {i}: policy vector has length {v.shape[0]}, "
                f"expected {counts[i]}"
            )
        _check_simplex(v, f"policy at state {i}")


def _check_simplex(v: np.ndarray, what: str) -> None:
    if (
        not np.isfinite(v).all()
        or np.any(v < -SIMPLEX_TOL)
        or abs(float(v.sum()) - 1.0) > SIMPLEX_TOL
    ):
        raise ValueError(f"{what} is not a probability vector: {v}")


# How a view of each orientation optimizes: the free player's elementwise
# choice ``opt`` (``opt.reduce`` over a row of action values is its optimum),
# the lowest optimal slot ``first`` and the cost ``pad`` of a padded slot.
Optimizer = NamedTuple("Optimizer", [("opt", np.ufunc), ("first", Callable), ("pad", float)])
OPTIMIZERS = {"max": Optimizer(np.maximum, np.argmax, -np.inf),
              "min": Optimizer(np.minimum, np.argmin, np.inf)}


@dataclass(frozen=True)
class MdpView:
    """One-player decision problem induced by fixing the other player.

    ``orientation`` is ``"max"`` when B was fixed (A, the maximizer, stays
    free) and ``"min"`` when A was fixed; ``optimizer`` is its ``OPTIMIZERS``
    entry. Every state, the absorbing one included, has ``amax`` action
    slots. ``cost[x, a]`` is the expected stage cost of slot ``a`` (shape
    ``(n_states, amax)``), and the slot's next-state distribution is a
    padded successor list, entry-major: entry ``l`` moves to ``succ[l, x,
    a]`` with probability ``prob[l, x, a]`` (int32 and float arrays of shape
    ``(L, n_states, amax)``, ``L`` the longest list). A list holds the
    destinations of nonzero probability in ascending order, then pads of
    probability +0.0 whose destination is ``n_states``, one past the last
    state. Only the first ``n_actions[x]`` slots of a state are real; the
    others carry cost ``optimizer.pad`` and an empty list, so optimizing a
    row over its slots never picks one.

    ``moves`` (the read-only boolean ``prob > 0``, the one move predicate)
    and, on a time-embedded view (``horizon`` and ``period`` set), the
    period layout ``periods`` are derived from the fields, built on first
    use and cached on the instance, so each view builds them once however
    many solves and inner problems read them; a cache holds one value.
    """

    orientation: str
    n_states: int
    n_actions: np.ndarray
    cost: np.ndarray
    succ: np.ndarray
    prob: np.ndarray
    regime: Regime
    root: int | None = None
    horizon: int | None = None
    period: np.ndarray | None = None

    @property
    def absorbing(self) -> int | None:
        return self.regime.absorbing if isinstance(self.regime, Ssp) else None

    @property
    def optimizer(self) -> Optimizer:
        return OPTIMIZERS[self.orientation]

    @cached_property
    def moves(self) -> np.ndarray:
        return _freeze(self.prob > 0.0, bool)

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The state ``x``, slot ``a``, destination ``y`` and probability
        ``p`` of every list entry that moves (``moves``), in the layout's
        order: by list position, then state, then slot."""
        flat = np.flatnonzero(self.moves)
        shape = self.succ.shape
        x, a = (np.broadcast_to(i, shape).ravel().take(flat)
                for i in (np.arange(shape[1])[:, None], np.arange(shape[2])))
        return x, a, self.succ.take(flat), self.prob.take(flat)

    @cached_property
    def periods(self) -> tuple[Period, ...]:
        return period_layout(self)


class Period(NamedTuple):
    """One period of a time-embedded view, as read-only arrays over its
    live states ``states`` (ascending; possibly none).

    Row ``a * len(states) + i`` stands for action slot ``a`` of
    ``states[i]``: slots first. ``cols`` is the sorted union of the columns
    where the CDF of any row rises (exceeds the entry before it, or 0 for
    column 0), and ``cum`` holds each row's CDF at those columns. A CDF's
    first entry above a draw is one of its own rises, so with ``j`` entries
    of ``cum`` at or below the draw, the next state is ``cols[dest[j]]``:
    the right-sided search of an inverse-CDF draw, capped at the row's
    ``last_rise``. A padded slot's CDF is 0 and its cap ``len(cols)``, one
    past the rise columns.
    """

    states: np.ndarray
    cols: np.ndarray
    cum: np.ndarray
    dest: np.ndarray


def period_layout(view: MdpView) -> tuple[Period, ...]:
    """The ``Period`` of each period ``0 .. horizon - 1`` of a time-embedded
    view, its states grouped by ``view.period`` (no period need be
    contiguous or hold a state). A period's listed entries are scattered
    into one row per slot over the columns they reach, and the CDFs are
    cumulative sums over those columns alone, since the skipped entries are
    exact zeros, which leave a running sum as it is."""
    if view.horizon is None or view.period is None:
        raise ValueError("a period layout needs a time-embedded view")
    n, (L, _, slots) = view.n_states, view.succ.shape
    live = np.arange(n) != view.absorbing
    out = []
    for t in range(view.horizon):
        X = np.flatnonzero(live & (view.period == t))
        succ, prob = (a[:, X].transpose(0, 2, 1).reshape(L, -1) for a in (view.succ, view.prob))
        # Column of each destination the period reaches; pads reach column R.
        hit = np.zeros(n + 1, dtype=bool)
        hit[succ] = True
        reach, rank = np.flatnonzero(hit[:n]), np.cumsum(hit) - 1
        k = np.zeros((succ.shape[1], len(reach) + 1))
        k[np.arange(succ.shape[1]), rank[succ]] = prob
        cum = np.cumsum(k[:, :-1], axis=1)
        cols = (np.diff(cum, axis=1, prepend=0.0) != 0.0).any(axis=0)
        cum, R = cum[:, cols], np.count_nonzero(cols)
        real = (np.arange(slots)[:, None] < view.n_actions[X]).ravel()
        dest = np.minimum(np.arange(R + 1), np.where(real, last_rise(cum), R)[:, None])
        out.append(Period(*(_freeze(a, a.dtype) for a in (X, reach[cols], cum, dest))))
    return tuple(out)


def last_rise(cum: np.ndarray) -> np.ndarray:
    """Index of the last entry of each CDF (the last axis) that exceeds the
    entry before it, or 0: the last destination a draw can reach.

    Taken from the CDF, not from ``p > 0``, so a trailing mass too small to
    move the cumulative sum is never chosen.
    """
    n = cum.shape[-1]
    rises = cum[..., 1:] != cum[..., :-1]
    return np.max(np.where(rises, np.arange(1, n), 0), axis=-1, initial=0)


def successor_lists(
    key: np.ndarray, weight: np.ndarray, rows: int, slots: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The read-only successor lists ``(succ, prob)`` of shape ``(L, rows,
    slots)`` (``MdpView``'s layout, over ``n`` destinations) of weighted
    entries: an entry of key ``(x * slots + a) * n + y`` adds its ``weight``
    to the probability that slot ``a`` of row ``x`` moves to ``y``.

    One ``np.bincount`` over the compressed keys sums each key's weights in
    entry order, as a dense bincount over all ``rows * slots * n`` cells
    would, bit for bit. Entries of weight 0 are dropped first, since they
    could only change the sign of a zero sum, and keys whose sum is 0 are
    not listed."""
    live = np.flatnonzero(weight != 0.0)
    E = max(len(live), 1)
    if rows * slots * n * E > np.iinfo(np.int64).max:
        raise ValueError(f"{len(live)} entries over {rows} rows overflow the entry keys")
    # Sorting key * E + index orders the entries by key, a key's in entry order.
    tagged = key.take(live) * E
    tagged += np.arange(len(live))
    tagged.sort()
    key, order = np.divmod(tagged, E)
    new = _starts(key)
    p = np.bincount(np.cumsum(new), weight.take(live.take(order)))[1:]
    listed = p != 0.0
    return _pack(key[new][listed], p[listed], rows, slots, n)


def _starts(a: np.ndarray) -> np.ndarray:
    """Where each run of equal entries of ``a`` starts, as a boolean mask."""
    new = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=new[1:])
    return new


def _pack(
    keys: np.ndarray, p: np.ndarray, rows: int, slots: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Successor lists of ascending distinct keys ``(x * slots + a) * n + y``
    with probabilities ``p``: each slot's entries in key order, then pads
    of destination ``n``."""
    slot, y = np.divmod(keys, n)
    index = np.arange(len(slot))
    at = index - np.maximum.accumulate(index * _starts(slot))  # entry of its slot
    size = (int(at.max(initial=0)) + 1) * rows * slots
    at *= rows * slots
    at += slot
    succ, prob = np.full(size, n, dtype=np.int32), np.zeros(size)
    succ[at], prob[at] = y, p
    succ, prob = succ.reshape(-1, rows, slots), prob.reshape(-1, rows, slots)
    for a in (succ, prob):
        a.setflags(write=False)
    return succ, prob


def stack_view(
    cost: Sequence[np.ndarray], kernel: Sequence[np.ndarray], orientation: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-state action costs and dense ``(actions, n)`` kernels in the
    ``MdpView`` layout: the padded costs and the successor lists of the
    kernels' nonzero entries."""
    amax, n = max(len(c) for c in cost), np.shape(kernel[0])[1]
    padded_cost = np.full((len(cost), amax), OPTIMIZERS[orientation].pad)
    key, weight = [], []
    for x, (c, k) in enumerate(zip(cost, kernel)):
        padded_cost[x, : len(c)] = c
        k = np.asarray(k, dtype=float)
        a, y = np.nonzero(k)
        key.append((x * amax + a) * n + y)
        weight.append(k[a, y])
    return (_freeze(padded_cost),
            *successor_lists(np.concatenate(key), np.concatenate(weight), len(cost), amax, n))


def lookahead(view: MdpView, values: np.ndarray, states=slice(None)) -> np.ndarray:
    """Stage cost plus discounted expected ``values`` of every action slot
    of the rows ``states`` of a view (all rows by default).

    A loop over the ``L`` list positions adds each entry's ``p * value``
    in list order, the running sums being ``list_sum``'s: a pad reads its
    destination ``n``, a -0.0 appended to ``values``, and adding ``0 *
    -0.0`` leaves a sum as it is, so a pad adds nothing, not a zero's sign
    nor the NaN of ``0 * inf``. Each addition's rounding error is then
    taken exactly (Knuth's TwoSum), for a batch of positions at a time, and
    the errors, summed in list order, are added to the total where their
    sum is finite and nonzero, so an expectation is within about an ulp of
    the exact sum of its terms, whatever their order. Plain running sums
    drift by ulps per step: waste N=25's equilibrium solve then took 65
    lookaheads instead of 16, its ``tol=0`` polish creeping an ulp at a
    time, and mirror-image slots of a symmetric game, which tie in real
    arithmetic, did not tie.

    The exact solvers and both dual inner problems read action values
    through this one expression; an exact-value generator cancels the
    inner continuation only because they agree bit for bit.
    """
    ext = np.empty(view.n_states + 1)
    ext[:-1], ext[-1] = values, -0.0
    terms = view.prob[:, states] * ext.take(view.succ[:, states])
    sums, error = terms.copy(), np.zeros(terms.shape[1:])
    step = max(1, _ENTRIES // max(1, error.size))  # positions whose errors are taken at once
    with np.errstate(over="ignore", invalid="ignore"):
        for pos in range(1, len(sums)):
            sums[pos] += sums[pos - 1]
        for first in range(1, len(sums), step):
            # TwoSum: with s + t = u rounded, (s - (u - b)) + (t - b) is its
            # error exactly, b = u - s. The terms are overwritten.
            last = min(first + step, len(sums))
            s, u, t = sums[first - 1 : last - 1], sums[first:last], terms[first:last]
            back = u - s
            t -= back
            np.subtract(u, back, out=back)
            np.subtract(s, back, out=back)
            back += t
            for lost in back:
                error += lost
        total = sums[-1]
        np.add(total, error, out=total, where=np.isfinite(error) & (error != 0.0))
    alpha = regime_alpha(view.regime)
    return view.cost[states] + (total if alpha == 1.0 else alpha * total)


def block_rows(model: GameModel, policy: MixedPolicy, player: str) -> list[np.ndarray]:
    """The vectors of a valid ``policy`` of ``player`` stacked per block of
    ``model``: one ``(k, A)`` array per block for player A, ``(k, B)`` for B."""
    counts = model.actions_a if player == PLAYER_A else model.actions_b
    flat, starts = np.concatenate(policy.probs), np.cumsum(counts) - counts
    return [flat[starts[b.states, None] + np.arange(counts[b.states[0]])] for b in model.blocks]


def fix_player(model: GameModel, fixed: MixedPolicy, fixed_player: str) -> MdpView:
    """Average out one player's mixed policy, leaving the other's MDP.

    Fixing B leaves A's maximization problem; fixing A leaves B's
    minimization problem. The view's arrays are built once, here, in the
    padded layout that ``MdpView`` describes.
    """
    check_policy(model, fixed, fixed_player)
    return fix_rows(model, zip(model.blocks, block_rows(model, fixed, fixed_player)), fixed_player)


def fix_rows(
    model: GameModel, parts: Iterable[tuple[Block, np.ndarray]], fixed_player: str
) -> MdpView:
    """``fix_player`` on a policy given as stacked rows, unchecked: each pair
    ``(block, w)`` of ``parts`` holds the ``(k, A)`` or ``(k, B)`` vectors
    ``w`` of the block's states, and the blocks cover every state once.

    One ``matmul`` per block gives the costs; ``successor_lists`` folds the
    entries of the blocks' states into the free slots' lists, a batch of
    rows of about ``_ENTRIES`` entries at a time, so that no temporary grows
    with the game.
    """
    free_a = fixed_player == PLAYER_B
    orientation = "max" if free_a else "min"
    counts = model.actions_a if free_a else model.actions_b
    n, amax = model.n_states, int(counts.max())
    cost = np.full((n, amax), OPTIMIZERS[orientation].pad)
    pieces, batch = [], []
    for b, w in parts:
        # Axis 1 of g is the free player's action.
        g = b.cost if free_a else b.cost.transpose(0, 2, 1)
        cost[b.states, : g.shape[1]] = (g @ w[:, :, None])[:, :, 0]
        # Entry (x, u, v, s) adds its probability times the fixed player's
        # weight of its action to the move of slot a to succ[x, u, v, s],
        # where a is the free player's action.
        if free_a:
            free, w = np.arange(g.shape[1])[:, None, None], w[:, None, :, None]
        else:
            free, w = np.arange(g.shape[1])[:, None], w[:, :, None, None]
        step = max(1, _ENTRIES // math.prod(b.succ.shape[1:]))
        for r in range(0, len(b.states), step):
            rows = slice(r, r + step)
            batch.append((b.states[rows], w[rows] * b.transition[rows], free, b.succ[rows]))
            if sum(weight.size for _, weight, _, _ in batch) >= _ENTRIES:
                pieces.append(_fold(batch, amax, n))
                batch = []
    if batch:
        pieces.append(_fold(batch, amax, n))
    states, succ, prob = pieces[0]
    if len(pieces) > 1 or not (np.diff(states) == 1).all():
        L = max(s.shape[0] for _, s, _ in pieces)
        succ, prob = np.full((L, n, amax), n, dtype=np.int32), np.zeros((L, n, amax))
        for states, s, p in pieces:
            succ[: len(s), states], prob[: len(p), states] = s, p
        succ, prob = _freeze(succ, np.int32), _freeze(prob)
    return MdpView(
        orientation=orientation,
        n_states=n,
        n_actions=counts.copy(),
        cost=_freeze(cost),
        succ=succ,
        prob=prob,
        regime=model.regime,
        root=model.root,
        horizon=model.horizon,
        period=model.period,
    )


def _fold(batch: list, slots: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The states of a batch of ``fix_rows`` row groups ``(states, weight,
    free, succ)`` and their successor lists, row ``x`` standing for the
    batch's ``x``-th state."""
    states = np.concatenate([s for s, *_ in batch])
    first = itertools.accumulate([len(s) for s, *_ in batch], initial=0)
    key = np.concatenate([
        (((x + np.arange(len(s)))[:, None, None, None] * slots + free) * n + succ).ravel()
        for x, (s, _, free, succ) in zip(first, batch)
    ])
    weight = np.concatenate([weight.ravel() for _, weight, _, _ in batch])
    return states, *successor_lists(key, weight, len(states), slots, n)


# ---------------------------------------------------------------------------
# Time embedding


def embed_finite_horizon(model: GameModel) -> GameModel:
    """Fold the period counter into the state of a finite-horizon game.

    States become (period, original state) pairs plus a single terminal
    state; transitions advance the period and the last period maps to the
    terminal state. When the model has a root, only pairs reachable from
    (0, root) are kept. Stage costs carry over unchanged.
    """
    if not isinstance(model.regime, FiniteHorizon):
        raise ValueError("embed_finite_horizon requires a finite-horizon game")
    T = model.regime.periods
    if T < 1:
        raise ValueError(f"horizon must be >= 1, got {T}")
    root = model.root
    n = model.n_states

    # Each period's level of reachable states; embedded states come out
    # period-ordered, ascending by original state within a period.
    succ = np.zeros((n, n), dtype=bool)
    for b in model.blocks:
        live = b.transition > 0.0
        succ[np.broadcast_to(b.states[:, None, None, None], live.shape)[live], b.succ[live]] = True
    levels = [np.arange(n) if root is None else np.array([root])]
    for _ in range(T - 1):
        levels.append(np.flatnonzero(succ[levels[-1]].any(axis=0)))
    period = np.repeat(np.arange(T), [len(level) for level in levels])
    base = np.concatenate(levels)
    terminal = len(base)
    n_emb = terminal + 1
    # The embedded state of each (period, original state) pair, -1 for a pair
    # that is not reached and for every pair of period T.
    index = np.full((T + 1, n), -1, dtype=np.intp)
    index[period, base] = np.arange(terminal)

    # The rows of a block's embedded states copy the rows of the states they
    # embed, with each destination moved to the next period; the last
    # period's rows move to the terminal state.
    blocks = []
    for b in model.blocks:
        states = np.flatnonzero(np.isin(base, b.states))
        if not len(states):
            continue
        src = np.searchsorted(b.states, base[states])  # rows of b
        s = index[period[states, None, None, None] + 1, b.succ[src]]
        p = b.transition[src]
        # Entries of a negative or NaN probability and the last period's
        # leave the next period's pairs; those and pads become pads.
        off = (s < 0) | (p == 0.0)
        s[off], p[off] = 0, 0.0
        last = period[states] == T - 1
        s[last, :, :, 0], p[last, :, :, 0] = terminal, 1.0
        blocks.append(make_block(states, s, p, b.cost[src], n_emb))
    # Terminal: one action pair, self-loop, zero cost.
    blocks.append(make_block(
        np.array([terminal]), np.full((1, 1, 1, 1), terminal), np.ones((1, 1, 1, 1)),
        np.zeros((1, 1, 1)), n_emb,
    ))

    labels = [f"t{t}:{model.label(i)}" for t, i in zip(period.tolist(), base.tolist())]
    return GameModel(
        n_emb, Ssp(absorbing=terminal), tuple(blocks), labels + ["end"],
        root=None if root is None else 0, horizon=T,
        period=np.append(period, T), base_state=np.append(base, -1),
    )


def lift_policy(embedded: GameModel, policy: MixedPolicy) -> MixedPolicy:
    """Map a stationary policy on the base game onto an embedded one."""
    if embedded.base_state is None:
        raise ValueError("model has no embedding metadata")
    return make_policy(np.ones(1) if b < 0 else policy[b] for b in embedded.base_state)


# ---------------------------------------------------------------------------
# Validation


def absorbing_attractor(
    succ: np.ndarray, prob: np.ndarray, absorbing: int
) -> tuple[np.ndarray, np.ndarray]:
    """The states that reach ``absorbing`` along the positive entries of
    successor lists ``(succ, prob)`` of shape ``(L, n, slots)`` (the
    ``MdpView`` layout; ``succ`` may broadcast to it), by one backward
    fixpoint that stops once every state is reached or a round adds none,
    and for each the lowest slot with an entry into the set reached before
    it (else 0)."""
    moves = prob > 0.0
    n = prob.shape[1]
    reached = np.arange(n + 1) == absorbing  # a pad's destination n is never reached
    slot = np.zeros(n, dtype=int)
    left = n - 1
    while left:
        enters = (moves & reached[succ]).any(axis=0)
        enters[reached[:n]] = False
        (new,) = np.nonzero(enters.any(axis=1))
        if not len(new):
            break
        slot[new] = enters[new].argmax(axis=1)
        reached[new] = True
        left -= len(new)
    return reached[:n], slot


def absorbing_reachable(kernel: np.ndarray, absorbing: int) -> bool:
    """Whether every state of the non-negative square chain ``kernel``
    reaches ``absorbing``: for a stochastic matrix, exactly when the block
    on the other states has spectral radius below 1, so the chain is proper.
    The fixpoint reads each row as a one-slot list of ``n`` entries, entry
    ``y`` moving to ``y``: a view of the matrix, not a copy."""
    k = np.asarray(kernel)
    succ = np.arange(len(k))[:, None, None]
    return bool(absorbing_attractor(succ, k.T[:, :, None], absorbing)[0].all())


def validate(model: GameModel) -> list[tuple[str, str]]:
    """Check all structural invariants; return (location, violation) records.

    Each block's stored entries are checked in one array pass; the records
    of its flagged states are then written out state by state, in state
    order."""
    out: list[tuple[str, str]] = []
    n = model.n_states
    if n < 1:
        out.append(("model", "no states"))
    root = model.root
    if root is not None and (
        isinstance(root, bool) or not isinstance(root, (int, np.integer)) or not 0 <= root < n
    ):
        out.append(("model", f"root {root!r} is not a state index in [0, {n})"))
    if model.labels is not None and len(model.labels) != n:
        out.append(("model", f"{len(model.labels)} labels for {n} states"))
    found: dict[int, list[tuple[str, str]]] = {}
    for b in model.blocks:
        p, g = b.transition, b.cost
        if b.width != n:
            shape = (*p.shape[1:3], b.width)
            for i in b.states.tolist():
                found[i] = [(f"state {i}", f"tensor shape {shape} != {(*shape[:2], n)}")]
            continue
        finite = np.isfinite(p).all(axis=(1, 2, 3)) & np.isfinite(g).all(axis=(1, 2))
        negative = (p < 0).any(axis=3)
        sums = list_sum(p)
        off = np.abs(sums - 1.0) > SIMPLEX_TOL
        empty = min(p.shape[1:3]) < 1
        for r in np.flatnonzero(empty | ~finite | (negative | off).any(axis=(1, 2))):
            i = int(b.states[r])
            rec = found[i] = [(f"state {i}", "empty action set")] if empty else []
            if not finite[r]:
                rec.append((f"state {i}", "non-finite transition probability or cost"))
            for u, v in np.argwhere(negative[r] | off[r]):
                where = f"state {i}, u={u}, v={v}"
                if negative[r, u, v]:
                    rec.append((where, "negative transition probability"))
                if off[r, u, v]:
                    rec.append((where, f"row sums to {float(sums[r, u, v])!r}, not 1"))
    out += [rec for i in sorted(found) for rec in found[i]]

    reg = model.regime
    if isinstance(reg, Discounted) and not (0.0 < reg.alpha < 1.0):
        out.append(("regime", f"alpha {reg.alpha} outside (0, 1)"))
    if isinstance(reg, FiniteHorizon) and reg.periods < 1:
        out.append(("regime", f"periods {reg.periods} < 1"))
    if isinstance(reg, Ssp):
        a = reg.absorbing
        if not 0 <= a < n:
            out.append(("regime", f"absorbing state {a} out of range"))
        elif model.transition[a].shape[2] == n:  # a wrong shape is recorded above
            p, g = model.transition[a], model.cost[a]
            if not (np.abs(p[:, :, a] - 1.0) <= SIMPLEX_TOL).all():
                out.append((f"state {a}", "absorbing state does not self-transition w.p. 1"))
            if np.any(g != 0.0):
                out.append((f"state {a}", "absorbing state has nonzero cost"))
    if model.horizon is not None:
        if model.period is None:
            out.append(("model", "embedded model lacks period tags"))
        elif isinstance(reg, Ssp):
            if model.period[reg.absorbing] != model.horizon:
                out.append(("model", "terminal state not tagged with final period"))
            skips: dict[int, list[int]] = {}
            for b in model.blocks:
                step = model.period[b.succ] - model.period[b.states, None, None, None]
                skip = (b.transition > 0.0) & (step != 1)
                skip[b.states == reg.absorbing] = False
                for r in np.flatnonzero(skip.any(axis=(1, 2, 3))):
                    skips[int(b.states[r])] = np.unique(b.succ[r][skip[r]]).tolist()
            out += [(f"state {i}", f"transitions skip a period (to {skips[i]})")
                    for i in sorted(skips)]
    return out


# ---------------------------------------------------------------------------
# JSON game files


def _regime_to_dict(regime: Regime) -> dict:
    if isinstance(regime, FiniteHorizon):
        return {"kind": "finite_horizon", "periods": regime.periods}
    if isinstance(regime, Discounted):
        return {"kind": "discounted", "alpha": regime.alpha}
    return {"kind": "ssp", "absorbing": regime.absorbing}


def _integer(value, what: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` as an int if it is an integer, not a bool, at least ``low``
    and below ``high`` (each bound optional, ``high`` only with ``low``);
    else ValueError."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or low is not None and value < low or high is not None and value >= high):
        bounds = (f" in [{low}, {high})" if high is not None
                  else f" >= {low}" if low is not None else "")
        raise ValueError(f"{what} must be an integer{bounds}, got {value!r}")
    return int(value)


def _required(d: dict, key: str, name: str):
    """Field ``key`` of document object ``d``; ValueError naming it ``name``
    when it is missing."""
    if key not in d:
        raise ValueError(f"game file lacks the required field {name}")
    return d[key]


def _regime_from_dict(d: dict) -> Regime:
    if not isinstance(d, dict):
        raise ValueError(f"regime must be an object with a kind, got {d!r}")
    kind = d.get("kind")
    if kind == "finite_horizon":
        periods = _required(d, "periods", "regime.periods")
        return FiniteHorizon(periods=_integer(periods, "regime.periods"))
    if kind == "discounted":
        alpha = _required(d, "alpha", "regime.alpha")
        if isinstance(alpha, bool) or not isinstance(alpha, (int, float)):
            raise ValueError(f"regime.alpha must be a number, got {alpha!r}")
        return Discounted(alpha=float(alpha))
    if kind == "ssp":
        absorbing = _required(d, "absorbing", "regime.absorbing")
        return Ssp(absorbing=_integer(absorbing, "regime.absorbing"))
    raise ValueError(f"unknown regime kind {kind!r}")


def game_to_dict(model: GameModel) -> dict:
    """The JSON document of ``model``: each state's block row as stored,
    ``succ[i][u][v]`` and ``prob[i][u][v]``, and ``(A, B)`` cost ``cost[i]``."""
    succ, prob, cost = ([None] * model.n_states for _ in range(3))
    for b in model.blocks:
        for i, s, p, g in zip(*(a.tolist() for a in (b.states, b.succ, b.transition, b.cost))):
            succ[i], prob[i], cost[i] = s, p, g
    d = {"n_states": model.n_states, "regime": _regime_to_dict(model.regime),
         "actions_a": model.actions_a.tolist(), "actions_b": model.actions_b.tolist(),
         "succ": succ, "prob": prob, "cost": cost}
    if model.labels is not None:
        d["labels"] = list(model.labels)
    if model.root is not None:
        d["root"] = model.root
    return d


def _tensors(entries: list, key: str) -> list[np.ndarray]:
    """The per-state float tensors of field ``key`` of a game document."""
    try:
        return [np.asarray(t, dtype=float) for t in entries]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{key} holds a ragged or non-numeric tensor: {exc}") from exc


def _list_rows(succ: list, prob: list, n: int, states: list[int], shape: tuple) -> tuple:
    """``pack_blocks``'s ``rows``: a group's ``succ`` and ``prob`` at once, else
    state by state (lengths may differ); ValueError names the first state not
    listing destinations in ``[0, n)`` and probabilities of one shape."""
    def convert(group: list[int], dtype: type = float) -> tuple[np.ndarray, np.ndarray]:
        s = np.array([succ[i] for i in group], dtype=object)
        p = np.array([prob[i] for i in group], dtype=dtype)
        if s.ndim != 4 or s.shape != p.shape or s.shape[1:3] != shape:
            raise ValueError(f"succ of shape {s.shape[1:]} and prob of shape {p.shape[1:]} "
                             f"do not match the cost's {shape}")
        if any(t is bool or not issubclass(t, (int, np.integer)) for t in set(map(type, s.flat))):
            raise ValueError("succ holds a destination that is not an integer")
        s = s.astype(np.intp)
        for j in s[(s < 0) | (s >= n)][:1]:
            raise ValueError(f"succ destination {j} is not a state index in [0, {n})")
        return s, p.astype(float, copy=False)

    try:
        return convert(states)
    except (TypeError, ValueError, OverflowError):
        pass
    parts = []
    for i in states:
        try:
            parts.append(convert([i], object))  # a ragged prob shows its shape
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"state {i}: {exc}") from exc
    k = max(s.shape[3] for s, _ in parts)
    return tuple(np.concatenate([np.pad(a, [(0, 0)] * 3 + [(0, k - a.shape[3])]) for a in col])
                 for col in zip(*parts))


def game_from_dict(d: dict) -> GameModel:
    """Build and validate a GameModel from its JSON document form: each
    state's block row ``succ[i][u][v]``, ``prob[i][u][v]`` and stage cost
    ``cost[i][u][v]``, or, read through ``make_game``, a dense
    ``transition[i][u][v][j]``, whose ``cost`` may be given per destination."""
    if not isinstance(d, dict):
        raise ValueError(f"a game file must hold a JSON object, got {type(d).__name__}")
    n = _integer(_required(d, "n_states", "n_states"), "n_states")
    regime = _regime_from_dict(_required(d, "regime", "regime"))
    dense = "transition" in d
    if dense == ("succ" in d or "prob" in d):
        raise ValueError("game file holds both transition and succ/prob; give one form"
                         if dense else "game file has no succ and prob, "
                         "so it lacks the required field transition")
    keys = ("transition",) if dense else ("succ", "prob")
    for key in (*keys, "cost"):
        if not isinstance(_required(d, key, key), list):
            raise ValueError(f"{key} must be a list of per-state tensors")
    for key in (*keys, "cost"):
        if len(d[key]) != n:
            raise ValueError(f"{key} lists {len(d[key])} states, header says {n}")
    moves = {key: _tensors(d[key], key) if dense else d[key] for key in keys}
    cost = _tensors(d["cost"], "cost")
    labels = d.get("labels")
    if labels is not None and (type(labels) is not list or any(type(s) is not str for s in labels)):
        raise ValueError(f"labels must be a list of {n} strings, got {labels!r:.60}")
    if dense:
        model = make_game(regime, moves["transition"], cost, labels=labels, root=d.get("root"))
    else:
        rows = partial(_list_rows, moves["succ"], moves["prob"], n)
        model = GameModel(n, regime, pack_blocks([(g.shape, n) for g in cost], rows, cost),
                          labels=labels, root=d.get("root"))
    for key, counts in (("actions_a", model.actions_a), ("actions_b", model.actions_b)):
        if key in d and d[key] != counts.tolist():
            raise ValueError(f"{key} does not match the states' action shapes")
    problems = validate(model)
    if problems:
        msg = "; ".join(f"{loc}: {what}" for loc, what in problems[:5])
        raise ValueError(f"invalid game file: {msg}")
    return model


def load_game(path: str) -> GameModel:
    with open(path) as f:
        return game_from_dict(json.load(f))


def _per_state(model: GameModel, doc, what: str, parse, expected: str) -> list:
    """``parse`` of each state's entry of a per-state JSON document, in state
    order: ``doc`` must be an object whose keys ``str(i)`` hold state ``i``'s
    entry. ValueError names the ``what`` file, and when it is an object, its
    first key of no state, first missing state or first bad entry."""
    if not isinstance(doc, dict):
        raise ValueError(f"a {what} file must hold a JSON object, got {type(doc).__name__}")
    keys = set(map(str, range(model.n_states)))
    for key in (key for key in doc if key not in keys):
        raise ValueError(f"{what} file key {key!r} names no state in [0, {model.n_states})")
    out = []
    for i in range(model.n_states):
        if str(i) not in doc:
            raise ValueError(f"{what} file missing state {i}")
        try:
            out.append(parse(doc[str(i)]))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{what} file state {i}: not {expected}: {exc}") from exc
    return out


def policy_from_dict(model: GameModel, player: str, d: dict) -> MixedPolicy:
    """Policy file format: a JSON object mapping each state index, as a
    string, to ``player``'s probability array there. ValueError names the
    first missing or unreadable state (``_per_state``), or the vector that
    ``check_policy`` rejects."""
    policy = make_policy(_per_state(
        model, d, "policy", lambda v: np.asarray(v, dtype=float), "a list of numbers"
    ))
    check_policy(model, policy, player)
    return policy


def values_from_dict(model: GameModel, d: dict) -> np.ndarray:
    """Generator/value file format: a JSON object mapping each state index,
    as a string, to a real. ValueError when ``d`` is not an object, or names
    the first state it lacks or whose entry is not a number."""
    return np.array(_per_state(model, d, "value", float, "a number"))
