"""Shared fixtures and random-instance helpers for the suite."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from oc_reason import Bcs, Correspondence, NormalFormGame
from oc_reason.fixtures import (
    chicken_trio,
    matching_pennies,
    prisoners_dilemma,
    stag_hunt_pair,
    symmetric_coordination,
)


@pytest.fixture
def trio():
    return chicken_trio()


@pytest.fixture
def pd():
    return prisoners_dilemma()


@pytest.fixture
def pennies():
    return matching_pennies()


@pytest.fixture
def stag_pair():
    return stag_hunt_pair()


@pytest.fixture
def coordination():
    return symmetric_coordination()


def random_game(rng: random.Random, name: str, max_actions: int = 3,
                payoff_range: tuple[int, int] = (0, 6)) -> NormalFormGame:
    rows = [f"r{i}" for i in range(rng.randint(1, max_actions))]
    cols = [f"c{j}" for j in range(rng.randint(1, max_actions))]
    lo, hi = payoff_range
    matrix = [[(rng.randint(lo, hi), rng.randint(lo, hi)) for _ in cols] for _ in rows]
    return NormalFormGame.two_player(name, rows, cols, matrix)


def affine_copy(rng: random.Random, game: NormalFormGame, name: str) -> NormalFormGame:
    """A renamed copy whose payoffs u' satisfy u = lam*u' + b for random
    positive lam and integer b, so the copy is isomorphic to the original."""
    lam = [Fraction(rng.randint(1, 3)) for _ in range(game.n_players)]
    b = [Fraction(rng.randint(-4, 4)) for _ in range(game.n_players)]
    table = {p: tuple((game.payoff_of(p, i) - b[i]) / lam[i] for i in range(game.n_players))
             for p in game.profiles()}
    actions = tuple(tuple(a + "x" for a in acts) for acts in game.actions)
    return NormalFormGame(name, actions, table)


def with_dominated_row(rng: random.Random, game: NormalFormGame, name: str) -> NormalFormGame:
    """The same game plus one extra row strictly dominated by row 0."""
    rows = game.actions[0] + ("rdom",)
    new_row_index = len(game.actions[0])
    table = dict(game.utilities)
    for c in range(len(game.actions[1])):
        base = game.payoff_of((0, c), 0)
        table[(new_row_index, c)] = (base - rng.randint(1, 3), Fraction(rng.randint(0, 6)))
    table = {p: tuple(Fraction(x) for x in v) for p, v in table.items()}
    return NormalFormGame(name, (rows, game.actions[1]), table)


def brute_force_compose(pairs_ab, pairs_bc):
    """Independent composition oracle: exists-an-intermediate over all pairs."""
    return {(a, c) for a, b in pairs_ab for b2, c in pairs_bc if b == b2}


def coloring_bcs(rng, n, density):
    """3-colouring of a random graph: not-equal constraints on its edges.
    Such structures are often path consistent yet refuted by propagation
    once one relation is narrowed, which random relations rarely are."""
    dom = ("r", "g", "b")
    names = [f"X{i + 1}" for i in range(n)]
    differ = [(u, v) for u in dom for v in dom if u != v]
    return Bcs.create([(x, dom) for x in names],
                      [Correspondence.from_pairs(x, y, dom, dom, differ)
                       for i, x in enumerate(names) for y in names[i + 1:]
                       if rng.random() < density])
