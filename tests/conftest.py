"""Shared fixtures and random-instance helpers for the suite."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from oc_reason import Bcs, Correspondence, NormalFormGame
from oc_reason.games import one_round_reduction
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


def small_game(rng: random.Random, name: str, players: int) -> NormalFormGame:
    """An n-player game with 1 to 3 actions per player and payoffs in 0..2,
    so ties, dominated actions and automorphisms are common."""
    actions = tuple(tuple(f"p{i}a{k}" for k in range(rng.randint(1, 3)))
                    for i in range(players))
    return NormalFormGame(name, actions, {
        p: tuple(Fraction(rng.randint(0, 2)) for _ in range(players))
        for p in itertools.product(*(range(len(a)) for a in actions))})


def permuted_copy(rng: random.Random, game: NormalFormGame, name: str) -> NormalFormGame:
    """An isomorphic copy: each player's actions renamed and permuted, and
    their payoffs mapped by a random positive affine map."""
    perms = [rng.sample(range(len(a)), len(a)) for a in game.actions]
    maps = [(Fraction(rng.randint(1, 3), rng.randint(1, 2)), rng.randint(-3, 3))
            for _ in game.actions]
    actions = tuple(tuple(a + "y" for a in acts) for acts in game.actions)
    return NormalFormGame(name, actions, {
        tuple(perm[a] for perm, a in zip(perms, p)):
            tuple(scale * u + shift for (scale, shift), u in zip(maps, vector))
        for p, vector in game.utilities.items()})


def small_game_set(rng: random.Random, players: int, stag_pair=None) -> list[NormalFormGame]:
    """A small game, permuted copies of it, its named one-round reduction
    and an unrelated game, each drawn with some probability; with a stag-hunt
    pair, sometimes that pair and a permuted copy of one of its games too,
    inserted at random positions."""
    games = [small_game(rng, "A", players)]
    for name in ("B", "C"):
        if rng.random() < 0.6:
            games.append(permuted_copy(rng, rng.choice(games), name))
    sub, eliminated = one_round_reduction(games[0])
    if any(eliminated) and rng.random() < 0.7:
        games.append(NormalFormGame("R", sub.actions, sub.utilities))
    if rng.random() < 0.4:
        games.append(small_game(rng, "D", players))
    if stag_pair is not None and rng.random() < 0.5:
        left, right, _ = stag_pair
        copy = permuted_copy(rng, rng.choice((left, right)), "S")
        for g in (left, right, copy):
            games.insert(rng.randint(0, len(games)), g)
    return games


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


def planted_bcs(rng, n, density=0.5, pair_bit=0.5, planted=3):
    """A structure with `planted` solutions and domains of 2 to 5 values:
    each variable pair gets a constraint with probability `density`, holding
    the planted solutions' value pairs plus each other value pair with
    probability `pair_bit`. Such structures are closed under no particular
    order, and their many solutions make witnesses plentiful."""
    names = [f"X{i + 1}" for i in range(n)]
    domains = [tuple(f"v{j + 1}" for j in range(rng.randint(2, 5))) for _ in names]
    solutions = [[rng.choice(dom) for dom in domains] for _ in range(planted)]
    constraints = []
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() >= density:
            continue
        pairs = {(s[i], s[j]) for s in solutions}
        pairs |= {(a, b) for a in domains[i] for b in domains[j] if rng.random() < pair_bit}
        constraints.append(Correspondence.from_pairs(names[i], names[j], domains[i],
                                                     domains[j], sorted(pairs)))
    return Bcs.create(list(zip(names, domains)), constraints)
