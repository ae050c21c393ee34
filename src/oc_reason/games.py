"""Normal-form games with exact rational payoffs.

Games are immutable values: per-player action lists plus a total utility
table mapping each pure strategy profile to a payoff vector. All payoffs are
`fractions.Fraction`, never floats, so dominance checks, Nash enumeration and
affine isomorphism fitting are exact.

Outcome labels used elsewhere in the package (BCS domains, preferences) are
the comma-joined action labels in player order, e.g. ``"C,D"``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InputError

Profile = tuple[int, ...]
PayoffVector = tuple[Fraction, ...]

RationalLike = int | str | Fraction | tuple


def as_fraction(value) -> Fraction:
    """Coerce an int, "p/q" string, Fraction, or (p, q) pair of ints to a
    Fraction. Bools, floats and pairs of anything but ints are rejected."""
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"payoff must be rational, got bool {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse rational {value!r}") from exc
    if isinstance(value, (tuple, list)) and len(value) == 2 and \
            all(type(v) is int for v in value) and value[1]:
        return Fraction(*value)
    raise InputError(f"cannot interpret {value!r} as an exact rational")


def _action_indexes(actions: Sequence[Sequence[str]]) -> list[dict[str, int]]:
    """Per player, each action label's index."""
    return [dict(zip(acts, range(len(acts)))) for acts in actions]


def _profile(indexes: Sequence[Mapping[str, int]], key: Sequence[str]) -> Profile:
    """The profile of a utility key given as action labels in player order;
    a key shorter than the player count gives a short profile, which the
    game's coverage check rejects."""
    if len(key) <= len(indexes):
        try:
            return tuple(map(dict.__getitem__, indexes, key))
        except (KeyError, TypeError):
            pass
    raise InputError(f"unknown action in utility key {tuple(key)!r}")


@dataclass(frozen=True)
class NormalFormGame:
    """An n-player normal-form game.

    ``actions[i]`` is player i's ordered tuple of distinct action labels,
    and ``utilities[profile]`` is the payoff vector of the pure profile
    given by one action index per player.
    """

    name: str
    actions: tuple[tuple[str, ...], ...]
    utilities: Mapping[Profile, PayoffVector]

    def __post_init__(self):
        if not self.actions:
            raise InputError("a game needs at least one player")
        for i, acts in enumerate(self.actions):
            if not acts:
                raise InputError(f"player {i} has no actions")
            if len(set(acts)) != len(acts):
                raise InputError(f"player {i} has duplicate action labels")
            for a in acts:
                if not isinstance(a, str):
                    raise InputError(f"action label {a!r} of player {i} is not a string")
                if "," in a or not a:
                    raise InputError(f"bad action label {a!r} (empty or contains a comma)")
        n = len(self.actions)
        expected = set(itertools.product(*(range(len(a)) for a in self.actions)))
        if set(self.utilities.keys()) != expected:
            raise InputError("utilities must cover exactly the full product of action lists")
        for profile, vector in self.utilities.items():
            if len(vector) != n:
                raise InputError(f"payoff vector {vector} at {profile} has wrong length")

    @classmethod
    def create(cls, name: str, actions: Sequence[Sequence[str]],
               utilities: Mapping) -> "NormalFormGame":
        """Build a game, accepting label-tuple or index-tuple utility keys and
        any rational-like payoff entries."""
        acts = tuple(tuple(a) for a in actions)
        indexes = _action_indexes(acts)
        table: dict[Profile, PayoffVector] = {}
        for key, vector in utilities.items():
            profile = tuple(key) if all(isinstance(k, int) for k in key) else _profile(indexes, key)
            table[profile] = tuple(map(as_fraction, vector))
        return cls(name, acts, table)

    @classmethod
    def two_player(cls, name: str, rows: Sequence[str], cols: Sequence[str],
                   matrix: Sequence[Sequence[tuple]]) -> "NormalFormGame":
        """Build a 2-player game from a payoff matrix, matrix[row][col] = (u1, u2)."""
        table = {}
        for r in range(len(rows)):
            for c in range(len(cols)):
                table[(r, c)] = matrix[r][c]
        return cls.create(name, (tuple(rows), tuple(cols)), table)

    @property
    def n_players(self) -> int:
        return len(self.actions)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.actions)

    def profiles(self) -> Iterator[Profile]:
        """All pure strategy profiles in row-major order."""
        return itertools.product(*(range(len(a)) for a in self.actions))

    def payoff(self, profile: Profile) -> PayoffVector:
        return self.utilities[profile]

    def payoff_of(self, profile: Profile, player: int) -> Fraction:
        return self.utilities[profile][player]

    def profile_label(self, profile: Profile) -> str:
        return ",".join(self.actions[i][a] for i, a in enumerate(profile))

    def label_profile(self, label: str) -> Profile:
        parts = label.split(",")
        if len(parts) != self.n_players:
            raise InputError(f"outcome label {label!r} has wrong arity for {self.name!r}")
        try:
            return tuple(self.actions[i].index(p) for i, p in enumerate(parts))
        except ValueError as exc:
            raise InputError(f"unknown action in outcome label {label!r}") from exc

    def outcome_labels(self) -> tuple[str, ...]:
        """Every profile's label, in profile order; derived once per game."""
        return self._outcome_labels

    @functools.cached_property
    def _outcome_labels(self) -> tuple[str, ...]:
        return tuple(map(",".join, itertools.product(*self.actions)))

    @functools.cached_property
    def _reduction(self) -> tuple["NormalFormGame", tuple[frozenset[str], ...]] | None:
        """`one_round_reduction`'s pair, or None when nothing is dominated:
        that pair would hold the game itself, a reference cycle."""
        eliminated = tuple(frozenset(dominated_actions(self, i)) for i in range(self.n_players))
        if not any(eliminated):
            return None
        return self.restrict([[a for a in acts if a not in gone]
                              for acts, gone in zip(self.actions, eliminated)]), eliminated

    @functools.cached_property
    def _affine_key(self) -> tuple[tuple[tuple[int, ...], ...], tuple[Fraction, ...],
                                   tuple[Fraction, ...]]:
        """``(primitives, lows, units)``, one entry per player in each, with
        each of player i's sorted payoffs equal to ``lows[i] + units[i] * k``
        for the matching k of ``primitives[i]``.

        A primitive is the sorted payoffs on a common denominator, minus
        their minimum and divided by their gcd: ints with minimum 0 and gcd
        1, so a positive affine map carries one player's payoffs onto
        another's exactly when their primitives are equal. A constant column
        has all zeros and unit 1.
        """
        out = []
        for i in range(self.n_players):
            column = [vector[i] for vector in self.utilities.values()]
            den = math.lcm(*(x.denominator for x in column))
            ints = sorted(x.numerator * (den // x.denominator) for x in column)
            low = ints[0]
            step = math.gcd(*(k - low for k in ints)) or den
            out.append((tuple((k - low) // step for k in ints),
                        Fraction(low, den), Fraction(step, den)))
        return tuple(zip(*out))

    def outcome(self, profile: Profile) -> "Outcome":
        for i, a in enumerate(profile):
            if not 0 <= a < len(self.actions[i]):
                raise InputError(f"action index {a} out of range for player {i}")
        return Outcome(self.name, tuple(profile), self.profile_label(profile))

    def action_index(self, player: int, label: str) -> int:
        self._check_player(player)
        try:
            return self.actions[player].index(label)
        except ValueError as exc:
            raise InputError(f"player {player} of {self.name!r} has no action {label!r}") from exc

    def _check_player(self, player: int) -> None:
        if not 0 <= player < self.n_players:
            raise InputError(f"no player {player} in game {self.name!r}")

    def restrict(self, kept: Sequence[Sequence[str]], name: str | None = None) -> "NormalFormGame":
        """The subgame on the given per-player action subsets (order preserved)."""
        new_actions = []
        for i, keep in enumerate(kept):
            keep_set = set(keep)
            sub = tuple(a for a in self.actions[i] if a in keep_set)
            if len(sub) != len(keep_set):
                raise InputError(f"unknown actions for player {i} in restriction")
            new_actions.append(sub)
        index_maps = [
            [self.actions[i].index(a) for a in new_actions[i]]
            for i in range(self.n_players)
        ]
        table = {}
        for profile in itertools.product(*(range(len(a)) for a in new_actions)):
            old = tuple(index_maps[i][a] for i, a in enumerate(profile))
            table[profile] = self.utilities[old]
        return NormalFormGame(name or self.name, tuple(new_actions), table)

    def same_payoffs(self, other: "NormalFormGame") -> bool:
        """Structural equality: identical action lists and utility tables (names ignored)."""
        return self.actions == other.actions and dict(self.utilities) == dict(other.utilities)


@dataclass(frozen=True)
class Outcome:
    """A pure strategy profile of a named game."""

    game: str
    profile: Profile
    label: str


@dataclass(frozen=True)
class Isomorphism:
    """A game isomorphism: per-player action bijections plus the positive
    affine payoff maps u_i = scale_i * u'_i(image) + shift_i."""

    maps: tuple[tuple[int, ...], ...]
    scales: tuple[Fraction, ...]
    shifts: tuple[Fraction, ...]

    def __post_init__(self):
        for i, m in enumerate(self.maps):
            if sorted(m) != list(range(len(m))):
                raise InputError(f"player {i} action map is not a bijection")
        if any(s <= 0 for s in self.scales):
            raise InputError("isomorphism scales must be positive")

    def apply(self, profile: Profile) -> Profile:
        return tuple(self.maps[i][a] for i, a in enumerate(profile))

    def inverse(self) -> "Isomorphism":
        inv_maps = []
        for m in self.maps:
            inv = [0] * len(m)
            for src, dst in enumerate(m):
                inv[dst] = src
            inv_maps.append(tuple(inv))
        scales = tuple(1 / s for s in self.scales)
        shifts = tuple(-b / s for s, b in zip(self.scales, self.shifts))
        return Isomorphism(tuple(inv_maps), scales, shifts)

    def compose(self, then: "Isomorphism") -> "Isomorphism":
        """The isomorphism g1 -> g3 obtained from self: g1 -> g2 and then: g2 -> g3.

        With u = s*u' + b and u' = s'*u'' + b', we get u = (s*s')*u'' + (s*b' + b).
        """
        maps = tuple(
            tuple(t[a] for a in m) for m, t in zip(self.maps, then.maps)
        )
        scales = tuple(s * s2 for s, s2 in zip(self.scales, then.scales))
        shifts = tuple(s * b2 + b for s, b2, b in zip(self.scales, then.shifts, self.shifts))
        return Isomorphism(maps, scales, shifts)


@dataclass(frozen=True)
class ReductionTrace:
    """Per-round eliminated-action sets and the fully reduced endpoint game."""

    rounds: tuple[tuple[frozenset[str], ...], ...]
    final: NormalFormGame


class ParetoRelation(Enum):
    BETTER = "better"
    WORSE = "worse"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def _action_payoffs(game: NormalFormGame, player: int) -> list[list[Fraction]]:
    """``out[a]``: `player`'s payoffs from their action a against every
    opponent profile, in one order shared by all of their actions."""
    others = [range(len(acts)) for i, acts in enumerate(game.actions) if i != player]
    rests = list(itertools.product(*others))
    utilities = game.utilities
    return [[utilities[rest[:player] + (a,) + rest[player:]][player] for rest in rests]
            for a in range(len(game.actions[player]))]


def strictly_dominates(game: NormalFormGame, player: int, dominator: str,
                       dominated: str) -> bool:
    """Whether `dominator` yields strictly more than `dominated` for `player`
    against every opponent profile."""
    a = game.action_index(player, dominator)
    b = game.action_index(player, dominated)
    if a == b:
        raise InputError("an action cannot be compared with itself for dominance")
    payoffs = _action_payoffs(game, player)
    return all(map(operator.gt, payoffs[a], payoffs[b]))


def dominated_actions(game: NormalFormGame, player: int) -> tuple[str, ...]:
    """Actions of `player` strictly dominated by some other action of theirs."""
    game._check_player(player)
    payoffs = _action_payoffs(game, player)
    return tuple(label for b, label in enumerate(game.actions[player])
                 if any(a != b and all(map(operator.gt, row, payoffs[b]))
                        for a, row in enumerate(payoffs)))


def one_round_reduction(game: NormalFormGame) -> tuple[NormalFormGame, tuple[frozenset[str], ...]]:
    """One maximal elimination round: drop every strictly dominated action of
    every player simultaneously. Returns (subgame, per-player eliminated
    sets), derived once per game (`NormalFormGame._reduction`); the subgame
    is `game` itself when nothing is dominated."""
    return game._reduction or (game, (frozenset(),) * game.n_players)


def fully_reduce(game: NormalFormGame) -> ReductionTrace:
    """Iterated elimination of strictly dominated actions, maximal per round."""
    rounds = []
    while not is_fully_reduced(game):
        game, eliminated = one_round_reduction(game)
        rounds.append(eliminated)
    return ReductionTrace(tuple(rounds), game)


def is_fully_reduced(game: NormalFormGame) -> bool:
    return game._reduction is None


def _refine_actions(tables: Sequence[Mapping[Profile, int]],
                    shape: tuple[int, ...]) -> list[list[list[int]]]:
    """Colour refinement of the actions of same-shape games at once:
    ``colours[t][i][a]`` for game t, player i, action a. ``tables[t]`` maps
    each profile to an id of its payoff vector, shared across the games.

    An action's colour starts as its player; each round it becomes its old
    colour plus the sorted payoff ids of the profiles that use it, each
    with the colours of the other actions in that profile. Rounds stop when
    no class splits. Colours are shared across the games, so an isomorphism
    between two of them (payoffs on one scale) preserves them.
    """
    colours = [[[i] * m for i, m in enumerate(shape)] for _ in tables]
    classes = len(shape)
    while True:
        ids: dict = {}
        refined = []
        for table, old in zip(tables, colours):
            seen = [[[] for _ in range(m)] for m in shape]
            for profile, payoff in table.items():
                context = tuple(old[j][a] for j, a in enumerate(profile))
                for i, a in enumerate(profile):
                    seen[i][a].append((payoff, context[:i] + context[i + 1:]))
            refined.append([
                [ids.setdefault((old[i][a], tuple(sorted(uses))), len(ids))
                 for a, uses in enumerate(row)]
                for i, row in enumerate(seen)])
        if len(ids) == classes:
            return colours
        classes, colours = len(ids), refined


def find_isomorphisms(g1: NormalFormGame, g2: NormalFormGame) -> list[Isomorphism]:
    """All isomorphisms g1 -> g2, in lexicographic order of the per-player
    bijection encoding.

    A positive affine map carries each player's sorted payoff multiset of
    g2 onto g1's, so the games are isomorphic only if every player has the
    same primitive in both games' affine keys (`NormalFormGame._affine_key`,
    derived once per game), and the keys fix the only possible (scale,
    shift) per player before any search: scale is g1's unit over g2's,
    shift is g1's low minus scale times g2's (scale 1 where a player's
    payoffs are constant). With g2's payoffs carried into g1's
    scale, colour refinement (`_refine_actions`, as in nauty/Traces) gives
    each action its candidate images. A backtracking search then places one
    action at a time, round-robin over the players, and checks each profile
    as soon as its last action is placed.

    Games whose actions refinement tells apart take a single path through
    the search. It branches only where colour classes stay large, in
    symmetric or regular games, and there the early profile checks cut off
    branches that do not extend: on the constant, 0/1 and Latin-square
    games tried (up to 10x10 and 5x5x5) the work follows the number of
    isomorphisms, which is factorial only for highly symmetric games
    ((m!)^n for constant payoffs). No polynomial bound holds in general: game isomorphism is at
    least as hard as graph isomorphism.
    """
    if g1.shape != g2.shape:
        return []
    primitives, lows, units = g1._affine_key
    primitives2, lows2, units2 = g2._affine_key
    if primitives != primitives2:
        return []
    scales = tuple(u / u2 for u, u2 in zip(units, units2))
    shifts = tuple(b - s * b2 for s, b, b2 in zip(scales, lows, lows2))
    # payoff vectors as ids, g2's carried into g1's scale: from here on the
    # search compares exact payoffs as integers
    ids: dict[PayoffVector, int] = {}
    own = {p: ids.setdefault(vector, len(ids)) for p, vector in g1.utilities.items()}
    image = {q: ids.setdefault(tuple(s * x + b for s, b, x in zip(scales, shifts, vector)),
                               len(ids))
             for q, vector in g2.utilities.items()}
    shape = g1.shape
    mine, theirs = _refine_actions((own, image), shape)
    if any(sorted(a) != sorted(b) for a, b in zip(mine, theirs)):
        return []

    # Actions are placed round-robin (action 0 of every player, then action
    # 1, ...), so a profile is checked as soon as its last action is placed.
    slots = [(i, a) for a in range(max(shape)) for i, m in enumerate(shape) if a < m]
    position = {slot: k for k, slot in enumerate(slots)}
    completed: list[list[tuple[Profile, int]]] = [[] for _ in slots]
    for profile, payoff in own.items():
        completed[max(position[(i, a)] for i, a in enumerate(profile))].append((profile, payoff))
    candidates = [[b for b in range(shape[i]) if theirs[i][b] == mine[i][a]] for i, a in slots]

    maps = [[-1] * m for m in shape]
    used = [[False] * m for m in shape]
    out = []
    stack = [iter(candidates[0])]
    while stack:
        k = len(stack) - 1
        i, a = slots[k]
        if maps[i][a] >= 0:   # withdraw this slot's previous choice
            used[i][maps[i][a]] = False
            maps[i][a] = -1
        for b in stack[-1]:
            if used[i][b]:
                continue
            maps[i][a] = b
            if all(image[tuple(maps[j][x] for j, x in enumerate(p))] == payoff
                   for p, payoff in completed[k]):
                used[i][b] = True
                break
            maps[i][a] = -1
        else:
            stack.pop()
            continue
        if len(stack) == len(slots):
            out.append(Isomorphism(tuple(map(tuple, maps)), scales, shifts))
        else:
            stack.append(iter(candidates[len(stack)]))
    out.sort(key=lambda iso: iso.maps)
    return out


def pure_nash_equilibria(game: NormalFormGame, strict: bool = False) -> tuple[Outcome, ...]:
    """All pure Nash equilibria (strict ones if flagged), in profile order."""
    out = []
    for profile in game.profiles():
        ok = True
        for i in range(game.n_players):
            u_here = game.payoff_of(profile, i)
            for alt in range(len(game.actions[i])):
                if alt == profile[i]:
                    continue
                u_dev = game.payoff_of(profile[:i] + (alt,) + profile[i + 1:], i)
                if u_dev > u_here or (strict and u_dev == u_here):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(game.outcome(profile))
    return tuple(out)


def pareto_compare(u: Iterable, v: Iterable) -> ParetoRelation:
    """Componentwise comparison of two payoff vectors."""
    a = tuple(as_fraction(x) for x in u)
    b = tuple(as_fraction(x) for x in v)
    if len(a) != len(b):
        raise InputError("payoff vectors of different lengths are not comparable")
    geq = all(x >= y for x, y in zip(a, b))
    leq = all(x <= y for x, y in zip(a, b))
    if geq and leq:
        return ParetoRelation.EQUAL
    if geq:
        return ParetoRelation.BETTER
    if leq:
        return ParetoRelation.WORSE
    return ParetoRelation.INCOMPARABLE
