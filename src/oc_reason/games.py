"""Normal-form games with exact rational payoffs.

Games are immutable values: per-player action lists plus a total utility
table mapping each pure strategy profile to a payoff vector. All payoffs are
`fractions.Fraction`, never floats, so dominance checks, Nash enumeration and
affine isomorphism fitting are exact.

Outcome labels used elsewhere in the package (BCS domains, preferences) are
the comma-joined action labels in player order, e.g. ``"C,D"``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InputError

Profile = tuple[int, ...]
PayoffVector = tuple[Fraction, ...]

RationalLike = int | str | Fraction | tuple


def as_fraction(value) -> Fraction:
    """Coerce an int, "p/q" string, Fraction, or (p, q) pair to a Fraction."""
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
    if isinstance(value, (tuple, list)) and len(value) == 2:
        try:
            return Fraction(int(value[0]), int(value[1]))
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot interpret {value!r} as an exact rational") from exc
    raise InputError(f"cannot interpret {value!r} as an exact rational")


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
        table: dict[Profile, PayoffVector] = {}
        for key, vector in utilities.items():
            if all(isinstance(k, int) for k in key):
                profile = tuple(key)
            else:
                try:
                    profile = tuple(acts[i].index(k) for i, k in enumerate(key))
                except (ValueError, IndexError) as exc:
                    raise InputError(f"unknown action in utility key {key!r}") from exc
            table[profile] = tuple(as_fraction(v) for v in vector)
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
        return tuple(self.profile_label(p) for p in self.profiles())

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


def strictly_dominates(game: NormalFormGame, player: int, dominator: str,
                       dominated: str) -> bool:
    """Whether `dominator` yields strictly more than `dominated` for `player`
    against every opponent profile."""
    a = game.action_index(player, dominator)
    b = game.action_index(player, dominated)
    if a == b:
        raise InputError("an action cannot be compared with itself for dominance")
    others = [range(len(acts)) for i, acts in enumerate(game.actions) if i != player]
    for rest in itertools.product(*others):
        profile_a = rest[:player] + (a,) + rest[player:]
        profile_b = rest[:player] + (b,) + rest[player:]
        if game.payoff_of(profile_a, player) <= game.payoff_of(profile_b, player):
            return False
    return True


def dominated_actions(game: NormalFormGame, player: int) -> tuple[str, ...]:
    """Actions of `player` strictly dominated by some other action of theirs."""
    game._check_player(player)
    out = []
    for dominated in game.actions[player]:
        for dominator in game.actions[player]:
            if dominator != dominated and strictly_dominates(game, player, dominator, dominated):
                out.append(dominated)
                break
    return tuple(out)


def one_round_reduction(game: NormalFormGame) -> tuple[NormalFormGame, tuple[frozenset[str], ...]]:
    """One maximal elimination round: drop every strictly dominated action of
    every player simultaneously. Returns (subgame, per-player eliminated sets)."""
    eliminated = tuple(frozenset(dominated_actions(game, i)) for i in range(game.n_players))
    if all(not e for e in eliminated):
        return game, eliminated
    kept = [
        [a for a in game.actions[i] if a not in eliminated[i]]
        for i in range(game.n_players)
    ]
    return game.restrict(kept), eliminated


def fully_reduce(game: NormalFormGame) -> ReductionTrace:
    """Iterated elimination of strictly dominated actions, maximal per round."""
    rounds = []
    current = game
    while True:
        nxt, eliminated = one_round_reduction(current)
        if all(not e for e in eliminated):
            return ReductionTrace(tuple(rounds), current)
        rounds.append(eliminated)
        current = nxt


def is_fully_reduced(game: NormalFormGame) -> bool:
    return all(not dominated_actions(game, i) for i in range(game.n_players))


def _affine_fit(pairs: list[tuple[Fraction, Fraction]]) -> tuple[Fraction, Fraction] | None:
    """Find (scale, shift) with scale > 0 and u = scale*v + shift for all (u, v) pairs.

    When v is constant the scale is unconstrained; it is canonicalized to 1.
    """
    base_u, base_v = pairs[0]
    other = next(((u, v) for u, v in pairs if v != base_v), None)
    if other is None:
        if any(u != base_u for u, _ in pairs):
            return None
        return Fraction(1), base_u - base_v
    scale = (other[0] - base_u) / (other[1] - base_v)
    if scale <= 0:
        return None
    shift = base_u - scale * base_v
    if all(u == scale * v + shift for u, v in pairs):
        return scale, shift
    return None


def _multiset_prefilter(g1: NormalFormGame, g2: NormalFormGame) -> bool:
    """Per-player payoff-multiset check: a positive affine map between the sorted
    multisets must exist for an isomorphism to be possible."""
    for i in range(g1.n_players):
        u = sorted(g1.payoff_of(p, i) for p in g1.profiles())
        v = sorted(g2.payoff_of(p, i) for p in g2.profiles())
        if _affine_fit(list(zip(u, v))) is None:
            return False
    return True


def find_isomorphisms(g1: NormalFormGame, g2: NormalFormGame) -> list[Isomorphism]:
    """All isomorphisms g1 -> g2, in lexicographic order of the per-player
    bijection encoding.

    Exhaustive over per-player action bijections (factorial in action counts;
    intended for games with at most ~6 actions per player), with a per-player
    payoff-multiset prefilter as the only pruning.
    """
    if g1.n_players != g2.n_players or g1.shape != g2.shape:
        return []
    if not _multiset_prefilter(g1, g2):
        return []
    out = []
    profiles = list(g1.profiles())
    per_player = [itertools.permutations(range(m)) for m in g1.shape]
    for maps in itertools.product(*per_player):
        scales, shifts = [], []
        ok = True
        for i in range(g1.n_players):
            pairs = [
                (g1.payoff_of(p, i), g2.payoff_of(tuple(maps[j][a] for j, a in enumerate(p)), i))
                for p in profiles
            ]
            fit = _affine_fit(pairs)
            if fit is None:
                ok = False
                break
            scales.append(fit[0])
            shifts.append(fit[1])
        if ok:
            out.append(Isomorphism(tuple(maps), tuple(scales), tuple(shifts)))
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
