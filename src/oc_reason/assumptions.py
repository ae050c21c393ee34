"""Outcome-correspondence generation from game-theoretic assumptions.

Four families of constraints over a set of games: elimination of strictly
dominated strategies, isomorphic play of isomorphic games, pure-Nash
self-loops, and the decreasing-risk correspondence between labeled 2x2
coordination pairs. `build_assumption_bcs` assembles any selection of them
into a binary constraint structure with one variable per game.

Dominance, isomorphism and decreasing risk are per-player products: each
action maps to a set of the other game's actions, and an outcome to the
product of its actions' images. `_product_oc` builds all three. A dominance
constraint is built straight onto each listed game equal to the reduction.

Each family's constraints are derived in `_derive_constraints` alone. A
game's one-round reduction and affine key are facts of the game, derived
once on it (`NormalFormGame._reduction` and `_affine_key`). The `_Searches`
memo holds what concerns pairs: it searches for isomorphisms, once per
ordered pair, only between games of one shape whose players' primitives are
equal, since a positive affine map exists between no other pair.

`closedness` must know which family generated each constraint, and
`_constraint_records` tells it. A structure from `build_assumption_bcs`
carries its derivation: the family and payload of each constraint, and the
memo it searched with, for the very game objects it was built from. Any
other structure, or the same one asked about other game objects, is
classified by deriving every family again (`_classify`).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

from .bcs import Bcs, Correspondence, Variable, inverse
from .errors import InputError
from .games import (
    Isomorphism,
    NormalFormGame,
    ParetoRelation,
    find_isomorphisms,
    is_fully_reduced,
    one_round_reduction,
    pareto_compare,
    pure_nash_equilibria,
)


@dataclass(frozen=True)
class DecreasingRiskPair:
    """A caller-designated pair of 2x2 games with labeled equilibria.

    ``g1_top``/``g2_top`` are the (player 1 action, player 2 action) profiles
    of the Pareto-dominant strict equilibrium in each game; ``g1_safe``/
    ``g2_safe`` those of the dominated one.
    """

    g1: str
    g2: str
    g1_top: tuple[str, str]
    g1_safe: tuple[str, str]
    g2_top: tuple[str, str]
    g2_safe: tuple[str, str]


@dataclass(frozen=True)
class AssumptionSelection:
    """Which assumption families to apply, with optional per-family
    restrictions to explicit games or game pairs. A restriction of None
    applies its family to every game; a tuple applies it to the named games
    or pairs only, none when empty, and must name games of the list."""

    dominance: bool = False
    isomorphism: bool = False
    nash: bool = False
    decreasing_risk: tuple[DecreasingRiskPair, ...] = ()
    dominance_games: tuple[str, ...] | None = None
    isomorphism_pairs: tuple[tuple[str, str], ...] | None = None
    nash_games: tuple[str, ...] | None = None

    def __post_init__(self):
        if not (self.dominance or self.isomorphism or self.nash or self.decreasing_risk):
            raise InputError("at least one assumption must be selected")


def _product_oc(g1: NormalFormGame, g2: NormalFormGame, images) -> Correspondence:
    """The correspondence taking each g1 profile to the product of its
    per-player images, ``images[i][a]`` listing the g2 actions of player i's
    action a: its row is the OR of ``1 << k`` over that product, k being a
    target's row-major index."""
    strides = [math.prod(g2.shape[i + 1:]) for i in range(g2.n_players)]
    rows = []
    for profile in g1.profiles():
        row = 0
        for target in itertools.product(*(images[i][a] for i, a in enumerate(profile))):
            row |= 1 << sum(b * s for b, s in zip(target, strides))
        rows.append(row)
    return Correspondence(g1.name, g2.name, g1.outcome_labels(), g2.outcome_labels(), tuple(rows))


def oc_dominance(game: NormalFormGame) -> tuple[NormalFormGame, Correspondence]:
    """One maximal round of strict-dominance elimination plus the induced
    correspondence: surviving outcomes map to themselves, outcomes using an
    eliminated action map to nothing. Games without dominated actions get the
    identity correspondence on themselves unchanged."""
    sub = one_round_reduction(game)[0]
    if sub is game:
        return game, Correspondence.identity(game.name, game.outcome_labels())
    sub = NormalFormGame(game.name + "_reduced", sub.actions, sub.utilities)
    return sub, _product_oc(game, sub, _survivor_images(game, sub))


def _survivor_images(game: NormalFormGame, sub: NormalFormGame):
    """Per player, each action's index in the reduction `sub`, or none when
    it was eliminated: the images `_product_oc` takes onto `sub`."""
    return [[(kept.index(a),) if a in kept else () for a in acts]
            for acts, kept in zip(game.actions, sub.actions)]


def oc_isomorphism(g1: NormalFormGame, g2: NormalFormGame) -> Correspondence | None:
    """The correspondence induced by the full isomorphism set: each outcome
    maps to the product of its per-player image sets. Returns None when the
    games are not isomorphic. Only applicable to games without strictly
    dominated strategies."""
    for g in (g1, g2):
        if not is_fully_reduced(g):
            raise InputError(
                f"game {g.name!r} has strictly dominated strategies; "
                "the isomorphism assumption does not apply")
    return _oc_isomorphism(g1, g2, find_isomorphisms(g1, g2))


def _oc_isomorphism(g1: NormalFormGame, g2: NormalFormGame,
                    isos: list[Isomorphism]) -> Correspondence | None:
    """`oc_isomorphism` from the isomorphism list g1 -> g2, for callers that
    have checked both games for dominated strategies themselves."""
    if not isos:
        return None
    return _product_oc(g1, g2, [[{iso.maps[i][a] for iso in isos} for a in range(len(acts))]
                                for i, acts in enumerate(g1.actions)])


def oc_nash(game: NormalFormGame) -> Correspondence:
    """Self-loop correspondence keeping exactly the pure Nash equilibria."""
    oc = _oc_nash(game)
    if oc is None:
        raise InputError(
            f"game {game.name!r} has no pure Nash equilibrium; "
            "the pure-Nash assumption does not apply")
    return oc


def _oc_nash(game: NormalFormGame) -> Correspondence | None:
    """`oc_nash`, or None when the game has no pure equilibrium."""
    equilibria = pure_nash_equilibria(game)
    if not equilibria:
        return None
    dom = game.outcome_labels()
    return Correspondence.from_pairs(game.name, game.name, dom, dom,
                                     [(o.label, o.label) for o in equilibria])


def _risk_preconditions(g1: NormalFormGame, g2: NormalFormGame,
                        pair: DecreasingRiskPair) -> tuple[tuple[int, int], ...]:
    """Validate the decreasing-risk preconditions; returns per-game
    (top action index, safe action index) per player as ((t1,s1),(t2,s2))
    for g1 followed by g2."""
    for g in (g1, g2):
        if g.n_players != 2 or g.shape != (2, 2):
            raise InputError(f"decreasing-risk needs 2x2 games, got {g.name!r} {g.shape}")

    def indices(g, top, safe):
        t = tuple(g.action_index(i, top[i]) for i in range(2))
        s = tuple(g.action_index(i, safe[i]) for i in range(2))
        if any(t[i] == s[i] for i in range(2)):
            raise InputError(f"labeled profiles of {g.name!r} must use distinct actions")
        return t, s

    (t1, s1) = indices(g1, pair.g1_top, pair.g1_safe)
    (t2, s2) = indices(g2, pair.g2_top, pair.g2_safe)

    for g, t, s in ((g1, t1, s1), (g2, t2, s2)):
        strict = {o.profile for o in pure_nash_equilibria(g, strict=True)}
        for prof, role in ((t, "top"), (s, "safe")):
            if prof not in strict:
                raise InputError(
                    f"{role} profile {g.profile_label(prof)!r} of {g.name!r} "
                    "is not a strict Nash equilibrium")
        if pareto_compare(g.payoff(t), g.payoff(s)) is not ParetoRelation.BETTER:
            raise InputError(
                f"top profile of {g.name!r} does not strictly Pareto-dominate the safe one")

    # payoff inequalities: the top action only becomes more attractive, the
    # safe action only less, for both players against both labeled opponents
    labeled = (("top", t1, t2), ("safe", s1, s2))
    for i, (opp, o1, o2), (role, a1, a2) in itertools.product((0, 1), labeled, labeled):
        u1, u2 = (g.payoff_of((a[0], o[1]) if i == 0 else (o[0], a[1]), i)
                  for g, a, o in ((g1, a1, o1), (g2, a2, o2)))
        if u2 < u1 if role == "top" else u2 > u1:
            raise InputError(
                f"inequality failed: player {i + 1} {role}-action payoff against the "
                f"{opp} opponent action is {u2} in {g2.name!r}, "
                f"{'below' if role == 'top' else 'above'} {u1} in {g1.name!r}")
    return (t1, s1), (t2, s2)


def oc_decreasing_risk(g1: NormalFormGame, g2: NormalFormGame,
                       pair: DecreasingRiskPair) -> Correspondence:
    """The product correspondence of the per-player maps: the top action maps
    to the top action alone, the safe action to both. Preconditions (strict
    equilibria, Pareto domination, the eight payoff inequalities) are checked
    and the failed inequality is named on error."""
    (t1, s1), (t2, s2) = _risk_preconditions(g1, g2, pair)
    return _product_oc(g1, g2, [{t1[i]: (t2[i],), s1[i]: (t2[i], s2[i])} for i in range(2)])


def discover_risk_labelings(g1: NormalFormGame, g2: NormalFormGame) -> list[DecreasingRiskPair]:
    """All labelings under which the decreasing-risk assumption applies to the
    ordered pair (g1, g2)."""
    if any(g.n_players != 2 or g.shape != (2, 2) for g in (g1, g2)):
        return []

    # every ordered pair of strict equilibria per game: _risk_preconditions
    # rejects shared actions and a top that does not Pareto-dominate
    strict = ([o.profile for o in pure_nash_equilibria(g, strict=True)] for g in (g1, g2))
    labelings = []
    for (t1, s1), (t2, s2) in itertools.product(*(itertools.permutations(p, 2) for p in strict)):
        pair = DecreasingRiskPair(
            g1.name, g2.name,
            tuple(g1.actions[i][t1[i]] for i in range(2)),
            tuple(g1.actions[i][s1[i]] for i in range(2)),
            tuple(g2.actions[i][t2[i]] for i in range(2)),
            tuple(g2.actions[i][s2[i]] for i in range(2)),
        )
        try:
            _risk_preconditions(g1, g2, pair)
        except InputError:
            continue
        labelings.append(pair)
    return labelings


class _Searches:
    """Per ordered pair of games of one list, keyed by names, its
    isomorphism list, found at most once during the call that made the memo.
    `find_isomorphisms` runs only for games of one shape whose players'
    primitives are all equal, since no other pair is isomorphic; the games
    keep their own reductions and affine keys."""

    def __init__(self):
        self._isomorphisms: dict[tuple[str, str], list[Isomorphism]] = {}

    def isomorphisms(self, g1: NormalFormGame, g2: NormalFormGame) -> list[Isomorphism]:
        key = (g1.name, g2.name)
        if key not in self._isomorphisms:
            keyed = g1.shape == g2.shape and g1._affine_key[0] == g2._affine_key[0]
            self._isomorphisms[key] = find_isomorphisms(g1, g2) if keyed else []
        return self._isomorphisms[key]


def _derive_constraints(games: list[NormalFormGame], selection: AssumptionSelection,
                        searches: _Searches) -> Iterator[tuple[str, Correspondence, object]]:
    """Every constraint the selection generates over the games, in order, as
    (family, constraint, payload): the family is "dominance", "isomorphism",
    "nash" or "risk"; the payload is the game-name pair of an isomorphism
    constraint, the labeling of a decreasing-risk one and None otherwise."""
    names = [g.name for g in games]
    if selection.dominance:
        allowed = set(names if selection.dominance_games is None else selection.dominance_games)
        for g in games:
            if g.name not in allowed or is_fully_reduced(g):
                continue
            sub = one_round_reduction(g)[0]
            images = _survivor_images(g, sub)
            for other in games:
                if other.same_payoffs(sub):    # never g, which has more actions
                    yield "dominance", _product_oc(g, other, images), None

    if selection.isomorphism:
        allowed_pairs = None
        if selection.isomorphism_pairs is not None:
            allowed_pairs = {frozenset(p) for p in selection.isomorphism_pairs}
        for g1, g2 in itertools.combinations(games, 2):
            if allowed_pairs is not None and frozenset((g1.name, g2.name)) not in allowed_pairs:
                continue
            if not (is_fully_reduced(g1) and is_fully_reduced(g2)):
                continue
            oc = _oc_isomorphism(g1, g2, searches.isomorphisms(g1, g2))
            if oc is not None:
                yield "isomorphism", oc, (g1.name, g2.name)

    if selection.nash:
        allowed = set(names if selection.nash_games is None else selection.nash_games)
        for g in games:
            oc = _oc_nash(g) if g.name in allowed else None
            if oc is not None:
                yield "nash", oc, None

    by_name = {g.name: g for g in games}
    for pair in selection.decreasing_risk:
        if pair.g1 not in by_name or pair.g2 not in by_name:
            raise InputError(f"decreasing-risk pair references unknown games "
                             f"({pair.g1!r}, {pair.g2!r})")
        yield "risk", oc_decreasing_risk(by_name[pair.g1], by_name[pair.g2], pair), pair


def build_assumption_bcs(games: list[NormalFormGame],
                         selection: AssumptionSelection) -> Bcs:
    """Assemble the selected assumptions over a game list into a BCS.

    One variable per game (domain: its outcome labels). Dominance constraints
    are emitted only when a game's one-round reduction is itself in the list
    (matched structurally); isomorphism constraints for unordered pairs of
    fully reduced games; pure-Nash self-loops where applicable; decreasing-risk
    constraints exactly for the supplied pairs. Multiple constraints on the
    same pair are kept separately.

    The structure carries its derivation as a private attribute, not a field:
    `orders_for_assumptions` reads it when given these same game objects in
    this order, and nothing else sees it (equality, hashing, repr and JSON
    are those of the variables and constraints alone).
    """
    if not games:
        raise InputError("need at least one game")
    names = [g.name for g in games]
    if len(set(names)) != len(names):
        raise InputError("duplicate game names")
    restricted = [("dominance_games", selection.dominance_games or ()),
                  ("nash_games", selection.nash_games or ()),
                  ("isomorphism_pairs", [n for p in selection.isomorphism_pairs or () for n in p])]
    for key, listed in restricted:
        unknown = [n for n in listed if n not in names]
        if unknown:
            raise InputError(f"{key} names unknown games {unknown}")

    searches = _Searches()
    derived = list(_derive_constraints(games, selection, searches))
    bcs = Bcs(tuple(Variable(g.name, g.outcome_labels()) for g in games),
              tuple(oc for _, oc, _ in derived))
    object.__setattr__(bcs, "_derivation", _Derivation(
        tuple(games), tuple((kind, payload) for kind, _, payload in derived), searches))
    return bcs


class _Derivation(NamedTuple):
    """What `build_assumption_bcs` derived a structure from: the games, the
    (family, payload) record of each constraint and the search memo."""

    games: tuple[NormalFormGame, ...]
    records: tuple[tuple[str, object], ...]
    searches: _Searches


def _classify(games: list[NormalFormGame], bcs: Bcs,
              searches: _Searches) -> Iterator[tuple[str, object]]:
    """The (family, payload) record of each constraint of the structure, in
    order: the first candidate that every family (decreasing risk under every
    discovered labeling) generates over the games, or its inverse, matches.
    Raises on reaching a constraint that matches no candidate."""
    labelings = [lab for g1, g2 in itertools.permutations(games, 2)
                 for lab in discover_risk_labelings(g1, g2)]
    labelings += [lab for g in games for lab in discover_risk_labelings(g, g)]
    everything = AssumptionSelection(dominance=True, isomorphism=True, nash=True,
                                     decreasing_risk=tuple(labelings))
    generated: dict[tuple, tuple[str, object]] = {}
    for kind, oc, payload in _derive_constraints(games, everything, searches):
        for cand in (oc, inverse(oc)):
            generated.setdefault((cand.source, cand.target, cand.rows), (kind, payload))
    for c in bcs.constraints:
        matched = generated.get((c.source, c.target, c.rows))
        if matched is None:
            raise InputError(
                f"constraint {c.source}->{c.target} was not generated by the assumption set")
        yield matched


def _constraint_records(games: Sequence[NormalFormGame],
                        bcs: Bcs) -> tuple[Iterable[tuple[str, object]], _Searches]:
    """The (family, payload) record of each constraint of the structure, and
    a search memo over the games. The derivation `build_assumption_bcs`
    attached answers when `games` holds the very objects, in order, that
    built the structure; otherwise every family is derived again with a new
    memo (`_classify`), whose records raise at a foreign constraint."""
    derivation = getattr(bcs, "_derivation", None)
    if derivation is not None and len(derivation.games) == len(games) and \
            all(map(operator.is_, derivation.games, games)):
        return derivation.records, derivation.searches
    searches = _Searches()
    return _classify(games, bcs, searches), searches
