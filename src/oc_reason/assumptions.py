"""Outcome-correspondence generation from game-theoretic assumptions.

Four families of constraints over a set of games: elimination of strictly
dominated strategies, isomorphic play of isomorphic games, pure-Nash
self-loops, and the decreasing-risk correspondence between labeled 2x2
coordination pairs. `build_assumption_bcs` assembles any selection of them
into a binary constraint structure with one variable per game.

Each family's constraints are derived in `_derive_constraints` alone, which
`closedness` also runs to learn which family generated each constraint; the
`_Searches` memo there derives reduction flags and isomorphisms once per call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .bcs import Bcs, Correspondence, Variable
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


def oc_dominance(game: NormalFormGame) -> tuple[NormalFormGame, Correspondence]:
    """One maximal round of strict-dominance elimination plus the induced
    correspondence: surviving outcomes map to themselves, outcomes using an
    eliminated action map to nothing. Games without dominated actions get the
    identity correspondence on themselves unchanged."""
    sub, eliminated = one_round_reduction(game)
    source_dom = game.outcome_labels()
    if all(not e for e in eliminated):
        return game, Correspondence.identity(game.name, source_dom)
    sub = NormalFormGame(game.name + "_reduced", sub.actions, sub.utilities)
    target_dom = sub.outcome_labels()
    survivors = set(target_dom)
    pairs = [(o, o) for o in source_dom if o in survivors]
    return sub, Correspondence.from_pairs(game.name, sub.name, source_dom, target_dom, pairs)


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
    pairs = []
    for profile in g1.profiles():
        image_sets = [
            sorted({iso.maps[i][profile[i]] for iso in isos})
            for i in range(g1.n_players)
        ]
        src = g1.profile_label(profile)
        for target in itertools.product(*image_sets):
            pairs.append((src, g2.profile_label(target)))
    return Correspondence.from_pairs(g1.name, g2.name, g1.outcome_labels(),
                                     g2.outcome_labels(), pairs)


def oc_nash(game: NormalFormGame) -> Correspondence:
    """Self-loop correspondence keeping exactly the pure Nash equilibria."""
    oc = _oc_nash(game, pure_nash_equilibria(game))
    if oc is None:
        raise InputError(
            f"game {game.name!r} has no pure Nash equilibrium; "
            "the pure-Nash assumption does not apply")
    return oc


def _oc_nash(game: NormalFormGame, equilibria) -> Correspondence | None:
    """`oc_nash` from the game's pure equilibria; None when there are none."""
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
    for i in (0, 1):
        for k, opp in ((1, "top"), (2, "safe")):
            o1 = (t1 if k == 1 else s1)[1 - i]
            o2 = (t2 if k == 1 else s2)[1 - i]
            prof1_top = (t1[0], o1) if i == 0 else (o1, t1[1])
            prof2_top = (t2[0], o2) if i == 0 else (o2, t2[1])
            if g2.payoff_of(prof2_top, i) < g1.payoff_of(prof1_top, i):
                raise InputError(
                    f"inequality failed: player {i + 1} top-action payoff against the "
                    f"{opp} opponent action is {g2.payoff_of(prof2_top, i)} in "
                    f"{g2.name!r}, below {g1.payoff_of(prof1_top, i)} in {g1.name!r}")
            prof1_safe = (s1[0], o1) if i == 0 else (o1, s1[1])
            prof2_safe = (s2[0], o2) if i == 0 else (o2, s2[1])
            if g2.payoff_of(prof2_safe, i) > g1.payoff_of(prof1_safe, i):
                raise InputError(
                    f"inequality failed: player {i + 1} safe-action payoff against the "
                    f"{opp} opponent action is {g2.payoff_of(prof2_safe, i)} in "
                    f"{g2.name!r}, above {g1.payoff_of(prof1_safe, i)} in {g1.name!r}")
    return (t1, s1), (t2, s2)


def oc_decreasing_risk(g1: NormalFormGame, g2: NormalFormGame,
                       pair: DecreasingRiskPair) -> Correspondence:
    """The product correspondence of the per-player maps: the top action maps
    to the top action alone, the safe action to both. Preconditions (strict
    equilibria, Pareto domination, the eight payoff inequalities) are checked
    and the failed inequality is named on error."""
    (t1, s1), (t2, s2) = _risk_preconditions(g1, g2, pair)
    per_player = []
    for i in range(2):
        per_player.append({
            t1[i]: (t2[i],),
            s1[i]: (t2[i], s2[i]),
        })
    pairs = []
    for profile in g1.profiles():
        src = g1.profile_label(profile)
        for target in itertools.product(*(per_player[i][profile[i]] for i in range(2))):
            pairs.append((src, g2.profile_label(target)))
    return Correspondence.from_pairs(g1.name, g2.name, g1.outcome_labels(),
                                     g2.outcome_labels(), pairs)


def discover_risk_labelings(g1: NormalFormGame, g2: NormalFormGame) -> list[DecreasingRiskPair]:
    """All labelings under which the decreasing-risk assumption applies to the
    ordered pair (g1, g2)."""
    if any(g.n_players != 2 or g.shape != (2, 2) for g in (g1, g2)):
        return []

    def candidates(g):
        strict = [o.profile for o in pure_nash_equilibria(g, strict=True)]
        out = []
        for top, safe in itertools.permutations(strict, 2):
            if all(top[i] != safe[i] for i in range(2)) and \
                    pareto_compare(g.payoff(top), g.payoff(safe)) is ParetoRelation.BETTER:
                out.append((top, safe))
        return out

    labelings = []
    for (t1, s1), (t2, s2) in itertools.product(candidates(g1), candidates(g2)):
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
    """Reduction flags and isomorphism lists of one game list, each derived
    at most once during the call that made it."""

    def __init__(self):
        self._reduced: dict[str, bool] = {}
        self._isomorphisms: dict[tuple[str, str], list[Isomorphism]] = {}

    def reduced(self, game: NormalFormGame) -> bool:
        if game.name not in self._reduced:
            self._reduced[game.name] = is_fully_reduced(game)
        return self._reduced[game.name]

    def isomorphisms(self, g1: NormalFormGame, g2: NormalFormGame) -> list[Isomorphism]:
        key = (g1.name, g2.name)
        if key not in self._isomorphisms:
            self._isomorphisms[key] = find_isomorphisms(g1, g2)
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
            if g.name not in allowed:
                continue
            sub, oc = oc_dominance(g)
            if sub.same_payoffs(g):
                continue
            for other in games:
                if other.name != g.name and other.same_payoffs(sub):
                    yield "dominance", Correspondence(
                        g.name, other.name, oc.source_domain, oc.target_domain, oc.rows), None

    if selection.isomorphism:
        allowed_pairs = None
        if selection.isomorphism_pairs is not None:
            allowed_pairs = {frozenset(p) for p in selection.isomorphism_pairs}
        for g1, g2 in itertools.combinations(games, 2):
            if allowed_pairs is not None and frozenset((g1.name, g2.name)) not in allowed_pairs:
                continue
            if not (searches.reduced(g1) and searches.reduced(g2)):
                continue
            oc = _oc_isomorphism(g1, g2, searches.isomorphisms(g1, g2))
            if oc is not None:
                yield "isomorphism", oc, (g1.name, g2.name)

    if selection.nash:
        allowed = set(names if selection.nash_games is None else selection.nash_games)
        for g in games:
            oc = _oc_nash(g, pure_nash_equilibria(g)) if g.name in allowed else None
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

    variables = tuple(Variable(g.name, g.outcome_labels()) for g in games)
    constraints = tuple(oc for _, oc, _ in _derive_constraints(games, selection, _Searches()))
    return Bcs(variables, constraints)
