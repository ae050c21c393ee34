"""Safe-improvement definitions and deciders.

A variable Y safely improves a variable X when every satisfying assignment of
the structure gives Y an outcome weakly preferred to X's; strictly, when the
preference is strict throughout. The improvement condition is itself an
outcome-correspondence claim, so it can be decided exactly (oracle), by
propagation (complete on max-closed structures), or by refutation (adding the
non-improvement correspondence and propagating until an empty correspondence
appears; complete on join-closed structures).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from .bcs import (
    Assignment,
    Bcs,
    Correspondence,
    derivable,
    enumerate_satisfying,
    path_consistency,
)
from .closedness import is_join_closed, is_max_closed
from .errors import InputError
from .games import NormalFormGame

OutcomeKey = tuple[str, str]


@dataclass(frozen=True)
class Preference:
    """A preorder over outcomes keyed by (variable, outcome label).

    ``rows[i]`` is a bitmask: bit j set iff key i is weakly preferred to key
    j. The strict relation is derived: a > b iff a >= b and not b >= a.
    """

    domains: Mapping[str, tuple[str, ...]]
    keys: tuple[OutcomeKey, ...]
    rows: tuple[int, ...]

    def __post_init__(self):
        index = {k: i for i, k in enumerate(self.keys)}
        object.__setattr__(self, "_index", index)
        for i in range(len(self.keys)):
            if not self.rows[i] >> i & 1:
                raise InputError("preference must be reflexive")

    def _at(self, key: OutcomeKey) -> int:
        try:
            return self._index[key]
        except KeyError as exc:
            raise InputError(f"unknown outcome {key!r} in preference") from exc

    def geq(self, a: OutcomeKey, b: OutcomeKey) -> bool:
        return bool(self.rows[self._at(a)] >> self._at(b) & 1)

    def gt(self, a: OutcomeKey, b: OutcomeKey) -> bool:
        ia, ib = self._at(a), self._at(b)
        return bool(self.rows[ia] >> ib & 1) and not self.rows[ib] >> ia & 1

    @classmethod
    def from_relation(cls, domains: Mapping[str, tuple[str, ...]],
                      geq) -> "Preference":
        """Tabulate a reflexive, transitive comparison callable over all
        outcome keys. Equivalent outcomes (mutual weak preference) are
        allowed; the strict relation excludes them by derivation."""
        keys = tuple((var, o) for var, dom in domains.items() for o in dom)
        rows = []
        for a in keys:
            mask = 0
            for j, b in enumerate(keys):
                if geq(a, b):
                    mask |= 1 << j
            rows.append(mask)
        return cls(dict(domains), keys, tuple(rows))

    @classmethod
    def from_pairs(cls, domains: Mapping[str, tuple[str, ...]],
                   geq_pairs: Sequence[tuple[OutcomeKey, OutcomeKey]]) -> "Preference":
        """Explicit preference: the listed pairs, closed under reflexivity and
        transitivity; cycles that would collapse the strict relation between
        distinct outcomes are rejected."""
        keys = tuple((var, o) for var, dom in domains.items() for o in dom)
        index = {k: i for i, k in enumerate(keys)}
        rows = [1 << i for i in range(len(keys))]
        for a, b in geq_pairs:
            if a not in index or b not in index:
                raise InputError(f"preference pair ({a!r}, {b!r}) is outside the domains")
            rows[index[a]] |= 1 << index[b]
        changed = True
        while changed:
            changed = False
            for i in range(len(keys)):
                acc = rows[i]
                r = rows[i]
                while r:
                    j = (r & -r).bit_length() - 1
                    acc |= rows[j]
                    r &= r - 1
                if acc != rows[i]:
                    rows[i] = acc
                    changed = True
        for i in range(len(keys)):
            for j in range(i + 1, len(keys)):
                if rows[i] >> j & 1 and rows[j] >> i & 1:
                    raise InputError(
                        f"preference cycle between {keys[i]!r} and {keys[j]!r} "
                        "would collapse the strict relation")
        return cls(dict(domains), keys, tuple(rows))


def _game_domains(games: Sequence[NormalFormGame]) -> dict[str, tuple[str, ...]]:
    return {g.name: g.outcome_labels() for g in games}


def pareto_preference(games: Sequence[NormalFormGame]) -> Preference:
    """Componentwise comparison of payoff vectors across all listed games.

    Requires a common player count so utilities are comparable across games.
    """
    counts = {g.n_players for g in games}
    if len(counts) > 1:
        raise InputError("games with different player counts are not Pareto-comparable")
    payoff = {(g.name, g.profile_label(p)): g.payoff(p)
              for g in games for p in g.profiles()}

    def geq(a, b):
        return all(x >= y for x, y in zip(payoff[a], payoff[b]))

    return Preference.from_relation(_game_domains(games), geq)


def player_preference(games: Sequence[NormalFormGame], player: int) -> Preference:
    """One player's utility comparison across all listed games."""
    for g in games:
        if not 0 <= player < g.n_players:
            raise InputError(f"no player {player} in game {g.name!r}")
    payoff = {(g.name, g.profile_label(p)): g.payoff_of(p, player)
              for g in games for p in g.profiles()}
    return Preference.from_relation(_game_domains(games), lambda a, b: payoff[a] >= payoff[b])


def improvement_oc(x: str, y: str, pref: Preference, strict: bool) -> Correspondence:
    """The improvement claim as a correspondence: each outcome of x maps to
    the outcomes of y (weakly or strictly) preferred to it."""
    for var in (x, y):
        if var not in pref.domains:
            raise InputError(f"unknown variable {var!r} in preference")
    better = pref.gt if strict else pref.geq
    pairs = [(o, o2) for o in pref.domains[x] for o2 in pref.domains[y]
             if better((y, o2), (x, o))]
    return Correspondence.from_pairs(x, y, pref.domains[x], pref.domains[y], pairs)


class DecisionMode(Enum):
    EXACT = "exact"
    PROPAGATION = "propagation"
    REFUTATION = "refutation"


@dataclass(frozen=True)
class SiVerdict:
    """Decision outcome, labeled with the mode that produced it.

    Only exact-mode "no" carries a counterexample. `certified` is set when a
    closedness certificate was supplied and verified, i.e. when a
    propagation/refutation verdict is known to be complete.
    """

    yes: bool
    mode: DecisionMode
    counterexample: Assignment | None = None
    certified: bool = False


def _check_pref_matches(bcs: Bcs, pref: Preference, x: str, y: str) -> None:
    for var in (x, y):
        if pref.domains.get(var) != bcs.domain(var):
            raise InputError(
                f"preference domain for {var!r} does not match the structure")


def verify_certificate(bcs: Bcs, mode: DecisionMode,
                       orders: Mapping[str, tuple[str, ...]] | None = None,
                       joins: Mapping[str, Mapping[tuple[str, str], str]] | None = None) -> bool:
    """Whether the supplied certificate makes `mode`'s verdicts complete.

    Orders certify propagation mode (max-closedness), joins certify
    refutation mode (join-closedness); exact mode needs no certificate and a
    certificate for another mode is ignored. The certificate for `mode` is
    verified, and one that fails raises.
    """
    if mode is DecisionMode.PROPAGATION and orders is not None:
        report, claim = is_max_closed(bcs, orders), "orders do not certify max-closedness"
    elif mode is DecisionMode.REFUTATION and joins is not None:
        report, claim = is_join_closed(bcs, joins), "joins do not certify join-closedness"
    else:
        return False
    if not report.closed:
        raise InputError(f"supplied {claim}: {report.witness}")
    return True


def decide_si(bcs: Bcs, x: str, y: str, pref: Preference, strict: bool = False,
              mode: DecisionMode = DecisionMode.EXACT,
              orders: Mapping[str, tuple[str, ...]] | None = None,
              joins: Mapping[str, Mapping[tuple[str, str], str]] | None = None) -> SiVerdict:
    """Decide whether y is a (strict) safe improvement on x.

    exact: unsatisfiability of the structure plus the non-improvement
    correspondence, via the backtracking oracle, with counterexample
    extraction. propagation: the improvement claim is contained in the
    propagation fixed point (complete on max-closed structures). refutation:
    add the non-improvement correspondence, propagate, and answer yes iff an
    everywhere-empty correspondence is derived (complete on join-closed
    structures). Supplied order/join certificates are checked by
    :func:`verify_certificate`.
    """
    bcs.var(x), bcs.var(y)
    _check_pref_matches(bcs, pref, x, y)
    claim = improvement_oc(x, y, pref, strict)
    certified = verify_certificate(bcs, mode, orders, joins)

    if mode is DecisionMode.EXACT:
        witnesses = enumerate_satisfying(bcs.with_constraints([claim.complement()]), limit=1)
        if witnesses:
            return SiVerdict(False, mode, counterexample=witnesses[0])
        return SiVerdict(True, mode)

    if mode is DecisionMode.PROPAGATION:
        return SiVerdict(derivable(path_consistency(bcs), claim), mode, certified=certified)

    if mode is DecisionMode.REFUTATION:
        propagated = path_consistency(bcs.with_constraints([claim.complement()]))
        return SiVerdict(propagated.has_empty, mode, certified=certified)

    raise InputError(f"unknown decision mode {mode!r}")


def find_si_on(bcs: Bcs, x: str, pref: Preference, strict: bool = False,
               mode: DecisionMode = DecisionMode.EXACT,
               orders=None, joins=None) -> list[str]:
    """All variables that (strictly) safely improve on x, in variable order.
    A supplied certificate is verified once, not per variable."""
    bcs.var(x)
    verify_certificate(bcs, mode, orders, joins)
    return [v.id for v in bcs.variables if v.id != x and
            decide_si(bcs, x, v.id, pref, strict, mode).yes]


def find_any_si(bcs: Bcs, pref: Preference, strict: bool = False,
                mode: DecisionMode = DecisionMode.EXACT,
                orders=None, joins=None) -> list[tuple[str, str]]:
    """All ordered pairs (x, y), x != y, where y safely improves on x.
    A supplied certificate is verified once, not per pair."""
    verify_certificate(bcs, mode, orders, joins)
    out = []
    for a, b in itertools.permutations([v.id for v in bcs.variables], 2):
        if decide_si(bcs, a, b, pref, strict, mode).yes:
            out.append((a, b))
    return out
