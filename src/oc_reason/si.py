"""Safe-improvement definitions and deciders.

A variable Y safely improves a variable X when every satisfying assignment of
the structure gives Y an outcome weakly preferred to X's; strictly, when the
preference is strict throughout. The improvement condition is itself an
outcome-correspondence claim, so it can be decided exactly (oracle), by
propagation (complete on max-closed structures), or by refutation (adding the
non-improvement correspondence and propagating until an empty correspondence
appears; complete on join-closed structures).

Every pair is decided by one rule, ``bcs._decide``, on the store its mode
reads: the normalized store for exact mode, the path-consistency fixed point
otherwise. Neither depends on the queried pair, so a ``find_*`` call builds
its store once. Exact and refutation ``find_*`` keep every satisfying
assignment they find: one that violates a later pair's claim answers no for
it in both modes, as sound propagation cannot refute a satisfiable claim
(claim-level witness sharing, Gottlob 2012). :func:`decide_si` answers one
pair by the same rule, without witnesses, except in refutation mode, where
it answers with ``path_consistency`` of the structure plus the claim's
complement, from scratch (see its docstring).

A claim on x and y compares only the outcomes of x and y, so a preference is
tabulated per ordered variable pair on first read (:class:`Preference`), not
over every pair of outcomes of every game up front: one :func:`decide_si`
call costs |x|·|y| comparisons for the weak claim and twice that for the
strict one, while ``find_any_si`` reads every block, as eager tabulation did.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .bcs import (
    Assignment,
    Bcs,
    Correspondence,
    DecisionMode,
    _closure,
    _decide,
    _mutual,
    _store,
    intersect,
    inverse,
    path_consistency,
)
from .closedness import is_join_closed, is_max_closed
from .errors import InputError
from .games import NormalFormGame

OutcomeKey = tuple[str, str]


@dataclass(frozen=True)
class Preference:
    """A preorder over outcomes keyed by (variable, outcome label).

    ``compare(a, b)`` says whether outcome a is weakly preferred to outcome
    b. It is tabulated one ordered variable pair at a time, the first time
    that pair is read: ``block(u, v)`` holds, for each outcome of u, a
    bitmask over v's domain with bit j set iff v's j-th outcome is weakly
    preferred to that outcome: ``block(x, y)`` is the rows of the weak
    claim that y improves on x. A query that compares two variables thus
    costs the comparisons of their blocks, not of every pair of outcomes
    across all variables. The strict relation is derived: a > b iff a >= b
    and not b >= a; ``geq`` and ``gt`` call ``compare`` on known outcome
    keys, tabulating nothing. Reflexivity is checked at construction.
    """

    domains: Mapping[str, tuple[str, ...]]
    compare: Callable[[OutcomeKey, OutcomeKey], bool]

    def __post_init__(self):
        object.__setattr__(self, "_blocks", {})
        for var, dom in self.domains.items():
            for o in dom:
                if not self.compare((var, o), (var, o)):
                    raise InputError("preference must be reflexive")

    def _known(self, key) -> OutcomeKey:
        try:
            var, label = key
            if label in self.domains[var]:
                return var, label
        except (KeyError, TypeError, ValueError):
            pass
        raise InputError(f"unknown outcome {key!r} in preference")

    def block(self, u: str, v: str) -> tuple[int, ...]:
        """For each outcome of u, the outcomes of v weakly preferred to it,
        as a bitmask over v's domain, tabulated on first use."""
        rows = self._blocks.get((u, v))
        if rows is None:
            compare, targets = self.compare, [(v, b) for b in self.domains[v]]
            rows = tuple(sum(1 << j for j, b in enumerate(targets) if compare(b, (u, a)))
                         for a in self.domains[u])
            self._blocks[(u, v)] = rows
        return rows

    def geq(self, a: OutcomeKey, b: OutcomeKey) -> bool:
        return bool(self.compare(self._known(a), self._known(b)))

    def gt(self, a: OutcomeKey, b: OutcomeKey) -> bool:
        a, b = self._known(a), self._known(b)
        return bool(self.compare(a, b)) and not self.compare(b, a)

    @classmethod
    def from_relation(cls, domains: Mapping[str, tuple[str, ...]],
                      geq: Callable[[OutcomeKey, OutcomeKey], bool]) -> "Preference":
        """A preference from a reflexive, transitive comparison callable,
        called per variable pair as blocks are read. Equivalent outcomes
        (mutual weak preference) are allowed; the strict relation excludes
        them by derivation."""
        return cls(dict(domains), geq)

    @classmethod
    def from_pairs(cls, domains: Mapping[str, tuple[str, ...]],
                   geq_pairs: Sequence[tuple[OutcomeKey, OutcomeKey]]) -> "Preference":
        """Explicit preference: the listed pairs, closed under reflexivity and
        transitivity; cycles that would collapse the strict relation between
        distinct outcomes are rejected. The closure needs every key, so it is
        computed here, over all keys at once; blocks are read from it."""
        keys = tuple((var, o) for var, dom in domains.items() for o in dom)
        index = {k: i for i, k in enumerate(keys)}
        rows = [1 << i for i in range(len(keys))]
        for a, b in geq_pairs:
            try:
                rows[index[a]] |= 1 << index[b]
            except (KeyError, TypeError):
                raise InputError(f"preference pair ({a!r}, {b!r}) is outside the domains") from None
        rows = _closure(rows)
        cycle = _mutual(rows)
        if cycle is not None:
            i, j = cycle
            raise InputError(f"preference cycle between {keys[i]!r} and {keys[j]!r} "
                             "would collapse the strict relation")
        return cls(dict(domains), lambda a, b: bool(rows[index[a]] >> index[b] & 1))


def _payoff_preference(games: Sequence[NormalFormGame], players: Sequence[int]) -> Preference:
    """Componentwise comparison of the listed players' payoffs across the
    games. A game's payoff tuples are keyed by outcome label on its first
    read, so a query that compares two games reads only theirs; an outcome
    is at least as good as itself before any payoff is read."""
    by_name = {g.name: g for g in games}

    @functools.cache
    def payoffs(name: str) -> dict[str, tuple]:
        g = by_name[name]
        return {label: tuple(vector[i] for i in players)
                for label, vector in zip(g.outcome_labels(), map(g.payoff, g.profiles()))}

    def geq(a, b):
        return a == b or all(map(operator.ge, payoffs(a[0])[a[1]], payoffs(b[0])[b[1]]))

    return Preference.from_relation({g.name: g.outcome_labels() for g in games}, geq)


def pareto_preference(games: Sequence[NormalFormGame]) -> Preference:
    """Componentwise comparison of payoff vectors across all listed games.

    Requires a common player count so utilities are comparable across games.
    """
    counts = {g.n_players for g in games}
    if len(counts) > 1:
        raise InputError("games with different player counts are not Pareto-comparable")
    return _payoff_preference(games, range(counts.pop() if counts else 0))


def player_preference(games: Sequence[NormalFormGame], player: int) -> Preference:
    """One player's utility comparison across all listed games. ``player``
    is a 0-based index; messages name players from 1, as the CLI does."""
    for g in games:
        if not 0 <= player < g.n_players:
            raise InputError(f"no player {player + 1} in game {g.name!r}: it has "
                             f"{g.n_players} players")
    return _payoff_preference(games, (player,))


def improvement_oc(x: str, y: str, pref: Preference, strict: bool) -> Correspondence:
    """The improvement claim as a correspondence: each outcome of x maps to
    the outcomes of y (weakly or strictly) preferred to it. The weak claim
    is the preference's (x, y) block; the strict one also excludes the
    transpose of its (y, x) block."""
    for var in (x, y):
        if var not in pref.domains:
            raise InputError(f"unknown variable {var!r} in preference")
    dx, dy = pref.domains[x], pref.domains[y]
    weak = Correspondence(x, y, dx, dy, pref.block(x, y))
    if not strict:
        return weak
    return intersect(weak, inverse(Correspondence(y, x, dy, dx, pref.block(y, x))).complement())


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


def verify_certificate(bcs: Bcs, mode: DecisionMode,
                       orders: Mapping[str, tuple[str, ...]] | None = None,
                       joins: Mapping[str, Mapping[tuple[str, str], str]] | None = None) -> bool:
    """Whether the supplied certificate makes `mode`'s verdicts complete.

    Orders certify propagation mode (max-closedness), joins certify
    refutation mode (join-closedness); exact mode needs no certificate and a
    certificate for another mode is ignored. The certificate for `mode` is
    verified, and one that fails raises, as does a `mode` that is not a
    :class:`DecisionMode`.
    """
    if not isinstance(mode, DecisionMode):
        raise InputError(f"unknown decision mode {mode!r}")
    if mode is DecisionMode.PROPAGATION and orders is not None:
        report, claim = is_max_closed(bcs, orders), "orders do not certify max-closedness"
    elif mode is DecisionMode.REFUTATION and joins is not None:
        report, claim = is_join_closed(bcs, joins), "joins do not certify join-closedness"
    else:
        return False
    if not report.closed:
        raise InputError(f"supplied {claim}: {report.witness}")
    return True


def _claim(bcs: Bcs, x: str, y: str, pref: Preference, strict: bool) -> Correspondence:
    bcs.var(x), bcs.var(y)
    for var in (x, y):
        if pref.domains.get(var) != bcs.domain(var):
            raise InputError(f"preference domain for {var!r} does not match the structure")
    return improvement_oc(x, y, pref, strict)


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

    Refutation is ``path_consistency`` of the structure plus the claim's
    complement, propagated once from scratch. Deciding on the structure's
    own fixed point, as the other modes and ``find_*`` do, would propagate
    twice.
    """
    claim = _claim(bcs, x, y, pref, strict)
    certified = verify_certificate(bcs, mode, orders, joins)
    if mode is DecisionMode.REFUTATION:
        augmented = path_consistency(bcs.with_constraints([claim.complement()]))
        return SiVerdict(augmented.has_empty, mode, certified=certified)
    yes, witness = _decide(bcs, _store(bcs, mode), claim, mode)
    return SiVerdict(yes, mode, counterexample=witness, certified=certified)


def _improving(bcs: Bcs, pairs, pref: Preference, strict: bool,
               mode: DecisionMode) -> list[tuple[str, str]]:
    """The pairs (x, y) whose y safely improves on x, in the given order,
    decided on one store with the witnesses found for earlier pairs."""
    found, witnesses = [], []
    rel = _store(bcs, mode)
    for x, y in pairs:
        yes, witness = _decide(bcs, rel, _claim(bcs, x, y, pref, strict), mode, witnesses)
        if witness is not None:
            witnesses.append(witness)
        if yes:
            found.append((x, y))
    return found


def find_si_on(bcs: Bcs, x: str, pref: Preference, strict: bool = False,
               mode: DecisionMode = DecisionMode.EXACT,
               orders=None, joins=None) -> list[str]:
    """All variables that (strictly) safely improve on x, in variable order.

    A supplied certificate is verified once, not per variable, and the store
    or fixed point that the mode reads is built once per call, and exact and
    refutation mode share their witnesses across the pairs (see the module
    docstring). The verdicts equal :func:`decide_si`'s for each pair.
    """
    bcs.var(x)
    verify_certificate(bcs, mode, orders, joins)
    pairs = [(x, v.id) for v in bcs.variables if v.id != x]
    return [y for _, y in _improving(bcs, pairs, pref, strict, mode)]


def find_any_si(bcs: Bcs, pref: Preference, strict: bool = False,
                mode: DecisionMode = DecisionMode.EXACT,
                orders=None, joins=None) -> list[tuple[str, str]]:
    """All ordered pairs (x, y), x != y, where y safely improves on x.

    A supplied certificate is verified once, not per pair, and one store or
    fixed point, and one list of witnesses, serves all pairs, as in
    :func:`find_si_on`.
    """
    verify_certificate(bcs, mode, orders, joins)
    pairs = itertools.permutations([v.id for v in bcs.variables], 2)
    return _improving(bcs, pairs, pref, strict, mode)
