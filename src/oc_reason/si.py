"""Safe-improvement definitions and deciders.

A variable Y safely improves a variable X when every satisfying assignment of
the structure gives Y an outcome weakly preferred to X's; strictly, when the
preference is strict throughout. The improvement condition is itself an
outcome-correspondence claim, so it can be decided exactly (oracle), by
propagation (complete on max-closed structures), or by refutation (adding the
non-improvement correspondence and propagating until an empty correspondence
appears; complete on join-closed structures).

The normalized relation store and the path-consistency fixed point depend on
the structure only, not on the queried pair, so a ``find_*`` call builds the
one its mode reads once. Propagation answers each pair with a subset check on
the fixed point. Exact and refutation ``find_*`` keep every satisfying
assignment they find: one that violates a later pair's claim answers no for
it in both modes, as sound propagation cannot refute a satisfiable claim
(claim-level witness sharing, Gottlob 2012). Otherwise exact mode searches a
copy of the store narrowed by the pair's non-improvement correspondence.
Refutation answers a derivable claim yes, and else descends greedily, without
backtracking, through a copy of the fixed point narrowed the same way; only
when that fails does it propagate the copy with that pair alone queued (the
incremental step of PC-2) and descend once more. :func:`decide_si` answers
one pair as before, without witnesses; its refutation propagates the
augmented structure directly, once, not twice.

A claim on x and y compares only the outcomes of x and y, so a preference is
tabulated per ordered variable pair on first read (:class:`Preference`), not
over every pair of outcomes of every game up front: one :func:`decide_si`
call costs |x|·|y| comparisons for the weak claim and twice that for the
strict one, while ``find_any_si`` reads every block, as eager tabulation did.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, Sequence

from .bcs import (
    Assignment,
    Bcs,
    Correspondence,
    _descend,
    _refute,
    _violations,
    _with_complement,
    derivable,
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
    bitmask over v's domain with bit j set iff that outcome is weakly
    preferred to v's j-th outcome. A query that compares two variables thus
    costs the comparisons of their blocks, not of every pair of outcomes
    across all variables. The strict relation is derived: a > b iff a >= b
    and not b >= a. Reflexivity is checked at construction.
    """

    domains: Mapping[str, tuple[str, ...]]
    compare: Callable[[OutcomeKey, OutcomeKey], bool]

    def __post_init__(self):
        object.__setattr__(self, "_position", {
            var: {o: i for i, o in enumerate(dom)} for var, dom in self.domains.items()})
        object.__setattr__(self, "_blocks", {})
        for var, dom in self.domains.items():
            for o in dom:
                if not self.compare((var, o), (var, o)):
                    raise InputError("preference must be reflexive")

    def _at(self, key: OutcomeKey) -> tuple[str, int]:
        try:
            var, label = key
            return var, self._position[var][label]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"unknown outcome {key!r} in preference") from exc

    def block(self, u: str, v: str) -> tuple[int, ...]:
        """The weak preference from u's outcomes to v's, one bitmask over
        v's domain per outcome of u, tabulated on first use."""
        rows = self._blocks.get((u, v))
        if rows is None:
            compare, targets = self.compare, [(v, b) for b in self.domains[v]]
            rows = tuple(sum(1 << j for j, b in enumerate(targets) if compare((u, a), b))
                         for a in self.domains[u])
            self._blocks[(u, v)] = rows
        return rows

    def geq(self, a: OutcomeKey, b: OutcomeKey) -> bool:
        (u, i), (v, j) = self._at(a), self._at(b)
        return bool(self.block(u, v)[i] >> j & 1)

    def gt(self, a: OutcomeKey, b: OutcomeKey) -> bool:
        (u, i), (v, j) = self._at(a), self._at(b)
        return bool(self.block(u, v)[i] >> j & 1) and not self.block(v, u)[j] >> i & 1

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
        return cls(dict(domains), lambda a, b: bool(rows[index[a]] >> index[b] & 1))


def _outcome_payoffs(games: Sequence[NormalFormGame]) -> tuple[dict, dict]:
    """Each game's outcome labels by name, and the payoff vector of every
    outcome key; every profile is labelled once."""
    domains, payoff = {}, {}
    for g in games:
        domains[g.name] = labels = g.outcome_labels()
        payoff.update(((g.name, o), g.payoff(p)) for o, p in zip(labels, g.profiles()))
    return domains, payoff


def pareto_preference(games: Sequence[NormalFormGame]) -> Preference:
    """Componentwise comparison of payoff vectors across all listed games.

    Requires a common player count so utilities are comparable across games.
    """
    counts = {g.n_players for g in games}
    if len(counts) > 1:
        raise InputError("games with different player counts are not Pareto-comparable")
    domains, payoff = _outcome_payoffs(games)

    def geq(a, b):
        return all(x >= y for x, y in zip(payoff[a], payoff[b]))

    return Preference.from_relation(domains, geq)


def player_preference(games: Sequence[NormalFormGame], player: int) -> Preference:
    """One player's utility comparison across all listed games. ``player``
    is a 0-based index; messages name players from 1, as the CLI does."""
    for g in games:
        if not 0 <= player < g.n_players:
            raise InputError(f"no player {player + 1} in game {g.name!r}: it has "
                             f"{g.n_players} players")
    domains, payoff = _outcome_payoffs(games)
    return Preference.from_relation(
        domains, lambda a, b: payoff[a][player] >= payoff[b][player])


def improvement_oc(x: str, y: str, pref: Preference, strict: bool) -> Correspondence:
    """The improvement claim as a correspondence: each outcome of x maps to
    the outcomes of y (weakly or strictly) preferred to it. It is read from
    the preference's (y, x) block, and for the strict claim also from its
    (x, y) block."""
    for var in (x, y):
        if var not in pref.domains:
            raise InputError(f"unknown variable {var!r} in preference")
    dx, dy = pref.domains[x], pref.domains[y]
    weak = inverse(Correspondence(y, x, dy, dx, pref.block(y, x)))
    if not strict:
        return weak
    return intersect(weak, Correspondence(x, y, dx, dy, pref.block(x, y)).complement())


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

    Refutation propagates the augmented structure once, from scratch. The
    fixed point followed by :func:`~oc_reason.bcs.refuted` would propagate
    twice: on perfbench's 27 csp-encoded instances (seed 7, one
    Xeon core, Python 3.11) one decision took 32 ms this way, 85 ms that way.
    """
    claim = _claim(bcs, x, y, pref, strict)
    certified = verify_certificate(bcs, mode, orders, joins)
    if mode is DecisionMode.EXACT:
        witness = next(_violations(bcs, [claim]))
        return SiVerdict(witness is None, mode, counterexample=witness)
    if mode is DecisionMode.PROPAGATION:
        yes = derivable(path_consistency(bcs), claim)
    else:
        yes = path_consistency(bcs.with_constraints([claim.complement()])).has_empty
    return SiVerdict(yes, mode, certified=certified)


def _improving(bcs: Bcs, pairs, pref: Preference, strict: bool,
               mode: DecisionMode) -> list[tuple[str, str]]:
    """The pairs (x, y) whose y safely improves on x, in the given order;
    exact and refutation mode check each pair against the witnesses found
    for earlier pairs before they search or propagate."""
    found, witnesses = [], []
    if mode is DecisionMode.EXACT:
        # _violations reads its claims lazily, so a claim queued just before
        # next(searches) is the one searched
        queued: list[Correspondence] = []
        searches = _violations(bcs, iter(queued.pop, None))
    else:
        fixed_point = path_consistency(bcs)
    for x, y in pairs:
        claim = _claim(bcs, x, y, pref, strict)
        if mode is DecisionMode.REFUTATION:
            rel = _with_complement(bcs, fixed_point._store, claim)
        witness = None
        if mode is DecisionMode.PROPAGATION:
            yes = derivable(fixed_point, claim)
        elif mode is DecisionMode.REFUTATION and rel is None:
            yes = True
        elif any(not claim.contains(w[claim.source], w[claim.target]) for w in witnesses):
            yes = False
        elif mode is DecisionMode.EXACT:
            queued.append(claim)
            witness = next(searches)
            yes = witness is None
        else:
            witness = _descend(bcs, rel)
            yes = witness is None and _refute(bcs, rel, claim)
            if witness is None and not yes:
                witness = _descend(bcs, rel)
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
