"""Structural conditions under which propagation is complete.

Max-closedness: per-variable total orders such that every constraint contains
the coordinatewise maximum of any two of its pairs; join-closedness is its
semilattice generalization. This module verifies both (with violation
witnesses), searches for certifying orders by brute force and constructs them
for assumption-generated structures. Orders, and join tables that are a
chain's max table (as those from `joins_from_orders` and chain Hasse diagrams
are), are read as ranks, and a constraint between chains takes the rank
check: with rows in source rank order and bits moved to target ranks, no row
r may miss a value that an earlier row holds at or above r's least value.
That is exact: for rows a < a', the max of (a, b) and (a', b') is (a', max(b,
b')), missing exactly when b > b' and b is not in row a'. A constraint on
another semilattice takes the pair scan, which tests pairs two at a time
through tables over domain positions; on any violation the pair scan names
the witness. Hasse diagrams compile to join tables by the one bitmask closure
`bcs._closure`. Order construction reads which assumption generated each
constraint from `assumptions._constraint_records`, then orders the games in
one breadth-first pass over the isomorphism edges: from the decreasing-risk
games first, then from each still unordered fully reduced game in list
order (by its identity transport), each reached game taking its parent's
order carried across an isomorphism. Games with dominated actions come
last, from their full reductions' orders."""

from __future__ import annotations

import collections
import itertools
import warnings
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from . import assumptions as asm
from .bcs import Bcs, Correspondence, _closure, _mutual
from .errors import InputError
from .games import NormalFormGame, fully_reduce, is_fully_reduced

VariableOrders = Mapping[str, tuple[str, ...]]
JoinFamily = Mapping[str, Mapping[tuple[str, str], str]]


@dataclass(frozen=True)
class ClosednessWitness:
    """Two relation pairs whose coordinatewise join is missing from the relation."""

    constraint_index: int
    source: str
    target: str
    pair_a: tuple[str, str]
    pair_b: tuple[str, str]
    missing: tuple[str, str]


@dataclass(frozen=True)
class ClosednessReport:
    closed: bool
    witness: ClosednessWitness | None = None


def _max_table(rank: Sequence[int]) -> list[list[int]]:
    """The max table over domain positions of the chain of these ranks."""
    return [[a if ra >= rb else b for b, rb in enumerate(rank)] for a, ra in enumerate(rank)]


def _check_orders(bcs: Bcs, orders: VariableOrders) -> dict[str, list[int]]:
    if not isinstance(orders, Mapping):
        raise InputError("orders are not a mapping")
    ranks = {}
    for v in bcs.variables:
        if v.id not in orders:
            raise InputError(f"no order supplied for variable {v.id!r}")
        try:
            order = tuple(orders[v.id])
            # the domain's values are distinct, and sorting could not compare
            # values of different types
            permutation = len(order) == len(v.domain) and set(order) == set(v.domain)
        except TypeError:       # not iterable, or an unhashable value
            permutation = False
        if not permutation:
            raise InputError(f"order for {v.id!r} is not a permutation of its domain")
        ranks[v.id] = list(map({value: r for r, value in enumerate(order)}.__getitem__, v.domain))
    return ranks


def _rank_closed(constraints: Iterable[Correspondence], ranks: Mapping[str, Sequence[int]]) -> bool:
    """Whether the constraints join chains of ``ranks`` (per variable, the
    rank of each domain position) and are closed under their max operators,
    by the rank check (see the module docstring)."""
    for c in constraints:
        if c.source not in ranks or c.target not in ranks:
            return False
        ranked, target_rank, seen = [0] * len(c.rows), ranks[c.target], 0
        for i, row in zip(ranks[c.source], c.rows):
            while row:
                ranked[i] |= 1 << target_rank[(row & -row).bit_length() - 1]
                row &= row - 1
        for row in ranked:
            if seen & -(row & -row) & ~row:
                return False
            seen |= row
    return True


def _scan_closure(constraints: Iterable[tuple[int, Correspondence]],
                  tables: Mapping[str, Sequence[Sequence[int]]]) -> ClosednessReport:
    """The pair scan over (index in the structure, constraint) pairs: each
    pair of a constraint's rows, in row-major order, against every later
    one, joined through the per-variable position tables, in O(|R|^2)."""
    for idx, c in constraints:
        tx, ty, rows = tables[c.source], tables[c.target], c.rows
        sd, td = c.source_domain, c.target_domain
        pairs = [(i, j) for i, row in enumerate(rows) for j in range(len(td)) if row >> j & 1]
        for a, (i1, j1) in enumerate(pairs):
            mx, my = tx[i1], ty[j1]
            for i2, j2 in pairs[a + 1:]:
                if not rows[mx[i2]] >> my[j2] & 1:
                    return ClosednessReport(False, ClosednessWitness(
                        idx, c.source, c.target, (sd[i1], td[j1]), (sd[i2], td[j2]),
                        (sd[mx[i2]], td[my[j2]])))
    return ClosednessReport(True)


def is_max_closed(bcs: Bcs, orders: VariableOrders) -> ClosednessReport:
    """Check every constraint against the max-closedness definition; the first
    violation in deterministic scan order is reported as a witness."""
    ranks = _check_orders(bcs, orders)
    return ClosednessReport(True) if _rank_closed(bcs.constraints, ranks) else _scan_closure(
        enumerate(bcs.constraints), {v: _max_table(r) for v, r in ranks.items()})


def _join_tables(bcs: Bcs, joins: JoinFamily) -> tuple[dict, dict[str, list[int]]]:
    """The join tables over domain positions and the ranks of the chains among
    them, once the label tables cover all variables and satisfy the axioms of
    a semilattice; raises an input error naming the first failure, reading
    cells one by one only to word it. A table is a chain's when it equals the
    max table of the ranks #{b : T(a, b) = a} - 1. Otherwise associativity is
    tested in O(d^2). Let up[a] be the set of b with T(a, b) = b. An
    idempotent, commutative T is associative exactly when up[T(a, b)] =
    up[a] & up[b] for all a and b: that makes b in up[a] a partial order and
    T(a, b) the least upper bound of a and b. Only when the test fails are
    the triples scanned, to name the first that fails."""
    if not isinstance(joins, Mapping):
        raise InputError("joins are not a mapping")
    tables, ranks = {}, {}
    for v in bcs.variables:
        if v.id not in joins:
            raise InputError(f"no join operator supplied for variable {v.id!r}")
        table, dom, name = joins[v.id], v.domain, f"join table for {v.id!r}"
        if not isinstance(table, Mapping):
            raise InputError(f"{name} is not a mapping")
        pos = {a: i for i, a in enumerate(dom)}
        try:
            t = tables[v.id] = [[pos[table[a, b]] for b in dom] for a in dom]
        except (KeyError, TypeError):      # TypeError: an unhashable value
            for a, b in itertools.product(dom, repeat=2):
                if (a, b) not in table:
                    raise InputError(f"{name} is missing the pair ({a!r}, {b!r})") from None
                if table[a, b] not in dom:
                    raise InputError(f"{name} leaves the domain at ({a!r}, {b!r})") from None
            raise
        rank = [row.count(i) - 1 for i, row in enumerate(t)]
        if sorted(rank) == list(range(len(dom))) and t == _max_table(rank):
            ranks[v.id] = rank
            continue
        for i, a in enumerate(dom):
            if t[i][i] != i:
                raise InputError(f"idempotency fails for {v.id!r} at {a!r}")
        pairs = list(itertools.combinations(range(len(dom)), 2))
        for i, j in pairs:
            if t[i][j] != t[j][i]:
                raise InputError(f"commutativity fails for {v.id!r} at ({dom[i]!r}, {dom[j]!r})")
        up = [sum(1 << j for j, k in enumerate(row) if k == j) for row in t]
        if any(up[t[i][j]] != up[i] & up[j] for i, j in pairs):
            for i, j, k in itertools.product(range(len(dom)), repeat=3):
                if t[t[i][j]][k] != t[i][t[j][k]]:
                    raise InputError(f"associativity fails for {v.id!r} at "
                                     f"({dom[i]!r}, {dom[j]!r}, {dom[k]!r})")
    return tables, ranks


def validate_join_family(bcs: Bcs, joins: JoinFamily) -> None:
    """Check the join tables cover all variables and satisfy the semilattice
    axioms (see `_join_tables`); raises an input error naming the failed axiom."""
    _join_tables(bcs, joins)


def is_join_closed(bcs: Bcs, joins: JoinFamily) -> ClosednessReport:
    """Check every constraint for closure under the supplied join operators."""
    tables, ranks = _join_tables(bcs, joins)
    return ClosednessReport(True) if _rank_closed(bcs.constraints, ranks) else _scan_closure(
        enumerate(bcs.constraints), tables)


def joins_from_orders(bcs: Bcs, orders: VariableOrders) -> dict[str, dict[tuple[str, str], str]]:
    """Max operators of total orders, as join tables."""
    ranks = _check_orders(bcs, orders)
    return {v.id: {(a, b): a if ra >= rb else b for a, ra in zip(v.domain, ranks[v.id])
                   for b, rb in zip(v.domain, ranks[v.id])} for v in bcs.variables}


def join_table_from_hasse(domain: Sequence[str],
                          edges: Sequence[tuple[str, str]]) -> dict[tuple[str, str], str]:
    """Compile a Hasse-diagram edge list (lower, upper) into a join table,
    rejecting inputs where some pair lacks a unique least upper bound.

    The up-sets are the bitmask closure of the edges over domain positions.
    Without cycles, c is the least upper bound of a and b exactly when its
    up-set is the common up-set of a and b."""
    for label in domain:
        try:
            hash(label)
        except TypeError:
            raise InputError(f"unhashable label {label!r} in the domain") from None
    dom = tuple(dict.fromkeys(domain))
    pos = {a: i for i, a in enumerate(dom)}
    rows = [1 << i for i in range(len(dom))]
    for lo, hi in edges:
        try:
            rows[pos[lo]] |= 1 << pos[hi]
        except (KeyError, TypeError):
            raise InputError(
                f"edge ({lo!r}, {hi!r}) references values outside the domain") from None
    up = _closure(rows)
    cycle = _mutual(up)
    if cycle is not None:
        raise InputError(f"the edge list contains a cycle through {dom[cycle[0]]!r}")
    value_of = {row: a for a, row in zip(dom, up)}
    table = {}
    for (a, up_a), (b, up_b) in itertools.product(zip(dom, up), repeat=2):
        join = value_of.get(up_a & up_b)
        if join is None:
            raise InputError(f"no unique least upper bound for ({a!r}, {b!r})")
        table[(a, b)] = join
    return table


def search_max_orders(bcs: Bcs) -> dict[str, tuple[str, ...]] | None:
    """Brute-force search for a certifying order family, pruned constraint by
    constraint; returns the lexicographically first certificate or None.
    The search keeps an explicit stack, so its depth is not bounded by the
    recursion limit.

    Exponential in domain sizes by design; intended for desk scale.
    """
    if any(len(v.domain) > 6 for v in bcs.variables):
        warnings.warn("order search over domains larger than 6 may be very slow")
    n = len(bcs.variables)
    by_last: dict[int, list[Correspondence]] = {i: [] for i in range(n)}
    for c in bcs.constraints:
        by_last[max(bcs.index(c.source), bcs.index(c.target))].append(c)

    ranks: dict[str, list[int]] = {}
    chosen: dict[str, tuple[str, ...]] = {}

    # stack[i] yields the untried orders of variable i in permutation order
    stack = [itertools.permutations(v.domain) for v in bcs.variables[:1]]
    while stack:
        i = len(stack) - 1
        var = bcs.variables[i]
        perm = next(stack[i], None)
        if perm is None:
            stack.pop()
            continue
        ranks[var.id] = [perm.index(value) for value in var.domain]
        chosen[var.id] = perm
        if _rank_closed(by_last[i], ranks):
            if i + 1 == n:
                return dict(chosen)
            stack.append(itertools.permutations(bcs.variables[i + 1].domain))
    return {} if n == 0 else None


# ---------------------------------------------------------------------------
# Certifying orders for assumption-generated structures
# ---------------------------------------------------------------------------


def _orbit_classes(game: NormalFormGame,
                   searches: asm._Searches) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Class key per profile: per-player orbits under the automorphism group,
    as bitmasks of actions. ``find_isomorphisms(g, g)`` returns the whole
    group, closed under composition, so an action's images are its orbit."""
    autos = searches.isomorphisms(game, game)
    orbit_ids = []
    for i, acts in enumerate(game.actions):
        rows = [1 << a for a in range(len(acts))]
        for auto in autos:
            for a, image in enumerate(auto.maps[i]):
                rows[a] |= 1 << image
        orbit_ids.append(rows)
    return {p: tuple(orbit_ids[i][p[i]] for i in range(game.n_players))
            for p in game.profiles()}


def _transport_order(src: NormalFormGame, dst: NormalFormGame,
                     src_order: Sequence[str], searches: asm._Searches) -> tuple[str, ...]:
    """Carry a class-contiguous outcome order across an isomorphism: the class
    sequence is mapped through (any) isomorphism, members sorted by label.
    A class is a product of per-player orbits, and so is its image.

    From a game to itself the first isomorphism is the identity, so the
    sorted labels give the game's own order: classes by smallest member
    label, members sorted."""
    isos = searches.isomorphisms(src, dst)
    if not isos:
        raise InputError(f"no isomorphism from {src.name!r} to {dst.name!r}")
    maps = isos[0].maps
    keys = _orbit_classes(src, searches)
    seen: set[tuple[int, ...]] = set()
    out: list[str] = []
    for label in src_order:
        key = keys[src.label_profile(label)]
        if key in seen:
            continue
        seen.add(key)
        images = [[image for a, image in enumerate(m) if orbit >> a & 1]
                  for m, orbit in zip(maps, key)]
        out.extend(sorted(dst.profile_label(q) for q in itertools.product(*images)))
    return tuple(out)


def _risk_order(top: tuple[str, str], safe: tuple[str, str]) -> tuple[str, ...]:
    """Ascending: (top1,safe2) < (safe1,top2) < (safe,safe) < (top,top)."""
    return (
        f"{top[0]},{safe[1]}",
        f"{safe[0]},{top[1]}",
        f"{safe[0]},{safe[1]}",
        f"{top[0]},{top[1]}",
    )


def _risk_orders_and_edges(records: Iterable[tuple[str, object]]):
    """The decreasing-risk order each risk record fixes, by game, and the
    game-name pair of each isomorphism record; raises when two risk
    records require different orders of one game."""
    risk_orders: dict[str, tuple[str, ...]] = {}
    iso_edges: list[tuple[str, str]] = []
    for kind, payload in records:
        if kind == "isomorphism":
            iso_edges.append(payload)
        elif kind == "risk":
            lab: asm.DecreasingRiskPair = payload
            for name, top, safe in ((lab.g1, lab.g1_top, lab.g1_safe),
                                    (lab.g2, lab.g2_top, lab.g2_safe)):
                order = _risk_order(top, safe)
                if risk_orders.get(name, order) != order:
                    raise InputError(
                        f"conflicting decreasing-risk orders required for {name!r}")
                risk_orders[name] = order
    return risk_orders, iso_edges


def orders_for_assumptions(games: list[NormalFormGame], bcs: Bcs) -> dict[str, tuple[str, ...]]:
    """Construct a certifying order family for a structure built by
    `build_assumption_bcs` over these games.

    Decreasing-risk games get the fixed coordination order, isomorphic games
    are ordered isomorphically (class-contiguously), remaining fully reduced
    games by automorphism equivalence classes (a root's order is its
    identity transport, see `_transport_order`), and games with dominated
    actions inherit their full reduction's order on surviving outcomes with
    all eliminated outcomes placed below under a label-lexicographic
    tie-break.

    Which assumption generated each constraint is read from the derivation
    `build_assumption_bcs` attached to the structure, when `games` holds
    the very objects, in the same order, that built it; its isomorphism
    searches are then reused. Otherwise (a structure loaded from JSON or
    made by `with_constraints`, or equal but distinct or reordered games)
    every family is derived again over the games to classify the
    constraints, and a constraint that none generates is an input error.
    """
    by_name = {g.name: g for g in games}
    if len(by_name) != len(games):
        raise InputError("duplicate game names")
    for v in bcs.variables:
        if v.id not in by_name:
            raise InputError(f"structure variable {v.id!r} is not one of the games")
    for v in bcs.variables:
        if v.domain != by_name[v.id].outcome_labels():
            raise InputError(f"domain of {v.id!r} does not match the game's outcomes")

    records, searches = asm._constraint_records(games, bcs)
    risk_orders, iso_edges = _risk_orders_and_edges(records)

    orders: dict[str, tuple[str, ...]] = dict(risk_orders)
    reduced = [g for g in games if is_fully_reduced(g)]

    # each game's isomorphic neighbors, in list order
    edges = set(iso_edges) | {(b, a) for a, b in iso_edges}
    neighbors = {g.name: [h for h in reduced if (g.name, h.name) in edges] for g in reduced}
    queue = collections.deque(g for g in reduced if g.name in orders)

    def spread():
        while queue:
            cur = queue.popleft()
            for nxt in neighbors[cur.name]:
                if nxt.name not in orders:
                    orders[nxt.name] = _transport_order(cur, nxt, orders[cur.name], searches)
                    queue.append(nxt)

    spread()
    for g in reduced:
        if g.name not in orders:
            orders[g.name] = _transport_order(g, g, sorted(g.outcome_labels()), searches)
            queue.append(g)
            spread()

    for g in games:
        if g.name not in orders:
            final = fully_reduce(g).final
            base = next((orders[h.name] for h in games
                         if h.name in orders and h.same_payoffs(final)), ())
            orders[g.name] = tuple(sorted(set(g.outcome_labels()) - set(base))) + base

    return orders
