"""Instance generators: incompleteness counterexamples, the CSP-to-games
hardness construction, satisfiability-preserving augmentations, and seeded
random structures for stress testing.

Everything here is deterministic given its inputs (and RNG state for the
random generators); generated instances are used as fixtures and as the
subjects of the property-based checks in the test suite.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .assumptions import AssumptionSelection, build_assumption_bcs
from .bcs import Bcs, Correspondence, Variable
from .closedness import join_table_from_hasse
from .errors import InputError
from .games import NormalFormGame


def montanari_instance() -> Bcs:
    """3-coloring the complete graph on four vertices: four variables over
    {1,2,3} with all six pairwise inequality constraints. Unsatisfiable, yet
    propagation cannot narrow anything."""
    dom = ("1", "2", "3")
    variables = [Variable(f"X{i}", dom) for i in range(1, 5)]
    neq = [(a, b) for a in dom for b in dom if a != b]
    constraints = [
        Correspondence.from_pairs(f"X{i}", f"X{j}", dom, dom, neq)
        for i, j in itertools.combinations(range(1, 5), 2)
    ]
    return Bcs(tuple(variables), tuple(constraints))


# the Hasse edges of join_incompleteness_instance's semilattices, per variable
JOIN_INCOMPLETENESS_HASSE = {
    "X": [("x2", "x1")],
    "Y": [("y2", "y1")],
    "Z": [("z4", "z2"), ("z4", "z3"), ("z2", "z1"), ("z3", "z1")],
    "W": [("w2", "w1"), ("w3", "w1"), ("w4", "w1"), ("w5", "w2"),
          ("w6", "w2"), ("w6", "w3"), ("w7", "w3"), ("w7", "w4"), ("w5", "w4")],
}


def join_incompleteness_instance() -> tuple[Bcs, dict[str, dict[tuple[str, str], str]]]:
    """The four-variable join-closed structure on which propagation cannot
    exclude the jointly-unsatisfiable pair (x2, y2): domains of sizes 2, 2, 4
    and 7 with semilattices given by Hasse diagrams (Z a diamond, W a
    three-layer lattice), and five correspondences tying them together."""
    dx = ("x1", "x2")
    dy = ("y1", "y2")
    dz = ("z1", "z2", "z3", "z4")
    dw = tuple(f"w{i}" for i in range(1, 8))
    variables = (Variable("X", dx), Variable("Y", dy), Variable("Z", dz), Variable("W", dw))

    def rel(src, tgt, sd, td, mapping):
        pairs = [(a, b) for a, imgs in mapping.items() for b in imgs]
        return Correspondence.from_pairs(src, tgt, sd, td, pairs)

    constraints = (
        rel("X", "Z", dx, dz, {"x2": ("z2", "z4"), "x1": dz}),
        rel("Y", "Z", dy, dz, {"y2": ("z3", "z4"), "y1": dz}),
        rel("X", "W", dx, dw, {"x1": dw, "x2": ("w2", "w5", "w6")}),
        rel("Y", "W", dy, dw, {"y1": dw, "y2": ("w3", "w6", "w7")}),
        rel("Z", "W", dz, dw, {"z4": ("w7", "w5", "w4"),
                               "z1": dw, "z2": dw, "z3": dw}),
    )
    joins = {v.id: join_table_from_hasse(v.domain, JOIN_INCOMPLETENESS_HASSE[v.id])
             for v in variables}
    return Bcs(variables, constraints), joins


@dataclass(frozen=True)
class SiHardnessInstance:
    """A CSP encoded as a safe-improvement question between two designated
    games, surrounded by one diagonal coordination game per CSP variable."""

    games: tuple[NormalFormGame, ...]
    constraints: tuple[Correspondence, ...]
    pair: tuple[str, str]
    bcs: Bcs


def _diagonal_game(name: str, size: int, offset: int, scale_base: int,
                   perturbed_last: tuple[Fraction, Fraction] | None) -> NormalFormGame:
    """A size x size game with zero payoffs off the diagonal and diagonal
    payoffs strictly decreasing for player 1 and increasing for player 2: the
    diagonal outcomes are pairwise Pareto-incomparable strict equilibria. The
    per-game offset breaks isomorphisms between equally-sized games."""
    actions = tuple(f"a{l}" for l in range(1, size + 1))
    table: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}
    zero = (Fraction(0), Fraction(0))
    for r in range(size):
        for c in range(size):
            table[(r, c)] = zero
    for l in range(1, size + 1):
        table[(l - 1, l - 1)] = (Fraction(scale_base - l + offset), Fraction(l + offset))
    if perturbed_last is not None:
        table[(size - 1, size - 1)] = perturbed_last
    return NormalFormGame(name, (actions, actions), table)


def csp_to_si_games(source: Bcs, perturb: bool = False) -> SiHardnessInstance:
    """Encode a finite CSP as the question of whether a single-outcome game
    safely improves a 2x2 base game.

    The base game ends on its diagonal; its high outcome requires every
    variable game to coordinate on a value of the encoded variable, which is
    possible exactly when the source is satisfiable. With `perturb`, each
    variable game's fallback outcome gets payoffs pairwise Pareto-incomparable
    with each other and with both designated games' payoffs, so that only the
    designated pair can ever be in an improvement relation.
    """
    n = len(source.variables)
    max_k = max(len(v.domain) for v in source.variables)
    scale_base = 8 + 2 * (max_k + n)
    eps = Fraction(1, 4 * (n + 1))

    base = NormalFormGame.two_player(
        "G", ("a1", "a2"), ("a1", "a2"),
        [[(4, 0), (0, 0)], [(0, 0), (2, 1)]])
    improver = NormalFormGame.two_player("Gp", ("a1",), ("a1",), [[(3, 2)]])

    games = [base, improver]
    for t, v in enumerate(source.variables):
        k = len(v.domain)
        last = (Fraction(3) + (t + 1) * eps, Fraction(1) - (t + 1) * eps) if perturb else None
        games.append(_diagonal_game(f"V_{v.id}", k + 1, t, scale_base, last))
    by_source = {v.id: games[2 + t] for t, v in enumerate(source.variables)}

    def diag(game: NormalFormGame, l: int) -> str:
        return game.profile_label((l - 1, l - 1))

    constraints: list[Correspondence] = []

    for c in source.constraints:
        gi, gj = by_source[c.source], by_source[c.target]
        ki = len(source.domain(c.source))
        kj = len(source.domain(c.target))
        pairs = [(diag(gi, ki + 1), diag(gj, kj + 1))]
        for li, vi in enumerate(source.domain(c.source), start=1):
            for lj, vj in enumerate(source.domain(c.target), start=1):
                if c.contains(vi, vj):
                    pairs.append((diag(gi, li), diag(gj, lj)))
        constraints.append(Correspondence.from_pairs(
            gi.name, gj.name, gi.outcome_labels(), gj.outcome_labels(), pairs))

    for v in source.variables:
        g = by_source[v.id]
        k = len(v.domain)
        pairs = [(diag(base, 1), diag(g, l)) for l in range(1, k + 1)]
        pairs.append((diag(base, 2), diag(g, k + 1)))
        constraints.append(Correspondence.from_pairs(
            base.name, g.name, base.outcome_labels(), g.outcome_labels(), pairs))
        constraints.append(Correspondence.from_pairs(
            improver.name, g.name, improver.outcome_labels(), g.outcome_labels(),
            [(diag(improver, 1), diag(g, l)) for l in range(1, k + 2)]))

    constraints.append(Correspondence.from_pairs(
        improver.name, base.name, improver.outcome_labels(), base.outcome_labels(),
        [(diag(improver, 1), diag(base, 1)), (diag(improver, 1), diag(base, 2))]))

    generated = build_assumption_bcs(
        games, AssumptionSelection(dominance=True, isomorphism=True))
    constraints.extend(generated.constraints)

    variables = tuple(Variable(g.name, g.outcome_labels()) for g in games)
    bcs = Bcs(variables, tuple(constraints))
    return SiHardnessInstance(tuple(games), tuple(constraints), ("G", "Gp"), bcs)


def _fresh(base: str, taken) -> str:
    name = base
    while name in taken:
        name += "_"
    return name


def augment_always_satisfiable(source: Bcs, anchor: tuple[str, str]) -> Bcs:
    """Extend a structure so it is always satisfiable while preserving its
    solution set: a fresh switch variable plus a fresh bottom value in every
    domain; switching on restores exactly the original solutions.

    The anchor names a (variable, value) of the source the caller intends to
    query afterwards; it is validated here, the construction itself does not
    depend on it.
    """
    var, value = anchor
    if value not in source.domain(var):
        raise InputError(f"anchor value {value!r} is not in the domain of {var!r}")
    all_values = {v for x in source.variables for v in x.domain}
    zero = _fresh("0", all_values)
    one = "1" if zero != "1" else "1_"
    switch = _fresh("X0", {v.id for v in source.variables})

    variables = [Variable(switch, (zero, one))]
    domains = {}
    for v in source.variables:
        domains[v.id] = v.domain + (zero,)
        variables.append(Variable(v.id, domains[v.id]))

    constraints = []
    for v in source.variables:
        pairs = [(zero, zero)] + [(one, val) for val in v.domain]
        constraints.append(Correspondence.from_pairs(
            switch, v.id, (zero, one), domains[v.id], pairs))
    for c in source.constraints:
        pairs = c.pairs() + [(zero, zero)]
        constraints.append(Correspondence.from_pairs(
            c.source, c.target, domains[c.source], domains[c.target], pairs))
    return Bcs(tuple(variables), tuple(constraints))


def implication_instance(source: Bcs, xi: tuple[str, str]) -> tuple[Bcs, tuple[str, str, str, str]]:
    """Reduce a value-attainability question to a forced-implication query:
    adds a one-valued variable and an indicator variable that is 1 exactly
    when the queried variable takes the queried value. The query "the
    one-valued variable forces the indicator to 0" holds iff no satisfying
    assignment of the (satisfiable) source attains the value."""
    var, value = xi
    if value not in source.domain(var):
        raise InputError(f"value {value!r} is not in the domain of {var!r}")
    from .bcs import enumerate_satisfying
    if not enumerate_satisfying(source, limit=1):
        raise InputError("the implication construction expects a satisfiable source")

    taken = {v.id for v in source.variables}
    probe = _fresh("X0", taken)
    indicator = _fresh("XI", taken | {probe})

    variables = list(source.variables)
    variables.append(Variable(probe, ("0",)))
    variables.append(Variable(indicator, ("0", "1")))

    dom = source.domain(var)
    pairs = [(value, "1")] + [(v, "0") for v in dom if v != value]
    indicator_constraint = Correspondence.from_pairs(var, indicator, dom, ("0", "1"), pairs)
    bcs = Bcs(tuple(variables), source.constraints + (indicator_constraint,))
    return bcs, (probe, "0", indicator, "0")


# ---------------------------------------------------------------------------
# Seeded random instances
# ---------------------------------------------------------------------------


def random_bcs(rng: random.Random, n_vars: int, max_domain: int,
               density: float = 0.6, pair_bit: float = 0.5) -> Bcs:
    """A random structure: each unordered variable pair gets a constraint with
    probability `density`, each value pair kept with probability `pair_bit`."""
    variables = []
    for i in range(n_vars):
        size = rng.randint(1, max_domain)
        variables.append(Variable(f"X{i + 1}", tuple(f"v{j + 1}" for j in range(size))))
    constraints = []
    for a, b in itertools.combinations(variables, 2):
        if rng.random() >= density:
            continue
        pairs = [(x, y) for x in a.domain for y in b.domain if rng.random() < pair_bit]
        constraints.append(Correspondence.from_pairs(a.id, b.id, a.domain, b.domain, pairs))
    return Bcs(tuple(variables), tuple(constraints))


def random_semilattice(rng: random.Random, max_size: int) -> tuple[tuple[str, ...], dict]:
    """A random join semilattice of at most `max_size` elements: a chain, a
    rooted tree under lowest-common-ancestor, or a union-closed set family."""
    kind = rng.choice(("chain", "tree", "sets"))
    if kind == "chain":
        size = rng.randint(1, max_size)
        dom = tuple(f"e{i}" for i in range(size))
        table = {(a, b): dom[max(i, j)]
                 for i, a in enumerate(dom) for j, b in enumerate(dom)}
        return dom, table
    if kind == "tree":
        size = rng.randint(1, max_size)
        dom = tuple(f"e{i}" for i in range(size))
        parent = {0: None}
        for i in range(1, size):
            parent[i] = rng.randrange(i)
        ancestry = {}
        for i in range(size):
            chain = [i]
            while parent[chain[-1]] is not None:
                chain.append(parent[chain[-1]])
            ancestry[i] = chain
        table = {}
        for i in range(size):
            for j in range(size):
                up = set(ancestry[j])
                lca = next(a for a in ancestry[i] if a in up)
                table[(dom[i], dom[j])] = dom[lca]
        return dom, table
    ground = rng.randint(2, 3)
    for _ in range(50):
        masks = {rng.randint(1, (1 << ground) - 1) for _ in range(rng.randint(1, 3))}
        family = set(masks)
        frontier = list(masks)
        while frontier:
            m = frontier.pop()
            for other in list(family):
                u = m | other
                if u not in family:
                    family.add(u)
                    frontier.append(u)
        if len(family) <= max_size:
            ordered = sorted(family)
            dom = tuple(f"s{m}" for m in ordered)
            pos = {m: f"s{m}" for m in ordered}
            table = {(pos[a], pos[b]): pos[a | b] for a in ordered for b in ordered}
            return dom, table
    dom = ("e0",)
    return dom, {("e0", "e0"): "e0"}


def _close_pairs_under_join(pairs: set[tuple[str, str]], jx, jy) -> set[tuple[str, str]]:
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.combinations(sorted(pairs), 2):
            joined = (jx[(a, c)], jy[(b, d)])
            if joined not in pairs:
                pairs.add(joined)
                changed = True
    return pairs


def _random_closed_bcs(rng: random.Random, variables: list[Variable],
                       joins: dict, density: float) -> Bcs:
    """Constrain each variable pair with probability `density` by a random
    relation closed under the per-variable join tables `joins`."""
    constraints = []
    for a, b in itertools.combinations(variables, 2):
        if rng.random() >= density:
            continue
        bit = rng.choice((0.2, 0.35, 0.6))
        pairs = {(x, y) for x in a.domain for y in b.domain if rng.random() < bit}
        pairs = _close_pairs_under_join(pairs, joins[a.id], joins[b.id])
        constraints.append(Correspondence.from_pairs(a.id, b.id, a.domain, b.domain, pairs))
    return Bcs(tuple(variables), tuple(constraints))


def random_join_closed_bcs(rng: random.Random, n_vars: int, max_domain: int,
                           density: float = 0.8) -> tuple[Bcs, dict]:
    """A random structure whose constraints are all closed under a random
    per-variable join family (relations are closed by saturation)."""
    variables = []
    joins = {}
    for i in range(n_vars):
        dom, table = random_semilattice(rng, max_domain)
        name = f"X{i + 1}"
        variables.append(Variable(name, dom))
        joins[name] = table
    return _random_closed_bcs(rng, variables, joins, density), joins


def random_max_closed_bcs(rng: random.Random, n_vars: int, max_domain: int,
                          density: float = 0.8) -> tuple[Bcs, dict[str, tuple[str, ...]]]:
    """A random structure max-closed under random per-variable total orders."""
    variables = []
    orders = {}
    for i in range(n_vars):
        size = rng.randint(1, max_domain)
        dom = tuple(f"v{j + 1}" for j in range(size))
        name = f"X{i + 1}"
        variables.append(Variable(name, dom))
        perm = list(dom)
        rng.shuffle(perm)
        orders[name] = tuple(perm)
    rank = {name: {v: i for i, v in enumerate(order)} for name, order in orders.items()}
    maxima = {name: {(a, b): (a if r[a] >= r[b] else b) for a in r for b in r}
              for name, r in rank.items()}
    return _random_closed_bcs(rng, variables, maxima, density), orders
