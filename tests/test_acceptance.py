"""Acceptance suite: one test per criterion, exact tolerances, one printed
pass line each. Run with `pytest tests/test_acceptance.py -v -s`."""

import itertools
import math
import random
import time

from oc_reason import (
    AssumptionSelection,
    Correspondence,
    DecisionMode,
    NormalFormGame,
    Preference,
    augment_always_satisfiable,
    build_assumption_bcs,
    compose,
    csp_to_si_games,
    decide_si,
    derivable,
    enumerate_satisfying,
    find_any_si,
    implication_instance,
    implies,
    intersect,
    inverse,
    is_join_closed,
    is_max_closed,
    join_incompleteness_instance,
    montanari_instance,
    orders_for_assumptions,
    pareto_preference,
    path_consistency,
    path_consistency_sweeps,
    random_bcs,
    random_join_closed_bcs,
    random_max_closed_bcs,
)
from oc_reason.fixtures import chicken_trio, stag_hunt_pair
from oc_reason.assumptions import DecreasingRiskPair
from conftest import affine_copy, random_game, with_dominated_row


def _report(number: int, label: str) -> None:
    print(f"criterion {number:02d} ({label}): PASS")


def _random_pareto_pref(rng, bcs):
    payoff = {(v.id, o): (rng.randint(0, 3), rng.randint(0, 3))
              for v in bcs.variables for o in v.domain}
    return Preference.from_relation(
        {v.id: v.domain for v in bcs.variables},
        lambda a, b: all(x >= y for x, y in zip(payoff[a], payoff[b])))


def test_c01_worked_example_chicken_trio():
    games = list(chicken_trio())
    bcs = build_assumption_bcs(games, AssumptionSelection(dominance=True, isomorphism=True))
    phi, psi = bcs.constraints
    composed = compose(phi, psi)
    expected = {
        "D,D": ("F,F",), "D,C": ("F,E",), "C,D": ("E,F",), "C,C": ("E,E",),
        "C',C": (), "C',D": (),
    }
    for outcome, image in expected.items():
        assert composed.image(outcome) == image, outcome
    pref = pareto_preference(games)
    for mode in DecisionMode:
        assert decide_si(bcs, "Ga", "Gc", pref, strict=True, mode=mode).yes, mode
    _report(1, "worked chicken-trio example, all three modes")


def test_c02_uninformative_unsatisfiable_instance():
    k4 = montanari_instance()
    prop = path_consistency(k4)
    assert not prop.narrowed()
    assert enumerate_satisfying(k4) == []
    empty = Correspondence.empty("X1", "X2", k4.domain("X1"), k4.domain("X2"))
    assert implies(k4, empty)
    assert not derivable(prop, empty)
    _report(2, "K4 coloring: implied but underivable empty relation")


def test_c03_join_closed_incompleteness_and_refutation():
    bcs, joins = join_incompleteness_instance()
    assert is_join_closed(bcs, joins).closed
    prop = path_consistency(bcs)
    assert prop.pair("X", "Y").contains("x2", "y2")
    realized = {(s["X"], s["Y"]) for s in enumerate_satisfying(bcs)}
    assert ("x2", "y2") not in realized
    pinned = bcs.with_constraints([Correspondence.from_pairs(
        "X", "Y", bcs.domain("X"), bcs.domain("Y"), [("x2", "y2")])])
    assert path_consistency(pinned).has_empty
    _report(3, "join-closed incompleteness with refutation recovery")


def test_c04_propagation_complete_on_max_closed():
    rng = random.Random(104)
    mismatches = 0
    for _ in range(1000):
        bcs, orders = random_max_closed_bcs(rng, rng.randint(2, 4), 4)
        assert is_max_closed(bcs, orders).closed
        prop = path_consistency(bcs)
        sols = enumerate_satisfying(bcs)
        names = [v.id for v in bcs.variables]
        minimal = {(a, b): set() for a in names for b in names}
        for s in sols:
            for a in names:
                for b in names:
                    minimal[(a, b)].add((s[a], s[b]))
        for key, pairs in minimal.items():
            if set(prop.pair(*key).pairs()) != pairs:
                mismatches += 1
        pref = _random_pareto_pref(rng, bcs)
        x, y = rng.sample(names, 2)
        strict = rng.random() < 0.5
        exact = decide_si(bcs, x, y, pref, strict, DecisionMode.EXACT).yes
        prop_v = decide_si(bcs, x, y, pref, strict, DecisionMode.PROPAGATION).yes
        if exact != prop_v:
            mismatches += 1
    assert mismatches == 0
    _report(4, "propagation exactness on 1000 max-closed structures")


def test_c05_refutation_complete_on_join_closed():
    rng = random.Random(105)
    mismatches = 0
    seen = {True: 0, False: 0}
    for _ in range(1000):
        bcs, joins = random_join_closed_bcs(rng, rng.randint(2, 4), 5)
        assert is_join_closed(bcs, joins).closed
        satisfiable = bool(enumerate_satisfying(bcs, limit=1))
        seen[satisfiable] += 1
        if path_consistency(bcs).has_empty == satisfiable:
            mismatches += 1
    assert mismatches == 0
    assert min(seen.values()) >= 50, f"unbalanced sample: {seen}"
    _report(5, "refutation completeness on 1000 join-closed structures")


def test_c06_csp_encoding_equivalence():
    rng = random.Random(106)
    mismatches = 0
    for trial in range(200):
        src = random_bcs(rng, rng.randint(1, 4), 3, density=0.7)
        satisfiable = bool(enumerate_satisfying(src, limit=1))
        inst = csp_to_si_games(src)
        pref = pareto_preference(list(inst.games))
        for strict in (False, True):
            if decide_si(inst.bcs, "G", "Gp", pref, strict=strict).yes != (not satisfiable):
                mismatches += 1
        perturbed = csp_to_si_games(src, perturb=True)
        pref_p = pareto_preference(list(perturbed.games))
        if not set(find_any_si(perturbed.bcs, pref_p, strict=True)) <= {("G", "Gp")}:
            mismatches += 1
        if trial % 4 == 0:
            if not set(find_any_si(perturbed.bcs, pref_p, strict=False)) <= {("G", "Gp")}:
                mismatches += 1
    assert mismatches == 0
    _report(6, "CSP-to-games encoding equivalence on 200 sources")


def test_c07_assumption_structures_certifiably_max_closed():
    rng = random.Random(107)
    left, right, stag_labeling = stag_hunt_pair()
    left2 = NormalFormGame.two_player("HL", ("aH", "aL"), ("aH", "aL"),
                                      [[(5, 5), (0, 2)], [(2, 0), (4, 4)]])
    right2 = NormalFormGame.two_player("HR", ("aH", "aL"), ("aH", "aL"),
                                       [[(6, 5), (1, 1)], [(2, 1), (4, 4)]])
    labeling2 = DecreasingRiskPair("HL", "HR", ("aH", "aH"), ("aL", "aL"),
                                   ("aH", "aH"), ("aL", "aL"))
    failures = 0
    for _ in range(200):
        games = [random_game(rng, "A")]
        if rng.random() < 0.7:
            games.append(affine_copy(rng, games[0], "B"))
        if rng.random() < 0.7:
            games.append(with_dominated_row(rng, games[0], "C"))
        if rng.random() < 0.5:
            games.append(random_game(rng, "D"))
        risk = ()
        draw = rng.random()
        if draw < 0.35:
            games += [left, right]
            risk = (stag_labeling,)
        elif draw < 0.6:
            games += [left2, right2]
            risk = (labeling2,)
        bcs = build_assumption_bcs(games, AssumptionSelection(
            dominance=True, isomorphism=True, nash=True, decreasing_risk=risk))
        orders = orders_for_assumptions(games, bcs)
        if not is_max_closed(bcs, orders).closed:
            failures += 1
    assert failures == 0
    _report(7, "constructed orders certify 200 assumption structures")


def test_c08_relation_algebra_laws():
    rng = random.Random(108)
    doms = [tuple(f"{c}{i}" for i in range(size)) for c, size in
            (("a", 3), ("b", 4), ("c", 3), ("d", 4))]

    def rand_rel(src, tgt, sd, td, p=0.5):
        return Correspondence.from_pairs(
            src, tgt, sd, td, [(x, y) for x in sd for y in td if rng.random() < p])

    failures = 0
    for _ in range(1000):
        f = rand_rel("A", "B", doms[0], doms[1])
        g = rand_rel("B", "C", doms[1], doms[2])
        h = rand_rel("C", "D", doms[2], doms[3])
        if compose(compose(f, g), h).rows != compose(f, compose(g, h)).rows:
            failures += 1
        f2 = rand_rel("A", "B", doms[0], doms[1])
        if intersect(f, f).rows != f.rows:
            failures += 1
        if intersect(f, f2).rows != intersect(f2, f).rows:
            failures += 1
        if inverse(inverse(f)).rows != f.rows:
            failures += 1

    # closedness preservation under composition and intersection
    for _ in range(1000):
        ranks = [{v: i for i, v in enumerate(rng.sample(d, len(d)))} for d in doms[:3]]
        tables = [{(a, b): (a if r[a] >= r[b] else b) for a in r for b in r}
                  for r in ranks]

        def closed_rel(src, tgt, si, ti):
            pairs = {(x, y) for x in doms[si] for y in doms[ti] if rng.random() < 0.4}
            changed = True
            while changed:
                changed = False
                for (x1, y1), (x2, y2) in itertools.combinations(sorted(pairs), 2):
                    top = (tables[si][(x1, x2)], tables[ti][(y1, y2)])
                    if top not in pairs:
                        pairs.add(top)
                        changed = True
            return Correspondence.from_pairs(src, tgt, doms[si], doms[ti], pairs)

        def is_closed(rel, si, ti):
            pairs = rel.pairs()
            return all(
                rel.contains(tables[si][(x1, x2)], tables[ti][(y1, y2)])
                for (x1, y1), (x2, y2) in itertools.combinations(pairs, 2))

        f = closed_rel("A", "B", 0, 1)
        g = closed_rel("B", "C", 1, 2)
        f2 = closed_rel("A", "B", 0, 1)
        if not is_closed(compose(f, g), 0, 2):
            failures += 1
        if not is_closed(intersect(f, f2), 0, 1):
            failures += 1
        if not is_closed(inverse(f), 1, 0):
            failures += 1
    assert failures == 0
    _report(8, "relation algebra laws and closedness preservation, 1000 each")


def test_c09_propagation_complexity_smoke():
    rng = random.Random(109)
    for _ in range(60):
        n = rng.randint(2, 12)
        m = rng.randint(2, 6)
        bcs = random_bcs(rng, n, m, density=0.5)
        prop = path_consistency_sweeps(bcs)
        m_actual = max(len(v.domain) for v in bcs.variables)
        assert prop.sweeps <= n * n * m_actual * m_actual

    sizes = (3, 6, 12)
    times = []
    for n in sizes:
        best = math.inf
        for _ in range(5):
            instances = [random_bcs(random.Random(1000 + n * 10 + i), n, 4, density=0.6)
                         for i in range(4)]
            start = time.perf_counter()
            for inst in instances:
                path_consistency(inst)
            best = min(best, time.perf_counter() - start)
        times.append(best)
    logs_n = [math.log(n) for n in sizes]
    logs_t = [math.log(t) for t in times]
    mean_n = sum(logs_n) / len(logs_n)
    mean_t = sum(logs_t) / len(logs_t)
    slope = sum((a - mean_n) * (b - mean_t) for a, b in zip(logs_n, logs_t)) / \
        sum((a - mean_n) ** 2 for a in logs_n)
    assert slope < 6, f"wall-time exponent {slope:.2f}"
    _report(9, f"sweep bound holds; wall-time exponent {slope:.2f} < 6")


def test_c10_satisfiability_preserving_constructions():
    rng = random.Random(110)
    failures = 0
    for _ in range(200):
        src = random_bcs(rng, rng.randint(1, 4), 3, density=0.6)
        aug = augment_always_satisfiable(src, (src.variables[0].id,
                                               src.variables[0].domain[0]))
        switch = aug.variables[0].id
        if not enumerate_satisfying(aug, limit=1):
            failures += 1
        on = [s for s in enumerate_satisfying(aug) if s[switch] == "1"]
        if len(on) != len(enumerate_satisfying(src)):
            failures += 1

    checked = 0
    while checked < 200:
        src = random_bcs(rng, rng.randint(1, 3), 3, density=0.5)
        if not enumerate_satisfying(src, limit=1):
            continue
        checked += 1
        var = rng.choice(src.variables).id
        value = rng.choice(src.domain(var))
        inst, (pv, pval, iv, ival) = implication_instance(src, (var, value))
        claim = Correspondence.from_pairs(pv, iv, inst.domain(pv), inst.domain(iv),
                                          [(pval, ival)])
        attainable = any(s[var] == value for s in enumerate_satisfying(src))
        if implies(inst, claim) != (not attainable):
            failures += 1
    assert failures == 0
    _report(10, "switch bijection and implication equivalence, 200 sources each")
