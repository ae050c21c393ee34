"""Preferences, improvement correspondences, and the three decision modes."""

import collections
import itertools
import random
import re

import pytest

from oc_reason import (
    AssumptionSelection,
    Bcs,
    Correspondence,
    DecisionMode,
    InputError,
    NormalFormGame,
    Preference,
    build_assumption_bcs,
    csp_to_si_games,
    decide_si,
    find_any_si,
    find_si_on,
    improvement_oc,
    intersect,
    joins_from_orders,
    montanari_instance,
    orders_for_assumptions,
    pareto_preference,
    path_consistency,
    player_preference,
    random_bcs,
    random_max_closed_bcs,
    refuted,
    serialize,
)
from oc_reason import si
from oc_reason.cli import main
from oc_reason.fixtures import single_outcome_game
from conftest import coloring_bcs, permuted_copy, planted_bcs, random_game, small_game


@pytest.fixture
def table2_games():
    """The degenerate 2x2 base game and the one-outcome improver used by the
    hardness construction."""
    base = NormalFormGame.two_player("G", ("a1", "a2"), ("a1", "a2"),
                                     [[(4, 0), (0, 0)], [(0, 0), (2, 1)]])
    return base, single_outcome_game("Gp", (3, 2))


class TestPreferences:
    def test_pareto_cross_game(self, trio):
        ga, gb, gc = trio
        pref = pareto_preference([ga, gb, gc])
        assert pref.gt(("Gc", "E,E"), ("Ga", "C,C"))
        assert pref.geq(("Ga", "C,C"), ("Ga", "C,C"))
        assert not pref.gt(("Ga", "C,C"), ("Ga", "C,C"))

    def test_table2_incomparable(self, table2_games):
        base, improver = table2_games
        pref = pareto_preference([base, improver])
        assert not pref.geq(("G", "a1,a1"), ("G", "a2,a2"))
        assert not pref.geq(("G", "a2,a2"), ("G", "a1,a1"))
        assert pref.geq(("Gp", "a1,a1"), ("G", "a2,a2"))
        assert pref.gt(("Gp", "a1,a1"), ("G", "a2,a2"))
        assert not pref.geq(("Gp", "a1,a1"), ("G", "a1,a1"))

    def test_player_count_mismatch(self, trio):
        three = NormalFormGame.create(
            "T", [["a"], ["b"], ["c"]], {("a", "b", "c"): (0, 0, 0)})
        with pytest.raises(InputError):
            pareto_preference([trio[0], three])

    def test_player_preference(self, trio, table2_games):
        base, _ = table2_games
        pref = player_preference([base], 0)
        assert pref.gt(("G", "a1,a1"), ("G", "a2,a2"))
        _, gb, _ = trio
        pref2 = player_preference([gb], 1)
        assert pref2.gt(("Gb", "C,D"), ("Gb", "D,D"))
        with pytest.raises(InputError, match="no player 3 in game 'Gb'"):
            player_preference([gb], 2)

    def test_explicit_closure_and_cycles(self):
        domains = {"X": ("a", "b", "c")}
        pref = Preference.from_pairs(domains, [
            (("X", "a"), ("X", "b")), (("X", "b"), ("X", "c"))])
        assert pref.geq(("X", "a"), ("X", "c"))  # transitive completion
        assert pref.gt(("X", "a"), ("X", "c"))
        with pytest.raises(InputError, match="cycle"):
            Preference.from_pairs(domains, [
                (("X", "a"), ("X", "b")), (("X", "b"), ("X", "a"))])
        with pytest.raises(InputError, match=re.escape("(('X', ['a']), ('X', 'b')) is outside")):
            Preference.from_pairs(domains, [(("X", ["a"]), ("X", "b"))])


def eager_reference(domains, geq):
    """The reference tabulation: every outcome key compared with every key
    up front, K^2 calls for K keys. Returns the tabulated weak relation."""
    keys = [(var, o) for var, dom in domains.items() for o in dom]
    index = {k: i for i, k in enumerate(keys)}
    rows = [sum(1 << j for j, b in enumerate(keys) if geq(a, b)) for a in keys]
    return lambda a, b: bool(rows[index[a]] >> index[b] & 1)


def reference_claim(domains, geq, x, y, strict):
    better = (lambda a, b: geq(a, b) and not geq(b, a)) if strict else geq
    return Correspondence.from_pairs(x, y, domains[x], domains[y], [
        (o, o2) for o in domains[x] for o2 in domains[y] if better((y, o2), (x, o))])


def _closure(keys, pairs):
    """Reflexive-transitive closure of explicit pairs, by Warshall's loop."""
    geq = {(a, b) for a, b in pairs} | {(a, a) for a in keys}
    for t in keys:
        geq |= {(a, b) for a in keys if (a, t) in geq for b in keys if (t, b) in geq}
    return geq


def _seeded_preferences():
    """Seeded (kind, preference, domains, reference weak relation): Pareto
    and player preferences over random games with payoffs in 0..2, so ties
    (mutual weak preference) are common; `from_relation` over random payoff
    vectors; explicit preferences from random pairs."""
    rng = random.Random(71)
    for k in range(120):
        games = [random_game(rng, f"G{i}", payoff_range=(0, 2))
                 for i in range(rng.randint(1, 5))]
        domains = {g.name: g.outcome_labels() for g in games}
        payoff = {(g.name, g.profile_label(p)): g.payoff(p) for g in games for p in g.profiles()}
        kind = ("pareto", "player", "relation", "explicit")[k % 4]
        if kind == "pareto":
            yield kind, pareto_preference(games), domains, eager_reference(
                domains, lambda a, b: all(u >= v for u, v in zip(payoff[a], payoff[b])))
        elif kind == "player":
            i = rng.randint(0, 1)
            yield kind, player_preference(games, i), domains, eager_reference(
                domains, lambda a, b: payoff[a][i] >= payoff[b][i])
        elif kind == "relation":
            values = {key: (rng.randint(0, 2), rng.randint(0, 2)) for key in payoff}

            def geq(a, b):
                return all(u >= v for u, v in zip(values[a], values[b]))
            yield kind, Preference.from_relation(domains, geq), domains, eager_reference(domains, geq)
        else:
            keys = list(payoff)
            pairs = [(a, b) for a in keys for b in keys if rng.random() < 0.05]
            try:
                pref = Preference.from_pairs(domains, pairs)
            except InputError:
                continue  # a cycle; the closure check is tested on its own
            closed = _closure(keys, pairs)
            yield kind, pref, domains, eager_reference(domains, lambda a, b: (a, b) in closed)


class TestQueryScopedPreferences:
    def test_blocks_equal_the_eager_tabulation(self):
        # claims are built first, so geq/gt then read blocks filled both ways
        kinds, ties = set(), 0
        for kind, pref, domains, ref in _seeded_preferences():
            kinds.add(kind)
            names = list(domains)
            for x in names:
                for y in names:
                    for strict in (False, True):
                        assert improvement_oc(x, y, pref, strict).rows == \
                            reference_claim(domains, ref, x, y, strict).rows
            keys = [(var, o) for var in names for o in domains[var]]
            for a in keys:
                for b in keys:
                    assert pref.geq(a, b) == ref(a, b)
                    assert pref.gt(a, b) == (ref(a, b) and not ref(b, a))
                    ties += a != b and ref(a, b) and ref(b, a)
        assert kinds == {"pareto", "player", "relation", "explicit"}
        assert ties >= 100

    def test_payoffs_are_read_per_game_on_first_comparison(self, monkeypatch):
        # ties (payoffs 0..2), rational payoffs (affine permuted copies) and
        # 3-player games; a claim on x and y reads x's and y's payoffs once
        rng = random.Random(73)
        original, read = NormalFormGame.payoff, collections.Counter()

        def payoff(game, profile):
            read[game.name] += 1
            return original(game, profile)
        monkeypatch.setattr(NormalFormGame, "payoff", payoff)
        ties = 0
        for k in range(60):
            players = 2 + k % 2
            games = [small_game(rng, f"G{i}", players) for i in range(rng.randint(2, 4))]
            games += [permuted_copy(rng, rng.choice(games), f"P{i}") for i in range(2)]
            vector = {(g.name, g.profile_label(p)): original(g, p)
                      for g in games for p in g.profiles()}
            domains = {g.name: g.outcome_labels() for g in games}
            i = rng.randrange(players)
            for make, geq in (
                    (lambda: pareto_preference(games),
                     lambda a, b: all(u >= v for u, v in zip(vector[a], vector[b]))),
                    (lambda: player_preference(games, i),
                     lambda a, b: vector[a][i] >= vector[b][i])):
                read.clear()
                pref, ref = make(), eager_reference(domains, geq)
                assert not read
                x, y = rng.sample(list(domains), 2)
                for strict in (False, True):
                    assert improvement_oc(x, y, pref, strict).rows == \
                        reference_claim(domains, ref, x, y, strict).rows
                assert read == {x: len(domains[x]), y: len(domains[y])}
                for u, v in itertools.product(domains, repeat=2):
                    assert pref.block(u, v) == reference_claim(domains, ref, u, v, False).rows
                ties += sum(ref(a, b) and ref(b, a) for a in itertools.product([x], domains[x])
                            for b in itertools.product([y], domains[y]))
        assert ties >= 50

    def test_comparisons_call_compare_directly(self, trio):
        # geq and gt read no block: one or two calls of compare, on the keys
        domains = {g.name: g.outcome_labels() for g in trio}
        calls = []

        def compare(a, b):
            calls.append((a, b))
            return a[1] >= b[1]
        pref = Preference.from_relation(domains, compare)
        a, b = ("Gc", "E,E"), ("Ga", "C,C")
        for ask, want, asked in ((pref.geq, True, [(a, b)]), (pref.gt, True, [(a, b), (b, a)]),
                                 (pref.gt, False, [(b, a)])):
            calls.clear()
            x, y = asked[0]
            assert ask(list(x), y) is want and calls == asked
        assert pref._blocks == {}

    def test_unknown_outcomes_raise(self, trio):
        games = list(trio)
        domains = {g.name: g.outcome_labels() for g in games}
        for pref in (pareto_preference(games), player_preference(games, 1),
                     Preference.from_pairs(domains, [])):
            known = ("Ga", "C,C")
            for bad in (("Ga", "nope"), ("Nope", "C,C"), ("Ga",), None, ("Ga", ["C,C"])):
                for compare in (pref.geq, pref.gt):
                    with pytest.raises(InputError, match="unknown outcome"):
                        compare(bad, known)
                    with pytest.raises(InputError, match="unknown outcome"):
                        compare(known, bad)
            for strict in (False, True):
                with pytest.raises(InputError, match="unknown variable"):
                    improvement_oc("Nope", "Ga", pref, strict)

    def test_irreflexive_relation_is_rejected(self):
        with pytest.raises(InputError, match="reflexive"):
            Preference.from_relation({"X": ("a", "b")}, lambda a, b: a != b)


def test_check_si_compares_only_the_queried_games(tmp_path, monkeypatch):
    # reflexivity costs one comparison per outcome; then the weak claim reads
    # block (G, Gp) and the strict claim also block (Gp, G)
    rng = random.Random(72)
    inst = csp_to_si_games(random_bcs(rng, 14, 3, density=0.4))
    assert len(inst.games) >= 15
    refs = {g.name: f"games/{g.name}.json" for g in inst.games}
    (tmp_path / "games").mkdir()
    for g in inst.games:
        serialize.write_json(tmp_path / refs[g.name], serialize.game_to_json(g))
    serialize.write_json(tmp_path / "bcs.json", serialize.bcs_to_json(inst.bcs, games=refs))
    calls = []
    plain = Preference.from_relation.__func__

    def counting(cls, domains, geq):
        return plain(cls, domains, lambda a, b: calls.append(a) or geq(a, b))
    monkeypatch.setattr(Preference, "from_relation", classmethod(counting))
    k = sum(len(g.outcome_labels()) for g in inst.games)
    x, y = (len(g.outcome_labels()) for g in inst.games[:2])
    for strict, bound in ((False, k + x * y), (True, k + 2 * x * y)):
        calls.clear()
        main(["check-si", str(tmp_path / "bcs.json"), "G", "Gp", "--pref", "pareto",
              *(["--strict"] if strict else [])])
        assert 0 < len(calls) <= bound
    assert k + 2 * x * y < k * k // 20


class TestImprovementOc:
    def test_trio_strict_contains_dd_ff(self, trio):
        pref = pareto_preference(list(trio))
        oc = improvement_oc("Ga", "Gc", pref, strict=True)
        assert oc.contains("D,D", "F,F")

    def test_self_nonstrict_contains_diagonal(self, trio):
        pref = pareto_preference(list(trio))
        oc = improvement_oc("Gb", "Gb", pref, strict=False)
        for o in oc.source_domain:
            assert oc.contains(o, o)

    def test_table2_pairs(self, table2_games):
        base, improver = table2_games
        pref = pareto_preference([base, improver])
        oc = improvement_oc("G", "Gp", pref, strict=False)
        assert oc.contains("a2,a2", "a1,a1")
        assert not oc.contains("a1,a1", "a1,a1")

    def test_unknown_variable(self, trio):
        pref = pareto_preference(list(trio))
        with pytest.raises(InputError):
            improvement_oc("Ga", "Nope", pref, strict=False)

    def test_only_the_strict_claim_transposes(self, trio, monkeypatch):
        # the weak claim is the (x, y) block as tabulated; the strict claim
        # transposes the (y, x) block once
        calls = []
        plain = si.inverse
        monkeypatch.setattr(si, "inverse", lambda phi: calls.append(phi) or plain(phi))
        pref = pareto_preference(list(trio))
        names = [g.name for g in trio]
        for x in names:
            for y in names:
                improvement_oc(x, y, pref, strict=False)
        assert calls == []
        improvement_oc("Ga", "Gc", pref, strict=True)
        assert len(calls) == 1


def trio_bcs(trio):
    return build_assumption_bcs(list(trio),
                                AssumptionSelection(dominance=True, isomorphism=True))


class TestDecideSi:
    def test_trio_all_modes_yes(self, trio):
        bcs = trio_bcs(trio)
        pref = pareto_preference(list(trio))
        for mode in DecisionMode:
            verdict = decide_si(bcs, "Ga", "Gc", pref, strict=True, mode=mode)
            assert verdict.yes, mode
            assert verdict.mode is mode

    def test_reflexive_nonstrict_yes(self, trio):
        bcs = trio_bcs(trio)
        pref = pareto_preference(list(trio))
        assert decide_si(bcs, "Gb", "Gb", pref, strict=False).yes

    def test_counterexample_is_valid(self, trio):
        bcs = trio_bcs(trio)
        pref = pareto_preference(list(trio))
        verdict = decide_si(bcs, "Gc", "Ga", pref, strict=False)
        assert not verdict.yes
        cex = verdict.counterexample
        assert cex is not None and cex.satisfies(bcs)
        assert not pref.geq(("Ga", cex["Ga"]), ("Gc", cex["Gc"]))

    def test_certificates_verified(self, trio):
        bcs = trio_bcs(trio)
        pref = pareto_preference(list(trio))
        orders = orders_for_assumptions(list(trio), bcs)
        verdict = decide_si(bcs, "Ga", "Gc", pref, strict=True,
                            mode=DecisionMode.PROPAGATION, orders=orders)
        assert verdict.yes and verdict.certified
        joins = joins_from_orders(bcs, orders)
        verdict = decide_si(bcs, "Ga", "Gc", pref, strict=True,
                            mode=DecisionMode.REFUTATION, joins=joins)
        assert verdict.yes and verdict.certified

    def test_bad_certificate_raises(self):
        k4 = montanari_instance()
        dom = k4.domain("X1")
        pref = Preference.from_pairs({v.id: v.domain for v in k4.variables}, [])
        with pytest.raises(InputError, match="orders do not certify"):
            decide_si(k4, "X1", "X2", pref, mode=DecisionMode.PROPAGATION,
                      orders={v.id: v.domain for v in k4.variables})
        assert dom == ("1", "2", "3")

    def test_unsatisfiable_structure_vacuous_yes_exact_only(self):
        # the exact decider sees the vacuous truth on the unsatisfiable K4;
        # propagation and refutation cannot, since no inferences can be made
        k4 = montanari_instance()
        pref = Preference.from_pairs({v.id: v.domain for v in k4.variables}, [])
        assert decide_si(k4, "X1", "X2", pref, strict=True, mode=DecisionMode.EXACT).yes
        assert not decide_si(k4, "X1", "X2", pref, strict=True,
                             mode=DecisionMode.PROPAGATION).yes
        assert not decide_si(k4, "X1", "X2", pref, strict=True,
                             mode=DecisionMode.REFUTATION).yes


class TestFindSi:
    def test_trio_strict_and_nonstrict(self, trio):
        bcs = trio_bcs(trio)
        pref = pareto_preference(list(trio))
        assert find_si_on(bcs, "Ga", pref, strict=True) == ["Gc"]
        assert find_si_on(bcs, "Ga", pref, strict=False) == ["Gb", "Gc"]

    def test_single_variable_empty(self, pd):
        bcs = build_assumption_bcs([pd], AssumptionSelection(nash=True))
        pref = pareto_preference([pd])
        assert find_si_on(bcs, "PD", pref) == []

    def test_any_pairs(self, trio):
        bcs = trio_bcs(trio)
        pref = pareto_preference(list(trio))
        assert ("Ga", "Gc") in find_any_si(bcs, pref, strict=True)

    def test_certificate_verified_once_per_call(self, monkeypatch):
        import oc_reason.si as si
        calls = []

        def counted(check):
            def wrapper(*args):
                calls.append(check.__name__)
                return check(*args)
            return wrapper

        monkeypatch.setattr(si, "is_max_closed", counted(si.is_max_closed))
        monkeypatch.setattr(si, "is_join_closed", counted(si.is_join_closed))
        bcs, orders = random_max_closed_bcs(random.Random(33), 5, 3)
        joins = joins_from_orders(bcs, orders)
        pref = Preference.from_relation({v.id: v.domain for v in bcs.variables},
                                        lambda a, b: a[1] >= b[1])
        for mode in DecisionMode:
            find_any_si(bcs, pref, mode=mode, orders=orders, joins=joins)
            find_si_on(bcs, "X1", pref, mode=mode, orders=orders, joins=joins)
        assert calls == ["is_max_closed"] * 2 + ["is_join_closed"] * 2

    def test_one_propagation_per_call(self, monkeypatch):
        # find_* share one fixed point across their pairs; decide_si keeps
        # one propagation per pair, not the fixed point plus a restart. A
        # propagation from scratch queues every pair; refutation find_*'s
        # restarts from the fixed point queue one pair each
        import oc_reason.bcs as bcs_module
        propagate, calls = bcs_module._propagate, []

        def counted(rel, seeds, stride):
            seeds = list(seeds)
            if len(seeds) == len(rel) * (len(rel) + 1) // 2:
                calls.append(rel)
            return propagate(rel, seeds, stride)

        monkeypatch.setattr(bcs_module, "_propagate", counted)
        bcs, _ = random_max_closed_bcs(random.Random(34), 5, 3)
        pref = Preference.from_relation({v.id: v.domain for v in bcs.variables},
                                        lambda a, b: a[1] >= b[1])
        for mode in DecisionMode:
            expected = 0 if mode is DecisionMode.EXACT else 1
            for query in (lambda: find_any_si(bcs, pref, mode=mode),
                          lambda: find_si_on(bcs, "X1", pref, mode=mode),
                          lambda: decide_si(bcs, "X1", "X2", pref, mode=mode)):
                calls.clear()
                query()
                assert len(calls) == expected, mode

    def test_one_store_per_exact_call(self, monkeypatch):
        # exact find_* narrow copies of one normalized store, not one
        # augmented structure per pair
        import oc_reason.bcs as bcs_module
        calls = []
        store = bcs_module._relation_store

        def counted(bcs):
            calls.append(bcs)
            return store(bcs)

        monkeypatch.setattr(bcs_module, "_relation_store", counted)
        bcs, _ = random_max_closed_bcs(random.Random(35), 5, 3)
        pref = Preference.from_relation({v.id: v.domain for v in bcs.variables},
                                        lambda a, b: a[1] >= b[1])
        for strict in (False, True):
            for query in (lambda: find_any_si(bcs, pref, strict, DecisionMode.EXACT),
                          lambda: find_si_on(bcs, "X1", pref, strict, DecisionMode.EXACT),
                          lambda: decide_si(bcs, "X1", "X2", pref, strict, DecisionMode.EXACT)):
                calls.clear()
                query()
                assert calls == [bcs]

    @pytest.mark.parametrize("mode", ["exact", None])
    def test_unknown_mode_raises(self, trio, pd, mode):
        bcs = trio_bcs(trio)
        pref = pareto_preference(list(trio))
        single = build_assumption_bcs([pd], AssumptionSelection(nash=True))
        for query in (lambda: decide_si(bcs, "Ga", "Gc", pref, mode=mode),
                      lambda: find_any_si(bcs, pref, mode=mode),
                      lambda: find_si_on(bcs, "Ga", pref, mode=mode),
                      lambda: find_si_on(single, "PD", pareto_preference([pd]), mode=mode)):
            with pytest.raises(InputError, match="unknown decision mode"):
                query()

    def test_incomparable_outcomes_no_pairs(self, table2_games):
        base, improver = table2_games
        # no constraints: every outcome combination occurs, and the base
        # game's diagonal outcomes are incomparable with the improver's
        bcs = Bcs.create([("G", base.outcome_labels()), ("Gp", improver.outcome_labels())])
        pref = pareto_preference([base, improver])
        assert find_any_si(bcs, pref, strict=False) == []


def _differential_structures():
    """160 seeded structures of 1 to 8 variables with domains up to 4: random
    ones and graph colourings at three densities, and every fourth
    max-closed with its orders and joins. The variable count is the smaller
    of two draws: the per-pair reference costs about n^5, so a uniform draw
    would spend most of the time on the few largest structures."""
    rng = random.Random(60)
    for k in range(160):
        n = min(rng.randint(1, 8), rng.randint(1, 8))
        density = (0.3, 0.6, 0.9)[k % 3]
        if k % 4 == 3:
            bcs, orders = random_max_closed_bcs(rng, n, 4)
            yield rng, bcs, orders, joins_from_orders(bcs, orders)
        elif k % 4 == 1:
            yield rng, coloring_bcs(rng, n, density), None, None
        else:
            yield rng, random_bcs(rng, n, 4, density=density), None, None


def test_find_si_equals_per_pair_decisions():
    # find_* decide from one shared fixed point (refutation restarts from it
    # with one pair queued); decide_si propagates each pair from scratch
    with_empty, largest = 0, 0
    for rng, bcs, orders, joins in _differential_structures():
        pref = _random_pref(rng, bcs)
        names = [v.id for v in bcs.variables]
        largest = max(largest, len(names))
        base_empty = path_consistency(bcs).has_empty
        with_empty += base_empty
        for mode in DecisionMode:
            for strict in (False, True):
                decided = [(x, y) for x in names for y in names if x != y and
                           decide_si(bcs, x, y, pref, strict, mode).yes]
                assert find_any_si(bcs, pref, strict, mode, orders, joins) == decided
                x = rng.choice(names)
                assert find_si_on(bcs, x, pref, strict, mode, orders, joins) == \
                    [b for a, b in decided if a == x]
                if base_empty and mode is DecisionMode.REFUTATION:
                    assert len(decided) == len(names) * (len(names) - 1)
    assert with_empty >= 20 and largest == 8


def test_refuted_agrees_with_propagating_the_augmented_structure():
    # some refutations must need the restarted propagation: the narrowed
    # relation alone is not empty
    propagated = 0
    for rng, bcs, _, _ in _differential_structures():
        pref = _random_pref(rng, bcs)
        fixed_point = path_consistency(bcs)
        for x in (v.id for v in bcs.variables):
            y = rng.choice(bcs.variables).id
            claim = improvement_oc(x, y, pref, rng.random() < 0.5)
            augmented = path_consistency(bcs.with_constraints([claim.complement()]))
            assert refuted(fixed_point, claim) == augmented.has_empty
            if fixed_point.has_empty:
                assert refuted(fixed_point, claim)
            narrowed = intersect(fixed_point.pair(x, y), claim.complement())
            propagated += augmented.has_empty and not narrowed.is_everywhere_empty()
    assert propagated >= 10


def test_refutation_decision_equals_propagating_the_augmented_structure():
    # decide_si propagates the augmented structure from scratch; its verdict
    # also equals refuted's on the structure's own fixed point, the
    # incremental path that find_* take. Self-pairs and structures whose
    # own fixed point is empty are among the queries
    answers, self_pairs = set(), 0
    for rng, bcs, _, _ in _differential_structures():
        pref = _random_pref(rng, bcs)
        fixed_point = path_consistency(bcs)
        for x in (v.id for v in bcs.variables):
            y, strict = rng.choice(bcs.variables).id, rng.random() < 0.5
            claim = improvement_oc(x, y, pref, strict)
            augmented = path_consistency(bcs.with_constraints([claim.complement()]))
            verdict = decide_si(bcs, x, y, pref, strict, DecisionMode.REFUTATION)
            assert verdict.yes == augmented.has_empty
            assert verdict.yes == refuted(fixed_point, claim)
            answers.add(verdict.yes)
            self_pairs += x == y
    assert answers == {True, False} and self_pairs >= 20


def test_find_si_equals_decisions_on_planted_structures():
    # larger structures, not closed under any order, where most pairs are
    # answered by a kept witness: exact find_* equal decide_si on every pair;
    # propagation and refutation on a sample of yes and no pairs, since each
    # of their decisions propagates the whole structure from scratch
    rng = random.Random(62)
    decided = {True: 0, False: 0}
    for n in (12, 16):
        bcs = planted_bcs(rng, n)
        pref = _random_pref(rng, bcs)
        names = [v.id for v in bcs.variables]
        pairs = [(x, y) for x in names for y in names if x != y]
        for mode in DecisionMode:
            for strict in (False, True):
                found = find_any_si(bcs, pref, strict, mode)
                sample = pairs if mode is DecisionMode.EXACT else \
                    rng.sample(found, min(2, len(found))) + \
                    rng.sample([p for p in pairs if p not in found], 2)
                for x, y in sample:
                    yes = decide_si(bcs, x, y, pref, strict, mode).yes
                    assert yes == ((x, y) in found), (n, mode, strict, x, y)
                    decided[yes] += 1
                x = rng.choice(names)
                assert find_si_on(bcs, x, pref, strict, mode) == \
                    [b for a, b in found if a == x]
    assert min(decided.values()) >= 60


def test_witnesses_spare_searches_and_propagations(monkeypatch):
    # replay each find_* call: every kept witness (a search's find, a
    # completed descent) satisfies the structure and violates the claim it
    # was found for; a pair that an earlier witness answers costs no search,
    # descent or propagation, and any other pair at most one search or one
    # propagation
    import oc_reason.bcs as bcs_module
    import oc_reason.si as si
    log = []

    def logged(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            out = original(*args)
            log.append((name, out))
            return out
        monkeypatch.setattr(module, name, wrapper)

    logged(si, "_claim")
    logged(bcs_module, "_search")
    logged(bcs_module, "_descend")
    logged(bcs_module, "_refute")
    counts = {"answered": 0, "searched": 0, "propagated": 0, "descended": 0}
    rng = random.Random(63)
    structures = [planted_bcs(rng, n) for n in (12, 14)]
    structures += [random_max_closed_bcs(rng, 9, 5)[0] for _ in range(2)]
    for bcs in structures:
        pref = _random_pref(rng, bcs)
        for mode in (DecisionMode.EXACT, DecisionMode.REFUTATION):
            for strict in (False, True):
                for query in (lambda: find_any_si(bcs, pref, strict, mode),
                              lambda: find_si_on(bcs, "X1", pref, strict, mode)):
                    log.clear()
                    query()
                    _replay(bcs, log, counts)
    assert counts["answered"] >= 500 and counts["searched"] >= 20
    assert counts["descended"] >= 20 and counts["propagated"] >= 5


def _replay(bcs, log, counts):
    witnesses = []
    starts = [i for i, (name, _) in enumerate(log) if name == "_claim"] + [len(log)]
    for start, end in zip(starts, starts[1:]):
        claim = log[start][1]
        work = log[start + 1:end]
        if any(not claim.contains(w[claim.source], w[claim.target]) for w in witnesses):
            assert work == []
            counts["answered"] += 1
            continue
        names = [name for name, _ in work]
        assert names.count("_search") <= 1 and names.count("_refute") <= 1
        # a propagation that does not refute is followed by a descent
        assert ("_refute", False) not in work or names[-1] == "_descend"
        counts["searched"] += names.count("_search")
        counts["propagated"] += names.count("_refute")
        for name, out in work:
            witness = out[0] if name == "_search" and out else \
                out if name == "_descend" else None
            if witness is not None:
                assert witness.satisfies(bcs)
                assert not claim.contains(witness[claim.source], witness[claim.target])
                witnesses.append(witness)
                counts["descended"] += name == "_descend"


class TestModeAgreement:
    def test_propagation_sound_always(self):
        rng = random.Random(50)
        for _ in range(40):
            bcs = random_bcs(rng, rng.randint(2, 4), 3)
            pref = _random_pref(rng, bcs)
            names = [v.id for v in bcs.variables]
            x, y = rng.sample(names, 2)
            strict = rng.random() < 0.5
            prop = decide_si(bcs, x, y, pref, strict, DecisionMode.PROPAGATION)
            if prop.yes:
                assert decide_si(bcs, x, y, pref, strict, DecisionMode.EXACT).yes

    def test_propagation_complete_on_max_closed(self):
        rng = random.Random(51)
        for _ in range(60):
            bcs, orders = random_max_closed_bcs(rng, rng.randint(2, 4), 4)
            pref = _random_pref(rng, bcs)
            names = [v.id for v in bcs.variables]
            x, y = rng.sample(names, 2)
            strict = rng.random() < 0.5
            exact = decide_si(bcs, x, y, pref, strict, DecisionMode.EXACT)
            prop = decide_si(bcs, x, y, pref, strict, DecisionMode.PROPAGATION,
                             orders=orders)
            assert exact.yes == prop.yes

    def test_refutation_exact_on_join_closed_augmentations(self):
        # when the structure is join-closed and the added non-improvement
        # relation is itself closed under the same joins, refutation is
        # complete, not merely sound
        from oc_reason import improvement_oc, random_join_closed_bcs

        def rel_closed(rel, jx, jy):
            pairs = rel.pairs()
            return all(rel.contains(jx[(a, c)], jy[(b, d)])
                       for (a, b) in pairs for (c, d) in pairs)

        rng = random.Random(55)
        comparable = 0
        for _ in range(200):
            bcs, joins = random_join_closed_bcs(rng, rng.randint(2, 4), 4)
            pref = _random_pref(rng, bcs)
            names = [v.id for v in bcs.variables]
            x, y = rng.sample(names, 2)
            strict = rng.random() < 0.5
            claim = improvement_oc(x, y, pref, strict)
            if not rel_closed(claim.complement(), joins[x], joins[y]):
                continue
            comparable += 1
            exact = decide_si(bcs, x, y, pref, strict, DecisionMode.EXACT)
            ref = decide_si(bcs, x, y, pref, strict, DecisionMode.REFUTATION,
                            joins=joins)
            assert exact.yes == ref.yes
        assert comparable >= 30

    def test_refutation_sound_always(self):
        rng = random.Random(52)
        for _ in range(40):
            bcs = random_bcs(rng, rng.randint(2, 4), 3)
            pref = _random_pref(rng, bcs)
            names = [v.id for v in bcs.variables]
            x, y = rng.sample(names, 2)
            strict = rng.random() < 0.5
            ref = decide_si(bcs, x, y, pref, strict, DecisionMode.REFUTATION)
            if ref.yes:
                assert decide_si(bcs, x, y, pref, strict, DecisionMode.EXACT).yes

    def test_strict_implies_nonstrict(self):
        rng = random.Random(53)
        for _ in range(40):
            bcs = random_bcs(rng, rng.randint(2, 4), 3)
            pref = _random_pref(rng, bcs)
            names = [v.id for v in bcs.variables]
            x, y = rng.sample(names, 2)
            if decide_si(bcs, x, y, pref, strict=True).yes:
                assert decide_si(bcs, x, y, pref, strict=False).yes

    def test_monotone_in_preference(self):
        rng = random.Random(54)
        for _ in range(30):
            bcs = random_bcs(rng, 3, 3)
            names = [v.id for v in bcs.variables]
            domains = {v.id: v.domain for v in bcs.variables}
            keys = [(v.id, o) for v in bcs.variables for o in v.domain]
            pairs1 = [(a, b) for a in keys for b in keys if rng.random() < 0.15]
            try:
                pref1 = Preference.from_pairs(domains, pairs1)
                extra = [(a, b) for a in keys for b in keys if rng.random() < 0.1]
                pref2 = Preference.from_pairs(domains, pairs1 + extra)
            except InputError:
                continue  # cycle rejected; resample
            x, y = rng.sample(names, 2)
            if decide_si(bcs, x, y, pref1, strict=False).yes:
                assert decide_si(bcs, x, y, pref2, strict=False).yes

    def test_si_as_oc_identity(self, trio):
        # exact decision coincides with implies() on the improvement claim
        from oc_reason import implies
        bcs = trio_bcs(trio)
        pref = pareto_preference(list(trio))
        for x in ("Ga", "Gb", "Gc"):
            for y in ("Ga", "Gb", "Gc"):
                for strict in (False, True):
                    claim = improvement_oc(x, y, pref, strict)
                    assert decide_si(bcs, x, y, pref, strict).yes == implies(bcs, claim)


def _random_pref(rng, bcs):
    """A random Pareto-style preference: random 2-vector payoffs per outcome."""
    payoff = {(v.id, o): (rng.randint(0, 3), rng.randint(0, 3))
              for v in bcs.variables for o in v.domain}
    domains = {v.id: v.domain for v in bcs.variables}
    return Preference.from_relation(
        domains, lambda a, b: all(x >= y for x, y in zip(payoff[a], payoff[b])))
