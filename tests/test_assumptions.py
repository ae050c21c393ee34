"""The four constraint generators and the structure builder."""

import itertools
import random

import pytest

from oc_reason import (
    AssumptionSelection,
    Correspondence,
    DecreasingRiskPair,
    InputError,
    NormalFormGame,
    build_assumption_bcs,
    discover_risk_labelings,
    enumerate_satisfying,
    find_isomorphisms,
    inverse,
    is_max_closed,
    oc_decreasing_risk,
    oc_dominance,
    oc_isomorphism,
    oc_nash,
    orders_for_assumptions,
    serialize,
)
from oc_reason import assumptions as asm
from oc_reason.fixtures import stag_hunt_pair
from oc_reason.games import (
    ParetoRelation,
    is_fully_reduced,
    one_round_reduction,
    pareto_compare,
    pure_nash_equilibria,
)
from conftest import affine_copy, random_game, small_game_set


def images(oc):
    return {o: set(oc.image(o)) for o in oc.source_domain}


class TestDominanceOc:
    def test_trio(self, trio):
        ga, gb, _ = trio
        sub, oc = oc_dominance(ga)
        assert sub.same_payoffs(gb)
        assert images(oc) == {
            "C,C": {"C,C"}, "C,D": {"C,D"}, "D,C": {"D,C"}, "D,D": {"D,D"},
            "C',C": set(), "C',D": set(),
        }

    def test_identity_when_nothing_dominated(self, trio):
        _, gb, _ = trio
        sub, oc = oc_dominance(gb)
        assert sub is gb
        assert images(oc) == {o: {o} for o in gb.outcome_labels()}

    def test_pd(self, pd):
        sub, oc = oc_dominance(pd)
        assert sub.outcome_labels() == ("D,D",)
        assert images(oc) == {"C,C": set(), "C,D": set(), "D,C": set(), "D,D": {"D,D"}}


class TestIsomorphismOc:
    def test_trio(self, trio):
        _, gb, gc = trio
        oc = oc_isomorphism(gb, gc)
        assert images(oc) == {
            "D,D": {"F,F"}, "D,C": {"F,E"}, "C,D": {"E,F"}, "C,C": {"E,E"},
        }

    def test_identity_automorphism_only(self, trio):
        _, gb, _ = trio
        copy = NormalFormGame("Gb2", gb.actions, dict(gb.utilities))
        oc = oc_isomorphism(gb, copy)
        assert images(oc) == {o: {o} for o in gb.outcome_labels()}

    def test_symmetric_coordination_product_formula(self, coordination):
        # independent brute force: enumerate isomorphisms, apply the
        # product-of-image-sets formula directly
        copy = NormalFormGame("CO2", coordination.actions,
                              {p: tuple(2 * x + 1 for x in coordination.payoff(p))
                               for p in coordination.profiles()})
        isos = find_isomorphisms(coordination, copy)
        assert len(isos) == 2
        expected = {}
        for profile in coordination.profiles():
            image_sets = [
                {iso.maps[i][profile[i]] for iso in isos} for i in range(2)]
            expected[coordination.profile_label(profile)] = {
                copy.profile_label(t) for t in itertools.product(*map(sorted, image_sets))}
        oc = oc_isomorphism(coordination, copy)
        assert images(oc) == expected

    def test_rejects_unreduced_games(self, trio):
        ga, gb, _ = trio
        with pytest.raises(InputError):
            oc_isomorphism(ga, gb)

    def test_none_when_not_isomorphic(self, trio, stag_pair):
        _, gb, _ = trio
        assert oc_isomorphism(gb, stag_pair[0]) is None

    def test_symmetric_inverse(self):
        rng = random.Random(30)
        for _ in range(20):
            g = random_game(rng, "g")
            h = affine_copy(rng, g, "h")
            if not find_isomorphisms(g, g):  # pragma: no cover - always has identity
                continue
            try:
                fwd = oc_isomorphism(g, h)
            except InputError:
                continue  # g has dominated strategies
            if fwd is None:
                continue
            back = oc_isomorphism(h, g)
            assert back.rows == inverse(fwd).rows


class TestNashOc:
    def test_stag_left(self, stag_pair):
        left, _, _ = stag_pair
        oc = oc_nash(left)
        assert images(oc) == {
            "aH,aH": {"aH,aH"}, "aL,aL": {"aL,aL"}, "aH,aL": set(), "aL,aH": set(),
        }

    def test_single_outcome(self):
        g = NormalFormGame.two_player("g", ("a",), ("b",), [[(1, 2)]])
        assert images(oc_nash(g)) == {"a,b": {"a,b"}}

    def test_no_pure_equilibrium_is_an_error(self, pennies):
        with pytest.raises(InputError):
            oc_nash(pennies)


class TestDecreasingRiskOc:
    def test_stag_pair(self, stag_pair):
        left, right, labeling = stag_pair
        oc = oc_decreasing_risk(left, right, labeling)
        assert images(oc) == {
            "aH,aH": {"aH,aH"},
            "aH,aL": {"aH,aH", "aH,aL"},
            "aL,aH": {"aH,aH", "aL,aH"},
            "aL,aL": {"aH,aH", "aH,aL", "aL,aH", "aL,aL"},
        }

    def test_equal_games_qualify(self, stag_pair):
        left, _, _ = stag_pair
        copy = NormalFormGame("GL2", left.actions, dict(left.utilities))
        labeling = DecreasingRiskPair("GL", "GL2", ("aH", "aH"), ("aL", "aL"),
                                      ("aH", "aH"), ("aL", "aL"))
        oc = oc_decreasing_risk(left, copy, labeling)
        assert oc.image("aH,aH") == ("aH,aH",)

    def test_reversed_pair_fails_with_named_inequality(self, stag_pair):
        left, right, _ = stag_pair
        labeling = DecreasingRiskPair("GR", "GL", ("aH", "aH"), ("aL", "aL"),
                                      ("aH", "aH"), ("aL", "aL"))
        with pytest.raises(InputError, match="top-action payoff"):
            oc_decreasing_risk(right, left, labeling)

    def test_non_equilibrium_labeling_rejected(self, pd):
        copy = NormalFormGame("PD2", pd.actions, dict(pd.utilities))
        labeling = DecreasingRiskPair("PD", "PD2", ("C", "C"), ("D", "D"),
                                      ("C", "C"), ("D", "D"))
        with pytest.raises(InputError, match="strict Nash"):
            oc_decreasing_risk(pd, copy, labeling)

    def test_triangular_under_labeled_order(self, stag_pair):
        left, right, labeling = stag_pair
        bcs = build_assumption_bcs([left, right],
                                   AssumptionSelection(decreasing_risk=(labeling,)))
        orders = {
            "GL": ("aH,aL", "aL,aH", "aL,aL", "aH,aH"),
            "GR": ("aH,aL", "aL,aH", "aL,aL", "aH,aH"),
        }
        assert is_max_closed(bcs, orders).closed

    def test_discovery(self, stag_pair):
        left, right, labeling = stag_pair
        assert discover_risk_labelings(left, right) == [labeling]
        assert discover_risk_labelings(right, left) == []

    def test_discovery_equals_the_filtered_candidates(self, stag_pair):
        # every ordered pair of a seeded pool of 2x2 games, each game with
        # itself included, and the stag-hunt pair. Payoffs lean to
        # coordination (2..4 on the diagonal, 0..2 off it), so ties and
        # strict equilibria in both orders are common. Each game has two
        # shifted copies whose action-0 payoffs rise and action-1 payoffs
        # fall by 0 or 1, so many pairs pass the payoff inequalities one way
        rng = random.Random(63)
        pool = list(stag_pair[:2])
        for k in range(20):
            matrix = [[(rng.randint(*span), rng.randint(*span))
                       for span in ([(2, 4), (0, 2)], [(0, 2), (2, 4)])[r]] for r in range(2)]
            shifted = [[[tuple(u + rng.randint(0, 1) * (1 if a == 0 else -1)
                               for u, a in zip(cell, (r, c))) for c, cell in enumerate(row)]
                        for r, row in enumerate(matrix)] for _ in range(2)]
            pool += [NormalFormGame.two_player(f"G{k}_{i}", ["r0", "r1"], ["c0", "c1"], m)
                     for i, m in enumerate([matrix, *shifted])]
        found = same = 0
        for g1, g2 in itertools.product(pool, repeat=2):
            labelings = discover_risk_labelings(g1, g2)
            assert labelings == risk_labelings_reference(g1, g2), (g1.name, g2.name)
            found += bool(labelings)
            same += bool(labelings) and g1 is g2
        assert found >= 75 and same >= 25, (found, same)


class TestBuilder:
    def test_trio_worked_example(self, trio):
        bcs = build_assumption_bcs(list(trio),
                                   AssumptionSelection(dominance=True, isomorphism=True))
        assert [(c.source, c.target) for c in bcs.constraints] == [
            ("Ga", "Gb"), ("Gb", "Gc")]

    def test_single_game_no_applicable_flags(self, trio):
        _, gb, _ = trio
        bcs = build_assumption_bcs([gb],
                                   AssumptionSelection(dominance=True, isomorphism=True))
        assert bcs.constraints == ()

    def test_missing_reduction_emits_nothing(self, trio):
        ga, _, gc = trio
        bcs = build_assumption_bcs([ga, gc],
                                   AssumptionSelection(dominance=True, isomorphism=True))
        assert bcs.constraints == ()

    def test_requires_some_selection(self, trio):
        with pytest.raises(InputError):
            AssumptionSelection()

    def test_generated_ocs_satisfiable_when_closed_under_reduction(self, trio, stag_pair, pd):
        left, right, labeling = stag_pair
        games = [*trio, left, right, pd, fullyreduced_pd(pd)]
        bcs = build_assumption_bcs(
            games,
            AssumptionSelection(dominance=True, isomorphism=True, nash=True,
                                decreasing_risk=(labeling,)))
        assert enumerate_satisfying(bcs, limit=1)

    def test_prop3_closedness_of_generated_ocs(self, trio, stag_pair):
        left, right, labeling = stag_pair
        games = [*trio, left, right]
        bcs = build_assumption_bcs(
            games, AssumptionSelection(dominance=True, isomorphism=True, nash=True,
                                       decreasing_risk=(labeling,)))
        orders = orders_for_assumptions(games, bcs)
        assert is_max_closed(bcs, orders).closed


def fullyreduced_pd(pd):
    from oc_reason import fully_reduce
    final = fully_reduce(pd).final
    return NormalFormGame("PDr", final.actions, dict(final.utilities))


def dominance_reference(game):
    """The label-pair builder that `oc_dominance` replaced."""
    sub, eliminated = one_round_reduction(game)
    source_dom = game.outcome_labels()
    if all(not e for e in eliminated):
        return game, Correspondence.identity(game.name, source_dom)
    sub = NormalFormGame(game.name + "_reduced", sub.actions, sub.utilities)
    target_dom = sub.outcome_labels()
    survivors = set(target_dom)
    pairs = [(o, o) for o in source_dom if o in survivors]
    return sub, Correspondence.from_pairs(game.name, sub.name, source_dom, target_dom, pairs)


def dominance_onto_reference(game, other, _images):
    """`dominance_reference`'s correspondence, carried onto the listed game
    `other` that equals the reduction."""
    ref = dominance_reference(game)[1]
    return Correspondence(game.name, other.name, ref.source_domain, ref.target_domain, ref.rows)


def isomorphism_reference(g1, g2, isos):
    """The label-pair builder that `_oc_isomorphism` replaced."""
    if not isos:
        return None
    pairs = []
    for profile in g1.profiles():
        image_sets = [sorted({iso.maps[i][profile[i]] for iso in isos})
                      for i in range(g1.n_players)]
        src = g1.profile_label(profile)
        for target in itertools.product(*image_sets):
            pairs.append((src, g2.profile_label(target)))
    return Correspondence.from_pairs(g1.name, g2.name, g1.outcome_labels(),
                                     g2.outcome_labels(), pairs)


def decreasing_risk_reference(g1, g2, pair):
    """The label-pair builder that `oc_decreasing_risk` replaced."""
    (t1, s1), (t2, s2) = asm._risk_preconditions(g1, g2, pair)
    per_player = [{t1[i]: (t2[i],), s1[i]: (t2[i], s2[i])} for i in range(2)]
    pairs = []
    for profile in g1.profiles():
        src = g1.profile_label(profile)
        for target in itertools.product(*(per_player[i][profile[i]] for i in range(2))):
            pairs.append((src, g2.profile_label(target)))
    return Correspondence.from_pairs(g1.name, g2.name, g1.outcome_labels(),
                                     g2.outcome_labels(), pairs)


def risk_labelings_reference(g1, g2):
    """The discovery loop that filtered its candidates for distinct actions
    and Pareto domination before checking the preconditions."""
    if any(g.n_players != 2 or g.shape != (2, 2) for g in (g1, g2)):
        return []

    def candidates(g):
        strict = [o.profile for o in pure_nash_equilibria(g, strict=True)]
        return [(top, safe) for top, safe in itertools.permutations(strict, 2)
                if all(top[i] != safe[i] for i in range(2)) and
                pareto_compare(g.payoff(top), g.payoff(safe)) is ParetoRelation.BETTER]

    labelings = []
    for (t1, s1), (t2, s2) in itertools.product(candidates(g1), candidates(g2)):
        pair = DecreasingRiskPair(
            g1.name, g2.name,
            *(tuple(g.actions[i][p[i]] for i in range(2))
              for g, p in ((g1, t1), (g1, s1), (g2, t2), (g2, s2))))
        try:
            asm._risk_preconditions(g1, g2, pair)
        except InputError:
            continue
        labelings.append(pair)
    return labelings


class TestProductBuilders:
    """The three product families against the label-pair builders they
    replaced, on seeded 2- and 3-player sets with ties, permuted affine
    copies, named reductions and stag-hunt pairs."""

    @pytest.fixture(scope="class")
    def game_sets(self):
        rng = random.Random(61)
        return [small_game_set(rng, players, stag_hunt_pair())
                for players in (2, 3) for _ in range(60)]

    def test_families_equal_the_label_pair_builders(self, game_sets):
        seen = {"eliminated": 0, "isomorphic": 0, "isomorphic 3-player": 0, "risk": 0}
        for games in game_sets:
            for g in games:
                sub, oc = oc_dominance(g)
                ref_sub, ref_oc = dominance_reference(g)
                assert (sub is g) == (ref_sub is g)
                assert (sub.name, sub.actions, sub.utilities, oc) == (
                    ref_sub.name, ref_sub.actions, ref_sub.utilities, ref_oc)
                seen["eliminated"] += sub is not g
            for g1, g2 in itertools.product(games, repeat=2):
                if is_fully_reduced(g1) and is_fully_reduced(g2):
                    oc = oc_isomorphism(g1, g2)
                    assert oc == isomorphism_reference(g1, g2, find_isomorphisms(g1, g2))
                    seen["isomorphic"] += oc is not None
                    seen["isomorphic 3-player"] += oc is not None and g1.n_players == 3
                for labeling in discover_risk_labelings(g1, g2):
                    assert oc_decreasing_risk(g1, g2, labeling) == \
                        decreasing_risk_reference(g1, g2, labeling)
                    seen["risk"] += 1
        assert min(seen.values()) >= 100, seen

    def test_structures_equal_the_label_pair_builders(self, game_sets, monkeypatch):
        built = 0
        for games in game_sets:
            labelings = tuple(lab for g1, g2 in itertools.product(games, repeat=2)
                              for lab in discover_risk_labelings(g1, g2))
            for selection in (
                    AssumptionSelection(dominance=True, isomorphism=True, nash=True,
                                        decreasing_risk=labelings),
                    AssumptionSelection(isomorphism=True),
                    AssumptionSelection(dominance=True, nash=True)):
                got = serialize.bcs_to_json(build_assumption_bcs(games, selection))
                with monkeypatch.context() as m:
                    # with the other two families replaced, only dominance
                    # builds products, each onto a listed copy of the reduction
                    m.setattr(asm, "_product_oc", dominance_onto_reference)
                    m.setattr(asm, "_oc_isomorphism", isomorphism_reference)
                    m.setattr(asm, "oc_decreasing_risk", decreasing_risk_reference)
                    assert got == serialize.bcs_to_json(build_assumption_bcs(games, selection))
                built += bool(got["constraints"])
        assert built >= 200
