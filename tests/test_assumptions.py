"""The four constraint generators and the structure builder."""

import itertools
import random

import pytest

from oc_reason import (
    AssumptionSelection,
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
)
from conftest import affine_copy, random_game


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
