"""Preferences, improvement correspondences, and the three decision modes."""

import random

import pytest

from oc_reason import (
    AssumptionSelection,
    Bcs,
    Correspondence,
    DecisionMode,
    InputError,
    Preference,
    build_assumption_bcs,
    decide_si,
    enumerate_satisfying,
    find_any_si,
    find_si_on,
    improvement_oc,
    joins_from_orders,
    montanari_instance,
    orders_for_assumptions,
    pareto_preference,
    player_preference,
    random_bcs,
    random_max_closed_bcs,
)
from oc_reason.fixtures import single_outcome_game
from conftest import random_game


@pytest.fixture
def table2_games():
    """The degenerate 2x2 base game and the one-outcome improver used by the
    hardness construction."""
    from oc_reason import NormalFormGame
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
        from oc_reason import NormalFormGame
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
        with pytest.raises(InputError):
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

    def test_incomparable_outcomes_no_pairs(self, table2_games):
        base, improver = table2_games
        # no constraints: every outcome combination occurs, and the base
        # game's diagonal outcomes are incomparable with the improver's
        bcs = Bcs.create([("G", base.outcome_labels()), ("Gp", improver.outcome_labels())])
        pref = pareto_preference([base, improver])
        assert find_any_si(bcs, pref, strict=False) == []


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
