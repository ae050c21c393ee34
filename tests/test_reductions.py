"""Hardness-instance generators and satisfiability-preserving constructions."""

import itertools
import json
import random

import pytest

from oc_reason import (
    AssumptionSelection,
    Bcs,
    Correspondence,
    DecisionMode,
    InputError,
    augment_always_satisfiable,
    build_assumption_bcs,
    csp_to_si_games,
    decide_si,
    dominated_actions,
    enumerate_satisfying,
    find_any_si,
    find_isomorphisms,
    implication_instance,
    implies,
    is_join_closed,
    join_incompleteness_instance,
    montanari_instance,
    pareto_preference,
    path_consistency,
    pure_nash_equilibria,
    random_bcs,
    random_join_closed_bcs,
    random_max_closed_bcs,
    random_semilattice,
    serialize,
    validate_join_family,
)


class TestMontanari:
    def test_structure(self):
        k4 = montanari_instance()
        assert len(k4.variables) == 4
        assert all(v.domain == ("1", "2", "3") for v in k4.variables)
        assert len(k4.constraints) == 6

    def test_unsatisfiable_but_uninformative(self):
        k4 = montanari_instance()
        assert enumerate_satisfying(k4) == []
        assert not path_consistency(k4).narrowed()


class TestJoinIncompleteness:
    def test_exact_shape(self):
        bcs, joins = join_incompleteness_instance()
        assert [len(v.domain) for v in bcs.variables] == [2, 2, 4, 7]
        assert len(bcs.constraints) == 5
        validate_join_family(bcs, joins)
        assert is_join_closed(bcs, joins).closed

    def test_pinning_forces_the_diamond_bottom(self):
        from oc_reason import Bcs, pin
        bcs, _ = join_incompleteness_instance()
        # only the two constraints into Z, plus both pins: every satisfying
        # assignment must put Z at the bottom of the diamond
        sub = Bcs(bcs.variables, tuple(
            c for c in bcs.constraints if (c.source, c.target) in {("X", "Z"), ("Y", "Z")}))
        pinned = sub.with_constraints([
            pin("X", bcs.domain("X"), "x2"), pin("Y", bcs.domain("Y"), "y2")])
        zs = {s["Z"] for s in enumerate_satisfying(pinned)}
        assert zs == {"z4"}
        # on the full instance the forcing shows up as vacuous implication
        full_pinned = bcs.with_constraints([
            pin("X", bcs.domain("X"), "x2"), pin("Y", bcs.domain("Y"), "y2")])
        claim = Correspondence.from_pairs("Z", "Z", bcs.domain("Z"), bcs.domain("Z"),
                                          [("z4", "z4")])
        assert implies(full_pinned, claim)


class TestCspToSiGames:
    def test_games_are_well_formed(self):
        inst = csp_to_si_games(montanari_instance())
        assert [g.name for g in inst.games[:2]] == ["G", "Gp"]
        for g in inst.games[2:]:
            # pairwise incomparable strict equilibria along the diagonal,
            # nothing dominated
            n = g.shape[0]
            assert {o.profile for o in pure_nash_equilibria(g, strict=True)} == {
                (i, i) for i in range(n)}
            assert not dominated_actions(g, 0) and not dominated_actions(g, 1)

    def test_no_unintended_isomorphisms(self):
        inst = csp_to_si_games(montanari_instance())
        multi = [g for g in inst.games if len(g.outcome_labels()) > 1]
        for i, g1 in enumerate(multi):
            for g2 in multi[i + 1:]:
                assert find_isomorphisms(g1, g2) == []

    def test_assumption_ocs_included(self):
        inst = csp_to_si_games(montanari_instance())
        regenerated = build_assumption_bcs(
            list(inst.games), AssumptionSelection(dominance=True, isomorphism=True))
        have = {(c.source, c.target, c.rows) for c in inst.constraints}
        for c in regenerated.constraints:
            assert (c.source, c.target, c.rows) in have

    def test_k4_makes_improver_safe(self):
        inst = csp_to_si_games(montanari_instance())
        pref = pareto_preference(list(inst.games))
        assert decide_si(inst.bcs, "G", "Gp", pref, strict=True).yes

    def test_satisfiable_source_blocks_improvement(self):
        rng = random.Random(60)
        src = random_bcs(rng, 1, 3, density=1.0)
        inst = csp_to_si_games(src)
        pref = pareto_preference(list(inst.games))
        assert not decide_si(inst.bcs, "G", "Gp", pref, strict=False).yes

    def test_equivalence_on_random_sources(self):
        rng = random.Random(61)
        for _ in range(40):
            src = random_bcs(rng, rng.randint(1, 4), 3, density=0.7)
            satisfiable = bool(enumerate_satisfying(src, limit=1))
            inst = csp_to_si_games(src)
            pref = pareto_preference(list(inst.games))
            for strict in (False, True):
                yes = decide_si(inst.bcs, "G", "Gp", pref, strict=strict).yes
                assert yes == (not satisfiable)

    def test_empty_source_is_satisfiable_so_no_improvement(self):
        # the empty CSP has one solution, the empty assignment
        for perturb in (False, True):
            inst = csp_to_si_games(Bcs.create([], []), perturb=perturb)
            pref = pareto_preference(list(inst.games))
            for strict, mode in itertools.product((False, True), DecisionMode):
                assert not decide_si(inst.bcs, "G", "Gp", pref, strict=strict, mode=mode).yes

    def test_perturbed_variant_isolates_the_pair(self):
        rng = random.Random(62)
        for _ in range(12):
            src = random_bcs(rng, rng.randint(1, 3), 3, density=0.7)
            inst = csp_to_si_games(src, perturb=True)
            pref = pareto_preference(list(inst.games))
            for strict in (False, True):
                assert set(find_any_si(inst.bcs, pref, strict=strict)) <= {("G", "Gp")}


class TestAugmentation:
    def test_k4_augmented_satisfiable_but_switch_off(self):
        k4 = montanari_instance()
        aug = augment_always_satisfiable(k4, ("X1", "1"))
        sols = enumerate_satisfying(aug)
        assert sols
        switch = aug.variables[0].id
        assert all(s[switch] != "1" for s in sols)

    def test_unconstrained_bijection(self):
        from oc_reason import Bcs
        src = Bcs.create([("A", ("a", "b")), ("B", ("p", "q", "r"))])
        aug = augment_always_satisfiable(src, ("A", "a"))
        switch = aug.variables[0].id
        on = [s for s in enumerate_satisfying(aug) if s[switch] == "1"]
        assert len(on) == 6

    def test_solution_count_preserved(self):
        rng = random.Random(63)
        for _ in range(30):
            src = random_bcs(rng, rng.randint(1, 4), 3, density=0.6)
            aug = augment_always_satisfiable(src, (src.variables[0].id,
                                                   src.variables[0].domain[0]))
            switch = aug.variables[0].id
            on = [s for s in enumerate_satisfying(aug) if s[switch] == "1"]
            originals = enumerate_satisfying(src)
            assert len(on) == len(originals)
            assert enumerate_satisfying(aug, limit=1)
            restricted = {tuple(sorted((v.id, s[v.id]) for v in src.variables))
                          for s in on}
            assert restricted == {tuple(sorted(s.values.items())) for s in originals}

    def test_bad_anchor(self):
        with pytest.raises(InputError):
            augment_always_satisfiable(montanari_instance(), ("X1", "9"))


class TestImplicationInstance:
    def test_attainable_value_gives_false(self):
        from oc_reason import Bcs
        src = Bcs.create([("A", ("a",))])
        inst, (pv, pval, iv, ival) = implication_instance(src, ("A", "a"))
        claim = Correspondence.from_pairs(pv, iv, inst.domain(pv), inst.domain(iv),
                                          [(pval, ival)])
        assert not implies(inst, claim)

    def test_unsat_source_value_gives_true(self):
        aug = augment_always_satisfiable(montanari_instance(), ("X1", "1"))
        switch = aug.variables[0].id
        inst, (pv, pval, iv, ival) = implication_instance(aug, (switch, "1"))
        claim = Correspondence.from_pairs(pv, iv, inst.domain(pv), inst.domain(iv),
                                          [(pval, ival)])
        assert implies(inst, claim)

    def test_agreement_with_direct_oracle(self):
        rng = random.Random(64)
        checked = 0
        for _ in range(50):
            src = random_bcs(rng, rng.randint(1, 3), 3, density=0.5)
            if not enumerate_satisfying(src, limit=1):
                continue
            checked += 1
            var = src.variables[-1].id
            value = src.domain(var)[-1]
            inst, (pv, pval, iv, ival) = implication_instance(src, (var, value))
            claim = Correspondence.from_pairs(pv, iv, inst.domain(pv), inst.domain(iv),
                                              [(pval, ival)])
            attainable = any(s[var] == value for s in enumerate_satisfying(src))
            assert implies(inst, claim) == (not attainable)
        assert checked >= 20

    def test_unsatisfiable_source_rejected(self):
        with pytest.raises(InputError):
            implication_instance(montanari_instance(), ("X1", "1"))


class TestRandomGenerators:
    def test_semilattices_satisfy_axioms(self):
        from oc_reason import Bcs
        rng = random.Random(65)
        for _ in range(60):
            dom, table = random_semilattice(rng, 5)
            bcs = Bcs.create([("X", dom)])
            validate_join_family(bcs, {"X": table})

    @pytest.mark.parametrize("seed, dom, joins, next_bits", [
        # a chain e0 < e1 < ... < e4
        (1, "e0 e1 e2 e3 e4",
         "e0 e1 e2 e3 e4 e1 e1 e2 e3 e4 e2 e2 e2 e3 e4 e3 e3 e3 e3 e4 e4 e4 e4 e4 e4",
         3639700191),
        # trees rooted at e0
        (9, "e0 e1 e2 e3 e4",
         "e0 e0 e0 e0 e0 e0 e1 e1 e0 e1 e0 e1 e2 e0 e1 e0 e0 e0 e3 e0 e0 e1 e1 e0 e4",
         3721854805),
        (11, "e0 e1 e2 e3 e4",
         "e0 e0 e0 e0 e0 e0 e1 e1 e1 e1 e0 e1 e2 e2 e1 e0 e1 e2 e3 e1 e0 e1 e1 e1 e4",
         793110136),
        # union-closed set families
        (30, "s1 s5 s6 s7", "s1 s5 s7 s7 s5 s5 s7 s7 s7 s7 s6 s7 s7 s7 s7 s7", 3552168409),
        (34, "s1 s2 s3 s7", "s1 s3 s3 s7 s3 s2 s3 s7 s3 s3 s3 s7 s7 s7 s7 s7", 3859649351),
    ])
    def test_semilattice_draws_are_pinned(self, seed, dom, joins, next_bits):
        rng = random.Random(seed)
        got_dom, table = random_semilattice(rng, 5)
        assert got_dom == tuple(dom.split())
        assert list(table) == [(a, b) for a in got_dom for b in got_dom]
        assert " ".join(table.values()) == joins
        # the draws stay in step: the next random bits are those that followed
        assert rng.getrandbits(32) == next_bits

    @pytest.mark.parametrize("seed, structure, orders, next_bits", [
        (5, '{"variables":[{"id":"X1","domain":["v1","v2","v3"]},'
            '{"id":"X2","domain":["v1","v2","v3"]},{"id":"X3","domain":["v1","v2"]}],'
            '"constraints":[{"x":"X1","y":"X2","pairs":[["v1","v1"],["v2","v3"]]},'
            '{"x":"X1","y":"X3","pairs":[["v1","v2"],["v3","v1"]]},'
            '{"x":"X2","y":"X3","pairs":[["v1","v1"],["v1","v2"],["v2","v1"],["v3","v1"]]}]}',
         "v1 v3 v2 | v2 v1 v3 | v2 v1", 2687490721),
        (20, '{"variables":[{"id":"X1","domain":["v1","v2","v3"]},'
             '{"id":"X2","domain":["v1","v2"]},{"id":"X3","domain":["v1","v2"]}],'
             '"constraints":[{"x":"X1","y":"X2","pairs":[["v1","v1"],["v1","v2"],["v2","v1"],'
             '["v3","v1"],["v3","v2"]]},'
             '{"x":"X1","y":"X3","pairs":[["v1","v1"],["v1","v2"],["v3","v1"],["v3","v2"]]},'
             '{"x":"X2","y":"X3","pairs":[["v1","v2"]]}]}',
         "v2 v1 v3 | v2 v1 | v2 v1", 1310237539),
        (30, '{"variables":[{"id":"X1","domain":["v1","v2","v3"]},'
             '{"id":"X2","domain":["v1","v2","v3"]},{"id":"X3","domain":["v1","v2"]}],'
             '"constraints":[{"x":"X1","y":"X2","pairs":[["v1","v1"],["v1","v2"],["v1","v3"],'
             '["v2","v1"],["v2","v3"]]},'
             '{"x":"X1","y":"X3","pairs":[["v2","v1"],["v2","v2"],["v3","v1"]]},'
             '{"x":"X2","y":"X3","pairs":[["v3","v1"]]}]}',
         "v3 v1 v2 | v2 v1 v3 | v2 v1", 1327978351),
    ], ids=("seed5", "seed20", "seed30"))
    def test_max_closed_draws_are_pinned(self, seed, structure, orders, next_bits):
        rng = random.Random(seed)
        bcs, got_orders = random_max_closed_bcs(rng, 3, 3)
        assert serialize.bcs_to_json(bcs) == json.loads(structure)
        assert " | ".join(" ".join(o) for o in got_orders.values()) == orders
        assert list(got_orders) == ["X1", "X2", "X3"]
        # the draws stay in step: the next random bits are those that followed
        assert rng.getrandbits(32) == next_bits

    def test_join_closed_generator(self):
        rng = random.Random(66)
        for _ in range(30):
            bcs, joins = random_join_closed_bcs(rng, rng.randint(2, 4), 5)
            assert is_join_closed(bcs, joins).closed

    def test_max_closed_generator(self):
        from oc_reason import is_max_closed
        rng = random.Random(67)
        for _ in range(30):
            bcs, orders = random_max_closed_bcs(rng, rng.randint(2, 4), 4)
            assert is_max_closed(bcs, orders).closed

    def test_random_bcs_deterministic(self):
        a = random_bcs(random.Random(99), 4, 3, density=0.6)
        b = random_bcs(random.Random(99), 4, 3, density=0.6)
        assert [(v.id, v.domain) for v in a.variables] == \
            [(v.id, v.domain) for v in b.variables]
        assert [(c.source, c.target, c.rows) for c in a.constraints] == \
            [(c.source, c.target, c.rows) for c in b.constraints]
