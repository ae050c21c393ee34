"""Relation algebra, propagation, and the exact oracle."""

import itertools
import random
import sys
from collections import Counter

import pytest

from oc_reason import (
    Assignment,
    Bcs,
    Correspondence,
    InputError,
    compose,
    derivable,
    enumerate_satisfying,
    implies,
    intersect,
    inverse,
    montanari_instance,
    join_incompleteness_instance,
    path_consistency,
    path_consistency_sweeps,
    pin,
    random_bcs,
    refuted,
)
from oc_reason.bcs import _descend, _relation_store, _violations
from conftest import brute_force_compose, coloring_bcs


def rel(src, tgt, sd, td, pairs):
    return Correspondence.from_pairs(src, tgt, sd, td, pairs)


def random_relation(rng, src, tgt, sd, td, p=0.5):
    return rel(src, tgt, sd, td,
               [(a, b) for a in sd for b in td if rng.random() < p])


DOM3 = ("u", "v", "w")


def seeded_structures(seed, count, max_vars=9):
    """Random structures of up to `max_vars` variables (domains up to 4) at
    densities 0.3/0.6/0.9; every other one also carries reversed, duplicate
    and self-loop constraints, so that every direction of the store is fed."""
    rng = random.Random(seed)
    for k in range(count):
        b = random_bcs(rng, rng.randint(1, max_vars), 4, density=(0.3, 0.6, 0.9)[k % 3])
        if k % 2:
            extra = []
            for _ in range(rng.randint(1, 3)):
                x, y = rng.choice(b.variables), rng.choice(b.variables)
                if x.id == y.id:
                    extra.append(rel(x.id, x.id, x.domain, x.domain,
                                     [(a, a) for a in x.domain if rng.random() < 0.8]))
                else:
                    extra.append(random_relation(rng, y.id, x.id, y.domain, x.domain, p=0.7))
            b = b.with_constraints(extra)
        yield b


def given_relation(b, x, y):
    """The intersection of the given constraints between x and y, read as a
    relation from x to y: identity on the diagonal, full when unconstrained."""
    acc = Correspondence.identity(x, b.domain(x)) if x == y else \
        Correspondence.full(x, y, b.domain(x), b.domain(y))
    for c in b.constraint_pairs(x, y):
        acc = intersect(acc, c if c.source == x else inverse(c))
    return acc


class TestAlgebra:
    def test_compose_matches_brute_force(self):
        rng = random.Random(10)
        for _ in range(100):
            phi = random_relation(rng, "X", "Y", DOM3, DOM3)
            psi = random_relation(rng, "Y", "Z", DOM3, DOM3)
            got = set(compose(phi, psi).pairs())
            assert got == brute_force_compose(phi.pairs(), psi.pairs())

    def test_compose_identity(self):
        rng = random.Random(11)
        phi = random_relation(rng, "X", "Y", DOM3, DOM3)
        idx = Correspondence.identity("X", DOM3)
        idy = Correspondence.identity("Y", DOM3)
        assert compose(idx, phi).rows == phi.rows
        assert compose(phi, idy).rows == phi.rows

    def test_compose_variable_mismatch(self):
        phi = rel("X", "Y", DOM3, DOM3, [])
        with pytest.raises(InputError):
            compose(phi, phi)

    def test_intersect(self):
        a = rel("X", "Y", ("a", "d"), ("b", "c"), [("a", "b"), ("a", "c")])
        b = rel("X", "Y", ("a", "d"), ("b", "c"), [("a", "b"), ("d", "c")])
        assert intersect(a, b).pairs() == [("a", "b")]

    def test_intersect_idempotent_and_neutral(self):
        rng = random.Random(12)
        phi = random_relation(rng, "X", "Y", DOM3, DOM3)
        assert intersect(phi, phi).rows == phi.rows
        full = Correspondence.full("X", "Y", DOM3, DOM3)
        assert intersect(phi, full).rows == phi.rows

    def test_intersect_mismatch(self):
        a = rel("X", "Y", DOM3, DOM3, [])
        b = rel("X", "Z", DOM3, DOM3, [])
        with pytest.raises(InputError):
            intersect(a, b)

    def test_inverse(self):
        rng = random.Random(13)
        phi = random_relation(rng, "X", "Y", DOM3, ("p", "q"))
        assert inverse(inverse(phi)).rows == phi.rows
        assert set(inverse(phi).pairs()) == {(b, a) for a, b in phi.pairs()}
        ident = Correspondence.identity("X", DOM3)
        assert inverse(ident).rows == ident.rows


class TestBcsValidation:
    def test_unknown_variable(self):
        with pytest.raises(InputError):
            Bcs.create([("X", DOM3)], [rel("X", "Y", DOM3, DOM3, [])])

    def test_domain_mismatch(self):
        with pytest.raises(InputError):
            Bcs.create([("X", DOM3), ("Y", ("a",))], [rel("X", "Y", DOM3, DOM3, [])])

    def test_duplicate_constraints_kept(self):
        b = Bcs.create([("X", DOM3), ("Y", DOM3)],
                       [rel("X", "Y", DOM3, DOM3, [("u", "u")]),
                        rel("X", "Y", DOM3, DOM3, [("u", "u"), ("v", "v")])])
        assert len(b.constraints) == 2


class TestPathConsistency:
    def test_montanari_no_inference(self):
        prop = path_consistency(montanari_instance())
        assert not prop.narrowed()
        assert not prop.has_empty

    def test_single_constraint_support(self):
        phi = rel("X", "Y", DOM3, DOM3, [("u", "v"), ("u", "w"), ("v", "u")])
        b = Bcs.create([("X", DOM3), ("Y", DOM3)], [phi])
        prop = path_consistency(b)
        assert prop.pair("X", "Y").rows == phi.rows
        assert set(prop.pair("X", "X").pairs()) == {("u", "u"), ("v", "v")}
        assert set(prop.pair("Y", "Y").pairs()) == {("u", "u"), ("v", "v"), ("w", "w")}

    def test_join_incompleteness_no_narrowing(self):
        b, _ = join_incompleteness_instance()
        prop = path_consistency(b)
        assert not prop.narrowed()
        assert prop.pair("X", "Y").contains("x2", "y2")

    def test_symmetry_and_reflexivity_invariants(self):
        rng = random.Random(14)
        for _ in range(40)[:40]:
            b = random_bcs(rng, rng.randint(1, 5), 4)
            prop = path_consistency(b)
            names = [v.id for v in b.variables]
            for x, y in itertools.product(names, repeat=2):
                assert prop.pair(x, y).rows == inverse(prop.pair(y, x)).rows
            for x in names:
                ident = Correspondence.identity(x, b.domain(x))
                assert prop.pair(x, x).subset_of(ident)

    def test_monotone_under_inputs(self):
        rng = random.Random(15)
        for _ in range(40):
            b = random_bcs(rng, rng.randint(2, 5), 4)
            prop = path_consistency(b)
            for c in b.constraints:
                assert prop.pair(c.source, c.target).subset_of(c)

    def test_fixed_point_idempotent(self):
        rng = random.Random(16)
        for _ in range(25):
            b = random_bcs(rng, rng.randint(2, 4), 4)
            prop = path_consistency(b)
            again = path_consistency(Bcs(
                b.variables,
                tuple(prop.pair(x.id, y.id) for x in b.variables for y in b.variables)))
            for x in b.variables:
                for y in b.variables:
                    assert again.pair(x.id, y.id).rows == prop.pair(x.id, y.id).rows

    def test_worklist_equals_naive_sweeps(self):
        for b in seeded_structures(17, 90):
            fast = path_consistency(b)
            slow = path_consistency_sweeps(b)
            assert all(fast.pair(x.id, y.id) == slow.pair(x.id, y.id)
                       for x in b.variables for y in b.variables)
            assert (fast.has_empty, fast.narrowed()) == (slow.has_empty, slow.narrowed())

    def test_early_exit_equals_sweeps(self):
        # the worklist stops at the first relation it empties and empties the
        # rest; the sweeps run on to the same all-empty fixed point
        rng = random.Random(27)
        structures = []
        for k, b in enumerate(seeded_structures(27, 180)):
            if k % 3 == 2:
                x, y = rng.choice(b.variables), rng.choice(b.variables)
                b = b.with_constraints([Correspondence.empty(x.id, y.id, x.domain, y.domain)])
            structures.append(b)
        dom = ("a", "b")
        all_empty = Bcs.create([("X", dom), ("Y", dom)], [
            Correspondence.empty(s, t, dom, dom) for s, t in (("X", "X"), ("Y", "Y"), ("X", "Y"))])
        derived_empty = 0
        for b in structures + [all_empty]:
            fast = path_consistency(b)
            slow = path_consistency_sweeps(b)
            assert all(fast.pair(x.id, y.id) == slow.pair(x.id, y.id)
                       for x in b.variables for y in b.variables)
            assert (fast.has_empty, fast.narrowed()) == (slow.has_empty, slow.narrowed())
            if fast.has_empty:
                assert all(fast.pair(x.id, y.id).is_everywhere_empty()
                           for x in b.variables for y in b.variables)
                given = [given_relation(b, x.id, y.id) for x in b.variables for y in b.variables]
                derived_empty += not any(c.is_everywhere_empty() for c in given)
        assert sum(path_consistency(b).has_empty for b in structures) >= 60
        with_empty = sum(path_consistency(b).has_empty for b in structures)
        assert with_empty >= 100 and len(structures) - with_empty >= 50
        assert derived_empty >= 10
        fast = path_consistency(all_empty)
        assert fast.has_empty and not fast.narrowed()

    def test_refuted_equals_propagating_from_scratch(self):
        # both ways of answering: the narrowed relation is empty already, or
        # the restarted worklist has to empty it
        rng = random.Random(28)
        at_once = propagated = 0
        colorings = [coloring_bcs(rng, rng.randint(2, 8), 0.6) for _ in range(60)]
        for b in list(seeded_structures(28, 60)) + colorings:
            fixed_point = path_consistency(b)
            for _ in range(4):
                x, y = rng.choice(b.variables), rng.choice(b.variables)
                claim = random_relation(rng, x.id, y.id, x.domain, y.domain, p=0.6)
                scratch = path_consistency(b.with_constraints([claim.complement()]))
                assert refuted(fixed_point, claim) == scratch.has_empty
                if fixed_point.has_empty:
                    continue
                narrowed = intersect(fixed_point.pair(x.id, y.id), claim.complement())
                at_once += narrowed.is_everywhere_empty()
                propagated += scratch.has_empty and not narrowed.is_everywhere_empty()
        assert at_once >= 30 and propagated >= 30

    def test_narrowed_means_some_pair_left_its_given_relation(self):
        for b in seeded_structures(25, 90):
            prop = path_consistency(b)
            names = [v.id for v in b.variables]
            moved = any(prop.pair(x, y).rows != given_relation(b, x, y).rows
                        for x, y in itertools.product(names, repeat=2))
            assert prop.narrowed() == moved

    def test_sweep_bound(self):
        rng = random.Random(18)
        for _ in range(30):
            n = rng.randint(1, 6)
            b = random_bcs(rng, n, 4)
            prop = path_consistency_sweeps(b)
            m = max(len(v.domain) for v in b.variables)
            assert prop.sweeps <= n * n * m * m

    def test_soundness_against_oracle(self):
        # every satisfying assignment stays inside every derived relation
        rng = random.Random(19)
        for _ in range(60):
            b = random_bcs(rng, rng.randint(1, 5), 4)
            prop = path_consistency(b)
            names = [v.id for v in b.variables]
            for s in enumerate_satisfying(b):
                for x, y in itertools.product(names, repeat=2):
                    assert prop.pair(x, y).contains(s[x], s[y])


class TestOracle:
    def test_unconstrained_product(self):
        b = Bcs.create([("X", ("a", "b")), ("Y", ("p", "q", "r"))])
        assert len(enumerate_satisfying(b)) == 6

    def test_montanari_unsat(self):
        assert enumerate_satisfying(montanari_instance()) == []

    def test_k3_coloring_count(self):
        k4 = montanari_instance()
        keep = [v for v in k4.variables if v.id != "X4"]
        cons = [c for c in k4.constraints if "X4" not in (c.source, c.target)]
        assert len(enumerate_satisfying(Bcs(tuple(keep), tuple(cons)))) == 6

    def test_limit_and_determinism(self):
        b = Bcs.create([("X", ("a", "b")), ("Y", ("p", "q"))])
        sols = enumerate_satisfying(b)
        assert [s.as_tuple(b) for s in sols] == [
            ("a", "p"), ("a", "q"), ("b", "p"), ("b", "q")]
        assert [s.as_tuple(b) for s in enumerate_satisfying(b, limit=2)] == [
            ("a", "p"), ("a", "q")]

    def test_join_incompleteness_pinned_empty(self):
        b, _ = join_incompleteness_instance()
        pinned = b.with_constraints([
            pin("X", b.domain("X"), "x2"), pin("Y", b.domain("Y"), "y2")])
        assert enumerate_satisfying(pinned) == []

    def test_equals_brute_force_in_order(self):
        for b in seeded_structures(26, 45, max_vars=8):
            brute = [values for values in itertools.product(*(v.domain for v in b.variables))
                     if Assignment(dict(zip((v.id for v in b.variables), values))).satisfies(b)]
            assert [s.as_tuple(b) for s in enumerate_satisfying(b)] == brute
            assert [s.as_tuple(b) for s in enumerate_satisfying(b, limit=3)] == brute[:3]

    def test_deeper_than_the_recursion_limit(self):
        # a two-value equality chain: one solution per value
        n = 400
        dom = ("a", "b")
        names = [f"V{i}" for i in range(n)]
        b = Bcs.create([(x, dom) for x in names],
                       [rel(x, y, dom, dom, [("a", "a"), ("b", "b")])
                        for x, y in zip(names, names[1:])])
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(n // 2)
        try:
            sols = enumerate_satisfying(b)
        finally:
            sys.setrecursionlimit(old)
        assert [s.as_tuple(b) for s in sols] == [("a",) * n, ("b",) * n]

    def test_every_result_satisfies(self):
        rng = random.Random(20)
        for _ in range(40):
            b = random_bcs(rng, rng.randint(1, 4), 4)
            for s in enumerate_satisfying(b):
                assert s.satisfies(b)


class TestDescent:
    def test_forward_checks_and_never_backtracks(self):
        dom = ("a", "b")
        # X1 = a leaves X2 no value, so the descent takes X1 = b
        pair = Bcs.create([("X1", dom), ("X2", dom)],
                          [rel("X1", "X2", dom, dom, [("b", "a")])])
        assert _descend(pair, _relation_store(pair)).values == {"X1": "b", "X2": "a"}
        # X1 = a leaves X2 only a, which X3 cannot follow: the descent is stuck
        # there in the normalized store, not in the path-consistent one
        chain = Bcs.create([("X1", dom), ("X2", dom), ("X3", dom)],
                           [rel("X1", "X2", dom, dom, [("a", "a"), ("b", "b")]),
                            rel("X2", "X3", dom, dom, [("b", "a")])])
        assert _descend(chain, _relation_store(chain)) is None
        assert _descend(chain, path_consistency(chain)._store).values == \
            {"X1": "b", "X2": "b", "X3": "a"}

    def test_a_completed_descent_is_a_solution(self):
        outcomes = Counter()
        for b in seeded_structures(31, 150):
            satisfiable = bool(enumerate_satisfying(b, limit=1))
            for store in (_relation_store(b), path_consistency(b)._store):
                found = _descend(b, store)
                assert found is None or found.satisfies(b)
                outcomes[satisfiable, found is not None] += 1
        assert outcomes[False, True] == 0
        assert outcomes[True, True] >= 100 and outcomes[False, False] >= 100


class TestImpliesAndDerivable:
    def test_full_relation_always_implied(self):
        rng = random.Random(21)
        b = random_bcs(rng, 3, 3)
        names = [v.id for v in b.variables]
        full = Correspondence.full(names[0], names[1], b.domain(names[0]), b.domain(names[1]))
        assert implies(b, full)
        assert derivable(path_consistency(b), full)

    def test_montanari_empty_claim(self):
        k4 = montanari_instance()
        empty = Correspondence.empty("X1", "X2", k4.domain("X1"), k4.domain("X2"))
        assert implies(k4, empty)
        assert not derivable(path_consistency(k4), empty)

    def test_join_incompleteness_gap(self):
        b, _ = join_incompleteness_instance()
        claim = rel("X", "Y", b.domain("X"), b.domain("Y"),
                    [(x, y) for x in b.domain("X") for y in b.domain("Y")
                     if (x, y) != ("x2", "y2")])
        assert implies(b, claim)
        assert not derivable(path_consistency(b), claim)

    def test_derivable_implies_implies(self):
        rng = random.Random(22)
        for _ in range(40):
            b = random_bcs(rng, rng.randint(2, 4), 3)
            names = [v.id for v in b.variables]
            x, y = rng.sample(names, 2)
            claim = random_relation(rng, x, y, b.domain(x), b.domain(y), p=0.7)
            if derivable(path_consistency(b), claim):
                assert implies(b, claim)

    def test_claim_reflexive_inclusion(self):
        rng = random.Random(23)
        b = random_bcs(rng, 3, 3)
        prop = path_consistency(b)
        names = [v.id for v in b.variables]
        assert derivable(prop, prop.pair(names[0], names[1]))

    def test_exactness_containment(self):
        # the derived relation always contains the true minimal relation
        rng = random.Random(24)
        for _ in range(40):
            b = random_bcs(rng, rng.randint(1, 5), 4)
            prop = path_consistency(b)
            sols = enumerate_satisfying(b)
            names = [v.id for v in b.variables]
            for x, y in itertools.product(names, repeat=2):
                for s in sols:
                    assert prop.pair(x, y).contains(s[x], s[y])


def first_violation_reference(b, claim):
    """The exact decision as it was made before one normalized store served
    every claim: the oracle on a new structure holding the complement."""
    found = enumerate_satisfying(b.with_constraints([claim.complement()]), limit=1)
    return found[0] if found else None


class TestViolations:
    def test_equals_the_oracle_on_the_augmented_structure(self):
        rng = random.Random(29)
        structures = list(seeded_structures(29, 120, max_vars=7))
        structures += [montanari_instance(), join_incompleteness_instance()[0]]
        seen = Counter()
        for b in structures:
            claims = []
            for _ in range(6):
                x, y = rng.choice(b.variables), rng.choice(b.variables)
                p = rng.choice((0.3, 0.7, 1.0))
                claims.append(random_relation(rng, x.id, y.id, x.domain, y.domain, p=p))
            got = list(_violations(b, claims))
            assert len(got) == len(claims)
            for claim, found in zip(claims, got):
                expected = first_violation_reference(b, claim)
                assert (found and list(found.values.items())) == \
                    (expected and list(expected.values.items()))
                assert implies(b, claim) == (expected is None)
                given = given_relation(b, claim.source, claim.target)
                seen["self-pair"] += claim.source == claim.target
                seen["emptied at once"] += given.subset_of(claim)
                seen["violated"] += expected is not None
            seen["unsatisfiable"] += not enumerate_satisfying(b, limit=1)
        assert seen["self-pair"] >= 50 and seen["emptied at once"] >= 100
        assert seen["unsatisfiable"] >= 10
        assert 100 <= seen["violated"] <= 6 * len(structures) - 100

    def test_claims_are_checked(self):
        b = montanari_instance()
        foreign = Correspondence.full("X1", "Q", b.domain("X1"), ("1",))
        with pytest.raises(InputError, match="unknown variable"):
            list(_violations(b, [foreign]))
        short = Correspondence.full("X1", "X2", ("1", "2"), b.domain("X2"))
        with pytest.raises(InputError, match="claim domains"):
            implies(b, short)
