"""Relation algebra, propagation, and the exact oracle."""

import itertools
import random
import re
import sys
from collections import Counter, deque

import pytest

from oc_reason import (
    Assignment,
    AssumptionSelection,
    Bcs,
    Correspondence,
    InputError,
    NormalFormGame,
    build_assumption_bcs,
    compose,
    csp_to_si_games,
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
    pure_nash_equilibria,
    random_bcs,
    refuted,
)
import oc_reason.bcs as bcs_module
from oc_reason.bcs import (
    DecisionMode,
    _decide,
    _descend,
    _narrow,
    _pack,
    _refute,
    _relation_store,
    _search,
    _store,
)
from conftest import (affine_copy, brute_force_compose, coloring_bcs, planted_bcs,
                      with_dominated_row)


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
    @pytest.mark.parametrize("variables, label", [
        ([(["a"], ("1",))], "['a']"),
        ([("a", (["1"],))], "['1']"),
    ])
    def test_unhashable_label(self, variables, label):
        with pytest.raises(InputError, match=re.escape(f"unhashable label {label}")):
            Bcs.create(variables)

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
        # also where the worklist drops values: a rebuilt structure drops
        # only values that the normalized store has empty already. In the
        # equality chain only the unconstrained pair narrows
        dom = ("a", "b", "c")
        equal = [(a, a) for a in dom]
        rng = random.Random(26)
        csp, pinned = list(csp_encodings(29, 3)), list(pinned_planted(30, 8))
        structures = list(seeded_structures(25, 90)) + csp + pinned
        structures += [rebuilt(b) for b in csp + pinned]
        structures += [b.with_constraints([Correspondence.empty(x.id, y.id, x.domain, y.domain)])
                       for b in pinned[:3] for x, y in [rng.sample(b.variables, 2)]]
        structures += [
            Bcs.create([("X", dom)]),
            Bcs.create([("X", dom)], [pin("X", dom, "b")]),
            Bcs.create([("X", dom)], [rel("X", "X", dom, dom, [("a", "b"), ("c", "c")])]),
            Bcs.create([("X", dom)], [Correspondence.empty("X", "X", dom, dom)]),
            Bcs.create([(x, dom) for x in "XYZ"], [rel("X", "Y", dom, dom, equal),
                                                  rel("Y", "Z", dom, dom, equal)]),
        ]
        seen = Counter()
        for b in structures:
            names = [v.id for v in b.variables]
            dropped = sum(map(len, bcs_module._supported(b))) < sum(len(v.domain)
                                                                    for v in b.variables)
            for prop in path_consistency(b), path_consistency_sweeps(b):
                moved = any(prop.pair(x, y).rows != given_relation(b, x, y).rows
                            for x, y in itertools.product(names, repeat=2))
                assert prop.narrowed() == moved
                seen[dropped, moved] += 1
        assert seen[True, True] >= 100 and seen[True, False] >= 20

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


def reference_masks(rel, stride):
    """Each variable's live values, read off the diagonal of the store."""
    return [sum(1 << a for a in range(stride) if rel[i][i] >> a * (stride + 1) & 1)
            for i in range(len(rel))]


def reference_search(b, rel, limit):
    """The oracle's search as its own explicit-stack loop, the reference for
    the walk's view `_search`: solutions in order, at most `limit`."""
    n, stride = len(rel), b._stride
    found, chosen = [], [0] * n
    stack = [reference_masks(rel, stride)]
    while stack:
        depth = len(stack) - 1
        masks = stack[depth]
        if depth == n:
            found.append(Assignment({v.id: v.domain[x] for v, x in zip(b.variables, chosen)}))
            if limit is not None and len(found) >= limit:
                break
            stack.pop()
            continue
        if not masks[depth]:
            stack.pop()
            continue
        x = (masks[depth] & -masks[depth]).bit_length() - 1
        masks[depth] &= masks[depth] - 1
        chosen[depth] = x
        nxt = list(masks)
        row, shift = rel[depth], x * stride
        for j in range(depth + 1, n):
            nxt[j] = live = nxt[j] & row[j] >> shift
            if not live:
                break
        else:
            stack.append(nxt)
    return found


def reference_descend(b, rel):
    """One greedy descent as its own loop, the reference for the walk's
    view `_descend`: each variable takes its first value that leaves every
    later one a value; None when some variable has none."""
    n, stride = len(rel), b._stride
    masks = reference_masks(rel, stride)
    chosen = []
    for depth in range(n):
        candidates = masks[depth]
        while candidates:
            x = (candidates & -candidates).bit_length() - 1
            candidates &= candidates - 1
            row, shift = rel[depth], x * stride
            later = [masks[j] & row[j] >> shift for j in range(depth + 1, n)]
            if all(later):
                break
        else:
            return None
        chosen.append(x)
        masks[depth + 1:] = later
    return Assignment({v.id: v.domain[x] for v, x in zip(b.variables, chosen)})


class TestDescent:
    def test_walk_views_equal_the_reference_loops(self):
        # normalized and fixed-point stores, each also narrowed at a random
        # pair as _decide narrows them, which often leaves a descent stuck
        rng = random.Random(85)
        structures = list(seeded_structures(83, 60)) + [Bcs.create([])]
        structures += [planted_bcs(rng, rng.randint(5, 9)) for _ in range(40)]
        structures += [coloring_bcs(rng, rng.randint(5, 9), 0.5) for _ in range(40)]
        seen = Counter()
        for b in structures:
            for store in (_relation_store(b), path_consistency(b)._store):
                stores = [store]
                if len(store) > 1:
                    x, y = rng.sample(b.variables, 2)
                    claim = random_relation(rng, x.id, y.id, x.domain, y.domain, p=0.6)
                    i, j = b.index(x.id), b.index(y.id)
                    stores.append([list(row) for row in store])
                    _narrow(stores[1], i, j, store[i][j] & ~_pack(claim.rows, b._stride),
                            b._stride)
                for rel in stores:
                    for limit in (1, 3, None):
                        found = _search(b, rel, limit)
                        assert found == reference_search(b, rel, limit)
                        if limit is not None:
                            cut = len(reference_search(b, rel, None)) > limit
                            seen[f"limit {limit} cut"] += cut
                    descent = _descend(b, rel)
                    assert descent == reference_descend(b, rel)
                    seen["stuck, then solved"] += descent is None and bool(found)
                    seen["no variables"] += not rel
                    seen["all empty"] += bool(rel) and not rel[0][0]
        assert seen["no variables"] == 2 and seen["all empty"] >= 40
        assert seen["stuck, then solved"] >= 30
        assert seen["limit 1 cut"] >= 200 and seen["limit 3 cut"] >= 200

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


class TestDecide:
    """The one claim rule in each mode, against a reference per mode that
    does not go through it, on one store per structure."""

    def test_each_mode_equals_its_reference(self):
        rng = random.Random(29)
        structures = list(seeded_structures(29, 120, max_vars=7))
        structures += [montanari_instance(), join_incompleteness_instance()[0]]
        seen = Counter()
        for b in structures:
            prop = path_consistency(b)
            stores = {mode: _store(b, mode) for mode in DecisionMode}
            before = {mode: [list(row) for row in rel] for mode, rel in stores.items()}
            for _ in range(6):
                x, y = rng.choice(b.variables), rng.choice(b.variables)
                p = rng.choice((0.3, 0.7, 1.0))
                claim = random_relation(rng, x.id, y.id, x.domain, y.domain, p=p)
                got = {mode: _decide(b, rel, claim, mode) for mode, rel in stores.items()}
                expected = first_violation_reference(b, claim)
                found = got[DecisionMode.EXACT][1]
                assert got[DecisionMode.EXACT][0] == (expected is None)
                assert (found and list(found.values.items())) == \
                    (expected and list(expected.values.items()))
                assert got[DecisionMode.PROPAGATION] == \
                    (prop.pair(claim.source, claim.target).subset_of(claim), None)
                refuted_yes, witness = got[DecisionMode.REFUTATION]
                assert refuted_yes == \
                    path_consistency(b.with_constraints([claim.complement()])).has_empty
                if witness is not None:
                    assert not refuted_yes and witness.satisfies(b)
                    assert not claim.contains(witness[claim.source], witness[claim.target])
                assert (implies(b, claim), derivable(prop, claim), refuted(prop, claim)) == \
                    tuple(got[mode][0] for mode in DecisionMode)
                given = given_relation(b, claim.source, claim.target)
                seen["self-pair"] += claim.source == claim.target
                seen["emptied at once"] += given.subset_of(claim)
                seen["violated"] += expected is not None
                seen["refuted, not derived"] += refuted_yes and not got[DecisionMode.PROPAGATION][0]
            assert {mode: [list(row) for row in rel] for mode, rel in stores.items()} == before
            seen["unsatisfiable"] += not enumerate_satisfying(b, limit=1)
        assert seen["self-pair"] >= 50 and seen["emptied at once"] >= 100
        assert seen["unsatisfiable"] >= 10 and seen["refuted, not derived"] >= 1
        assert 100 <= seen["violated"] <= 6 * len(structures) - 100

    def test_a_violating_witness_answers_no_without_the_store(self):
        b = Bcs.create([("X", ("1", "2")), ("Y", ("1", "2"))])
        witness = Assignment({"X": "1", "Y": "2"})
        claim = rel("X", "Y", ("1", "2"), ("1", "2"), [("1", "1"), ("2", "1"), ("2", "2")])
        for mode in DecisionMode:
            # the store is not read: None in its place would raise
            assert _decide(b, None, claim, mode, [witness]) == (False, None)

    def test_claims_are_checked(self):
        b = montanari_instance()
        foreign = Correspondence.full("X1", "Q", b.domain("X1"), ("1",))
        for mode in DecisionMode:
            with pytest.raises(InputError, match="unknown variable"):
                _decide(b, _store(b, mode), foreign, mode)
        short = Correspondence.full("X1", "X2", ("1", "2"), b.domain("X2"))
        with pytest.raises(InputError, match="claim domains"):
            implies(b, short)


def wide_structures(seed, count, max_vars=6):
    """Random structures with domains of 1 to 20 values, so that the store's
    stride, the largest domain, exceeds most variables' domains; every third
    one is dense with sparse relations and often unsatisfiable."""
    rng = random.Random(seed)
    for k in range(count):
        if k % 3 == 2:
            yield random_bcs(rng, rng.randint(3, max_vars), 20, density=0.9, pair_bit=0.15)
        else:
            yield random_bcs(rng, rng.randint(1, max_vars), 20, density=(0.4, 0.8)[k % 3])


def game_structures(seed, count):
    """Assumption structures over games with 16 and 20 outcomes: a 4x4 game,
    an affine copy and an unrelated 4x4 game; every other one adds the game
    with a dominated extra row, a 4x5 game and its copy (20 outcomes)."""
    rng = random.Random(seed)

    def game(name, rows, cols):
        return NormalFormGame.two_player(
            name, [f"r{i}" for i in range(rows)], [f"c{j}" for j in range(cols)],
            [[(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(cols)] for _ in range(rows)])

    selection = AssumptionSelection(dominance=True, isomorphism=True, nash=True)
    for k in range(count):
        base = game("B", 4, 4)
        games = [base, affine_copy(rng, base, "C"), game("U", 4, 4)]
        if k % 2:
            wide = game("W", 4, 5)
            games += [with_dominated_row(rng, base, "D"), wide, affine_copy(rng, wide, "V")]
        yield build_assumption_bcs(games, selection)


def pinned_planted(seed, count):
    """Planted structures with one to three variables pinned to a value by a
    self-loop constraint."""
    rng = random.Random(seed)
    for _ in range(count):
        b = planted_bcs(rng, rng.randint(4, 12), density=rng.choice((0.3, 0.6)),
                        pair_bit=rng.choice((0.3, 0.6)), planted=rng.randint(0, 2))
        yield b.with_constraints(pin(x.id, x.domain, rng.choice(x.domain))
                                 for x in rng.sample(b.variables, rng.randint(1, 3)))


def rebuilt(b):
    """``b``'s variables constrained by its fixed point's pairs: a fixed point
    already, whose unsupported values have no bit in the normalized store."""
    prop = path_consistency_sweeps(b)
    return Bcs(b.variables, tuple(prop.pair(x.id, y.id) for x in b.variables
                                  for y in b.variables))


def record_calls(monkeypatch, name):
    """The arguments and the result of every call of the module function
    ``name``."""
    calls, original = [], getattr(bcs_module, name)

    def wrapper(*args):
        out = original(*args)
        calls.append((args, out))
        return out
    monkeypatch.setattr(bcs_module, name, wrapper)
    return calls


def packed_transpose(packed, stride):
    """The transpose of a packed relation, bit by bit."""
    return sum(1 << (b % stride) * stride + b // stride
               for b in range(packed.bit_length()) if packed >> b & 1)


def assert_transposes(rel, stride):
    for i, j in itertools.product(range(len(rel)), repeat=2):
        assert rel[j][i] == packed_transpose(rel[i][j], stride)


class TestPackedStore:
    """The packed kernel against the sweeps, which revise through the public
    algebra on tuple rows, on domains wider than the acceptance suite's."""

    def test_worklist_equals_sweeps(self, monkeypatch):
        # the worklist runs over the supported values only; the sweeps keep
        # every value. CSP encodings, pinned and rebuilt structures drop
        # values, a rebuilt one only values the normalized store has empty,
        # and an everywhere-empty constraint leaves a variable none
        dom = ("a", "b", "c")
        rng = random.Random(84)
        games, pinned = list(game_structures(72, 8)), list(pinned_planted(83, 12))
        csp = list(csp_encodings(81, 4))
        structures = list(wide_structures(71, 45)) + games + csp + pinned
        structures += [rebuilt(b) for b in csp + games + pinned]
        structures += [b.with_constraints([Correspondence.empty(x.id, y.id, x.domain, y.domain)])
                       for b in games[:3] + pinned[:3] for x, y in [rng.sample(b.variables, 2)]]
        structures += [
            Bcs.create([("X", dom)]),
            Bcs.create([("X", dom)], [pin("X", dom, "b")]),
            Bcs.create([("X", dom)], [rel("X", "X", dom, dom, [("a", "b"), ("c", "c")])]),
            Bcs.create([("X", dom)], [Correspondence.empty("X", "X", dom, dom)]),
        ]
        propagations = record_calls(monkeypatch, "_propagate")
        seen = Counter()
        for b in structures:
            propagations.clear()
            fast, slow = path_consistency(b), path_consistency_sweeps(b)
            assert fast._store == slow._store
            assert (fast.shrank, fast.has_empty) == (slow.shrank, slow.has_empty)
            given = [given_relation(b, x.id, y.id) for x in b.variables for y in b.variables]
            seen["emptied mid-loop"] += fast.has_empty and \
                not any(c.is_everywhere_empty() for c in given)
            seen["narrowed, not empty"] += fast.shrank and not fast.has_empty
            seen["stride above a domain"] += any(len(v.domain) < b._stride for v in b.variables)
            seen[f"{b._stride} outcomes, narrowed"] += fast.shrank and b.variables[0].id == "B"
            kept = bcs_module._supported(b)
            if not all(kept):
                seen["a variable keeps no value"] += 1
            elif sum(map(len, kept)) < sum(len(v.domain) for v in b.variables):
                ((propagated, _, _), _), = propagations
                narrowed = propagated != _relation_store(b, kept)
                seen["kept values narrowed" if narrowed else "dropped values only"
                     if fast.shrank else "dropped values, unchanged"] += 1
        assert seen["emptied mid-loop"] >= 8 and seen["narrowed, not empty"] >= 15
        assert seen["stride above a domain"] >= 40
        assert seen["16 outcomes, narrowed"] >= 3 and seen["20 outcomes, narrowed"] >= 3
        assert seen["a variable keeps no value"] >= 10 and seen["kept values narrowed"] >= 20
        assert seen["dropped values only"] >= 6 and seen["dropped values, unchanged"] >= 12

    def test_every_narrowing_keeps_the_transposes(self, monkeypatch):
        # the stores that the path-consistency, _decide's narrowed copies and
        # _refute leave behind; _decide leaves its input store unchanged
        copies = []

        def recorded(name):
            original = getattr(bcs_module, name)

            def wrapper(*args):
                out = original(*args)
                copies.append(next(a for a in args if isinstance(a, list)))
                return out
            monkeypatch.setattr(bcs_module, name, wrapper)

        for name in ("_search", "_descend", "_refute"):
            recorded(name)
        rng = random.Random(73)
        checked = refuted_copies = 0
        structures = list(wide_structures(73, 24, max_vars=5)) + list(game_structures(74, 4))
        structures += [coloring_bcs(rng, rng.randint(4, 8), 0.6) for _ in range(12)]
        for b in structures:
            stride = b._stride
            assert_transposes(path_consistency(b)._store, stride)
            for mode in DecisionMode:
                rel = _store(b, mode)
                before = [list(row) for row in rel]
                for _ in range(3):
                    x, y = rng.choice(b.variables), rng.choice(b.variables)
                    claim = random_relation(rng, x.id, y.id, x.domain, y.domain, p=0.6)
                    copies.clear()
                    _decide(b, rel, claim, mode)
                    assert rel == before
                    for copy in copies:
                        assert copy is not rel
                        assert_transposes(copy, stride)
                    checked += len(copies)
                    if mode is DecisionMode.REFUTATION and rel[0][0]:
                        # a fixed point narrowed at one pair, propagated
                        i, j = b.index(x.id), b.index(y.id)
                        narrowed = [list(row) for row in rel]
                        _narrow(narrowed, i, j,
                                rel[i][j] & ~sum(r << k * stride for k, r in enumerate(claim.rows)),
                                stride)
                        refuted_copies += _refute(narrowed, i, j, stride)
                        assert_transposes(narrowed, stride)
        assert checked >= 100 and refuted_copies >= 5


def reference_propagate(rel, seeds, stride):
    """The worklist loop as it was before it revised every x->y through t at
    once: one y at a time, each narrowing stored with its transpose before
    the next y is revised."""
    n = len(rel)
    full, column = (1 << stride) - 1, _pack([1] * stride, stride)
    queue = deque(seeds)
    queued = set(queue)
    while queue:
        a, b = queue.popleft()
        queued.discard((a, b))
        for x, t in ((a, b),) if a == b else ((a, b), (b, a)):
            rel_x, rel_t, x_t = rel[x], rel[t], rel[x][t]
            columns = [(j * stride, col) for j in range(stride) if (col := x_t >> j & column)]
            for y in range(n):
                via, t_y = 0, rel_t[y]
                for shift, col in columns:
                    via |= col * (t_y >> shift & full)
                narrowed = rel_x[y] & via
                if narrowed == rel_x[y]:
                    continue
                _narrow(rel, x, y, narrowed, stride)
                if not narrowed:
                    for row in rel:
                        row[:] = [0] * n
                    return
                key = (min(x, y), max(x, y))
                if key not in queued:
                    queued.add(key)
                    queue.append(key)


def csp_encodings(seed, count):
    """`csp_to_si_games` encodings of random CSPs over three values, whose
    variable games have 16 outcomes: each variable pair is constrained with
    probability 0.4, three of its nine value pairs forbidden."""
    rng = random.Random(seed)
    dom = ("a", "b", "c")
    every = list(itertools.product(dom, repeat=2))
    for _ in range(count):
        names = [f"Z{i + 1}" for i in range(rng.randint(3, 8))]
        source = Bcs.create([(x, dom) for x in names], [
            rel(x, y, dom, dom, sorted(set(every) - set(rng.sample(every, 3))))
            for x, y in itertools.combinations(names, 2) if rng.random() < 0.4])
        yield csp_to_si_games(source).bcs


class TestRowKernel:
    """The row-packed worklist against the per-y loop it replaced, on seeded
    structures larger than the acceptance suite's: equal stores from every
    start the package propagates from."""

    @staticmethod
    def assert_same_propagation(rel, seeds, stride):
        expected = [list(row) for row in rel]
        reference_propagate(expected, list(seeds), stride)
        bcs_module._propagate(rel, seeds, stride)
        assert rel == expected

    def test_from_scratch_equals_the_per_y_loop(self):
        rng = random.Random(75)
        structures = [planted_bcs(rng, rng.randint(16, 40), density=rng.choice((0.3, 0.6)),
                                  pair_bit=rng.choice((0.3, 0.6)), planted=rng.randint(0, 2))
                      for _ in range(10)]
        structures += list(csp_encodings(76, 6)) + list(game_structures(77, 6))
        seen = Counter()
        for b in structures:
            rel, n = _relation_store(b), len(b.variables)
            seeds = [(a, c) for a in range(n) for c in range(a, n)]
            before = [list(row) for row in rel]
            self.assert_same_propagation(rel, seeds, b._stride)
            kind = "narrowed" if rel[0][0] else "emptied" if rel != before else "unchanged"
            seen["planted" if b._stride <= 5 else b._stride, kind] += 1
        assert seen["planted", "narrowed"] >= 3 and seen["planted", "emptied"] >= 3
        assert seen[16, "narrowed"] >= 4 and seen[20, "narrowed"] >= 2

    def test_restarts_from_narrowed_fixed_points(self):
        # _refute's start: a fixed point narrowed at one pair by a claim's
        # complement, only that pair queued
        rng = random.Random(78)
        structures = [planted_bcs(rng, rng.randint(16, 24), density=0.5, pair_bit=0.5)
                      for _ in range(4)]
        structures += [coloring_bcs(rng, rng.randint(8, 16), 0.5) for _ in range(4)]
        structures += list(csp_encodings(79, 3)) + list(game_structures(80, 3))
        seen = Counter()
        for b in structures:
            fixed_point, stride = path_consistency(b)._store, b._stride
            if not fixed_point[0][0]:
                continue
            for _ in range(6):
                x, y = rng.choice(b.variables), rng.choice(b.variables)
                claim = random_relation(rng, x.id, y.id, x.domain, y.domain, p=0.7)
                i, j = b.index(x.id), b.index(y.id)
                narrowed = fixed_point[i][j] & ~_pack(claim.rows, stride)
                if not narrowed:
                    continue
                rel = [list(row) for row in fixed_point]
                _narrow(rel, i, j, narrowed, stride)
                self.assert_same_propagation(rel, [(min(i, j), max(i, j))], stride)
                seen["emptied" if not rel[0][0] else "narrowed"] += 1
        assert seen["emptied"] >= 10 and seen["narrowed"] >= 30


def nash_structures(seed, count):
    """Assumption structures of pure-Nash self-loops alone over 4x4 and 4x5
    games that each have a pure equilibrium and a non-equilibrium outcome."""
    rng = random.Random(seed)

    def game(name, cols):
        while True:
            g = NormalFormGame.two_player(
                name, ("r0", "r1", "r2", "r3"), tuple(f"c{j}" for j in range(cols)),
                [[(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(cols)]
                 for _ in range(4)])
            if 0 < len(pure_nash_equilibria(g)) < 4 * cols:
                return g

    for _ in range(count):
        games = [game(f"G{k}", rng.choice((4, 5))) for k in range(rng.randint(1, 4))]
        yield build_assumption_bcs(games, AssumptionSelection(nash=True))


class TestSupportedValues:
    """``path_consistency`` propagates only the values that every constraint
    supports, at the stride of the widest kept domain."""

    def test_the_stride_it_propagates_at(self, monkeypatch):
        propagations = record_calls(monkeypatch, "_propagate")
        below = list(csp_encodings(85, 4)) + list(nash_structures(86, 8))
        rng = random.Random(87)
        # colourings, and isomorphism constraints between a game and its copy
        everywhere = [coloring_bcs(rng, rng.randint(3, 8), 0.6) for _ in range(6)]
        for _ in range(4):
            g = NormalFormGame.two_player(
                "B", ("r0", "r1", "r2", "r3"), ("c0", "c1", "c2", "c3"),
                [[(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(4)] for _ in range(4)])
            everywhere.append(build_assumption_bcs([g, affine_copy(rng, g, "C")],
                                                   AssumptionSelection(isomorphism=True)))
        for structures, below_stride in ((below, True), (everywhere, False)):
            for b in structures:
                propagations.clear()
                path_consistency(b)
                ((_, _, stride), _), = propagations
                assert stride < b._stride if below_stride else stride == b._stride
