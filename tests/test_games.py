"""Game primitives: dominance, reduction, isomorphisms, equilibria, Pareto."""

import gc
import itertools
import math
import random
import time
import weakref
from fractions import Fraction

import pytest

from oc_reason import (
    InputError,
    Isomorphism,
    NormalFormGame,
    ParetoRelation,
    dominated_actions,
    find_isomorphisms,
    fully_reduce,
    is_fully_reduced,
    one_round_reduction,
    pareto_compare,
    pure_nash_equilibria,
    strictly_dominates,
)
from oc_reason.fixtures import chicken_trio, symmetric_coordination
from conftest import affine_copy, random_game, small_game


def _affine_fit(pairs: list[tuple[Fraction, Fraction]]) -> tuple[Fraction, Fraction] | None:
    """Find (scale, shift) with scale > 0 and u = scale*v + shift for all (u, v) pairs.

    When v is constant the scale is unconstrained; it is canonicalized to 1.
    """
    base_u, base_v = pairs[0]
    other = next(((u, v) for u, v in pairs if v != base_v), None)
    if other is None:
        if any(u != base_u for u, _ in pairs):
            return None
        return Fraction(1), base_u - base_v
    scale = (other[0] - base_u) / (other[1] - base_v)
    if scale <= 0:
        return None
    shift = base_u - scale * base_v
    if all(u == scale * v + shift for u, v in pairs):
        return scale, shift
    return None


def exhaustive_isomorphisms(g1, g2):
    """Reference search: every product of per-player action bijections, each
    with its own affine fit per player, behind a per-player check that a
    positive affine map between the sorted payoff multisets exists."""
    if g1.n_players != g2.n_players or g1.shape != g2.shape:
        return []
    for i in range(g1.n_players):
        u = sorted(g1.payoff_of(p, i) for p in g1.profiles())
        v = sorted(g2.payoff_of(p, i) for p in g2.profiles())
        if _affine_fit(list(zip(u, v))) is None:
            return []
    out = []
    profiles = list(g1.profiles())
    for maps in itertools.product(*(itertools.permutations(range(m)) for m in g1.shape)):
        fits = []
        for i in range(g1.n_players):
            fit = _affine_fit([
                (g1.payoff_of(p, i), g2.payoff_of(tuple(maps[j][a] for j, a in enumerate(p)), i))
                for p in profiles])
            if fit is None:
                break
            fits.append(fit)
        else:
            out.append(Isomorphism(maps, tuple(s for s, _ in fits), tuple(b for _, b in fits)))
    return out


def payoff_game(name, shape, payoff):
    """A game whose payoff vector at each profile is `payoff(profile)`."""
    actions = tuple(tuple(f"p{i}a{k}" for k in range(m)) for i, m in enumerate(shape))
    return NormalFormGame(name, actions, {
        p: tuple(Fraction(x) for x in payoff(p))
        for p in itertools.product(*(range(m) for m in shape))})


def relabelled_copy(rng, game, name):
    """`game` with every player's actions permuted and payoffs rescaled by a
    random positive affine map: isomorphic to `game` by construction."""
    maps = [rng.sample(range(m), m) for m in game.shape]
    scales = [Fraction(rng.randint(1, 3), rng.randint(1, 2)) for _ in maps]
    shifts = [Fraction(rng.randint(-4, 4)) for _ in maps]
    return NormalFormGame(name, game.actions, {
        tuple(maps[i][a] for i, a in enumerate(p)):
            tuple((x - shifts[i]) / scales[i] for i, x in enumerate(v))
        for p, v in game.utilities.items()})


def rational_game(rng, name, shape):
    """Each player's payoffs drawn from four negative or fractional values,
    so ties are common; one player in five gets a constant column."""
    pools = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4)]
             for _ in shape]
    for pool in pools:
        if rng.random() < 0.2:
            pool[1:] = [pool[0]] * 3
    return payoff_game(name, shape, lambda p: tuple(rng.choice(pool) for pool in pools))


class TestConstruction:
    def test_requires_total_utilities(self):
        with pytest.raises(InputError):
            NormalFormGame.create("g", [["a", "b"], ["x"]], {("a", "x"): (1, 1)})

    def test_rejects_duplicate_actions(self):
        with pytest.raises(InputError):
            NormalFormGame.two_player("g", ("a", "a"), ("x",), [[(0, 0)], [(0, 0)]])

    def test_rejects_comma_in_labels(self):
        with pytest.raises(InputError):
            NormalFormGame.two_player("g", ("a,b",), ("x",), [[(0, 0)]])

    def test_rational_payoffs(self):
        g = NormalFormGame.two_player("g", ("a",), ("x",), [[("1/3", 2)]])
        assert g.payoff((0, 0)) == (Fraction(1, 3), Fraction(2))


class TestDominance:
    def test_pd_defection_dominates(self, pd):
        assert strictly_dominates(pd, 0, "D", "C")
        assert strictly_dominates(pd, 1, "D", "C")
        assert not strictly_dominates(pd, 0, "C", "D")

    def test_same_action_is_an_error(self, pd):
        with pytest.raises(InputError):
            strictly_dominates(pd, 0, "D", "D")

    def test_unknown_player_or_action(self, pd):
        with pytest.raises(InputError):
            strictly_dominates(pd, 2, "D", "C")
        with pytest.raises(InputError):
            strictly_dominates(pd, 0, "Z", "C")

    def test_stag_hunt_high_does_not_dominate(self, stag_pair):
        left, _, _ = stag_pair
        assert not strictly_dominates(left, 0, "aH", "aL")

    def test_never_mutual(self):
        rng = random.Random(0)
        for _ in range(50):
            g = random_game(rng, "g")
            for player in range(2):
                for a, b in itertools.permutations(g.actions[player], 2):
                    assert not (strictly_dominates(g, player, a, b)
                                and strictly_dominates(g, player, b, a))


class TestReduction:
    def test_trio_single_round(self, trio):
        ga, gb, _ = trio
        trace = fully_reduce(ga)
        assert trace.rounds == ((frozenset({"C'"}), frozenset()),)
        assert trace.final.same_payoffs(gb)

    def test_fixed_point_when_nothing_dominated(self, trio):
        _, gb, _ = trio
        trace = fully_reduce(gb)
        assert trace.rounds == ()
        assert trace.final.same_payoffs(gb)

    def test_pd_reduces_to_single_outcome(self, pd):
        trace = fully_reduce(pd)
        assert trace.final.shape == (1, 1)
        assert trace.final.actions == (("D",), ("D",))

    def test_order_independence(self):
        # eliminating one dominated action at a time, in random order, reaches
        # the same reduced game as maximal-round elimination
        rng = random.Random(1)
        for _ in range(60):
            g = random_game(rng, "g", max_actions=4)
            target = fully_reduce(g).final
            current = g
            while True:
                options = [(p, a) for p in range(2) for a in dominated_actions(current, p)]
                if not options:
                    break
                p, a = rng.choice(options)
                kept = [list(current.actions[0]), list(current.actions[1])]
                kept[p].remove(a)
                current = current.restrict(kept)
            assert current.same_payoffs(target)

    def test_derived_facts_do_not_keep_a_game_alive(self):
        # a game with nothing dominated is its own reduction: caching the
        # pair (game, eliminated) on it would make a cycle, which only the
        # cycle collector frees
        ga, gb, _ = chicken_trio()
        assert not is_fully_reduced(ga) and is_fully_reduced(gb)
        refs = []
        gc.disable()
        try:
            for g in (ga, gb):
                # read every derived fact, so that each is cached on the game
                assert one_round_reduction(g)[0].same_payoffs(gb)
                assert fully_reduce(g).final.same_payoffs(gb)
                assert len(g._affine_key[0]) == 2
                refs.append(weakref.ref(g))
            del g, ga, gb
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()


class TestIsomorphisms:
    def test_trio_unique_isomorphism(self, trio):
        _, gb, gc = trio
        isos = find_isomorphisms(gb, gc)
        assert len(isos) == 1
        iso = isos[0]
        assert iso.scales == (Fraction(1, 2), Fraction(1, 2))
        assert iso.shifts == (Fraction(-2), Fraction(-2))
        # C -> E, D -> F for both players
        assert iso.maps == ((0, 1), (0, 1))

    def test_identity_always_found(self, trio, pd):
        for g in (*trio, pd):
            isos = find_isomorphisms(g, g)
            assert any(
                iso.maps == tuple(tuple(range(m)) for m in g.shape)
                and all(s == 1 for s in iso.scales) and all(b == 0 for b in iso.shifts)
                for iso in isos)

    def test_incompatible_games(self, trio, stag_pair):
        _, gb, _ = trio
        assert find_isomorphisms(gb, stag_pair[0]) == []

    def test_mismatched_shapes_empty(self, trio):
        ga, gb, _ = trio
        assert find_isomorphisms(ga, gb) == []

    def test_symmetry(self):
        rng = random.Random(2)
        for _ in range(30):
            g = random_game(rng, "g")
            h = affine_copy(rng, g, "h")
            forward = find_isomorphisms(g, h)
            backward = find_isomorphisms(h, g)
            assert forward
            back_keys = {(i.maps, i.scales, i.shifts) for i in backward}
            for iso in forward:
                assert (iso.inverse().maps, iso.inverse().scales,
                        iso.inverse().shifts) in back_keys

    def test_composition_closure(self):
        rng = random.Random(3)
        for _ in range(20):
            g1 = random_game(rng, "g1")
            g2 = affine_copy(rng, g1, "g2")
            g3 = affine_copy(rng, g2, "g3")
            all13 = {(i.maps, i.scales, i.shifts) for i in find_isomorphisms(g1, g3)}
            for a in find_isomorphisms(g1, g2):
                for b in find_isomorphisms(g2, g3):
                    c = a.compose(b)
                    assert (c.maps, c.scales, c.shifts) in all13


class TestAffineKey:
    """`NormalFormGame._affine_key` against `_affine_fit` over the sorted
    payoff multisets it replaced in `find_isomorphisms`."""

    def test_primitives_decide_the_fit_and_fix_its_map(self):
        rng = random.Random(8)
        seen = {"fit": 0, "no fit": 0, "constant": 0, "scaled": 0}
        for t in range(400):
            shape = rng.choice([(2, 2), (3, 2), (3, 3), (2, 2, 2), (3, 2, 2)])
            g = rational_game(rng, "g", shape)
            h = (affine_copy(rng, g, "h"), relabelled_copy(rng, g, "h"),
                 rational_game(rng, "h", shape), g)[t % 4]
            for i, ((primitive, low, unit), (primitive2, low2, unit2)) in enumerate(
                    zip(zip(*g._affine_key), zip(*h._affine_key))):
                u = sorted(g.payoff_of(p, i) for p in g.profiles())
                v = sorted(h.payoff_of(p, i) for p in h.profiles())
                assert u == [low + unit * k for k in primitive]
                assert min(primitive) == 0 and unit > 0
                assert math.gcd(*primitive) == 1 or (set(primitive) == {0} and unit == 1)
                fit = _affine_fit(list(zip(u, v)))
                assert (primitive == primitive2) == (fit is not None)
                if fit is not None:
                    scale = unit / unit2
                    assert (scale, low - scale * low2) == fit
                seen["fit" if fit else "no fit"] += 1
                seen["constant"] += set(primitive) == {0}
                seen["scaled"] += fit is not None and fit[0] != 1
        assert min(seen.values()) >= 100, seen


class TestRefinementSearch:
    KINDS = {
        "constant": lambda rng, shape: lambda p: (1,) * len(shape),
        "latin": lambda rng, shape: lambda p: tuple((sum(p) + i) % max(shape)
                                                    for i in range(len(shape))),
        "binary": lambda rng, shape: lambda p: tuple(rng.randint(0, 1) for _ in shape),
        "random": lambda rng, shape: lambda p: tuple(rng.randint(0, 9) for _ in shape),
    }

    def test_equals_the_exhaustive_search_in_order(self):
        rng = random.Random(6)
        shapes = [(1, 1), (2, 2), (3, 3), (2, 3), (4, 3), (4, 4),
                  (2, 2, 2), (3, 2, 2), (3, 3, 2), (3,)]
        pairs = found = 0
        for t in range(320):
            # two 5x5 pairs only: the reference tries 14,400 bijections on each
            shape = (5, 5) if t % 160 == 0 else rng.choice(shapes)
            kind = ("latin", "random")[t // 160] if shape == (5, 5) else \
                rng.choice(sorted(self.KINDS))
            g = payoff_game("g", shape, self.KINDS[kind](rng, shape))
            draw = 0.0 if shape == (5, 5) else rng.random()
            if draw < 0.5:
                h = relabelled_copy(rng, g, "h")
            elif draw < 0.7:
                h = g
            else:
                h = payoff_game("h", shape, self.KINDS[kind](rng, shape))
            result = find_isomorphisms(g, h)
            assert result == exhaustive_isomorphisms(g, h), (shape, kind)
            pairs += 1
            found += len(result)
        assert pairs == 320 and found > 1000

    def test_the_first_automorphism_is_the_identity(self):
        # a game's own class order is its sorted labels carried through the
        # first automorphism, which must therefore be the identity: seeded
        # 2- and 3-player games of every kind, symmetric ones included
        rng = random.Random(8)
        shapes = [(1, 1), (2, 2), (3, 3), (2, 3), (4, 4), (2, 2, 2), (3, 2, 2), (3, 3, 3)]
        games = [symmetric_coordination()]
        for t in range(200):
            shape, kind = rng.choice(shapes), sorted(self.KINDS)[t % 4]
            games.append(payoff_game("g", shape, self.KINDS[kind](rng, shape)))
        games += [small_game(rng, "s", 2 + t % 2) for t in range(100)]
        symmetric = 0
        for g in games:
            automorphisms = find_isomorphisms(g, g)
            assert automorphisms[0].maps == tuple(tuple(range(m)) for m in g.shape)
            symmetric += len(automorphisms) > 1
        assert symmetric >= 80

    @pytest.mark.parametrize("shape", [(6, 6), (4, 4, 4)])
    def test_larger_games_finish_quickly(self, shape):
        rng = random.Random(7)
        g = payoff_game("g", shape, self.KINDS["random"](rng, shape))
        h = relabelled_copy(rng, g, "h")
        cyclic = payoff_game("c", shape, self.KINDS["latin"](rng, shape))
        start = time.perf_counter()
        forward = find_isomorphisms(g, h)
        automorphisms = find_isomorphisms(cyclic, cyclic)
        assert time.perf_counter() - start < 1.0
        assert forward and automorphisms
        identity = tuple(tuple(range(m)) for m in shape)
        assert automorphisms[0].maps == identity


class TestNash:
    def test_stag_hunt_two_equilibria(self, stag_pair):
        left, _, _ = stag_pair
        assert [o.label for o in pure_nash_equilibria(left)] == ["aH,aH", "aL,aL"]

    def test_single_outcome_game(self):
        g = NormalFormGame.two_player("g", ("a",), ("b",), [[(0, 0)]])
        assert [o.label for o in pure_nash_equilibria(g)] == ["a,b"]

    def test_pd_strict(self, pd):
        assert [o.label for o in pure_nash_equilibria(pd, strict=True)] == ["D,D"]

    def test_no_pure_equilibrium(self, pennies):
        assert pure_nash_equilibria(pennies) == ()

    def test_strict_subset_of_nash(self):
        rng = random.Random(4)
        for _ in range(60):
            g = random_game(rng, "g", payoff_range=(0, 3))
            strict = {o.profile for o in pure_nash_equilibria(g, strict=True)}
            loose = {o.profile for o in pure_nash_equilibria(g)}
            assert strict <= loose


class TestParetoCompare:
    def test_examples(self):
        assert pareto_compare((10, 10), (3, 3)) is ParetoRelation.BETTER
        assert pareto_compare((3, 3), (3, 3)) is ParetoRelation.EQUAL
        assert pareto_compare((4, 0), (2, 1)) is ParetoRelation.INCOMPARABLE
        assert pareto_compare((0, 0), (1, 1)) is ParetoRelation.WORSE

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            pareto_compare((1, 2), (1, 2, 3))

    def test_partial_order_properties(self):
        rng = random.Random(5)
        vec = lambda: tuple(rng.randint(0, 3) for _ in range(2))
        for _ in range(300):
            a, b, c = vec(), vec(), vec()
            ab, ba = pareto_compare(a, b), pareto_compare(b, a)
            if ab is ParetoRelation.BETTER:
                assert ba is ParetoRelation.WORSE
            if ab is ParetoRelation.BETTER and pareto_compare(b, c) is ParetoRelation.BETTER:
                assert pareto_compare(a, c) is ParetoRelation.BETTER
