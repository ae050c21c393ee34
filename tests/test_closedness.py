"""Closedness verification, order search, and certifying-order construction."""

import itertools
import random
import sys

import pytest

from oc_reason import (
    AssumptionSelection,
    Bcs,
    Correspondence,
    InputError,
    NormalFormGame,
    build_assumption_bcs,
    is_join_closed,
    is_max_closed,
    join_incompleteness_instance,
    join_table_from_hasse,
    joins_from_orders,
    montanari_instance,
    orders_for_assumptions,
    random_bcs,
    random_max_closed_bcs,
    search_max_orders,
    validate_join_family,
)
from oc_reason import assumptions as asm
from oc_reason import closedness
from oc_reason.bcs import inverse
from oc_reason.games import find_isomorphisms, is_fully_reduced
from conftest import affine_copy, random_game, with_dominated_row

DOM2 = ("x1", "x2")
DOMY = ("y1", "y2")


def crossing_bcs():
    """The 2x2 crossing relation {(x1,y2),(x2,y1)} with (x1,y1) absent."""
    c = Correspondence.from_pairs("X", "Y", DOM2, DOMY, [("x1", "y2"), ("x2", "y1")])
    return Bcs.create([("X", DOM2), ("Y", DOMY)], [c])


class TestMaxClosed:
    def test_crossing_violation_witness(self):
        bcs = crossing_bcs()
        report = is_max_closed(bcs, {"X": ("x2", "x1"), "Y": ("y2", "y1")})
        assert not report.closed
        w = report.witness
        assert {w.pair_a, w.pair_b} == {("x1", "y2"), ("x2", "y1")}
        assert w.missing == ("x1", "y1")

    def test_full_relation_closed_under_any_orders(self):
        bcs = Bcs.create([("X", DOM2), ("Y", DOMY)],
                         [Correspondence.full("X", "Y", DOM2, DOMY)])
        assert is_max_closed(bcs, {"X": DOM2, "Y": DOMY}).closed
        assert is_max_closed(bcs, {"X": ("x2", "x1"), "Y": DOMY}).closed

    def test_trio_assumption_orders(self, trio):
        bcs = build_assumption_bcs(list(trio),
                                   AssumptionSelection(dominance=True, isomorphism=True))
        orders = orders_for_assumptions(list(trio), bcs)
        assert is_max_closed(bcs, orders).closed

    def test_missing_order_is_error(self):
        bcs = crossing_bcs()
        with pytest.raises(InputError):
            is_max_closed(bcs, {"X": DOM2})

    def test_non_permutation_is_error(self):
        bcs = crossing_bcs()
        with pytest.raises(InputError):
            is_max_closed(bcs, {"X": ("x1", "x1"), "Y": DOMY})


class TestSearchOrders:
    def test_crossing_relation_has_certifying_orders(self):
        # reversing one side turns the crossing into a max-closed relation
        found = search_max_orders(crossing_bcs())
        assert found is not None
        assert is_max_closed(crossing_bcs(), found).closed

    def test_k4_has_none(self):
        assert search_max_orders(montanari_instance()) is None

    def test_no_constraints_returns_listed_order(self):
        bcs = Bcs.create([("X", DOM2), ("Y", DOMY)])
        assert search_max_orders(bcs) == {"X": DOM2, "Y": DOMY}

    def test_deeper_than_the_recursion_limit(self):
        # a two-value equality chain: equal orders certify it
        n = 400
        names = [f"V{i}" for i in range(n)]
        bcs = Bcs.create([(x, DOM2) for x in names], [
            Correspondence.from_pairs(x, y, DOM2, DOM2, [("x1", "x1"), ("x2", "x2")])
            for x, y in zip(names, names[1:])])
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(n // 2)
        try:
            found = search_max_orders(bcs)
        finally:
            sys.setrecursionlimit(old)
        assert found == {x: DOM2 for x in names}

    def test_found_orders_always_verify(self):
        rng = random.Random(40)
        for _ in range(30):
            bcs = random_bcs(rng, rng.randint(1, 3), 3)
            found = search_max_orders(bcs)
            if found is not None:
                assert is_max_closed(bcs, found).closed


class TestJoinClosed:
    def test_appendix_instance_closed(self):
        bcs, joins = join_incompleteness_instance()
        assert is_join_closed(bcs, joins).closed

    def test_max_tables_reproduce_max_closed(self):
        rng = random.Random(41)
        for _ in range(30):
            bcs, orders = random_max_closed_bcs(rng, rng.randint(2, 4), 4)
            joins = joins_from_orders(bcs, orders)
            assert is_join_closed(bcs, joins).closed == is_max_closed(bcs, orders).closed
        # and on a non-closed instance the verdicts also agree
        bcs = crossing_bcs()
        orders = {"X": DOM2, "Y": DOMY}
        assert is_join_closed(bcs, joins_from_orders(bcs, orders)).closed == \
            is_max_closed(bcs, orders).closed

    def test_non_commutative_table_rejected(self):
        bcs = Bcs.create([("X", DOM2)])
        bad = {"X": {("x1", "x1"): "x1", ("x2", "x2"): "x2",
                     ("x1", "x2"): "x1", ("x2", "x1"): "x2"}}
        with pytest.raises(InputError, match="ommutativity"):
            validate_join_family(bcs, bad)

    def test_non_idempotent_table_rejected(self):
        bcs = Bcs.create([("X", DOM2)])
        bad = {"X": {("x1", "x1"): "x2", ("x2", "x2"): "x2",
                     ("x1", "x2"): "x2", ("x2", "x1"): "x2"}}
        with pytest.raises(InputError, match="dempotency"):
            validate_join_family(bcs, bad)


class TestHasseCompilation:
    def test_appendix_w_lattice_joins(self):
        _, joins = join_incompleteness_instance()
        assert joins["W"][("w5", "w7")] == "w4"
        assert joins["W"][("w7", "w2")] == "w1"
        assert joins["Z"][("z2", "z3")] == "z1"
        assert joins["X"][("x1", "x2")] == "x1"

    def test_no_unique_lub_rejected(self):
        # two maximal elements: the pair (a, b) has no upper bound at all
        with pytest.raises(InputError, match="least upper bound"):
            join_table_from_hasse(("a", "b"), [])

    def test_ambiguous_lub_rejected(self):
        # diamond without a top: two incomparable upper bounds
        with pytest.raises(InputError, match="least upper bound"):
            join_table_from_hasse(("bot", "l", "r"), [("bot", "l"), ("bot", "r")])

    def test_cycle_rejected(self):
        with pytest.raises(InputError, match="cycle"):
            join_table_from_hasse(("a", "b"), [("a", "b"), ("b", "a")])


def random_game_set(rng, stag_pair):
    """A random game, possibly with a rescaled copy, a variant with a
    dominated row, an unrelated game and the stag-hunt pair; returns the
    games and the decreasing-risk labelings that apply to them."""
    left, right, labeling = stag_pair
    games = [random_game(rng, "A")]
    if rng.random() < 0.7:
        games.append(affine_copy(rng, games[0], "B"))
    if rng.random() < 0.7:
        games.append(with_dominated_row(rng, games[0], "C"))
    if rng.random() < 0.5:
        games.append(random_game(rng, "D"))
    risk = ()
    if rng.random() < 0.5:
        games += [left, right]
        risk = (labeling,)
    return games, risk


def classify_reference(games, bcs):
    """The candidate scan that `closedness._classify_constraints` replaced:
    every candidate re-derived family by family, then each constraint
    compared with each candidate and its inverse in turn, the first match
    winning."""
    by_name = {g.name: g for g in games}
    reduced = {g.name: is_fully_reduced(g) for g in games}
    candidates = []
    for g in games:
        sub, oc = asm.oc_dominance(g)
        if not sub.same_payoffs(g):
            for other in games:
                if other.name != g.name and other.same_payoffs(sub):
                    candidates.append(("dominance", Correspondence(
                        g.name, other.name, oc.source_domain, oc.target_domain, oc.rows), None))
    for g1, g2 in itertools.combinations(games, 2):
        if reduced[g1.name] and reduced[g2.name]:
            oc = asm._oc_isomorphism(g1, g2, find_isomorphisms(g1, g2))
            if oc is not None:
                candidates.append(("isomorphism", oc, (g1.name, g2.name)))
    for g in games:
        try:
            candidates.append(("nash", asm.oc_nash(g), None))
        except InputError:
            pass
    for g1, g2 in list(itertools.permutations(games, 2)) + [(g, g) for g in games]:
        for labeling in asm.discover_risk_labelings(g1, g2):
            candidates.append(("risk", asm.oc_decreasing_risk(g1, g2, labeling), labeling))

    risk_orders, iso_edges = {}, []
    for c in bcs.constraints:
        matched = None
        for kind, cand, payload in candidates:
            if any((c.source, c.target, c.rows) == (r.source, r.target, r.rows)
                   for r in (cand, inverse(cand))):
                matched = (kind, payload)
                break
        if matched is None:
            raise InputError(
                f"constraint {c.source}->{c.target} was not generated by the assumption set")
        kind, payload = matched
        if kind == "isomorphism":
            iso_edges.append(payload)
        elif kind == "risk":
            for name, top, safe in ((payload.g1, payload.g1_top, payload.g1_safe),
                                    (payload.g2, payload.g2_top, payload.g2_safe)):
                order = closedness._risk_order(by_name[name], top, safe)
                if risk_orders.get(name, order) != order:
                    raise InputError(
                        f"conflicting decreasing-risk orders required for {name!r}")
                risk_orders[name] = order
    return risk_orders, iso_edges


class TestOrdersForAssumptions:
    def test_stag_pair_exact_quoted_order(self, stag_pair):
        left, right, labeling = stag_pair
        games = [left, right]
        bcs = build_assumption_bcs(games, AssumptionSelection(decreasing_risk=(labeling,)))
        orders = orders_for_assumptions(games, bcs)
        expected = ("aH,aL", "aL,aH", "aL,aL", "aH,aH")
        assert orders["GL"] == expected
        assert orders["GR"] == expected
        assert is_max_closed(bcs, orders).closed

    def test_nash_only_always_certifies(self, pd):
        bcs = build_assumption_bcs([pd], AssumptionSelection(nash=True))
        orders = orders_for_assumptions([pd], bcs)
        assert is_max_closed(bcs, orders).closed

    def test_foreign_constraint_rejected(self, trio):
        ga, gb, gc = trio
        bcs = build_assumption_bcs([ga, gb, gc],
                                   AssumptionSelection(dominance=True, isomorphism=True))
        foreign = Correspondence.full("Ga", "Gc", bcs.domain("Ga"), bcs.domain("Gc"))
        with pytest.raises(InputError, match="not generated"):
            orders_for_assumptions(list(trio), bcs.with_constraints([foreign]))

    def test_duplicate_game_names_rejected(self, trio):
        _, gb, gc = trio
        bcs = build_assumption_bcs([gb, gc], AssumptionSelection(isomorphism=True))
        # another game under Gc's name: searches are looked up by game name
        twin = NormalFormGame("Gc", gb.actions, gb.utilities)
        with pytest.raises(InputError, match="duplicate game names"):
            orders_for_assumptions([twin, gb, gc], bcs)

    def test_random_game_sets(self, stag_pair):
        rng = random.Random(42)
        for _ in range(40):
            games, risk = random_game_set(rng, stag_pair)
            bcs = build_assumption_bcs(games, AssumptionSelection(
                dominance=True, isomorphism=True, nash=True, decreasing_risk=risk))
            orders = orders_for_assumptions(games, bcs)
            report = is_max_closed(bcs, orders)
            assert report.closed, report.witness


def _record_calls(monkeypatch, attr, modules):
    """Replace `attr` in each module by a wrapper that records the names of
    the games of every call; returns the shared record."""
    calls = []
    for module in modules:
        original = getattr(module, attr)

        def recording(*games, _original=original):
            calls.append(tuple(g.name for g in games))
            return _original(*games)

        monkeypatch.setattr(module, attr, recording)
    return calls


class TestClassifyConstraints:
    @staticmethod
    def outcome(classify, games, bcs):
        try:
            return classify(games, bcs)
        except InputError as exc:
            return str(exc)

    def test_equals_the_candidate_scan(self, stag_pair):
        rng = random.Random(45)
        outcomes = []
        for _ in range(40):
            games, risk = random_game_set(rng, stag_pair)
            bcs = build_assumption_bcs(games, AssumptionSelection(
                dominance=True, isomorphism=True, nash=True, decreasing_risk=risk))
            x, y = rng.choice(bcs.variables), rng.choice(bcs.variables)
            foreign = Correspondence.from_pairs(x.id, y.id, x.domain, y.domain, [
                (a, b) for a in x.domain for b in y.domain if rng.random() < 0.5])
            subsets = [Bcs(bcs.variables, tuple(
                inverse(c) if rng.random() < 0.3 else c
                for c in bcs.constraints if rng.random() < 0.6)) for _ in range(3)]
            # every labeling that applies, self-pairs included
            discovered = build_assumption_bcs(games, AssumptionSelection(
                nash=True, decreasing_risk=tuple(
                    lab for g1, g2 in itertools.product(games, repeat=2)
                    for lab in asm.discover_risk_labelings(g1, g2))))
            for b in [bcs, bcs.with_constraints([foreign]),
                      Bcs(bcs.variables, tuple(inverse(c) for c in bcs.constraints)), *subsets,
                      discovered]:
                got = self.outcome(
                    lambda gs, b: closedness._classify_constraints(gs, b, asm._Searches()),
                    games, b)
                assert got == self.outcome(classify_reference, games, b)
                outcomes.append(got)
        # both answers and rejections, risk orders and isomorphism edges
        assert sum(isinstance(o, str) for o in outcomes) >= 20
        assert sum(isinstance(o, tuple) and bool(o[0]) for o in outcomes) >= 20
        assert sum(isinstance(o, tuple) and bool(o[1]) for o in outcomes) >= 20


class TestSearchesOncePerCall:
    @pytest.fixture
    def game_set(self, trio, stag_pair, coordination):
        ga, gb, gc = trio
        left, right, labeling = stag_pair
        gd = affine_copy(random.Random(43), gc, "Gd")
        games = [ga, gb, gc, gd, left, right, coordination]
        selection = AssumptionSelection(dominance=True, isomorphism=True, nash=True,
                                        decreasing_risk=(labeling,))
        return games, selection

    def test_orders_for_assumptions(self, game_set, monkeypatch):
        import oc_reason.assumptions as asm
        games, selection = game_set
        bcs = build_assumption_bcs(games, selection)
        searches = _record_calls(monkeypatch, "find_isomorphisms", (asm,))
        reductions = _record_calls(monkeypatch, "is_fully_reduced", (asm,))
        orders = orders_for_assumptions(games, bcs)
        assert is_max_closed(bcs, orders).closed
        assert ("Gb", "Gc") in searches and ("Gb", "Gb") in searches
        assert len(searches) == len(set(searches))
        assert sorted(reductions) == sorted({(g.name,) for g in games})

    def test_build_assumption_bcs(self, game_set, monkeypatch):
        import oc_reason.assumptions as asm
        games, selection = game_set
        reductions = _record_calls(monkeypatch, "is_fully_reduced", (asm,))
        build_assumption_bcs(games, selection)
        assert sorted(reductions) == sorted({(g.name,) for g in games})

    def test_fixture_orders_are_pinned(self, game_set):
        games, selection = game_set
        bcs = build_assumption_bcs(games, selection)
        assert [(c.source, c.target, len(c.pairs())) for c in bcs.constraints] == [
            ("Ga", "Gb", 4), ("Gb", "Gc", 4), ("Gb", "Gd", 4), ("Gc", "Gd", 4),
            ("Ga", "Ga", 2), ("Gb", "Gb", 2), ("Gc", "Gc", 2), ("Gd", "Gd", 2),
            ("GL", "GL", 2), ("GR", "GR", 2), ("CO", "CO", 2), ("GL", "GR", 9)]
        assert orders_for_assumptions(games, bcs) == {
            "GL": ("aH,aL", "aL,aH", "aL,aL", "aH,aH"),
            "GR": ("aH,aL", "aL,aH", "aL,aL", "aH,aH"),
            "Gb": ("C,C", "C,D", "D,C", "D,D"),
            "Gc": ("E,E", "E,F", "F,E", "F,F"),
            "Gd": ("Ex,Ex", "Ex,Fx", "Fx,Ex", "Fx,Fx"),
            "CO": ("A,A", "A,B", "B,A", "B,B"),
            "Ga": ("C',C", "C',D", "C,C", "C,D", "D,C", "D,D"),
        }
