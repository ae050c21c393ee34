"""Closedness verification, order search, and certifying-order construction."""

import collections
import functools
import itertools
import json
import random
import re
import sys
from fractions import Fraction

import pytest

from oc_reason import (
    AssumptionSelection,
    Bcs,
    ClosednessReport,
    ClosednessWitness,
    Correspondence,
    DecisionMode,
    InputError,
    NormalFormGame,
    Preference,
    Variable,
    build_assumption_bcs,
    csp_to_si_games,
    decide_si,
    find_any_si,
    is_join_closed,
    is_max_closed,
    join_incompleteness_instance,
    join_table_from_hasse,
    joins_from_orders,
    montanari_instance,
    orders_for_assumptions,
    random_bcs,
    random_join_closed_bcs,
    random_max_closed_bcs,
    random_semilattice,
    search_max_orders,
    validate_join_family,
)
from oc_reason import assumptions as asm
from oc_reason import closedness, games as games_module, serialize
from oc_reason.bcs import _closure, inverse
from oc_reason.fixtures import stag_hunt_pair
from oc_reason.games import find_isomorphisms, fully_reduce, is_fully_reduced
from conftest import (affine_copy, permuted_copy, random_game, small_game, small_game_set,
                      with_dominated_row)

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

    def test_non_associative_table_names_the_first_triple(self):
        # idempotent and commutative, yet (a v a) v b = c while a v (a v b) = a
        dom = ("a", "b", "c")
        table = {(x, x): x for x in dom}
        for (x, y), z in {("a", "b"): "c", ("a", "c"): "a", ("b", "c"): "b"}.items():
            table[(x, y)] = table[(y, x)] = z
        with pytest.raises(InputError, match=re.escape(
                "associativity fails for 'X' at ('a', 'a', 'b')")):
            validate_join_family(Bcs.create([("X", dom)]), {"X": table})

    @pytest.mark.parametrize("query", ["check", "derive", "decide_si", "find_any_si"])
    @pytest.mark.parametrize("kind, certificate, message", [
        ("orders", 5, "orders are not a mapping"),
        ("orders", [("X", DOM2), ("Y", DOMY)], "orders are not a mapping"),
        ("joins", ["X"], "joins are not a mapping"),
        ("joins", "XY", "joins are not a mapping"),
        ("orders", {"X": (["x1"], "x2"), "Y": DOMY}, "order for 'X' is not a permutation"),
        ("orders", {"X": 5, "Y": DOMY}, "order for 'X' is not a permutation"),
        ("orders", {"X": DOM2, "Y": ("y1", {"y2"})}, "order for 'Y' is not a permutation"),
        ("joins", {"X": 5, "Y": {}}, "join table for 'X' is not a mapping"),
        ("joins", {"X": joins_from_orders(crossing_bcs(), {"X": DOM2, "Y": DOMY})["X"],
                   "Y": [(("y1", "y1"), "y1")]}, "join table for 'Y' is not a mapping"),
    ])
    def test_malformed_certificate_is_input_error(self, query, kind, certificate, message):
        bcs = crossing_bcs()
        mode = DecisionMode.PROPAGATION if kind == "orders" else DecisionMode.REFUTATION
        pref = Preference.from_relation({v.id: v.domain for v in bcs.variables},
                                        lambda a, b: a[1] >= b[1])
        run = {
            "check": lambda: (is_max_closed if kind == "orders" else is_join_closed)(
                bcs, certificate),
            "derive": lambda: (joins_from_orders if kind == "orders" else validate_join_family)(
                bcs, certificate),
            "decide_si": lambda: decide_si(bcs, "X", "Y", pref, mode=mode,
                                           **{kind: certificate}),
            "find_any_si": lambda: find_any_si(bcs, pref, mode=mode, **{kind: certificate}),
        }[query]
        with pytest.raises(InputError, match=re.escape(message)):
            run()

    def test_no_family_is_input_error(self):
        # decide_si and find_* read None as no certificate at all
        for check, message in ((is_max_closed, "orders"), (joins_from_orders, "orders"),
                               (is_join_closed, "joins"), (validate_join_family, "joins")):
            with pytest.raises(InputError, match=f"{message} are not a mapping"):
                check(crossing_bcs(), None)

    def test_equals_the_triple_scan(self):
        rng = random.Random(46)
        outcomes = []
        for _ in range(3000):
            dom, table = random_join_table(rng)
            bcs = Bcs.create([("X", dom)])
            got = outcome(validate_join_family, bcs, {"X": table})
            assert got == outcome(validate_join_reference, bcs, {"X": table})
            outcomes.append(got)
        messages = [o for o in outcomes if isinstance(o, str)]
        assert len(outcomes) - len(messages) >= 1000
        for axiom in ("missing", "leaves the domain", "dempotency", "ommutativity"):
            assert sum(axiom in m for m in messages) >= 30, axiom
        assert sum("associativity" in m for m in messages) >= 500


class TestPositionTables:
    """The scan over join tables of domain positions against the label-level
    scan it replaced, reports and witnesses included."""

    def test_reports_equal_the_label_scan(self):
        rng = random.Random(48)
        reports = []
        for k in range(3000):
            kind = k % 3
            if kind == 0:
                bcs = random_bcs(rng, rng.randint(1, 4), 5)
            elif kind == 1:
                bcs, joins = random_join_closed_bcs(rng, rng.randint(2, 4), 5)
                bcs = with_one_bit_flipped(rng, bcs)
                got = outcome(is_join_closed, bcs, joins)
                assert got == outcome(join_closed_reference, bcs, joins)
                reports.append(got)
            else:
                bcs = with_self_loop(rng, random_bcs(rng, rng.randint(1, 4), 5))
            orders = {v.id: tuple(rng.sample(v.domain, len(v.domain))) for v in bcs.variables}
            got = outcome(is_max_closed, bcs, orders)
            assert got == outcome(max_closed_reference, bcs, orders)
            reports.append(got)
            joins = joins_from_orders(bcs, orders)
            assert joins == joins_from_orders_reference(bcs, orders)
            assert outcome(is_join_closed, bcs, joins) == got
        violated = [r for r in reports if not r.closed]
        assert len(violated) >= 1000 and len(reports) - len(violated) >= 1000
        # witnesses on self-loops, whose two ends share one table
        assert sum(r.witness.source == r.witness.target for r in violated) >= 100

    def test_order_errors_equal_the_rank_check(self):
        bcs = random_bcs(random.Random(49), 3, 4)
        dom = bcs.variables[0].domain
        for orders in ({}, {bcs.variables[0].id: dom},
                       {v.id: v.domain[:-1] for v in bcs.variables},
                       {v.id: v.domain + ("v9",) for v in bcs.variables},
                       {v.id: v.domain[:1] * len(v.domain) for v in bcs.variables}):
            got = outcome(is_max_closed, bcs, orders)
            assert isinstance(got, str)
            assert got == outcome(max_closed_reference, bcs, orders)
            assert outcome(joins_from_orders, bcs, orders) == got

    def test_unhashable_join_value_leaves_the_domain(self):
        bcs = Bcs.create([("X", DOM2)])
        table = {(a, b): max(a, b) for a in DOM2 for b in DOM2}
        table[("x1", "x2")] = ["x2"]
        message = "join table for 'X' leaves the domain at ('x1', 'x2')"
        assert outcome(validate_join_family, bcs, {"X": table}) == message
        assert outcome(validate_join_reference, bcs, {"X": table}) == message

    def test_search_equals_the_rank_search(self):
        rng = random.Random(50)
        found = []
        for _ in range(400):
            bcs = random_bcs(rng, rng.randint(2, 4), 4)
            if rng.random() < 0.3:
                bcs = with_self_loop(rng, bcs)
            got = search_max_orders(bcs)
            assert got == search_max_orders_reference(bcs)
            found.append(got)
        assert sum(f is None for f in found) >= 30
        assert sum(f is not None for f in found) >= 300


class TestRankCheck:
    """The rank check against the label-level scan on domains of 6-20
    values, the sizes of the games-certified outcome sets."""

    def test_reports_equal_the_label_scan(self):
        rng = random.Random(51)
        reports, rows = [], []
        for _ in range(400):
            bcs, orders = random_ranked_bcs(rng)
            rows += [row for c in bcs.constraints for row in c.rows]
            for certificate in (orders, shuffled_orders(rng, bcs)):
                got = outcome(is_max_closed, bcs, certificate)
                assert got == outcome(max_closed_reference, bcs, certificate)
                assert outcome(is_join_closed, bcs, joins_from_orders(bcs, certificate)) == got
                reports.append(got)
        violated = [r for r in reports if not r.closed]
        assert len(violated) >= 200 and len(reports) - len(violated) >= 200
        assert sum(r.witness.source == r.witness.target for r in violated) >= 100
        assert rows.count(0) >= len(rows) // 2
        assert sum(row.bit_count() > 1 for row in rows) >= 500

    def test_non_chain_joins_equal_the_label_scan(self):
        rng = random.Random(52)
        reports = []
        for _ in range(300):
            bcs, orders = random_ranked_bcs(rng)
            joins = joins_from_orders(bcs, orders)
            dom, table = random_semilattice(rng, 6)
            x = rng.choice(bcs.variables).id
            bcs = Bcs(tuple(Variable(x, dom) if v.id == x else v for v in bcs.variables),
                      tuple(random_relation(rng, c.source, c.target, bcs, x, dom)
                            for c in bcs.constraints))
            joins[x] = table
            got = outcome(is_join_closed, bcs, joins)
            assert got == outcome(join_closed_reference, bcs, joins)
            reports.append(got)
        assert sum(not r.closed for r in reports) >= 50
        assert sum(r.closed for r in reports) >= 50


class TestPairScanCalls:
    """The pair scan runs only where the rank check cannot decide: on a
    violation, to name its witness, or on a semilattice that is no chain."""

    @pytest.fixture
    def scans(self, monkeypatch):
        calls = []
        scan = closedness._scan_closure

        def counted(constraints, tables):
            calls.append(1)
            return scan(constraints, tables)
        monkeypatch.setattr(closedness, "_scan_closure", counted)
        return calls

    def test_closed_chain_certificates_never_scan(self, scans):
        rng = random.Random(53)
        for _ in range(30):
            bcs, orders = random_max_closed_bcs(rng, rng.randint(2, 4), 6)
            assert is_max_closed(bcs, orders).closed
            assert is_join_closed(bcs, joins_from_orders(bcs, orders)).closed
            assert search_max_orders(bcs) is not None
        assert scans == []

    def test_a_violation_scans_once(self, scans):
        bcs, orders = crossing_bcs(), {"X": DOM2, "Y": DOMY}
        assert is_max_closed(bcs, orders) == max_closed_reference(bcs, orders)
        assert scans == [1]

    @pytest.mark.parametrize("pairs, closed", [
        ([("bot", "y1"), ("l", "y2"), ("top", "y2")], True),
        ([("l", "y1"), ("r", "y2")], False),
    ])
    def test_diamond_still_scans(self, scans, pairs, closed):
        dom = ("bot", "l", "r", "top")
        diamond = join_table_from_hasse(dom, [("bot", "l"), ("bot", "r"), ("l", "top"),
                                              ("r", "top")])
        bcs = Bcs.create([("D", dom), ("Y", DOMY)],
                         [Correspondence.from_pairs("D", "Y", dom, DOMY, pairs)])
        joins = {"D": diamond, "Y": joins_from_orders(bcs, {"D": dom, "Y": DOMY})["Y"]}
        got = is_join_closed(bcs, joins)
        assert got.closed is closed
        assert got == join_closed_reference(bcs, joins)
        assert scans


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

    def test_unhashable_edge_value_rejected(self):
        with pytest.raises(InputError, match=re.escape("edge (['a'], 'b') references values")):
            join_table_from_hasse(("a", "b"), [(["a"], "b")])

    def test_unhashable_domain_value_rejected(self):
        with pytest.raises(InputError, match=re.escape("unhashable label ['b'] in the domain")):
            join_table_from_hasse(("a", ["b"]), [])

    def test_equals_the_depth_first_compiler(self):
        rng = random.Random(47)
        outcomes = []
        for _ in range(3000):
            dom, edges = random_edge_list(rng)
            got = outcome(join_table_from_hasse, dom, edges)
            assert got == outcome(hasse_reference, dom, edges)
            outcomes.append((got, edges))
        tables = [edges for got, edges in outcomes if isinstance(got, dict)]
        assert len(tables) >= 800
        assert sum(a == b for edges in tables for a, b in edges) >= 100
        messages = [got for got, _ in outcomes if isinstance(got, str)]
        for kind in ("cycle", "least upper bound", "outside the domain"):
            assert sum(kind in m for m in messages) >= 50, kind


def outcome(function, *args):
    """The function's result, or the message of the input error it raised."""
    try:
        return function(*args)
    except InputError as exc:
        return str(exc)


def hasse_reference(domain, edges):
    """The compiler that `join_table_from_hasse` replaced: up-sets by
    depth-first search, then each least upper bound searched for among the
    common upper bounds."""
    dom = tuple(domain)
    known = set(dom)
    uppers = {a: {a} for a in dom}
    adj = {a: set() for a in dom}
    for lo, hi in edges:
        if lo not in known or hi not in known:
            raise InputError(f"edge ({lo!r}, {hi!r}) references values outside the domain")
        adj[lo].add(hi)
    for a in dom:
        stack = [a]
        while stack:
            cur = stack.pop()
            for nxt in adj[cur]:
                if nxt not in uppers[a]:
                    uppers[a].add(nxt)
                    stack.append(nxt)
    for a in dom:
        if a in uppers[a] - {a} or any(a in uppers[b] and b in uppers[a] for b in dom if b != a):
            raise InputError(f"the edge list contains a cycle through {a!r}")
    table = {}
    for a, b in itertools.product(dom, dom):
        common = uppers[a] & uppers[b]
        least = [c for c in common if all(d in uppers[c] for d in common)]
        if len(least) != 1:
            raise InputError(f"no unique least upper bound for ({a!r}, {b!r})")
        table[(a, b)] = least[0]
    return table


def validate_join_reference(bcs, joins):
    """The validation that `validate_join_family` replaced: the same axiom
    checks, with associativity scanned over every triple."""
    for v in bcs.variables:
        if v.id not in joins:
            raise InputError(f"no join operator supplied for variable {v.id!r}")
        table = joins[v.id]
        dom = v.domain
        for a, b in itertools.product(dom, dom):
            if (a, b) not in table:
                raise InputError(f"join table for {v.id!r} is missing the pair ({a!r}, {b!r})")
            if table[(a, b)] not in dom:
                raise InputError(f"join table for {v.id!r} leaves the domain at ({a!r}, {b!r})")
        for a in dom:
            if table[(a, a)] != a:
                raise InputError(f"idempotency fails for {v.id!r} at {a!r}")
        for a, b in itertools.combinations(dom, 2):
            if table[(a, b)] != table[(b, a)]:
                raise InputError(f"commutativity fails for {v.id!r} at ({a!r}, {b!r})")
        for a, b, c in itertools.product(dom, repeat=3):
            if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
                raise InputError(f"associativity fails for {v.id!r} at ({a!r}, {b!r}, {c!r})")


def check_orders_reference(bcs, orders):
    """The per-variable ranks that `closedness._check_orders` returned
    before it built max tables, with the same checks."""
    ranks = {}
    for v in bcs.variables:
        if v.id not in orders:
            raise InputError(f"no order supplied for variable {v.id!r}")
        order = tuple(orders[v.id])
        if len(order) != len(v.domain) or set(order) != set(v.domain):
            raise InputError(f"order for {v.id!r} is not a permutation of its domain")
        ranks[v.id] = {value: i for i, value in enumerate(order)}
    return ranks


def rank_max_reference(ranks):
    """The max operator of per-variable ranks, as the label scan's combine
    function; it reads `ranks` when called, not when made."""
    def vmax(var, a, b):
        return a if ranks[var][a] >= ranks[var][b] else b
    return vmax


def scan_closure_reference(constraints, combine):
    """The label-level scan that `closedness._scan_closure` replaced:
    `combine(var_id, a, b)` returns the least upper bound, and each join is
    looked up again by label."""
    for idx, c in constraints:
        pairs = c.pairs()
        for a in range(len(pairs)):
            for b in range(a + 1, len(pairs)):
                (x1, y1), (x2, y2) = pairs[a], pairs[b]
                top = (combine(c.source, x1, x2), combine(c.target, y1, y2))
                if not c.contains(*top):
                    return ClosednessReport(False, ClosednessWitness(
                        idx, c.source, c.target, pairs[a], pairs[b], top))
    return ClosednessReport(True)


def max_closed_reference(bcs, orders):
    vmax = rank_max_reference(check_orders_reference(bcs, orders))
    return scan_closure_reference(enumerate(bcs.constraints), vmax)


def join_closed_reference(bcs, joins):
    validate_join_reference(bcs, joins)
    return scan_closure_reference(enumerate(bcs.constraints),
                                  lambda var, a, b: joins[var][(a, b)])


def joins_from_orders_reference(bcs, orders):
    vmax = rank_max_reference(check_orders_reference(bcs, orders))
    return {v.id: {(a, b): vmax(v.id, a, b) for a, b in itertools.product(v.domain, v.domain)}
            for v in bcs.variables}


def search_max_orders_reference(bcs):
    """The order search over label permutations, with a ranks dict that the
    shared combine function reads as each permutation replaces an entry."""
    n = len(bcs.variables)
    by_last = {i: [] for i in range(n)}
    for idx, c in enumerate(bcs.constraints):
        by_last[max(bcs.index(c.source), bcs.index(c.target))].append((idx, c))
    ranks, chosen = {}, {}
    vmax = rank_max_reference(ranks)
    stack = [itertools.permutations(v.domain) for v in bcs.variables[:1]]
    while stack:
        i = len(stack) - 1
        var = bcs.variables[i]
        perm = next(stack[i], None)
        if perm is None:
            stack.pop()
            continue
        ranks[var.id] = {value: r for r, value in enumerate(perm)}
        chosen[var.id] = perm
        if scan_closure_reference(by_last[i], vmax).closed:
            if i + 1 == n:
                return dict(chosen)
            stack.append(itertools.permutations(bcs.variables[i + 1].domain))
    return {} if n == 0 else None


def with_one_bit_flipped(rng, bcs):
    """The structure with one random bit of one random constraint flipped."""
    if not bcs.constraints:
        return bcs
    constraints = list(bcs.constraints)
    k = rng.randrange(len(constraints))
    c = constraints[k]
    rows = list(c.rows)
    rows[rng.randrange(len(rows))] ^= 1 << rng.randrange(len(c.target_domain))
    constraints[k] = Correspondence(c.source, c.target, c.source_domain, c.target_domain,
                                    tuple(rows))
    return Bcs(bcs.variables, tuple(constraints))


def with_self_loop(rng, bcs):
    """The structure with a random self-loop constraint inserted at a random
    place."""
    v = rng.choice(bcs.variables)
    loop = Correspondence(v.id, v.id, v.domain, v.domain,
                          tuple(rng.getrandbits(len(v.domain)) for _ in v.domain))
    constraints = list(bcs.constraints)
    constraints.insert(rng.randrange(len(constraints) + 1), loop)
    return Bcs(bcs.variables, tuple(constraints))


def shuffled_orders(rng, bcs):
    return {v.id: tuple(rng.sample(v.domain, len(v.domain))) for v in bcs.variables}


def random_ranked_bcs(rng):
    """Two to four variables of 6-20 values with random orders, and
    relations that are max-closed under them: the pairwise maxima of up to
    six random pairs, so sparse, with empty rows. Some relations are
    self-loops, and some have one bit flipped."""
    variables = [Variable(f"X{i}", tuple(f"v{j}" for j in range(rng.randint(6, 20))))
                 for i in range(rng.randint(2, 4))]
    orders = {v.id: tuple(rng.sample(v.domain, len(v.domain))) for v in variables}
    rank = {v.id: {a: r for r, a in enumerate(orders[v.id])} for v in variables}
    constraints = []
    for _ in range(rng.randint(1, 5)):
        x, y = rng.choice(variables), rng.choice(variables)
        if rng.random() < 0.2:
            y = x
        pairs = [(rng.choice(x.domain), rng.choice(y.domain)) for _ in range(rng.randint(1, 6))]
        top = {(max(a1, a2, key=rank[x.id].get), max(b1, b2, key=rank[y.id].get))
               for a1, b1 in pairs for a2, b2 in pairs}
        c = Correspondence.from_pairs(x.id, y.id, x.domain, y.domain, top)
        if rng.random() < 0.15:
            rows = list(c.rows)
            rows[rng.randrange(len(rows))] ^= 1 << rng.randrange(len(y.domain))
            c = Correspondence(x.id, y.id, x.domain, y.domain, tuple(rows))
        constraints.append(c)
    return Bcs(tuple(variables), tuple(constraints)), orders


def random_relation(rng, source, target, bcs, x, dom):
    """A sparse random relation between two variables of `bcs`, where `x`
    now has the domain `dom`."""
    domain = {v.id: dom if v.id == x else v.domain for v in bcs.variables}
    pairs = [(rng.choice(domain[source]), rng.choice(domain[target]))
             for _ in range(rng.randint(0, 4))]
    return Correspondence.from_pairs(source, target, domain[source], domain[target], pairs)


def random_edge_list(rng):
    """A domain of up to seven values and an edge list over it: a random
    acyclic order, often with a top added, or arbitrary edges (cycles and
    self-loops), now and then with an edge leaving the domain."""
    dom = tuple(f"v{i}" for i in rng.sample(range(10), rng.randint(1, 7)))
    if rng.random() < 0.5:
        ranked = rng.sample(dom, len(dom))
        edges = [(a, b) for a, b in itertools.combinations(ranked, 2) if rng.random() < 0.4]
        if rng.random() < 0.5:
            edges += [(a, ranked[-1]) for a in ranked[:-1] if rng.random() < 0.7]
    else:
        edges = [(rng.choice(dom), rng.choice(dom)) for _ in range(rng.randint(0, 2 * len(dom)))]
    if rng.random() < 0.05:
        edges.append((rng.choice(dom), "outside"))
    rng.shuffle(edges)
    return dom, edges


def random_join_table(rng):
    """A random semilattice's table, mostly mutated: commutative rewrites
    of some joins, a one-sided rewrite, a missing pair, a value outside the
    domain, or a random commutative idempotent table."""
    dom, table = random_semilattice(rng, 6)
    table = dict(table)
    draw = rng.random()
    if draw < 0.6:
        for _ in range(rng.randint(1, 3)):
            a, b = rng.choice(dom), rng.choice(dom)
            table[(a, b)] = table[(b, a)] = rng.choice(dom)
    elif draw < 0.65:
        table[(rng.choice(dom), rng.choice(dom))] = rng.choice(dom)
    elif draw < 0.7:
        del table[(rng.choice(dom), rng.choice(dom))]
    elif draw < 0.75:
        table[(rng.choice(dom), rng.choice(dom))] = "outside"
    elif draw < 0.9:
        for a, b in itertools.combinations(dom, 2):
            table[(a, b)] = table[(b, a)] = rng.choice(dom)
    return dom, table


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
    """The candidate scan that `assumptions._classify` replaced:
    every candidate re-derived family by family, then each constraint
    compared with each candidate and its inverse in turn, the first match
    winning."""
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
                order = closedness._risk_order(top, safe)
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


def _record_reductions(monkeypatch):
    """Record each game whose one-round reduction is computed, not read from
    its cache: the game of every `games.dominated_actions` scan of player 0."""
    calls = []
    original = games_module.dominated_actions

    def recording(game, player):
        if player == 0:
            calls.append(game)
        return original(game, player)

    monkeypatch.setattr(games_module, "dominated_actions", recording)
    return calls


def _record_affine_keys(monkeypatch):
    """Record each game whose affine key is computed, not read from its cache."""
    calls = []
    derive = NormalFormGame.__dict__["_affine_key"].func

    def recording(game):
        calls.append(game)
        return derive(game)

    prop = functools.cached_property(recording)
    prop.__set_name__(NormalFormGame, "_affine_key")
    monkeypatch.setattr(NormalFormGame, "_affine_key", prop)
    return calls


def _each_reduced_once(reduced, games):
    """Whether every listed game is among the reduced ones and no game object
    was reduced twice."""
    ids = [id(g) for g in reduced]
    return len(set(ids)) == len(ids) and {id(g) for g in games} <= set(ids)


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
                    lambda gs, b: closedness._risk_orders_and_edges(
                        asm._classify(gs, b, asm._Searches())),
                    games, b)
                assert got == self.outcome(classify_reference, games, b)
                outcomes.append(got)
        # both answers and rejections, risk orders and isomorphism edges
        assert sum(isinstance(o, str) for o in outcomes) >= 20
        assert sum(isinstance(o, tuple) and bool(o[0]) for o in outcomes) >= 20
        assert sum(isinstance(o, tuple) and bool(o[1]) for o in outcomes) >= 20


def class_blocks_reference(game, searches):
    """The class grouping of a game's own order: outcome classes
    as profiles, each sorted by label, classes by their first label."""
    keys = closedness._orbit_classes(game, searches)
    blocks = {}
    for profile, key in keys.items():
        blocks.setdefault(key, []).append(profile)
    out = []
    for members in blocks.values():
        members.sort(key=game.profile_label)
        out.append(members)
    out.sort(key=lambda ms: game.profile_label(ms[0]))
    return out


def own_class_order_reference(game, searches):
    return tuple(game.profile_label(p) for block in class_blocks_reference(game, searches)
                 for p in block)


def transport_order_reference(src, dst, src_order, searches):
    """The transport that rescanned every profile per class: each class's
    members mapped through the first isomorphism, sorted by label."""
    isos = searches.isomorphisms(src, dst)
    if not isos:
        raise InputError(f"no isomorphism from {src.name!r} to {dst.name!r}")
    iso = isos[0]
    keys = closedness._orbit_classes(src, searches)
    seen, out = set(), []
    for label in src_order:
        key = keys[src.label_profile(label)]
        if key in seen:
            continue
        seen.add(key)
        members = sorted({iso.apply(p) for p, k in keys.items() if k == key},
                         key=dst.profile_label)
        out.extend(dst.profile_label(p) for p in members)
    return tuple(out)


def orders_reference(games, bcs, parents=None):
    """`orders_for_assumptions` as it walked each isomorphism component
    twice: a depth-first pass to collect the component, then a breadth-first
    pass from its decreasing-risk games, or from its first listed game.
    Each transport appends its (parent, game) names to `parents`, if given."""
    names = {g.name for g in games}
    if len(names) != len(games):
        raise InputError("duplicate game names")
    for v in bcs.variables:
        if v.id not in names:
            raise InputError(f"structure variable {v.id!r} is not one of the games")
    by_name = {g.name: g for g in games}
    for v in bcs.variables:
        if v.domain != by_name[v.id].outcome_labels():
            raise InputError(f"domain of {v.id!r} does not match the game's outcomes")
    searches = asm._Searches()
    risk_orders, iso_edges = closedness._risk_orders_and_edges(
        asm._classify(games, bcs, searches))
    orders = dict(risk_orders)
    reduced = [g for g in games if is_fully_reduced(g)]
    neighbors = {g.name: set() for g in reduced}
    for a, b in iso_edges:
        neighbors[a].add(b)
        neighbors[b].add(a)
    listed = [g.name for g in games]
    for g in reduced:
        if g.name in orders:
            continue
        component, frontier = {g.name}, [g.name]
        while frontier:
            cur = frontier.pop()
            for nxt in neighbors[cur]:
                if nxt not in component:
                    component.add(nxt)
                    frontier.append(nxt)
        seeds = sorted((n for n in component if n in orders), key=listed.index)
        if not seeds:
            rep = min(component, key=listed.index)
            orders[rep] = own_class_order_reference(by_name[rep], searches)
            seeds = [rep]
        queue = list(seeds)
        while queue:
            cur = queue.pop(0)
            for nxt in sorted(neighbors[cur], key=listed.index):
                if nxt not in orders:
                    orders[nxt] = transport_order_reference(by_name[cur], by_name[nxt],
                                                            orders[cur], searches)
                    queue.append(nxt)
                    if parents is not None:
                        parents.append((cur, nxt))
    for g in games:
        if g.name in orders:
            continue
        final = fully_reduce(g).final
        base = ()
        for other in games:
            if other.name != g.name and other.same_payoffs(final) and other.name in orders:
                base = orders[other.name]
                break
        kept = set(base)
        orders[g.name] = tuple(sorted(l for l in g.outcome_labels() if l not in kept)) + base
    return orders


class TestOrderPass:
    """The one breadth-first pass, the folded class order and the product
    transport against the component walk and the per-class rescans they
    replaced, on seeded 2- and 3-player sets."""

    @pytest.fixture(scope="class")
    def game_sets(self):
        rng = random.Random(62)
        return [small_game_set(rng, players, stag_hunt_pair())
                for players in (2, 3) for _ in range(20)]

    def test_class_orders_and_transports_equal_the_rescans(self, game_sets):
        transports = {2: 0, 3: 0}
        for games in game_sets:
            searches = asm._Searches()
            reduced = [g for g in games if is_fully_reduced(g)]
            for g in reduced:
                # a game's own class order is its identity transport
                assert closedness._transport_order(g, g, sorted(g.outcome_labels()),
                                                   searches) == \
                    own_class_order_reference(g, searches)
            for src, dst in itertools.product(reduced, repeat=2):
                order = own_class_order_reference(src, searches)
                # the transport may go through any isomorphism: try each first
                for iso in searches.isomorphisms(src, dst):
                    one = asm._Searches()
                    one._isomorphisms[(src.name, dst.name)] = [iso]
                    assert closedness._transport_order(src, dst, order, one) == \
                        transport_order_reference(src, dst, order, one)
                    transports[src.n_players] += 1
        assert min(transports.values()) >= 60, transports

    def test_orbits_equal_the_closure_of_the_images(self):
        # games whose payoffs depend only on the action differences mod m,
        # relabelled: shifting every player's actions is an automorphism of
        # order m, so one automorphism's images alone are not an orbit
        rng = random.Random(64)
        nontrivial = 0
        for k in range(60):
            players, m = rng.choice(((2, 3), (2, 4), (2, 5), (3, 3)))
            values = {}
            cyclic = NormalFormGame("G", tuple(tuple(f"p{i}a{a}" for a in range(m))
                                               for i in range(players)), {
                p: values.setdefault(tuple((q - p[0]) % m for q in p[1:]), tuple(
                    Fraction(rng.randint(0, 3)) for _ in range(players)))
                for p in itertools.product(range(m), repeat=players)})
            game = permuted_copy(rng, cyclic, f"G{k}")
            searches = asm._Searches()
            autos = searches.isomorphisms(game, game)
            orbits = []
            for i, acts in enumerate(game.actions):
                images = [1 << a for a in range(len(acts))]
                for auto in autos:
                    for a, image in enumerate(auto.maps[i]):
                        images[a] |= 1 << image
                orbits.append(_closure(images))
            assert closedness._orbit_classes(game, searches) == {
                p: tuple(orbits[i][a] for i, a in enumerate(p)) for p in game.profiles()}
            nontrivial += sum(any(row & row - 1 for row in rows) for rows in orbits)
        assert nontrivial >= 120

    def test_orders_equal_the_component_walk(self, game_sets):
        rng = random.Random(63)
        outcomes = []
        for games in game_sets:
            labelings = tuple(lab for g1, g2 in itertools.product(games, repeat=2)
                              for lab in asm.discover_risk_labelings(g1, g2))
            for selection in (
                    AssumptionSelection(dominance=True, isomorphism=True, nash=True,
                                        decreasing_risk=labelings),
                    AssumptionSelection(isomorphism=True),
                    AssumptionSelection(dominance=True, nash=True)):
                bcs = build_assumption_bcs(games, selection)
                x, y = rng.choice(bcs.variables), rng.choice(bcs.variables)
                foreign = Correspondence.from_pairs(x.id, y.id, x.domain, y.domain, [
                    (a, b) for a in x.domain for b in y.domain if rng.random() < 0.5])
                subsets = [Bcs(bcs.variables, tuple(
                    inverse(c) if rng.random() < 0.3 else c
                    for c in bcs.constraints if rng.random() < 0.6)) for _ in range(3)]
                for b in [bcs, bcs.with_constraints([foreign]),
                          Bcs(bcs.variables, tuple(inverse(c) for c in bcs.constraints)),
                          *subsets]:
                    got = outcome(orders_for_assumptions, games, b)
                    assert got == outcome(orders_reference, games, b)
                    outcomes.append(got)
        # both orders and rejections, the orders of sets with 3-player games too
        assert sum(isinstance(o, str) for o in outcomes) >= 60
        assert sum(isinstance(o, dict) for o in outcomes) >= 400
        assert sum(isinstance(o, dict) and "p2a0" in "".join(o.get("A", ()))
                   for o in outcomes) >= 150

    def test_each_game_keeps_its_parent(self, stag_pair, monkeypatch):
        # components of up to six copies of one game, with random isomorphism
        # edges and decreasing-risk self-loops: the parent a game is reached
        # from differs between breadth and depth first only from four games on
        rng = random.Random(64)
        parents = []
        original = closedness._transport_order

        def recording(src, dst, *args):
            if src is not dst:      # a root's own order is a transport to itself
                parents.append((src.name, dst.name))
            return original(src, dst, *args)

        monkeypatch.setattr(closedness, "_transport_order", recording)
        left, _, _ = stag_pair
        deep = 0
        for _ in range(60):
            base = rng.choice([left, small_game(rng, "A", 2), small_game(rng, "A", 3)])
            games = [permuted_copy(rng, base, f"X{k}") for k in range(rng.randint(4, 6))]
            bcs = build_assumption_bcs(games, AssumptionSelection(
                isomorphism=True, decreasing_risk=tuple(
                    lab for g in games if rng.random() < 0.4
                    for lab in asm.discover_risk_labelings(g, g))))
            bcs = Bcs(bcs.variables, tuple(c for c in bcs.constraints if rng.random() < 0.6))
            parents.clear()
            expected = []
            assert orders_for_assumptions(games, bcs) == orders_reference(games, bcs, expected)
            assert sorted(parents) == sorted(expected)
            deep += len(expected) >= 3
        assert deep >= 20


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
        games, selection = game_set
        reductions = _record_reductions(monkeypatch)
        # a copy without the attached derivation: classification searches
        built = build_assumption_bcs(games, selection)
        bcs = Bcs(built.variables, built.constraints)
        searches = _record_calls(monkeypatch, "find_isomorphisms", (asm,))
        orders = orders_for_assumptions(games, bcs)
        assert is_max_closed(bcs, orders).closed
        assert ("Gb", "Gc") in searches and ("Gb", "Gb") in searches
        assert len(searches) == len(set(searches))
        assert _each_reduced_once(reductions, games)

    def test_build_then_order_shares_one_memo(self, game_set, monkeypatch):
        games, selection = game_set
        searches = _record_calls(monkeypatch, "find_isomorphisms", (asm,))
        reductions = _record_reductions(monkeypatch)
        bcs = build_assumption_bcs(games, selection)
        orders = orders_for_assumptions(games, bcs)
        assert is_max_closed(bcs, orders).closed
        assert ("Gb", "Gc") in searches and ("Gb", "Gb") in searches
        assert len(searches) == len(set(searches))
        assert _each_reduced_once(reductions, games)

    def test_build_assumption_bcs(self, game_set, monkeypatch):
        games, selection = game_set
        reductions = _record_reductions(monkeypatch)
        build_assumption_bcs(games, selection)
        assert sorted(g.name for g in reductions) == sorted(g.name for g in games)
        assert _each_reduced_once(reductions, games)

    def test_games_keep_their_facts_across_calls(self, game_set, monkeypatch):
        games, selection = game_set
        reductions = _record_reductions(monkeypatch)
        keys = _record_affine_keys(monkeypatch)
        bcs = build_assumption_bcs(games, selection)
        orders = orders_for_assumptions(games, bcs)
        assert _each_reduced_once(reductions, games)
        # only fully reduced games are searched, and only their keys are needed
        assert sorted(g.name for g in keys) == sorted(g.name for g in games if is_fully_reduced(g))
        reductions.clear()
        keys.clear()
        # a second build, its attached derivation and the classified path
        again = build_assumption_bcs(games, selection)
        assert orders_for_assumptions(games, again) == orders
        assert orders_for_assumptions(games, Bcs(again.variables, again.constraints)) == orders
        assert again == bcs
        assert reductions == [] and keys == []

    def test_searches_only_key_equal_pairs(self, game_set, monkeypatch):
        games, selection = game_set
        by_name = {g.name: g for g in games}
        searches = _record_calls(monkeypatch, "find_isomorphisms", (asm,))
        orders_for_assumptions(games, build_assumption_bcs(games, selection))
        assert ("Gb", "Gc") in searches and ("Gc", "Gd") in searches
        for n1, n2 in searches:
            g1, g2 = by_name[n1], by_name[n2]
            assert g1.shape == g2.shape
            assert g1._affine_key[0] == g2._affine_key[0]

    def test_no_search_on_csp_encodings(self, monkeypatch):
        games = list(csp_to_si_games(montanari_instance()).games)
        searches = _record_calls(monkeypatch, "find_isomorphisms", (asm,))
        build_assumption_bcs(games, AssumptionSelection(dominance=True, isomorphism=True))
        assert searches == []
        # the encoding's variable games share shapes, so pairs were searched before
        assert sum(g1.shape == g2.shape for g1, g2 in itertools.combinations(games, 2)) >= 3

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


def derivation_cases(trio, stag_pair, coordination):
    """(games, selection) pairs: the memo fixture's set, 4x4 sets with a
    dominated row, random sets with decreasing-risk pairs under every family
    and under isomorphism-pair and Nash-game restrictions, and 3-player sets."""
    rng = random.Random(81)
    ga, gb, gc = trio
    left, right, labeling = stag_pair
    every = AssumptionSelection(dominance=True, isomorphism=True, nash=True)
    yield ([ga, gb, gc, affine_copy(random.Random(43), gc, "Gd"), left, right, coordination],
           AssumptionSelection(dominance=True, isomorphism=True, nash=True,
                               decreasing_risk=(labeling,)))

    def game(name, rows, cols):
        return NormalFormGame.two_player(
            name, [f"r{i}" for i in range(rows)], [f"c{j}" for j in range(cols)],
            [[(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(cols)] for _ in range(rows)])

    for _ in range(4):
        base = game("B", 4, 4)
        yield [base, affine_copy(rng, base, "C"), game("U", 4, 4),
               with_dominated_row(rng, base, "D")], every
    for _ in range(12):
        games, risk = random_game_set(rng, stag_pair)
        names = [g.name for g in games]
        yield games, AssumptionSelection(dominance=True, isomorphism=True, nash=True,
                                         decreasing_risk=risk)
        yield games, AssumptionSelection(
            isomorphism=True, nash=True, decreasing_risk=risk,
            isomorphism_pairs=tuple(p for p in itertools.combinations(names, 2)
                                    if rng.random() < 0.5),
            nash_games=tuple(n for n in names if rng.random() < 0.5))
    for _ in range(8):
        yield small_game_set(rng, 3), every


class TestAttachedDerivation:
    """Orders read from the derivation `build_assumption_bcs` attaches
    against orders from classifying the constraints again."""

    @pytest.fixture
    def cases(self, trio, stag_pair, coordination):
        return list(derivation_cases(trio, stag_pair, coordination))

    @pytest.fixture
    def classified(self, monkeypatch):
        """The structures `assumptions._classify` is called on."""
        calls = []
        original = asm._classify

        def recording(games, bcs, searches):
            calls.append(bcs)
            return original(games, bcs, searches)

        monkeypatch.setattr(asm, "_classify", recording)
        return calls

    def test_attached_orders_equal_classified_orders(self, cases, classified):
        families = collections.Counter()
        for games, selection in cases:
            bcs = build_assumption_bcs(games, selection)
            attached = orders_for_assumptions(games, bcs)
            assert classified == []
            plain = Bcs(bcs.variables, bcs.constraints)
            assert orders_for_assumptions(games, plain) == attached
            assert len(classified) == 1 and classified.pop() is plain
            assert tuple(asm._classify(games, plain, asm._Searches())) == \
                bcs._derivation.records
            classified.clear()
            for b in (bcs, plain):
                assert is_max_closed(b, attached).closed
                assert is_join_closed(b, joins_from_orders(b, attached)).closed
            families.update(kind for kind, _ in bcs._derivation.records)
        assert min(families[k] for k in ("dominance", "isomorphism", "nash", "risk")) >= 5

    def test_other_structures_and_game_lists_are_classified(self, cases, classified):
        games, selection = cases[0]
        bcs = build_assumption_bcs(games, selection)
        attached = orders_for_assumptions(games, bcs)
        loaded, _ = serialize.bcs_from_json(json.loads(serialize.dumps(serialize.bcs_to_json(bcs))))
        twins = [NormalFormGame(g.name, g.actions, g.utilities) for g in games]
        for gs, b in [(games, loaded), (games, bcs.with_constraints(())), (twins, bcs)]:
            assert orders_for_assumptions(gs, b) == attached
            assert len(classified) == 1 and classified.pop() is b
        orders = orders_for_assumptions(games[::-1], bcs)
        assert len(classified) == 1 and classified.pop() is bcs
        assert is_max_closed(bcs, orders).closed
        x, y = bcs.variables[0], bcs.variables[-1]
        foreign = Correspondence.full(x.id, y.id, x.domain, y.domain)
        with pytest.raises(InputError, match="was not generated by the assumption set"):
            orders_for_assumptions(games, bcs.with_constraints([foreign]))

    def test_derivation_is_not_part_of_the_structure(self, cases):
        for games, selection in cases:
            bcs = build_assumption_bcs(games, selection)
            plain = Bcs(bcs.variables, bcs.constraints)
            assert bcs == plain and hash(bcs) == hash(plain) and repr(bcs) == repr(plain)
            assert serialize.dumps(serialize.bcs_to_json(bcs)) == \
                serialize.dumps(serialize.bcs_to_json(plain))
