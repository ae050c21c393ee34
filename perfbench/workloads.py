"""The three workloads: seeded inputs, the timed calls into `oc_reason`, and
the untimed checks of what those calls returned.

Each workload builds a list of instances in `setup` and then runs, per
instance, one `prepare` operation and one SI query per decision mode. The
inputs depend only on the seed; the make-up of each pass (sizes, counts) is
fixed so that medians are comparable across seeds.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import oc_reason
from oc_reason import cli, serialize
from oc_reason import (
    AssumptionSelection,
    Bcs,
    Correspondence,
    DecisionMode,
    DecreasingRiskPair,
    NormalFormGame,
    Preference,
)

import checkers

MODES = ("exact", "propagation", "refutation")


def _query_kwargs(mode: str, orders, joins) -> dict:
    if mode == "propagation":
        return {"mode": DecisionMode.PROPAGATION, "orders": orders}
    if mode == "refutation":
        return {"mode": DecisionMode.REFUTATION, "joins": joins}
    return {"mode": DecisionMode.EXACT}


def _close_under_max(pairs: set, rank_x: dict, rank_y: dict) -> set:
    """Smallest superset closed under the coordinatewise maximum."""
    pairs = set(pairs)
    while True:
        new = set()
        for (a1, b1), (a2, b2) in itertools.combinations(sorted(pairs), 2):
            top = (a1 if rank_x[a1] >= rank_x[a2] else a2,
                   b1 if rank_y[b1] >= rank_y[b2] else b2)
            if top not in pairs:
                new.add(top)
        if not new:
            return pairs
        pairs |= new


# ---------------------------------------------------------------------------
# allpairs-maxclosed
# ---------------------------------------------------------------------------


class AllPairsMaxClosed:
    """Binary structures closed under per-variable max orders, each holding
    two or three planted solutions; one `find_any_si` per mode per structure.

    Utilities are non-decreasing along each variable's order, so the
    non-improvement relation is max-closed too and refutation is complete as
    well as propagation: all three modes must return the same pair set.
    """

    name = "allpairs-maxclosed"
    # variables per structure, one pass; most share one size, so that the
    # median query falls among structures of the same size on every seed
    SIZES = (9, 9, 8, 9, 9, 10, 9) * 3 + (9,)
    DOMAIN_SIZES = (2, 3, 4, 5)         # cycled over the variables, then shuffled
    DENSITY = 0.8      # share of variable pairs that get a constraint
    EXTRA_PAIRS = 0.3  # share of value pairs added beyond the planted ones
    PLANTED = 3
    UTILITY_MAX = 19

    def setup(self, seed: int, work_dir: Path) -> list[dict]:
        rng = random.Random(f"{self.name}/{seed}")
        return [self._structure(rng, n) for n in self.SIZES]

    def _structure(self, rng: random.Random, n: int) -> dict:
        names = [f"X{i + 1}" for i in range(n)]
        sizes = [self.DOMAIN_SIZES[i % len(self.DOMAIN_SIZES)] for i in range(n)]
        rng.shuffle(sizes)
        domains = {x: tuple(f"v{j + 1}" for j in range(k)) for x, k in zip(names, sizes)}
        orders = {}
        for x in names:
            order = list(domains[x])
            rng.shuffle(order)
            orders[x] = tuple(order)
        rank = {x: {v: i for i, v in enumerate(orders[x])} for x in names}
        planted = [{x: rng.choice(domains[x]) for x in names} for _ in range(self.PLANTED)]
        raw = []
        var_pairs = list(itertools.combinations(names, 2))
        for a, b in sorted(rng.sample(var_pairs, round(self.DENSITY * len(var_pairs)))):
            pairs = {(s[a], s[b]) for s in planted}
            value_pairs = list(itertools.product(domains[a], domains[b]))
            pairs |= set(rng.sample(value_pairs, round(self.EXTRA_PAIRS * len(value_pairs))))
            raw.append((a, b, _close_under_max(pairs, rank[a], rank[b])))
        utility = {}
        for x in names:
            values = sorted(rng.randint(0, self.UTILITY_MAX) for _ in domains[x])
            utility.update({(x, v): u for v, u in zip(orders[x], values)})

        bcs = Bcs.create([(x, domains[x]) for x in names], [
            Correspondence.from_pairs(a, b, domains[a], domains[b], sorted(pairs))
            for a, b, pairs in raw])
        pref = Preference.from_relation(domains, lambda p, q: utility[p] >= utility[q])
        return {"label": f"structure n={n}", "n": n, "raw": checkers.Structure(names, domains, raw),
                "orders": orders, "utility": utility, "bcs": bcs, "pref": pref}

    def prepare(self, inst: dict):
        """Verify the order certificate, derive the join certificate from it
        and verify that too; the queries are given both."""
        bcs, orders = inst["bcs"], inst["orders"]
        max_report = oc_reason.is_max_closed(bcs, orders)
        joins = oc_reason.joins_from_orders(bcs, orders)
        return max_report, joins, oc_reason.is_join_closed(bcs, joins)

    def query(self, inst: dict, prepared, mode: str):
        return oc_reason.find_any_si(inst["bcs"], inst["pref"],
                                     **_query_kwargs(mode, inst["orders"], prepared[1]))

    def pairs_decided(self, inst: dict) -> int:
        return inst["n"] * (inst["n"] - 1)

    def observe(self, inst: dict, kind: str, output):
        return output

    def yes_pairs(self, output) -> int:
        return len(output)

    def summary(self, kind: str, output):
        if kind == "prepare":
            return output[0].closed, output[2].closed
        return tuple(map(tuple, output))

    def check(self, inst: dict, prepared, outputs: dict) -> list[str]:
        label = inst["label"]
        problems = checkers.max_closed_problems(label, inst["raw"], inst["orders"])
        if not (prepared[0].closed and prepared[2].closed):
            problems.append(f"{label}: the package rejects a valid certificate")
        sols = checkers.solutions(inst["raw"])
        utility = inst["utility"]
        expected = checkers.safe_improvements(
            inst["raw"].variables, sols,
            lambda y, b, x, a: utility[(y, b)] >= utility[(x, a)])
        for mode in MODES:
            problems += checkers.compare_pair_sets(f"{label} {mode}", expected, outputs[mode])
        return problems


# ---------------------------------------------------------------------------
# games-certified
# ---------------------------------------------------------------------------


def _fully_reduced(payoffs: dict, shape) -> bool:
    """No action of either player is strictly dominated by another."""
    rows, cols = shape
    for player, (own, other) in enumerate(((rows, cols), (cols, rows))):
        def u(a, b):
            return payoffs[(a, b) if player == 0 else (b, a)][player]
        for a, a2 in itertools.permutations(range(own), 2):
            if all(u(a2, b) > u(a, b) for b in range(other)):
                return False
    return True


def _pure_equilibria(payoffs: dict, shape) -> int:
    """Number of pure Nash equilibria of a two-player game."""
    rows, cols = shape
    return sum(all(payoffs[(r, c)][0] >= payoffs[(r2, c)][0] for r2 in range(rows)) and
               all(payoffs[(r, c)][1] >= payoffs[(r, c2)][1] for c2 in range(cols))
               for r in range(rows) for c in range(cols))


class GamesCertified:
    """Sets of seven two-player games around a fully reduced 4x4 base with
    two pure equilibria: two action-permuted, affinely rescaled copies, a
    variant with a strictly dominated extra row, an unrelated 4x4 game with
    one pure equilibrium and a stag-hunt pair with its decreasing-risk
    labeling. Per set: build the assumption structure, derive and verify
    certifying orders, then `find_any_si` per mode."""

    name = "games-certified"
    SETS = 17          # sets per pass
    PAYOFF_MAX = 9

    def setup(self, seed: int, work_dir: Path) -> list[dict]:
        rng = random.Random(f"{self.name}/{seed}")
        return [self._set(rng, k) for k in range(self.SETS)]

    def _random_4x4(self, rng):
        return {(r, c): (Fraction(rng.randint(0, self.PAYOFF_MAX)),
                         Fraction(rng.randint(0, self.PAYOFF_MAX)))
                for r in range(4) for c in range(4)}

    def _set(self, rng: random.Random, k: int) -> dict:
        games: dict[str, tuple] = {}   # name -> (row labels, column labels, payoffs by index)
        # Fixed equilibrium counts keep the sets alike: propagation over a
        # base without a pure equilibrium takes two to three times longer.
        base = self._random_4x4(rng)
        while not (_fully_reduced(base, (4, 4)) and _pure_equilibria(base, (4, 4)) == 2):
            base = self._random_4x4(rng)
        rows, cols = tuple(f"r{i}" for i in range(4)), tuple(f"c{i}" for i in range(4))
        games["B"] = (rows, cols, base)

        copies = {}
        for c in range(2):
            maps = (tuple(rng.sample(range(4), 4)), tuple(rng.sample(range(4), 4)))
            scales = tuple(Fraction(rng.choice((1, 2, 3))) / rng.choice((1, 2)) for _ in range(2))
            shifts = tuple(Fraction(rng.randint(-4, 4)) for _ in range(2))
            payoffs = {}
            for (r, col), vector in base.items():
                payoffs[(maps[0][r], maps[1][col])] = tuple(
                    (vector[i] - shifts[i]) / scales[i] for i in range(2))
            name = f"C{c + 1}"
            games[name] = (tuple(f"{a}x{c + 1}" for a in rows),
                           tuple(f"{a}x{c + 1}" for a in cols), payoffs)
            copies[name] = maps

        at = rng.randint(0, 4)
        dom_rows = rows[:at] + ("rd",) + rows[at:]
        dominated = {}
        for r, label in enumerate(dom_rows):
            for col in range(4):
                if label == "rd":
                    dominated[(r, col)] = (base[(0, col)][0] - rng.randint(1, 3),
                                           Fraction(rng.randint(0, self.PAYOFF_MAX)))
                else:
                    dominated[(r, col)] = base[(rows.index(label), col)]
        games["D"] = (dom_rows, cols, dominated)
        unrelated = self._random_4x4(rng)
        while _pure_equilibria(unrelated, (4, 4)) != 1:
            unrelated = self._random_4x4(rng)
        games["U"] = (rows, cols, unrelated)

        left, right = self._stag_hunt_pair(rng)
        games["SL"] = (("H", "L"), ("H", "L"), left)
        games["SR"] = (("H", "L"), ("H", "L"), right)
        labeling = DecreasingRiskPair("SL", "SR", ("H", "H"), ("L", "L"), ("H", "H"), ("L", "L"))

        objects = [NormalFormGame.two_player(
            name, r, c, [[payoffs[(i, j)] for j in range(len(c))] for i in range(len(r))])
            for name, (r, c, payoffs) in games.items()]
        return {"label": f"game set {k}", "games": games, "copies": copies, "objects": objects,
                "selection": AssumptionSelection(dominance=True, isomorphism=True, nash=True,
                                                 decreasing_risk=(labeling,)),
                "pref": oc_reason.pareto_preference(objects)}

    def _stag_hunt_pair(self, rng):
        """Two 2x2 coordination games with strict equilibria (H,H) above
        (L,L); from left to right the H payoffs only rise and the L payoffs
        only fall, so the decreasing-risk assumption applies."""
        left, right = {}, {}
        for p in range(2):
            d = rng.randint(3, 6)
            a = d + rng.randint(1, 3)
            c = rng.randint(0, a - 1)      # L against H
            b = rng.randint(0, d - 1)      # H against L
            lift = rng.randint(0, 1) if b + 1 < d else 0
            drop = rng.randint(0, 1) if b + lift < d - 1 else 0
            values_left = {"HH": a, "HL": b, "LH": c, "LL": d}
            values_right = {"HH": a + rng.randint(0, 2), "HL": b + lift,
                            "LH": c - rng.randint(0, 2), "LL": d - drop}
            for own, other in itertools.product(range(2), repeat=2):
                profile = (own, other) if p == 0 else (other, own)
                key = "HL"[own] + "HL"[other]
                left.setdefault(profile, [0, 0])[p] = Fraction(values_left[key])
                right.setdefault(profile, [0, 0])[p] = Fraction(values_right[key])
        return ({k: tuple(v) for k, v in left.items()}, {k: tuple(v) for k, v in right.items()})

    def prepare(self, inst: dict):
        """Build the assumption structure, derive certifying orders and
        verify them; the join certificate follows from the orders."""
        bcs = oc_reason.build_assumption_bcs(inst["objects"], inst["selection"])
        orders = oc_reason.orders_for_assumptions(inst["objects"], bcs)
        report = oc_reason.is_max_closed(bcs, orders)
        return bcs, orders, oc_reason.joins_from_orders(bcs, orders), report

    def query(self, inst: dict, prepared, mode: str):
        bcs, orders, joins, _ = prepared
        return oc_reason.find_any_si(bcs, inst["pref"], **_query_kwargs(mode, orders, joins))

    def pairs_decided(self, inst: dict) -> int:
        n = len(inst["games"])
        return n * (n - 1)

    def observe(self, inst: dict, kind: str, output):
        return output

    def yes_pairs(self, output) -> int:
        return len(output)

    def summary(self, kind: str, output):
        if kind == "prepare":
            bcs, orders, _, report = output
            return (json.dumps(serialize.bcs_to_json(bcs), sort_keys=True),
                    tuple(sorted(orders.items())), report.closed)
        return tuple(map(tuple, output))

    def check(self, inst: dict, prepared, outputs: dict) -> list[str]:
        label = inst["label"]
        games = inst["games"]
        bcs, orders, _, report = prepared
        outcome_payoffs = {name: {f"{r[i]},{c[j]}": payoffs[(i, j)] for (i, j) in payoffs}
                           for name, (r, c, payoffs) in games.items()}
        problems = []
        for v in bcs.variables:
            if set(v.domain) != set(outcome_payoffs.get(v.id, ())):
                problems.append(f"{label}: domain of {v.id} is not its game's outcomes")
        if problems:
            return problems
        structure = checkers.Structure(
            [v.id for v in bcs.variables], {v.id: v.domain for v in bcs.variables},
            [(c.source, c.target, set(c.pairs())) for c in bcs.constraints])
        problems += checkers.max_closed_problems(f"{label} certificate", structure, orders)
        if not report.closed:
            problems.append(f"{label}: the package rejects its own certificate")

        def pair_sets(x, y):
            return [pairs if (a, b) == (x, y) else {(q, p) for p, q in pairs}
                    for a, b, pairs in structure.constraints if {a, b} == {x, y}]

        rows, cols, base = games["B"]
        for name, maps in inst["copies"].items():
            planted = {(f"{rows[r]},{cols[c]}",
                        f"{games[name][0][maps[0][r]]},{games[name][1][maps[1][c]]}")
                       for r in range(4) for c in range(4)}
            if not any(planted <= pairs for pairs in pair_sets("B", name)):
                problems.append(f"{label}: no isomorphism constraint B->{name} holds the planted map")
            isos = oc_reason.find_isomorphisms(inst["objects"][0], inst["objects"][
                list(games).index(name)])
            if not any(iso.maps == maps for iso in isos):
                problems.append(f"{label}: find_isomorphisms(B, {name}) misses the planted map")
            for j, iso in enumerate(isos):
                problems += checkers.isomorphism_problems(
                    f"{label} B->{name} #{j}", base, games[name][2], (4, 4),
                    iso.maps, iso.scales, iso.shifts)
        identity = {(f"{rows[r]},{cols[c]}",) * 2 for r in range(4) for c in range(4)}
        if not any(pairs == identity for pairs in pair_sets("D", "B")):
            problems.append(f"{label}: no dominance constraint D->B")

        def geq(y, b, x, a):
            return all(u >= w for u, w in zip(outcome_payoffs[y][b], outcome_payoffs[x][a]))

        expected = checkers.safe_improvements(structure.variables,
                                              checkers.solutions(structure), geq)
        for mode in MODES:
            problems += checkers.compare_pair_sets(f"{label} {mode}", expected, outputs[mode])
        return problems


# ---------------------------------------------------------------------------
# csp-encoded
# ---------------------------------------------------------------------------


class CspEncoded:
    """Random binary CSPs (domain 3, 12-20 variables) near the
    satisfiability threshold. Per instance: encode the source as games with
    `csp_to_si_games` (the paper's hardness reduction) and serialize the
    games and structure to JSON text, as `oc-reason gen csp-to-si` does;
    then one in-process `oc-reason check-si G Gp --pref pareto` per mode on
    the written files."""

    name = "csp-encoded"
    SIZES = tuple(range(12, 21)) * 3    # CSP variables, one pass
    CONSTRAINTS_PER_VAR = 2.3    # with 3 of 9 value pairs forbidden: about half satisfiable
    FORBIDDEN = 3
    DOMAIN = ("a", "b", "c")

    def setup(self, seed: int, work_dir: Path) -> list[dict]:
        rng = random.Random(f"{self.name}/{seed}")
        out = []
        all_pairs = [(x, y) for x in self.DOMAIN for y in self.DOMAIN]
        for k, n in enumerate(self.SIZES):
            names = [f"Z{i + 1}" for i in range(n)]
            raw = []
            for a, b in rng.sample(list(itertools.combinations(names, 2)),
                                   round(self.CONSTRAINTS_PER_VAR * n)):
                forbidden = set(rng.sample(all_pairs, self.FORBIDDEN))
                raw.append((a, b, {p for p in all_pairs if p not in forbidden}))
            source = Bcs.create([(x, self.DOMAIN) for x in names], [
                Correspondence.from_pairs(a, b, self.DOMAIN, self.DOMAIN, sorted(pairs))
                for a, b, pairs in raw])
            out.append({"label": f"csp n={n} #{k}", "source": source,
                        "dir": None if work_dir is None else work_dir / f"instance{k}",
                        "raw": checkers.Structure(names, {x: self.DOMAIN for x in names}, raw)})
        return out

    def prepare(self, inst: dict) -> dict[str, str]:
        """The encoding's files, by relative path, as JSON text."""
        encoding = oc_reason.csp_to_si_games(inst["source"])
        refs = {g.name: f"games/{g.name}.json" for g in encoding.games}
        docs = {refs[g.name]: serialize.dumps(serialize.game_to_json(g)) for g in encoding.games}
        docs["csp_si_bcs.json"] = serialize.dumps(serialize.bcs_to_json(encoding.bcs, games=refs))
        return docs

    def query(self, inst: dict, prepared, mode: str):
        d = inst["dir"]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["--json", str(d / "check.json"), "check-si",
                             str(d / "csp_si_bcs.json"), "G", "Gp",
                             "--pref", "pareto", "--mode", mode])

    def pairs_decided(self, inst: dict) -> int:
        return 1

    def yes_pairs(self, output) -> int:
        return int(output[1].get("verdict") == "yes")

    def observe(self, inst: dict, kind: str, output):
        """Write the encoding's files the first time (untimed); pair a
        query's exit code with the JSON report it wrote."""
        d = inst["dir"]
        if kind == "prepare":
            if not (d / "csp_si_bcs.json").exists():
                (d / "games").mkdir(parents=True, exist_ok=True)
                for rel, text in output.items():
                    (d / rel).write_text(text, encoding="utf-8")
            return output
        return output, json.loads((d / "check.json").read_text(encoding="utf-8"))

    def summary(self, kind: str, output):
        if kind == "prepare":
            return tuple(sorted(output.items()))
        code, report = output
        return code, report.get("verdict")

    def check(self, inst: dict, prepared, outputs: dict) -> list[str]:
        label = inst["label"]
        unsatisfiable = not checkers.solutions(inst["raw"], limit=1)
        problems = []
        for mode in MODES:
            code, report = outputs[mode]
            problems += checkers.cli_problems(f"{label} {mode}", code, report, mode, unsatisfiable)
        return problems


WORKLOADS = {w.name: w for w in (AllPairsMaxClosed(), GamesCertified(), CspEncoded())}
