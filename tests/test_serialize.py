"""JSON formats: round trips and validation."""

from fractions import Fraction

import pytest

from oc_reason import (
    AssumptionSelection,
    InputError,
    build_assumption_bcs,
    csp_to_si_games,
    join_incompleteness_instance,
    montanari_instance,
)
from oc_reason import serialize
from oc_reason.fixtures import chicken_trio, stag_hunt_pair


class TestGameFormat:
    def test_round_trip(self, trio):
        for g in trio:
            obj = serialize.game_to_json(g)
            back = serialize.game_from_json(obj)
            assert back.same_payoffs(g) and back.name == g.name
            assert serialize.dumps(serialize.game_to_json(back)) == serialize.dumps(obj)

    def test_fractional_payoffs(self):
        from oc_reason import NormalFormGame
        g = NormalFormGame.two_player("g", ("a",), ("b",), [[("1/3", "-2/7")]])
        obj = serialize.game_to_json(g)
        assert obj["utilities"]["a,b"] == ["1/3", "-2/7"]
        assert serialize.game_from_json(obj).payoff((0, 0)) == (Fraction(1, 3), Fraction(-2, 7))

    def test_name_from_filename(self, tmp_path):
        ga, _, _ = chicken_trio()
        obj = serialize.game_to_json(ga)
        del obj["name"]
        path = tmp_path / "renamed.json"
        serialize.write_json(path, obj)
        assert serialize.load_game(path).name == "renamed"

    def test_missing_keys(self):
        with pytest.raises(InputError):
            serialize.game_from_json({"players": 2}, name="g")


class TestBcsFormat:
    def test_round_trip_montanari(self):
        k4 = montanari_instance()
        obj = serialize.bcs_to_json(k4)
        back, games = serialize.bcs_from_json(obj)
        assert games == {}
        assert [(v.id, v.domain) for v in back.variables] == \
            [(v.id, v.domain) for v in k4.variables]
        assert [(c.source, c.target, c.rows) for c in back.constraints] == \
            [(c.source, c.target, c.rows) for c in k4.constraints]
        assert serialize.dumps(serialize.bcs_to_json(back)) == serialize.dumps(obj)

    def test_round_trip_hardness_instance(self):
        inst = csp_to_si_games(montanari_instance())
        obj = serialize.bcs_to_json(
            inst.bcs, games={g.name: serialize.game_to_json(g) for g in inst.games})
        back, games = serialize.bcs_from_json(obj)
        assert set(games) == {g.name for g in inst.games}
        for g in inst.games:
            assert games[g.name].same_payoffs(g)
        assert serialize.dumps(serialize.bcs_to_json(
            back, games={n: serialize.game_to_json(g) for n, g in games.items()}
        )) == serialize.dumps(obj)

    def test_game_file_references(self, tmp_path):
        ga, gb, gc = chicken_trio()
        for g in (ga, gb, gc):
            serialize.write_json(tmp_path / f"{g.name}.json", serialize.game_to_json(g))
        bcs = build_assumption_bcs([ga, gb, gc],
                                   AssumptionSelection(dominance=True, isomorphism=True))
        obj = serialize.bcs_to_json(bcs, games={g.name: f"{g.name}.json"
                                                for g in (ga, gb, gc)})
        serialize.write_json(tmp_path / "trio.json", obj)
        back, games = serialize.load_bcs(tmp_path / "trio.json")
        assert games["Ga"].same_payoffs(ga)
        assert len(back.constraints) == 2

    def test_round_trip_join_incompleteness(self):
        bcs, _ = join_incompleteness_instance()
        obj = serialize.bcs_to_json(bcs)
        back, _ = serialize.bcs_from_json(obj)
        assert serialize.dumps(serialize.bcs_to_json(back)) == serialize.dumps(obj)

    def test_unknown_constraint_variable(self):
        with pytest.raises(InputError):
            serialize.bcs_from_json({
                "variables": [{"id": "X", "domain": ["a"]}],
                "constraints": [{"x": "X", "y": "Y", "pairs": []}]})

    def test_parse_error_carries_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json", encoding="utf-8")
        with pytest.raises(InputError, match="line 1"):
            serialize.read_json(path)

    def test_text_that_is_not_utf_8_names_the_file(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\x7fELF\x02\xff")
        with pytest.raises(InputError, match="binary.json: not UTF-8 text"):
            serialize.read_json(path)


class TestOrdersAndSemilattices:
    def test_orders_round_trip(self):
        orders = {"X": ("x2", "x1"), "Y": ("y1", "y2")}
        obj = serialize.orders_to_json(orders)
        assert serialize.orders_from_json(obj) == orders

    def test_semilattice_compilation_matches_instance(self):
        bcs, joins = join_incompleteness_instance()
        hasse = {
            "X": [("x2", "x1")],
            "Y": [("y2", "y1")],
            "Z": [("z4", "z2"), ("z4", "z3"), ("z2", "z1"), ("z3", "z1")],
            "W": [("w2", "w1"), ("w3", "w1"), ("w4", "w1"), ("w5", "w2"),
                  ("w6", "w2"), ("w6", "w3"), ("w7", "w3"), ("w7", "w4"), ("w5", "w4")],
        }
        compiled = serialize.semilattices_from_json(
            serialize.semilattices_to_json(hasse), bcs)
        assert compiled == joins


class TestPreferenceFormat:
    def test_pareto_needs_games(self):
        k4 = montanari_instance()
        with pytest.raises(InputError, match="need game payoffs"):
            serialize.preference_from_json({"kind": "pareto"}, k4, {})

    def test_player_is_one_based(self, trio):
        ga, gb, gc = trio
        bcs = build_assumption_bcs([ga, gb, gc],
                                   AssumptionSelection(dominance=True, isomorphism=True))
        games = {g.name: g for g in (ga, gb, gc)}
        pref = serialize.preference_from_json({"kind": "player", "player": 2}, bcs, games)
        assert pref.gt(("Gb", "C,D"), ("Gb", "D,D"))

    def test_explicit(self):
        k4 = montanari_instance()
        pref = serialize.preference_from_json(
            {"kind": "explicit", "geq": [[["X1", "1"], ["X2", "2"]]]}, k4, {})
        assert pref.geq(("X1", "1"), ("X2", "2"))
        assert not pref.geq(("X2", "2"), ("X1", "1"))

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            serialize.preference_from_json({"kind": "???"}, montanari_instance(), {})


class TestSelectionFormat:
    def test_full_selection(self):
        _, _, labeling = stag_hunt_pair()
        obj = {
            "dominance": True, "isomorphism": True, "nash": False,
            "decreasing_risk": [{
                "g1": "GL", "g2": "GR",
                "a1": [["aH", "aH"], ["aH", "aH"]],
                "a2": [["aL", "aL"], ["aL", "aL"]],
            }],
        }
        sel = serialize.selection_from_json(obj)
        assert sel.dominance and sel.isomorphism and not sel.nash
        assert sel.decreasing_risk == (labeling,)

    def test_restrictions_round_trip_through_assume(self, tmp_path, monkeypatch):
        from oc_reason.cli import main
        games = list(chicken_trio())
        obj = {"dominance": True, "isomorphism": True, "nash": True,
               "dominance_games": ["Gb"], "isomorphism_pairs": [["Gc", "Gb"]],
               "nash_games": ["Gc", "Ga"]}
        selection = AssumptionSelection(
            dominance=True, isomorphism=True, nash=True, dominance_games=("Gb",),
            isomorphism_pairs=(("Gc", "Gb"),), nash_games=("Gc", "Ga"))
        assert serialize.selection_from_json(obj) == selection
        monkeypatch.chdir(tmp_path)
        for g in games:
            serialize.write_json(f"{g.name}.json", serialize.game_to_json(g))
        serialize.write_json("sel.json", obj)
        assert main(["assume", *(f"{g.name}.json" for g in games),
                     "--selection", "sel.json", "--out", "out.json"]) == 0
        built, _ = serialize.load_bcs("out.json")
        assert built == build_assumption_bcs(games, selection)
        # Ga's dominance constraint and Gb's Nash self-loop are left out
        assert [(c.source, c.target) for c in built.constraints] == \
            [("Gb", "Gc"), ("Ga", "Ga"), ("Gc", "Gc")]


PAIR_BCS = {"variables": [{"id": "X", "domain": ["a", "b"]}, {"id": "Y", "domain": ["a", "b"]}],
            "constraints": []}
ONE_GAME = {"name": "G", "players": 2, "actions": [["a"], ["a"]], "utilities": {"a,a": [1, 1]}}
COORDINATION = {"name": "G", "players": 2, "actions": [["h", "l"], ["h", "l"]],
                "utilities": {"h,h": [2, 2], "h,l": [0, 1], "l,h": [1, 0], "l,l": [1, 1]}}
COORDINATION_BCS = {
    "variables": [{"id": x, "domain": ["h,h", "h,l", "l,h", "l,l"]} for x in ("X", "Y")],
    "constraints": [], "games": {x: {**COORDINATION, "name": x} for x in ("X", "Y")}}


@pytest.mark.parametrize("files, argv", [
    pytest.param({"bcs.json": {"variables": [{"domain": ["a"]}]}},
                 ["solve", "bcs.json"], id="variable-without-id"),
    pytest.param({"bcs.json": {**PAIR_BCS, "constraints": [
                     {"x": "X", "y": "Y", "pairs": [["a"]]}]}},
                 ["solve", "bcs.json"], id="one-element-constraint-pair"),
    pytest.param({"bcs.json": PAIR_BCS, "joins.json": {"semilattices": {"X": {}}}},
                 ["closedness", "bcs.json", "--joins", "joins.json"],
                 id="semilattice-without-edges"),
    pytest.param({"g.json": ONE_GAME, "sel.json": {"decreasing_risk": [
                     {"g1": "G", "g2": "G", "a2": [["a", "a"], ["a", "a"]]}]}},
                 ["assume", "g.json", "--selection", "sel.json", "--out", "out.json"],
                 id="selection-without-a1"),
    pytest.param({"bcs.json": PAIR_BCS, "pref.json": {"kind": "explicit", "geq": [[["X", "a"]]]}},
                 ["check-si", "bcs.json", "X", "Y", "--pref", "@pref.json"],
                 id="explicit-preference-entry-not-two-outcomes"),
    pytest.param({"bcs.json": PAIR_BCS, "orders.json": {"orders": 5}},
                 ["closedness", "bcs.json", "--orders", "orders.json"], id="orders-not-a-map"),
    pytest.param({"bcs.json": PAIR_BCS, "orders.json": {"orders": {"X": ["a", "b"], "Y": ["b", 5]}}},
                 ["closedness", "bcs.json", "--orders", "orders.json"],
                 id="order-value-of-another-type"),
    pytest.param({"g.json": {**ONE_GAME, "utilities": {"a,a": [[1, 0], 1]}}},
                 ["assume", "g.json", "--out", "out.json"], id="zero-denominator-payoff"),
    pytest.param({"bcs.json": {"variables": [{"id": "X", "domain": 5}]}},
                 ["solve", "bcs.json"], id="domain-not-a-list"),
    pytest.param({"bcs.json": {**PAIR_BCS, "constraints": 5}},
                 ["solve", "bcs.json"], id="constraints-not-a-list"),
    pytest.param({"bcs.json": PAIR_BCS, "joins.json": {"semilattices": 5}},
                 ["closedness", "bcs.json", "--joins", "joins.json"],
                 id="semilattices-not-an-object"),
    pytest.param({"g.json": {**ONE_GAME, "utilities": [[1, 1]]}},
                 ["assume", "g.json", "--nash", "--out", "out.json"], id="utilities-as-a-list"),
    pytest.param({"bcs.json": PAIR_BCS,
                  "pref.json": {"kind": "explicit", "geq": [[["X", ["a"]], ["Y", "a"]]]}},
                 ["check-si", "bcs.json", "X", "Y", "--pref", "@pref.json"],
                 id="explicit-preference-outcome-a-list"),
    pytest.param({"bcs.json": PAIR_BCS},
                 ["check-si", "bcs.json", "X", "Y", "--pref", "player:x"],
                 id="player-preference-index-not-a-number"),
    pytest.param({"g.json": ONE_GAME, "sel.json": {"nash": True, "nash_games": "G"}},
                 ["assume", "g.json", "--selection", "sel.json", "--out", "out.json"],
                 id="selection-restriction-not-a-list"),
    pytest.param({"g.json": ONE_GAME,
                  "sel.json": {"isomorphism": True, "isomorphism_pairs": [["G"]]}},
                 ["assume", "g.json", "--selection", "sel.json", "--out", "out.json"],
                 id="selection-pair-not-two-games"),
    pytest.param({"g.json": ONE_GAME, "sel.json": {"dominance": True, "dominance_games": ["nope"]}},
                 ["assume", "g.json", "--selection", "sel.json", "--out", "out.json"],
                 id="selection-restriction-names-unknown-game"),
    pytest.param({"g.json": COORDINATION, "sel.json": {"decreasing_risk": [
                     {"g1": "G", "g2": "G", "a1": [["h"], ["h", "h"]],
                      "a2": [["l", "l"], ["l", "l"]]}]}},
                 ["assume", "g.json", "--selection", "sel.json", "--out", "out.json"],
                 id="selection-profile-of-one-action"),
    pytest.param({"g.json": ONE_GAME, "sel.json": {"dominance": "false"}},
                 ["assume", "g.json", "--selection", "sel.json", "--out", "out.json"],
                 id="selection-flag-a-string"),
    pytest.param({"g.json": ONE_GAME, "sel.json": {"nash": "no"}},
                 ["assume", "g.json", "--selection", "sel.json", "--out", "out.json"],
                 id="selection-flag-a-word"),
    pytest.param({"g.json": ONE_GAME, "sel.json": {"isomorphism": 1}},
                 ["assume", "g.json", "--selection", "sel.json", "--out", "out.json"],
                 id="selection-flag-a-number"),
    pytest.param({"bcs.json": COORDINATION_BCS, "pref.json": {"kind": "player", "player": True}},
                 ["check-si", "bcs.json", "X", "Y", "--pref", "@pref.json"],
                 id="player-preference-index-a-boolean"),
    pytest.param({"g.json": {"players": 1, "actions": [[1]], "utilities": {}}},
                 ["assume", "g.json", "--nash", "--out", "out.json"],
                 id="action-label-not-a-string"),
    pytest.param({"g.json": {**ONE_GAME, "utilities": {"a,a": [[2.5, 1], 1]}}},
                 ["assume", "g.json", "--nash", "--out", "out.json"],
                 id="payoff-pair-with-a-float"),
    pytest.param({"g.json": {**ONE_GAME, "utilities": {"a,a": [[1, 2.9], 1]}}},
                 ["assume", "g.json", "--nash", "--out", "out.json"],
                 id="payoff-pair-with-a-float-denominator"),
    pytest.param({"g.json": {**ONE_GAME, "utilities": {"a,a": [[True, 1], 1]}}},
                 ["assume", "g.json", "--nash", "--out", "out.json"],
                 id="payoff-pair-with-a-boolean"),
    pytest.param({"g.json": {"name": "G", "players": True, "actions": [["a"]],
                             "utilities": {"a": [1]}}},
                 ["assume", "g.json", "--nash", "--out", "out.json"], id="player-count-a-boolean"),
    pytest.param({"g.json": {**ONE_GAME, "players": 2.0}},
                 ["assume", "g.json", "--nash", "--out", "out.json"], id="player-count-a-float"),
    pytest.param({}, ["gen", "random-csp", "--domain", "0", "--out", "out"],
                 id="random-csp-empty-domain"),
    pytest.param({}, ["gen", "random-csp", "--vars", "-3", "--out", "out"],
                 id="random-csp-negative-variable-count"),
    pytest.param({}, ["gen", "random-csp", "--density", "2", "--out", "out"],
                 id="random-csp-density-above-one"),
    pytest.param({}, ["gen", "random-csp", "--density", "-0.5", "--out", "out"],
                 id="random-csp-negative-density"),
    pytest.param({"bcs.json": b"\x7fELF\x02\x01\x01\x00\x00\x00\xff\xfe"},
                 ["propagate", "bcs.json"], id="structure-not-utf-8"),
    pytest.param({"bcs.json": {**PAIR_BCS, "games": {"X": "g.json"}}, "g.json": b"\xff{}"},
                 ["check-si", "bcs.json", "X", "Y", "--pref", "pareto"], id="game-not-utf-8"),
    pytest.param({"bcs.json": COORDINATION_BCS, "pref.json": b"{\"kind\": \"\xe9\"}"},
                 ["check-si", "bcs.json", "X", "Y", "--pref", "@pref.json"],
                 id="preference-not-utf-8"),
    pytest.param({}, ["--json", "missing/report.json", "gen", "montanari", "--out", "out"],
                 id="report-into-a-missing-directory"),
    pytest.param({}, ["--json", ".", "gen", "montanari", "--out", "out"],
                 id="report-onto-a-directory"),
])
def test_malformed_input_exits_1_without_traceback(files, argv, tmp_path, monkeypatch, capsys):
    from oc_reason.cli import main
    monkeypatch.chdir(tmp_path)
    for name, obj in files.items():
        if isinstance(obj, bytes):
            (tmp_path / name).write_bytes(obj)
        else:
            serialize.write_json(name, obj)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "Traceback" not in out + err
    # nothing was written: a report path is checked before the command runs
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)

