"""CLI: exit codes, reports, and determinism."""

import argparse
import copy
import json
import random

import pytest

from oc_reason import (
    build_assumption_bcs,
    enumerate_satisfying,
    improvement_oc,
    is_max_closed,
    orders_for_assumptions,
    pareto_preference,
    path_consistency_sweeps,
    search_max_orders,
    serialize,
)
from oc_reason.cli import build_parser, main
from oc_reason.fixtures import chicken_trio, stag_hunt_pair


@pytest.fixture
def trio_file(tmp_path):
    games = chicken_trio()
    paths = []
    for g in games:
        p = tmp_path / f"{g.name}.json"
        serialize.write_json(p, serialize.game_to_json(g))
        paths.append(str(p))
    out = tmp_path / "trio.json"
    assert main(["assume", *paths, "--dominance", "--isomorphism",
                 "--out", str(out)]) == 0
    return out


@pytest.fixture
def montanari_file(tmp_path):
    assert main(["gen", "montanari", "--out", str(tmp_path)]) == 0
    return tmp_path / "montanari.json"


class TestPropagate:
    def test_montanari_no_narrowing(self, montanari_file, capsys):
        assert main(["propagate", str(montanari_file)]) == 0
        assert "no narrowing" in capsys.readouterr().out

    def test_dump_round_trips(self, trio_file, tmp_path, capsys):
        dump = tmp_path / "fixed.json"
        assert main(["propagate", str(trio_file), "--dump", str(dump)]) == 0
        obj = serialize.read_json(dump)
        back, _ = serialize.load_bcs(dump)
        assert serialize.dumps(serialize.bcs_to_json(back)) == serialize.dumps(obj)

    def test_unsat_evidence_exit_2(self, tmp_path, capsys):
        bcs = serialize.bcs_to_json(_pinned_contradiction())
        path = tmp_path / "contradiction.json"
        serialize.write_json(path, bcs)
        assert main(["propagate", str(path)]) == 2

    def test_parse_error_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        assert main(["propagate", str(path)]) == 1


class TestSolve:
    def test_limit(self, trio_file, capsys):
        assert main(["solve", str(trio_file), "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 satisfying assignment(s)" in out

    def test_unsat_exit_3(self, montanari_file, capsys):
        assert main(["solve", str(montanari_file)]) == 3

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_limit_below_one_is_an_input_error(self, tmp_path, limit, capsys):
        assert main(["--seed", "5", "gen", "random-csp", "--vars", "3", "--density", "0.3",
                     "--out", str(tmp_path)]) == 0
        path = str(tmp_path / "random_csp.json")
        assert main(["solve", path]) == 0
        assert "18 satisfying assignment(s)" in capsys.readouterr().out
        assert main(["solve", path, "--limit", limit]) == 1
        out, err = capsys.readouterr()
        assert "satisfying" not in out and err.startswith("error: --limit")


class TestCheckSi:
    def test_trio_yes(self, trio_file, capsys):
        code = main(["check-si", str(trio_file), "Ga", "Gc",
                     "--pref", "pareto", "--strict", "--mode", "exact"])
        assert code == 0

    def test_reverse_no_with_counterexample(self, trio_file, capsys):
        code = main(["check-si", str(trio_file), "Gc", "Ga", "--pref", "pareto"])
        assert code == 3
        assert "counterexample" in capsys.readouterr().out

    def test_unknown_variable_exit_1(self, trio_file, capsys):
        assert main(["check-si", str(trio_file), "Ga", "Nope", "--pref", "pareto"]) == 1

    def test_uncertified_warning(self, trio_file, capsys):
        main(["check-si", str(trio_file), "Ga", "Gc",
              "--pref", "pareto", "--mode", "propagation"])
        assert "completeness not certified" in capsys.readouterr().out

    def test_player_pref(self, trio_file):
        assert main(["check-si", str(trio_file), "Ga", "Gc",
                     "--pref", "player:1", "--strict"]) == 0

    def test_missing_player_is_named_as_typed(self, trio_file, capsys):
        # player:N is 1-based on the command line, and so is the message
        assert main(["check-si", str(trio_file), "Ga", "Gc", "--pref", "player:9"]) == 1
        assert "no player 9 in game 'Ga': it has 2 players" in capsys.readouterr().err


class TestFindSi:
    def test_on_variable(self, trio_file, capsys):
        assert main(["find-si", str(trio_file), "--on", "Ga",
                     "--pref", "pareto", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "Gc safely improves on Ga" in out

    def test_none_found_exit_3(self, tmp_path, capsys):
        # satisfiable structure, mutually incomparable outcomes: nothing found
        bcs = tmp_path / "free.json"
        serialize.write_json(bcs, {
            "variables": [{"id": "X", "domain": ["a", "b"]},
                          {"id": "Y", "domain": ["p", "q"]}],
            "constraints": []})
        pref = tmp_path / "pref.json"
        serialize.write_json(pref, {"kind": "explicit", "geq": []})
        assert main(["find-si", str(bcs), "--pref", f"@{pref}"]) == 3


    def test_verified_orders_are_reported_certified(self, trio_file, tmp_path, capsys):
        orders = tmp_path / "orders.json"
        assert main(["closedness", str(trio_file), "--search", "--dump", str(orders)]) == 0
        report = tmp_path / "report.json"
        code = main(["--json", str(report), "find-si", str(trio_file), "--pref", "pareto",
                     "--mode", "propagation", "--orders", str(orders)])
        assert code == 0
        data = json.loads(report.read_text())
        assert data["certified"] is True and data["warnings"] == []
        assert "warning" not in capsys.readouterr().out

    def test_uncertified_search_warns(self, trio_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        main(["--json", str(report), "find-si", str(trio_file), "--pref", "pareto",
              "--mode", "refutation"])
        data = json.loads(report.read_text())
        assert data["certified"] is False and len(data["warnings"]) == 1

    def test_broken_orders_exit_1(self, montanari_file, tmp_path, capsys):
        bcs = serialize.load_bcs(montanari_file)[0]
        orders, pref = tmp_path / "orders.json", tmp_path / "pref.json"
        serialize.write_json(orders, serialize.orders_to_json(
            {v.id: v.domain for v in bcs.variables}))
        serialize.write_json(pref, {"kind": "explicit", "geq": []})
        code = main(["find-si", str(montanari_file), "--pref", f"@{pref}",
                     "--mode", "propagation", "--orders", str(orders)])
        assert code == 1
        assert "orders do not certify" in capsys.readouterr().err


class TestClosedness:
    def test_join_certificate(self, tmp_path, capsys):
        assert main(["gen", "join-incompleteness", "--out", str(tmp_path)]) == 0
        code = main(["closedness", str(tmp_path / "join_incompleteness.json"),
                     "--joins", str(tmp_path / "join_incompleteness_semilattices.json")])
        assert code == 0

    def test_search_absent_exit_3(self, montanari_file, capsys):
        assert main(["closedness", str(montanari_file), "--search"]) == 3

    def test_malformed_semilattice_exit_1(self, tmp_path, capsys):
        assert main(["gen", "join-incompleteness", "--out", str(tmp_path)]) == 0
        bad = tmp_path / "bad_joins.json"
        serialize.write_json(bad, {"semilattices": {
            "X": {"edges": []}, "Y": {"edges": [["y2", "y1"]]},
            "Z": {"edges": []}, "W": {"edges": []}}})
        code = main(["closedness", str(tmp_path / "join_incompleteness.json"),
                     "--joins", str(bad)])
        assert code == 1

    def test_search_prints_non_string_labels(self, tmp_path, capsys):
        structure, report = tmp_path / "ints.json", tmp_path / "report.json"
        serialize.write_json(structure, {
            "variables": [{"id": "X", "domain": [1, 2]}, {"id": "Y", "domain": [2, 1]}],
            "constraints": [{"x": "X", "y": "Y", "pairs": [[1, 2], [2, 1]]}]})
        assert main(["--json", str(report), "closedness", str(structure), "--search"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == ["  X: 1 < 2", "  Y: 2 < 1"]
        assert serialize.read_json(report)["orders"] == {"X": [1, 2], "Y": [2, 1]}

    def test_needs_a_mode(self, montanari_file, capsys):
        assert main(["closedness", str(montanari_file)]) == 1

    @pytest.mark.parametrize("flags", [("--orders", "--joins"), ("--orders", "--search"),
                                       ("--joins", "--search"),
                                       ("--orders", "--joins", "--search")])
    def test_one_certificate_flag_at_most(self, tmp_path, flags, capsys):
        # rejected before any file is read: no verdict, search or dump
        assert main(["gen", "join-incompleteness", "--out", str(tmp_path)]) == 0
        structure = tmp_path / "join_incompleteness.json"
        bcs, _ = serialize.load_bcs(structure)
        serialize.write_json(tmp_path / "orders.json", serialize.orders_to_json(
            {v.id: v.domain for v in bcs.variables}))
        files = {"--orders": [str(tmp_path / "orders.json")], "--search": [],
                 "--joins": [str(tmp_path / "join_incompleteness_semilattices.json")]}
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        code = main(["closedness", str(structure), "--dump", str(tmp_path / "dump.json"),
                     *(a for flag in flags for a in [flag, *files[flag]])])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert "only one of --orders, --joins and --search" in err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("flag", ["--orders", "--joins"])
    def test_dump_needs_search(self, tmp_path, flag, capsys):
        # a certificate check finds no orders to write: rejected before any
        # file is read, with no verdict and no dump
        assert main(["gen", "join-incompleteness", "--out", str(tmp_path)]) == 0
        structure = tmp_path / "join_incompleteness.json"
        bcs, _ = serialize.load_bcs(structure)
        serialize.write_json(tmp_path / "orders.json", serialize.orders_to_json(
            {v.id: v.domain for v in bcs.variables}))
        files = {"--orders": tmp_path / "orders.json",
                 "--joins": tmp_path / "join_incompleteness_semilattices.json"}
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        code = main(["closedness", str(structure), flag, str(files[flag]),
                     "--dump", str(tmp_path / "dump.json")])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert "--dump writes found orders, so it needs --search" in err
        assert sorted(tmp_path.iterdir()) == before

    def test_search_dumps_the_found_orders(self, trio_file, tmp_path):
        dump = tmp_path / "dump.json"
        assert main(["closedness", str(trio_file), "--search", "--dump", str(dump)]) == 0
        bcs, _ = serialize.load_bcs(trio_file)
        assert serialize.orders_from_json(serialize.read_json(dump)) == search_max_orders(bcs)

    def test_orders_certificate(self, trio_file, tmp_path, capsys):
        orders, report = tmp_path / "orders.json", tmp_path / "report.json"
        assert main(["closedness", str(trio_file), "--search", "--dump", str(orders)]) == 0
        capsys.readouterr()
        assert main(["--json", str(report), "closedness", str(trio_file),
                     "--orders", str(orders)]) == 0
        assert capsys.readouterr().out == "max-closed under the supplied certificate\n"
        assert serialize.read_json(report)["result"] == "closed"

    def test_violated_orders_report_the_witness(self, montanari_file, tmp_path, capsys):
        bcs, _ = serialize.load_bcs(montanari_file)
        ascending = {v.id: tuple(sorted(v.domain)) for v in bcs.variables}
        orders, report = tmp_path / "orders.json", tmp_path / "report.json"
        serialize.write_json(orders, serialize.orders_to_json(ascending))
        capsys.readouterr()
        assert main(["--json", str(report), "closedness", str(montanari_file),
                     "--orders", str(orders)]) == 3
        w = is_max_closed(bcs, ascending).witness
        witness = {"constraint": 0, "source": "X1", "target": "X2",
                   "pair_a": ["1", "2"], "pair_b": ["2", "1"], "missing": ["2", "2"]}
        assert witness == {"constraint": w.constraint_index, "source": w.source,
                           "target": w.target, "pair_a": list(w.pair_a),
                           "pair_b": list(w.pair_b), "missing": list(w.missing)}
        written = serialize.read_json(report)
        assert written["result"] == "violated" and written["witness"] == witness
        assert capsys.readouterr().out == (
            "not max-closed: constraint 0 (X1->X2) contains ('1', '2') and ('2', '1') "
            "but not ('2', '2')\n")


class TestAssume:
    def test_games_outside_the_out_directory_are_referenced_absolutely(
            self, trio_file, tmp_path, capsys):
        games_dir, out_dir = tmp_path / "games", tmp_path / "out"
        games_dir.mkdir()
        out_dir.mkdir()
        paths = []
        for g in chicken_trio():
            paths.append(games_dir / f"{g.name}.json")
            serialize.write_json(paths[-1], serialize.game_to_json(g))
        out = out_dir / "trio.json"
        assert main(["assume", *map(str, paths), "--dominance", "--isomorphism",
                     "--out", str(out)]) == 0
        written = serialize.read_json(out)
        assert written["games"] == {g.name: str(p.resolve())
                                    for g, p in zip(chicken_trio(), paths)}
        # the same structure as with the games beside it, and the games load
        assert {k: v for k, v in written.items() if k != "games"} == \
            {k: v for k, v in serialize.read_json(trio_file).items() if k != "games"}
        capsys.readouterr()
        assert main(["find-si", str(out), "--pref", "pareto"]) == 0
        listed = capsys.readouterr().out
        assert main(["find-si", str(trio_file), "--pref", "pareto"]) == 0
        assert listed == capsys.readouterr().out


class TestGen:
    def test_csp_to_si_bundle(self, montanari_file, tmp_path, capsys):
        out = tmp_path / "bundle"
        assert main(["gen", "csp-to-si", "--source", str(montanari_file),
                     "--out", str(out)]) == 0
        inst = serialize.read_json(out / "csp_si_instance.json")
        assert inst["pair"] == ["G", "Gp"]
        code = main(["check-si", str(out / "csp_si_bcs.json"), "G", "Gp",
                     "--pref", "pareto", "--strict"])
        assert code == 0

    @pytest.mark.parametrize("perturb", [[], ["--perturb"]])
    def test_csp_to_si_on_an_empty_source(self, tmp_path, perturb, capsys):
        # the empty CSP is satisfiable, so Gp is no safe improvement on G
        source, out = tmp_path / "empty.json", tmp_path / "out"
        serialize.write_json(source, {"variables": []})
        assert main(["gen", "csp-to-si", "--source", str(source), "--out", str(out),
                     *perturb]) == 0
        for mode in ("exact", "propagation", "refutation"):
            assert main(["check-si", str(out / "csp_si_bcs.json"), "G", "Gp",
                         "--pref", "pareto", "--mode", mode]) == 3

    def test_random_csp_seeded(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["--seed", "5", "gen", "random-csp", "--vars", "4",
                     "--domain", "3", "--out", str(a)]) == 0
        assert main(["--seed", "5", "gen", "random-csp", "--vars", "4",
                     "--domain", "3", "--out", str(b)]) == 0
        assert (a / "random_csp.json").read_bytes() == (b / "random_csp.json").read_bytes()

    def test_random_csp_bad_arguments_write_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["gen", "random-csp", "--density", "2", "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("var_id", ["a/../../../escape/x", "a\\..\\x"])
    def test_csp_to_si_writes_nothing_for_a_path_in_a_variable_id(self, tmp_path, var_id,
                                                                   capsys):
        source = tmp_path / "src" / "source.json"
        source.parent.mkdir()
        serialize.write_json(source, {"variables": [{"id": var_id, "domain": ["a"]},
                                                    {"id": "Y", "domain": ["a"]}]})
        out = tmp_path / "src" / "out"
        assert main(["gen", "csp-to-si", "--source", str(source), "--out", str(out)]) == 1
        assert "cannot name a file under --out" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["source.json", "src"]


class TestCspToSiAgainstReferences:
    def test_dump_and_verdicts(self, tmp_path, capsys):
        # propagate --dump against the sweeps' fixed point, and check-si in
        # every mode against the oracle on the structure plus the complement;
        # the last two are the CSPs of the CI's cold-CLI step
        verdicts = set()
        small = ["--vars", "4", "--domain", "3", "--density", "0.8"]
        runs = [(seed, small) for seed in range(1, 7)]
        runs += [(seed, ["--vars", "6", "--density", "0.3"]) for seed in (1, 2)]
        for k, (seed, shape) in enumerate(runs):
            source, out = tmp_path / f"src{k}", tmp_path / f"bundle{k}"
            assert main(["--seed", str(seed), "gen", "random-csp", *shape,
                         "--out", str(source)]) == 0
            assert main(["gen", "csp-to-si", "--source", str(source / "random_csp.json"),
                         "--out", str(out)]) == 0
            path, dump = out / "csp_si_bcs.json", out / "fixed.json"
            assert main(["propagate", str(path), "--dump", str(dump)]) in (0, 2)
            bcs, games = serialize.load_bcs(path)
            sweeps = path_consistency_sweeps(bcs)
            names = [v.id for v in bcs.variables]
            fixed = serialize.Bcs(bcs.variables, tuple(
                sweeps.pair(a, b) for i, a in enumerate(names) for b in names[i:]))
            assert dump.read_text(encoding="utf-8") == \
                serialize.dumps(serialize.bcs_to_json(fixed))
            pref = pareto_preference(list(games.values()))
            for strict in (False, True):
                claim = improvement_oc("G", "Gp", pref, strict)
                yes = not enumerate_satisfying(bcs.with_constraints([claim.complement()]), limit=1)
                verdicts.add(yes)
                for mode in ("exact", "propagation", "refutation"):
                    report = out / "report.json"
                    main(["--json", str(report), "check-si", str(path), "G", "Gp",
                          "--pref", "pareto", "--mode", mode] + ["--strict"] * strict)
                    assert serialize.read_json(report)["verdict"] == ("yes" if yes else "no")
        assert verdicts == {True, False}


class TestReports:
    def test_json_report_matches_text_and_is_deterministic(self, trio_file, tmp_path, capsys):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["check-si", str(trio_file), "Ga", "Gc", "--pref", "pareto", "--strict"]
        assert main(["--json", str(r1), *args]) == 0
        text = capsys.readouterr().out
        assert main(["--json", str(r2), *args]) == 0
        a = serialize.read_json(r1)
        b = serialize.read_json(r2)
        a.pop("timing"), b.pop("timing")
        a.pop("argv"), b.pop("argv")
        assert a == b
        assert a["verdict"] == "yes"
        assert "yes" in text

    def test_exit_codes_total(self, trio_file, montanari_file):
        # every exercised command returns one of the documented codes
        codes = {
            main(["propagate", str(trio_file)]),
            main(["solve", str(montanari_file)]),
            main(["check-si", str(trio_file), "Ga", "Gc", "--pref", "pareto"]),
            main(["check-si", str(trio_file), "Gc", "Ga", "--pref", "pareto"]),
            main(["check-si", str(trio_file), "Gc", "??", "--pref", "pareto"]),
        }
        assert codes <= {0, 1, 2, 3}


class TestGameNames:
    """A game name becomes a variable id and a key of the BCS file's
    "games" object, which JSON makes a string; other names are input errors."""

    @staticmethod
    def write(tmp_path, stem, name, game):
        path = tmp_path / f"{stem}.json"
        serialize.write_json(path, {**serialize.game_to_json(game), "name": name})
        return str(path)

    def test_numeric_name_with_a_dominated_row(self, tmp_path, capsys):
        ga, gb, _ = chicken_trio()    # Ga has the strictly dominated row C'
        paths = [self.write(tmp_path, "g5", 5, ga), self.write(tmp_path, "g6", "G6", gb)]
        out = tmp_path / "out.json"
        assert main(["assume", *paths, "--dominance", "--out", str(out)]) == 1
        assert "game name must be a non-empty string, got 5" in capsys.readouterr().err
        assert not out.exists()

    def test_numeric_names_are_not_written(self, tmp_path, capsys):
        _, gb, gc = chicken_trio()    # isomorphic, with pure equilibria
        paths = [self.write(tmp_path, "g6", 6, gb), self.write(tmp_path, "g7", 7, gc)]
        out = tmp_path / "out.json"
        assert main(["assume", *paths, "--isomorphism", "--nash", "--out", str(out)]) == 1
        assert "game name must be a non-empty string, got 6" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["", 0, False, 1.5])
    def test_other_present_names_are_rejected(self, tmp_path, name, capsys):
        _, gb, _ = chicken_trio()
        assert main(["assume", self.write(tmp_path, "g", name, gb), "--nash",
                     "--out", str(tmp_path / "out.json")]) == 1
        assert "game name must be a non-empty string" in capsys.readouterr().err

    def test_duplicate_names_are_rejected_when_discovering_risk(self, tmp_path, capsys):
        left, right, _ = stag_hunt_pair()
        paths = [self.write(tmp_path, "s1", "S", left), self.write(tmp_path, "s2", "S", right)]
        for flags in (["--discover-risk"], ["--isomorphism", "--out", str(tmp_path / "o.json")]):
            assert main(["assume", *paths, *flags]) == 1
            assert capsys.readouterr() == ("", "error: duplicate game names\n")


class TestAttachedGameNames:
    """A game attached to a variable is named after the variable id, so a
    Pareto or player preference keys its outcomes by the structure's ids
    whatever the game file calls the game."""

    @staticmethod
    def structure(tmp_path, refs):
        g = chicken_trio()[1]
        serialize.write_json(tmp_path / "foo.json", {**serialize.game_to_json(g), "name": "Foo"})
        domain = list(g.outcome_labels())
        path = tmp_path / "bcs.json"
        serialize.write_json(path, {
            "variables": [{"id": x, "domain": domain} for x in refs],
            "constraints": [{"x": "X", "y": "Y", "pairs": [[o, o] for o in domain]}],
            "games": refs})
        return str(path)

    @pytest.mark.parametrize("refs", [
        pytest.param({"X": "foo.json", "Y": {**serialize.game_to_json(chicken_trio()[1]),
                                              "name": "Bar"}}, id="names-differ-from-ids"),
        pytest.param({"X": "foo.json", "Y": "foo.json"}, id="one-file-for-two-variables"),
    ])
    def test_preferences_key_outcomes_by_variable_id(self, tmp_path, refs, capsys):
        path = self.structure(tmp_path, refs)
        report = tmp_path / "report.json"
        assert main(["--json", str(report), "check-si", path, "X", "Y", "--pref", "pareto"]) == 0
        assert serialize.read_json(report)["verdict"] == "yes"
        assert main(["--json", str(report), "find-si", path, "--pref", "player:1"]) == 0
        assert serialize.read_json(report)["pairs"] == [["X", "Y"], ["Y", "X"]]
        _, games = serialize.load_bcs(path)
        assert {x: g.name for x, g in games.items()} == {"X": "X", "Y": "Y"}


class TestUsageErrors:
    """Usage errors exit 1, as input errors do; exit 2 means an empty
    correspondence was derived."""

    @pytest.mark.parametrize("argv", [["propagate", "s.json", "--bogus"], ["check-si"],
                                      ["gen", "nosuch"]])
    def test_usage_errors_exit_1(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "usage: oc-reason" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["check-si", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: oc-reason" in capsys.readouterr().out


def test_every_option_has_help():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    missing = [(name, action.option_strings)
               for name, sub in [("", parser), *commands.choices.items()]
               for action in sub._actions if action.option_strings and not action.help]
    assert missing == []


class TestMutationFuzz:
    """Seeded mutations of valid input files: one key or list item of one
    file is dropped, retyped or wrapped in a list, and one subcommand that
    reads the file runs in-process. Every run must end in a documented exit
    code, never in an exception."""

    RETYPED = (5, 1.5, "x", None, True, [], {})

    @pytest.fixture
    def files(self, tmp_path):
        left, right, labeling = stag_hunt_pair()
        selection = {"dominance": True, "isomorphism": True, "nash": True,
                     "nash_games": ["GL"], "isomorphism_pairs": [["GL", "GR"]],
                     "decreasing_risk": [{"g1": "GL", "g2": "GR",
                                          "a1": [list(labeling.g1_top), list(labeling.g2_top)],
                                          "a2": [list(labeling.g1_safe),
                                                 list(labeling.g2_safe)]}]}
        bcs = build_assumption_bcs([left, right], serialize.selection_from_json(selection))
        orders = orders_for_assumptions([left, right], bcs)
        docs = {
            "GL.json": serialize.game_to_json(left),
            "GR.json": serialize.game_to_json(right),
            "sel.json": selection,
            "bcs.json": serialize.bcs_to_json(bcs, games={"GL": "GL.json", "GR": "GR.json"}),
            "orders.json": serialize.orders_to_json(orders),
            "joins.json": serialize.semilattices_to_json(
                {x: list(zip(order, order[1:])) for x, order in orders.items()}),
            "pref.json": {"kind": "explicit", "geq": [[["GR", "aH,aH"], ["GL", "aL,aL"]],
                                                      [["GL", "aH,aH"], ["GR", "aL,aL"]]]},
        }
        for name, obj in docs.items():
            serialize.write_json(tmp_path / name, obj)
        return docs

    COMMANDS = (
        ["propagate", "bcs.json"],
        ["solve", "bcs.json", "--limit", "3"],
        ["check-si", "bcs.json", "GL", "GR", "--pref", "@pref.json"],
        ["find-si", "bcs.json", "--pref", "pareto", "--mode", "propagation",
         "--orders", "orders.json"],
        ["closedness", "bcs.json", "--joins", "joins.json"],
        ["assume", "GL.json", "GR.json", "--selection", "sel.json", "--out", "out.json"],
        ["assume", "GL.json", "GR.json", "--discover-risk"],
        ["gen", "csp-to-si", "--source", "bcs.json", "--out", "gen"],
    )

    @staticmethod
    def _positions(obj, path=()):
        """Every (path, value) below the root, dict keys and list items alike."""
        items = obj.items() if isinstance(obj, dict) else \
            enumerate(obj) if isinstance(obj, list) else ()
        for key, value in items:
            yield path + (key,), value
            yield from TestMutationFuzz._positions(value, path + (key,))

    def _mutate(self, rng, doc):
        path, value = rng.choice(list(self._positions(doc)))
        out = copy.deepcopy(doc)
        parent = out
        for key in path[:-1]:
            parent = parent[key]
        kind = rng.choice(("drop", "retype", "wrap"))
        if kind == "drop":
            del parent[path[-1]]
        elif kind == "retype":
            parent[path[-1]] = rng.choice([v for v in self.RETYPED if type(v) is not type(value)])
        else:
            parent[path[-1]] = [value]
        return f"{kind} {list(path)}", out

    def test_mutated_inputs_end_in_an_exit_code(self, files, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rng = random.Random(2024)
        codes = set()
        for _ in range(500):
            argv = rng.choice(self.COMMANDS)
            name = rng.choice([a for a in argv if a in files])
            what, mutated = self._mutate(rng, files[name])
            serialize.write_json(name, mutated)
            try:
                code = main(argv)
            except Exception as exc:  # an escaped exception is the failure looked for
                pytest.fail(f"{' '.join(argv)} with {name}: {what} raised {exc!r}")
            finally:
                serialize.write_json(name, files[name])
            out, err = capsys.readouterr()
            assert code in {0, 1, 2, 3} and "Traceback" not in out + err, (argv, name, what)
            codes.add(code)
        assert {0, 1} <= codes


def _pinned_contradiction():
    """Two variables pinned to jointly-excluded values."""
    from oc_reason import Bcs, Correspondence
    dom = ("a", "b")
    c1 = Correspondence.from_pairs("X", "Y", dom, dom, [("a", "a")])
    c2 = Correspondence.from_pairs("X", "Y", dom, dom, [("b", "b")])
    return Bcs.create([("X", dom), ("Y", dom)], [c1, c2])
