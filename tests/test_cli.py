"""CLI: exit codes, reports, and determinism."""

import json

import pytest

from oc_reason import serialize
from oc_reason.cli import main
from oc_reason.fixtures import chicken_trio


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

    def test_needs_a_mode(self, montanari_file, capsys):
        assert main(["closedness", str(montanari_file)]) == 1


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

    def test_random_csp_seeded(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["--seed", "5", "gen", "random-csp", "--vars", "4",
                     "--domain", "3", "--out", str(a)]) == 0
        assert main(["--seed", "5", "gen", "random-csp", "--vars", "4",
                     "--domain", "3", "--out", str(b)]) == 0
        assert (a / "random_csp.json").read_bytes() == (b / "random_csp.json").read_bytes()


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


def _pinned_contradiction():
    """Two variables pinned to jointly-excluded values."""
    from oc_reason import Bcs, Correspondence
    dom = ("a", "b")
    c1 = Correspondence.from_pairs("X", "Y", dom, dom, [("a", "a")])
    c2 = Correspondence.from_pairs("X", "Y", dom, dom, [("b", "b")])
    return Bcs.create([("X", dom), ("Y", dom)], [c1, c2])
