"""The benchmark's own checks accept the package's outputs and reject
corrupted ones. Run from the repository root:

    python3 -m pytest -q perfbench/test_checkers.py
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import checkers  # noqa: E402
import oc_reason  # noqa: E402
from workloads import MODES, WORKLOADS  # noqa: E402


def _outputs(workload, inst):
    prepared = workload.observe(inst, "prepare", workload.prepare(inst))
    outputs = {"prepare": prepared}
    for mode in MODES:
        outputs[mode] = workload.observe(inst, mode, workload.query(inst, prepared, mode))
    return outputs


@pytest.fixture(scope="module")
def allpairs():
    workload = WORKLOADS["allpairs-maxclosed"]
    inst = workload.setup(7, None)[0]
    return workload, inst, _outputs(workload, inst)


@pytest.fixture(scope="module")
def games():
    workload = WORKLOADS["games-certified"]
    inst = workload.setup(7, None)[0]
    return workload, inst, _outputs(workload, inst)


@pytest.fixture(scope="module")
def csp(tmp_path_factory):
    workload = WORKLOADS["csp-encoded"]
    inst = workload.setup(7, tmp_path_factory.mktemp("csp"))[0]
    return workload, inst, _outputs(workload, inst)


def test_solver_matches_the_package_oracle(allpairs):
    _, inst, _ = allpairs
    ours = {tuple(sorted(s.items())) for s in checkers.solutions(inst["raw"])}
    theirs = {tuple(sorted(s.values.items())) for s in oc_reason.enumerate_satisfying(inst["bcs"])}
    assert ours == theirs and ours


@pytest.mark.parametrize("name", ["allpairs", "games"])
def test_flipped_verdict_is_rejected(request, name):
    workload, inst, outputs = request.getfixturevalue(name)
    assert workload.check(inst, outputs["prepare"], outputs) == []
    variables = [v.id for v in (inst["bcs"] if name == "allpairs"
                                else outputs["prepare"][0]).variables]
    for mode in MODES:
        pairs = set(outputs[mode])
        flipped = (variables[0], variables[1])
        corrupted = dict(outputs, **{mode: sorted(pairs ^ {flipped})})
        assert workload.check(inst, outputs["prepare"], corrupted), mode


def test_broken_order_is_rejected_like_the_package_rejects_it(allpairs):
    _, inst, _ = allpairs
    rejected = 0
    for var, order in inst["orders"].items():
        for i in range(len(order) - 1):
            broken = list(order)
            broken[i], broken[i + 1] = broken[i + 1], broken[i]
            orders = dict(inst["orders"], **{var: tuple(broken)})
            ours = bool(checkers.max_closed_problems("t", inst["raw"], orders))
            assert ours == (not oc_reason.is_max_closed(inst["bcs"], orders).closed)
            rejected += ours
    assert rejected > 0


def test_certificate_order_with_a_foreign_value_is_rejected(games):
    workload, inst, outputs = games
    bcs, orders, joins, report = outputs["prepare"]
    broken = dict(orders, B=orders["B"][:-1] + ("nowhere",))
    corrupted = dict(outputs, prepare=(bcs, broken, joins, report))
    assert workload.check(inst, corrupted["prepare"], corrupted)


def test_wrong_isomorphism_map_is_rejected(games):
    workload, inst, _ = games
    rows, cols, base = inst["games"]["B"]
    name, maps = next(iter(inst["copies"].items()))
    copy_payoffs = inst["games"][name][2]
    iso = next(i for i in oc_reason.find_isomorphisms(
        inst["objects"][0], inst["objects"][list(inst["games"]).index(name)]) if i.maps == maps)
    assert checkers.isomorphism_problems("t", base, copy_payoffs, (4, 4),
                                         iso.maps, iso.scales, iso.shifts) == []
    true_maps = {i.maps for i in oc_reason.find_isomorphisms(
        inst["objects"][0], inst["objects"][list(inst["games"]).index(name)])}
    swapped = list(maps[0])
    swapped[0], swapped[1] = swapped[1], swapped[0]
    wrong = (tuple(swapped), maps[1])
    assert wrong not in true_maps
    assert checkers.isomorphism_problems("t", base, copy_payoffs, (4, 4),
                                         wrong, iso.scales, iso.shifts)
    not_bijective = ((maps[0][0],) * 4, maps[1])
    assert checkers.isomorphism_problems("t", base, copy_payoffs, (4, 4),
                                         not_bijective, iso.scales, iso.shifts)
    assert checkers.isomorphism_problems("t", base, copy_payoffs, (4, 4),
                                         maps, (-iso.scales[0], iso.scales[1]), iso.shifts)


def test_missing_isomorphism_constraint_is_rejected(games):
    workload, inst, outputs = games
    bcs, orders, joins, report = outputs["prepare"]
    name = next(iter(inst["copies"]))
    kept = tuple(c for c in bcs.constraints if {c.source, c.target} != {"B", name})
    stripped = oc_reason.Bcs(bcs.variables, kept)
    corrupted = dict(outputs, prepare=(stripped, orders, joins, report))
    assert any("isomorphism constraint" in p
               for p in workload.check(inst, corrupted["prepare"], corrupted))


def test_cli_verdicts_are_checked(csp):
    workload, inst, outputs = csp
    assert workload.check(inst, outputs["prepare"], outputs) == []
    unsat = not checkers.solutions(inst["raw"], limit=1)
    for mode in MODES:
        code, report = outputs[mode]
        flipped = {"yes": "no", "no": "yes"}[report["verdict"]]
        flipped_code = {0: 3, 3: 0}[code]
        # the exit code and the JSON verdict disagree
        assert checkers.cli_problems("t", flipped_code, report, mode, unsat)
        # both flipped together: wrong in exact mode, or a yes on a satisfiable source
        both = checkers.cli_problems("t", flipped_code, dict(report, verdict=flipped), mode, unsat)
        if mode == "exact" or flipped == "yes" and not unsat:
            assert both
    assert checkers.cli_problems("t", 0, {"verdict": "yes"}, "propagation", False)
