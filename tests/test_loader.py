"""The one-pass game and structure loader against the loader it replaced.

The reference below is the earlier ``game_from_json``/``bcs_from_json``
with the helpers and constructors it called: JSON objects checked against
``typing.Mapping``, each payoff converted to a Fraction on reading and again
in ``NormalFormGame.create``, which looked labels up with ``tuple.index``,
and constraint pairs looked up in domain indexes built per constraint. On
seeded files both loaders must give equal games (name, actions, utilities in
the same order) and equal structures; on malformed input, the same message.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Mapping

import pytest

from oc_reason import Bcs, Correspondence, InputError, NormalFormGame, Variable
from oc_reason import serialize

# -- the reference loader -----------------------------------------------------


def _ref_as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"payoff must be rational, got bool {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse rational {value!r}") from exc
    if isinstance(value, (tuple, list)) and len(value) == 2:
        try:
            return Fraction(int(value[0]), int(value[1]))
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot interpret {value!r} as an exact rational") from exc
    raise InputError(f"cannot interpret {value!r} as an exact rational")


def _ref_object(value, what):
    if not isinstance(value, Mapping):
        raise InputError(f"{what} must be a JSON object, got {value!r}")
    return value


def _ref_list(value, what):
    if not isinstance(value, list):
        raise InputError(f"{what} must be a JSON list, got {value!r}")
    return value


def _ref_field(obj, key, what):
    if key not in _ref_object(obj, what):
        raise InputError(f"{what} is missing {key!r}")
    return obj[key]


def _ref_label(value, what):
    if isinstance(value, (list, dict)):
        raise InputError(f"{what} must be a label, got {value!r}")
    return value


def _ref_labels(value, what):
    if any(isinstance(v, (list, dict)) for v in _ref_list(value, what)):
        raise InputError(f"{what} must list labels, got {value!r}")
    return tuple(value)


def _ref_label_pair(value, what):
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise InputError(f"{what} must be a two-element list, got {value!r}")
    if any(isinstance(v, (list, dict)) for v in value):
        raise InputError(f"{what} must be two labels, got {value!r}")
    return tuple(value)


def _ref_create(name, actions, utilities):
    acts = tuple(tuple(a) for a in actions)
    table = {}
    for key, vector in utilities.items():
        try:
            profile = tuple(acts[i].index(k) for i, k in enumerate(key))
        except (ValueError, IndexError) as exc:
            raise InputError(f"unknown action in utility key {key!r}") from exc
        table[profile] = tuple(_ref_as_fraction(v) for v in vector)
    return NormalFormGame(name, acts, table)


def _ref_from_pairs(source, target, source_domain, target_domain, pairs):
    sd, td = tuple(source_domain), tuple(target_domain)
    sidx = {v: i for i, v in enumerate(sd)}
    tidx = {v: i for i, v in enumerate(td)}
    rows = [0] * len(sd)
    for x, y in pairs:
        if x not in sidx or y not in tidx:
            raise InputError(f"pair ({x!r}, {y!r}) is outside the declared domains")
        rows[sidx[x]] |= 1 << tidx[y]
    return Correspondence(source, target, sd, td, tuple(rows))


def reference_game_from_json(obj, name=None):
    players, actions, utilities = (_ref_field(obj, key, "game object")
                                   for key in ("players", "actions", "utilities"))
    actions = [_ref_labels(a, "action list") for a in _ref_list(actions, "'actions'")]
    if len(actions) != players:
        raise InputError("player count does not match the action lists")
    table = {}
    for label, vector in _ref_object(utilities, "'utilities'").items():
        table[tuple(label.split(","))] = [_ref_as_fraction(v)
                                          for v in _ref_list(vector, "payoff vector")]
    for given in (name, obj.get("name")):
        if given is not None and not (isinstance(given, str) and given):
            raise InputError(f"game name must be a non-empty string, got {given!r}")
    game_name = name or obj.get("name")
    if not game_name:
        raise InputError("game needs a name (provide one or add a 'name' key)")
    return _ref_create(game_name, actions, table)


def reference_load_game(path):
    path = Path(path)
    obj = _ref_object(json.loads(path.read_text(encoding="utf-8")), "game file")
    return reference_game_from_json(obj, name=obj.get("name") or path.stem)


def reference_bcs_from_json(obj, base_dir=None):
    variables = tuple(Variable(_ref_label(_ref_field(v, "id", "variable"), "variable id"),
                               _ref_labels(_ref_field(v, "domain", "variable"),
                                           "variable domain"))
                      for v in _ref_list(_ref_field(obj, "variables", "BCS object"),
                                         "'variables'"))
    domains = {v.id: v.domain for v in variables}
    constraints = []
    for c in _ref_list(obj.get("constraints", []), "'constraints'"):
        x, y, pairs = (_ref_field(c, key, "constraint object") for key in ("x", "y", "pairs"))
        if _ref_label(x, "constraint end") not in domains or \
                _ref_label(y, "constraint end") not in domains:
            raise InputError(f"constraint references unknown variables ({x!r}, {y!r})")
        constraints.append(_ref_from_pairs(
            x, y, domains[x], domains[y],
            [_ref_label_pair(p, "constraint pair") for p in _ref_list(pairs, "constraint pairs")]))
    games = {}
    for var_id, ref in _ref_object(obj.get("games") or {}, "'games'").items():
        if isinstance(ref, str):
            path = Path(ref)
            if base_dir is not None and not path.is_absolute():
                path = Path(base_dir) / path
            games[var_id] = reference_load_game(path)
        else:
            ref = _ref_object(ref, f"game of {var_id!r}")
            games[var_id] = reference_game_from_json(ref, name=ref.get("name") or var_id)
    return Bcs(variables, tuple(constraints)), games


# -- seeded files -------------------------------------------------------------


def _payoff(rng: random.Random, value: Fraction):
    """`value` as an int, a "p/q" string or a [p, q] pair, not always in
    lowest terms or with a positive denominator."""
    scale, form = rng.choice((1, 2, 3)), rng.randrange(3)
    if form == 0 and value.denominator == 1:
        return int(value)
    if form == 1:
        return f"{value.numerator * scale}/{value.denominator * scale}"
    scale *= rng.choice((1, -1))
    return [value.numerator * scale, value.denominator * scale]


def _game(rng: random.Random, name: str | None, players: int) -> dict:
    actions = [[f"{'CDE'[i]}{k}" for k in rng.sample(range(9), rng.randint(1, 3))]
               for i in range(players)]
    profiles = list(itertools.product(*actions))
    rng.shuffle(profiles)
    obj = {"players": players, "actions": actions, "utilities": {
        ",".join(p): [_payoff(rng, Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                      for _ in range(players)]
        for p in profiles}}
    if name is not None:
        obj["name"] = name
    return obj


def _structure(rng: random.Random, tmp: Path) -> dict:
    """A BCS object over a few games of 1-3 players, each attached inline,
    by a relative path or by an absolute one, named in the game or not,
    plus a variable without a game; constraints between random variables."""
    variables, games = [], {}
    (tmp / "games").mkdir(exist_ok=True)
    for k in range(rng.randint(1, 5)):
        var = f"G{k}"
        game = _game(rng, rng.choice((var, None)), rng.randint(1, 3))
        variables.append({"id": var, "domain": [",".join(p) for p in
                                                itertools.product(*game["actions"])]})
        where = rng.randrange(3)
        if where == 0:
            games[var] = game
        else:
            path = tmp / "games" / f"{var}.json"
            path.write_text(json.dumps(game), encoding="utf-8")
            games[var] = str(path) if where == 2 else f"games/{var}.json"
    variables.append({"id": "Z", "domain": ["z1", "z2", "z3"]})
    constraints = []
    for _ in range(rng.randint(0, 6)):
        x, y = rng.choice(variables), rng.choice(variables)
        pairs = [[a, b] for a in x["domain"] for b in y["domain"] if rng.random() < 0.4]
        constraints.append({"x": x["id"], "y": y["id"], "pairs": pairs})
    return {"variables": variables, "constraints": constraints, "games": games}


def _same_games(new: dict, ref: dict) -> None:
    assert list(new) == list(ref)
    for key, game in new.items():
        expected = ref[key]
        assert (game.name, game.actions) == (expected.name, expected.actions)
        assert list(game.utilities.items()) == list(expected.utilities.items())
        assert all(type(u) is Fraction for vector in game.utilities.values() for u in vector)
        # the labels as derived before they were kept per game
        assert game.outcome_labels() == tuple(map(expected.profile_label, expected.profiles()))


def test_loader_equals_reference_on_seeded_files(tmp_path):
    rng = random.Random(18)
    players_seen, forms_seen = set(), set()
    for trial in range(60):
        tmp = tmp_path / f"t{trial}"
        tmp.mkdir()
        obj = _structure(rng, tmp)
        (tmp / "bcs.json").write_text(json.dumps(obj), encoding="utf-8")
        bcs, games = serialize.load_bcs(tmp / "bcs.json")
        expected_bcs, expected_games = reference_bcs_from_json(obj, base_dir=tmp)
        assert bcs == expected_bcs
        _same_games(games, expected_games)
        for ref in obj["games"].values():
            game = ref if isinstance(ref, dict) else json.loads(
                (tmp / ref).read_text(encoding="utf-8"))
            players_seen.add(game["players"])
            forms_seen.update(type(u).__name__ for v in game["utilities"].values() for u in v)
    assert players_seen == {1, 2, 3} and forms_seen == {"int", "str", "list"}


def test_game_loader_equals_reference_with_and_without_names(tmp_path):
    rng = random.Random(19)
    for trial in range(40):
        obj = _game(rng, rng.choice(("G", None)), rng.randint(1, 3))
        name = rng.choice((None, "Given"))
        if obj.get("name") is None and name is None:
            name = "Fallback"
        _same_games({0: serialize.game_from_json(obj, name=name)},
                    {0: reference_game_from_json(obj, name=name)})
        path = tmp_path / f"file{trial}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        _same_games({0: serialize.load_game(path)}, {0: reference_load_game(path)})


ONE = {"name": "G", "players": 2, "actions": [["a", "b"], ["c"]],
       "utilities": {"a,c": [1, 2], "b,c": ["1/2", [3, 4]]}}
PAIR = {"variables": [{"id": "X", "domain": ["a", "b"]}, {"id": "Y", "domain": ["c"]}],
        "constraints": [{"x": "X", "y": "Y", "pairs": [["a", "c"]]}]}


def _with(base: dict, **changes) -> dict:
    return {**base, **changes}


MALFORMED_GAMES = [
    # the game rows of test_serialize's malformed-input matrix
    pytest.param(_with(ONE, utilities={"a,c": [[1, 0], 1], "b,c": [0, 0]}),
                 id="zero-denominator-payoff"),
    pytest.param(_with(ONE, utilities=[[1, 1]]), id="utilities-as-a-list"),
    # one fault each
    pytest.param({"players": 2, "actions": [["a"], ["c"]]}, id="no-utilities"),
    pytest.param(_with(ONE, actions="ab"), id="actions-not-a-list"),
    pytest.param(_with(ONE, actions=[["a", ["b"]], ["c"]]), id="action-a-list"),
    pytest.param(_with(ONE, players=3), id="player-count-mismatch"),
    pytest.param(_with(ONE, utilities={"a,c": 1, "b,c": [0, 0]}), id="vector-not-a-list"),
    pytest.param(_with(ONE, utilities={"a,c": [True, 1], "b,c": [0, 0]}), id="payoff-a-bool"),
    pytest.param(_with(ONE, utilities={"a,c": [0.5, 1], "b,c": [0, 0]}), id="payoff-a-float"),
    pytest.param(_with(ONE, utilities={"a,c": ["1/x", 1], "b,c": [0, 0]}),
                 id="payoff-unparsable"),
    pytest.param(_with(ONE, utilities={"a,c": [1, 1], "x,c": [0, 0]}), id="unknown-action"),
    pytest.param(_with(ONE, utilities={"a,c": [1, 1], "b,c,c": [0, 0]}), id="key-too-long"),
    pytest.param(_with(ONE, utilities={"a,c": [1, 1], "b": [0, 0]}), id="key-too-short"),
    pytest.param(_with(ONE, utilities={"a,c": [1, 1]}), id="profile-missing"),
    pytest.param(_with(ONE, utilities={"a,c": [1, 1], "b,c": [0]}), id="vector-too-short"),
    pytest.param(_with(ONE, actions=[["a", "a"], ["c"]]), id="duplicate-action"),
    pytest.param(_with(ONE, actions=[["a", "b"], ["c,d"]],
                       utilities={"a,c,d": [1, 1], "b,c,d": [0, 0]}), id="comma-in-action"),
    pytest.param(_with(ONE, actions=[["a", ""], ["c"]],
                       utilities={"a,c": [1, 1], ",c": [0, 0]}), id="empty-action"),
    pytest.param(_with(ONE, players=0, actions=[], utilities={}), id="no-players"),
    pytest.param(_with(ONE, name=5), id="name-a-number"),
    pytest.param({k: v for k, v in ONE.items() if k != "name"}, id="no-name"),
    # several faults: the first in the old reading order is reported
    pytest.param(_with(ONE, utilities={"x,c": [1, 1], "b,c": ["1/x", 0]}),
                 id="bad-payoff-after-unknown-action"),
    pytest.param(_with(ONE, name=5, utilities={"x,c": [1, 1], "b,c": [0, 0]}),
                 id="unknown-action-and-bad-name"),
    pytest.param(_with(ONE, actions=[["a", "a"], ["c"]], utilities={"x,c": [1, 1]}),
                 id="unknown-action-and-duplicate"),
    pytest.param(_with(ONE, actions=[["a", "b"], [""]], utilities={"a,": [1, 1]}),
                 id="empty-action-and-missing-profile"),
]


@pytest.mark.parametrize("obj", MALFORMED_GAMES)
def test_malformed_game_gives_the_reference_message(obj):
    with pytest.raises(InputError) as expected:
        reference_game_from_json(obj)
    with pytest.raises(InputError) as got:
        serialize.game_from_json(obj)
    assert str(got.value) == str(expected.value)


MALFORMED_STRUCTURES = [
    # the structure rows of test_serialize's malformed-input matrix
    pytest.param({"variables": [{"domain": ["a"]}]}, id="variable-without-id"),
    pytest.param(_with(PAIR, constraints=[{"x": "X", "y": "Y", "pairs": [["a"]]}]),
                 id="one-element-constraint-pair"),
    pytest.param({"variables": [{"id": "X", "domain": 5}]}, id="domain-not-a-list"),
    pytest.param(_with(PAIR, constraints=5), id="constraints-not-a-list"),
    # one fault each
    pytest.param({}, id="no-variables"),
    pytest.param(_with(PAIR, variables=[5]), id="variable-not-an-object"),
    pytest.param(_with(PAIR, variables=[{"id": ["X"], "domain": ["a"]}]), id="id-a-list"),
    pytest.param(_with(PAIR, variables=[{"id": "X", "domain": []}]), id="empty-domain"),
    pytest.param(_with(PAIR, variables=[{"id": "X", "domain": ["a", "a"]}]),
                 id="duplicate-domain-value"),
    pytest.param(_with(PAIR, constraints=[{"x": "X", "y": "Q", "pairs": []}]),
                 id="unknown-variable"),
    pytest.param(_with(PAIR, constraints=[{"x": "X", "pairs": []}]), id="constraint-without-y"),
    pytest.param(_with(PAIR, constraints=[{"x": "X", "y": "Y", "pairs": 5}]),
                 id="pairs-not-a-list"),
    pytest.param(_with(PAIR, constraints=[{"x": "X", "y": "Y", "pairs": [["a", ["c"]]]}]),
                 id="pair-value-a-list"),
    pytest.param(_with(PAIR, constraints=[{"x": "X", "y": "Y", "pairs": [["c", "a"]]}]),
                 id="pair-outside-the-domains"),
    pytest.param(_with(PAIR, constraints=[{"x": "X", "y": "Y", "pairs": [["a", 1]]}]),
                 id="pair-value-a-number"),
    pytest.param(_with(PAIR, games=5), id="games-not-an-object"),
    pytest.param(_with(PAIR, games={"X": 5}), id="game-not-an-object"),
    pytest.param(_with(PAIR, games={"X": _with(ONE, players=1)}), id="inline-game-fault"),
    # several faults: the first in the old reading order is reported
    pytest.param(_with(PAIR, constraints=[{"x": "X", "y": "Y", "pairs": [["c", "a"], 5]}]),
                 id="outside-pair-before-malformed-pair"),
    pytest.param(_with(PAIR, constraints=[{"x": "X", "y": "Y", "pairs": [["z", "c"]]}],
                       games=5), id="outside-pair-and-games-not-an-object"),
]


@pytest.mark.parametrize("obj", MALFORMED_STRUCTURES)
def test_malformed_structure_gives_the_reference_message(obj):
    with pytest.raises(InputError) as expected:
        reference_bcs_from_json(obj)
    with pytest.raises(InputError) as got:
        serialize.bcs_from_json(obj)
    assert str(got.value) == str(expected.value)
