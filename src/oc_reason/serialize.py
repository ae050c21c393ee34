"""JSON formats for games, structures, orders, semilattices and preferences.

Formats:
  game           {"name": "Gb", "players": 2, "actions": [["C","D"],["C","D"]],
                  "utilities": {"C,D": [1, 4], ...}}
                 "players" is a JSON integer, the number of action lists;
                 action labels are non-empty strings without commas,
                 distinct per player; payoffs are exact rationals: an
                 integer, a "p/q" string or a [p, q] pair of integers with
                 q nonzero (booleans and floats are rejected, in a pair
                 too); utility keys are comma-joined action labels in
                 player order, one per profile, in any order.
  BCS            {"variables": [{"id": "X", "domain": ["x1","x2"]}, ...],
                  "constraints": [{"x": "X", "y": "Y", "pairs": [["x1","y2"], ...]}],
                  "games": {"Gb": "gb.json" | {inline game}}}    (games optional)
                 an attached game is named after its variable id; a name
                 in the game object must still be a non-empty string.
  orders         {"orders": {"X": ["x2", "x1"]}}                 (ascending)
  semilattices   {"semilattices": {"W": {"edges": [["w2","w1"], ...]}}}
                 edges are (lower, upper); compiled to join tables by
                 least-upper-bound computation.
  preference     {"kind": "pareto"} | {"kind": "player", "player": 1}
                 | {"kind": "explicit", "geq": [[["G1","C,C"],["G2","E,E"]], ...]}
                 the player index is a 1-based JSON integer.
  selection      {"dominance": true, "isomorphism": true, "nash": false,
                  "decreasing_risk": [{"g1": "GL", "g2": "GR",
                                       "a1": [["aH","aH"],["aH","aH"]],
                                       "a2": [["aL","aL"],["aL","aL"]]}],
                  "dominance_games": ["GL"], "isomorphism_pairs": [["GL","GR"]],
                  "nash_games": ["GR"]}
                 the three flags are JSON booleans, false when absent;
                 "a1"/"a2" list the top/safe profiles of g1 then g2; the
                 three optional lists restrict their families to the named
                 games or game pairs.

Dumping is canonical (sorted keys, two-space indent) so instances round-trip
byte-identically.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from fractions import Fraction
from pathlib import Path

from .assumptions import AssumptionSelection, DecreasingRiskPair
from .bcs import Bcs, Correspondence, Variable
from .closedness import join_table_from_hasse
from .errors import InputError
from .games import NormalFormGame, _action_indexes, _profile, as_fraction
from .si import Preference, pareto_preference, player_preference


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path: str | Path, obj) -> None:
    Path(path).write_text(dumps(obj), encoding="utf-8")


def read_json(path: str | Path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (byte {exc.start})") from exc


def _object(value, what: str) -> Mapping:
    if type(value) is not dict and not isinstance(value, Mapping):
        raise InputError(f"{what} must be a JSON object, got {value!r}")
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{what} must be a JSON list, got {value!r}")
    return value


def _field(obj, key: str, what: str):
    """``obj[key]``; InputError when obj is not a JSON object or lacks the key."""
    if key not in _object(obj, what):
        raise InputError(f"{what} is missing {key!r}")
    return obj[key]


def _pair(value, what: str) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise InputError(f"{what} must be a two-element list, got {value!r}")
    return tuple(value)


# ids and domain, outcome and action labels may be any JSON value but these,
# which could not be looked up
_NOT_LABELS = (list, dict)


def _label(value, what: str):
    if isinstance(value, _NOT_LABELS):
        raise InputError(f"{what} must be a label, got {value!r}")
    return value


def _labels(value, what: str) -> tuple:
    if any(isinstance(v, _NOT_LABELS) for v in _list(value, what)):
        raise InputError(f"{what} must list labels, got {value!r}")
    return tuple(value)


def _label_pair(value, what: str) -> tuple:
    # a list of two strings, the usual case, needs no further check
    if type(value) is list and len(value) == 2 and type(value[0]) is str and \
            type(value[1]) is str:
        return tuple(value)
    pair = _pair(value, what)
    if any(isinstance(v, _NOT_LABELS) for v in pair):
        raise InputError(f"{what} must be two labels, got {value!r}")
    return pair


def payoff_to_json(value: Fraction):
    return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def game_to_json(game: NormalFormGame) -> dict:
    return {
        "name": game.name,
        "players": game.n_players,
        "actions": [list(a) for a in game.actions],
        "utilities": {
            game.profile_label(p): [payoff_to_json(u) for u in game.payoff(p)]
            for p in game.profiles()
        },
    }


def game_from_json(obj: Mapping, name: str | None = None) -> NormalFormGame:
    """The game of a JSON game object, read in one pass over its utilities:
    each key is looked up in per-player label indexes and each payoff
    converted once. Every payoff is read before an unknown key is reported."""
    players, actions, utilities = (_field(obj, key, "game object")
                                   for key in ("players", "actions", "utilities"))
    actions = tuple(_labels(a, "action list") for a in _list(actions, "'actions'"))
    if isinstance(players, bool) or not isinstance(players, int):
        raise InputError(f"'players' must be a JSON integer, got {players!r}")
    if len(actions) != players:
        raise InputError("player count does not match the action lists")
    indexes, table, unknown = _action_indexes(actions), {}, None
    for label, vector in _object(utilities, "'utilities'").items():
        payoffs = tuple(map(as_fraction, _list(vector, "payoff vector")))
        try:
            table[_profile(indexes, label.split(","))] = payoffs
        except InputError as exc:
            unknown = unknown or exc
    # a game name becomes a variable id and a key of a BCS file's "games"
    # object, which JSON makes a string
    for given in (name, obj.get("name")):
        if given is not None and not (isinstance(given, str) and given):
            raise InputError(f"game name must be a non-empty string, got {given!r}")
    game_name = name or obj.get("name")
    if not game_name:
        raise InputError("game needs a name (provide one or add a 'name' key)")
    if unknown is not None:
        raise unknown
    return NormalFormGame(game_name, actions, table)


def load_game(path: str | Path) -> NormalFormGame:
    obj = _object(read_json(path), "game file")
    return game_from_json(obj, name=obj.get("name") or Path(path).stem)


def bcs_to_json(bcs: Bcs, games: Mapping[str, object] | None = None) -> dict:
    out = {
        "variables": [{"id": v.id, "domain": list(v.domain)} for v in bcs.variables],
        "constraints": [
            {"x": c.source, "y": c.target, "pairs": [list(p) for p in c.pairs()]}
            for c in bcs.constraints
        ],
    }
    if games:
        out["games"] = dict(games)
    return out


def bcs_from_json(obj: Mapping, base_dir: str | Path | None = None
                  ) -> tuple[Bcs, dict[str, NormalFormGame]]:
    """Parse a BCS file; resolves any referenced game files (relative to
    `base_dir`) or inline game objects and returns them keyed by variable
    id, each named after its variable id."""
    variables = tuple(Variable(_label(_field(v, "id", "variable"), "variable id"),
                               _labels(_field(v, "domain", "variable"), "variable domain"))
                      for v in _list(_field(obj, "variables", "BCS object"), "'variables'"))
    domains = {v.id: v.domain for v in variables}
    constraints = []
    for c in _list(obj.get("constraints", []), "'constraints'"):
        x, y, pairs = (_field(c, key, "constraint object") for key in ("x", "y", "pairs"))
        if _label(x, "constraint end") not in domains or _label(y, "constraint end") not in domains:
            raise InputError(f"constraint references unknown variables ({x!r}, {y!r})")
        constraints.append(Correspondence.from_pairs(
            x, y, domains[x], domains[y],
            [_label_pair(p, "constraint pair") for p in _list(pairs, "constraint pairs")]))
    games: dict[str, NormalFormGame] = {}
    base = None if base_dir is None else Path(base_dir)
    for var_id, ref in _object(obj.get("games") or {}, "'games'").items():
        if isinstance(ref, str):
            # joining an absolute reference gives the reference
            ref = read_json(Path(ref) if base is None else base / ref)
        games[var_id] = game_from_json(_object(ref, f"game of {var_id!r}"), name=var_id)
    return Bcs(variables, tuple(constraints)), games


def load_bcs(path: str | Path) -> tuple[Bcs, dict[str, NormalFormGame]]:
    path = Path(path)
    return bcs_from_json(read_json(path), base_dir=path.parent)


def orders_to_json(orders: Mapping[str, Sequence[str]]) -> dict:
    return {"orders": {k: list(v) for k, v in orders.items()}}


def orders_from_json(obj: Mapping) -> dict[str, tuple[str, ...]]:
    orders = _object(_field(obj, "orders", "orders file"), "'orders'")
    return {k: _labels(v, f"order of {k!r}") for k, v in orders.items()}


def semilattices_from_json(obj: Mapping, bcs: Bcs) -> dict[str, dict[tuple[str, str], str]]:
    out = {}
    for var_id, spec in _object(_field(obj, "semilattices", "semilattice file"),
                                "'semilattices'").items():
        edges = _list(_field(spec, "edges", f"semilattice of {var_id!r}"), "'edges'")
        out[var_id] = join_table_from_hasse(
            bcs.domain(var_id), [_label_pair(e, "semilattice edge") for e in edges])
    return out


def semilattices_to_json(hasse: Mapping[str, Sequence[tuple[str, str]]]) -> dict:
    return {"semilattices": {k: {"edges": [list(e) for e in v]} for k, v in hasse.items()}}


def preference_from_json(obj: Mapping, bcs: Bcs,
                         games: Mapping[str, NormalFormGame]) -> Preference:
    kind = _object(obj, "preference").get("kind")
    if kind in ("pareto", "player"):
        missing = [v.id for v in bcs.variables if v.id not in games]
        if missing:
            raise InputError(
                f"{kind} preferences need game payoffs, but no games are attached "
                f"for variables {missing}")
        ordered = [games[v.id] for v in bcs.variables]
        for v in bcs.variables:
            if games[v.id].outcome_labels() != v.domain:
                raise InputError(f"game for {v.id!r} does not match its domain")
        if kind == "pareto":
            return pareto_preference(ordered)
        player = obj.get("player")
        if isinstance(player, bool) or not isinstance(player, int) or player < 1:
            raise InputError("player preferences need a 1-based 'player' index")
        return player_preference(ordered, player - 1)
    if kind == "explicit":
        domains = {v.id: v.domain for v in bcs.variables}
        pairs = []
        for entry in _list(obj.get("geq", []), "'geq'"):
            pairs.append(tuple(_label_pair(side, "preference outcome")
                               for side in _pair(entry, "preference entry")))
        return Preference.from_pairs(domains, pairs)
    raise InputError(f"unknown preference kind {kind!r}")


def selection_from_json(obj: Mapping) -> AssumptionSelection:
    risk = []
    for entry in _list(_object(obj, "selection").get("decreasing_risk", []), "'decreasing_risk'"):
        g1, g2 = (_label(_field(entry, key, "decreasing-risk entry"), key) for key in ("g1", "g2"))
        a1, a2 = ([_label_pair(profile, f"{key!r} profile") for profile in
                   _pair(_field(entry, key, "decreasing-risk entry"), f"{key!r} profiles")]
                  for key in ("a1", "a2"))
        risk.append(DecreasingRiskPair(g1, g2, a1[0], a2[0], a1[1], a2[1]))

    def restriction(key: str, read_entry):
        listed = obj.get(key)
        return None if listed is None else tuple(read_entry(e, f"an entry of {key!r}")
                                                 for e in _list(listed, repr(key)))

    flags = {key: obj.get(key, False) for key in ("dominance", "isomorphism", "nash")}
    for key, value in flags.items():
        if not isinstance(value, bool):
            raise InputError(f"{key!r} must be true or false, got {value!r}")
    return AssumptionSelection(
        **flags,
        decreasing_risk=tuple(risk),
        dominance_games=restriction("dominance_games", _label),
        isomorphism_pairs=restriction("isomorphism_pairs", _label_pair),
        nash_games=restriction("nash_games", _label),
    )
