"""JSON formats for games, structures, orders, semilattices and preferences.

Formats:
  game           {"name": "Gb", "players": 2, "actions": [["C","D"],["C","D"]],
                  "utilities": {"C,D": [1, 4], ...}}
                 payoffs are exact rationals: integers or "p/q" strings;
                 utility keys are comma-joined action labels in player order.
  BCS            {"variables": [{"id": "X", "domain": ["x1","x2"]}, ...],
                  "constraints": [{"x": "X", "y": "Y", "pairs": [["x1","y2"], ...]}],
                  "games": {"Gb": "gb.json" | {inline game}}}    (games optional)
  orders         {"orders": {"X": ["x2", "x1"]}}                 (ascending)
  semilattices   {"semilattices": {"W": {"edges": [["w2","w1"], ...]}}}
                 edges are (lower, upper); compiled to join tables by
                 least-upper-bound computation.
  preference     {"kind": "pareto"} | {"kind": "player", "player": 1}
                 | {"kind": "explicit", "geq": [[["G1","C,C"],["G2","E,E"]], ...]}
                 the player index is 1-based in JSON.
  selection      {"dominance": true, "isomorphism": true, "nash": false,
                  "decreasing_risk": [{"g1": "GL", "g2": "GR",
                                       "a1": [["aH","aH"],["aH","aH"]],
                                       "a2": [["aL","aL"],["aL","aL"]]}]}
                 "a1"/"a2" list the top/safe profiles of g1 then g2.

Dumping is canonical (sorted keys, two-space indent) so instances round-trip
byte-identically.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Sequence

from .assumptions import AssumptionSelection, DecreasingRiskPair
from .bcs import Bcs, Correspondence, Variable
from .closedness import join_table_from_hasse
from .errors import InputError
from .games import NormalFormGame, as_fraction
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


def _field(obj, key: str, what: str):
    """``obj[key]``; InputError when obj is not a JSON object or lacks the key."""
    if not isinstance(obj, Mapping):
        raise InputError(f"{what} must be a JSON object, got {obj!r}")
    if key not in obj:
        raise InputError(f"{what} is missing {key!r}")
    return obj[key]


def _pair(value, what: str) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise InputError(f"{what} must be a two-element list, got {value!r}")
    return tuple(value)


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
    for key in ("players", "actions", "utilities"):
        if key not in obj:
            raise InputError(f"game object is missing {key!r}")
    actions = [tuple(a) for a in obj["actions"]]
    if len(actions) != obj["players"]:
        raise InputError("player count does not match the action lists")
    utilities = {}
    for label, vector in obj["utilities"].items():
        utilities[tuple(label.split(","))] = [as_fraction(v) for v in vector]
    game_name = name or obj.get("name")
    if not game_name:
        raise InputError("game needs a name (provide one or add a 'name' key)")
    return NormalFormGame.create(game_name, actions, utilities)


def load_game(path: str | Path) -> NormalFormGame:
    path = Path(path)
    obj = read_json(path)
    return game_from_json(obj, name=obj.get("name") or path.stem)


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
    `base_dir`) or inline game objects and returns them keyed by variable id."""
    variables = tuple(Variable(_field(v, "id", "variable"), tuple(_field(v, "domain", "variable")))
                      for v in _field(obj, "variables", "BCS object"))
    domains = {v.id: v.domain for v in variables}
    constraints = []
    for c in obj.get("constraints", ()):
        x, y, pairs = (_field(c, key, "constraint object") for key in ("x", "y", "pairs"))
        if x not in domains or y not in domains:
            raise InputError(f"constraint references unknown variables ({x!r}, {y!r})")
        constraints.append(Correspondence.from_pairs(
            x, y, domains[x], domains[y], [_pair(p, "constraint pair") for p in pairs]))
    games: dict[str, NormalFormGame] = {}
    for var_id, ref in (obj.get("games") or {}).items():
        if isinstance(ref, str):
            path = Path(ref)
            if base_dir is not None and not path.is_absolute():
                path = Path(base_dir) / path
            games[var_id] = load_game(path)
        else:
            games[var_id] = game_from_json(ref, name=ref.get("name") or var_id)
    return Bcs(variables, tuple(constraints)), games


def load_bcs(path: str | Path) -> tuple[Bcs, dict[str, NormalFormGame]]:
    path = Path(path)
    return bcs_from_json(read_json(path), base_dir=path.parent)


def orders_to_json(orders: Mapping[str, Sequence[str]]) -> dict:
    return {"orders": {k: list(v) for k, v in orders.items()}}


def orders_from_json(obj: Mapping) -> dict[str, tuple[str, ...]]:
    orders = _field(obj, "orders", "orders file")
    if not isinstance(orders, Mapping) or \
            not all(isinstance(v, list) for v in orders.values()):
        raise InputError("'orders' must map variable ids to lists of values")
    return {k: tuple(v) for k, v in orders.items()}


def semilattices_from_json(obj: Mapping, bcs: Bcs) -> dict[str, dict[tuple[str, str], str]]:
    out = {}
    for var_id, spec in _field(obj, "semilattices", "semilattice file").items():
        edges = _field(spec, "edges", f"semilattice of {var_id!r}")
        out[var_id] = join_table_from_hasse(
            bcs.domain(var_id), [_pair(e, "semilattice edge") for e in edges])
    return out


def semilattices_to_json(hasse: Mapping[str, Sequence[tuple[str, str]]]) -> dict:
    return {"semilattices": {k: {"edges": [list(e) for e in v]} for k, v in hasse.items()}}


def preference_from_json(obj: Mapping, bcs: Bcs,
                         games: Mapping[str, NormalFormGame]) -> Preference:
    kind = obj.get("kind")
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
        if not isinstance(player, int) or player < 1:
            raise InputError("player preferences need a 1-based 'player' index")
        return player_preference(ordered, player - 1)
    if kind == "explicit":
        domains = {v.id: v.domain for v in bcs.variables}
        pairs = []
        for entry in obj.get("geq", ()):
            pairs.append(tuple(_pair(side, "preference outcome")
                               for side in _pair(entry, "preference entry")))
        return Preference.from_pairs(domains, pairs)
    raise InputError(f"unknown preference kind {kind!r}")


def selection_from_json(obj: Mapping) -> AssumptionSelection:
    risk = []
    for entry in obj.get("decreasing_risk", ()):
        g1, g2 = (_field(entry, key, "decreasing-risk entry") for key in ("g1", "g2"))
        a1, a2 = (_pair(_field(entry, key, "decreasing-risk entry"), f"{key!r} profiles")
                  for key in ("a1", "a2"))
        risk.append(DecreasingRiskPair(
            g1, g2, tuple(a1[0]), tuple(a2[0]), tuple(a1[1]), tuple(a2[1])))
    return AssumptionSelection(
        dominance=bool(obj.get("dominance", False)),
        isomorphism=bool(obj.get("isomorphism", False)),
        nash=bool(obj.get("nash", False)),
        decreasing_risk=tuple(risk),
    )
