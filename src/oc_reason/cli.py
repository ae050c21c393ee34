"""Command-line front end.

Subcommands: propagate, solve, check-si, find-si, closedness, assume, gen.
Exit codes: 0 success / yes / closed; 1 input or file error; 2 an empty
correspondence was derived (unsatisfiability evidence, `propagate` only);
3 no / violated / nothing found.

Every run builds a report dict; text output prints its facts and `--json`
writes the same report (plus timing) to a file.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
import time
from pathlib import Path

from . import reductions, serialize
from .assumptions import AssumptionSelection, build_assumption_bcs, discover_risk_labelings
from .bcs import enumerate_satisfying, path_consistency
from .closedness import is_join_closed, is_max_closed, search_max_orders
from .errors import InputError
from .si import DecisionMode, decide_si, find_any_si, find_si_on, verify_certificate

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_EMPTY_OC = 2
EXIT_NO = 3


def _parse_mode(name: str) -> DecisionMode:
    try:
        return DecisionMode(name)
    except ValueError as exc:
        raise InputError(f"unknown mode {name!r}") from exc


def _load_pref(spec: str, bcs, games):
    if spec == "pareto":
        obj = {"kind": "pareto"}
    elif spec.startswith("player:"):
        try:
            obj = {"kind": "player", "player": int(spec.split(":", 1)[1])}
        except ValueError as exc:
            raise InputError(f"bad preference spec {spec!r}: N must be an integer") from exc
    elif spec.startswith("@"):
        obj = serialize.read_json(spec[1:])
    else:
        raise InputError(
            f"bad preference spec {spec!r}: use pareto, player:N, or @file.json")
    return serialize.preference_from_json(obj, bcs, games)


def _load_certificates(args, bcs):
    orders = joins = None
    if getattr(args, "orders", None):
        orders = serialize.orders_from_json(serialize.read_json(args.orders))
    if getattr(args, "joins", None):
        joins = serialize.semilattices_from_json(serialize.read_json(args.joins), bcs)
    return orders, joins


def cmd_propagate(args, report) -> int:
    bcs, _ = serialize.load_bcs(args.input)
    prop = path_consistency(bcs)
    report["narrowed"] = prop.narrowed()
    report["has_empty"] = prop.has_empty
    if args.dump:
        names = [v.id for v in bcs.variables]
        out = serialize.Bcs(bcs.variables, tuple(
            prop.pair(a, b) for i, a in enumerate(names) for b in names[i:]))
        serialize.write_json(args.dump, serialize.bcs_to_json(out))
        report["dumped"] = str(args.dump)
    print("no narrowing" if not prop.narrowed() else "narrowed")
    if prop.has_empty:
        print("an empty correspondence was derived: the structure is unsatisfiable")
        return EXIT_EMPTY_OC
    return EXIT_OK


def cmd_solve(args, report) -> int:
    if args.limit is not None and args.limit < 1:
        raise InputError(f"--limit must be at least 1, got {args.limit}")
    bcs, _ = serialize.load_bcs(args.input)
    sols = enumerate_satisfying(bcs, limit=args.limit)
    report["count"] = len(sols)
    report["assignments"] = [dict(s.values) for s in sols]
    for s in sols:
        print(" ".join(f"{v.id}={s[v.id]}" for v in bcs.variables))
    print(f"{len(sols)} satisfying assignment(s)")
    return EXIT_OK if sols else EXIT_NO


def _warn_uncertified(report, mode: DecisionMode, certified: bool) -> None:
    if mode is not DecisionMode.EXACT and not certified:
        msg = (f"{mode.value} mode without a verified closedness certificate: "
               "completeness not certified, a 'no' may be incomplete")
        report["warnings"].append(msg)
        print(f"warning: {msg}")


def cmd_check_si(args, report) -> int:
    bcs, games = serialize.load_bcs(args.input)
    pref = _load_pref(args.pref, bcs, games)
    mode = _parse_mode(args.mode)
    orders, joins = _load_certificates(args, bcs)
    verdict = decide_si(bcs, args.x, args.y, pref, strict=args.strict,
                        mode=mode, orders=orders, joins=joins)
    report["verdict"] = "yes" if verdict.yes else "no"
    report["mode"] = verdict.mode.value
    report["strict"] = args.strict
    report["certified"] = verdict.certified
    _warn_uncertified(report, mode, verdict.certified)
    kind = "a strict safe improvement" if args.strict else "a safe improvement"
    print(f"{args.y} is {kind} on {args.x}: {report['verdict']} ({mode.value} mode)")
    if verdict.counterexample is not None:
        report["counterexample"] = dict(verdict.counterexample.values)
        print("counterexample: " +
              " ".join(f"{v.id}={verdict.counterexample[v.id]}" for v in bcs.variables))
    return EXIT_OK if verdict.yes else EXIT_NO


def cmd_find_si(args, report) -> int:
    bcs, games = serialize.load_bcs(args.input)
    pref = _load_pref(args.pref, bcs, games)
    mode = _parse_mode(args.mode)
    orders, joins = _load_certificates(args, bcs)
    # verified here once; the searches below then need no certificate
    certified = verify_certificate(bcs, mode, orders, joins)
    if args.on:
        improvers = find_si_on(bcs, args.on, pref, strict=args.strict, mode=mode)
        pairs = [(args.on, y) for y in improvers]
    else:
        pairs = find_any_si(bcs, pref, strict=args.strict, mode=mode)
    report["pairs"] = [list(p) for p in pairs]
    report["mode"] = mode.value
    report["strict"] = args.strict
    report["certified"] = certified
    _warn_uncertified(report, mode, certified)
    for x, y in pairs:
        print(f"{y} safely improves on {x}")
    print(f"{len(pairs)} improvement pair(s)")
    return EXIT_OK if pairs else EXIT_NO


def cmd_closedness(args, report) -> int:
    bcs, _ = serialize.load_bcs(args.input)
    if args.search:
        found = search_max_orders(bcs)
        if found is None:
            report["result"] = "absent"
            print("no certifying order family exists")
            return EXIT_NO
        report["result"] = "closed"
        report["orders"] = {k: list(v) for k, v in found.items()}
        if args.dump:
            serialize.write_json(args.dump, serialize.orders_to_json(found))
            report["dumped"] = str(args.dump)
        print("max-closed under a found order family")
        for var, order in found.items():
            print(f"  {var}: {' < '.join(order)}")
        return EXIT_OK
    orders, joins = _load_certificates(args, bcs)
    if orders is not None:
        rep = is_max_closed(bcs, orders)
        label = "max-closed"
    elif joins is not None:
        rep = is_join_closed(bcs, joins)
        label = "join-closed"
    else:
        raise InputError("closedness needs one of --orders, --joins, or --search")
    report["result"] = "closed" if rep.closed else "violated"
    if rep.closed:
        print(f"{label} under the supplied certificate")
        return EXIT_OK
    w = rep.witness
    report["witness"] = {
        "constraint": w.constraint_index, "source": w.source, "target": w.target,
        "pair_a": list(w.pair_a), "pair_b": list(w.pair_b), "missing": list(w.missing),
    }
    print(f"not {label}: constraint {w.constraint_index} ({w.source}->{w.target}) "
          f"contains {w.pair_a} and {w.pair_b} but not {w.missing}")
    return EXIT_NO


def cmd_assume(args, report) -> int:
    games = [serialize.load_game(p) for p in args.games]
    if args.discover_risk:
        entries = []
        for g1 in games:
            for g2 in games:
                if g1.name == g2.name:
                    continue
                for lab in discover_risk_labelings(g1, g2):
                    entries.append({
                        "g1": lab.g1, "g2": lab.g2,
                        "a1": [list(lab.g1_top), list(lab.g2_top)],
                        "a2": [list(lab.g1_safe), list(lab.g2_safe)],
                    })
        report["labelings"] = entries
        print(serialize.dumps({"decreasing_risk": entries}), end="")
        return EXIT_OK
    if args.selection:
        selection = serialize.selection_from_json(serialize.read_json(args.selection))
    else:
        selection = AssumptionSelection(
            dominance=args.dominance, isomorphism=args.isomorphism, nash=args.nash)
    bcs = build_assumption_bcs(games, selection)
    out_dir = Path(args.out).parent
    refs = {}
    for g, path in zip(games, args.games):
        p = Path(path)
        try:
            refs[g.name] = str(p.resolve().relative_to(out_dir.resolve()))
        except ValueError:
            refs[g.name] = str(p.resolve())
    serialize.write_json(args.out, serialize.bcs_to_json(bcs, games=refs))
    report["out"] = str(args.out)
    report["constraints"] = len(bcs.constraints)
    print(f"wrote {args.out} with {len(bcs.constraints)} constraint(s)")
    return EXIT_OK


def cmd_gen(args, report) -> int:
    out = Path(args.out)
    written: list[str] = []

    def emit(name: str, obj) -> None:
        path = out / name
        path.parent.mkdir(parents=True, exist_ok=True)
        serialize.write_json(path, obj)
        written.append(str(path))

    if args.generator == "montanari":
        emit("montanari.json", serialize.bcs_to_json(reductions.montanari_instance()))
    elif args.generator == "join-incompleteness":
        bcs, _ = reductions.join_incompleteness_instance()
        emit("join_incompleteness.json", serialize.bcs_to_json(bcs))
        emit("join_incompleteness_semilattices.json",
             serialize.semilattices_to_json(reductions.JOIN_INCOMPLETENESS_HASSE))
    elif args.generator == "csp-to-si":
        if not args.source:
            raise InputError("csp-to-si needs --source pointing at a BCS file")
        source, _ = serialize.load_bcs(args.source)
        inst = reductions.csp_to_si_games(source, perturb=args.perturb)
        refs = {}
        for g in inst.games:
            emit(f"games/{g.name}.json", serialize.game_to_json(g))
            refs[g.name] = f"games/{g.name}.json"
        emit("csp_si_bcs.json", serialize.bcs_to_json(inst.bcs, games=refs))
        emit("csp_si_instance.json", {
            "pair": list(inst.pair), "bcs": "csp_si_bcs.json",
            "games": refs, "perturbed": args.perturb,
        })
    elif args.generator == "random-csp":
        if args.vars < 1 or args.domain < 1:
            raise InputError(f"random-csp needs --vars and --domain of at least 1, "
                             f"got {args.vars} and {args.domain}")
        if not 0 <= args.density <= 1:
            raise InputError(f"--density must lie in [0, 1], got {args.density}")
        rng = random.Random(args.seed)
        bcs = reductions.random_bcs(rng, args.vars, args.domain, density=args.density)
        emit("random_csp.json", serialize.bcs_to_json(bcs))
    else:
        raise InputError(f"unknown generator {args.generator!r}")
    report["written"] = written
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use; every
    call returns the same parser, which parsing does not change."""
    parser = argparse.ArgumentParser(
        prog="oc-reason",
        description="Reason about safe improvements between games via "
                    "outcome-correspondence constraints.")
    parser.add_argument("--json", metavar="PATH", help="write the machine-readable report here")
    parser.add_argument("--seed", type=int, default=0, help="seed for random generators")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("propagate", help="run path-consistency propagation on a BCS file")
    p.add_argument("input")
    p.add_argument("--dump", metavar="PATH", help="write the fixed point as a BCS file")
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("solve", help="enumerate satisfying assignments (exact oracle)")
    p.add_argument("input")
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check-si", help="decide whether Y safely improves on X")
    p.add_argument("input")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--pref", required=True, help="pareto | player:N | @file.json")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--mode", default="exact", help="exact | propagation | refutation")
    p.add_argument("--orders", metavar="PATH", help="max-closedness certificate to verify")
    p.add_argument("--joins", metavar="PATH", help="join-closedness certificate to verify")
    p.set_defaults(func=cmd_check_si)

    p = sub.add_parser("find-si", help="list safe-improvement pairs")
    p.add_argument("input")
    p.add_argument("--on", metavar="X", help="only improvements on this variable")
    p.add_argument("--pref", required=True)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--mode", default="exact")
    p.add_argument("--orders", metavar="PATH")
    p.add_argument("--joins", metavar="PATH")
    p.set_defaults(func=cmd_find_si)

    p = sub.add_parser("closedness", help="verify or search closedness certificates")
    p.add_argument("input")
    p.add_argument("--orders", metavar="PATH")
    p.add_argument("--joins", metavar="PATH")
    p.add_argument("--search", action="store_true", help="brute-force search for orders")
    p.add_argument("--dump", metavar="PATH", help="write found orders here")
    p.set_defaults(func=cmd_closedness)

    p = sub.add_parser("assume", help="build an assumption BCS from game files")
    p.add_argument("games", nargs="+", metavar="GAME.json")
    p.add_argument("--out", default="assumptions_bcs.json")
    p.add_argument("--selection", metavar="PATH", help="selection JSON file")
    p.add_argument("--dominance", action="store_true")
    p.add_argument("--isomorphism", action="store_true")
    p.add_argument("--nash", action="store_true")
    p.add_argument("--discover-risk", action="store_true",
                   help="list all valid decreasing-risk labelings and exit")
    p.set_defaults(func=cmd_assume)

    p = sub.add_parser("gen", help="emit generator instances as JSON files")
    p.add_argument("generator",
                   choices=["montanari", "join-incompleteness", "csp-to-si", "random-csp"])
    p.add_argument("--out", default=".")
    p.add_argument("--source", metavar="PATH", help="source BCS for csp-to-si")
    p.add_argument("--perturb", action="store_true",
                   help="pairwise-incomparable fallback payoffs (csp-to-si)")
    p.add_argument("--vars", type=int, default=3, help="variable count (random-csp)")
    p.add_argument("--domain", type=int, default=3, help="max domain size (random-csp)")
    p.add_argument("--density", type=float, default=0.6, help="constraint density (random-csp)")
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    report = {
        "command": args.command,
        "argv": list(argv) if argv is not None else sys.argv[1:],
        "warnings": [],
    }
    start = time.perf_counter()
    try:
        code = args.func(args, report)
    except (InputError, OSError) as exc:
        report["error"] = str(exc)
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_ERROR
    report["exit_code"] = code
    report["timing"] = {"seconds": time.perf_counter() - start}
    if args.json:
        serialize.write_json(args.json, report)
    return code


if __name__ == "__main__":
    sys.exit(main())
