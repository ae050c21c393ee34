"""Independent checks of the package's outputs.

Nothing here calls into `oc_reason`: every check works on the raw data the
benchmark generated (value pairs, payoff tables, planted maps) or on plain
values read off the package's results. Each check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


class Structure:
    """A binary constraint structure as plain data: variable order, domains
    and a list of (x, y, set of value pairs)."""

    def __init__(self, variables, domains, constraints):
        self.variables = tuple(variables)
        self.domains = {v: tuple(domains[v]) for v in self.variables}
        self.constraints = [(x, y, frozenset(pairs)) for x, y, pairs in constraints]


def solutions(structure: Structure, limit: int | None = None) -> list[dict]:
    """All satisfying assignments, by chronological backtracking that checks
    each new value against every constraint whose other end is assigned."""
    position = {v: i for i, v in enumerate(structure.variables)}
    checks: dict[str, list] = {v: [] for v in structure.variables}
    for x, y, pairs in structure.constraints:
        later = x if position[x] >= position[y] else y
        checks[later].append((x, y, pairs))
    found: list[dict] = []
    assignment: dict[str, str] = {}

    def consistent(var):
        for x, y, pairs in checks[var]:
            if (assignment[x], assignment[y]) not in pairs:
                return False
        return True

    def extend(i):
        if i == len(structure.variables):
            found.append(dict(assignment))
            return limit is not None and len(found) >= limit
        var = structure.variables[i]
        for value in structure.domains[var]:
            assignment[var] = value
            if consistent(var) and extend(i + 1):
                return True
        del assignment[var]
        return False

    extend(0)
    return found


def safe_improvements(variables, sols: list[dict], geq) -> set[tuple[str, str]]:
    """Ordered pairs (x, y), x != y, such that every solution gives y an
    outcome weakly preferred to x's; `geq(y, b, x, a)` compares outcomes."""
    return {(x, y) for x, y in itertools.permutations(variables, 2)
            if all(geq(y, s[y], x, s[x]) for s in sols)}


def compare_pair_sets(label: str, expected: set, got) -> list[str]:
    got_set = {tuple(p) for p in got}
    if got_set == expected:
        return []
    missing = sorted(expected - got_set)[:3]
    extra = sorted(got_set - expected)[:3]
    return [f"{label}: {len(expected)} pairs expected, {len(got_set)} returned "
            f"(missing {missing}, extra {extra})"]


def max_closed_problems(label: str, structure: Structure, orders) -> list[str]:
    """Scan every constraint for two pairs whose coordinatewise maximum under
    the orders (listed ascending) is missing."""
    problems = []
    for var in structure.variables:
        if sorted(orders.get(var, ())) != sorted(structure.domains[var]):
            problems.append(f"{label}: order for {var} is not a permutation of its domain")
    if problems:
        return problems
    rank = {v: {value: i for i, value in enumerate(orders[v])} for v in structure.variables}
    for x, y, pairs in structure.constraints:
        for (a1, b1), (a2, b2) in itertools.combinations(sorted(pairs), 2):
            top = (a1 if rank[x][a1] >= rank[x][a2] else a2,
                   b1 if rank[y][b1] >= rank[y][b2] else b2)
            if top not in pairs:
                return [f"{label}: constraint {x}->{y} holds {(a1, b1)} and {(a2, b2)} "
                        f"but not their maximum {top}"]
    return []


def isomorphism_problems(label: str, payoffs1: dict, payoffs2: dict, shape,
                         maps, scales, shifts) -> list[str]:
    """An isomorphism g1 -> g2: each per-player map is a bijection and every
    payoff of g1 equals scale * (payoff of g2 at the image) + shift, with a
    positive scale. Payoff tables are keyed by action-index profiles."""
    for i, m in enumerate(maps):
        if sorted(m) != list(range(shape[i])):
            return [f"{label}: player {i} map {tuple(m)} is not a bijection"]
    for i, s in enumerate(scales):
        if Fraction(s) <= 0:
            return [f"{label}: player {i} scale {s} is not positive"]
    for profile in itertools.product(*(range(k) for k in shape)):
        image = tuple(maps[i][a] for i, a in enumerate(profile))
        for i in range(len(shape)):
            if payoffs1[profile][i] != Fraction(scales[i]) * payoffs2[image][i] + Fraction(shifts[i]):
                return [f"{label}: player {i} payoff at {profile} is not the affine "
                        f"image of the payoff at {image}"]
    return []


def cli_problems(label: str, exit_code: int, report: dict, mode: str,
                 unsatisfiable: bool) -> list[str]:
    """A CLI `check-si G Gp` on a CSP encoding: the exit code (0 or 3) agrees
    with the JSON verdict, exact mode says yes iff the source CSP is
    unsatisfiable, and the other modes say yes only then."""
    verdict = report.get("verdict")
    if (exit_code, verdict) not in ((0, "yes"), (3, "no")):
        return [f"{label}: exit code {exit_code} disagrees with verdict {verdict!r}"]
    if mode == "exact" and (verdict == "yes") != unsatisfiable:
        return [f"{label}: exact verdict {verdict} but the source is "
                f"{'un' if unsatisfiable else ''}satisfiable"]
    if verdict == "yes" and not unsatisfiable:
        return [f"{label}: {mode} verdict yes on a satisfiable source"]
    return []
