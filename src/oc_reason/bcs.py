"""Binary constraint structures and outcome-correspondence reasoning.

A Bcs is a set of variables with finite ordered domains plus binary
constraints (correspondences) between pairs of variables. This module holds
the relation algebra (compose / intersect / inverse), path-consistency
propagation to the greatest fixed point of the transitivity, intersection,
reflexivity and symmetry rules, and an exact backtracking oracle used as
ground truth throughout the test suite.

Relations are stored as per-source-value bitmasks over the target domain,
which keeps propagation and the oracle fast without any dependencies.
Propagation and the oracle share one directed relation store, ``rel[i][j]``
for every ordered pair of variable positions, built once from the
constraints. Its invariant is that ``rel[j][i]`` is always the transpose of
``rel[i][j]``: the single narrowing step stores a shrunk relation together
with its transpose, so the symmetry rule holds by construction and neither
loop transposes on read. Both propagation loops apply the same revision step
(compose through a third variable, intersect, narrow) and record whether any
narrowing happened, which is what ``PropagatedBcs.narrowed()`` reports.

A claim is added to a store in one way, by ``_with_complement``: a copy of
the store whose claim pair is narrowed by the claim's complement. The oracle
searches such copies of the normalized store (``implies``, and exact-mode
safe-improvement queries, which build that store once for all their claims).
``refuted`` propagates such a copy of a fixed point's store with the claim's
pair alone queued, since every other relation is consistent there;
``path_consistency`` queues every pair of the normalized store. The worklist
stops at the first relation it empties and empties the rest, which is the
fixed point the full sweeps reach. ``_descend`` is the search without its
backtracking: one polynomial pass that may find an assignment inside a
store, which refutation-mode ``find_*`` keep as witnesses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InputError


@dataclass(frozen=True)
class Variable:
    id: str
    domain: tuple[str, ...]

    def __post_init__(self):
        if not self.domain:
            raise InputError(f"variable {self.id!r} has an empty domain")
        if len(set(self.domain)) != len(self.domain):
            raise InputError(f"variable {self.id!r} has duplicate domain values")


@dataclass(frozen=True)
class Correspondence:
    """A boolean relation between the domains of two variables.

    ``rows[i]`` is a bitmask over the target domain: bit j is set iff the
    pair (source_domain[i], target_domain[j]) is in the relation.
    """

    source: str
    target: str
    source_domain: tuple[str, ...]
    target_domain: tuple[str, ...]
    rows: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != len(self.source_domain):
            raise InputError("relation rows do not match the source domain")
        full = (1 << len(self.target_domain)) - 1
        if any(r & ~full for r in self.rows):
            raise InputError("relation rows exceed the target domain")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_pairs(cls, source: str, target: str,
                   source_domain: Sequence[str], target_domain: Sequence[str],
                   pairs: Iterable[tuple[str, str]]) -> "Correspondence":
        sd, td = tuple(source_domain), tuple(target_domain)
        sidx = {v: i for i, v in enumerate(sd)}
        tidx = {v: i for i, v in enumerate(td)}
        rows = [0] * len(sd)
        for x, y in pairs:
            if x not in sidx or y not in tidx:
                raise InputError(f"pair ({x!r}, {y!r}) is outside the declared domains")
            rows[sidx[x]] |= 1 << tidx[y]
        return cls(source, target, sd, td, tuple(rows))

    @classmethod
    def full(cls, source: str, target: str,
             source_domain: Sequence[str], target_domain: Sequence[str]) -> "Correspondence":
        td = tuple(target_domain)
        mask = (1 << len(td)) - 1
        return cls(source, target, tuple(source_domain), td,
                   tuple(mask for _ in source_domain))

    @classmethod
    def empty(cls, source: str, target: str,
              source_domain: Sequence[str], target_domain: Sequence[str]) -> "Correspondence":
        return cls(source, target, tuple(source_domain), tuple(target_domain),
                   tuple(0 for _ in source_domain))

    @classmethod
    def identity(cls, var: str, domain: Sequence[str]) -> "Correspondence":
        d = tuple(domain)
        return cls(var, var, d, d, tuple(1 << i for i in range(len(d))))

    # -- views --------------------------------------------------------------

    def pairs(self) -> list[tuple[str, str]]:
        out = []
        for i, row in enumerate(self.rows):
            for j in range(len(self.target_domain)):
                if row >> j & 1:
                    out.append((self.source_domain[i], self.target_domain[j]))
        return out

    def image(self, value: str) -> tuple[str, ...]:
        i = self.source_domain.index(value)
        row = self.rows[i]
        return tuple(v for j, v in enumerate(self.target_domain) if row >> j & 1)

    def contains(self, x: str, y: str) -> bool:
        i = self.source_domain.index(x)
        j = self.target_domain.index(y)
        return bool(self.rows[i] >> j & 1)

    def is_everywhere_empty(self) -> bool:
        return all(r == 0 for r in self.rows)

    def complement(self) -> "Correspondence":
        mask = (1 << len(self.target_domain)) - 1
        return Correspondence(self.source, self.target, self.source_domain,
                              self.target_domain, tuple(r ^ mask for r in self.rows))

    def subset_of(self, other: "Correspondence") -> bool:
        if (self.source_domain, self.target_domain) != (other.source_domain, other.target_domain):
            raise InputError("relations over different domains are not comparable")
        return all(r & ~s == 0 for r, s in zip(self.rows, other.rows))


def _transpose_rows(rows: Sequence[int], n_target: int) -> tuple[int, ...]:
    out = [0] * n_target
    for i, row in enumerate(rows):
        r = row
        while r:
            j = (r & -r).bit_length() - 1
            out[j] |= 1 << i
            r &= r - 1
    return tuple(out)


def _compose_rows(rows_ab: Sequence[int], rows_bc: Sequence[int]) -> tuple[int, ...]:
    out = []
    for row in rows_ab:
        acc = 0
        r = row
        while r:
            j = (r & -r).bit_length() - 1
            acc |= rows_bc[j]
            r &= r - 1
        out.append(acc)
    return tuple(out)


def compose(phi: Correspondence, psi: Correspondence) -> Correspondence:
    """Relational composition: x is related to z iff some y has (x,y) in phi
    and (y,z) in psi. The paper-order counterpart of psi ∘ phi."""
    if phi.target != psi.source or phi.target_domain != psi.source_domain:
        raise InputError(
            f"cannot compose {phi.source}->{phi.target} with {psi.source}->{psi.target}")
    return Correspondence(phi.source, psi.target, phi.source_domain,
                          psi.target_domain, _compose_rows(phi.rows, psi.rows))


def intersect(phi: Correspondence, xi: Correspondence) -> Correspondence:
    if (phi.source, phi.target) != (xi.source, xi.target) or \
            (phi.source_domain, phi.target_domain) != (xi.source_domain, xi.target_domain):
        raise InputError("can only intersect relations over the same variable pair")
    return Correspondence(phi.source, phi.target, phi.source_domain, phi.target_domain,
                          tuple(a & b for a, b in zip(phi.rows, xi.rows)))


def inverse(phi: Correspondence) -> Correspondence:
    return Correspondence(phi.target, phi.source, phi.target_domain, phi.source_domain,
                          _transpose_rows(phi.rows, len(phi.target_domain)))


@dataclass(frozen=True)
class Bcs:
    """Variables with ordered domains plus binary constraints.

    Duplicate constraints on a pair (in either direction) are permitted and
    kept; propagation and the oracle intersect them.
    """

    variables: tuple[Variable, ...]
    constraints: tuple[Correspondence, ...]

    def __post_init__(self):
        ids = [v.id for v in self.variables]
        if len(set(ids)) != len(ids):
            raise InputError("duplicate variable ids")
        by_id = {v.id: v for v in self.variables}
        for c in self.constraints:
            if c.source not in by_id or c.target not in by_id:
                raise InputError(f"constraint {c.source}->{c.target} references unknown variables")
            if c.source_domain != by_id[c.source].domain or \
                    c.target_domain != by_id[c.target].domain:
                raise InputError(
                    f"constraint {c.source}->{c.target} domains do not match the variables")

    @classmethod
    def create(cls, variables: Sequence[tuple[str, Sequence[str]]],
               constraints: Iterable[Correspondence] = ()) -> "Bcs":
        return cls(tuple(Variable(i, tuple(d)) for i, d in variables), tuple(constraints))

    def var(self, var_id: str) -> Variable:
        for v in self.variables:
            if v.id == var_id:
                return v
        raise InputError(f"unknown variable {var_id!r}")

    def index(self, var_id: str) -> int:
        for i, v in enumerate(self.variables):
            if v.id == var_id:
                return i
        raise InputError(f"unknown variable {var_id!r}")

    def domain(self, var_id: str) -> tuple[str, ...]:
        return self.var(var_id).domain

    def with_constraints(self, extra: Iterable[Correspondence]) -> "Bcs":
        return Bcs(self.variables, self.constraints + tuple(extra))

    def constraint_pairs(self, x: str, y: str) -> list[Correspondence]:
        """All constraints between x and y, both directions, as given."""
        return [c for c in self.constraints
                if {c.source, c.target} == {x, y} or
                (x == y and c.source == x and c.target == x)]


@dataclass(frozen=True)
class Assignment:
    """One value per variable."""

    values: Mapping[str, str]

    def __getitem__(self, var_id: str) -> str:
        return self.values[var_id]

    def satisfies(self, bcs: Bcs) -> bool:
        for v in bcs.variables:
            if v.id not in self.values or self.values[v.id] not in v.domain:
                return False
        return all(c.contains(self.values[c.source], self.values[c.target])
                   for c in bcs.constraints)

    def as_tuple(self, bcs: Bcs) -> tuple[str, ...]:
        return tuple(self.values[v.id] for v in bcs.variables)


_Store = list[list[tuple[int, ...]]]


def _relation_store(bcs: Bcs) -> _Store:
    """The directed relation store: ``rel[i][j]`` holds the rows of the
    relation from variable i to variable j (by position) for every ordered
    pair, the intersection of all given constraints between them in either
    direction; the full relation when there are none; identity (restricted by
    self-loop constraints) on the diagonal. ``rel[j][i]`` is always the
    transpose of ``rel[i][j]``."""
    sizes = [len(v.domain) for v in bcs.variables]
    pos = {v.id: i for i, v in enumerate(bcs.variables)}
    rel = [[tuple(1 << x for x in range(si)) if i == j else ((1 << sj) - 1,) * si
            for j, sj in enumerate(sizes)] for i, si in enumerate(sizes)]
    for c in bcs.constraints:
        i, j = pos[c.source], pos[c.target]
        _narrow(rel, i, j, tuple(a & b for a, b in zip(rel[i][j], c.rows)))
    return rel


def _narrow(rel: _Store, x: int, y: int, rows: tuple[int, ...]) -> bool:
    """Store ``rows``, a subset of ``rel[x][y]``, as the x->y relation and its
    transpose as y->x; returns True when the relation shrank."""
    if rows == rel[x][y]:
        return False
    rel[x][y] = rows
    rel[y][x] = _transpose_rows(rows, len(rel[y][x]))
    return True


def _revise(rel: _Store, x: int, t: int, y: int) -> bool:
    """One inference step: narrow x->y to its intersection with the
    composition x->t->y (transitivity plus intersection)."""
    via = _compose_rows(rel[x][t], rel[t][y])
    return _narrow(rel, x, y, tuple(c & v for c, v in zip(rel[x][y], via)))


@dataclass(frozen=True)
class PropagatedBcs:
    """The greatest fixed point of the inference rules over all variable pairs.

    ``pair(x, y)`` is the minimal derived correspondence of an ordered pair
    (the diagonal included), read from the directed store on each call;
    ``pair(y, x)`` is always the inverse of ``pair(x, y)``. ``shrank``
    records whether propagation narrowed any relation of the normalized
    input (the intersection of the given constraints per pair); ``has_empty``
    whether some derived correspondence is everywhere-empty (the refutation
    signal).
    """

    bcs: Bcs
    _store: _Store = field(repr=False)
    shrank: bool
    sweeps: int | None = None

    @property
    def has_empty(self) -> bool:
        # at a greatest fixed point one empty relation empties every
        # relation, so the first diagonal relation answers for all
        return bool(self._store) and not any(self._store[0][0])

    def pair(self, x: str, y: str) -> Correspondence:
        variables = self.bcs.variables
        names = [v.id for v in variables]
        if x not in names or y not in names:
            raise InputError(f"no variable pair ({x!r}, {y!r})")
        i, j = names.index(x), names.index(y)
        return Correspondence(x, y, variables[i].domain, variables[j].domain, self._store[i][j])

    def narrowed(self) -> bool:
        return self.shrank


def _propagate(rel: _Store, seeds: Iterable[tuple[int, int]]) -> bool:
    """The worklist loop: revise every relation that a queued pair (a, b),
    a <= b, feeds until the queue is empty; returns True when any relation
    shrank. Queuing a pair whenever its relation shrinks keeps the invariant
    that every unqueued pair has been revised against the current store, so
    the loop ends at the greatest fixed point below ``rel`` provided every
    pair whose relation is not already consistent with the rest is seeded.

    The first revision that empties a relation empties the whole store and
    ends the loop: revising x->k through an empty x->y empties x->k for
    every k, the diagonal included, and then every k->j through x. So one
    empty relation makes the all-empty store the greatest fixed point."""
    n = len(rel)
    queue = deque(seeds)
    queued = set(queue)
    shrank = False
    while queue:
        a, b = queue.popleft()
        queued.discard((a, b))
        for k in range(n):
            # shrink (a,k) through b, and (b,k) through a
            for (x, t, y) in ((a, b, k), (b, a, k)):
                if _revise(rel, x, t, y):
                    if not any(rel[x][y]):
                        for row in rel:
                            row[:] = [(0,) * len(rows) for rows in row]
                        return True
                    shrank = True
                    key = (min(x, y), max(x, y))
                    if key not in queued:
                        queued.add(key)
                        queue.append(key)
    return shrank


def path_consistency(bcs: Bcs) -> PropagatedBcs:
    """Worklist propagation of the transitivity/intersection/symmetry/
    reflexivity rules to their unique greatest fixed point.

    The result is bit-identical to the naive full-sweep loop in
    :func:`path_consistency_sweeps`; empty relations are a legitimate result
    signaling unsatisfiability evidence, never an error.
    """
    rel = _relation_store(bcs)
    n = len(rel)
    shrank = _propagate(rel, ((a, b) for a in range(n) for b in range(a, n)))
    return PropagatedBcs(bcs, rel, shrank)


def path_consistency_sweeps(bcs: Bcs) -> PropagatedBcs:
    """Naive repeated-inference loop: full sweeps over all ordered variable
    triples until a sweep makes no progress. Records the sweep count, which is
    bounded by (number of variables)^2 * (max domain size)^2."""
    rel = _relation_store(bcs)
    n = len(rel)
    sweeps = 0
    progress = True
    while progress:
        progress = False
        sweeps += 1
        for x in range(n):
            for t in range(n):
                for y in range(n):
                    if _revise(rel, x, t, y):
                        progress = True
    # a sweep without progress ends the loop, so any narrowing takes two
    return PropagatedBcs(bcs, rel, sweeps > 1, sweeps)


def enumerate_satisfying(bcs: Bcs, limit: int | None = None) -> list[Assignment]:
    """Backtracking enumeration of satisfying assignments.

    Variables are assigned in listed order, values tried in domain order, with
    forward checking against all constraints touching assigned variables; the
    output order is deterministic. Returns at most `limit` assignments when
    given. The search keeps an explicit stack, so its depth is not bounded by
    the recursion limit. This oracle deliberately uses no propagation-derived
    information: it reads the normalized relation store only.
    """
    if limit is not None and limit <= 0:
        return []
    return _search(bcs, _relation_store(bcs), limit)


def _search(bcs: Bcs, rel: _Store, limit: int | None) -> list[Assignment]:
    """The oracle's search over the store ``rel`` of ``bcs``'s variables."""
    n = len(rel)
    found: list[Assignment] = []
    chosen = [0] * n
    # stack[d][j] (j >= d): the values of variable j consistent with the
    # values chosen for variables before d; stack[d][d] shrinks as tried
    stack = [_domain_masks(rel)]
    while stack:
        depth = len(stack) - 1
        masks = stack[depth]
        if depth == n:
            found.append(_assignment(bcs, chosen))
            if limit is not None and len(found) >= limit:
                break
            stack.pop()
            continue
        if not masks[depth]:
            stack.pop()
            continue
        x = (masks[depth] & -masks[depth]).bit_length() - 1
        masks[depth] &= masks[depth] - 1
        chosen[depth] = x
        nxt = list(masks)
        for j in range(depth + 1, n):
            nxt[j] &= rel[depth][j][x]
            if nxt[j] == 0:
                break
        else:
            stack.append(nxt)
    return found


def _descend(bcs: Bcs, rel: _Store) -> Assignment | None:
    """One greedy descent through ``rel`` without backtracking, in at most
    n^2 times the largest domain mask operations: each variable, in listed
    order, takes its first value that leaves every later one a value
    consistent with the choices so far; None when some variable has none."""
    n = len(rel)
    masks = _domain_masks(rel)
    chosen = []
    for depth in range(n):
        candidates = masks[depth]
        while candidates:
            x = (candidates & -candidates).bit_length() - 1
            candidates &= candidates - 1
            later = [masks[j] & rel[depth][j][x] for j in range(depth + 1, n)]
            if all(later):
                break
        else:
            return None
        chosen.append(x)
        masks[depth + 1:] = later
    return _assignment(bcs, chosen)


def _domain_masks(rel: _Store) -> list[int]:
    """Each variable's values that its diagonal relation keeps, as a mask."""
    return [sum(1 << x for x, row in enumerate(rel[i][i]) if row >> x & 1)
            for i in range(len(rel))]


def _assignment(bcs: Bcs, chosen: Sequence[int]) -> Assignment:
    return Assignment({v.id: v.domain[x] for v, x in zip(bcs.variables, chosen)})


def _check_claim(bcs: Bcs, claim: Correspondence) -> None:
    if (bcs.domain(claim.source), bcs.domain(claim.target)) != \
            (claim.source_domain, claim.target_domain):
        raise InputError("claim domains do not match the structure")


def _with_complement(bcs: Bcs, rel: _Store, claim: Correspondence) -> _Store | None:
    """A copy of ``rel`` with the claim's pair narrowed by its complement, or
    None when that empties the pair's relation. From the normalized store,
    this is the store of ``bcs.with_constraints([claim.complement()])``."""
    _check_claim(bcs, claim)
    x, y = bcs.index(claim.source), bcs.index(claim.target)
    narrowed = tuple(a & ~b for a, b in zip(rel[x][y], claim.rows))
    if not any(narrowed):
        return None
    rel = [list(row) for row in rel]
    _narrow(rel, x, y, narrowed)
    return rel


def _violations(bcs: Bcs, claims: Iterable[Correspondence]) -> Iterator[Assignment | None]:
    """For each claim, the first assignment that :func:`enumerate_satisfying`
    finds for the structure plus the claim's complement, or None when the
    structure implies the claim; one normalized store serves every claim."""
    rel = _relation_store(bcs)
    for claim in claims:
        narrowed = _with_complement(bcs, rel, claim)
        found = [] if narrowed is None else _search(bcs, narrowed, 1)
        yield found[0] if found else None


def implies(bcs: Bcs, claim: Correspondence) -> bool:
    """Whether every satisfying assignment satisfies the claim (exact)."""
    return next(_violations(bcs, [claim])) is None


def derivable(propagated: PropagatedBcs, claim: Correspondence) -> bool:
    """Whether the claim follows syntactically from the propagation fixed
    point, i.e. the derived relation for the pair is inside the claim."""
    _check_claim(propagated.bcs, claim)
    return propagated.pair(claim.source, claim.target).subset_of(claim)


def refuted(propagated: PropagatedBcs, claim: Correspondence) -> bool:
    """Whether adding the claim's complement to the structure derives an
    everywhere-empty relation: the answer of
    ``path_consistency(bcs.with_constraints([claim.complement()])).has_empty``,
    computed from the structure's fixed point by :func:`_refute` instead of
    from scratch. An empty narrowed relation refutes the claim without
    propagating; an empty fixed point empties every narrowed relation.
    """
    rel = _with_complement(propagated.bcs, propagated._store, claim)
    return rel is None or _refute(propagated.bcs, rel, claim)


def _refute(bcs: Bcs, rel: _Store, claim: Correspondence) -> bool:
    """Propagate ``rel``, a fixed point's store narrowed at the claim's pair
    by :func:`_with_complement`, in place; True when that empties it. The
    greatest fixed point is monotone, so gfp(B and C) = gfp(gfp(B) and C),
    and only the claim's pair is queued: every other relation is consistent
    already (the incremental step of PC-2, Mackworth 1977)."""
    x, y = bcs.index(claim.source), bcs.index(claim.target)
    _propagate(rel, [(min(x, y), max(x, y))])
    # the loop empties every relation as soon as it empties one
    return not any(rel[x][y])


def pin(var: str, domain: Sequence[str], value: str) -> Correspondence:
    """A self-loop constraint forcing a variable to one value."""
    if value not in domain:
        raise InputError(f"cannot pin {var!r} to unknown value {value!r}")
    return Correspondence.from_pairs(var, var, domain, domain, [(value, value)])
