"""Binary constraint structures and outcome-correspondence reasoning.

A Bcs is a set of variables with finite ordered domains plus binary
constraints (correspondences) between pairs of variables. This module holds
the relation algebra (compose / intersect / inverse), path-consistency
propagation to the greatest fixed point of the transitivity, intersection,
reflexivity and symmetry rules, and an exact backtracking oracle used as
ground truth throughout the test suite.

Propagation and the oracle share one directed relation store, ``rel[i][j]``
for every ordered pair of variable positions, built once from the
constraints. Each relation is one int with stride D, the largest domain: bit
``a * D + b`` is set iff the a-th value of i and the b-th of j are related.
Composing i->t->j ORs, over each value b of t that i reaches, column b of
i->t (``rel[i][t] >> b`` masked to bit 0 of each row) times row b of t->j:
a revision is a few big-int operations. Columns are D bits apart, so
``rel[j][i]`` is always kept as the transpose of ``rel[i][j]``: the single
narrowing step, rare next to reads, stores both, and the symmetry rule holds
by construction. The full sweeps that the worklist is tested against revise
by the public ``compose`` and ``intersect`` on tuple rows.

The worklist itself revises row by row: while it runs, each variable's
relations are packed into one int with stride D * D, so that one revision of
x through t composes x->t->y for every y in a few big-int operations, and
only the rows that changed are unpacked into the store when it ends. The
store stays one int per pair because everything else reads single pairs:
a walk that read one row int per variable, shifting out the pair it checks,
made exact mode 7 to 14% slower on each of the benchmark's workloads.

Every claim is decided by one rule, ``_decide``, which asks whether the
structure plus the claim's complement has a solution. A satisfying
assignment already known to violate the claim answers no. Otherwise the rule
narrows the claim's pair by the complement, and an empty result answers yes
in every mode. Propagation answers no there (``derivable``). The oracle is
one walk, ``_walk``, that yields each solution and each dead end as it meets
them. Exact mode walks a narrowed copy of the normalized store to its first
solution (``implies``). Refutation walks a narrowed copy of the fixed
point's store to its first event: until it first backtracks the walk is one
polynomial greedy descent. Only at a dead end does refutation propagate the
copy with the claim's pair alone queued, and then walk once more
(``refuted``). ``path_consistency`` queues every pair of the normalized
store. The worklist stops at the first relation it empties and empties the
rest, which is the fixed point the full sweeps reach. A refutation asked
once, with no fixed point to start from, is its definition:
``path_consistency`` of the structure plus the claim's complement.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from operator import lshift
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InputError


@dataclass(frozen=True)
class Variable:
    id: str
    domain: tuple[str, ...]

    def __post_init__(self):
        if not self.domain:
            raise InputError(f"variable {self.id!r} has an empty domain")
        for label in (self.id, *self.domain):
            try:
                hash(label)
            except TypeError:
                raise InputError(f"unhashable label {label!r} in variable {self.id!r}") from None
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
        sidx, tidx = dict(zip(sd, range(len(sd)))), dict(zip(td, range(len(td))))
        rows = [0] * len(sd)
        for x, y in pairs:
            try:
                rows[sidx[x]] |= 1 << tidx[y]
            except (KeyError, TypeError):
                raise InputError(f"pair ({x!r}, {y!r}) is outside the declared domains") from None
        return cls(source, target, sd, td, tuple(rows))

    @classmethod
    def full(cls, source: str, target: str,
             source_domain: Sequence[str], target_domain: Sequence[str]) -> "Correspondence":
        return cls(source, target, tuple(source_domain), tuple(target_domain),
                   ((1 << len(target_domain)) - 1,) * len(source_domain))

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
        while row:
            j = (row & -row).bit_length() - 1
            out[j] |= 1 << i
            row &= row - 1
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


def _closure(rows: Sequence[int]) -> tuple[int, ...]:
    """The transitive closure of reflexive bitmask rows: squaring only grows
    reflexive rows, so it stops at the closure."""
    rows = tuple(rows)
    while (squared := _compose_rows(rows, rows)) != rows:
        rows = squared
    return rows


def _mutual(rows: Sequence[int]) -> tuple[int, int] | None:
    """The first pair i < j whose rows each contain the other, or None."""
    return next(((i, j) for i in range(len(rows)) for j in range(i + 1, len(rows))
                 if rows[i] >> j & 1 and rows[j] >> i & 1), None)


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
        position = {v.id: i for i, v in enumerate(self.variables)}
        if len(position) != len(self.variables):
            raise InputError("duplicate variable ids")
        object.__setattr__(self, "_position", position)
        object.__setattr__(self, "_stride", max((len(v.domain) for v in self.variables), default=0))
        for c in self.constraints:
            if c.source not in position or c.target not in position:
                raise InputError(f"constraint {c.source}->{c.target} references unknown variables")
            if c.source_domain != self.domain(c.source) or \
                    c.target_domain != self.domain(c.target):
                raise InputError(
                    f"constraint {c.source}->{c.target} domains do not match the variables")

    @classmethod
    def create(cls, variables: Sequence[tuple[str, Sequence[str]]],
               constraints: Iterable[Correspondence] = ()) -> "Bcs":
        return cls(tuple(Variable(i, tuple(d)) for i, d in variables), tuple(constraints))

    def var(self, var_id: str) -> Variable:
        return self.variables[self.index(var_id)]

    def index(self, var_id: str) -> int:
        try:
            return self._position[var_id]
        except (KeyError, TypeError):
            raise InputError(f"unknown variable {var_id!r}") from None

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


_Store = list[list[int]]


def _pack(rows: Sequence[int], stride: int) -> int:
    """Bitmask rows as one int, row i shifted by ``i * stride``."""
    return sum(map(lshift, rows, itertools.count(0, stride)))


def _transpose(packed: int, stride: int) -> int:
    out = 0
    while packed:
        i, j = divmod(top := packed.bit_length() - 1, stride)
        out |= 1 << j * stride + i
        packed ^= 1 << top
    return out


def _relation_store(bcs: Bcs) -> _Store:
    """The directed relation store: ``rel[i][j]`` holds the packed relation
    from variable i to variable j (by position) for every ordered pair, the
    intersection of all given constraints between them in either direction;
    the full relation when there are none; identity (restricted by self-loop
    constraints) on the diagonal. ``rel[j][i]`` is always the transpose of
    ``rel[i][j]``."""
    sizes, stride = [len(v.domain) for v in bcs.variables], bcs._stride
    lead = [_pack([1] * s, stride) for s in sizes]      # bit 0 of each row
    rel = [[_pack([1] * si, stride + 1) if i == j else lead[i] * ((1 << sj) - 1)
            for j, sj in enumerate(sizes)] for i, si in enumerate(sizes)]
    for c in bcs.constraints:
        i, j = bcs.index(c.source), bcs.index(c.target)
        _narrow(rel, i, j, rel[i][j] & _pack(c.rows, stride), stride)
    return rel


def _narrow(rel: _Store, x: int, y: int, packed: int, stride: int) -> bool:
    """Store ``packed``, a subset of ``rel[x][y]``, as the x->y relation and
    its transpose as y->x; returns True when the relation shrank."""
    if packed == rel[x][y]:
        return False
    rel[x][y] = packed
    rel[y][x] = _transpose(packed, stride)
    return True


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
        return bool(self._store) and not self._store[0][0]

    def pair(self, x: str, y: str) -> Correspondence:
        try:
            i, j = self.bcs.index(x), self.bcs.index(y)
        except InputError:
            raise InputError(f"no variable pair ({x!r}, {y!r})") from None
        u, v, stride = self.bcs.variables[i], self.bcs.variables[j], self.bcs._stride
        rows = (self._store[i][j] >> a * stride & (1 << stride) - 1 for a in range(len(u.domain)))
        return Correspondence(x, y, u.domain, v.domain, tuple(rows))

    def narrowed(self) -> bool:
        return self.shrank


def _propagate(rel: _Store, seeds: Iterable[tuple[int, int]], stride: int) -> bool:
    """The worklist loop: revise every relation that a queued pair (a, b),
    a <= b, feeds until the queue is empty; returns True when any relation
    shrank. Queuing a pair whenever its relation shrinks keeps the invariant
    that every unqueued pair has been revised against the current store, so
    the loop ends at the greatest fixed point below ``rel`` provided every
    pair whose relation is not already consistent with the rest is seeded.

    The loop works on row ints: ``rows[x]`` packs x's relations with stride
    D * D, x->y in the block at ``y * D * D``. One revision of x through t
    narrows x->y by x->t->y for every y at once: for each non-empty column j
    of x->t it ORs the column times row j of every t->y block, which is
    ``rows[t] >> j * D`` masked to the first row of each block. Each block
    that shrank is stored transposed as block x of ``rows[y]`` (the diagonal
    stays within the identity, its own transpose) and its pair queued. Only
    the rows that changed are unpacked into ``rel`` at the end. The columns
    and ``rows[t]`` are read once per revision; if they shrink meanwhile,
    they are a sound superset and the pair that shrank is queued.

    The first revision that empties a relation empties the whole store and
    ends the loop: revising x->k through an empty x->y empties x->k for
    every k, the diagonal included, and then every k->j through x. So one
    empty relation makes the all-empty store the greatest fixed point."""
    n = len(rel)
    block = stride * stride
    column = _pack([1] * stride, stride)
    full_block = (1 << block) - 1
    row_all = _pack([(1 << stride) - 1] * n, block)
    rows = [_pack(row, block) for row in rel]
    changed = set()
    queue = deque(seeds)
    queued = set(queue)
    shrank = False
    while queue:
        a, b = queue.popleft()
        queued.discard((a, b))
        # shrink (a,y) through b, and (b,y) through a, for every y; a
        # diagonal pair (a,a) has one direction
        for x, t in ((a, b),) if a == b else ((a, b), (b, a)):
            row_x, row_t = rows[x], rows[t]
            x_t, via = row_x >> t * block & full_block, 0
            for j in range(stride):
                if col := x_t >> j & column:
                    via |= col * (row_t >> j * stride & row_all)
            narrowed = row_x & via
            if narrowed == row_x:
                continue
            rows[x] = narrowed
            changed.add(x)
            shrank = True
            lost = row_x ^ narrowed
            while lost:
                y = ((lost & -lost).bit_length() - 1) // block
                lost &= -1 << (y + 1) * block
                packed = narrowed >> y * block & full_block
                if not packed:
                    for row in rel:
                        row[:] = [0] * n
                    return True
                if y != x:
                    rows[y] = rows[y] & ~(full_block << x * block) | \
                        _transpose(packed, stride) << x * block
                    changed.add(y)
                key = (min(x, y), max(x, y))
                if key not in queued:
                    queued.add(key)
                    queue.append(key)
    for x in changed:
        rel[x][:] = [rows[x] >> y * block & full_block for y in range(n)]
    return shrank


def path_consistency(bcs: Bcs) -> PropagatedBcs:
    """Worklist propagation of the transitivity/intersection/symmetry/
    reflexivity rules to their unique greatest fixed point.

    The result is bit-identical to the naive full-sweep loop in
    :func:`path_consistency_sweeps`; empty relations are a legitimate result
    signaling unsatisfiability evidence, never an error.
    """
    rel, n = _relation_store(bcs), len(bcs.variables)
    seeds = ((a, b) for a in range(n) for b in range(a, n))
    return PropagatedBcs(bcs, rel, _propagate(rel, seeds, bcs._stride))


def path_consistency_sweeps(bcs: Bcs) -> PropagatedBcs:
    """Naive repeated-inference loop: full sweeps over all ordered variable
    triples until a sweep makes no progress, revising through the public
    :func:`compose` and :func:`intersect`. Records the sweep count, which is
    bounded by (number of variables)^2 * (max domain size)^2."""
    normalized = PropagatedBcs(bcs, _relation_store(bcs), False)
    rel = [[normalized.pair(x.id, y.id) for y in bcs.variables] for x in bcs.variables]
    sweeps, progress = 0, True
    while progress:
        progress = False
        sweeps += 1
        for x, t, y in itertools.product(range(len(rel)), repeat=3):
            revised = intersect(rel[x][y], compose(rel[x][t], rel[t][y]))
            if revised != rel[x][y]:
                rel[x][y], rel[y][x] = revised, inverse(revised)
                progress = True
    # a sweep without progress ends the loop, so any narrowing takes two
    return PropagatedBcs(bcs, [[_pack(c.rows, bcs._stride) for c in row] for row in rel],
                         sweeps > 1, sweeps)


def enumerate_satisfying(bcs: Bcs, limit: int | None = None) -> list[Assignment]:
    """Backtracking enumeration of satisfying assignments: the solutions of
    the oracle's walk, :func:`_walk`, in the order it finds them.

    Variables are assigned in listed order, values tried in domain order, with
    forward checking against all constraints touching assigned variables; the
    output order is deterministic. Returns at most `limit` assignments when
    given. The walk keeps an explicit stack, so its depth is not bounded by
    the recursion limit. This oracle deliberately uses no propagation-derived
    information: it reads the normalized relation store only.
    """
    if limit is not None and limit <= 0:
        return []
    return _search(bcs, _relation_store(bcs), limit)


def _walk(bcs: Bcs, rel: _Store) -> Iterator[Assignment | None]:
    """The oracle's search over the store ``rel`` of ``bcs``'s variables,
    as events: each satisfying assignment when it is found, and None at
    each dead end, where a variable has no value left and the walk
    backtracks. Each variable, in listed order, takes its first remaining
    value that leaves every later one a value consistent with the choices
    so far. Until its first event the walk never backtracks, so that event
    is one greedy descent, at most n^2 times the largest domain mask
    operations."""
    n, stride = len(rel), bcs._stride
    column, full = _pack([1] * stride, stride), (1 << stride) - 1
    chosen = [0] * n
    # stack[d][j] (j >= d): the values of variable j consistent with the
    # values chosen for variables before d; stack[d][d] shrinks as tried.
    # The product moves diagonal bit x to (D - 1) * D + x.
    stack = [[rel[i][i] * column >> (stride - 1) * stride & full for i in range(n)]]
    while stack:
        depth = len(stack) - 1
        masks = stack[depth]
        if depth == n or not masks[depth]:
            # a solution, or a dead end: this variable has no value left
            yield _assignment(bcs, chosen) if depth == n else None
            stack.pop()
            continue
        x = (masks[depth] & -masks[depth]).bit_length() - 1
        masks[depth] &= masks[depth] - 1
        chosen[depth] = x
        nxt = list(masks)
        row, shift = rel[depth], x * stride     # row x: the masks drop the rows above
        for j in range(depth + 1, n):
            nxt[j] = live = nxt[j] & row[j] >> shift
            if not live:
                break
        else:
            stack.append(nxt)


def _search(bcs: Bcs, rel: _Store, limit: int | None) -> list[Assignment]:
    """The walk's first ``limit`` solutions, all of them when None."""
    return list(itertools.islice(filter(None, _walk(bcs, rel)), limit))


def _descend(bcs: Bcs, rel: _Store) -> Assignment | None:
    """The walk's first event: a solution reached without backtracking, or
    None where the walk would first backtrack."""
    return next(_walk(bcs, rel))


def _assignment(bcs: Bcs, chosen: Sequence[int]) -> Assignment:
    return Assignment({v.id: v.domain[x] for v, x in zip(bcs.variables, chosen)})


class DecisionMode(Enum):
    EXACT = "exact"
    PROPAGATION = "propagation"
    REFUTATION = "refutation"


def _store(bcs: Bcs, mode: DecisionMode) -> _Store:
    """The store that :func:`_decide` reads in ``mode``: the normalized store
    for exact mode, the path-consistency fixed point's store otherwise."""
    if mode is DecisionMode.EXACT:
        return _relation_store(bcs)
    return path_consistency(bcs)._store


def _decide(bcs: Bcs, rel: _Store, claim: Correspondence, mode: DecisionMode,
            witnesses: Iterable[Assignment] = ()) -> tuple[bool, Assignment | None]:
    """Whether ``bcs`` implies the claim, as ``mode`` decides it on
    ``rel = _store(bcs, mode)`` (see the module docstring), and the
    satisfying assignment found to violate it, if any. ``witnesses`` are
    satisfying assignments found earlier; ``rel`` is not changed."""
    if any(not claim.contains(w[claim.source], w[claim.target]) for w in witnesses):
        return False, None
    if (bcs.domain(claim.source), bcs.domain(claim.target)) != \
            (claim.source_domain, claim.target_domain):
        raise InputError("claim domains do not match the structure")
    x, y = bcs.index(claim.source), bcs.index(claim.target)
    narrowed = rel[x][y] & ~_pack(claim.rows, bcs._stride)
    if not narrowed:
        return True, None
    if mode is DecisionMode.PROPAGATION:
        return False, None
    rel = [list(row) for row in rel]
    _narrow(rel, x, y, narrowed, bcs._stride)
    if mode is DecisionMode.EXACT:
        found = _search(bcs, rel, 1)
        return not found, found[0] if found else None
    witness = _descend(bcs, rel)
    if witness is None:
        if _refute(rel, x, y, bcs._stride):
            return True, None
        witness = _descend(bcs, rel)
    return False, witness


def implies(bcs: Bcs, claim: Correspondence) -> bool:
    """Whether every satisfying assignment satisfies the claim (exact)."""
    return _decide(bcs, _store(bcs, DecisionMode.EXACT), claim, DecisionMode.EXACT)[0]


def derivable(propagated: PropagatedBcs, claim: Correspondence) -> bool:
    """Whether the claim follows syntactically from the propagation fixed
    point, i.e. the derived relation for the pair is inside the claim."""
    return _decide(propagated.bcs, propagated._store, claim, DecisionMode.PROPAGATION)[0]


def refuted(propagated: PropagatedBcs, claim: Correspondence) -> bool:
    """Whether adding the claim's complement to the structure derives an
    everywhere-empty relation: the answer of
    ``path_consistency(bcs.with_constraints([claim.complement()])).has_empty``,
    computed from the structure's fixed point instead of from scratch. An
    empty narrowed relation refutes the claim without propagating; an empty
    fixed point empties every narrowed relation, and a solution found by
    descent keeps every relation non-empty.
    """
    return _decide(propagated.bcs, propagated._store, claim, DecisionMode.REFUTATION)[0]


def _refute(rel: _Store, x: int, y: int, stride: int) -> bool:
    """Propagate ``rel``, a fixed point's store narrowed at the pair (x, y),
    in place; True when that empties it. The greatest fixed point is
    monotone, so gfp(B and C) = gfp(gfp(B) and C), and only the narrowed
    pair is queued: every other relation is consistent already (the
    incremental step of PC-2, Mackworth 1977)."""
    _propagate(rel, [(min(x, y), max(x, y))], stride)
    # the loop empties every relation as soon as it empties one
    return not rel[x][y]


def pin(var: str, domain: Sequence[str], value: str) -> Correspondence:
    """A self-loop constraint forcing a variable to one value."""
    if value not in domain:
        raise InputError(f"cannot pin {var!r} to unknown value {value!r}")
    return Correspondence.from_pairs(var, var, domain, domain, [(value, value)])
