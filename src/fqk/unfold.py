"""Unfolding a fusion quiver to an ordinary quiver on V x Irr(M), ADE
recognition of its components, the finite-type decision, the positive roots
of simply laced quivers, and the enumeration of indecomposable dimension
vectors as those roots folded back."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InconsistentVerdict, InfiniteComponent, InfiniteType, OutOfRange
from .module import ModuleCategory, action_arrows
from .quiver import (
    Classification,
    FusionQuiver,
    _own_module,
    classify_coxeter,
    coxeter_graph,
    simply_laced_components,
)
from .ring import fmt_m

ROOT_CLOSURE_CAP = 10**6
TYPE_TABLE_MEMO = 64  # distinct (type, vertex count) whose root table is kept

# positive-root counts of the simply laced types
ADE_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "D": lambda n: n * (n - 1),
    "E6": 36,
    "E7": 63,
    "E8": 120,
}


@dataclass(frozen=True)
class UnfoldedQuiver:
    qvertices: tuple  # fusion-quiver vertex names
    mnames: tuple  # module simple names
    vertices: tuple  # pairs (quiver-vertex index, module-simple index)
    arrows: tuple  # (source vertex index, target vertex index, multiplicity)

    @property
    def nv(self) -> int:
        return len(self.vertices)

    def vertex_names(self) -> tuple:
        return tuple(
            f"{self.qvertices[v]},{self.mnames[l]}" for v, l in self.vertices
        )


def unfold(Q: FusionQuiver, M: ModuleCategory | None = None) -> UnfoldedQuiver:
    """The ordinary quiver on pairs (vertex, module simple of Q's module): an
    arrow (s,L) -> (t,L') for each unit of the label's action multiplicity at
    (L',L).  M, when given, only restates Q's own module."""
    _own_module(Q, M)
    mnames = Q.module_names()
    n = len(mnames)
    vertices = tuple((v, l) for v in range(Q.nv) for l in range(n))
    arrows = []
    for e, rows in zip(Q.edges, Q.edge_actions):
        arrows += action_arrows(rows, e.source * n, e.target * n)
    return UnfoldedQuiver(
        qvertices=tuple(Q.vertices),
        mnames=mnames,
        vertices=vertices,
        arrows=tuple(arrows),
    )


def components(U) -> Classification:
    """The A/D/E or infinite components of the underlying undirected
    multigraph of an unfolded or ordinary quiver."""
    return Classification(tuple(simply_laced_components(len(U.vertices), U.arrows)))


@dataclass(frozen=True)
class FiniteTypeVerdict:
    finite: bool
    gamma: Classification  # the same for every module, by Perron-Frobenius
    unfolded: Classification

    def __str__(self) -> str:
        """The line `fqk classify` prints."""
        status = "finite" if self.finite else "infinite"
        gamma = ", ".join(self.gamma.type_names())
        comps = ", ".join(
            f"{c.type_name} (h={fmt_m(c.coxeter_number)}, {fmt_m(c.positive_root_count)} roots)"
            for c in self.unfolded.components
        )
        return f"{status}; Gamma = {gamma}; unfolded = {comps}"


def is_finite_type(Q: FusionQuiver) -> FiniteTypeVerdict:
    """Decide finite representation type two ways — by the Coxeter graph of
    Q's labels (the same for every module) and by ADE recognition of the
    unfolding over Q's module — cross-checked per Coxeter-graph component."""
    return _cross_checked(Q, unfold(Q))


def _cross_checked(Q: FusionQuiver, U: UnfoldedQuiver) -> FiniteTypeVerdict:
    """is_finite_type on the unfolding U of Q."""
    gamma = classify_coxeter(coxeter_graph(Q))
    rep = components(U)

    # map each unfolded component to the Coxeter-graph component of its
    # projection (v, L) -> v
    gcomp_of_vertex = {}
    for gi, g in enumerate(gamma.components):
        for v in g.vertices:
            gcomp_of_vertex[v] = gi
    by_gcomp: dict = {gi: [] for gi in range(len(gamma.components))}
    for c in rep.components:
        projected = {gcomp_of_vertex[U.vertices[i][0]] for i in c.vertices}
        if len(projected) != 1:
            raise InconsistentVerdict(
                "an unfolded component projects onto several Coxeter-graph components"
            )
        by_gcomp[projected.pop()].append(c)

    for gi, g in enumerate(gamma.components):
        ucomps = by_gcomp[gi]
        ufinite = all(c.finite for c in ucomps)
        if ufinite != g.finite:
            raise InconsistentVerdict(
                f"Coxeter-graph verdict and unfolded verdict disagree on component {gi}"
            )
        if g.finite:
            hs = {c.coxeter_number for c in ucomps}
            if hs and hs != {g.coxeter_number}:
                raise InconsistentVerdict(
                    f"unfolded Coxeter numbers {hs} != graph Coxeter number "
                    f"{g.coxeter_number} on component {gi}"
                )

    return FiniteTypeVerdict(finite=gamma.finite, gamma=gamma, unfolded=rep)


def positive_roots_simply_laced(U) -> frozenset:
    """All positive roots of a disjoint union of finite ADE quivers (unfolded
    or ordinary), listed per component by its type and checked against Gabriel's table."""
    return frozenset(map(tuple, _root_array(U, components(U)).tolist()))


def _root_array(U, rep: Classification) -> np.ndarray:
    """positive_roots_simply_laced on the classification rep of U, as int8 rows."""
    if not rep.finite:
        raise InfiniteComponent("some component is not finite ADE")
    count = rep.total_root_count()
    if count > ROOT_CLOSURE_CAP:
        raise OutOfRange(f"{count} positive roots exceed the cap of {ROOT_CLOSURE_CAP}")
    out = np.zeros((count, len(U.vertices)), dtype=np.int8)
    r = 0
    for c in rep.components:
        name, k = c.type_name, len(c.vertices)
        t = _type_table(name, k)
        table = ADE_ROOT_COUNTS[name] if name[0] == "E" else ADE_ROOT_COUNTS[name[0]](k)
        if not len(t) == table == c.positive_root_count:
            raise InconsistentVerdict(
                f"found {len(t)} roots on {name}, table says {table}, "
                f"n*h/2 = {c.positive_root_count}"
            )
        out[r:r + len(t), list(c.order)] = t
        r += len(t)
    return out


@lru_cache(maxsize=TYPE_TABLE_MEMO)
def _type_table(name, k) -> np.ndarray:
    """The positive roots of the ADE type `name` on k vertices in arm order, one
    per row.  Read-only (np.frombuffer), so every caller shares one table; the
    TYPE_TABLE_MEMO most recent types keep theirs."""
    rows = _e_roots(name) if name[0] == "E" else (_a_roots, _d_roots)[name[0] == "D"](range(k), k)
    return np.frombuffer(b"".join(map(bytes, rows)), dtype=np.int8).reshape(-1, k)


def _runs(y, vertices):
    """Set y[v] = 1 for each v of `vertices` in turn, yielding y after each."""
    for v in vertices:
        y[v] = 1
        yield tuple(y)


def _a_roots(order, nv):
    """A_n: the indicator vectors of the intervals of the path `order`
    (Bourbaki, Lie Groups and Lie Algebras, ch. VI, plate I)."""
    for i in range(len(order)):
        yield from _runs([0] * nv, order[i:])


def _d_roots(order, nv):
    """D_n (plate IV): the indicator vectors of the connected subgraphs, and
    a_i + ... + a_(j-1) + 2(a_j + ... + a_(n-2)) + a_(n-1) + a_n, i < j <= n-2."""
    *chain, a, b = order  # chain ends at the branch vertex, a and b its leaves
    yield from _a_roots((*chain, a), nv)  # without b
    yield from _runs([0] * nv, (b, *chain[::-1]))  # with b, without a
    y = [0] * nv
    y[a] = y[b] = 1
    for j in reversed(range(len(chain))):  # with both, and 2s on chain[j + 1:]
        yield from _runs(y.copy(), chain[j::-1])
        y[chain[j]] = 2


def _e_roots(name) -> tuple:
    """The positive roots of E6, E7 or E8 in arm order, closed from the simple
    roots under the reflections that raise an entry."""
    n = int(name[1:])
    edges = [(i, i + 1) for i in range(n - 4)] + [(n - 4, n - 3), (n - 4, n - 2), (n - 2, n - 1)]
    nbrs = [[u + v - i for u, v in edges if i in (u, v)] for i in range(n)]
    found, frontier = set(), [tuple(int(i == j) for j in range(n)) for i in range(n)]
    while frontier:
        x = frontier.pop()
        if x not in found:
            found.add(x)
            raised = ((i, sum(x[j] for j in around) - x[i]) for i, around in enumerate(nbrs))
            frontier += [x[:i] + (y,) + x[i + 1:] for i, y in raised if y > x[i]]
    return tuple(found)


def fold_root(U, root: tuple) -> tuple:
    """Fold an unfolded positive root back to a dimension vector: the module
    coefficient at quiver vertex v collects the root entries over (v, L)."""
    if len(root) != len(U.vertices):
        raise OutOfRange(f"a root of {len(root)} entries on {len(U.vertices)} unfolded vertices")
    return tuple(zip(*[iter(root)] * len(U.mnames)))


def enumerate_indecomposables(Q: FusionQuiver):
    """Dimension vectors of all indecomposable representations of a
    finite-type quiver: positive roots of the unfolding, folded back, sorted
    lexicographically."""
    U = unfold(Q)
    verdict = _cross_checked(Q, U)
    if not verdict.finite:
        raise InfiniteType("quiver is of infinite representation type")
    return _sorted_dimvecs(_root_array(U, verdict.unfolded), len(U.mnames))


def _sorted_dimvecs(rows, m: int) -> list:
    """int8 rows, flattened vertex-major with m coefficients per block, as sorted
    tuple-of-tuples dimension vectors in which equal blocks are one tuple.  Ranks
    order blocks as tuples do, so the sorted rows of ranks give the sorted
    vectors, gathered 2**16 blocks at a time."""
    if not rows.size:  # rows without blocks, or no row: nothing to rank or sort
        return [()] * len(rows)
    distinct, ranks = _lex_ranks(rows.reshape(len(rows), -1, m))
    shared = np.fromiter(map(tuple, distinct.tolist()), dtype=object, count=len(distinct))
    parts = np.array_split(ranks[np.lexsort(ranks.T[::-1])], 1 + (ranks.size >> 16))
    return [x for part in parts for x in map(tuple, shared[part].tolist())]


def _lex_ranks(rows) -> tuple:
    """The distinct vectors along the last axis, in lexicographic order, and each vector's rank."""
    radix = int(rows.max()) + 1
    distinct, ranks = np.zeros((1, 0), dtype=rows.dtype), np.zeros(rows.shape[:-1], dtype=np.intp)
    for column in np.moveaxis(rows, -1, 0):
        keys = ranks * radix + column  # (prefix rank, entry) pairs, ordered as tuples are
        seen = np.bincount(keys.ravel(), minlength=len(distinct) * radix) > 0
        kept = np.flatnonzero(seen)
        distinct = np.column_stack([distinct[kept // radix], kept % radix])
        ranks = (np.cumsum(seen) - 1)[keys]
    return distinct, ranks
