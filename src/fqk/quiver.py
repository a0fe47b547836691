"""Fusion quivers, normalization, sink/source reflection, the Coxeter graph
read from integer actions, and the finite-Coxeter-type classifier."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import InconsistentVerdict, MissingAction, NotReflectable, OutOfRange
from .module import (
    ActionLabel,
    ModuleCategory,
    _connected_components,
    action_arrows,
    label_matrix,
    regular_module,
)
from .ring import FusionRing, INFINITY, TOL, as_int, dual as ring_dual

LABEL_ORDER_MEMO = 256  # distinct summed actions whose Coxeter label m is kept


@dataclass(frozen=True)
class Edge:
    source: int
    target: int
    label: object  # RingElement tuple or ActionLabel


@dataclass(frozen=True)
class FusionQuiver:
    """Construction resolves, once and outside the fields: the module (its
    own, else the ring's regular module, else none), its simple names (else
    `mnames`, else the labels' common size) and `edge_actions`, each edge's
    action matrix on those simples as a tuple of rows of Python ints.  The
    module is chosen here and nowhere else: to act on another, build the
    quiver with module=M or call replace(Q, module=M)."""

    vertices: tuple  # names
    edges: tuple  # of Edge
    ring: FusionRing | None = None
    module: ModuleCategory | None = None
    mnames: tuple | None = None  # display names for partial mode

    def __post_init__(self):
        M = self.module
        if M is None and self.ring is not None:
            M = regular_module(self.ring)
        if M is not None and len(M.act) != M.ring.rank:
            raise OutOfRange("number of action matrices != ring rank")
        if self.ring is not None and self.module is not None and self.module.ring != self.ring:
            raise OutOfRange("the module is not over the quiver's ring")
        for e in self.edges:
            if not (0 <= e.source < self.nv and 0 <= e.target < self.nv):
                raise OutOfRange(
                    f"edge {e.source} -> {e.target} has an endpoint outside range({self.nv})"
                )
            if isinstance(e.label, ActionLabel):
                continue
            if self.ring is None:
                raise MissingAction(f"ring-element label {e.label} on a quiver with no ring")
            if len(e.label) != self.ring.rank:
                raise OutOfRange(f"label {e.label} is not {self.ring.rank} coefficients")
        actions = tuple(tuple(map(tuple, label_matrix(M, e.label).tolist())) for e in self.edges)
        mnames = M.mnames if M is not None else self.mnames
        if mnames is None:
            sizes = {len(rows) for rows in actions}
            if len(sizes) != 1:
                raise OutOfRange(f"labels of sizes {sorted(sizes)} fix no module size")
            mnames = tuple(f"L{k}" for k in range(sizes.pop()))
        if any(len(rows) != len(mnames) for rows in actions):
            raise OutOfRange(f"a label's matrix does not act on the {len(mnames)} module simples")
        object.__setattr__(self, "_module", M)
        object.__setattr__(self, "_mnames", tuple(mnames))
        object.__setattr__(self, "edge_actions", actions)

    @property
    def nv(self) -> int:
        return len(self.vertices)

    @property
    def partial_mode(self) -> bool:
        return self.ring is None or any(
            isinstance(e.label, ActionLabel) for e in self.edges
        )

    def resolved_module(self) -> ModuleCategory | None:
        return self._module

    def module_names(self) -> tuple:
        return self._mnames


def _own_module(Q: FusionQuiver, M: ModuleCategory | None) -> None:
    """Reject an M other than Q's own module: a caller may restate the module
    a quiver acts on, never choose another one."""
    if M is not None and M != Q.resolved_module():
        raise OutOfRange("a quiver acts on its own module: build it with module=M or replace(Q, module=M)")


def _zero_label(label) -> bool:
    if isinstance(label, ActionLabel):
        return all(all(x == 0 for x in row) for row in label.matrix)
    return all(x == 0 for x in label)


def _add_labels(a, b):
    if isinstance(a, ActionLabel) != isinstance(b, ActionLabel):
        raise OutOfRange("cannot merge a ring-element label with a matrix label")
    if isinstance(a, ActionLabel):
        return ActionLabel.from_rows(
            [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.matrix, b.matrix)]
        )
    return tuple(x + y for x, y in zip(a, b))


def normalize(Q: FusionQuiver) -> FusionQuiver:
    """Merge parallel same-direction edges by label addition and drop
    zero-labeled edges; idempotent, and Q itself when nothing merges or drops."""
    merged: dict = {}
    for e in Q.edges:
        key = (e.source, e.target)
        merged[key] = _add_labels(merged[key], e.label) if key in merged else e.label
    kept = {key: label for key, label in merged.items() if not _zero_label(label)}
    if len(kept) == len(Q.edges):
        return Q
    return replace(Q, edges=tuple(Edge(s, t, label) for (s, t), label in kept.items()))


def dual_label(Q: FusionQuiver, label):
    if isinstance(label, ActionLabel):
        return label.transpose()
    return ring_dual(Q.ring, label)


def _check_vertex(Q: FusionQuiver, v: int) -> None:
    if not 0 <= v < Q.nv:
        raise OutOfRange(f"vertex {v} outside 0..{Q.nv - 1}")


def is_sink(Q: FusionQuiver, v: int) -> bool:
    return all(e.source != v for e in Q.edges)


def is_source(Q: FusionQuiver, v: int) -> bool:
    return all(e.target != v for e in Q.edges)


def reflect_quiver(Q: FusionQuiver, v: int) -> FusionQuiver:
    """Reverse all arrows abutting a sink or source vertex, replacing their
    labels by the dual class (matrix transpose in partial mode)."""
    _check_vertex(Q, v)
    if any(e.source == v and e.target == v for e in Q.edges):
        raise NotReflectable(f"vertex {v} carries a loop")
    if not (is_sink(Q, v) or is_source(Q, v)):
        raise NotReflectable(f"vertex {v} is neither a sink nor a source")
    edges = tuple(
        Edge(e.target, e.source, dual_label(Q, e.label))
        if v in (e.source, e.target)
        else e
        for e in Q.edges
    )
    return replace(Q, edges=edges)


@dataclass(frozen=True)
class CoxeterGraph:
    vertices: tuple
    edges: tuple  # (u, v, m) with u <= v, one per pair, m an integer >= 3 or INFINITY

    def __post_init__(self):
        """Reject an endpoint outside the vertices, a pair listed twice and an
        m that is neither an integer >= 3 nor INFINITY (a bool is no integer)."""
        vs = range(len(self.vertices))
        try:
            ok = all(
                as_int(u) in vs and as_int(v) in vs and (m == INFINITY or as_int(m) >= 3)
                for u, v, m in self.edges
            )
        except TypeError:
            ok = False
        if not ok or len({(u, v) if u <= v else (v, u) for u, v, _ in self.edges}) != len(self.edges):
            raise OutOfRange(
                f"Coxeter edges {self.edges}: an endpoint outside {vs}, a pair listed "
                "twice or an m that is not an integer >= 3 or INFINITY"
            )


@lru_cache(maxsize=LABEL_ORDER_MEMO)
def _label_order(rows):
    """The m with 2cos(pi/m) = FPdim of a label, read from its integer action
    A (rows): by Smith's theorem the one-edge unfolding, the bipartite graph
    with A[l'][l] edges l -> l', has spectral radius 2cos(pi/h) exactly when
    every component is A/D/E of Coxeter number h. INFINITY when none is; by
    Perron-Frobenius an action has one or the other, so a mix is rejected.
    `rows` is a tuple of tuples; the LABEL_ORDER_MEMO most recent actions
    keep their m (a rejection is not kept)."""
    n = len(rows)
    hs = {c.coxeter_number for c in simply_laced_components(2 * n, action_arrows(rows, 0, n))}
    if len(hs) != 1:
        raise OutOfRange(f"a label's unfolding mixes Coxeter numbers {sorted(hs)}")
    return hs.pop()


def coxeter_graph(Q: FusionQuiver) -> CoxeterGraph:
    """The graph Gamma of a quiver: each edge of the underlying undirected
    graph weighted by the m with 2cos(pi/m) = FPdim of its label, m = 2
    dropped, in first-appearance order over Q.edges. m is read from the
    integer action summed over the vertex pair (A for u -> v, its transpose
    for v -> u)."""
    acc = {}
    for e, rows in zip(Q.edges, Q.edge_actions):
        if e.source > e.target:
            rows = tuple(zip(*rows))
        key = (min(e.source, e.target), max(e.source, e.target))
        if key in acc:
            rows = tuple(tuple(x + y for x, y in zip(a, b)) for a, b in zip(acc[key], rows))
        acc[key] = rows
    weighted = [(u, v, _label_order(rows)) for (u, v), rows in acc.items()]
    return CoxeterGraph(Q.vertices, tuple(e for e in weighted if e[2] != 2))


@dataclass(frozen=True)
class Component:
    """A connected component of Gamma or of an unfolding: its finite Coxeter
    type, or "infinite". A finite irreducible type of Coxeter number h on n
    vertices has n*h/2 positive roots (Humphreys, Reflection Groups and
    Coxeter Groups, 1990, 3.18)."""

    vertices: tuple  # vertex indices, sorted
    type_name: str  # e.g. "A4", "I2(5)", "infinite"
    coxeter_number: object  # int or INFINITY
    positive_root_count: object  # int or INFINITY
    order: tuple = ()  # the vertices in arm order (_coxeter_pattern); () when infinite

    @property
    def finite(self) -> bool:
        return self.coxeter_number != INFINITY


@dataclass(frozen=True)
class Classification:
    components: tuple  # of Component

    @property
    def finite(self) -> bool:
        return all(c.finite for c in self.components)

    def type_names(self) -> tuple:
        return tuple(c.type_name for c in self.components)

    def total_root_count(self):
        return sum(c.positive_root_count for c in self.components)


def _posdef(gram) -> bool:
    """Positive definiteness by one Cholesky (LDL^T) factorization, whose
    pivots are the squares of L's diagonal; a pivot below TOL counts as not
    positive definite (an affine graph's last pivot is 0 up to rounding)."""
    try:
        L = np.linalg.cholesky(np.array(gram, dtype=float))
    except np.linalg.LinAlgError:  # a pivot <= 0
        return False
    return bool(np.diagonal(L).min() ** 2 >= TOL)


def _coxeter_pattern(comp, adj):
    """Name a connected Coxeter-graph component from the finite table: (name,
    Coxeter number, vertices in arm order), or None (infinite type).  Arm order
    walks a path end to end, a branched tree from the far end of its longest
    arm to the branch vertex, then out along the other arms, shortest first.

    `comp` is the sorted vertex tuple; `adj[v]` the {neighbour: m} map of v."""
    n = len(comp)
    if any(v in adj[v] for v in comp):
        return None  # a loop puts 2 - 2 FPdim <= 0 on the Gram diagonal
    if n == 1:
        return "A1", 2, comp
    degs = {v: len(adj[v]) for v in comp}
    if sum(degs.values()) != 2 * (n - 1):
        return None  # a connected non-tree has a cycle: never finite
    high = [(u, v, m) for u in comp for v, m in adj[u].items() if u < v and m > 3]
    if any(m == INFINITY for _, _, m in high):
        return None

    if max(degs.values()) >= 4 or sum(1 for v in comp if degs[v] == 3) >= 2:
        return None
    branch = [v for v in comp if degs[v] == 3]

    def arms(c):  # shortest first, each walked outwards from c
        out = []
        for w in adj[c]:
            arm = [c, w]
            while degs[arm[-1]] == 2:
                arm.append(next(x for x in adj[arm[-1]] if x != arm[-2]))
            out.append(arm[1:])
        return sorted(out, key=len)

    if branch:
        if high:
            return None
        short, middle, long = arms(branch[0])
        order = (*long[::-1], branch[0], *short, *middle)
        a, b, c = map(len, (short, middle, long))
        if a == b == 1:
            return f"D{n}", 2 * n - 2, order
        if (a, b) == (1, 2) and c in (2, 3, 4):
            return (*{2: ("E6", 12), 3: ("E7", 18), 4: ("E8", 30)}[c], order)
        return None

    end = min(v for v in comp if degs[v] == 1)
    order = (end, *arms(end)[0])  # the path, from its least end
    if not high:
        return f"A{n}", n + 1, order
    if len(high) > 1:
        return None
    u, v, m = high[0]
    at_leaf = degs[u] == 1 or degs[v] == 1
    if m == 4:
        if at_leaf:
            return f"B{n}", 2 * n, order
        if n == 4:  # the only interior-4 finite path
            return "F4", 12, order
        return None
    if m == 5 and at_leaf:
        if n == 2:
            return "I2(5)", 5, order
        if n == 3:
            return "H3", 10, order
        if n == 4:
            return "H4", 30, order
        return None
    if n == 2:
        m = int(m)
        if m == 6:
            return "G2", 6, order
        return f"I2({m})", m, order
    return None


def _component(comp, adj) -> Component:
    """The Component on the sorted vertex tuple `comp` of the Coxeter graph
    with the {neighbour: m} maps `adj`, named by _coxeter_pattern."""
    named = _coxeter_pattern(comp, adj)
    if named is None:
        return Component(comp, "infinite", INFINITY, INFINITY)
    name, h, order = named
    return Component(comp, name, h, len(comp) * h // 2, order)


def simply_laced_components(n, arrows):
    """The Components of the undirected multigraph on range(n) with the
    (s, t, multiplicity) arrows, multiplicities summed over each unordered
    pair, in order of their least vertex. As a Coxeter graph a single edge
    has m = 3 and a multiple one m = INFINITY, so a component with a loop or
    a multiple edge is infinite."""
    adj = [{} for _ in range(n)]
    for s, t, k in arrows:
        adj[s][t] = adj[t][s] = adj[s].get(t, 0) + k
    for nbrs in adj:
        for w, k in nbrs.items():
            nbrs[w] = 3 if k == 1 else INFINITY
    for comp in _connected_components(adj):
        yield _component(comp, adj)


def classify_coxeter(G: CoxeterGraph) -> Classification:
    """Classify each connected component of a Coxeter graph as a named finite
    type or infinite, cross-checking the pattern match against positive
    definiteness of the associated symmetric form."""
    adj = [{} for _ in G.vertices]
    for u, v, m in G.edges:
        adj[u][v] = adj[v][u] = m
    out = []
    for comp in _connected_components(adj):
        idx = {v: i for i, v in enumerate(comp)}
        gram = 2.0 * np.eye(len(comp))
        for u in comp:
            for v, m in adj[u].items():
                f = 2.0 if m == INFINITY else 2 * math.cos(math.pi / m)
                gram[idx[u], idx[v]] -= f * (1 + (u == v))  # a loop: twice on the diagonal
        c = _component(comp, adj)
        if c.finite != _posdef(gram):
            raise InconsistentVerdict(
                f"pattern match and positive definiteness disagree on {comp}"
            )
        out.append(c)
    return Classification(components=tuple(out))


def admissible_sink_ordering(Q: FusionQuiver):
    """An ordering of vertices in which each is a sink once all earlier ones
    have been reflected; None when the quiver has a loop or directed cycle."""
    if any(e.source == e.target for e in Q.edges):
        return None
    remaining = set(range(Q.nv))
    order = []
    while remaining:
        sinks = [
            v
            for v in sorted(remaining)
            if all(e.source != v or e.target not in remaining for e in Q.edges)
        ]
        if not sinks:
            return None
        order.append(sinks[0])
        remaining.remove(sinks[0])
    return tuple(order)
