"""Unfolding a fusion quiver to an ordinary quiver on V x Irr(M), ADE
recognition of its components, the finite-type decision, the positive roots
of simply laced quivers, and the enumeration of indecomposable dimension
vectors as those roots folded back."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InconsistentVerdict, InfiniteComponent, InfiniteType
from .module import ModuleCategory, action_arrows
from .quiver import (
    CoxeterClassification,
    FusionQuiver,
    _with_module,
    classify_coxeter,
    coxeter_graph,
    simply_laced_components,
)
from .ring import INFINITY, fmt_m

ROOT_CLOSURE_CAP = 10**6

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
    """The ordinary quiver on pairs (vertex, module simple): an arrow
    (s,L) -> (t,L') for each unit of the label's action multiplicity at
    (L',L)."""
    Q = _with_module(Q, M)
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


@dataclass(frozen=True)
class UnfoldedComponent:
    vertices: tuple  # sorted unfolded-vertex indices
    simply_laced: bool
    type_name: str  # "A4", "D5", "E8", or "infinite"
    finite: bool
    coxeter_number: object  # int or inf
    positive_root_count: object  # int or inf


@dataclass(frozen=True)
class ComponentReport:
    components: tuple  # of UnfoldedComponent

    @property
    def finite(self) -> bool:
        return all(c.finite for c in self.components)

    def type_names(self) -> tuple:
        return tuple(c.type_name for c in self.components)

    def total_root_count(self):
        if not self.finite:
            return INFINITY
        return sum(c.positive_root_count for c in self.components)


def components(U) -> ComponentReport:
    """Connected components of the underlying undirected multigraph of an
    unfolded or ordinary quiver, each recognized as a finite ADE type (path /
    branched-tree arm analysis) or reported infinite."""
    out = []
    for comp, simple, named in simply_laced_components(len(U.vertices), U.arrows):
        if named is None:
            out.append(UnfoldedComponent(comp, simple, "infinite", False, INFINITY, INFINITY))
            continue
        name, h = named
        if name[0] in "AD":
            roots = ADE_ROOT_COUNTS[name[0]](len(comp))
        elif name in ADE_ROOT_COUNTS:
            roots = ADE_ROOT_COUNTS[name]
        else:
            # simply laced labels can only pattern-match A/D/E
            raise InconsistentVerdict(f"unexpected simply laced type {name}")
        out.append(UnfoldedComponent(comp, True, name, True, h, roots))
    return ComponentReport(components=tuple(out))


@dataclass(frozen=True)
class FiniteTypeVerdict:
    finite: bool
    gamma: CoxeterClassification  # the same for every module, by Perron-Frobenius
    unfolded: ComponentReport

    def __str__(self) -> str:
        """The line `fqk classify` prints."""
        status = "finite" if self.finite else "infinite"
        gamma = ", ".join(self.gamma.type_names())
        comps = ", ".join(
            f"{c.type_name} (h={fmt_m(c.coxeter_number)}, {fmt_m(c.positive_root_count)} roots)"
            for c in self.unfolded.components
        )
        return f"{status}; Gamma = {gamma}; unfolded = {comps}"


def is_finite_type(Q: FusionQuiver, M: ModuleCategory | None = None) -> FiniteTypeVerdict:
    """Decide finite representation type two ways — by the Coxeter graph of
    Q's labels (the same for every module) and by ADE recognition of the
    unfolding over M — cross-checked per Coxeter-graph component."""
    return _cross_checked(Q, unfold(Q, M))


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
    """All positive roots of a disjoint union of finite ADE quivers (an
    unfolded or an ordinary quiver).  Each component is closed from its simple
    roots, in its own coordinates, under the reflections
    x -> x - (2 x_i - sum of neighbor entries) e_i that raise x_i; the
    closure must reach the table's root count, and is then embedded."""
    return _roots(U, components(U))


def _roots(U, rep: ComponentReport) -> frozenset:
    """positive_roots_simply_laced on the component report rep of U."""
    if not rep.finite:
        raise InfiniteComponent("some component is not finite ADE")
    if rep.total_root_count() > ROOT_CLOSURE_CAP:
        raise InfiniteComponent("root closure exceeded the cap")
    nv = len(U.vertices)
    adj = [[] for _ in range(nv)]
    for s, t, _ in U.arrows:  # finite components are simple graphs
        adj[s].append(t)
        adj[t].append(s)
    roots = []
    for c in rep.components:
        local = {v: i for i, v in enumerate(c.vertices)}
        nbrs = [[local[w] for w in adj[v]] for v in c.vertices]
        k, want = len(nbrs), c.positive_root_count
        found = {tuple(int(i == j) for j in range(k)) for i in range(k)}
        frontier = list(found)
        while frontier and len(found) <= want:
            x = frontier.pop()
            for i, around in enumerate(nbrs):
                yi = sum(x[j] for j in around) - x[i]
                if yi > x[i]:
                    y = x[:i] + (yi,) + x[i + 1:]
                    if y not in found:
                        found.add(y)
                        frontier.append(y)
        if len(found) != want:
            raise InconsistentVerdict(
                f"closure found {len(found)} roots on {c.type_name}, table says {want}"
            )
        for x in found:
            y = [0] * nv
            for v, a in zip(c.vertices, x):
                y[v] = a
            roots.append(tuple(y))
    return frozenset(roots)


def fold_root(U, root: tuple) -> tuple:
    """Fold an unfolded positive root back to a dimension vector: the module
    coefficient at quiver vertex v collects the root entries over (v, L)."""
    nm = len(U.mnames)
    return tuple(root[v * nm:(v + 1) * nm] for v in range(len(U.qvertices)))


def unfold_coords(x) -> tuple:
    """Flatten a dimension vector to unfolded coordinates (vertex-major)."""
    return tuple(c for a in x for c in a)


def enumerate_indecomposables(Q: FusionQuiver, M: ModuleCategory | None = None):
    """Dimension vectors of all indecomposable representations of a
    finite-type quiver: positive roots of the unfolding, folded back, sorted
    lexicographically."""
    U = unfold(Q, M)
    verdict = _cross_checked(Q, U)
    if not verdict.finite:
        raise InfiniteType("quiver is of infinite representation type")
    return sorted(fold_root(U, r) for r in _roots(U, verdict.unfolded))
