"""Semisimple module-category data over a fusion ring.

A module category is recorded by its action matrices: for each simple i of
the ring, ``act[i][l'][l]`` is the multiplicity of module-simple ``l'`` in
``S_i (x) L_l``.  All matrix products act on column coefficient vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MissingAction, OutOfRange, SignIncoherentInput
from .ring import (
    FusionRing,
    RingElement,
    ValidationReport,
    combination,
    exact_array,
    perron_eigenpair,
    row_blocks,
    wide,
)

ModuleElement = tuple  # tuple[int, ...] over Irr(M)


@dataclass(frozen=True)
class ActionLabel:
    """An edge label given only by its action matrix on Irr(M) (partial
    mode), with an optional explicit FP dimension."""

    matrix: tuple  # msize x msize nested tuples of non-negative ints
    fpdim_override: float | None = None

    def __post_init__(self):
        n = len(self.matrix)
        if any(len(row) != n or min(row, default=0) < 0 for row in self.matrix):
            raise OutOfRange("an action label is a square non-negative matrix")
        if not isinstance(self.fpdim_override, (int, float, type(None))):
            raise TypeError(f"an action label's fpdim is a number, not {self.fpdim_override!r}")

    @classmethod
    def from_rows(cls, rows, fpdim_override=None):
        return cls(
            matrix=tuple(tuple(int(x) for x in row) for row in rows),
            fpdim_override=fpdim_override,
        )

    def transpose(self) -> "ActionLabel":
        return ActionLabel(
            matrix=tuple(zip(*self.matrix)), fpdim_override=self.fpdim_override
        )

    def fpdim(self) -> float:
        if self.fpdim_override is not None:
            return self.fpdim_override
        lam, _ = perron_eigenpair(np.array(self.matrix, dtype=float))
        return lam


@dataclass(frozen=True)
class ModuleCategory:
    ring: FusionRing
    mnames: tuple
    act: tuple  # per ring simple: msize x msize nested tuples

    @classmethod
    def from_data(cls, ring, mnames, act):
        act = tuple(
            tuple(tuple(int(x) for x in row) for row in mat) for mat in act
        )
        return cls(ring=ring, mnames=tuple(mnames), act=act)

    @property
    def msize(self) -> int:
        return len(self.mnames)

    def basis(self, l) -> ModuleElement:
        if isinstance(l, str):
            l = self.mnames.index(l)
        if l not in range(self.msize):
            raise OutOfRange(f"module simple index {l!r} is outside 0..{self.msize - 1}")
        return tuple(1 if k == l else 0 for k in range(self.msize))

    @cached_property
    def tensor(self) -> np.ndarray:
        """The action matrices as one (rank, msize, msize) integer array (see
        exact_array; the width also covers the contraction with ring.N)."""
        r, n = len(self.act), self.msize
        return exact_array(self.act, (r, n, n), max(r, n))


def _graph_components(n, edges):
    """Connected components of the undirected graph on range(n) whose edges
    are (u, v, ...) tuples, in order of their least vertex: pairs of the
    sorted vertex tuple and the list of the component's edges."""
    adj = [set() for _ in range(n)]
    for u, v, *_ in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen, comps, where = set(), [], [0] * n
    for v in range(n):
        if v in seen:
            continue
        seen.add(v)
        comp, stack = [], [v]
        while stack:
            u = stack.pop()
            comp.append(u)
            where[u] = len(comps)
            fresh = adj[u] - seen
            seen |= fresh
            stack.extend(fresh)
        comps.append((tuple(sorted(comp)), []))
    for e in edges:
        comps[where[e[0]]][1].append(e)
    return comps


def validate_module(M: ModuleCategory) -> ValidationReport:
    rep = ValidationReport()
    ring = M.ring
    r, n = ring.rank, M.msize

    if ring.unit not in range(r):
        rep.violations.append(f"ring unit {ring.unit!r} is not a simple index")
    if len(ring.dual) != r or any(d not in range(r) for d in ring.dual):
        rep.violations.append("ring dual is not a list of simple indices")
    if len(M.act) != r:
        rep.violations.append("number of action matrices != ring rank")
    if rep.violations:
        return rep
    for i in range(r):
        if len(M.act[i]) != n or any(len(row) != n for row in M.act[i]):
            rep.violations.append(f"act[{i}] has wrong shape")
            return rep
        for row in M.act[i]:
            if min(row, default=0) < 0:
                rep.violations.append(f"act[{i}] has a negative entry")

    if len(ring.N) != r or any(len(m) != r or any(len(row) != r for row in m) for m in ring.N):
        rep.violations.append("ring N is not a rank x rank x rank tensor")
        return rep
    A, N = wide(M.tensor), wide(ring.tensor)
    if not np.array_equal(A[ring.unit], np.eye(n, dtype=np.int64)):
        rep.violations.append("act[unit] is not the identity")

    # act(S_i) act(S_j) against sum_k N[i][j][k] act(S_k), in blocks over i
    for b in row_blocks(r, r * n * n):
        bad = (A[b, None] @ A[None, :] != np.tensordot(N[b], A, 1)).any(axis=(2, 3))
        rep.violations += [
            f"action axiom fails at (i,j)=({b.start + i},{j})"
            for i, j in np.argwhere(bad).tolist()
        ]

    transposed = A[list(ring.dual)] != A.transpose(0, 2, 1)
    rep.violations += [
        f"transpose law fails at simple {i}"
        for i in np.flatnonzero(transposed.any(axis=(1, 2))).tolist()
    ]

    # connectedness of the union of action supports (warning only)
    support = (A > 0).any(axis=0)
    if len(_graph_components(n, np.argwhere(support | support.T).tolist())) != 1:
        rep.warnings.append("module appears decomposable (action support disconnected)")

    return rep


def regular_module(ring: FusionRing) -> ModuleCategory:
    """The ring acting on itself; act[i] is the left-multiplication matrix."""
    T = np.ascontiguousarray(ring.tensor.transpose(0, 2, 1))
    T.setflags(write=False)
    act = tuple(tuple(map(tuple, m)) for m in T.tolist())
    M = ModuleCategory(ring=ring, mnames=ring.names, act=act)
    M.__dict__["tensor"] = T  # fill the cached_property: same data, same width
    return M


def action_matrix_of(M: ModuleCategory, x: RingElement):
    """Matrix of the action of a ring element on column vectors over Irr(M),
    as an object array of Python ints."""
    return combination(M.tensor, x)


def act_on(M: ModuleCategory, x: RingElement, u: ModuleElement) -> ModuleElement:
    if len(x) != M.ring.rank or len(u) != M.msize:
        raise ValueError("dimension mismatch in module action")
    vec = np.array(u, dtype=object)
    out = action_matrix_of(M, x).dot(vec)
    return tuple(int(v) for v in out)


def sign_class(x) -> str:
    """Classify an integer vector as positive / zero / negative / incoherent."""
    has_pos = any(c > 0 for c in x)
    has_neg = any(c < 0 for c in x)
    if has_pos and has_neg:
        return "incoherent"
    if has_pos:
        return "positive"
    if has_neg:
        return "negative"
    return "zero"


def nonzero_action_check(M: ModuleCategory, x: RingElement, u: ModuleElement) -> bool:
    """Whether x annihilates u; for sign-coherent x and a nonzero object
    class u this holds exactly when x = 0."""
    if sign_class(x) == "incoherent":
        raise SignIncoherentInput("x has mixed-sign coefficients")
    if sign_class(u) != "positive":
        raise SignIncoherentInput("u must be a nonzero object class")
    return all(c == 0 for c in act_on(M, x, u))


def module_fpdims(M: ModuleCategory) -> tuple:
    """Common Perron eigenvector of the action matrices, normalized so the
    smallest simple has dimension 1."""
    _, v = perron_eigenpair(np.ascontiguousarray(M.tensor.sum(axis=0), dtype=float))
    return tuple(float(x) for x in v / v.min())


@dataclass(frozen=True)
class OrdinaryQuiver:
    """A plain directed multigraph with arrow multiplicities."""

    vertices: tuple  # names
    arrows: tuple  # (source index, target index, multiplicity)


def label_matrix(M: ModuleCategory | None, label):
    """The action matrix of an edge label on Irr(M), as an object array of
    Python ints: a partial-mode label's own matrix, or the action of a
    ring-element label, which needs the module."""
    if isinstance(label, ActionLabel):
        return np.array(label.matrix, dtype=object)
    if M is None:
        raise MissingAction("ring-element label with no module data")
    return action_matrix_of(M, label)


def mckay_quiver(M: ModuleCategory, label, separated: bool = False) -> OrdinaryQuiver:
    """McKay quiver of the module with respect to a label: an arrow L -> L'
    with multiplicity equal to the action-matrix entry at (L', L), diagonal
    included.  Separated mode returns the bipartite doubling."""
    mat = label_matrix(M, label)
    if len(mat) != M.msize:
        raise OutOfRange(f"a label's matrix does not act on the {M.msize} module simples")
    shift = M.msize if separated else 0
    arrows = tuple(
        (l, shift + lp, int(mat[lp, l])) for l, lp in np.argwhere(mat.T).tolist()
    )
    vertices = tuple(M.mnames)
    if separated:
        vertices = tuple(f"{side}:{nm}" for side in "st" for nm in vertices)
    return OrdinaryQuiver(vertices=vertices, arrows=arrows)
