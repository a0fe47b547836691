"""Semisimple module-category data over a fusion ring.

A module category is recorded by its action matrices: for each simple i of
the ring, ``act[i][l'][l]`` is the multiplicity of module-simple ``l'`` in
``S_i (x) L_l``.  All matrix products act on column coefficient vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MissingAction, OutOfRange
from .ring import (
    FusionRing,
    ValidationReport,
    as_int,
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
    mode); its FP dimension is the matrix's Perron eigenvalue."""

    matrix: tuple  # msize x msize nested tuples of non-negative ints

    def __post_init__(self):
        n = len(self.matrix)
        if any(len(row) != n or min(row, default=0) < 0 for row in self.matrix):
            raise OutOfRange("an action label is a square non-negative matrix")

    @classmethod
    def from_rows(cls, rows):
        return cls(tuple(tuple(map(as_int, row)) for row in rows))

    def transpose(self) -> "ActionLabel":
        return ActionLabel(tuple(zip(*self.matrix)))

    def fpdim(self) -> float:
        lam, _ = perron_eigenpair(np.array(self.matrix, dtype=float))
        return lam


@dataclass(frozen=True)
class ModuleCategory:
    ring: FusionRing
    mnames: tuple
    act: tuple  # per ring simple: msize x msize nested tuples

    @classmethod
    def from_data(cls, ring, mnames, act):
        act = tuple(tuple(tuple(map(as_int, row)) for row in mat) for mat in act)
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


def _connected_components(adj) -> list:
    """The connected components of the undirected graph on range(len(adj))
    whose vertex v has the neighbours adj[v] (any iterable, such as the keys
    of a {neighbour: weight} map), as sorted vertex tuples in order of their
    least vertex."""
    seen, comps = [False] * len(adj), []
    for v in range(len(adj)):
        if seen[v]:
            continue
        seen[v] = True
        comp, stack = [v], [v]
        while stack:
            for w in adj[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
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
    A, N = wide(M.tensor, ring.tensor), wide(ring.tensor, M.tensor)
    if not np.array_equal(A[ring.unit], np.eye(n)):
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
    adj = [np.flatnonzero(row).tolist() for row in support | support.T]
    if len(_connected_components(adj)) != 1:
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
    ring-element label, which needs the module and non-negative
    coefficients."""
    if isinstance(label, ActionLabel):
        return np.array(label.matrix, dtype=object)
    if M is None:
        raise MissingAction("ring-element label with no module data")
    if min(label, default=0) < 0:
        raise OutOfRange(f"label {label} does not have non-negative coefficients")
    return combination(M.tensor, label)


def action_arrows(rows, s, t) -> list:
    """The arrows (s + l, t + l', A[l'][l]) of an action A given by its rows,
    one per non-zero entry, ordered by l and then by l'."""
    columns = enumerate(zip(*rows))
    return [(s + l, t + lp, m) for l, column in columns for lp, m in enumerate(column) if m]


def mckay_quiver(M: ModuleCategory, label, separated: bool = False) -> OrdinaryQuiver:
    """McKay quiver of the module with respect to a label: an arrow L -> L'
    with multiplicity equal to the action-matrix entry at (L', L), diagonal
    included.  Separated mode returns the bipartite doubling."""
    mat = label_matrix(M, label)
    if len(mat) != M.msize:
        raise OutOfRange(f"a label's matrix does not act on the {M.msize} module simples")
    arrows = tuple(action_arrows(mat.tolist(), 0, M.msize if separated else 0))
    vertices = tuple(M.mnames)
    if separated:
        vertices = tuple(f"{side}:{nm}" for side in "st" for nm in vertices)
    return OrdinaryQuiver(vertices=vertices, arrows=arrows)
