"""Builtin fusion rings, module categories, and quivers used by the test
suite and the CLI `--builtin` flag."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import OutOfRange
from .module import ActionLabel, ModuleCategory, validate_module
from .quiver import Edge, FusionQuiver, normalize
from .ring import FusionRing, validate


def _checked_ring(names, unit, N, dual=None) -> FusionRing:
    ring = FusionRing.from_data(names, unit, N, dual)
    rep = validate(ring)
    if not rep.ok:
        raise ValueError(f"builtin ring failed validation:\n{rep}")
    return ring


def _checked_module(ring, mnames, act) -> ModuleCategory:
    M = ModuleCategory.from_data(ring, mnames, act)
    rep = validate_module(M)
    if not rep.ok or rep.warnings:
        raise ValueError(f"builtin module failed validation:\n{rep}")
    return M


def ring_from_character_table(names, group_order, class_sizes, chars) -> FusionRing:
    """Fusion ring of representations of a finite group with a real character
    table: N[i][j][k] = (1/|G|) sum over classes of size * chi_i chi_j chi_k."""
    X = np.array(chars, dtype=np.int64)
    total = np.einsum("c,ic,jc,kc->ijk", np.array(class_sizes, dtype=np.int64), X, X, X)
    if (total % group_order).any():
        raise ValueError("character table is not integral")
    return _checked_ring(names, 0, (total // group_order).tolist())


@lru_cache(maxsize=None)
def vect() -> FusionRing:
    return _checked_ring(("1",), 0, (((1,),),))


@lru_cache(maxsize=None)
def rep_s2() -> FusionRing:
    return ring_from_character_table(
        ("1", "S"), 2, (1, 1), ((1, 1), (1, -1))
    )


@lru_cache(maxsize=None)
def rep_s3() -> FusionRing:
    # classes: e, transpositions (3), 3-cycles (2)
    return ring_from_character_table(
        ("1", "S", "V"),
        6,
        (1, 3, 2),
        ((1, 1, 1), (1, -1, 1), (2, 0, -1)),
    )


@lru_cache(maxsize=None)
def rep_s4() -> FusionRing:
    # classes: e, transpositions (6), double transpositions (3),
    # 3-cycles (8), 4-cycles (6)
    return ring_from_character_table(
        ("1", "sgn", "W", "V3", "V3p"),
        24,
        (1, 6, 3, 8, 6),
        (
            (1, 1, 1, 1, 1),
            (1, -1, 1, 1, -1),
            (2, 0, 2, -1, 0),
            (3, 1, -1, 0, -1),
            (3, -1, -1, 0, 1),
        ),
    )


@lru_cache(maxsize=None)
def fibonacci() -> FusionRing:
    # tau (x) tau = 1 (+) tau
    N = (
        ((1, 0), (0, 1)),
        ((0, 1), (1, 1)),
    )
    return _checked_ring(("1", "tau"), 0, N)


def _sl2_actions(level: int, edges) -> list:
    """U_0..U_level on the graph G with these edges: U_0 = I, U_1 = G and
    U_(j+1) = G U_j - U_(j-1), the actions of V_0..V_level on a module over
    the level-`level` sl2 ring whose V_1 acts by G's adjacency matrix."""
    n = 1 + max(map(max, edges))
    G = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        G[u, v] = G[v, u] = 1
    U = [np.eye(n, dtype=np.int64), G]
    for j in range(1, level):
        U.append(G @ U[j] - U[j - 1])
    return [u.tolist() for u in U]


@lru_cache(maxsize=None)
def verlinde_sl2(level: int) -> FusionRing:
    """Truncated sl2 fusion at a given level: simples V_0..V_level, V_j
    acting on the regular module by U_j of the path A_(level+1). Each U_j is
    symmetric, so N[i][j][k] = U_i[j][k]."""
    if level < 1:
        raise OutOfRange("level must be >= 1")
    names = tuple(f"V{i}" for i in range(level + 1))
    return _checked_ring(names, 0, _sl2_actions(level, [(i, i + 1) for i in range(level)]))


@lru_cache(maxsize=None)
def verlinde_typeD(level: int) -> ModuleCategory:
    """The type-D module over the level-`level` sl2 ring (level even): a
    half-length chain L_0..L_{level/2-1} ending in a fork L+, L-, on which
    V1 acts by the adjacency matrix of D_(level/2+2)."""
    if level < 2 or level % 2:
        raise OutOfRange("type-D module needs an even level >= 2")
    half = level // 2
    mnames = tuple(f"L{i}" for i in range(half)) + ("L+", "L-")
    edges = [(i, i + 1) for i in range(half - 1)] + [(half - 1, half), (half - 1, half + 1)]
    return _checked_module(verlinde_sl2(level), mnames, _sl2_actions(level, edges))


SL3AT5_NAMES = ("1", "X", "Y", "L20", "L11", "L02")


@lru_cache(maxsize=None)
def sl3at5_action() -> ActionLabel:
    """Action matrix of the generator X of the rank-6 sl3-at-level-5 style
    category on its simples (partial mode: only this matrix is known)."""
    names = SL3AT5_NAMES
    rules = {
        "1": ("X",),
        "X": ("Y", "L20"),
        "Y": ("1", "L11"),
        "L20": ("L11",),
        "L11": ("L02", "X"),
        "L02": ("Y",),
    }
    n = len(names)
    mat = [[0] * n for _ in range(n)]
    for src, outs in rules.items():
        for out in outs:
            mat[names.index(out)][names.index(src)] = 1
    return ActionLabel.from_rows(mat)


def _edge_quiver(ring, label_name, module=None) -> FusionQuiver:
    return normalize(
        FusionQuiver(
            vertices=("a", "b"),
            edges=(Edge(0, 1, ring.basis(label_name)),),
            ring=ring,
            module=module,
        )
    )


def s2_sign_quiver() -> FusionQuiver:
    return _edge_quiver(rep_s2(), "S")


def s3_std_quiver() -> FusionQuiver:
    return _edge_quiver(rep_s3(), "V")


def s4_std_quiver() -> FusionQuiver:
    return _edge_quiver(rep_s4(), "V3")


def fib_edge_quiver() -> FusionQuiver:
    return _edge_quiver(fibonacci(), "tau")


def fib_h4_quiver() -> FusionQuiver:
    """Directed chain on four vertices with labels tau, 1, 1."""
    ring = fibonacci()
    return normalize(
        FusionQuiver(
            vertices=("a", "b", "c", "d"),
            edges=(
                Edge(0, 1, ring.basis("tau")),
                Edge(1, 2, ring.basis("1")),
                Edge(2, 3, ring.basis("1")),
            ),
            ring=ring,
        )
    )


def verlinde_l4_quiver() -> FusionQuiver:
    return _edge_quiver(verlinde_sl2(4), "V1")


def verlinde_l4_typeD_quiver() -> FusionQuiver:
    return _edge_quiver(verlinde_sl2(4), "V1", verlinde_typeD(4))


def verlinde_l2_typeD_quiver() -> FusionQuiver:
    return _edge_quiver(verlinde_sl2(2), "V1", verlinde_typeD(2))


def sl3at5_x_quiver() -> FusionQuiver:
    return normalize(
        FusionQuiver(
            vertices=("s", "t"),
            edges=(Edge(0, 1, sl3at5_action()),),
            ring=None,
            mnames=SL3AT5_NAMES,
        )
    )


_CATALOG = {
    "vect": (vect, "ring"),
    "rep_s2": (rep_s2, "ring"),
    "rep_s3": (rep_s3, "ring"),
    "rep_s4": (rep_s4, "ring"),
    "fibonacci": (fibonacci, "ring"),
    "verlinde_sl2": (verlinde_sl2, "ring"),
    "verlinde_typeD": (verlinde_typeD, "module"),
    "sl3at5_action": (sl3at5_action, "label"),
    "s2_sign_quiver": (s2_sign_quiver, "quiver"),
    "s3_std_quiver": (s3_std_quiver, "quiver"),
    "s4_std_quiver": (s4_std_quiver, "quiver"),
    "fib_edge_quiver": (fib_edge_quiver, "quiver"),
    "fib_h4_quiver": (fib_h4_quiver, "quiver"),
    "verlinde_l4_quiver": (verlinde_l4_quiver, "quiver"),
    "verlinde_l4_typeD_quiver": (verlinde_l4_typeD_quiver, "quiver"),
    "verlinde_l2_typeD_quiver": (verlinde_l2_typeD_quiver, "quiver"),
    "sl3at5_x_quiver": (sl3at5_x_quiver, "quiver"),
}


def catalog_keys():
    return tuple(sorted(_CATALOG))


def catalog_kind(key: str) -> str:
    return _CATALOG[key][1]


def builtin(key: str, *params):
    """Construct a builtin object by key; parameterized entries (the Verlinde
    families) take the level as an extra argument."""
    if key not in _CATALOG:
        raise KeyError(f"unknown builtin {key!r}; known: {', '.join(catalog_keys())}")
    fn, _ = _CATALOG[key]
    return fn(*[int(p) for p in params])
