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
    r = len(names)
    N = []
    for i in range(r):
        mat = []
        for j in range(r):
            row = []
            for k in range(r):
                total = sum(
                    sz * chars[i][c] * chars[j][c] * chars[k][c]
                    for c, sz in enumerate(class_sizes)
                )
                q, rem = divmod(total, group_order)
                if rem:
                    raise ValueError("character table is not integral")
                row.append(q)
            mat.append(row)
        N.append(mat)
    return _checked_ring(names, 0, N)


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


@lru_cache(maxsize=None)
def verlinde_sl2(level: int) -> FusionRing:
    """Truncated sl2 fusion at a given level: simples V_0..V_level with the
    usual parity- and level-bounded Clebsch-Gordan rule."""
    if level < 1:
        raise OutOfRange("level must be >= 1")
    r = level + 1
    names = tuple(f"V{i}" for i in range(r))
    N = [
        [
            [
                1
                if (
                    abs(i - j) <= k <= min(i + j, 2 * level - i - j)
                    and (i + j + k) % 2 == 0
                )
                else 0
                for k in range(r)
            ]
            for j in range(r)
        ]
        for i in range(r)
    ]
    return _checked_ring(names, 0, N)


@lru_cache(maxsize=None)
def verlinde_typeD(level: int) -> ModuleCategory:
    """The type-D module over the level-`level` sl2 ring (level even): a
    half-length chain L_0..L_{level/2-1} ending in a fork L+, L-."""
    if level < 2 or level % 2:
        raise OutOfRange("type-D module needs an even level >= 2")
    ring = verlinde_sl2(level)
    half = level // 2
    mnames = tuple(f"L{i}" for i in range(half)) + ("L+", "L-")
    # V1 acts by the adjacency matrix G of D_(half+2), and V_(j+1) = V1 V_j - V_(j-1)
    G = np.zeros((half + 2, half + 2), dtype=object)
    for u, v in [(i, i + 1) for i in range(half - 1)] + [(half - 1, half), (half - 1, half + 1)]:
        G[u, v] = G[v, u] = 1
    acts = [np.eye(half + 2, dtype=object), G]
    for j in range(1, level):
        acts.append(G.dot(acts[j]) - acts[j - 1])
    return _checked_module(ring, mnames, [a.tolist() for a in acts])


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
