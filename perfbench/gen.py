"""Seeded inputs for the fqk benchmark, each carrying its known answer.

Every workload is a fixed cycle of *slots*.  A slot fixes the size class of
its input (ring rank, quiver shape and ring family, CLI command); the seed
varies everything that should not change the amount of work: basis order,
edge orientation, vertex order, the choice between labels of equal FP
dimension, Deligne factorisations and file contents.  Runs with different
seeds therefore do comparable work, and each run covers whole cycles.

Known answers come from closed forms of the family an input is drawn from,
never from fqk itself: Verlinde FP dimensions, Gabriel's root counts of the
ADE types, and the unfolded types of the B, H and I2 families.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, fields

import numpy as np

# ---------------------------------------------------------------------------
# rings


@dataclass(frozen=True, eq=False)
class RingSpec:
    family: str  # "verlinde(L)" or "deligne(L1xL2)"
    names: tuple
    unit: int
    N: np.ndarray  # rank x rank x rank structure constants
    dims: tuple  # closed-form FP dimension per simple


FIBONACCI = (((1, 0), (0, 1)), ((0, 1), (1, 1)))  # tau (x) tau = 1 + tau


def verlinde_tensor(level: int) -> np.ndarray:
    """Truncated sl2 fusion rules at `level` (simples V_0..V_level)."""
    i, j, k = np.ogrid[: level + 1, : level + 1, : level + 1]
    rule = (abs(i - j) <= k) & (k <= np.minimum(i + j, 2 * level - i - j)) & ((i + j + k) % 2 == 0)
    return rule.astype(np.int64)


def verlinde_dims(level: int) -> list:
    """FPdim V_j = sin((j+1)pi/(L+2)) / sin(pi/(L+2))."""
    q = math.pi / (level + 2)
    return [math.sin((j + 1) * q) / math.sin(q) for j in range(level + 1)]


def deligne_tensor(N1, N2) -> np.ndarray:
    """Structure tensor of the Deligne product, basis (a, b) row-major."""
    r = len(N1) * len(N2)
    return np.einsum("ace,bdf->abcdef", N1, N2).reshape(r, r, r)


def ring_spec(rng: random.Random, levels: tuple) -> RingSpec:
    """A Verlinde ring (one level) or a Deligne product (two levels) with a
    seeded basis order; the unit lands wherever the permutation sends it."""
    if len(levels) == 1:
        (L,) = levels
        names = [f"V{j}" for j in range(L + 1)]
        N, dims, family = verlinde_tensor(L), verlinde_dims(L), f"verlinde({L})"
    else:
        L1, L2 = levels
        names = [f"V{a}.W{b}" for a in range(L1 + 1) for b in range(L2 + 1)]
        N = deligne_tensor(verlinde_tensor(L1), verlinde_tensor(L2))
        dims = [x * y for x in verlinde_dims(L1) for y in verlinde_dims(L2)]
        family = f"deligne({L1}x{L2})"
    inv = list(range(len(names)))  # new simple a is old simple inv[a]
    rng.shuffle(inv)
    N = N[np.ix_(inv, inv, inv)]
    return RingSpec(family, tuple(names[a] for a in inv), inv.index(0), N, tuple(dims[a] for a in inv))


# ring_ladder slots: (kind, rank, the levels to choose from); one level is a
# Verlinde ring, two a Deligne product.  "fpdim" slots are unvalidated rings
# that only get fpdim.  Cycles have an odd number of slots so that the
# median and tail percentiles fall inside one slot's block of latencies
# rather than on the edge between two, and several slots of near-equal cost
# sit at the median and at the tail, so that one slow slot in a run moves
# those figures to a neighbour of about the same cost.
RING_LADDER_SLOTS = (
    ("full", 5, ((4,),)),
    ("full", 6, ((5,), (1, 2), (2, 1))),
    ("full", 7, ((6,),)),
    ("full", 8, ((7,),)),
    ("full", 8, ((1, 3),)),
    ("full", 8, ((3, 1),)),
    ("full", 9, ((2, 2),)),
    ("full", 9, ((8,),)),
    ("fpdim", 20, ((19,),)),
    ("fpdim", 30, ((29,),)),
    ("fpdim", 45, ((44,),)),
)


def ring_ladder(seed: int) -> list:
    rng = random.Random(f"ring_ladder/{seed}")
    return [
        {"kind": kind, "cls": f"r{rank}", "ring": ring_spec(rng, rng.choice(choices))}
        for kind, rank, choices in RING_LADDER_SLOTS
    ]


# ---------------------------------------------------------------------------
# quivers

# Positive-root counts (Gabriel's table), written out independently of fqk.
def ade_roots(t: str) -> int:
    n = int(t[1:])
    return {"A": n * (n + 1) // 2, "D": n * (n - 1), "E": {6: 36, 7: 63, 8: 120}.get(n, 0)}[t[0]]


# Quiver ring families: "verlinde(L)", "fibonacci" and the partial-mode
# "sl3at5" label.  Edge roles: "unit" (FPdim 1), "gen" (FPdim 2cos(pi/m))
# and "big" (FPdim > 2).


def verlinde_level(fam: str) -> int:
    return int(fam[len("verlinde("):-1])


def family_size(fam: str) -> int:
    """Size of the regular module (or of the partial-mode label)."""
    return {"fibonacci": 2, "sl3at5": 6}.get(fam) or verlinde_level(fam) + 1


def family_m(fam: str) -> int:
    """Coxeter label m of a "gen" edge."""
    return 5 if fam in ("fibonacci", "sl3at5") else verlinde_level(fam) + 2


def unfolded_types(fam: str, shape: str) -> list:
    """Types of the unfolded components of one Gamma component over the
    regular module (the sl3at5 label acts like Fibonacci tensored with
    three invertibles, Verlinde level 3 like Fibonacci with two)."""
    s = family_size(fam)
    kind, n = shape[0], int(shape[1:]) if shape[1:].isdigit() else 0
    if kind in "ADE":
        return [shape] * s
    copies = {"fibonacci": 1, "sl3at5": 3, "verlinde(3)": 2}.get(fam, 0)
    if shape == "I2":  # one gen edge: the bipartite double of the fusion graph
        if fam.startswith("verlinde"):
            return [f"A{s}"] * 2
        return ["A4"] * copies
    if kind == "B":  # level-2 V1 at a leaf
        return [f"D{n + 1}", f"A{2 * n - 1}"]
    if shape == "H3":
        return ["D6"] * copies
    if shape == "H4":
        return ["E8"] * copies
    raise ValueError(shape)


def gamma_name(fam: str, shape: str) -> str:
    """fqk's name for a finite Gamma component."""
    if shape == "I2":
        m = family_m(fam)
        return {3: "A2", 4: "B2", 6: "G2"}.get(m, f"I2({m})")
    return shape


def shape_edges(shape: str) -> tuple:
    """Local vertex count and edges (u, v, role) of a component shape.

    Roles: "unit" (FPdim 1), "gen" (the family's 2cos(pi/m) label) and
    "big" (FPdim > 2)."""
    kind, rest = shape[0], shape[1:]
    if shape == "I2":
        return 2, ((0, 1, "gen"),)
    if shape == "BIG":
        return 2, ((0, 1, "big"),)
    if kind == "~":  # affine: ~A<n> cycle, ~D<n>, ~E<n>
        t, n = rest[0], int(rest[1:])
        if t == "A":
            return n + 1, tuple((i, (i + 1) % (n + 1), "unit") for i in range(n + 1))
        if t == "D":  # path 0..n-2 with extra leaves at 1 and n-3
            es = [(i, i + 1, "unit") for i in range(n - 2)]
            es += [(1, n - 1, "unit"), (n - 3, n, "unit")]
            return n + 1, tuple(es)
        arms = {6: (2, 2, 2), 7: (1, 3, 3), 8: (1, 2, 5)}[n]
        return star(arms)
    n = int(rest)
    path = [(i, i + 1, "unit") for i in range(n - 1)]
    if kind == "A":
        return n, tuple(path)
    if kind == "D":  # path 0..n-2, extra leaf n-1 at vertex 1
        return n, tuple(path[: n - 2] + [(1, n - 1, "unit")])
    if kind == "E":  # arms 1, 2, n-4 around one branch vertex
        return star((1, 2, n - 4))
    if kind in "BH":  # path with the gen edge at a leaf
        return n, tuple([(0, 1, "gen")] + path[1:])
    raise ValueError(shape)


def star(arms) -> tuple:
    """A branch vertex 0 with arms of the given lengths."""
    edges, nxt = [], 1
    for a in arms:
        prev = 0
        for _ in range(a):
            edges.append((prev, nxt, "unit"))
            prev, nxt = nxt, nxt + 1
    return nxt, tuple(edges)


def sl3at5_rows() -> tuple:
    """The X action matrix of the sl3-at-level-5 style label (column = source
    simple); the same data as fqk's builtin sl3at5_action."""
    names = ("1", "X", "Y", "L20", "L11", "L02")
    rules = {
        "1": ("X",), "X": ("Y", "L20"), "Y": ("1", "L11"),
        "L20": ("L11",), "L11": ("L02", "X"), "L02": ("Y",),
    }
    mat = [[0] * 6 for _ in range(6)]
    for src, outs in rules.items():
        for out in outs:
            mat[names.index(out)][names.index(src)] = 1
    return tuple(tuple(row) for row in mat)


def label_for(fam: str, role: str, rng: random.Random):
    """A concrete label: a coefficient tuple over the ring basis, or
    ("matrix", rows) in partial mode.  Equal-FPdim choices are seeded."""
    if fam == "sl3at5":
        eye = tuple(tuple(int(i == j) for j in range(6)) for i in range(6))
        X = sl3at5_rows()
        XT = tuple(zip(*X))
        if role == "unit":
            return ("matrix", eye)
        if role == "gen":
            return ("matrix", rng.choice((X, XT)))
        return ("matrix", tuple(tuple(a + b for a, b in zip(r, e)) for r, e in zip(X, eye)))
    s = family_size(fam)

    def basis(*idx):
        return tuple(int(k in idx) for k in range(s))

    if fam == "fibonacci":
        return {"unit": basis(0), "gen": basis(1), "big": basis(0, 1)}[role]
    L = verlinde_level(fam)
    if role == "unit":  # V_0 or the simple current V_L
        return basis(rng.choice((0, L)))
    if role == "gen":  # V_1 or V_{L-1}
        return basis(rng.choice((1, L - 1)))
    return basis(0, 1)  # V_0 + V_1: FPdim 1 + 2cos(pi/(L+2)) > 2 for L >= 2


@dataclass(frozen=True)
class QuiverSpec:
    family: str
    nv: int
    edges: tuple  # (source, target, label)
    finite: bool
    gamma: tuple  # sorted Gamma type names ("infinite" for affine/big)
    roots: int  # number of indecomposables, 0 when infinite

    @property
    def msize(self) -> int:
        return family_size(self.family)


def quiver_spec(rng: random.Random, fam: str, shapes: tuple) -> QuiverSpec:
    """Disjoint union of component shapes over one ring family, with seeded
    orientation, labels and vertex order."""
    edges, gamma, roots, finite, base = [], [], 0, True, 0
    for shape in shapes:
        n, local = shape_edges(shape)
        for u, v, role in local:
            if rng.random() < 0.5:
                u, v = v, u
            edges.append((base + u, base + v, label_for(fam, role, rng)))
        if shape[0] == "~" or shape == "BIG":
            finite = False
            gamma.append("infinite")
        else:
            gamma.append(gamma_name(fam, shape))
            roots += sum(ade_roots(t) for t in unfolded_types(fam, shape))
        base += n
    perm = list(range(base))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v], lab) for u, v, lab in edges]
    rng.shuffle(edges)
    return QuiverSpec(fam, base, tuple(edges), finite, tuple(sorted(gamma)), roots if finite else 0)


# enum_chains slots: (family, component shapes).  Every fourth is infinite.
ENUM_SLOTS = (
    ("verlinde(1)", ("A12", "D8")),
    ("verlinde(2)", ("B6", "A8", "E6")),
    ("fibonacci", ("H4", "H3", "E8", "A6")),
    ("verlinde(2)", ("~A11", "A8")),
    ("verlinde(3)", ("H4", "A6")),
    ("sl3at5", ("H3", "A7")),
    ("fibonacci", ("A18",)),
    ("fibonacci", ("~E8", "H4")),
    ("verlinde(4)", ("I2", "D5", "A3")),
    ("verlinde(2)", ("E6", "D6", "B3")),
    ("sl3at5", ("H3", "A5", "I2")),
    ("verlinde(3)", ("BIG", "~D6", "E6")),
    ("verlinde(6)", ("A4", "E6")),
    ("verlinde(5)", ("D7", "I2", "A3")),
    ("verlinde(8)", ("A5", "A5")),
    ("fibonacci", ("H3", "D9", "A7", "E7")),
    ("verlinde(5)", ("~E7", "D9", "A6")),
)

# reflect_oracles closure slots: the same generator at a smaller size.
CLOSURE_SLOTS = (
    ("fibonacci", ("H4", "A4")),
    ("verlinde(2)", ("B4", "A3")),
    ("sl3at5", ("H3",)),
    ("verlinde(1)", ("D5", "A3")),
)

# extended_positive_roots slots: full-ring (regular module) quivers.
EXTENDED_SLOTS = (
    ("fibonacci", ("H4",)),
    ("verlinde(2)", ("B3",)),
    ("verlinde(3)", ("I2", "A3")),
)


def enum_chains(seed: int) -> list:
    rng = random.Random(f"enum_chains/{seed}")
    items = []
    for fam, shapes in ENUM_SLOTS:
        q = quiver_spec(rng, fam, shapes)
        items.append({"kind": "enumerate" if q.finite else "decide", "cls": f"nv{q.nv}xm{q.msize}", "quiver": q})
    return items


# ---------------------------------------------------------------------------
# reflection oracles

RANK_TWO_LEVEL = 6  # V_2..V_4 have FPdim >= 2: both finite and infinite orders
# Large K on infinite-type labels: [K] has about K log2(FPdim) <= 850 bits,
# far past int64 and below the float range fpdim_of converts into.
SIGN_K = (320, 480, 600)


def rank_two_expected(level: int, j: int):
    """Order of sigma_a sigma_b for the one-edge quiver labelled V_j."""
    if j in (0, level):
        return 3
    if j in (1, level - 1):
        return level + 2
    return math.inf  # FPdim V_j >= 2 once 2 <= j <= L-2


def reflect_oracles(seed: int) -> list:
    rng = random.Random(f"reflect_oracles/{seed}")
    items = []
    for fam, shapes in CLOSURE_SLOTS:
        q = quiver_spec(rng, fam, shapes)
        items.append({"kind": "closure", "cls": f"nv{q.nv}xm{q.msize}", "quiver": q})
    for fam, shapes in EXTENDED_SLOTS:
        q = quiver_spec(rng, fam, shapes)
        items.append({"kind": "extended", "cls": f"nv{q.nv}xm{q.msize}", "quiver": q})
    ring = ring_spec(rng, (RANK_TWO_LEVEL,))
    for name in ring.names:
        j = int(name[1:])
        m = rank_two_expected(RANK_TWO_LEVEL, j)
        items.append({"kind": "rank2", "cls": f"V{j}", "ring": ring, "label": name, "order": m})
    for K in SIGN_K:
        j = rng.choice((2, 3, 4))
        items.append({"kind": "sign", "cls": f"K{K}", "ring": ring, "label": f"V{j}", "K": K})
    return items


# ---------------------------------------------------------------------------
# CLI

L_MID = 12  # validate --builtin verlinde_sl2 L_MID validates rank 13 twice
CATALOG_RINGS = ("vect", "rep_s2", "rep_s3", "rep_s4", "fibonacci")
CATALOG_QUIVERS = (
    "s2_sign_quiver", "s3_std_quiver", "s4_std_quiver", "fib_edge_quiver",
    "fib_h4_quiver", "verlinde_l4_quiver", "verlinde_l4_typeD_quiver",
    "verlinde_l2_typeD_quiver", "sl3at5_x_quiver",
)


def cli_slot(argv) -> str:
    """Timing group of a CLI command.  A CLI call costs mostly interpreter
    start and import, so commands of one group differ by milliseconds; the
    group's fastest execution is the latency of each of its commands."""
    if argv[0] in ("catalog", "dot"):
        return argv[0]
    if argv[:4] == ["validate", "--builtin", "verlinde_sl2", str(L_MID)]:
        return "validate verlinde_sl2 mid"
    if "--builtin" in argv:
        quiver = argv[argv.index("--builtin") + 1] in CATALOG_QUIVERS
        return "builtin quiver" if quiver else "builtin ring or module"
    return "file quiver" if "--quiver" in argv else "file ring or module"


def cli_mix(seed: int) -> dict:
    """The CLI command cycle plus the input files it reads.

    Files are described here and written by the workload during set-up;
    paths in argv are relative to the scratch directory, which is the
    subprocess working directory."""
    rng = random.Random(f"cli_mix/{seed}")
    L_d = rng.choice((4, 6))
    ring = ring_spec(rng, (rng.choice((3, 4)),))
    files = {
        "ring.json": ("ring", ring),
        "module.json": ("module", ring),
        "q_enum.json": ("quiver", quiver_spec(rng, "verlinde(2)", ("B4", "D5"))),
        "q_decide.json": ("quiver", quiver_spec(rng, "fibonacci", ("~E6", "H3"))),
        "q_unfold.json": ("quiver", quiver_spec(rng, "fibonacci", ("H4", "A5"))),
        "q_partial.json": ("quiver", quiver_spec(rng, "sl3at5", ("H3",))),
    }
    j = rng.choice([k for k, nm in enumerate(ring.names) if nm not in ("V0",)])
    argvs = [["catalog", "list"]]
    argvs += [["validate", "--builtin", k, "--format", "json"] for k in CATALOG_RINGS]
    argvs += [
        ["validate", "--builtin", "verlinde_sl2", str(L_MID), "--format", "json"],
        ["validate", "--builtin", "verlinde_typeD", str(L_d), "--format", "json"],
        ["fpdim", "--builtin", "verlinde_sl2", str(L_d), "--format", "json"],
    ]
    for k in CATALOG_QUIVERS:
        cmd = "classify" if k in ("s3_std_quiver", "s4_std_quiver") else "enumerate"
        argvs.append([cmd, "--builtin", k, "--format", "json"])
    argvs += [
        ["gamma", "--builtin", "s4_std_quiver", "--format", "json"],
        ["validate", "--ring", "ring.json", "--format", "json"],
        ["validate", "--module", "module.json", "--format", "json"],
        ["fpdim", "--ring", "ring.json", "--format", "json"],
        ["enumerate", "--quiver", "q_enum.json", "--format", "json"],
        ["classify", "--quiver", "q_decide.json", "--format", "json"],
        ["unfold", "--quiver", "q_unfold.json", "--format", "json"],
        ["enumerate", "--quiver", "q_partial.json", "--format", "json"],
        ["rank2", "--ring", "ring.json", "--object", ring.names[j], "--format", "json"],
        ["qnum", "--builtin", "fibonacci", "--object", "tau", "--upto", "12", "--format", "json"],
        ["mckay", "--builtin", "verlinde_typeD", str(L_d), "--label", "V1", "--format", "json"],
        ["dot", "--quiver", "q_enum.json", "--what", "unfolded", "--out", "q_enum.dot"],
        ["dot", "--builtin", "fib_h4_quiver", "--what", "gamma", "--out", "h4.dot"],
    ]
    rng.shuffle(argvs)
    items = [{"kind": "cli", "cls": a[0], "slot": cli_slot(a), "argv": a} for a in argvs]
    for it in items:
        if it["cls"] == "rank2":
            it["order"] = rank_two_expected(verlinde_level(ring.family), int(ring.names[j][1:]))
    return {"files": files, "items": items}


GENERATORS = {
    "ring_ladder": ring_ladder,
    "enum_chains": enum_chains,
    "reflect_oracles": reflect_oracles,
}


def generate(workload: str, seed: int):
    if workload == "cli_mix":
        return cli_mix(seed)
    return {"items": GENERATORS[workload](seed)}


def _plain(obj):
    if isinstance(obj, np.ndarray):
        return {"shape": obj.shape, "sha256": hashlib.sha256(obj.astype("<i8").tobytes()).hexdigest()}
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def digest(inputs) -> str:
    """SHA-256 of the canonical JSON form of a workload's generated inputs."""
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"), default=_plain)
    return hashlib.sha256(text.encode()).hexdigest()
