"""The independent oracles: the ring-valued bilinear form of a fusion quiver,
its real form and the float route to the Coxeter graph Gamma, the
reflection action on dimension vectors and its closures, two-colored
quantum numbers (free and specialized), sign coherence and the rank-two
order.  They re-derive what the main path (ring, module, quiver, unfold)
decides; no module on that path imports this one."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    InconsistentVerdict,
    InfiniteType,
    MissingAction,
    OutOfRange,
    SignCoherenceViolation,
)
from .module import ActionLabel, ModuleCategory, act_on, sign_class
from .quiver import CoxeterGraph, Edge, FusionQuiver, _check_vertex, _with_module
from .ring import (
    FLOAT_EXACT,
    FPVector,
    FusionRing,
    INFINITY,
    TOL,
    add,
    angle_label,
    combination,
    dual as ring_dual,
    fpdim,
    fpdim_of,
    multiply,
    scale,
    sub,
)
from .unfold import ROOT_CLOSURE_CAP, enumerate_indecomposables

# Gabriel: no positive root of an A/D/E quiver has an entry above 6, the
# largest coefficient of the highest root of E8
ROOT_ENTRY_MAX = 6

# entries of a sign-coherent quantum number are clipped to this before their
# FP dimension is formed in floats (see sign_coherence)
FLOAT_CLIP = 2**62

# DimensionVector: tuple (one entry per quiver vertex) of module-coefficient
# tuples.  The closures hold them as int8 rows, flattened vertex-major.


@dataclass(frozen=True)
class BilinearFormQ:
    ring: FusionRing
    entries: tuple  # nv x nv matrix of RingElements

    def real_matrix(self):
        fpv = fpdim(self.ring)
        return np.array(
            [[fpdim_of(self.ring, e, fpv) for e in row] for row in self.entries]
        )


def bilinear_form(Q: FusionQuiver) -> BilinearFormQ:
    """The ring-valued bilinear form on the vertex lattice: 2 on the
    diagonal, minus the dual label class along an arrow, minus the label
    class against it."""
    if Q.partial_mode:
        raise MissingAction(
            "ring-valued form needs ring-element labels; use real_bilinear_form"
        )
    ring = Q.ring
    two = scale(2, ring.one)
    zero = ring.zero()
    entries = [[two if v == w else zero for w in range(Q.nv)] for v in range(Q.nv)]
    for e in Q.edges:
        entries[e.source][e.target] = sub(
            entries[e.source][e.target], ring_dual(ring, e.label)
        )
        entries[e.target][e.source] = sub(entries[e.target][e.source], e.label)
    return BilinearFormQ(ring=ring, entries=tuple(tuple(r) for r in entries))


def label_fpdim(Q: FusionQuiver, label, fpv: FPVector | None = None) -> float:
    if isinstance(label, ActionLabel):
        return label.fpdim()
    return fpdim_of(Q.ring, label, fpv)


def real_bilinear_form(Q: FusionQuiver):
    """The real symmetric form: 2 on the diagonal, minus the FP dimension of
    the label off it.  Available in partial mode too."""
    fpv = fpdim(Q.ring) if Q.ring is not None else None
    g = np.zeros((Q.nv, Q.nv))
    np.fill_diagonal(g, 2.0)
    for e in Q.edges:
        f = label_fpdim(Q, e.label, fpv)
        g[e.source, e.target] -= f
        g[e.target, e.source] -= f
    return g


def labeled_graph(Q: FusionQuiver) -> CoxeterGraph:
    """Gamma by the float route, equal to quiver.coxeter_graph(Q): each
    vertex pair's summed FP dimension f, read off the real form (-f off the
    diagonal, 2 - 2f on it for a loop), weighted by the m with
    2cos(pi/m) = f, m = 2 dropped, in first-appearance order over Q.edges."""
    g = real_bilinear_form(Q)
    pairs = dict.fromkeys((min(e.source, e.target), max(e.source, e.target)) for e in Q.edges)
    weighted = [(u, v, angle_label((2 - g[u, v]) / 2 if u == v else -g[u, v])) for u, v in pairs]
    return CoxeterGraph(Q.vertices, tuple(e for e in weighted if e[2] != 2))


def _blocks(Q: FusionQuiver, at: int | None = None):
    """The off-diagonal blocks (v, w, rows) of the reflection matrix B, or of
    its block row `at` only: the transposed label action for an arrow
    v -> w, the label action for an arrow w -> v.  A loop counts once,
    through its dual action."""
    for e, rows in zip(Q.edges, Q.edge_actions):
        if at in (None, e.source):
            yield e.source, e.target, tuple(zip(*rows))
        if e.target != e.source and at in (None, e.target):
            yield e.target, e.source, rows


def reflect_dimvec(Q: FusionQuiver, M: ModuleCategory | None, v: int, x) -> tuple:
    """Simple reflection at vertex v acting on a dimension vector: the
    coefficient at v becomes minus itself plus the (dual-)label actions on
    the neighboring coefficients; an involution.  Block row v of B, in
    Python ints."""
    Q, x = _with_module(Q, M), tuple(x)
    _check_vertex(Q, v)
    msize = len(Q.module_names())
    if len(x) != Q.nv or any(len(a) != msize for a in x):
        raise OutOfRange(f"a dimension vector has {Q.nv} entries of {msize} coefficients each")
    new_v = [-c for c in x[v]]
    for _, w, rows in _blocks(Q, v):
        new_v = [a + sum(r * c for r, c in zip(row, x[w])) for a, row in zip(new_v, rows)]
    return x[:v] + (tuple(new_v),) + x[v + 1:]


# ---------------------------------------------------------------------------
# two-colored quantum numbers

D, DP = 0, 1  # the two non-commuting letters


def _color(color: str) -> int:
    """The letter a color names: "d" or "d'"."""
    if color not in ("d", "d'"):
        raise OutOfRange(f"a color is d or d', not {color!r}")
    return DP if color == "d'" else D


@dataclass(frozen=True)
class NCPolynomial:
    """Integer polynomial in two non-commuting letters; terms map words
    (tuples over {d, d'}) to non-zero coefficients."""

    terms: tuple  # sorted tuple of (word, coeff)

    @classmethod
    def from_dict(cls, d: dict) -> "NCPolynomial":
        return cls(terms=tuple(sorted((w, c) for w, c in d.items() if c)))

    @classmethod
    def zero(cls) -> "NCPolynomial":
        return cls(terms=())

    @classmethod
    def one(cls) -> "NCPolynomial":
        return cls(terms=(((), 1),))

    @classmethod
    def letter(cls, a) -> "NCPolynomial":
        return cls(terms=(((a,), 1),))

    def __add__(self, other):
        d = dict(self.terms)
        for w, c in other.terms:
            d[w] = d.get(w, 0) + c
        return NCPolynomial.from_dict(d)

    def __neg__(self):
        return NCPolynomial(terms=tuple((w, -c) for w, c in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return NCPolynomial.from_dict({w: c * other for w, c in self.terms})
        d: dict = {}
        for w1, c1 in self.terms:
            for w2, c2 in other.terms:
                w = w1 + w2
                d[w] = d.get(w, 0) + c1 * c2
        return NCPolynomial.from_dict(d)

    __rmul__ = __mul__

    def evaluate(self, ring: FusionRing, pi):
        """Specialize d to pi and d' to its dual, multiplying left to right."""
        pi_dual = ring_dual(ring, pi)
        out = ring.zero()
        for w, c in self.terms:
            term = ring.one
            for a in w:
                term = multiply(ring, term, pi if a == D else pi_dual)
            out = add(out, scale(c, term))
        return out

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w, c in sorted(self.terms, key=lambda t: (len(t[0]), t[0])):
            word = "".join("d" if a == D else "d'" for a in w) or "1"
            if c == 1 and w:
                parts.append(word)
            elif c == -1 and w:
                parts.append(f"-{word}")
            elif w:
                parts.append(f"{c}{word}")
            else:
                parts.append(str(c))
        s = " + ".join(parts)
        return s.replace("+ -", "- ")


# the last free quantum numbers computed: (k, [k-1], [k]), each in both
# colors (indexed by D, DP), so that ascending requests take one step each;
# the recursion starts from [-1] = -1 and [0] = 0.  The tuple is replaced
# whole, so a concurrent caller steps from an older top, never a torn one.
_FREE_START = (0, (-NCPolynomial.one(),) * 2, (NCPolynomial.zero(),) * 2)
_free_top = _FREE_START


def _qnum_free_pos(k: int, color: int) -> NCPolynomial:
    """[k] for k >= 0 by [j]_c = c [j-1]_c' - [j-2]_c, stepped up in a loop
    from the last result (from the start when k lies below it), so the
    recursion depth does not grow with k and only two levels are kept."""
    global _free_top
    j, prev, cur = _free_top if _free_top[0] <= k else _FREE_START
    for _ in range(j, k):
        prev, cur = cur, tuple(NCPolynomial.letter(c) * cur[1 - c] - prev[c] for c in (D, DP))
    _free_top = (k, prev, cur)
    return cur[color]


def qnum_free(k: int, color: str = "d") -> NCPolynomial:
    """The two-colored quantum number [k] as a free polynomial in d, d'."""
    p = _qnum_free_pos(abs(k), _color(color))
    return -p if k < 0 else p


def _qnum_pair_sequence(ring: FusionRing, pi, K: int):
    """([k]_d, [k]_d') for k = 1..K by the coupled ring recursion
    [k+1]_d = pi [k]_d' - [k-1]_d and its color swap.  For a self-dual pi
    both letters specialize alike, so [k]_d = [k]_d' and one sequence
    serves both colors."""
    # pi y = sum_j y[j] (pi S_j): y against the rows of pi's matrix
    pi_dual = ring_dual(ring, pi)
    mats = [combination(ring.tensor, pi)]
    if pi_dual != tuple(pi):
        mats.append(combination(ring.tensor, pi_dual))
    prev = [np.zeros(ring.rank, dtype=object)] * len(mats)  # index 0
    cur = [np.array(ring.one, dtype=object)] * len(mats)  # index 1
    out = []
    for _ in range(K):
        vals = [tuple(c.tolist()) for c in cur]
        out.append((vals[0], vals[-1]))
        # color c steps from the other color's value (its own for one color)
        prev, cur = cur, [cur[-1 - c].dot(P) - prev[c] for c, P in enumerate(mats)]
    return out


def qnum_in_ring(ring: FusionRing, pi, k: int, color: str = "d"):
    """[k] specialized at d = pi, d' = dual(pi), by direct ring recursion."""
    c = _color(color)
    if k == 0:
        return ring.zero()
    out = _qnum_pair_sequence(ring, pi, abs(k))[-1][c]
    return tuple(-x for x in out) if k < 0 else out


@dataclass(frozen=True)
class SignCoherenceReport:
    minimal_m: object  # int or inf
    signs_d: tuple  # sign class of [k]_d for k = 1..K
    signs_dp: tuple
    values_d: tuple  # [k]_d for k = 1..K


def sign_coherence(ring: FusionRing, pi, K: int) -> SignCoherenceReport:
    """Classify the signs of [k]_d and [k]_d' for k up to K, locate the
    minimal vanishing index m, and verify the zero/sign alternation pattern
    (zeros exactly at multiples of m, signs flipping block by block)."""
    return _sign_coherence(ring, pi, K, fpdim(ring))


def _sign_coherence(ring: FusionRing, pi, K: int, fpv) -> SignCoherenceReport:
    """sign_coherence on the FP dimensions fpv of ring."""
    if K < 1:
        raise OutOfRange("K must be at least 1")
    pairs = _qnum_pair_sequence(ring, pi, K)
    vals_d = [a for a, _ in pairs]
    vals_dp = [b for _, b in pairs]
    signs_d = tuple(sign_class(x) for x in vals_d)
    signs_dp = signs_d if vals_dp == vals_d else tuple(sign_class(x) for x in vals_dp)
    for s in signs_d + signs_dp:
        if s == "incoherent":
            raise SignCoherenceViolation("mixed-sign quantum number encountered")

    # The float FP dimensions only cross-check the exact zero test.  Every
    # value is sign-coherent here, so a non-zero one has |FPdim| >= 1, and
    # clipping its entries keeps it far from zero and within a float.
    clipped = np.clip(np.array(vals_d, dtype=object), -FLOAT_CLIP, FLOAT_CLIP)
    small = (np.abs(clipped.astype(float) @ np.array(fpv.dims)) < TOL).tolist()
    minimal_m = INFINITY
    for k in range(1, K + 1):
        zd = signs_d[k - 1] == "zero"
        zdp = signs_dp[k - 1] == "zero"
        if zd != zdp or zd != small[k - 1]:
            raise SignCoherenceViolation(
                f"vanishing criteria disagree at k = {k}"
            )
        if zd and minimal_m == INFINITY:
            minimal_m = k

    for k in range(1, K + 1):
        if minimal_m == INFINITY:
            want = "positive"
        else:
            c, j = divmod(k, minimal_m)
            want = "zero" if j == 0 else ("positive" if c % 2 == 0 else "negative")
        if signs_d[k - 1] != want or signs_dp[k - 1] != want:
            raise SignCoherenceViolation(
                f"sign pattern violated at k = {k}: got "
                f"({signs_d[k-1]}, {signs_dp[k-1]}), expected {want}"
            )
    return SignCoherenceReport(minimal_m, signs_d, signs_dp, tuple(vals_d))


# ---------------------------------------------------------------------------
# rank-two machinery

def _orbit_sizes(Q: FusionQuiver) -> set:
    """Order of sigma_a sigma_b on each simple root [L] alpha_a of the
    one-edge quiver Q, all roots at once: the first step at which a root
    returns, or INFINITY once an entry leaves the root bound.  The bound is
    tested after every reflection, so each product starts from rows within
    it, as _product_matrix needs."""
    m = len(Q.module_names())
    Bt = _product_matrix(Q)
    start = np.zeros((m, 2, m), dtype=np.int8)
    start[np.arange(m), 0, np.arange(m)] = 1
    sizes, x = set(), start
    for step in itertools.count(1):
        for v in (1, 0):
            y = _reflect_rows(x, Bt)[:, v]
            out = (np.abs(y) > ROOT_ENTRY_MAX).any(axis=1)
            if out.any():
                sizes.add(INFINITY)
            start, x = start[~out], x[~out]  # copies: start keeps its rows
            x[:, v] = y[~out].astype(np.int8)
        back = (x == start).all(axis=(1, 2))
        if back.any():
            sizes.add(step)
        start, x = start[~back], x[~back]
        if not len(x):
            return sizes


def rank_two_order(ring: FusionRing | None, pi, module: ModuleCategory | None = None):
    """Order of sigma_a sigma_b for the one-edge quiver labeled pi, computed
    three independent ways (FP-dimension angle, minimal vanishing quantum
    number, reflection orbit size) and cross-checked."""
    Q = FusionQuiver(("a", "b"), (Edge(0, 1, pi),), ring=ring, module=module)
    fpv = None if isinstance(pi, ActionLabel) else fpdim(ring)
    results = {"angle": angle_label(label_fpdim(Q, pi, fpv))}

    if fpv is not None:
        K = 2 * results["angle"] + 2 if results["angle"] != INFINITY else 50
        results["qnum"] = _sign_coherence(ring, pi, K, fpv).minimal_m

    orbit_sizes = _orbit_sizes(Q)
    if len(orbit_sizes) != 1:
        raise InconsistentVerdict(f"orbit sizes differ across simples: {orbit_sizes}")
    results["orbit"] = orbit_sizes.pop()

    if len(set(results.values())) != 1:
        raise InconsistentVerdict(f"rank-two order methods disagree: {results}")
    return results["angle"]


def sigma_matrices(ring: FusionRing, pi):
    """The 2x2 generator matrices over the ring for the one-edge quiver."""
    one, zero = ring.one, ring.zero()
    neg_one = scale(-1, one)
    pi_dual = ring_dual(ring, pi)
    sigma_a = ((neg_one, pi_dual), (zero, one))
    sigma_b = ((one, zero), (pi, neg_one))
    return sigma_a, sigma_b


def _mat2_mul(ring, A, B):
    out = []
    for i in range(2):
        row = []
        for j in range(2):
            acc = ring.zero()
            for k in range(2):
                acc = add(acc, multiply(ring, A[i][k], B[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def matrix_power_identity_check(ring: FusionRing, pi, k: int) -> bool:
    """Whether (sigma_a sigma_b)^k equals the closed-form matrix of
    two-colored quantum numbers [[ [2k+1]', -[2k]' ], [ [2k], -[2k-1] ]]."""
    if k < 0:
        raise OutOfRange("k must be non-negative")
    sigma_a, sigma_b = sigma_matrices(ring, pi)
    step = _mat2_mul(ring, sigma_a, sigma_b)
    one, zero = ring.one, ring.zero()
    power = ((one, zero), (zero, one))
    for _ in range(k):
        power = _mat2_mul(ring, power, step)
    neg = lambda x: scale(-1, x)
    expected = (
        (qnum_in_ring(ring, pi, 2 * k + 1, "d'"), neg(qnum_in_ring(ring, pi, 2 * k, "d'"))),
        (qnum_in_ring(ring, pi, 2 * k, "d"), neg(qnum_in_ring(ring, pi, 2 * k - 1, "d"))),
    )
    return power == expected


def x_ell_dimvec(ring: FusionRing, M: ModuleCategory, pi, L, ell: int):
    """Dimension vector of the ell-th zigzag indecomposable over the one-edge
    quiver, seeded at module simple L: the closed form in two-colored quantum
    numbers acting on [L]."""
    m = rank_two_order(ring, pi, module=M)
    if ell < 1 or (m != INFINITY and ell > m):
        raise OutOfRange(f"ell = {ell} outside 1..{m}")
    if isinstance(L, (int, str)):
        L = M.basis(L)
    if ell % 2 == 1:
        coeff_a = qnum_in_ring(ring, pi, ell, "d'")
        coeff_b = qnum_in_ring(ring, pi, ell - 1, "d")
    else:
        coeff_a = qnum_in_ring(ring, pi, ell - 1, "d'")
        coeff_b = qnum_in_ring(ring, pi, ell, "d")
    return (act_on(M, coeff_a, L), act_on(M, coeff_b, L))


# ---------------------------------------------------------------------------
# the reflection closures

def _product_matrix(Q: FusionQuiver) -> np.ndarray:
    """B^T for _reflect_rows.  B acts on dimension vectors flattened
    vertex-major, and its block row v maps x to block v of x reflected at v:
    -I at (v, v) plus the summed _blocks at (v, w).  The rows it multiplies
    have entries within ROOT_ENTRY_MAX, so every partial sum stays below
    (max|B| + 1) ROOT_ENTRY_MAX width: float64 is exact while that is under
    FLOAT_EXACT, Python ints (dtype=object) serve beyond it."""
    m = len(Q.module_names())
    B = np.zeros((Q.nv * m, Q.nv * m), dtype=object)
    np.fill_diagonal(B, -1)  # a loop, the one (v, v) action, is rejected first
    for v, w, rows in _blocks(Q):
        B[v * m:(v + 1) * m, w * m:(w + 1) * m] += np.array(rows, dtype=object)
    bmax = max(map(abs, B.flat), default=0)
    return B.T.astype(float) if (bmax + 1) * ROOT_ENTRY_MAX * len(B) < FLOAT_EXACT else B.T


def _reflect_rows(F, Bt) -> np.ndarray:
    """Every simple reflection of every row of F (rows x nv x m): entry
    [r, v] is block v of row r reflected at v.  One product F B^T, in the
    dtype of Bt = B^T."""
    k, nv, m = F.shape
    return (F.reshape(k, nv * m).astype(Bt.dtype) @ Bt).reshape(k, nv, m)


def _closure(Q, starts, positive: bool, what: str) -> np.ndarray:
    """The vectors reached from the rows `starts` (flattened vertex-major) by
    simple reflections, through positive vectors only when `positive`, as
    int8 rows.  Without a loop these are real roots of the unfolding, so an
    entry beyond the root bound proves infinite type."""
    if any(e.source == e.target for e in Q.edges):
        raise InfiniteType(f"{what}: a loop makes the type infinite")
    Bt = _product_matrix(Q)
    nv, m, width = Q.nv, len(Q.module_names()), len(Bt)
    row_key = np.dtype((np.void, width))

    frontier = np.asarray(starts, dtype=np.int8).reshape(len(starts), width)
    seen = set(frontier.view(row_key).ravel().tolist())
    levels = [frontier]
    while len(frontier):
        F = frontier.reshape(-1, nv, m)
        Z = _reflect_rows(F, Bt)
        if (np.abs(Z) > ROOT_ENTRY_MAX).any():
            raise InfiniteType(f"{what} left the root bound")
        Z = Z.astype(np.int8)
        # a reflection changes only its own block; build the rows where that
        # block moved (and, for the positive closure, stayed non-negative:
        # a reflection is invertible, so the row stays non-zero)
        build = (Z != F).any(axis=2)
        if positive:
            build &= (Z >= 0).all(axis=2)
        r, v = np.nonzero(build)
        Y = F[r]
        Y[np.arange(len(r)), v] = Z[r, v]
        Y = Y.reshape(-1, width)
        fresh = dict(zip(Y.view(row_key).ravel().tolist(), range(len(Y))))
        frontier = Y[[i for key, i in fresh.items() if key not in seen]]
        seen.update(fresh)
        levels.append(frontier)
        if len(seen) > ROOT_CLOSURE_CAP:
            raise OutOfRange(f"{what} exceeded the cap of {ROOT_CLOSURE_CAP} vectors")
    return np.concatenate(levels)


def _dimvecs(rows, nv: int, m: int) -> list:
    """Flattened rows as sorted tuple-of-tuples dimension vectors."""
    if rows.size:  # lexsort needs a column
        rows = rows[np.lexsort(rows.T[::-1])]
    return [tuple(map(tuple, x)) for x in rows.reshape(len(rows), nv, m).tolist()]


def enumerate_by_closure(Q: FusionQuiver, M: ModuleCategory | None = None):
    """Independent enumeration oracle: reflection closure of the simple
    dimension vectors [L] alpha_v directly in the module-coefficient lattice,
    keeping positive vectors."""
    Q = _with_module(Q, M)
    msize = len(Q.module_names())
    starts = np.eye(Q.nv * msize, dtype=np.int8)
    return _dimvecs(_closure(Q, starts, True, "closure"), Q.nv, msize)


@dataclass(frozen=True)
class ExtendedRootReport:
    phi_plus: tuple  # W(Q)-orbit of the unit vertex roots, positive part
    extended: tuple  # phi_plus scaled on the right by every simple class
    orbits: tuple  # per root in phi_plus: the tuple of its simple multiples


def extended_positive_roots(Q: FusionQuiver) -> ExtendedRootReport:
    """Over the regular module: the positive part of the reflection orbit of
    the unit roots alpha_v, its simple-multiple extension, and the check that
    the extension coincides with the full enumeration."""
    if Q.partial_mode:
        raise MissingAction("extended roots need full-ring mode")
    ring = Q.ring
    if Q.module is not None:
        Q = replace(Q, module=None)  # onto the regular module
    starts = np.zeros((Q.nv, Q.nv, ring.rank), dtype=np.int8)  # row v: [1] alpha_v
    starts[np.arange(Q.nv), np.arange(Q.nv)] = ring.one
    orbit = _closure(Q, starts, False, "orbit closure")
    positives = orbit[(orbit >= 0).all(axis=1) & orbit.any(axis=1)]
    phi_plus = _dimvecs(positives, Q.nv, ring.rank)

    # row l of a coefficient's matrix is its product with S_l
    matrices = {c: combination(ring.tensor, c).tolist() for c in set().union(*phi_plus)}
    orbits = []
    extended = set()
    for r in phi_plus:
        rows = [matrices[c] for c in r]
        mults = tuple(tuple(tuple(m[l]) for m in rows) for l in range(ring.rank))
        extended.update(mults)
        orbits.append((r, mults))

    expected = set(enumerate_indecomposables(Q))
    if extended != expected:
        raise InconsistentVerdict(
            "extended roots do not match the enumerated indecomposables"
        )
    return ExtendedRootReport(
        phi_plus=tuple(phi_plus),
        extended=tuple(sorted(extended)),
        orbits=tuple(orbits),
    )
