"""The independent oracles: the real bilinear form of a fusion quiver and
the float route to the Coxeter graph Gamma, the reflection action on
dimension vectors and its closures, two-colored quantum numbers (free and
specialized), sign coherence and the rank-two order.  They re-derive what
the main path (ring, module, quiver, unfold) decides; no module on that
path imports this one."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    InconsistentVerdict,
    InfiniteType,
    MissingAction,
    OutOfRange,
    SignCoherenceViolation,
)
from .module import ActionLabel, ModuleCategory
from .quiver import CoxeterGraph, Edge, FusionQuiver, _check_vertex, _own_module
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
)
from .unfold import ROOT_CLOSURE_CAP, _sorted_dimvecs, enumerate_indecomposables

# Gabriel: no positive root of an A/D/E quiver has an entry above 6, the
# largest coefficient of the highest root of E8
ROOT_ENTRY_MAX = 6

# entries of a sign-coherent quantum number are clipped to this before their
# FP dimension is formed in floats (see sign_coherence)
FLOAT_CLIP = 2**62

# DimensionVector: tuple (one entry per quiver vertex) of module-coefficient
# tuples.  The closures hold them as int8 rows, flattened vertex-major, and
# turn them into tuples through unfold's one converter, _sorted_dimvecs.


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


def reflect_dimvec(Q: FusionQuiver, v: int, x) -> tuple:
    """Simple reflection at vertex v acting on a dimension vector over Q's
    module: the coefficient at v becomes minus itself plus the (dual-)label
    actions on the neighboring coefficients; an involution.  Block row v of
    B, in Python ints."""
    x = tuple(x)
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

# the sign class of an integer vector, indexed by 2 * has_pos + has_neg
SIGN_CLASSES = ("zero", "negative", "positive", "incoherent")
ZERO, NEGATIVE, POSITIVE, INCOHERENT = range(4)  # indices into SIGN_CLASSES


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


def qnum_free(k: int, color: str = "d") -> NCPolynomial:
    """The two-colored quantum number [k] as a free polynomial in d, d'.

    For k >= 1, [k]_c = sum_j (-1)^j C(k-1-j, j) w_c(k-1-2j) over
    0 <= j <= (k-1)/2, where w_c(n) is the alternating word of length n that
    starts with c; [0] = 0 and [-k] = -[k].  This solves the defining
    recursion [k+1]_c = c [k]_c' - [k-1]_c: c w_c'(n) = w_c(n+1), so the
    coefficients follow the Chebyshev recursion and are those of U_(k-1)(x/2).
    The words are prefixes of w_c(k-1), so shortest first is sorted order."""
    c, n = _color(color), abs(k) - 1
    word = (c, 1 - c) * (n // 2) + (c,) * (n % 2)  # w_c(n); its prefixes are the w_c(n - 2j)
    sign = -1 if k < 0 else 1
    return NCPolynomial(tuple(
        (word[:n - 2 * j], sign * (-1) ** j * math.comb(n - j, j)) for j in range(n // 2, -1, -1)
    ))


def _qnum_rows(ring: FusionRing, pi, K: int) -> np.ndarray:
    """([k]_d, [k]_d') for k = 1..K, as a read-only (K, 2, rank) object array
    of Python ints, by the coupled ring recursion [k+1]_d = pi [k]_d' - [k-1]_d
    and its color swap.  For a self-dual pi both letters specialize alike, so
    [k]_d = [k]_d' and one sequence serves both colors."""
    if isinstance(pi, ActionLabel):
        raise MissingAction("quantum numbers need a ring-element label, not an action matrix")
    if len(pi) != ring.rank:
        raise OutOfRange(f"a ring element has {ring.rank} coefficients, not {len(pi)}")
    # pi y = sum_i y[i] (pi S_i): entry (i, j) of pi's matrix adds P[i, j] y[i]
    # to (pi y)[j].  Each step runs over the non-zero entries only, in lists.
    pi_dual = ring_dual(ring, pi)
    steps = []
    for label in [pi] if pi_dual == tuple(pi) else [pi, pi_dual]:
        entries = [(i, j, m) for (i, j), m in np.ndenumerate(combination(ring.tensor, label)) if m]
        units = [(i, j) for i, j, m in entries if m == 1]
        steps.append((units, [(i, j, m) for i, j, m in entries if m != 1]))
    n = len(steps)
    prev, cur = [[0] * ring.rank] * n, [list(ring.one)] * n
    flat = []  # [1] in each color, then [2], ...
    for _ in range(K):
        nxt = []
        # color c steps from the other color's value (its own for one color)
        for c, (units, others) in enumerate(steps):
            flat += cur[c]
            x, y = cur[-1 - c], [-v for v in prev[c]]
            for i, j in units:
                y[j] += x[i]
            for i, j, m in others:
                y[j] += m * x[i]
            nxt.append(y)
        prev, cur = cur, nxt
    rows = np.array(flat, dtype=object).reshape(K, n, ring.rank)
    return np.broadcast_to(rows, (K, 2, ring.rank))  # one color serves as both


def _qnum_at(rows: np.ndarray, k: int, c: int) -> tuple:
    """[k] in color c read off rows of _qnum_rows: [0] = 0 and [-k] = -[k]."""
    if k == 0:
        return (0,) * rows.shape[-1]
    x = tuple(rows[abs(k) - 1, c].tolist())
    return tuple(-v for v in x) if k < 0 else x


def qnum_in_ring(ring: FusionRing, pi, k: int, color: str = "d"):
    """[k] specialized at d = pi, d' = dual(pi), by direct ring recursion."""
    c = _color(color)
    return _qnum_at(_qnum_rows(ring, pi, abs(k)), k, c)


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
    A = _qnum_rows(ring, pi, K)
    # the sign class of every value at once, coded 2 * has_pos + has_neg
    code = 2 * (A > 0).any(axis=-1) + (A < 0).any(axis=-1)
    if (code == INCOHERENT).any():
        raise SignCoherenceViolation("mixed-sign quantum number encountered")

    # The float FP dimensions only cross-check the exact zero test.  Every
    # value is sign-coherent here, so a non-zero one has |FPdim| >= 1, and
    # clipping its entries keeps it far from zero and within a float.
    clipped = np.clip(A[:, D], -FLOAT_CLIP, FLOAT_CLIP)
    small = np.abs(clipped.astype(float) @ np.array(fpv.dims)) < TOL
    zero = code == ZERO
    disagree = (zero[:, D] != zero[:, DP]) | (zero[:, D] != small)
    if disagree.any():
        raise SignCoherenceViolation(
            f"vanishing criteria disagree at k = {disagree.argmax() + 1}"
        )
    minimal_m = int(zero[:, D].argmax()) + 1 if zero[:, D].any() else INFINITY

    # zeros exactly at multiples of m, signs flipping block by block
    want = np.full(K, POSITIVE)
    if minimal_m != INFINITY:
        block, j = np.divmod(np.arange(1, K + 1), minimal_m)
        want[block % 2 == 1] = NEGATIVE
        want[j == 0] = ZERO
    signs_d, signs_dp = (tuple(SIGN_CLASSES[s] for s in col) for col in code.T.tolist())
    wrong = (code != want[:, None]).any(axis=1)
    if wrong.any():
        i = wrong.argmax()
        raise SignCoherenceViolation(
            f"sign pattern violated at k = {i + 1}: got "
            f"({signs_d[i]}, {signs_dp[i]}), expected {SIGN_CLASSES[want[i]]}"
        )
    values_d = tuple(map(tuple, A[:, D].tolist()))
    return SignCoherenceReport(minimal_m, signs_d, signs_dp, values_d)


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


def enumerate_by_closure(Q: FusionQuiver, M: ModuleCategory | None = None):
    """Independent enumeration oracle: reflection closure of the simple
    dimension vectors [L] alpha_v directly in the module-coefficient lattice
    of Q's module, keeping positive vectors.  M, when given, only restates
    Q's own module."""
    _own_module(Q, M)
    msize = len(Q.module_names())
    starts = np.eye(Q.nv * msize, dtype=np.int8)
    return _sorted_dimvecs(_closure(Q, starts, True, "closure"), msize)


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
    phi_plus = _sorted_dimvecs(positives, ring.rank)

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
