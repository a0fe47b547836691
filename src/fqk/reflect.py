"""The independent oracles: the ring-valued bilinear form of a fusion quiver,
the reflection action on dimension vectors and its closures, two-colored
quantum numbers (free and specialized), sign coherence and the rank-two
order.  They re-derive what the main path (ring, module, quiver, unfold)
decides; no module on that path imports this one."""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import (
    InconsistentVerdict,
    InfiniteType,
    MissingAction,
    OutOfRange,
    SignCoherenceViolation,
)
from .module import ActionLabel, ModuleCategory, act_on, sign_class
from .quiver import Edge, FusionQuiver, _with_module, label_fpdim
from .ring import (
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

# DimensionVector: tuple (one entry per quiver vertex) of module-coefficient
# tuples; hashable, so closures can live in plain sets.


def dimvec_basis(nv: int, msize: int, v: int, coeff) -> tuple:
    """The dimension vector with module coefficient `coeff` at vertex v."""
    zero = (0,) * msize
    return tuple(tuple(coeff) if w == v else zero for w in range(nv))


def dimvec_is_positive(x) -> bool:
    return all(all(c >= 0 for c in a) for a in x) and any(
        c > 0 for a in x for c in a
    )


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


def real_bilinear_form(Q: FusionQuiver):
    """The real symmetric form: 2 on the diagonal, minus the FP dimension of
    the label off it.  Available in partial mode too."""
    fpv = fpdim(Q.ring) if Q.ring is not None else None
    g = np.zeros((Q.nv, Q.nv))
    np.fill_diagonal(g, 2.0)
    for e in Q.edges:
        f = label_fpdim(Q, e.label, fpv)
        g[e.source][e.target] -= f
        g[e.target][e.source] -= f
    return g


def _vertex_actions(Q: FusionQuiver) -> list:
    """Per vertex v, the (neighbor, matrix rows) pairs of the reflection at
    v: the transposed label matrix for an arrow out of v, the label matrix
    for an arrow into v.  A loop counts once, through its dual action."""
    acts = [[] for _ in range(Q.nv)]
    for e, rows in zip(Q.edges, Q.edge_actions):
        acts[e.source].append((e.target, tuple(zip(*rows))))
        if e.target != e.source:
            acts[e.target].append((e.source, rows))
    return acts


def _reflect(acts, v: int, x: tuple) -> tuple:
    """reflect_dimvec at v, on the vertex actions of _vertex_actions."""
    new_v = [-c for c in x[v]]
    for w, rows in acts[v]:
        new_v = [a + sum(map(operator.mul, row, x[w])) for a, row in zip(new_v, rows)]
    return x[:v] + (tuple(new_v),) + x[v + 1:]


def reflect_dimvec(Q: FusionQuiver, M: ModuleCategory | None, v: int, x) -> tuple:
    """Simple reflection at vertex v acting on a dimension vector: the
    coefficient at v becomes minus itself plus the (dual-)label actions on
    the neighboring coefficients; an involution."""
    return _reflect(_vertex_actions(_with_module(Q, M)), v, tuple(x))


# ---------------------------------------------------------------------------
# two-colored quantum numbers

D, DP = 0, 1  # the two non-commuting letters


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


@lru_cache(maxsize=None)
def _qnum_free_pos(k: int, color: int) -> NCPolynomial:
    if k == 0:
        return NCPolynomial.zero()
    if k == 1:
        return NCPolynomial.one()
    other = 1 - color
    letter = NCPolynomial.letter(D if color == D else DP)
    return letter * _qnum_free_pos(k - 1, other) - _qnum_free_pos(k - 2, color)


def qnum_free(k: int, color: str = "d") -> NCPolynomial:
    """The two-colored quantum number [k] as a free polynomial in d, d'."""
    c = D if color == "d" else DP
    if k < 0:
        return -_qnum_free_pos(-k, c)
    return _qnum_free_pos(k, c)


def _qnum_pair_sequence(ring: FusionRing, pi, K: int):
    """([k]_d, [k]_d') for k = 1..K by the coupled ring recursion
    [k+1]_d = pi [k]_d' - [k-1]_d and its color swap."""
    # pi y = sum_j y[j] (pi S_j): y against the rows of pi's matrix
    P = combination(ring.tensor, pi)
    P_dual = combination(ring.tensor, ring_dual(ring, pi))
    a_prev = b_prev = np.zeros(ring.rank, dtype=object)  # index 0
    a_cur = b_cur = np.array(ring.one, dtype=object)  # index 1
    out = []
    for _ in range(K):
        out.append((tuple(a_cur.tolist()), tuple(b_cur.tolist())))
        a_prev, b_prev, a_cur, b_cur = (
            a_cur, b_cur, b_cur.dot(P) - a_prev, a_cur.dot(P_dual) - b_prev
        )
    return out


def qnum_in_ring(ring: FusionRing, pi, k: int, color: str = "d"):
    """[k] specialized at d = pi, d' = dual(pi), by direct ring recursion."""
    neg = k < 0
    k = abs(k)
    if k == 0:
        return ring.zero()
    a, b = _qnum_pair_sequence(ring, pi, k)[-1]
    out = a if color == "d" else b
    return tuple(-c for c in out) if neg else out


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
    if K < 1:
        raise OutOfRange("K must be at least 1")
    fpv = fpdim(ring)
    pairs = _qnum_pair_sequence(ring, pi, K)
    vals_d = [a for a, _ in pairs]
    vals_dp = [b for _, b in pairs]
    signs_d = tuple(sign_class(x) for x in vals_d)
    signs_dp = tuple(sign_class(x) for x in vals_dp)
    for s in signs_d + signs_dp:
        if s == "incoherent":
            raise SignCoherenceViolation("mixed-sign quantum number encountered")

    minimal_m = INFINITY
    for k in range(1, K + 1):
        zd = signs_d[k - 1] == "zero"
        zdp = signs_dp[k - 1] == "zero"
        small = abs(fpdim_of(ring, vals_d[k - 1], fpv)) < TOL
        if zd != zdp or zd != small:
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

def _two_vertex_quiver(ring, pi, module):
    return FusionQuiver(
        vertices=("a", "b"),
        edges=(Edge(0, 1, pi),),
        ring=ring,
        module=module,
    )


def _orbit_size(acts, start):
    """Order of sigma_a sigma_b on a simple root: the steps until the vector
    returns to `start`, or INFINITY once an entry leaves the root bound."""
    x = start
    for step in itertools.count(1):
        x = _reflect(acts, 0, _reflect(acts, 1, x))
        if x == start:
            return step
        if any(abs(c) > ROOT_ENTRY_MAX for a in x for c in a):
            return INFINITY


def rank_two_order(ring: FusionRing | None, pi, module: ModuleCategory | None = None):
    """Order of sigma_a sigma_b for the one-edge quiver labeled pi, computed
    three independent ways (FP-dimension angle, minimal vanishing quantum
    number, reflection orbit size) and cross-checked."""
    Q = _two_vertex_quiver(ring, pi, module)
    results = {"angle": angle_label(label_fpdim(Q, pi))}

    if not isinstance(pi, ActionLabel):
        K = 2 * results["angle"] + 2 if results["angle"] != INFINITY else 50
        results["qnum"] = sign_coherence(ring, pi, K).minimal_m

    acts = _vertex_actions(Q)
    msize = len(Q.module_names())
    orbit_sizes = set()
    for l in range(msize):
        start = dimvec_basis(2, msize, 0, tuple(1 if j == l else 0 for j in range(msize)))
        orbit_sizes.add(_orbit_size(acts, start))
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

def _closure(Q, starts, keep, what: str) -> set:
    """The vectors reached from `starts` by simple reflections through
    vectors that pass `keep`.  Without a loop these are real roots of the
    unfolding, so an entry beyond the root bound proves infinite type."""
    if any(e.source == e.target for e in Q.edges):
        raise InfiniteType(f"{what}: a loop makes the type infinite")
    acts = _vertex_actions(Q)
    seen = set(starts)
    frontier = list(starts)
    while frontier:
        x = frontier.pop()
        for v in range(Q.nv):
            y = _reflect(acts, v, x)
            if any(abs(c) > ROOT_ENTRY_MAX for c in y[v]):
                raise InfiniteType(f"{what} left the root bound")
            if y not in seen and keep(y):
                seen.add(y)
                frontier.append(y)
                if len(seen) > ROOT_CLOSURE_CAP:
                    raise InfiniteType(f"{what} exceeded the vector cap")
    return seen


def enumerate_by_closure(Q: FusionQuiver, M: ModuleCategory | None = None):
    """Independent enumeration oracle: reflection closure of the simple
    dimension vectors [L] alpha_v directly in the module-coefficient lattice,
    keeping positive vectors."""
    Q = _with_module(Q, M)
    msize = len(Q.module_names())
    starts = [
        dimvec_basis(Q.nv, msize, v, tuple(1 if j == l else 0 for j in range(msize)))
        for v in range(Q.nv)
        for l in range(msize)
    ]
    return sorted(_closure(Q, starts, dimvec_is_positive, "closure"))


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
    starts = [dimvec_basis(Q.nv, ring.rank, v, ring.one) for v in range(Q.nv)]
    orbit = _closure(Q, starts, lambda y: True, "orbit closure")
    positives = {x for x in orbit if dimvec_is_positive(x)}

    orbits = []
    extended = set()
    for r in sorted(positives):
        # row l of a coefficient's matrix is its product with S_l
        rows = [combination(ring.tensor, coeff).tolist() for coeff in r]
        mults = tuple(tuple(tuple(m[l]) for m in rows) for l in range(ring.rank))
        extended.update(mults)
        orbits.append((r, mults))

    expected = set(enumerate_indecomposables(Q))
    if extended != expected:
        raise InconsistentVerdict(
            "extended roots do not match the enumerated indecomposables"
        )
    return ExtendedRootReport(
        phi_plus=tuple(sorted(positives)),
        extended=tuple(sorted(extended)),
        orbits=tuple(orbits),
    )
