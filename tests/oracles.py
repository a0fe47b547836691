"""Brute-force reference implementations of the ring, module, root-closure
and reflection kernels.

These are the original element-by-element loops over the nested-tuple data.
The vectorized kernels in `fqk.ring` and `fqk.module` must reproduce their
reports entry for entry, in the same order, their FP dimensions bit for bit
and their products exactly.  The per-component root closure in `fqk.unfold` must give the roots of
the global-coordinate closure, and the reflection in `fqk.reflect` must
agree with the per-edge action below and, on FP dimensions, with its real
shadow.  The batched closure oracles in `fqk.reflect` must return what the
vector-by-vector closure below returns, or raise the same error, and its
batched rank-two orbit the sizes of the one-simple-at-a-time orbit below.
Both run on the tuple reflection here, not on any reflection of `fqk.reflect`.
The converter from int8 root rows to dimension vectors in `fqk.unfold`,
which ranks blocks and shares one tuple per distinct block, must give the
vectors of the lexsort of whole rows below.
The closed form of the free quantum numbers in `fqk.reflect` must give the
terms of their defining recursion below, stepped on {word: coeff} dicts.
The component recognizer in `fqk.quiver`, which reads one adjacency map per
vertex, must name every component as the edge-list recognizer below does,
arm order included.
The rank-two identities of the paper are references here too: the power
(sigma_a sigma_b)^k against its closed form in two-colored quantum numbers,
and the zigzag indecomposables of a one-edge quiver in closed form.  They
read the quantum numbers through the public `qnum_in_ring`.
"""

import itertools
import math
import operator
from dataclasses import replace

import numpy as np

from fqk.errors import InconsistentVerdict, InfiniteComponent, InfiniteType, MissingAction, OutOfRange
from fqk.module import label_matrix, module_fpdims
from fqk.quiver import Classification, Component, Edge, FusionQuiver, _posdef
from fqk.reflect import (
    ROOT_ENTRY_MAX,
    SIGN_CLASSES,
    label_fpdim,
    qnum_in_ring,
    rank_two_order,
    reflect_dimvec,
)
from fqk.ring import (
    INFINITY,
    POWER_ITER_CAP,
    POWER_ITER_TOL,
    FPVector,
    ValidationReport,
    combination,
    dual,
    fpdim,
)
from fqk.unfold import fold_root


def _left_mult(ring, i):
    r = ring.rank
    return np.array([[ring.N[i][j][k] for j in range(r)] for k in range(r)], dtype=object)


def loop_multiply(ring, x, y) -> tuple:
    if len(x) != ring.rank or len(y) != ring.rank:
        raise ValueError("element length does not match ring rank")
    r = ring.rank
    out = [0] * r
    for i in range(r):
        if not x[i]:
            continue
        for j in range(r):
            if not y[j]:
                continue
            c = x[i] * y[j]
            row = ring.N[i][j]
            for k in range(r):
                if row[k]:
                    out[k] += c * row[k]
    return tuple(out)


def sub(x, y) -> tuple:
    return tuple(a - b for a, b in zip(x, y))


def act_on(M, x, u) -> tuple:
    """The action of ring element x on module element u, in Python ints."""
    if len(x) != M.ring.rank or len(u) != M.msize:
        raise ValueError("dimension mismatch in module action")
    return tuple(int(v) for v in combination(M.tensor, x).dot(np.array(u, dtype=object)))


def sign_class(x) -> str:
    """Classify an integer vector as positive / zero / negative / incoherent."""
    return SIGN_CLASSES[2 * (max(x, default=0) > 0) + (min(x, default=0) < 0)]


def loop_qnum_pairs(ring, pi, K) -> list:
    """([k]_d, [k]_d') for k = 1..K, one loop_multiply per step and color."""
    pi_dual = dual(ring, pi)
    a_prev, b_prev = ring.zero(), ring.zero()
    a_cur, b_cur = ring.one, ring.one
    out = []
    for _ in range(K):
        out.append((a_cur, b_cur))
        a_new = sub(loop_multiply(ring, pi, b_cur), a_prev)
        b_new = sub(loop_multiply(ring, pi_dual, a_cur), b_prev)
        a_prev, b_prev, a_cur, b_cur = a_cur, b_cur, a_new, b_new
    return out


def prepend(letter, p: dict) -> dict:
    """The one-letter word `letter` times the free polynomial p, over
    {word: coeff} with words of the letter's type (tuple or str)."""
    return {letter + w: c for w, c in p.items()}


def free_add(p: dict, q: dict, sign: int = 1) -> dict:
    """p + sign * q over {word: coeff}, zero coefficients dropped."""
    out = dict(p)
    for w, c in q.items():
        out[w] = out.get(w, 0) + sign * c
    return {w: c for w, c in out.items() if c}


def loop_qnum_free(k, color) -> tuple:
    """The sorted (word, coeff) terms of the free [k]_color, by the defining
    recursion [j]_a = a [j-1]_a' - [j-2]_a stepped up from [-1] = -1 and
    [0] = 0, along the one chain of colors that reaches [k]_color; [-k] = -[k].
    Words are strings over "0" = d and "1" = d' while stepping, whose hashes
    Python keeps, and tuples of ints in the result."""
    n, c = abs(k), ("d", "d'").index(color)
    prev, cur = {"": -1}, {}
    for j in range(1, n + 1):
        a = "01"[(c + n - j) % 2]  # the color of [j]: colors alternate down from [n]_c
        prev, cur = cur, free_add(prepend(a, cur), prev, -1)
    return tuple(sorted((tuple(map(int, w)), -x if k < 0 else x) for w, x in cur.items()))


def matrix_power_identity_check(ring, pi, k: int) -> bool:
    """Whether (sigma_a sigma_b)^k equals the closed-form matrix of
    two-colored quantum numbers [[ [2k+1]', -[2k]' ], [ [2k], -[2k-1] ]].
    sigma_a and sigma_b are reflect_dimvec on the one-edge quiver over the
    regular module, where a ring element acts by left multiplication, a
    faithful action: column j of the power is the image of [1] alpha_j."""
    if k < 0:
        raise OutOfRange("k must be non-negative")
    Q = FusionQuiver(("a", "b"), (Edge(0, 1, pi),), ring=ring)

    def power(x):
        for _ in range(k):
            x = reflect_dimvec(Q, 0, reflect_dimvec(Q, 1, x))
        return x

    expected = (
        (qnum_in_ring(ring, pi, 2 * k + 1, "d'"), qnum_in_ring(ring, pi, 2 * k)),
        (qnum_in_ring(ring, pi, -2 * k, "d'"), qnum_in_ring(ring, pi, 1 - 2 * k)),
    )
    return (power((ring.one, ring.zero())), power((ring.zero(), ring.one))) == expected


def x_ell_dimvec(ring, M, pi, L, ell: int) -> tuple:
    """Dimension vector of the ell-th zigzag indecomposable over the one-edge
    quiver, seeded at module simple L: the closed form in two-colored quantum
    numbers acting on [L]."""
    m = rank_two_order(ring, pi, module=M)
    if ell < 1 or (m != INFINITY and ell > m):
        raise OutOfRange(f"ell = {ell} outside 1..{m}")
    if isinstance(L, (int, str)):
        L = M.basis(L)
    odd = ell % 2  # [ell]' at a and [ell-1] at b for odd ell, [ell-1]' and [ell] for even
    coeff_a = qnum_in_ring(ring, pi, ell - 1 + odd, "d'")
    coeff_b = qnum_in_ring(ring, pi, ell - odd)
    return act_on(M, coeff_a, L), act_on(M, coeff_b, L)


def unfolded_reflect_dimvec(U, v, x) -> tuple:
    """Simple reflection at v through the unfolding U of its quiver: each
    unfolded vertex (v, L) is reflected along U's arrows, in the dimension
    vector x flattened vertex-major, and the result is folded back."""
    flat = [c for a in x for c in a]
    fiber = range(v * len(U.mnames), (v + 1) * len(U.mnames))
    y = [-c if i in fiber else c for i, c in enumerate(flat)]
    for s, t, mult in U.arrows:
        if s in fiber:
            y[s] += mult * flat[t]
        if t in fiber:
            y[t] += mult * flat[s]
    return fold_root(U, tuple(y))


def loop_extended_orbits(ring, phi_plus) -> tuple:
    """Per root: the tuple over simples l of the root times S_l."""
    simples = [ring.basis(l) for l in range(ring.rank)]
    return tuple(
        (r, tuple(tuple(loop_multiply(ring, c, s) for c in r) for s in simples))
        for r in phi_plus
    )


def loop_validate(ring) -> ValidationReport:
    rep = ValidationReport()
    r = ring.rank
    N, unit, dual = ring.N, ring.unit, ring.dual

    if len(ring.names) != r or len(N) != r or len(dual) != r:
        rep.violations.append("inconsistent rank across fields")
        return rep
    for i in range(r):
        if len(N[i]) != r or any(len(N[i][j]) != r for j in range(r)):
            rep.violations.append(f"N[{i}] has wrong shape")
            return rep

    for i in range(r):
        for j in range(r):
            for k in range(r):
                if N[i][j][k] < 0:
                    rep.violations.append(f"negative multiplicity N[{i}][{j}][{k}]")

    for j in range(r):
        for k in range(r):
            want = 1 if j == k else 0
            if N[unit][j][k] != want:
                rep.violations.append(f"unit law fails at N[unit][{j}][{k}]")
            if N[j][unit][k] != want:
                rep.violations.append(f"unit law fails at N[{j}][unit][{k}]")

    for i in range(r):
        for j in range(r):
            for k in range(r):
                for l in range(r):
                    lhs = sum(N[i][j][m] * N[m][k][l] for m in range(r))
                    rhs = sum(N[j][k][m] * N[i][m][l] for m in range(r))
                    if lhs != rhs:
                        rep.violations.append(
                            f"associativity fails at (i,j,k,l)=({i},{j},{k},{l})"
                        )

    if sorted(dual) != list(range(r)):
        rep.violations.append("dual is not a permutation")
        return rep
    for i in range(r):
        if dual[dual[i]] != i:
            rep.violations.append(f"dual not involutive at {i}")
    if dual[unit] != unit:
        rep.violations.append("dual(unit) != unit")
    for i in range(r):
        for j in range(r):
            want = 1 if j == dual[i] else 0
            if N[i][j][unit] != want:
                rep.violations.append(f"rigidity fails at N[{i}][{j}][unit]")
    for i in range(r):
        for j in range(r):
            for k in range(r):
                if N[i][j][k] != N[dual[j]][dual[i]][dual[k]]:
                    rep.violations.append(f"dual symmetry fails at ({i},{j},{k})")
    return rep


def loop_validate_module(M) -> ValidationReport:
    rep = ValidationReport()
    ring = M.ring
    r, n = ring.rank, M.msize

    if len(M.act) != r:
        rep.violations.append("number of action matrices != ring rank")
        return rep
    for i in range(r):
        if len(M.act[i]) != n or any(len(row) != n for row in M.act[i]):
            rep.violations.append(f"act[{i}] has wrong shape")
            return rep
        for row in M.act[i]:
            if any(x < 0 for x in row):
                rep.violations.append(f"act[{i}] has a negative entry")

    mats = [np.array(M.act[i], dtype=object) for i in range(r)]

    if not np.array_equal(mats[ring.unit], np.eye(n, dtype=object)):
        rep.violations.append("act[unit] is not the identity")

    for i in range(r):
        for j in range(r):
            lhs = mats[i].dot(mats[j])
            rhs = np.zeros((n, n), dtype=object)
            for k in range(r):
                if ring.N[i][j][k]:
                    rhs = rhs + ring.N[i][j][k] * mats[k]
            if not np.array_equal(lhs, rhs):
                rep.violations.append(f"action axiom fails at (i,j)=({i},{j})")

    for i in range(r):
        if not np.array_equal(mats[ring.dual[i]], mats[i].T):
            rep.violations.append(f"transpose law fails at simple {i}")

    adj = np.zeros((n, n), dtype=bool)
    for m in mats:
        adj |= np.asarray(m, dtype=float) > 0
    adj |= adj.T
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in range(n):
            if adj[u][w] and w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != n:
        rep.warnings.append("module appears decomposable (action support disconnected)")
    return rep


def loop_perron_vector(A):
    """The Perron vector of a non-negative matrix by power iteration on A + I,
    with numpy's vector norm: `ring.perron_eigenpair` must match it bit for
    bit."""
    B = A + np.eye(len(A))
    v = np.ones(len(A)) / math.sqrt(len(A))
    lam = 1.0
    for _ in range(POWER_ITER_CAP):
        w = B @ v
        lam_new = float(np.linalg.norm(w))
        w = w / lam_new
        if np.linalg.norm(w - v) < POWER_ITER_TOL and abs(lam_new - lam) < POWER_ITER_TOL:
            return w
        v, lam = w, lam_new
    raise AssertionError("power iteration did not converge")


def loop_fpdim(ring) -> FPVector:
    total = np.zeros((ring.rank, ring.rank), dtype=float)
    mats = []
    for i in range(ring.rank):
        m = np.asarray(_left_mult(ring, i), dtype=float)
        mats.append(m)
        total += m
    v = loop_perron_vector(total)
    v = v / v[ring.unit]
    k = int(np.argmax(v))
    dims = tuple(float((m @ v)[k] / v[k]) for m in mats)
    return FPVector(dims=dims)


def loop_module_fpdims(M) -> tuple:
    total = np.zeros((M.msize, M.msize), dtype=float)
    for i in range(M.ring.rank):
        total += np.asarray(np.array(M.act[i], dtype=object), dtype=float)
    v = loop_perron_vector(total)
    return tuple(float(x) for x in v / v.min())


def global_positive_roots(nv, arrows, cap=10**6) -> frozenset:
    """Positive roots of a simply laced quiver on range(nv) by reflection
    closure of full-length vectors from the simple roots: repeatedly apply
    x -> x - (2 x_i - sum of neighbor entries) e_i, keeping vectors with all
    entries non-negative."""
    und = {}
    for s, t, m in arrows:
        key = (min(s, t), max(s, t))
        und[key] = und.get(key, 0) + m
    adj = [set() for _ in range(nv)]
    for (u, v), m in und.items():
        if m >= 2 or u == v:
            raise InfiniteComponent("root closure requires a simply laced simple graph")
        adj[u].add(v)
        adj[v].add(u)
    roots = set()
    frontier = []
    for i in range(nv):
        e = tuple(1 if k == i else 0 for k in range(nv))
        roots.add(e)
        frontier.append(e)
    while frontier:
        x = frontier.pop()
        for i in range(nv):
            c = 2 * x[i] - sum(x[j] for j in adj[i])
            if c == 0:
                continue
            y = list(x)
            y[i] -= c
            if y[i] < 0:
                continue
            y = tuple(y)
            if y not in roots:
                roots.add(y)
                frontier.append(y)
                if len(roots) > cap:
                    raise InfiniteComponent("root closure exceeded the cap")
    return frozenset(roots)


def edge_reflect_dimvec(Q, v, x) -> tuple:
    """Simple reflection at v, resolving every incident edge's action matrix
    on Q's module on each call."""
    M = Q.resolved_module()
    new_v = np.array([-c for c in x[v]], dtype=object)
    for e in Q.edges:
        if e.source == v:
            mat = label_matrix(M, e.label).T
            new_v = new_v + mat.dot(np.array(x[e.target], dtype=object))
        elif e.target == v:
            mat = label_matrix(M, e.label)
            new_v = new_v + mat.dot(np.array(x[e.source], dtype=object))
    return tuple(
        tuple(int(c) for c in new_v) if w == v else x[w] for w in range(len(x))
    )


def dimvec_fpdim(M, x, mu=None):
    """Entrywise FP dimension of a dimension vector: one real per vertex."""
    if mu is None:
        mu = module_fpdims(M)
    return np.array([sum(c * d for c, d in zip(a, mu)) for a in x])


def reflect_real(Q, v: int, y):
    """The real shadow of reflect_dimvec on per-vertex FP dimensions."""
    fpv = fpdim(Q.ring) if Q.ring is not None else None
    out = np.array(y, dtype=float)
    acc = -y[v]
    for e in Q.edges:
        if e.source == v:
            acc += label_fpdim(Q, e.label, fpv) * y[e.target]
        elif e.target == v:
            acc += label_fpdim(Q, e.label, fpv) * y[e.source]
    out[v] = acc
    return out


def dimvec_basis(nv: int, msize: int, v: int, coeff) -> tuple:
    """The dimension vector with module coefficient `coeff` at vertex v."""
    zero = (0,) * msize
    return tuple(tuple(coeff) if w == v else zero for w in range(nv))


def _vertex_actions(Q) -> list:
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
    """The reflection at v of the tuple vector x, on the vertex actions of
    _vertex_actions."""
    new_v = [-c for c in x[v]]
    for w, rows in acts[v]:
        new_v = [a + sum(map(operator.mul, row, x[w])) for a, row in zip(new_v, rows)]
    return x[:v] + (tuple(new_v),) + x[v + 1:]


def loop_orbit_sizes(Q) -> set:
    """The orbit sizes of sigma_a sigma_b over the simple roots [L] alpha_a
    of the one-edge quiver Q, one simple and one tuple vector at a time: the
    steps until the vector returns, or INFINITY once an entry leaves the root
    bound after a step."""
    acts = _vertex_actions(Q)
    msize = len(Q.module_names())
    sizes = set()
    for l in range(msize):
        start = x = dimvec_basis(2, msize, 0, tuple(int(j == l) for j in range(msize)))
        for step in itertools.count(1):
            x = _reflect(acts, 0, _reflect(acts, 1, x))
            if x == start:
                sizes.add(step)
                break
            if any(abs(c) > ROOT_ENTRY_MAX for a in x for c in a):
                sizes.add(INFINITY)
                break
    return sizes


def _is_positive(x) -> bool:
    return all(all(c >= 0 for c in a) for a in x) and any(c > 0 for a in x for c in a)


def loop_closure(Q, starts, keep, what: str, cap=10**6) -> set:
    """The vectors reached from `starts` by simple reflections through
    vectors that pass `keep`, one tuple vector and one vertex at a time."""
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
                if len(seen) > cap:
                    raise OutOfRange(f"{what} exceeded the cap of {cap} vectors")
    return seen


def loop_enumerate_by_closure(Q) -> list:
    msize = len(Q.module_names())
    starts = [
        dimvec_basis(Q.nv, msize, v, tuple(1 if j == l else 0 for j in range(msize)))
        for v in range(Q.nv)
        for l in range(msize)
    ]
    return sorted(loop_closure(Q, starts, _is_positive, "closure"))


def loop_dimvecs(rows, nv: int, m: int) -> list:
    """int8 rows, flattened vertex-major, as sorted tuple-of-tuples dimension
    vectors: a lexsort of the whole rows, then a new tuple for every block."""
    if rows.size:  # lexsort needs a column
        rows = rows[np.lexsort(rows.T[::-1])]
    return [tuple(map(tuple, x)) for x in rows.reshape(len(rows), nv, m).tolist()]


def loop_extended_positive_roots(Q) -> tuple:
    """(phi_plus, extended, orbits) of extended_positive_roots, without its
    cross-check against the enumeration."""
    if Q.partial_mode:
        raise MissingAction("extended roots need full-ring mode")
    ring = Q.ring
    Q = replace(Q, module=None)
    starts = [dimvec_basis(Q.nv, ring.rank, v, ring.one) for v in range(Q.nv)]
    orbit = loop_closure(Q, starts, lambda y: True, "orbit closure")
    phi_plus = tuple(sorted(x for x in orbit if _is_positive(x)))
    orbits = loop_extended_orbits(ring, phi_plus)
    extended = tuple(sorted({x for _, mults in orbits for x in mults}))
    return phi_plus, extended, orbits


def _edge_list_components(n, edges):
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


def _edge_list_pattern(comp, edges):
    """(name, Coxeter number, arm order) of a connected component given by
    its sorted vertex tuple and its (u, v, m) edges, or None when infinite."""
    n = len(comp)
    if any(u == v for u, v, _ in edges):
        return None
    if n == 1:
        return "A1", 2, comp
    if any(m == INFINITY for _, _, m in edges) or len(edges) != n - 1:
        return None
    adj = {v: [] for v in comp}
    for u, v, m in edges:
        adj[u].append((v, m))
        adj[v].append((u, m))
    degs = {v: len(adj[v]) for v in comp}
    high = [(u, v, m) for u, v, m in edges if m > 3]
    if max(degs.values()) >= 4 or sum(1 for v in comp if degs[v] == 3) >= 2:
        return None
    branch = [v for v in comp if degs[v] == 3]

    def arms(c):
        out = []
        for w, _ in adj[c]:
            arm = [c, w]
            while degs[arm[-1]] == 2:
                arm.append(next(x for x, _ in adj[arm[-1]] if x != arm[-2]))
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
    order = (end, *arms(end)[0])
    if not high:
        return f"A{n}", n + 1, order
    if len(high) > 1:
        return None
    u, v, m = high[0]
    at_leaf = degs[u] == 1 or degs[v] == 1
    if m == 4:
        return (f"B{n}", 2 * n, order) if at_leaf else ("F4", 12, order) if n == 4 else None
    if m == 5 and at_leaf:
        return {2: ("I2(5)", 5, order), 3: ("H3", 10, order), 4: ("H4", 30, order)}.get(n)
    if n == 2:
        return ("G2", 6, order) if m == 6 else (f"I2({m})", m, order)
    return None


def _edge_list_component(comp, edges) -> Component:
    named = _edge_list_pattern(comp, edges)
    if named is None:
        return Component(comp, "infinite", INFINITY, INFINITY)
    name, h, order = named
    return Component(comp, name, h, len(comp) * h // 2, order)


def edge_list_simply_laced_components(n, arrows) -> list:
    """quiver.simply_laced_components from the edge list: multiplicities
    summed per unordered pair, 1 read as m = 3 and more as m = INFINITY."""
    acc = {}
    for s, t, k in arrows:
        key = (min(s, t), max(s, t))
        acc[key] = acc.get(key, 0) + k
    return [
        _edge_list_component(comp, [(u, v, 3 if k == 1 else INFINITY) for u, v, k in sub])
        for comp, sub in _edge_list_components(n, [(u, v, k) for (u, v), k in acc.items()])
    ]


def edge_list_classify_coxeter(G) -> Classification:
    """quiver.classify_coxeter from the edge list of a Coxeter graph, with the
    same positive-definiteness cross-check."""
    out = []
    for comp, sub in _edge_list_components(len(G.vertices), G.edges):
        idx = {v: i for i, v in enumerate(comp)}
        gram = [[2.0 if i == j else 0.0 for j in comp] for i in comp]
        for u, v, m in sub:
            f = 2.0 if m == INFINITY else 2 * math.cos(math.pi / m)
            gram[idx[u]][idx[v]] -= f
            gram[idx[v]][idx[u]] -= f
        c = _edge_list_component(comp, sub)
        if c.finite != _posdef(gram):
            raise InconsistentVerdict(f"pattern match and positive definiteness disagree on {comp}")
        out.append(c)
    return Classification(tuple(out))
