"""Brute-force reference implementations of the ring, module, root-closure
and reflection kernels.

These are the original element-by-element loops over the nested-tuple data.
The vectorized kernels in `fqk.ring` and `fqk.module` must reproduce their
reports entry for entry, in the same order, their FP dimensions bit for bit
and their products exactly.  The per-component root closure in `fqk.unfold` must give the roots of
the global-coordinate closure, and the reflection in `fqk.reflect` must
agree with the per-edge action below and, on FP dimensions, with its real
shadow.
"""

import numpy as np

from fqk.errors import InfiniteComponent
from fqk.module import label_matrix, module_fpdims
from fqk.quiver import label_fpdim
from fqk.ring import FPVector, ValidationReport, dual, fpdim, perron_eigenpair, sub


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


def loop_fpdim(ring) -> FPVector:
    total = np.zeros((ring.rank, ring.rank), dtype=float)
    mats = []
    for i in range(ring.rank):
        m = np.asarray(_left_mult(ring, i), dtype=float)
        mats.append(m)
        total += m
    _, v = perron_eigenpair(total)
    v = v / v[ring.unit]
    k = int(np.argmax(v))
    dims = tuple(float((m @ v)[k] / v[k]) for m in mats)
    return FPVector(dims=dims)


def loop_module_fpdims(M) -> tuple:
    total = np.zeros((M.msize, M.msize), dtype=float)
    for i in range(M.ring.rank):
        total += np.asarray(np.array(M.act[i], dtype=object), dtype=float)
    _, v = perron_eigenpair(total)
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


def edge_reflect_dimvec(Q, M, v, x) -> tuple:
    """Simple reflection at v, resolving every incident edge's action matrix
    on each call."""
    if M is None and not Q.partial_mode:
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
