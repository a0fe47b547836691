"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(run with ``pytest -s`` or read the captured output).
"""

import math
import random
from contextlib import contextmanager

from fqk import (
    catalog,
    classify_coxeter,
    components,
    coxeter_graph,
    enumerate_by_closure,
    enumerate_indecomposables,
    fpdim,
    fpdim_of,
    is_finite_type,
    multiply,
    qnum_in_ring,
    rank_two_order,
    reflect_dimvec,
    sign_coherence,
    unfold,
    validate,
)
from fqk.quiver import CoxeterGraph
from fqk.ring import INFINITY

from conftest import BUILTIN_QUIVERS, BUILTIN_RINGS, FINITE_QUIVERS, random_element
from oracles import matrix_power_identity_check, unfolded_reflect_dimvec

TOL = 1e-9
TOL8 = 1e-8


@contextmanager
def criterion(n, desc):
    try:
        yield
    except BaseException:
        print(f"CRITERION {n}: FAIL - {desc}")
        raise
    print(f"CRITERION {n}: PASS - {desc}")


def test_criterion_1_s2_sign_edge():
    with criterion(1, "sign-rep edge quiver: finite, A2 x A2, 6 indecomposables"):
        Q = catalog.s2_sign_quiver()
        verdict = is_finite_type(Q)
        assert verdict.finite
        assert verdict.unfolded.type_names() == ("A2", "A2")
        vecs = enumerate_indecomposables(Q)
        expected = sorted(
            [
                ((1, 0), (0, 0)),
                ((0, 1), (0, 0)),
                ((0, 0), (1, 0)),
                ((0, 0), (0, 1)),
                ((1, 0), (0, 1)),
                ((0, 1), (1, 0)),
            ]
        )
        assert list(vecs) == expected


def test_criterion_2_s3_standard_edge():
    with criterion(2, "S3 standard edge quiver: FPdim 2, I2(inf), 6v/5a, infinite"):
        Q = catalog.s3_std_quiver()
        ring = Q.ring
        fpv = fpdim(ring)
        assert abs(fpv.dims[ring.names.index("V")] - 2.0) < TOL
        g = coxeter_graph(Q)
        assert g.edges[0][2] == INFINITY
        assert not classify_coxeter(g).finite
        U = unfold(Q)
        assert len(U.vertices) == 6
        assert len(U.arrows) == 5
        # star with the two degree-3 centers in the standard-rep fibers,
        # joined by the diagonal arrow
        names = U.vertex_names()
        deg = {}
        for s, t, m in U.arrows:
            assert m == 1
            deg[s] = deg.get(s, 0) + 1
            deg[t] = deg.get(t, 0) + 1
        assert sorted(names[i] for i, d in deg.items() if d == 3) == ["a,V", "b,V"]
        assert any(
            names[s] == "a,V" and names[t] == "b,V" for s, t, _ in U.arrows
        )
        assert not is_finite_type(Q).finite


def test_criterion_3_s4_standard_edge():
    # the unfolded quiver has 2 x 5 = 10 vertices (five simples per
    # endpoint) and 12 arrows; adjacency as in the degree sequence below
    with criterion(3, "S4 standard edge quiver: 10-vertex/12-arrow unfolding, infinite"):
        Q = catalog.s4_std_quiver()
        U = unfold(Q)
        assert len(U.vertices) == 10
        assert len(U.arrows) == 12
        outdeg = {}
        indeg = {}
        for s, t, m in U.arrows:
            assert m == 1
            outdeg[s] = outdeg.get(s, 0) + 1
            indeg[t] = indeg.get(t, 0) + 1
        assert sorted(outdeg.values()) == [1, 1, 2, 4, 4]
        assert sorted(indeg.values()) == [1, 1, 2, 4, 4]
        assert all(s < 5 <= t for s, t, _ in U.arrows)
        assert not is_finite_type(Q).finite


def test_criterion_4_fibonacci_edge():
    with criterion(4, "golden-ratio edge quiver: order 5, A4, 10 roots, sign pattern"):
        Q = catalog.fib_edge_quiver()
        fib = Q.ring
        tau = fib.basis("tau")
        assert rank_two_order(fib, tau) == 5
        rep = components(unfold(Q))
        assert rep.type_names() == ("A4",)
        assert rep.components[0].coxeter_number == 5
        assert len(enumerate_indecomposables(Q)) == 10
        for color in ("d", "d'"):
            assert qnum_in_ring(fib, tau, 5, color) == fib.zero()
        sc = sign_coherence(fib, tau, 20)
        assert sc.minimal_m == 5
        for k in range(1, 21):
            expect = (
                "zero"
                if k % 5 == 0
                else ("positive" if (k // 5) % 2 == 0 else "negative")
            )
            assert sc.signs_d[k - 1] == expect, k
            assert sc.signs_dp[k - 1] == expect, k


def test_criterion_5_h4_chain():
    with criterion(5, "golden-ratio H4 chain: Gamma H4, E8 unfolding, 120 roots"):
        Q = catalog.fib_h4_quiver()
        v = is_finite_type(Q)
        assert v.finite
        assert v.gamma.type_names() == ("H4",)
        assert v.unfolded.type_names() == ("E8",)
        assert len(enumerate_indecomposables(Q)) == 120


def test_criterion_6_verlinde_level_4():
    with criterion(6, "level-4 Verlinde: 2xA5/30 regular, 2xD4/24 type-D, h=6 both"):
        regQ = catalog.verlinde_l4_quiver()
        rep = components(unfold(regQ))
        assert rep.type_names() == ("A5", "A5")
        assert len(enumerate_indecomposables(regQ)) == 30
        assert {c.coxeter_number for c in rep.components} == {6}

        dQ = catalog.verlinde_l4_typeD_quiver()
        drep = components(unfold(dQ))
        assert drep.type_names() == ("D4", "D4")
        assert len(enumerate_indecomposables(dQ)) == 24
        assert {c.coxeter_number for c in drep.components} == {6}

        # level 2: regular and type-D counts coincide at 12
        l2 = catalog.verlinde_l2_typeD_quiver()
        assert len(enumerate_indecomposables(l2)) == 12
        assert components(unfold(l2)).type_names() == ("A3", "A3")


def test_criterion_7_sl3_level_5_partial():
    with criterion(7, "partial-mode 6x6 action edge: 3xA4, 30 roots, FPdim 2cos(pi/5)"):
        Q = catalog.sl3at5_x_quiver()
        U = unfold(Q)
        assert len(U.vertices) == 12
        assert len(U.arrows) == 9
        rep = components(U)
        assert rep.type_names() == ("A4", "A4", "A4")
        assert len(enumerate_indecomposables(Q)) == 30
        label = Q.edges[0].label
        assert abs(label.fpdim() - 2 * math.cos(math.pi / 5)) < TOL8


def test_criterion_8_property_suites():
    with criterion(8, "property suites: axioms, FPdim, reflections, qnums, oracles"):
        rng = random.Random(99)

        # ring axioms on every builtin
        for ring in BUILTIN_RINGS.values():
            assert validate(ring).ok

        # FPdim is a ring homomorphism (100 random pairs per ring)
        for ring in BUILTIN_RINGS.values():
            fpv = fpdim(ring)
            for _ in range(100):
                x = random_element(rng, ring.rank)
                y = random_element(rng, ring.rank)
                lhs = fpdim_of(ring, multiply(ring, x, y), fpv)
                rhs = fpdim_of(ring, x, fpv) * fpdim_of(ring, y, fpv)
                assert abs(lhs - rhs) < TOL8

        # reflection involution and folding equivariance, 100 vectors each
        for Q in BUILTIN_QUIVERS.values():
            U = unfold(Q)
            msize = len(U.mnames)
            for _ in range(100 // Q.nv):
                x = tuple(
                    tuple(rng.randint(-2, 2) for _ in range(msize))
                    for _ in range(Q.nv)
                )
                for v in range(Q.nv):
                    rx = reflect_dimvec(Q, v, x)
                    assert reflect_dimvec(Q, v, rx) == x
                    assert unfolded_reflect_dimvec(U, v, x) == rx

        # FPdim of two-colored quantum numbers matches the classical value
        labels = [
            ("fibonacci", "tau"),
            ("rep_s2", "S"),
            ("rep_s3", "V"),
            ("rep_s4", "V3"),
            ("verlinde_sl2_2", "V1"),
            ("verlinde_sl2_4", "V1"),
        ]
        for rkey, lname in labels:
            ring = BUILTIN_RINGS[rkey]
            pi = ring.basis(lname)
            fpv = fpdim(ring)
            f = fpdim_of(ring, pi, fpv)
            for k in range(21):
                if f < 2 - TOL:
                    th = math.acos(f / 2)
                    classical = math.sin(k * th) / math.sin(th)
                elif f > 2 + TOL:
                    th = math.acosh(f / 2)
                    classical = math.sinh(k * th) / math.sinh(th)
                else:
                    classical = float(k)
                for color in ("d", "d'"):
                    val = fpdim_of(ring, qnum_in_ring(ring, pi, k, color), fpv)
                    assert abs(val - classical) < TOL8 * max(1.0, abs(classical))

        # positivity below the order and full sign coherence for K = 20
        for rkey, lname in labels:
            ring = BUILTIN_RINGS[rkey]
            pi = ring.basis(lname)
            sc = sign_coherence(ring, pi, 20)
            m = sc.minimal_m
            for k in range(1, 21):
                if m is None or k < m:
                    assert sc.signs_d[k - 1] == "positive"
                    assert sc.signs_dp[k - 1] == "positive"

        # the two enumeration paths agree on every finite builtin
        for name in FINITE_QUIVERS:
            Q = BUILTIN_QUIVERS[name]
            assert list(enumerate_indecomposables(Q)) == sorted(
                enumerate_by_closure(Q)
            )

        # closed-form powers of the rank-two Coxeter element, k <= 10
        for rkey, lname in labels:
            ring = BUILTIN_RINGS[rkey]
            pi = ring.basis(lname)
            for k in range(11):
                assert matrix_power_identity_check(ring, pi, k)

        # rank_two_order cross-checks the angle, sign-pattern, and orbit
        # methods internally and raises on any mismatch
        expected_orders = {
            ("fibonacci", "tau"): 5,
            ("rep_s2", "S"): 3,
            ("rep_s3", "V"): INFINITY,
            ("verlinde_sl2_2", "V1"): 4,
            ("verlinde_sl2_4", "V1"): 6,
        }
        for (rkey, lname), order in expected_orders.items():
            ring = BUILTIN_RINGS[rkey]
            assert rank_two_order(ring, ring.basis(lname)) == order
        assert rank_two_order(
            BUILTIN_RINGS["verlinde_sl2_4"],
            BUILTIN_RINGS["verlinde_sl2_4"].basis("V1"),
            module=catalog.verlinde_typeD(4),
        ) == 6


def test_criterion_9_classifier_calibration():
    with criterion(9, "classifier calibration: all finite families plus affine extensions"):
        def path(labels):
            n = len(labels) + 1
            return CoxeterGraph(
                vertices=tuple(str(i) for i in range(n)),
                edges=tuple((i, i + 1, m) for i, m in enumerate(labels)),
            )

        def branched(n, fork_at):
            edges = [(i, i + 1, 3) for i in range(n - 2)] + [(fork_at, n - 1, 3)]
            return CoxeterGraph(
                vertices=tuple(str(i) for i in range(n)), edges=tuple(edges)
            )

        def cycle(n):
            return CoxeterGraph(
                vertices=tuple(str(i) for i in range(n)),
                edges=tuple((i, (i + 1) % n, 3) for i in range(n)),
            )

        def star(arms):
            nv = 1 + sum(arms)
            edges = []
            nxt = 1
            for a in arms:
                prev = 0
                for _ in range(a):
                    edges.append((prev, nxt, 3))
                    prev = nxt
                    nxt += 1
            return CoxeterGraph(
                vertices=tuple(str(i) for i in range(nv)), edges=tuple(edges)
            )

        table = []
        for n in range(1, 10):
            table.append((path([3] * (n - 1)), f"A{n}", n + 1))
        for n in range(3, 10):
            table.append((path([4] + [3] * (n - 2)), f"B{n}", 2 * n))
        for n in range(4, 10):
            table.append((branched(n, n - 3), f"D{n}", 2 * n - 2))
        table += [
            (branched(6, 2), "E6", 12),
            (branched(7, 2), "E7", 18),
            (branched(8, 2), "E8", 30),
            (path([3, 4, 3]), "F4", 12),
            (path([6]), "G2", 6),
            (path([5, 3]), "H3", 10),
            (path([5, 3, 3]), "H4", 30),
        ]
        for m in range(3, 13):
            nm = {3: "A2", 4: "B2", 6: "G2"}.get(m, f"I2({m})")
            table.append((path([m]), nm, m))

        for g, name, h in table:
            cls = classify_coxeter(g)
            assert cls.finite, name
            assert cls.components[0].type_name == name
            assert cls.components[0].coxeter_number == h

        infinite = (
            [cycle(n + 1) for n in range(2, 10)]
            + [path([4] + [3] * (n - 2) + [4]) for n in range(2, 9)]
            + [
                star([1, 1, 1, 1]),
                star([2, 2, 2]),
                star([1, 3, 3]),
                star([1, 2, 5]),
                path([3, 3, 4, 3]),
                path([6, 3]),
                path([5, 3, 5]),
                path([5, 3, 3, 3]),
                path([12, 3]),
                path([INFINITY]),
            ]
        )
        for g in infinite:
            assert not classify_coxeter(g).finite
