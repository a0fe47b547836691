import math
import sys

import pytest

from fqk import (
    InconsistentVerdict,
    InfiniteComponent,
    catalog,
    components,
    enumerate_indecomposables,
    fpdim,
    fpdim_of,
    is_finite_type,
    module_fpdims,
    positive_roots_simply_laced,
    unfold,
)
from fqk.module import OrdinaryQuiver
from fqk.reflect import label_fpdim
from fqk.ring import INFINITY

from conftest import BUILTIN_QUIVERS, FINITE_QUIVERS


def ordinary_path(n):
    return OrdinaryQuiver(
        vertices=tuple(str(i) for i in range(n)),
        arrows=tuple((i, i + 1, 1) for i in range(n - 1)),
    )


def ordinary_branched(n, fork_at):
    arrows = [(i, i + 1, 1) for i in range(n - 2)] + [(fork_at, n - 1, 1)]
    return OrdinaryQuiver(
        vertices=tuple(str(i) for i in range(n)), arrows=tuple(arrows)
    )


class TestUnfold:
    def test_s3_standard_six_vertices_five_arrows(self):
        U = unfold(catalog.s3_std_quiver())
        assert len(U.vertices) == 6
        assert len(U.arrows) == 5
        # star with two adjacent degree-3 centers: the V-fiber vertices
        names = U.vertex_names()
        deg = {i: 0 for i in range(6)}
        for s, t, m in U.arrows:
            deg[s] += m
            deg[t] += m
        centers = sorted(names[i] for i, d in deg.items() if d == 3)
        assert centers == ["a,V", "b,V"]
        # the diagonal arrow between the two centers is present
        assert any(
            names[s] == "a,V" and names[t] == "b,V" for s, t, _ in U.arrows
        )

    def test_s4_standard_matches_figure(self):
        U = unfold(catalog.s4_std_quiver())
        # two vertices times five simples
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
        # bipartite: all arrows go from the source fiber to the target fiber
        assert all(s < 5 <= t for s, t, _ in U.arrows)

    def test_fibonacci_is_connected_a4(self):
        U = unfold(catalog.fib_edge_quiver())
        rep = components(U)
        assert rep.type_names() == ("A4",)

    def test_sl3at5_three_a4_components(self):
        U = unfold(catalog.sl3at5_x_quiver())
        assert len(U.vertices) == 12
        assert len(U.arrows) == 9
        rep = components(U)
        assert rep.type_names() == ("A4", "A4", "A4")

    def test_unfolding_ordinary_quiver_is_identity(self):
        # over the trivial ring the unfolding reproduces the quiver
        from fqk import Edge, FusionQuiver, normalize

        v = catalog.vect()
        Q = normalize(
            FusionQuiver(
                vertices=("a", "b", "c"),
                edges=(Edge(0, 1, v.one), Edge(1, 2, v.one)),
                ring=v,
            )
        )
        U = unfold(Q)
        assert len(U.vertices) == 3
        assert sorted(U.arrows) == [(0, 1, 1), (1, 2, 1)]

    def test_fp_degree_consistency(self):
        for Q in BUILTIN_QUIVERS.values():
            M = Q.resolved_module()
            U = unfold(Q)
            mu = (
                module_fpdims(M)
                if M is not None
                else _partial_fp_vector(Q)
            )
            fpv = fpdim(Q.ring) if Q.ring is not None else None
            n = len(U.mnames)
            for e in Q.edges:
                f = label_fpdim(Q, e.label, fpv)
                for l in range(n):
                    lhs = sum(
                        m * mu[U.vertices[t][1]]
                        for s, t, m in U.arrows
                        if s == e.source * n + l and U.vertices[t][0] == e.target
                    )
                    assert lhs == pytest.approx(f * mu[l], abs=1e-8)

    def test_bipartite_quivers_unfold_bipartite(self):
        for name in ("s2_sign_quiver", "fib_edge_quiver", "verlinde_l4_quiver"):
            U = unfold(BUILTIN_QUIVERS[name])
            n = len(U.mnames)
            assert all(s < n <= t for s, t, _ in U.arrows)


def _partial_fp_vector(Q):
    import numpy as np

    from fqk.ring import perron_eigenpair

    mats = [
        np.asarray(e.label.matrix, dtype=float) for e in Q.edges
    ]
    total = sum(m + m.T for m in mats)
    _, v = perron_eigenpair(total)
    return tuple(v / v.min())


class TestComponents:
    def test_verlinde_l4_regular_two_a5(self):
        rep = components(unfold(catalog.verlinde_l4_quiver()))
        assert rep.type_names() == ("A5", "A5")
        assert rep.total_root_count() == 30
        assert {c.coxeter_number for c in rep.components} == {6}

    def test_verlinde_l4_typeD_two_d4(self):
        rep = components(unfold(catalog.verlinde_l4_typeD_quiver()))
        assert rep.type_names() == ("D4", "D4")
        assert rep.total_root_count() == 24
        assert {c.coxeter_number for c in rep.components} == {6}

    def test_s3_single_infinite_component(self):
        rep = components(unfold(catalog.s3_std_quiver()))
        assert rep.type_names() == ("infinite",)
        assert not rep.finite

    def test_components_sorted(self):
        rep = components(unfold(catalog.sl3at5_x_quiver()))
        starts = [c.vertices[0] for c in rep.components]
        assert starts == sorted(starts)


class TestIsFiniteType:
    def test_fibonacci_finite(self):
        v = is_finite_type(catalog.fib_edge_quiver())
        assert v.finite
        assert v.gamma.type_names() == ("I2(5)",)
        assert v.unfolded.type_names() == ("A4",)

    def test_s3_infinite(self):
        assert not is_finite_type(catalog.s3_std_quiver()).finite

    def test_s4_infinite(self):
        assert not is_finite_type(catalog.s4_std_quiver()).finite

    def test_h4_chain_unfolds_to_e8(self):
        v = is_finite_type(catalog.fib_h4_quiver())
        assert v.finite
        assert v.gamma.type_names() == ("H4",)
        assert v.unfolded.type_names() == ("E8",)
        assert v.unfolded.components[0].coxeter_number == 30

    def test_coxeter_numbers_match_gamma(self):
        for name in FINITE_QUIVERS:
            v = is_finite_type(BUILTIN_QUIVERS[name])
            assert v.finite
            hs = {c.coxeter_number for c in v.unfolded.components}
            assert hs == {v.gamma.components[0].coxeter_number}


class TestPositiveRoots:
    def test_a2_roots(self):
        roots = positive_roots_simply_laced(ordinary_path(2))
        assert roots == {(1, 0), (0, 1), (1, 1)}

    @pytest.mark.parametrize("n", range(1, 9))
    def test_a_series(self, n):
        assert len(positive_roots_simply_laced(ordinary_path(n))) == n * (n + 1) // 2

    @pytest.mark.parametrize("n", range(4, 9))
    def test_d_series(self, n):
        q = ordinary_branched(n, n - 3)
        assert len(positive_roots_simply_laced(q)) == n * (n - 1)

    @pytest.mark.parametrize("n,count", [(6, 36), (7, 63), (8, 120)])
    def test_e_series(self, n, count):
        q = ordinary_branched(n, 2)
        assert len(positive_roots_simply_laced(q)) == count

    def test_e8_from_h4_unfolding(self):
        U = unfold(catalog.fib_h4_quiver())
        assert len(positive_roots_simply_laced(U)) == 120

    def test_enumeration_finds_components_once(self, monkeypatch):
        # fqk.unfold is the re-exported function, so patch the module itself
        unfold_module = sys.modules["fqk.unfold"]
        real, calls = unfold_module.components, []

        def counted(U):
            calls.append(U)
            return real(U)

        monkeypatch.setattr(unfold_module, "components", counted)
        assert len(enumerate_indecomposables(catalog.fib_h4_quiver())) == 120
        assert len(calls) == 1

    def test_infinite_component_rejected(self):
        U = unfold(catalog.s3_std_quiver())
        with pytest.raises(InfiniteComponent):
            positive_roots_simply_laced(U)

    def test_multiplicity_two_rejected(self):
        q = OrdinaryQuiver(vertices=("a", "b"), arrows=((0, 1, 2),))
        with pytest.raises(InfiniteComponent):
            positive_roots_simply_laced(q)
