import math
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from fqk import (
    ActionLabel,
    Edge,
    FusionQuiver,
    InconsistentVerdict,
    MissingAction,
    NotReflectable,
    OutOfRange,
    admissible_sink_ordering,
    catalog,
    classify_coxeter,
    coxeter_graph,
    enumerate_by_closure,
    enumerate_indecomposables,
    is_finite_type,
    labeled_graph,
    normalize,
    rank_two_order,
    real_bilinear_form,
    reflect_quiver,
    regular_module,
    unfold,
)
from fqk.quiver import CoxeterGraph, _label_order, _posdef, simply_laced_components
from fqk.ring import INFINITY, angle_label, fpdim

from conftest import BUILTIN_QUIVERS
from oracles import edge_list_classify_coxeter, edge_list_simply_laced_components

IDENTITY3 = ActionLabel.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def path_graph(labels):
    n = len(labels) + 1
    return CoxeterGraph(
        vertices=tuple(str(i) for i in range(n)),
        edges=tuple((i, i + 1, m) for i, m in enumerate(labels)),
    )


def branched_graph(n, fork_at, extra_labels=3):
    """Tree: path 0..n-2 plus vertex n-1 attached to fork_at."""
    edges = [(i, i + 1, 3) for i in range(n - 2)] + [(fork_at, n - 1, 3)]
    return CoxeterGraph(
        vertices=tuple(str(i) for i in range(n)), edges=tuple(edges)
    )


class TestBoundary:
    @pytest.mark.parametrize("source,target", [(0, 2), (-1, 1), (5, 0)])
    def test_endpoint_outside_vertices(self, source, target):
        fib = catalog.fibonacci()
        with pytest.raises(OutOfRange):
            FusionQuiver(("a", "b"), (Edge(source, target, fib.basis("tau")),), ring=fib)

    @pytest.mark.parametrize("label", [(1,), (0, 1, 0)])
    def test_label_length_not_rank(self, label):
        with pytest.raises(OutOfRange):
            FusionQuiver(("a", "b"), (Edge(0, 1, label),), ring=catalog.fibonacci())

    @pytest.mark.parametrize("label", [(1, -1), (-1, 3)])
    def test_label_with_a_negative_coefficient(self, label):
        with pytest.raises(OutOfRange, match="non-negative"):
            FusionQuiver(("a", "b"), (Edge(0, 1, label),), ring=catalog.fibonacci())

    @pytest.mark.parametrize(
        "call",
        [
            lambda fib, M: FusionQuiver(("a", "b"), (Edge(0, 1, (0, 1)),), ring=fib, module=M),
            lambda fib, M: unfold(replace(catalog.fib_edge_quiver(), module=M)),
            lambda fib, M: enumerate_by_closure(replace(catalog.fib_edge_quiver(), module=M)),
            lambda fib, M: rank_two_order(fib, fib.basis("tau"), module=M),
        ],
        ids=["constructor", "unfold", "enumerate_by_closure", "rank_two_order"],
    )
    def test_module_over_another_ring(self, call):
        # Rep(S2) has the Fibonacci ring's rank, so only the ring tells them apart
        with pytest.raises(OutOfRange, match="not over the quiver's ring"):
            call(catalog.fibonacci(), regular_module(catalog.rep_s2()))

    @pytest.mark.parametrize(
        "rows", [[[1, 0, 0], [0, 1, 0]], [[1, 0], [0]], [[0, -1], [-1, 0]]],
        ids=["2x3", "ragged", "negative"],
    )
    def test_action_label_not_square_non_negative(self, rows):
        with pytest.raises(OutOfRange):
            ActionLabel.from_rows(rows)

    @pytest.mark.parametrize(
        "kwargs, error",
        [
            # at the parent, the closure oracle returned 30 vectors here
            ({"edges": (Edge(0, 1, IDENTITY3),), "ring": catalog.fibonacci()}, OutOfRange),
            # ... a ragged vector from reflect_dimvec, a ValueError from unfold
            ({"edges": (Edge(0, 1, IDENTITY3), Edge(1, 2, ActionLabel.from_rows([[1, 0], [0, 1]])))}, OutOfRange),
            # ... 6 vectors from the closure oracle
            ({"edges": (Edge(0, 1, IDENTITY3),), "mnames": ("x", "y")}, OutOfRange),
            ({"edges": (Edge(0, 1, (0, 1)),)}, MissingAction),
            ({"edges": ()}, OutOfRange),  # nothing fixes the module size
        ],
        ids=["fibonacci_3x3", "sizes_3_and_2", "mnames_2_label_3x3", "ring_label_no_ring", "no_module_size"],
    )
    def test_labels_must_act_on_one_module(self, kwargs, error):
        with pytest.raises(error):
            FusionQuiver(("a", "b", "c"), **kwargs)

    def test_explicit_module_must_fit_the_labels(self):
        with pytest.raises(OutOfRange):
            unfold(replace(catalog.fib_edge_quiver(), module=catalog.verlinde_typeD(4)))

    @pytest.mark.parametrize("call", [unfold, enumerate_by_closure], ids=["unfold", "enumerate_by_closure"])
    def test_module_argument_only_restates_the_quivers_own(self, call):
        """The quiver picks its module; a module passed beside it must be
        that module, and any other is rejected rather than acted on."""
        Q = catalog.verlinde_l4_typeD_quiver()
        assert call(Q, Q.resolved_module()) == call(Q, None) == call(Q)
        assert call(Q, catalog.verlinde_typeD(4)) == call(Q)  # an equal module restates it
        for M in (regular_module(Q.ring), regular_module(catalog.rep_s2())):
            with pytest.raises(OutOfRange, match="acts on its own module"):
                call(Q, M)

    def test_edge_actions_are_immutable(self):
        # a writable action would let an assignment change Gamma under an unchanged label
        Q = catalog.fib_edge_quiver()
        with pytest.raises(TypeError):
            Q.edge_actions[0][1][1] = 5
        with pytest.raises(TypeError):
            Q.edge_actions[0][1] = (0, 0)
        assert is_finite_type(Q).finite and coxeter_graph(Q).edges == ((0, 1, 5),)

    @pytest.mark.parametrize(
        "edges",
        [((0, 1, 2),), ((0, 1, 4.5),), ((0, 1, -3),), ((0, 1, 2.5),), ((0, 1, 0),),
         ((0, 1, True),), ((0, 2, 3),), ((-1, 0, 3),), ((0, 1.0, 3),),
         ((0, 1, 3), (1, 0, 3)), ((0, 1, 3), (0, 1, 4)), ((1, 1, 3), (1, 1, 3))],
        ids=["m2", "m4.5", "m-3", "m2.5", "m0", "m_bool", "endpoint_2", "endpoint_-1",
             "endpoint_float", "pair_reversed", "pair_twice", "loop_twice"],
    )
    def test_coxeter_edge_outside_the_table(self, edges):
        # at the parent m = 2, -3 and 2.5 named A2, 4.5 named I2(4), 0 divided
        # by zero and True failed the positive-definiteness cross-check
        with pytest.raises(OutOfRange):
            CoxeterGraph(("a", "b"), edges)

    def test_built_quiver_resolves_no_action_again(self, monkeypatch):
        import fqk.quiver

        Q = catalog.fib_h4_quiver()
        calls, real = [], fqk.quiver.label_matrix
        monkeypatch.setattr(
            fqk.quiver, "label_matrix", lambda *a: calls.append(1) or real(*a)
        )
        is_finite_type(Q)
        enumerate_indecomposables(Q)
        enumerate_by_closure(Q)
        assert normalize(Q) is Q  # already normal: nothing merges, nothing is resolved
        assert calls == []
        tau, zero = (0, 1), (0, 0)
        Q = replace(Q, edges=Q.edges + (Edge(0, 1, tau), Edge(0, 3, zero)))
        calls.clear()
        N = normalize(Q)  # a merged or dropped edge gives a new quiver: its edges resolve once
        assert len(N.edges) == 3 and len(calls) == len(N.edges)


class TestNormalize:
    def test_merge_parallel_unit_edges(self):
        v = catalog.vect()
        Q = FusionQuiver(
            vertices=("a", "b"),
            edges=(Edge(0, 1, v.one), Edge(0, 1, v.one)),
            ring=v,
        )
        n = normalize(Q)
        assert len(n.edges) == 1
        assert n.edges[0].label == (2,)

    def test_zero_label_removed(self):
        fib = catalog.fibonacci()
        Q = FusionQuiver(
            vertices=("a", "b"),
            edges=(Edge(0, 1, fib.zero()),),
            ring=fib,
        )
        assert normalize(Q).edges == ()

    def test_merge_distinct_labels(self):
        fib = catalog.fibonacci()
        Q = FusionQuiver(
            vertices=("a", "b"),
            edges=(Edge(0, 1, fib.basis("1")), Edge(0, 1, fib.basis("tau"))),
            ring=fib,
        )
        n = normalize(Q)
        assert len(n.edges) == 1
        assert n.edges[0].label == (1, 1)

    def test_merge_parallel_matrix_labels(self):
        a, b = ActionLabel.from_rows([[0, 1], [1, 1]]), ActionLabel.from_rows([[1, 0], [0, 1]])
        n = normalize(FusionQuiver(("a", "b"), (Edge(0, 1, a), Edge(0, 1, b))))
        assert [(e.source, e.target, e.label) for e in n.edges] == [
            (0, 1, ActionLabel.from_rows([[1, 1], [1, 2]]))
        ]

    def test_idempotent(self):
        for Q in BUILTIN_QUIVERS.values():
            assert normalize(Q) == normalize(normalize(Q))


class TestReflectQuiver:
    def test_self_dual_label_reverses(self):
        Q = catalog.fib_edge_quiver()
        R = reflect_quiver(Q, 1)
        assert [(e.source, e.target, e.label) for e in R.edges] == [
            (1, 0, Q.edges[0].label)
        ]

    def test_partial_mode_transposes(self):
        Q = catalog.sl3at5_x_quiver()
        R = reflect_quiver(Q, 1)
        assert R.edges[0].source == 1
        assert R.edges[0].label.matrix == Q.edges[0].label.transpose().matrix

    def test_double_reflection_restores(self):
        for Q in BUILTIN_QUIVERS.values():
            if len(Q.vertices) != 2:
                continue
            R = reflect_quiver(reflect_quiver(Q, 1), 0)
            assert R == Q

    def test_interior_vertex_rejected(self):
        Q = catalog.fib_h4_quiver()
        with pytest.raises(NotReflectable):
            reflect_quiver(Q, 1)

    def test_loop_rejected(self):
        fib = catalog.fibonacci()
        Q = FusionQuiver(
            vertices=("a",), edges=(Edge(0, 0, fib.basis("tau")),), ring=fib
        )
        with pytest.raises(NotReflectable):
            reflect_quiver(Q, 0)

    @pytest.mark.parametrize("v", [-1, 4, 99])
    def test_vertex_out_of_range_rejected(self, v):
        with pytest.raises(OutOfRange, match=f"vertex {v} outside 0..3"):
            reflect_quiver(catalog.fib_h4_quiver(), v)

    def test_labeled_graph_invariant(self):
        # reflection replaces labels by their duals, which keeps every FP dimension
        for Q in BUILTIN_QUIVERS.values():
            sinks = [
                v
                for v in range(len(Q.vertices))
                if all(e.source != v for e in Q.edges)
                or all(e.target != v for e in Q.edges)
            ]
            for v in sinks:
                R = reflect_quiver(Q, v)
                assert labeled_graph(R) == labeled_graph(Q)
                assert real_bilinear_form(R) == pytest.approx(real_bilinear_form(Q), abs=1e-9)


class TestGamma:
    @pytest.mark.parametrize("route", [coxeter_graph, labeled_graph])
    def test_fibonacci_edge_is_i25(self, route):
        cls = classify_coxeter(route(catalog.fib_edge_quiver()))
        assert cls.type_names() == ("I2(5)",)
        assert cls.components[0].coxeter_number == 5

    def test_s3_edge_is_i2_infinity(self):
        g = coxeter_graph(catalog.s3_std_quiver())
        assert g.edges[0][2] == INFINITY
        cls = classify_coxeter(g)
        assert not cls.finite

    def test_h4_chain_labels(self):
        g = coxeter_graph(catalog.fib_h4_quiver())
        assert sorted(m for _, _, m in g.edges) == [3, 3, 5]
        cls = classify_coxeter(g)
        assert cls.type_names() == ("H4",)
        assert cls.components[0].coxeter_number == 30

    @pytest.mark.parametrize("route", [coxeter_graph, labeled_graph])
    def test_m2_edges_dropped(self, route):
        # an un-normalized quiver keeps its zero-labeled edge, of m = 2
        fib = catalog.fibonacci()
        g = route(FusionQuiver(("a", "b"), (Edge(0, 1, fib.zero()),), ring=fib))
        assert g.edges == ()
        assert classify_coxeter(g).type_names() == ("A1", "A1")


class TestGammaFromActions:
    """Gamma's m is read from a label's integer action: its one-edge
    unfolding (Smith's theorem), not the FP dimension."""

    RINGS = [("fibonacci",), ("rep_s2",), ("rep_s3",), ("rep_s4",)] + [
        ("verlinde_sl2", L) for L in range(1, 13)
    ]

    @pytest.mark.parametrize("spec", RINGS, ids=[" ".join(map(str, s)) for s in RINGS])
    def test_unfolding_order_is_the_fpdim_angle(self, spec):
        R = catalog.builtin(*spec)
        dims = fpdim(R).dims
        for i, rows in enumerate(regular_module(R).act):
            assert _label_order(rows) == angle_label(dims[i]), (spec, R.names[i])

    @pytest.mark.parametrize(
        "rows, hs",
        [([[0, 0, 0], [0, 0, 1], [0, 1, 1]], "[2, 5]"), ([[0, 1], [0, 0]], "[2, 3]"),
         ([[1, 0], [0, 2]], "[3, inf]")],
        ids=["reducible", "nilpotent", "finite_and_infinite"],
    )
    def test_mixed_orders_rejected(self, rows, hs):
        Q = FusionQuiver(("a", "b"), (Edge(0, 1, ActionLabel.from_rows(rows)),))
        for decide in (coxeter_graph, is_finite_type, enumerate_indecomposables):
            with pytest.raises(OutOfRange, match=re.escape(hs)):
                decide(Q)

    def test_memo_keeps_gamma_and_never_a_rejection(self):
        Q = catalog.fib_h4_quiver()
        first = coxeter_graph(Q)
        misses = _label_order.cache_info().misses
        assert coxeter_graph(Q) == first
        assert _label_order.cache_info().misses == misses  # every action was remembered
        mixed = FusionQuiver(("a", "b"), (Edge(0, 1, ActionLabel.from_rows([[1, 0], [0, 2]])),))
        for _ in range(2):
            with pytest.raises(OutOfRange, match=re.escape("[3, inf]")):
                coxeter_graph(mixed)

    def test_opposite_edges_sum_with_the_transpose(self):
        # N + N^T is two A2 blocks, m = 3; 2N would be mixed
        N = ActionLabel.from_rows([[0, 1], [0, 0]])
        Q = FusionQuiver(("a", "b"), (Edge(0, 1, N), Edge(1, 0, N)))
        assert coxeter_graph(Q).edges == ((0, 1, 3),)
        assert is_finite_type(Q).gamma.type_names() == ("A2",)


# (graph, type, Coxeter number, positive roots), the counts written out per
# family rather than as n*h/2
COXETER_TABLE = []
for n in range(1, 10):
    COXETER_TABLE.append((path_graph([3] * (n - 1)), f"A{n}", n + 1, n * (n + 1) // 2))
for n in range(3, 10):
    COXETER_TABLE.append((path_graph([4] + [3] * (n - 2)), f"B{n}", 2 * n, n * n))
for n in range(4, 10):
    COXETER_TABLE.append((branched_graph(n, n - 3), f"D{n}", 2 * n - 2, n * (n - 1)))
COXETER_TABLE.append((branched_graph(6, 2), "E6", 12, 36))
COXETER_TABLE.append((branched_graph(7, 2), "E7", 18, 63))
COXETER_TABLE.append((branched_graph(8, 2), "E8", 30, 120))
COXETER_TABLE.append((path_graph([3, 4, 3]), "F4", 12, 24))
COXETER_TABLE.append((path_graph([6]), "G2", 6, 6))
COXETER_TABLE.append((path_graph([5, 3]), "H3", 10, 15))
COXETER_TABLE.append((path_graph([5, 3, 3]), "H4", 30, 60))
for m in range(3, 13):
    name = {3: "A2", 4: "B2", 6: "G2"}.get(m, f"I2({m})")
    COXETER_TABLE.append((path_graph([m]), name, m, m))


class TestClassifier:
    @pytest.mark.parametrize(
        "graph,name,h,roots", COXETER_TABLE, ids=[t[1] for t in COXETER_TABLE]
    )
    def test_finite_table(self, graph, name, h, roots):
        cls = classify_coxeter(graph)
        assert len(cls.components) == 1
        comp = cls.components[0]
        assert comp.finite
        assert comp.type_name == name
        assert comp.coxeter_number == h
        assert comp.positive_root_count == roots

    def test_affine_and_minimal_infinite_extensions(self):
        infinite_graphs = [
            cycle(n + 1) for n in range(2, 10)  # extensions of A_n
        ] + [
            path_graph([4] + [3] * (n - 2) + [4]) for n in range(2, 9)  # of B_n
        ] + [
            star([1, 1, 1, 1]),  # extension of D4 (and of any D_n chain end)
            star([2, 2, 2]),  # of E6
            star([1, 3, 3]),  # of E7
            star([1, 2, 5]),  # of E8
            path_graph([3, 3, 4, 3]),  # of F4
            path_graph([6, 3]),  # of G2
            path_graph([5, 3, 5]),  # of H3
            path_graph([5, 3, 3, 3]),  # of H4
            path_graph([12, 3]),  # of I2(12)
            path_graph([INFINITY]),
        ]
        for g in infinite_graphs:
            cls = classify_coxeter(g)
            assert not cls.finite, g
            assert cls.total_root_count() == INFINITY, g

    def test_random_trees_two_deciders_agree(self):
        # classify_coxeter raises InconsistentVerdict if the pattern match
        # and the positive-definiteness test ever disagree
        rng = random.Random(1729)
        labels = [3, 4, 5, 6, INFINITY]
        for _ in range(200):
            n = rng.randint(2, 8)
            edges = []
            for v in range(1, n):
                u = rng.randrange(v)
                edges.append((u, v, rng.choice(labels)))
            g = CoxeterGraph(
                vertices=tuple(str(i) for i in range(n)), edges=tuple(edges)
            )
            classify_coxeter(g)  # must not raise


PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)
# arm lengths of D4, D5, D7, E6, E7, E8 and of the affine E~6, E~7, E~8, in several orders
STAR_ARMS = [(1, 1, 1), (1, 2, 1), (4, 1, 1), (1, 2, 2), (2, 1, 3), (4, 2, 1), (2, 2, 2), (3, 1, 3), (1, 5, 2)]


@st.composite
def multigraphs(draw, budget=40):
    """(n, arrows): an undirected multigraph on at most `budget` vertices as
    (s, t, multiplicity) arrows. It is a disjoint union of stars with up to
    four arms, so paths, branch vertices and (from STAR_ARMS) D/E shapes and
    their affine extensions. Each star gets up to two extra arrows inside it,
    of multiplicity 1 or 2: a loop, a parallel edge or a chord closing a
    cycle. Vertices are renumbered at random, and the arrows come in random
    order and direction."""
    edges, n = [], 0
    while n < budget and (n == 0 or draw(st.booleans())):
        start = centre = n
        n += 1
        arms = st.one_of(st.sampled_from(STAR_ARMS), st.lists(st.integers(0, 5), min_size=1, max_size=4))
        for length in draw(arms):
            prev = centre
            for _ in range(min(length, budget - n)):
                edges.append((prev, n, 1))
                prev, n = n, n + 1
        piece = st.integers(start, n - 1)
        for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
            edges.append((draw(piece), draw(piece), draw(st.integers(1, 2))))
    name = draw(st.permutations(range(n)))
    return n, [
        (name[u], name[v], k) if draw(st.booleans()) else (name[v], name[u], k)
        for u, v, k in draw(st.permutations(edges))
    ]


@st.composite
def coxeter_graphs(draw):
    """The first arrow of each vertex pair of a multigraph as a Coxeter edge,
    m = 3 but on up to three edges."""
    n, arrows = draw(multigraphs())
    pairs = {}
    for s, t, _ in arrows:
        pairs.setdefault(frozenset((s, t)), [s, t, 3])
    edges = list(pairs.values())
    for _ in range(draw(st.integers(0, 3)) if edges else 0):
        draw(st.sampled_from(edges))[2] = draw(st.sampled_from([4, 5, 6, 7, 12, INFINITY]))
    return CoxeterGraph(tuple(range(n)), tuple(map(tuple, edges)))


class TestRecognizerAgainstEdgeLists:
    """The one-adjacency recognizer names each component as the edge-list
    recognizer in oracles.py does: vertices, type, Coxeter number, root
    count and arm order."""

    @PROPERTY
    @given(multigraphs())
    def test_simply_laced_components(self, graph):
        n, arrows = graph
        assert list(simply_laced_components(n, arrows)) == edge_list_simply_laced_components(n, arrows)

    @PROPERTY
    @given(coxeter_graphs())
    def test_classify_coxeter(self, G):
        try:
            want = edge_list_classify_coxeter(G)
        except InconsistentVerdict:
            with pytest.raises(InconsistentVerdict):
                classify_coxeter(G)
        else:
            assert classify_coxeter(G) == want


def gram(graph):
    """The symmetric form of a Coxeter graph: 2 on the diagonal, -2cos(pi/m)
    at each edge."""
    n = len(graph.vertices)
    g = [[2.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for u, v, m in graph.edges:
        g[u][v] = g[v][u] = -2 * math.cos(math.pi / m)
    return g


def cycle(n):
    return CoxeterGraph(
        vertices=tuple(str(i) for i in range(n)),
        edges=tuple((i, (i + 1) % n, 3) for i in range(n)),
    )


def star(arms):
    """A centre 0 with paths of the given lengths hanging off it."""
    edges, nxt = [], 1
    for a in arms:
        prev = 0
        for _ in range(a):
            edges.append((prev, nxt, 3))
            prev, nxt = nxt, nxt + 1
    return CoxeterGraph(vertices=tuple(str(i) for i in range(nxt)), edges=tuple(edges))


def affine_d(n):
    """D~n on n + 1 vertices: a path of n - 1 with a leaf at each inner end."""
    edges = [(i, i + 1, 3) for i in range(n - 2)] + [(1, n - 1, 3), (n - 3, n, 3)]
    return CoxeterGraph(vertices=tuple(str(i) for i in range(n + 1)), edges=tuple(edges))


# (ring, module) pairs for labeled_trees; None is the regular module
FLOAT_ROUTE_MODULES = (
    [(R, None) for R in (catalog.fibonacci(), catalog.rep_s3(), catalog.rep_s4())]
    + [(catalog.verlinde_sl2(L), None) for L in range(2, 9)]
    + [(catalog.verlinde_sl2(4), catalog.verlinde_typeD(4))]
)


@st.composite
def labeled_trees(draw):
    """A quiver on a random tree of up to 8 vertices over one of
    FLOAT_ROUTE_MODULES, each edge in a random direction with a simple or a
    zero label. Some get two more edges on one tree pair, one each way, and
    some a loop; the edges come in random order."""
    R, M = draw(st.sampled_from(FLOAT_ROUTE_MODULES))
    label = st.one_of(st.integers(0, R.rank - 1).map(R.basis), st.just(R.zero()))
    n = draw(st.integers(1, 8))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    edges = [Edge(s, t, draw(label)) if draw(st.booleans()) else Edge(t, s, draw(label)) for s, t in pairs]
    if pairs and draw(st.sampled_from([False, False, True])):
        s, t = draw(st.sampled_from(pairs))
        edges += [Edge(s, t, draw(label)), Edge(t, s, draw(label))]
    if draw(st.sampled_from([False, False, False, True])):
        v = draw(st.integers(0, n - 1))
        edges.append(Edge(v, v, draw(label)))
    return FusionQuiver(tuple(range(n)), tuple(draw(st.permutations(edges))), ring=R, module=M)


class TestFloatRoute:
    """reflect.labeled_graph, Gamma read from the FP dimensions in the real
    form, equals quiver.coxeter_graph, Gamma read from integer actions: the
    same m on the same pairs, in the same order."""

    @pytest.mark.parametrize("name", BUILTIN_QUIVERS)
    def test_builtin_quivers(self, name):
        Q = BUILTIN_QUIVERS[name]
        assert labeled_graph(Q) == coxeter_graph(Q)

    @settings(PROPERTY, max_examples=200)
    @given(labeled_trees())
    def test_random_trees(self, Q):
        assert labeled_graph(Q) == coxeter_graph(Q)


class TestPosdef:
    """The one-pass Cholesky (LDL^T) test: an affine graph's last pivot is 0
    up to rounding, and the smallest finite pivot (I2(1000)) is about 2e-5."""

    @pytest.mark.parametrize(
        "graph",
        [cycle(n + 1) for n in range(2, 8)] + [affine_d(n) for n in range(4, 9)]
        + [star([2, 2, 2]), star([1, 3, 3]), star([1, 2, 5])],
        ids=[f"A~{n}" for n in range(2, 8)] + [f"D~{n}" for n in range(4, 9)] + ["E~6", "E~7", "E~8"],
    )
    def test_affine_not_positive_definite(self, graph):
        assert not _posdef(gram(graph))

    @pytest.mark.parametrize(
        "graph",
        [path_graph([3] * 199), branched_graph(8, 2), path_graph([5, 3, 3]), path_graph([3, 4, 3])]
        + [path_graph([m]) for m in (3, 5, 7, 12, 100, 1000)],
        ids=["A200", "E8", "H4", "F4"] + [f"I2({m})" for m in (3, 5, 7, 12, 100, 1000)],
    )
    def test_finite_positive_definite(self, graph):
        assert _posdef(gram(graph))


class TestSinkOrdering:
    def test_linear_chain(self):
        fib = catalog.fibonacci()
        Q = FusionQuiver(
            vertices=("a", "b", "c"),
            edges=(Edge(0, 1, fib.basis("1")), Edge(1, 2, fib.basis("1"))),
            ring=fib,
        )
        assert admissible_sink_ordering(Q) == (2, 1, 0)

    def test_two_vertex(self):
        Q = catalog.fib_edge_quiver()
        assert admissible_sink_ordering(Q) == (1, 0)

    def test_loop_gives_none(self):
        fib = catalog.fibonacci()
        Q = FusionQuiver(
            vertices=("a",), edges=(Edge(0, 0, fib.basis("tau")),), ring=fib
        )
        assert admissible_sink_ordering(Q) is None

    def test_cycle_gives_none(self):
        fib = catalog.fibonacci()
        Q = FusionQuiver(
            vertices=("a", "b"),
            edges=(Edge(0, 1, fib.basis("1")), Edge(1, 0, fib.basis("1"))),
            ring=fib,
        )
        assert admissible_sink_ordering(Q) is None

    def test_ordering_is_admissible(self):
        from fqk.quiver import is_sink

        for Q in BUILTIN_QUIVERS.values():
            order = admissible_sink_ordering(Q)
            assert order is not None
            cur = Q
            for v in order:
                assert is_sink(cur, v)
                cur = reflect_quiver(cur, v)


class TestLoops:
    @pytest.mark.parametrize(
        "ring,label",
        [("fibonacci", "1"), ("fibonacci", "tau"), ("rep_s2", "S"), ("rep_s2", "1"), ("rep_s3", "V")],
    )
    def test_one_vertex_loop_is_infinite_on_both_sides(self, ring, label):
        R = catalog.builtin(ring)
        Q = FusionQuiver(("a",), (Edge(0, 0, R.basis(label)),), ring=R)
        verdict = is_finite_type(Q)
        assert not verdict.finite
        assert verdict.gamma.type_names() == ("infinite",)
        assert not any(c.finite for c in verdict.unfolded.components)
