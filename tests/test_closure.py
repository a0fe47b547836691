"""The per-type root tables and the resolved-once reflection against the
global-coordinate closure and the per-edge reflection in `oracles.py`; the
main path against the reflection oracles on random labels and quivers; the
batched closure oracles and rank-two orbit against the tuple closure and
orbit in `oracles.py`."""

import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fqk import (
    ActionLabel,
    Edge,
    FQKError,
    FusionQuiver,
    FusionRing,
    InconsistentVerdict,
    InfiniteComponent,
    InfiniteType,
    OutOfRange,
    catalog,
    components,
    coxeter_graph,
    enumerate_by_closure,
    enumerate_indecomposables,
    extended_positive_roots,
    is_finite_type,
    mckay_quiver,
    positive_roots_simply_laced,
    rank_two_order,
    reflect_dimvec,
    regular_module,
    unfold,
)
from fqk.io import quiver_from_dict, quiver_to_dict
from fqk.module import OrdinaryQuiver
from fqk.reflect import ROOT_ENTRY_MAX, _orbit_sizes
from fqk.ring import FLOAT_EXACT
from fqk.unfold import ADE_ROOT_COUNTS, _sorted_dimvecs, _type_table, fold_root

from conftest import BUILTIN_QUIVERS, BUILTIN_RINGS, FINITE_QUIVERS
from oracles import (
    edge_reflect_dimvec,
    global_positive_roots,
    loop_dimvecs,
    loop_enumerate_by_closure,
    loop_extended_positive_roots,
    loop_orbit_sizes,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

ADE_TYPES = (
    [f"A{n}" for n in range(1, 10)] + [f"D{n}" for n in range(4, 10)] + ["E6", "E7", "E8"]
)


def dynkin_edges(name):
    """Edges of the Dynkin diagram on range(n) in Bourbaki's labelling: a
    path, with the last vertex moved to hang off vertex n-3 (type D); for
    type E, the path 0, 2, 3, ..., n-1 with vertex 1 hanging off vertex 3."""
    n = int(name[1:])
    if name[0] == "A":
        return [(i, i + 1) for i in range(n - 1)]
    if name[0] == "D":
        return [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    return [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, n - 1)]


def table_count(name):
    n = int(name[1:])
    return ADE_ROOT_COUNTS[name[0]](n) if name[0] in "AD" else ADE_ROOT_COUNTS[name]


@st.composite
def ade_unions(draw):
    """A disjoint union of ADE quivers with random orientation and randomly
    relabelled vertices, and its component types."""
    names = draw(st.lists(st.sampled_from(ADE_TYPES), min_size=1, max_size=4))
    edges, nv = [], 0
    for name in names:
        edges += [(nv + u, nv + v) for u, v in dynkin_edges(name)]
        nv += int(name[1:])
    perm = draw(st.permutations(range(nv)))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    arrows = tuple(
        (perm[v], perm[u], 1) if flip else (perm[u], perm[v], 1)
        for (u, v), flip in zip(edges, flips)
    )
    return OrdinaryQuiver(vertices=tuple(f"v{k}" for k in range(nv)), arrows=arrows), names


def unit_chain(n, ring=None):
    """The path 0 -> 1 -> ... -> n-1 with every edge labeled by the unit of
    `ring` (Fibonacci by default): its unfolding is one An per simple."""
    ring = ring or catalog.fibonacci()
    unit = ring.basis(ring.names[0])
    return FusionQuiver(tuple(range(n)), tuple(Edge(i, i + 1, unit) for i in range(n - 1)), ring=ring)


class TestRootClosure:
    @PROPERTY
    @given(ade_unions())
    def test_ade_unions_match_global_closure(self, case):
        q, names = case
        roots = positive_roots_simply_laced(q)
        assert roots == global_positive_roots(len(q.vertices), q.arrows)
        assert len(roots) == sum(table_count(name) for name in names)
        assert sorted(components(q).type_names()) == sorted(names)

    @pytest.mark.parametrize("name", ADE_TYPES)
    def test_root_entries_within_gabriel_bound(self, name):
        n = int(name[1:])
        q = OrdinaryQuiver(
            vertices=tuple(range(n)), arrows=tuple((u, v, 1) for u, v in dynkin_edges(name))
        )
        top = max(c for root in positive_roots_simply_laced(q) for c in root)
        assert top <= ROOT_ENTRY_MAX
        assert (top == ROOT_ENTRY_MAX) == (name == "E8")

    @pytest.mark.parametrize(
        "name",
        [f"A{n}" for n in range(1, 13)] + [f"D{n}" for n in range(4, 13)] + ["E6", "E7", "E8"],
    )
    def test_tables_match_global_closure(self, name):
        """A and D roots listed in Bourbaki's labelling, and the E table
        placed by the arm order the recognizer finds there."""
        n = int(name[1:])
        arrows = tuple((u, v, 1) for u, v in dynkin_edges(name))
        order = list(range(n))
        if name[0] == "E":
            (c,) = components(OrdinaryQuiver(tuple(range(n)), arrows)).components
            order = list(c.order)
        table = _type_table(name, n)
        placed = np.zeros_like(table)
        placed[:, order] = table
        roots = list(map(tuple, placed.tolist()))
        assert len(roots) == table_count(name)
        assert set(roots) == global_positive_roots(n, arrows)

    def test_tables_are_kept_and_read_only(self):
        table = _type_table("D6", 6)
        assert _type_table("D6", 6) is table and not table.flags.writeable

    @pytest.mark.parametrize("table, name", [("_a_roots", "A5"), ("_d_roots", "D6"), ("_e_roots", "E8")])
    def test_short_table_fails_count_check(self, monkeypatch, table, name):
        unfold_module = sys.modules["fqk.unfold"]
        real = getattr(unfold_module, table)
        monkeypatch.setattr(unfold_module, table, lambda *args: list(real(*args))[1:])
        n = int(name[1:])
        q = OrdinaryQuiver(tuple(range(n)), tuple((u, v, 1) for u, v in dynkin_edges(name)))
        # root tables are kept across calls: build this one from the patch, and keep it no longer
        unfold_module._type_table.cache_clear()
        try:
            with pytest.raises(InconsistentVerdict, match=f"table says {table_count(name)}"):
                positive_roots_simply_laced(q)
        finally:
            unfold_module._type_table.cache_clear()

    def test_long_unit_chain(self):
        U = unfold(unit_chain(60))
        roots = positive_roots_simply_laced(U)
        assert len(roots) == 3660
        assert roots == global_positive_roots(U.nv, U.arrows)
        Q = unit_chain(12)
        assert enumerate_indecomposables(Q) == enumerate_by_closure(Q)

    @pytest.mark.parametrize("Q", [unit_chain(5, catalog.vect()), catalog.fib_h4_quiver(),
                                   catalog.sl3at5_x_quiver()], ids=["nm1", "fib_h4", "sl3at5"])
    def test_fold_root_slices_vertex_major(self, Q):
        U = unfold(Q)
        nm = len(U.mnames)
        for root in positive_roots_simply_laced(U):
            want = tuple(root[v * nm:(v + 1) * nm] for v in range(len(U.qvertices)))
            assert fold_root(U, root) == want

    @pytest.mark.parametrize("root", [(1, 0, 1), (1,) * 9], ids=["short", "long"])
    def test_fold_root_rejects_wrong_length(self, root):
        U = unfold(catalog.fib_h4_quiver())
        assert len(U.vertices) == 8
        with pytest.raises(OutOfRange, match=f"{len(root)} entries on 8 unfolded vertices"):
            fold_root(U, root)

    @pytest.mark.parametrize("name", FINITE_QUIVERS)
    def test_finite_builtin_unfoldings(self, name):
        U = unfold(BUILTIN_QUIVERS[name])
        roots = positive_roots_simply_laced(U)
        assert roots == global_positive_roots(U.nv, U.arrows)
        assert len(roots) == components(U).total_root_count()

    @pytest.mark.parametrize(
        "arrows",
        [
            tuple((i, (i + 1) % n, 1) for i in range(n)) for n in (3, 4, 7)
        ] + [((0, 1, 2),), ((0, 1, 1), (1, 0, 1)), ((0, 1, 1), (1, 1, 1)), ((0, 0, 1),)],
        ids=["cycle3", "cycle4", "cycle7", "double", "two_way", "loop_on_edge", "loop"],
    )
    def test_not_ade_rejected_before_closing(self, arrows):
        nv = 1 + max(max(s, t) for s, t, _ in arrows)
        q = OrdinaryQuiver(vertices=tuple(range(nv)), arrows=arrows)
        with pytest.raises(InfiniteComponent, match="not finite ADE"):
            positive_roots_simply_laced(q)


def fold_edge_cases():
    """Inputs at the edges of the sorted fold: no vertex, one vertex, 31
    module simples (wider than a 3-bit-per-entry int64 code holds), the
    partial sl3-at-5 label reversed, and an E8 tree over vect."""
    vect, level30 = catalog.vect(), catalog.verlinde_sl2(30)
    vect_unit, unit30 = vect.basis(vect.names[0]), level30.basis(level30.names[0])
    return {
        "empty": FusionQuiver((), (), ring=vect),
        "one_vertex": FusionQuiver(("a",), (), ring=vect),
        "verlinde30_edge": FusionQuiver(("a", "b"), (Edge(0, 1, unit30),), ring=level30),
        "sl3at5_reversed": FusionQuiver(("a", "b"), (Edge(1, 0, catalog.sl3at5_action()),)),
        "e8_over_vect": FusionQuiver(
            tuple(range(8)), tuple(Edge(u, v, vect_unit) for u, v in dynkin_edges("E8")), ring=vect
        ),
    }


FOLD_CASES = {**{name: BUILTIN_QUIVERS[name] for name in FINITE_QUIVERS}, **fold_edge_cases()}


# the three callers of the one converter from root rows to dimension vectors
CONVERTER_CALLERS = {
    "main": enumerate_indecomposables,
    "closure": enumerate_by_closure,
    "extended": lambda Q: extended_positive_roots(Q).phi_plus,
}


@st.composite
def flat_rows(draw):
    """(rows, nv, m): int8 rows of nv blocks of m entries in 0..6.  Blocks
    often come from a small pool that holds the zero block, and the second
    half of the rows repeats rows of the first, so equal blocks and equal
    rows are common."""
    nv, m = draw(st.integers(0, 6)), draw(st.integers(1, 4))
    block = st.tuples(*[st.integers(0, 6)] * m)
    pool = draw(st.lists(block, max_size=3)) + [(0,) * m]
    row = st.lists(st.one_of(st.sampled_from(pool), block), min_size=nv, max_size=nv)
    rows = draw(st.lists(row, max_size=20))
    rows += draw(st.lists(st.sampled_from(rows), max_size=20)) if rows else []
    return np.array(rows, dtype=np.int8).reshape(len(rows), nv * m), nv, m


class TestSortedFold:
    """enumerate_indecomposables, enumerate_by_closure and
    extended_positive_roots turn int8 root rows into sorted dimension vectors
    through one converter, which ranks blocks in numpy and shares one tuple
    per distinct block; the public per-root route and the lexsort of whole
    rows in `oracles.py` are its references."""

    @pytest.mark.parametrize("name", FOLD_CASES)
    def test_matches_public_route(self, name):
        Q = FOLD_CASES[name]
        U = unfold(Q)
        assert enumerate_indecomposables(Q) == sorted(fold_root(U, r) for r in positive_roots_simply_laced(U))

    @pytest.mark.parametrize("name", FOLD_CASES)
    @pytest.mark.parametrize("caller", CONVERTER_CALLERS)
    def test_equal_blocks_are_one_object(self, caller, name):
        Q = FOLD_CASES[name]
        if caller == "extended" and Q.partial_mode:
            pytest.skip("extended roots need full-ring mode")
        out = CONVERTER_CALLERS[caller](Q)
        assert len({id(b) for x in out for b in x}) == len({b for x in out for b in x})

    @PROPERTY
    @given(flat_rows())
    def test_converter_matches_whole_row_sort(self, case):
        rows, nv, m = case
        out = _sorted_dimvecs(rows, m)
        assert out == loop_dimvecs(rows, nv, m)
        assert len({id(b) for x in out for b in x}) == len({b for x in out for b in x})

    def test_edge_case_counts(self):
        counts = {name: len(enumerate_indecomposables(Q)) for name, Q in fold_edge_cases().items()}
        # a unit edge unfolds to one A2 per module simple: 31 x 3 roots at level 30
        assert counts == {"empty": 0, "one_vertex": 1, "verlinde30_edge": 93,
                          "sl3at5_reversed": 30, "e8_over_vect": 120}


def loop_quivers():
    """A loop next to an ordinary edge: over the Fibonacci ring, and in
    partial mode with the non-symmetric sl3-at-5 label, so that the dual
    action of the loop differs from its action."""
    fib = catalog.fibonacci()
    tau = fib.basis("tau")
    X = catalog.sl3at5_action()
    assert X.matrix != X.transpose().matrix
    return {
        "fib_loop": FusionQuiver(("a", "b"), (Edge(0, 1, tau), Edge(1, 1, tau)), ring=fib),
        "sl3at5_loop": FusionQuiver(("a", "b"), (Edge(0, 1, X), Edge(0, 0, X))),
    }


REFLECT_QUIVERS = {**BUILTIN_QUIVERS, **loop_quivers()}


class TestReflection:
    @PROPERTY
    @given(st.sampled_from(sorted(REFLECT_QUIVERS)), st.data())
    def test_matches_per_edge_oracle(self, name, data):
        Q = REFLECT_QUIVERS[name]
        msize = len(Q.module_names())
        entry = st.integers(-(2**70), 2**70) if data.draw(st.booleans()) else st.integers(-3, 3)
        x = tuple(
            tuple(data.draw(entry) for _ in range(msize)) for _ in range(Q.nv)
        )
        for v in range(Q.nv):
            assert reflect_dimvec(Q, v, x) == edge_reflect_dimvec(Q, v, x)

    def test_loop_acts_once_through_its_dual(self):
        Q = loop_quivers()["sl3at5_loop"]
        X = Q.edges[0].label
        x = ((1,) + (0,) * 5, (0,) * 6)
        want = tuple(c - (k == 0) for k, c in enumerate(X.matrix[0]))
        assert reflect_dimvec(Q, 0, x)[0] == want



def rank_two_ring(n):
    """The rank-2 ring with t (x) t = 1 + n t."""
    return FusionRing.from_data(("1", "t"), 0, [[[1, 0], [0, 1]], [[0, 1], [1, n]]])


def deligne_product(R1, R2):
    """R1 (x) R2 on the pairs (i, i'), N[(i,i')][(j,j')][(k,k')] =
    N1[i][j][k] N2[i'][j'][k']."""
    r = R1.rank * R2.rank
    N = np.einsum("ijk,abc->iajbkc", R1.tensor, R2.tensor).reshape(r, r, r)
    names = [f"{a}.{b}" for a in R1.names for b in R2.names]
    return FusionRing.from_data(names, R1.unit * R2.rank + R2.unit, N.tolist())


# rings generated here rather than taken from the catalog. Every one satisfies
# the ring axioms, so the suites below check ring-level invariants; of the
# t (x) t = 1 + n t rings only n <= 1 has a fusion category (Ostrik, Fusion
# categories of rank 2, 2003).
GENERATED_RINGS = [rank_two_ring(n) for n in range(5)] + [
    deligne_product(catalog.fibonacci(), catalog.rep_s2()),
    deligne_product(catalog.fibonacci(), catalog.fibonacci()),
    deligne_product(catalog.rep_s3(), catalog.rep_s2()),
] + [catalog.verlinde_sl2(level) for level in range(7, 13)]

# genuine module actions: Smith's m and the angle of FPdim agree only there
LABEL_MODULES = [regular_module(r) for r in [*BUILTIN_RINGS.values(), *GENERATED_RINGS]] + [
    catalog.verlinde_typeD(level) for level in range(2, 9, 2)
]


@st.composite
def module_labels(draw):
    """A module and a ring element with entries 0-2, mostly zero."""
    M = draw(st.sampled_from(LABEL_MODULES))
    coeff = st.sampled_from((0, 0, 0, 1, 2))
    return M, tuple(draw(coeff) for _ in range(M.ring.rank))


TREE_RINGS = [catalog.fibonacci(), catalog.rep_s2(), catalog.rep_s3()] + [
    catalog.verlinde_sl2(level) for level in range(1, 7)
] + GENERATED_RINGS


@st.composite
def simple_trees(draw):
    """A quiver on a random tree of 1-5 vertices, each edge labeled by a
    simple and randomly oriented."""
    ring = draw(st.sampled_from(TREE_RINGS))
    n = draw(st.integers(1, 5))
    edges = []
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        label = ring.basis(draw(st.integers(0, ring.rank - 1)))
        edges.append(Edge(v, u, label) if draw(st.booleans()) else Edge(u, v, label))
    return FusionQuiver(tuple(f"v{k}" for k in range(n)), tuple(edges), ring=ring)


# each example costs about 3 ms; more of them reach more trees and rings
MANY = settings(PROPERTY, max_examples=200)


class TestAgainstOracles:
    """The main path against the oracles over the catalog rings and
    GENERATED_RINGS; over the latter these are ring-level checks."""

    @MANY
    @given(module_labels())
    def test_one_edge_unfolding(self, case):
        """Gamma's weight (2 when the edge is dropped) is the three-way
        rank-two order, and the separated McKay quiver is the unfolding."""
        M, x = case
        Q = FusionQuiver(("s", "t"), (Edge(0, 1, x),), ring=M.ring, module=M)
        weights = [m for _, _, m in coxeter_graph(Q).edges] or [2]
        assert weights == [rank_two_order(M.ring, x, module=M)]
        assert mckay_quiver(M, x, separated=True).arrows == unfold(Q).arrows

    @MANY
    @given(simple_trees())
    def test_random_trees(self, Q):
        verdict = is_finite_type(Q)  # InconsistentVerdict on any disagreement
        if verdict.finite and verdict.unfolded.total_root_count() <= 300:
            assert enumerate_indecomposables(Q) == enumerate_by_closure(Q)
        text = json.dumps(quiver_to_dict(Q))
        assert json.dumps(quiver_to_dict(quiver_from_dict(json.loads(text)))) == text


@st.composite
def partial_labels(draw):
    """An n x n action matrix, n = 1-3, with entries 0-2."""
    n = draw(st.integers(1, 3))
    return ActionLabel.from_rows([[draw(st.integers(0, 2)) for _ in range(n)] for _ in range(n)])


@MANY
@given(st.one_of(module_labels(), st.tuples(st.none(), partial_labels())))
def test_orbit_sizes_per_simple(case):
    """The batched orbit of sigma_a sigma_b over every simple root of the
    one-edge quiver has the sizes of the one-simple-at-a-time tuple orbit."""
    M, x = case
    Q = FusionQuiver(("a", "b"), (Edge(0, 1, x),), ring=M and M.ring, module=M)
    assert _orbit_sizes(Q) == loop_orbit_sizes(Q)


def outcome(oracle, Q):
    """An oracle's output, or the class of the error it raised."""
    try:
        return oracle(Q)
    except FQKError as e:
        return type(e)


def extended_fields(Q):
    rep = extended_positive_roots(Q)
    return rep.phi_plus, rep.extended, rep.orbits


# (entry + 1) ROOT_ENTRY_MAX nv m bounds the closure's product on the one-edge
# quiver with one module simple; it crosses FLOAT_EXACT between these entries
BELOW_EDGE = (FLOAT_EXACT - 1) // (ROOT_ENTRY_MAX * 2) - 1
ABOVE_EDGE = BELOW_EDGE + 1


class TestBatchedClosure:
    """enumerate_by_closure and extended_positive_roots, one product per
    level, against the vector-by-vector closure: equal output, or an error of
    the same class."""

    def check(self, Q):
        assert outcome(enumerate_by_closure, Q) == outcome(loop_enumerate_by_closure, Q)
        assert outcome(extended_fields, Q) == outcome(loop_extended_positive_roots, Q)

    @MANY
    @given(simple_trees())
    def test_random_trees(self, Q):
        self.check(Q)

    @pytest.mark.parametrize("name", sorted(REFLECT_QUIVERS))
    def test_catalog_quivers(self, name):
        self.check(REFLECT_QUIVERS[name])

    def test_no_vertices(self):
        self.check(FusionQuiver((), (), ring=catalog.fibonacci()))

    @pytest.mark.parametrize(
        "entry, tier",
        [(BELOW_EDGE, np.float64), (ABOVE_EDGE, object), (2**70, object)],
        ids=["below_2**53", "above_2**53", "past_int64"],
    )
    def test_product_tiers(self, monkeypatch, entry, tier):
        assert (BELOW_EDGE + 1) * ROOT_ENTRY_MAX * 2 < FLOAT_EXACT <= (ABOVE_EDGE + 1) * ROOT_ENTRY_MAX * 2
        reflect = sys.modules["fqk.reflect"]
        real, dtypes = reflect._reflect_rows, []
        monkeypatch.setattr(
            reflect, "_reflect_rows", lambda F, Bt: dtypes.append(Bt.dtype) or real(F, Bt)
        )
        Q = FusionQuiver(("a", "b"), (Edge(0, 1, ActionLabel.from_rows([[entry]])),))
        with pytest.raises(InfiniteType, match="root bound"):
            enumerate_by_closure(Q)
        assert dtypes == [np.dtype(tier)]
