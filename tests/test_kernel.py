"""The integer-array kernel of the ring and module layers against the
brute-force loops in `oracles.py`: identical reports on perturbed data,
bit-identical FP dimensions, and exact arithmetic past int64."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fqk import (
    Edge,
    FusionQuiver,
    FusionRing,
    MissingAction,
    ModuleCategory,
    act_on,
    catalog,
    fpdim,
    module_fpdims,
    reflect_dimvec,
    regular_module,
    validate,
    validate_module,
)
from fqk.module import label_matrix

from oracles import loop_fpdim, loop_module_fpdims, loop_validate, loop_validate_module

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def deligne(a: FusionRing, b: FusionRing) -> FusionRing:
    """The Deligne product: simples are pairs, structure constants multiply."""
    ra, rb = a.rank, b.rank
    N = np.einsum("ikm,jln->ijklmn", np.array(a.N), np.array(b.N))
    N = N.reshape(ra * rb, ra * rb, ra * rb)
    names = [f"{x}x{y}" for x in a.names for y in b.names]
    return FusionRing.from_data(names, a.unit * rb + b.unit, N.tolist())


def direct_sum(M: ModuleCategory, P: ModuleCategory) -> ModuleCategory:
    """Block-diagonal sum of two modules over one ring: a decomposable module."""
    m, n = M.msize, P.msize
    act = [
        [list(row) + [0] * n for row in a] + [[0] * m + list(row) for row in b]
        for a, b in zip(M.act, P.act)
    ]
    return ModuleCategory.from_data(M.ring, M.mnames + P.mnames, act)


def same_report(got, want):
    assert (got.violations, got.warnings) == (want.violations, want.warnings)


def catalog_rings():
    rings = {k: catalog.builtin(k) for k in ("vect", "rep_s2", "rep_s3", "rep_s4", "fibonacci")}
    rings.update({f"verlinde_sl2_{L}": catalog.verlinde_sl2(L) for L in range(1, 25)})
    return rings


def catalog_modules():
    mods = {f"regular_{k}": regular_module(R) for k, R in catalog_rings().items()}
    mods.update({f"verlinde_typeD_{L}": catalog.verlinde_typeD(L) for L in range(2, 17, 2)})
    return mods


@st.composite
def base_rings(draw):
    if draw(st.booleans()):
        return catalog.verlinde_sl2(draw(st.integers(1, 6)))
    factors = [catalog.fibonacci()] + [catalog.verlinde_sl2(L) for L in (1, 2)]
    return deligne(draw(st.sampled_from(factors)), draw(st.sampled_from(factors)))


RING_DEFECTS = ("negative", "unit", "associativity", "dual_swap", "dual_not_perm", "ragged")


@st.composite
def perturbed_rings(draw):
    R = draw(base_rings())
    r = R.rank
    N = [[list(row) for row in mat] for mat in R.N]
    dual = list(R.dual)
    index = st.integers(0, r - 1)
    for defect in draw(st.lists(st.sampled_from(RING_DEFECTS), min_size=1, max_size=3)):
        i, j, k = draw(index), draw(index), draw(index)
        if defect == "negative":
            N[i][j][k] = -draw(st.integers(1, 3))
        elif defect == "unit":
            N[R.unit][j][k] = 1 - N[R.unit][j][k]
        elif defect == "associativity":
            N[i][j][k] += draw(st.integers(1, 2))
        elif defect == "dual_swap":  # a wrong and usually non-involutive dual
            dual[i], dual[j] = dual[j], dual[i]
        elif defect == "dual_not_perm":
            dual[i] = dual[j]
        elif draw(st.booleans()):  # ragged, rarely: the shape check stops early
            N[i][j] = N[i][j][:-1]
    return FusionRing(
        names=R.names, unit=R.unit, N=tuple(tuple(map(tuple, m)) for m in N), dual=tuple(dual)
    )


MODULE_DEFECTS = ("negative", "entry", "transpose", "disconnected", "ragged")


@st.composite
def perturbed_modules(draw):
    R = draw(base_rings())
    M = regular_module(R)
    defects = draw(st.lists(st.sampled_from(MODULE_DEFECTS), min_size=1, max_size=3))
    if "disconnected" in defects:
        M = direct_sum(M, M)
    act = [[list(row) for row in mat] for mat in M.act]
    i, j = draw(st.integers(0, R.rank - 1)), draw(st.integers(0, R.rank - 1))
    row, col = draw(st.integers(0, M.msize - 1)), draw(st.integers(0, M.msize - 1))
    for defect in defects:
        if defect == "negative":
            act[i][row][col] = -1
        elif defect == "entry":
            act[i][row][col] += draw(st.integers(1, 2))
        elif defect == "transpose":
            act[i], act[j] = act[j], act[i]
        elif defect == "ragged" and draw(st.booleans()):
            act[j][row] = act[j][row][:-1]
    return ModuleCategory(ring=R, mnames=M.mnames, act=tuple(tuple(map(tuple, m)) for m in act))


class TestAgainstLoopOracle:
    @PROPERTY
    @given(perturbed_rings())
    def test_ring_reports_identical(self, ring):
        want = loop_validate(ring)
        same_report(validate(ring), want)
        with mock.patch("fqk.ring.BLOCK_ENTRIES", 1):  # one row per block
            same_report(validate(ring), want)

    @PROPERTY
    @given(perturbed_modules())
    def test_module_reports_identical(self, M):
        want = loop_validate_module(M)
        same_report(validate_module(M), want)
        with mock.patch("fqk.ring.BLOCK_ENTRIES", 1):  # one row per block
            same_report(validate_module(M), want)

    def test_perturbations_are_caught(self):
        R = catalog.verlinde_sl2(3)
        N = [[list(row) for row in mat] for mat in R.N]
        N[1][1][2] += 1
        bad = FusionRing(R.names, R.unit, tuple(tuple(map(tuple, m)) for m in N), (1, 0, 2, 3))
        rep = validate(bad)
        assert any("associativity" in v for v in rep.violations)
        assert "dual not involutive at 2" not in rep.violations
        assert "dual(unit) != unit" in rep.violations
        same_report(rep, loop_validate(bad))
        M = regular_module(R)
        rep = validate_module(direct_sum(M, M))
        assert rep.ok and rep.warnings == [
            "module appears decomposable (action support disconnected)"
        ]

    @pytest.mark.parametrize("name", sorted(catalog_rings()))
    def test_catalog_ring_reports_and_fpdim(self, name):
        R = catalog_rings()[name]
        if R.rank <= 12:
            same_report(validate(R), loop_validate(R))
        assert fpdim(R) == loop_fpdim(R)  # bit-identical floats

    @pytest.mark.parametrize("name", sorted(catalog_modules()))
    def test_catalog_module_reports_and_fpdims(self, name):
        M = catalog_modules()[name]
        if M.ring.rank <= 12:
            same_report(validate_module(M), loop_validate_module(M))
        assert module_fpdims(M) == loop_module_fpdims(M)  # bit-identical floats

    def test_deligne_fpdims_bit_identical(self):
        R = deligne(catalog.verlinde_sl2(3), catalog.rep_s4())
        assert fpdim(R) == loop_fpdim(R)
        M = regular_module(R)
        assert module_fpdims(M) == loop_module_fpdims(M)


class TestExactness:
    def big_ring(self):
        """A rank-5 ring with structure constants 2**31 - 1 off the unit: each
        product fits in int64, but sums of four of them wrap."""
        r, big = 5, 2**31 - 1
        N = np.zeros((r, r, r), dtype=object)
        for i in range(r):
            N[0, i, i] = N[i, 0, i] = 1
            for j in range(1, r):
                N[i, j, 0] = int(i == j)
        N[1:, 1:, 1:] = big
        N[1, 1, 2] = 0
        return FusionRing.from_data([f"X{i}" for i in range(r)], 0, N.tolist())

    def test_object_path_matches_oracle(self):
        R = self.big_ring()
        assert R.tensor.dtype == object
        rep = validate(R)
        assert any("associativity" in v for v in rep.violations)
        same_report(rep, loop_validate(R))
        M = regular_module(R)
        assert M.tensor.dtype == object
        same_report(validate_module(M), loop_validate_module(M))

    def test_int64_would_have_wrapped(self):
        R = self.big_ring()
        T = R.tensor.astype(np.int64)
        exact = R.tensor.reshape(25, 5).dot(R.tensor.reshape(5, 25))
        assert not np.array_equal(T.reshape(25, 5) @ T.reshape(5, 25), exact)

    def test_small_data_stays_narrow(self):
        assert catalog.rep_s4().tensor.dtype == np.int8
        assert regular_module(catalog.verlinde_sl2(6)).tensor.dtype == np.int8
        assert catalog.fibonacci().left_mult_matrix(1).dtype == np.int64

    def test_act_on_above_int64(self):
        fib = catalog.fibonacci()
        M = regular_module(fib)
        u = (2**70 + 1, 3 * 2**64)
        assert act_on(M, fib.basis("tau"), u) == (3 * 2**64, 2**70 + 1 + 3 * 2**64)
        x = (2**40, 2**65)
        assert act_on(M, x, (1, 0)) == (2**40, 2**65)

    def test_reflect_dimvec_above_int64(self):
        fib = catalog.fibonacci()
        Q = FusionQuiver(("a", "b"), (Edge(0, 1, fib.basis("tau")),), ring=fib)
        x = ((2**64, 2**63 + 5), (7, 2**66))
        y = reflect_dimvec(Q, None, 0, x)
        assert y == ((2**66 - 2**64, 7 + 2**66 - 2**63 - 5), x[1])
        assert all(type(c) is int for a in y for c in a)
        assert reflect_dimvec(Q, None, 0, y) == x


class TestLabelMatrix:
    def test_ring_label_without_module(self):
        with pytest.raises(MissingAction):
            label_matrix(None, catalog.fibonacci().basis("tau"))

    def test_partial_label_and_ring_label(self):
        X = catalog.sl3at5_action()
        assert label_matrix(None, X).tolist() == [list(r) for r in X.matrix]
        fib = catalog.fibonacci()
        mat = label_matrix(regular_module(fib), (2, 3))
        assert mat.dtype == object and mat.tolist() == [[2, 3], [3, 5]]
