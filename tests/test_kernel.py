"""The integer-array kernel of the ring and module layers, and the
quantum-number kernel of the oracles, against the brute-force loops in
`oracles.py`: identical reports on perturbed data, bit-identical FP
dimensions, identical products and quantum numbers, and exact arithmetic on
both sides of the float64 edge and past int64."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fqk import (
    Edge,
    FQKError,
    FusionQuiver,
    FusionRing,
    MissingAction,
    ModuleCategory,
    SignCoherenceViolation,
    catalog,
    extended_positive_roots,
    fpdim,
    module_fpdims,
    multiply,
    qnum_in_ring,
    reflect_dimvec,
    regular_module,
    sign_coherence,
    validate,
    validate_module,
)
from fqk.module import label_matrix
from fqk.ring import FLOAT_EXACT, wide

from conftest import Z3
from oracles import (
    act_on,
    loop_extended_orbits,
    loop_fpdim,
    loop_module_fpdims,
    loop_multiply,
    loop_qnum_pairs,
    loop_validate,
    loop_validate_module,
    sign_class,
)

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


def is_cube(R: FusionRing) -> bool:
    return all(len(row) == R.rank for mat in R.N for row in mat)


# small coefficients, and some past 2**63
COEFFS = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))


class TestProductAgainstLoop:
    @PROPERTY
    @given(st.data())
    def test_multiply_identical(self, data):
        R = data.draw(perturbed_rings().filter(is_cube))
        x, y = (data.draw(st.tuples(*[COEFFS] * R.rank)) for _ in "xy")
        got = multiply(R, x, y)
        assert got == loop_multiply(R, x, y)
        assert all(type(c) is int for c in got)

    @pytest.mark.parametrize("name", sorted(catalog_rings()))
    def test_catalog_quantum_numbers(self, name):
        R = catalog_rings()[name]
        K = 30
        for i in range(R.rank):
            pi = R.basis(i)
            pairs = loop_qnum_pairs(R, pi, K)
            assert sign_coherence(R, pi, K).values_d == tuple(a for a, _ in pairs)
            for k in (1, 2, K):
                assert qnum_in_ring(R, pi, k) == pairs[k - 1][0]
                assert qnum_in_ring(R, pi, -k, "d'") == tuple(-c for c in pairs[k - 1][1])

    @pytest.mark.parametrize(
        "key", [k for k in catalog.catalog_keys() if catalog.catalog_kind(k) == "quiver"]
    )
    def test_catalog_extended_orbits(self, key):
        Q = catalog.builtin(key)
        try:
            rep = extended_positive_roots(Q)
        except FQKError:
            return  # infinite type or partial mode: no orbits to compare
        assert rep.orbits == loop_extended_orbits(Q.ring, rep.phi_plus)


@st.composite
def qnum_labels(draw):
    """A generated or catalog ring, or Z/3 (g is not self-dual), and a label:
    a simple, zero, or a vector of coefficients up to 2**70, of mixed signs
    or non-negative (its quantum numbers soon pass the float range)."""
    R = draw(st.one_of(base_rings(), st.sampled_from(list(catalog_rings().values())), st.just(Z3)))
    kind = draw(st.sampled_from(("simple", "zero", "mixed", "non-negative")))
    if kind == "simple":
        return R, R.basis(draw(st.integers(0, R.rank - 1)))
    if kind == "zero":
        return R, R.zero()
    return R, draw(st.tuples(*[COEFFS if kind == "mixed" else st.integers(0, 2**70)] * R.rank))


def sign_pattern_holds(signs_d, signs_dp) -> bool:
    """Zeros exactly at the multiples of the first zero m, both colors alike,
    positive on the first block and flipping sign block by block."""
    m = next((k for k, s in enumerate(signs_d, 1) if s == "zero"), None)
    want = [
        "positive" if m is None else "zero" if k % m == 0 else ("positive", "negative")[k // m % 2]
        for k in range(1, len(signs_d) + 1)
    ]
    return list(signs_d) == want == list(signs_dp)


class TestQuantumNumbersAgainstLoop:
    @PROPERTY
    @given(qnum_labels(), st.integers(1, 60), st.data())
    def test_sequence_and_signs(self, labeled, K, data):
        R, pi = labeled
        pairs = loop_qnum_pairs(R, pi, K)
        for k in (1, data.draw(st.integers(1, K)), K):
            for c, color in enumerate(("d", "d'")):
                want, got = pairs[k - 1][c], qnum_in_ring(R, pi, k, color)
                assert got == want and all(type(x) is int for x in got)
                assert qnum_in_ring(R, pi, -k, color) == tuple(-x for x in want)

        signs_d = tuple(sign_class(a) for a, _ in pairs)
        signs_dp = tuple(sign_class(b) for _, b in pairs)
        if "incoherent" in signs_d + signs_dp:
            with pytest.raises(SignCoherenceViolation, match="mixed-sign"):
                sign_coherence(R, pi, K)
        elif not sign_pattern_holds(signs_d, signs_dp):
            with pytest.raises(SignCoherenceViolation, match="disagree|pattern"):
                sign_coherence(R, pi, K)
        else:
            rep = sign_coherence(R, pi, K)
            assert rep.values_d == tuple(a for a, _ in pairs)
            assert all(type(x) is int for v in rep.values_d for x in v)
            assert (rep.signs_d, rep.signs_dp) == (signs_d, signs_dp)


# the largest structure constant a rank-5 ring can hold and still run its
# products in float64: 5 * EDGE**2 < 2**53 <= 5 * (EDGE + 1)**2
EDGE = math.isqrt((FLOAT_EXACT - 1) // 5)


class TestExactness:
    def big_ring(self, big=2**31 - 1):
        """A rank-5 ring with structure constants `big` off the unit and one
        of them zero, so associativity fails; for the default, each product
        fits in int64, but sums of four of them wrap."""
        r = 5
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
        x, y = (0, 3, 0, 2**40, 1), (1, 2**70, 5, 0, 2**31 - 1)
        assert multiply(R, x, y) == loop_multiply(R, x, y)

    def test_int64_would_have_wrapped(self):
        R = self.big_ring()
        T = R.tensor.astype(np.int64)
        exact = R.tensor.reshape(25, 5).dot(R.tensor.reshape(5, 25))
        assert not np.array_equal(T.reshape(25, 5) @ T.reshape(5, 25), exact)

    @pytest.mark.parametrize(
        "big, dtype", [(EDGE, np.int32), (EDGE + 1, object)], ids=["below_2**53", "above_2**53"]
    )
    def test_float_edge_matches_oracle(self, big, dtype):
        """Just below the edge the tensors stay narrow and the validators
        multiply in float64; just above, they hold Python ints."""
        assert 5 * EDGE**2 < FLOAT_EXACT <= 5 * (EDGE + 1) ** 2
        R = self.big_ring(big)
        M = regular_module(R)
        P = ModuleCategory.from_data(R, R.names, M.act)  # its own exact_array
        for T in (R.tensor, M.tensor, P.tensor):
            assert T.dtype == dtype
            assert wide(T).dtype == (np.float64 if dtype is np.int32 else object)
        rep = validate(R)
        assert any("associativity" in v for v in rep.violations)
        same_report(rep, loop_validate(R))
        for mod in (M, P):
            rep = validate_module(mod)
            assert any("action axiom" in v for v in rep.violations)
            same_report(rep, loop_validate_module(mod))

    def test_object_ring_narrow_module(self):
        """Every simple acts on one module simple as 1, and X X = (2**60 + 1) X
        - 2**60 Y: the module is valid, but only in exact arithmetic.  A float
        module operand would turn (2**60 + 1) * 1 into 2**60, and the axiom
        at (X, X) would read 0 = 1."""
        big = 2**60
        N = [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [0, big + 1, -big], [1, 0, 0]],
            [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
        ]
        R = FusionRing.from_data(("1", "X", "Y"), 0, N)
        M = ModuleCategory.from_data(R, ("L",), [[[1]]] * 3)
        assert R.tensor.dtype == object and M.tensor.dtype == np.int8
        assert wide(M.tensor, R.tensor).dtype == object
        same_report(validate(R), loop_validate(R))
        rep = validate_module(M)
        assert rep.ok and not rep.warnings
        same_report(rep, loop_validate_module(M))

    def test_narrow_ring_object_module(self):
        """V1 acts as 2**60 + 1 over verlinde_sl2(1): only the axiom at
        (V1, V1) fails.  A float ring operand would turn 1 * (2**60 + 1) into
        2**60, and the axioms at (V0, V1) and (V1, V0) would fail too."""
        R = catalog.verlinde_sl2(1)
        M = ModuleCategory.from_data(R, ("L",), [[[1]], [[2**60 + 1]]])
        assert R.tensor.dtype == np.int8 and M.tensor.dtype == object
        assert wide(R.tensor, M.tensor).dtype == object
        rep = validate_module(M)
        assert rep.violations == ["action axiom fails at (i,j)=(1,1)"] and not rep.warnings
        same_report(rep, loop_validate_module(M))

    def test_small_data_stays_narrow(self):
        assert catalog.rep_s4().tensor.dtype == np.int8
        assert regular_module(catalog.verlinde_sl2(6)).tensor.dtype == np.int8
        assert wide(catalog.fibonacci().tensor[1].T).dtype == np.float64

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
        y = reflect_dimvec(Q, 0, x)
        assert y == ((2**66 - 2**64, 7 + 2**66 - 2**63 - 5), x[1])
        assert all(type(c) is int for a in y for c in a)
        assert reflect_dimvec(Q, 0, y) == x


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
