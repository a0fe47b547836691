import math
import re
import sys

import numpy as np
import pytest

from fqk import (
    ActionLabel,
    Edge,
    FusionQuiver,
    InconsistentVerdict,
    InfiniteType,
    MissingAction,
    OutOfRange,
    SignCoherenceViolation,
    catalog,
    enumerate_by_closure,
    enumerate_indecomposables,
    extended_positive_roots,
    fpdim,
    fpdim_of,
    module_fpdims,
    qnum_free,
    qnum_in_ring,
    rank_two_order,
    real_bilinear_form,
    reflect_dimvec,
    regular_module,
    sign_coherence,
    unfold,
)
from fqk import reflect
from fqk.reflect import D, DP
from fqk.ring import INFINITY

from conftest import BUILTIN_QUIVERS, BUILTIN_RINGS, FINITE_QUIVERS, Z3
from oracles import (
    act_on,
    dimvec_basis,
    dimvec_fpdim,
    free_add,
    loop_qnum_free,
    loop_qnum_pairs,
    matrix_power_identity_check,
    prepend,
    reflect_real,
    sign_class,
    unfolded_reflect_dimvec,
    x_ell_dimvec,
)

# (ring key, label name) pairs exercising every builtin generator label
BUILTIN_LABELS = [
    ("fibonacci", "tau"),
    ("rep_s2", "S"),
    ("rep_s3", "V"),
    ("rep_s4", "V3"),
    ("verlinde_sl2_2", "V1"),
    ("verlinde_sl2_4", "V1"),
]


def random_dimvec(rng, Q, msize, lo=-2, hi=2):
    return tuple(
        tuple(rng.randint(lo, hi) for _ in range(msize))
        for _ in range(len(Q.vertices))
    )


def quiver_msize(Q):
    M = Q.resolved_module()
    return M.msize if M is not None else len(Q.module_names())


class TestBilinearForm:
    def test_h4_real_form_tridiagonal(self):
        Q = catalog.fib_h4_quiver()
        g = real_bilinear_form(Q)
        phi = 2 * math.cos(math.pi / 5)
        expected = np.array(
            [
                [2, -phi, 0, 0],
                [-phi, 2, -1, 0],
                [0, -1, 2, -1],
                [0, 0, -1, 2],
            ]
        )
        assert np.allclose(g, expected, atol=1e-9)


class TestReflectDimvec:
    def test_fibonacci_sigma_b_on_alpha_a(self):
        Q = catalog.fib_edge_quiver()
        x = dimvec_basis(2, 2, 0, Q.ring.basis("1"))
        y = reflect_dimvec(Q, 1, x)
        assert y == ((1, 0), (0, 1))  # [1]a_a + [tau]a_b

    def test_isolated_vertex_negates(self):
        from fqk import Edge, FusionQuiver

        fib = catalog.fibonacci()
        Q = FusionQuiver(vertices=("a",), edges=(), ring=fib)
        x = dimvec_basis(1, 2, 0, fib.basis("tau"))
        assert reflect_dimvec(Q, 0, x) == ((0, -1),)

    def test_order_five_orbit(self):
        Q = catalog.fib_edge_quiver()
        x = dimvec_basis(2, 2, 0, Q.ring.basis("1"))
        y = x
        for _ in range(5):
            y = reflect_dimvec(Q, 0, reflect_dimvec(Q, 1, y))
        assert y == x

    def test_involution_random_vectors(self, rng):
        for Q in BUILTIN_QUIVERS.values():
            msize = quiver_msize(Q)
            for _ in range(25):
                x = random_dimvec(rng, Q, msize)
                for v in range(Q.nv):
                    assert reflect_dimvec(Q, v, reflect_dimvec(Q, v, x)) == x

    def test_edge_order_relation(self, rng):
        # (sigma_v sigma_w)^(m_e) acts as the identity for finite m_e
        from fqk import coxeter_graph

        for name in FINITE_QUIVERS:
            Q = BUILTIN_QUIVERS[name]
            msize = quiver_msize(Q)
            for u, w, m in coxeter_graph(Q).edges:
                for _ in range(5):
                    x = random_dimvec(rng, Q, msize)
                    y = x
                    for _ in range(m):
                        y = reflect_dimvec(Q, u, reflect_dimvec(Q, w, y))
                    assert y == x

    def test_folding_equivariance(self, rng):
        # reflecting at v equals the product of unfolded reflections over the
        # fiber of v, transported through the coordinate identification
        for Q in BUILTIN_QUIVERS.values():
            U = unfold(Q)
            for _ in range(100 // Q.nv):
                x = random_dimvec(rng, Q, len(U.mnames))
                for v in range(Q.nv):
                    assert unfolded_reflect_dimvec(U, v, x) == reflect_dimvec(Q, v, x)

    def test_fpdim_intertwiner(self, rng):
        for Q in BUILTIN_QUIVERS.values():
            if Q.partial_mode:
                continue
            M = Q.resolved_module()
            mu = module_fpdims(M)
            for _ in range(10):
                x = random_dimvec(rng, Q, M.msize)
                for v in range(Q.nv):
                    lhs = dimvec_fpdim(M, reflect_dimvec(Q, v, x), mu)
                    rhs = reflect_real(Q, v, dimvec_fpdim(M, x, mu))
                    assert np.allclose(lhs, rhs, atol=1e-8)

    ZERO = ((0, 0),) * 4  # fib_h4_quiver: 4 vertices, 2 module simples

    @pytest.mark.parametrize(
        "v, x, message",
        [(-1, ZERO, "vertex -1 outside 0..3"), (4, ZERO, "vertex 4 outside 0..3"),
         (0, ZERO[:3], "4 entries of 2"), (0, ((0,),) * 4, "4 entries of 2"),
         (0, ZERO + ((0, 0),), "4 entries of 2"), (0, ((0, 0, 0),) * 4, "4 entries of 2")],
        ids=["vertex_-1", "vertex_4", "three_entries", "one_coefficient", "five_entries",
             "three_coefficients"],
    )
    def test_out_of_range_rejected(self, v, x, message):
        with pytest.raises(OutOfRange, match=message):
            reflect_dimvec(catalog.fib_h4_quiver(), v, x)


def fibonacci_numbers(n):
    """F_0, ..., F_{n-1}."""
    out = [0, 1]
    while len(out) < n:
        out.append(out[-1] + out[-2])
    return out[:n]


def frame_depth():
    """The number of Python frames on the stack, this one included."""
    f, n = sys._getframe(), 0
    while f is not None:
        f, n = f.f_back, n + 1
    return n


class TestQnumFree:
    def test_small_values(self):
        d, dp = qnum_free(2, "d"), qnum_free(2, "d'")
        assert d.pretty() == "d"
        assert dp.pretty() == "d'"
        assert qnum_free(3, "d").pretty() == "-1 + dd'"
        assert qnum_free(4, "d").pretty() == "-2d + dd'd"

    def test_zero_and_negatives(self):
        assert qnum_free(0, "d").terms == ()
        assert qnum_free(-2, "d").pretty() == "-d"

    @pytest.mark.parametrize("k", [-3, 0, 3])
    @pytest.mark.parametrize("color", ["x", "D", "d''", ""])
    def test_unknown_color_rejected(self, k, color):
        with pytest.raises(OutOfRange, match="a color is d or d'"):
            qnum_free(k, color)

    @pytest.mark.parametrize("color", ["d", "d'"])
    def test_term_count_and_coefficient_sum(self, color):
        # [k] has floor((k+1)/2) terms whose coefficients' absolute values sum to F_k
        for k, fib in enumerate(fibonacci_numbers(60)):
            p = qnum_free(k, color)
            assert len(p.terms) == (k + 1) // 2
            assert sum(abs(c) for _, c in p.terms) == fib

    @pytest.mark.parametrize("color", ["d", "d'"])
    def test_closed_form_matches_recursion(self, color):
        for k in range(-60, 151):
            assert qnum_free(k, color).terms == loop_qnum_free(k, color), k

    def test_no_state_between_calls(self):
        # each call derives [k] alone: the order of earlier calls cannot matter
        keys = [(k, color) for k in range(40) for color in ("d", "d'")]
        expected = {key: qnum_free(*key).terms for key in keys}  # one ascending run
        for order in (keys[::-1], keys[::-2] + keys[::2]):
            assert [qnum_free(*key).terms for key in order] == [expected[key] for key in order]

    def test_deep_k_from_a_cold_start(self):
        # [300] in 50 frames, each call from nothing: the recursion depth does
        # not grow with k, where a recursion per step would need hundreds
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(frame_depth() + 50)
        try:
            deep = [qnum_free(300, color) for color in ("d", "d'")]
        finally:
            sys.setrecursionlimit(limit)
        for p in deep:
            assert len(p.terms) == 150
            assert sum(abs(c) for _, c in p.terms) == fibonacci_numbers(301)[300]

    def test_defining_recursion(self):
        # c [k]_c' = [k+1]_c + [k-1]_c, negative k included
        for k in range(-12, 12):
            for c, color, other in ((D, "d", "d'"), (DP, "d'", "d")):
                lhs = prepend((c,), dict(qnum_free(k, other).terms))
                up, down = (dict(qnum_free(j, color).terms) for j in (k + 1, k - 1))
                assert lhs == free_add(up, down), (k, color)

    def test_free_specializes_to_ring(self):
        for rkey, lname in BUILTIN_LABELS:
            ring = BUILTIN_RINGS[rkey]
            pi = ring.basis(lname)
            for k in range(-6, 13):
                assert qnum_free(k, "d").evaluate(ring, pi) == qnum_in_ring(
                    ring, pi, k, "d"
                )
                assert qnum_free(k, "d'").evaluate(ring, pi) == qnum_in_ring(
                    ring, pi, k, "d'"
                )

    @pytest.mark.parametrize("pi", [(0, 1, 0), (0, 1, 1)], ids=["g", "g+g2"])
    def test_free_specializes_over_a_non_self_dual_ring(self, pi):
        # g is not self-dual, so d and d' specialize apart; g + g^2 is
        for k in range(-6, 13):
            for color in ("d", "d'"):
                assert qnum_free(k, color).evaluate(Z3, pi) == qnum_in_ring(Z3, pi, k, color)


class TestQnumInRing:
    def test_fibonacci_three_is_tau(self):
        fib = catalog.fibonacci()
        assert qnum_in_ring(fib, fib.basis("tau"), 3) == (0, 1)

    def test_fibonacci_five_vanishes(self):
        fib = catalog.fibonacci()
        tau = fib.basis("tau")
        assert qnum_in_ring(fib, tau, 5, "d") == (0, 0)
        assert qnum_in_ring(fib, tau, 5, "d'") == (0, 0)

    def test_unit_three_vanishes(self):
        for ring in BUILTIN_RINGS.values():
            assert qnum_in_ring(ring, ring.one, 3) == ring.zero()

    @pytest.mark.parametrize("k", [-3, 0, 3])
    @pytest.mark.parametrize("color", ["x", "D", "d''", ""])
    def test_unknown_color_rejected(self, k, color):
        fib = catalog.fibonacci()
        with pytest.raises(OutOfRange, match="a color is d or d'"):
            qnum_in_ring(fib, fib.basis("tau"), k, color)

    def test_fpdim_is_classical_qnum(self):
        # FPdim([k]) = [k]_q with q + 1/q = FPdim(pi)
        for rkey, lname in BUILTIN_LABELS:
            ring = BUILTIN_RINGS[rkey]
            pi = ring.basis(lname)
            fpv = fpdim(ring)
            f = fpdim_of(ring, pi, fpv)
            for k in range(0, 21):
                if f < 2 - 1e-9:
                    theta = math.acos(f / 2)
                    classical = math.sin(k * theta) / math.sin(theta)
                elif f > 2 + 1e-9:
                    theta = math.acosh(f / 2)
                    classical = math.sinh(k * theta) / math.sinh(theta)
                else:
                    classical = float(k)
                for color in ("d", "d'"):
                    val = fpdim_of(ring, qnum_in_ring(ring, pi, k, color), fpv)
                    tol = 1e-8 * max(1.0, abs(classical))
                    assert abs(val - classical) < tol, (rkey, lname, k)

    def test_reflection_symmetry_at_m(self):
        # when [m] = 0: [m+k] = -[m-k]
        for rkey, lname, m in [
            ("fibonacci", "tau", 5),
            ("rep_s2", "S", 3),
            ("verlinde_sl2_2", "V1", 4),
            ("verlinde_sl2_4", "V1", 6),
        ]:
            ring = BUILTIN_RINGS[rkey]
            pi = ring.basis(lname)
            for k in range(0, m + 1):
                for color in ("d", "d'"):
                    plus = qnum_in_ring(ring, pi, m + k, color)
                    minus = qnum_in_ring(ring, pi, m - k, color)
                    assert plus == tuple(-c for c in minus)

    def test_positivity_step(self):
        # if [k] is strictly positive in both colors for 0 < k < m then [m]
        # is non-negative
        for rkey, lname in BUILTIN_LABELS:
            ring = BUILTIN_RINGS[rkey]
            pi = ring.basis(lname)
            for m in range(2, 15):
                ok = all(
                    sign_class(qnum_in_ring(ring, pi, k, c)) == "positive"
                    for k in range(1, m)
                    for c in ("d", "d'")
                )
                if ok:
                    for c in ("d", "d'"):
                        assert sign_class(qnum_in_ring(ring, pi, m, c)) in (
                            "positive",
                            "zero",
                        )

    def test_simple_multiple_vanishing(self):
        # [k]*[L] = 0 exactly when [k] = 0
        mods = [regular_module(BUILTIN_RINGS[r]) for r, _ in BUILTIN_LABELS]
        mods.append(catalog.verlinde_typeD(4))
        labels = BUILTIN_LABELS + [("verlinde_sl2_4", "V1")]
        for (rkey, lname), M in zip(labels, mods):
            ring = BUILTIN_RINGS[rkey]
            pi = ring.basis(lname)
            for k in range(0, 15):
                val = qnum_in_ring(ring, pi, k)
                for l in range(M.msize):
                    prod = act_on(M, val, M.basis(l))
                    assert (not any(prod)) == (not any(val))

    @pytest.mark.parametrize(
        "pi, error",
        [(ActionLabel(((0, 1), (1, 1))), MissingAction), ((1,), OutOfRange)],
        ids=["action_label", "wrong_length"],
    )
    @pytest.mark.parametrize(
        "recursion",
        [lambda R, pi: qnum_in_ring(R, pi, 3), lambda R, pi: sign_coherence(R, pi, 5)],
        ids=["qnum_in_ring", "sign_coherence"],
    )
    def test_label_that_is_no_ring_element_rejected(self, recursion, pi, error):
        # every recursion reads its label through _qnum_rows, which names the
        # fault instead of failing inside the ring arithmetic
        with pytest.raises(error):
            recursion(catalog.fibonacci(), pi)


class TestSignCoherence:
    def test_fibonacci_pattern(self):
        fib = catalog.fibonacci()
        rep = sign_coherence(fib, fib.basis("tau"), 12)
        assert rep.minimal_m == 5
        expected = (
            "positive positive positive positive zero "
            "negative negative negative negative zero positive positive"
        ).split()
        assert list(rep.signs_d) == expected
        assert list(rep.signs_dp) == expected

    def test_s3_standard_never_vanishes(self):
        s3 = catalog.rep_s3()
        rep = sign_coherence(s3, s3.basis("V"), 12)
        assert rep.minimal_m == INFINITY
        assert set(rep.signs_d) == {"positive"}

    def test_zero_object_m_two(self):
        fib = catalog.fibonacci()
        rep = sign_coherence(fib, fib.zero(), 6)
        assert rep.minimal_m == 2

    def test_k20_all_builtin_labels(self):
        for rkey, lname in BUILTIN_LABELS:
            ring = BUILTIN_RINGS[rkey]
            sign_coherence(ring, ring.basis(lname), 20)  # must not raise

    @pytest.mark.parametrize("pi, m", [((0, 1, 0), 3), ((0, 1, 1), INFINITY)], ids=["g", "g+g2"])
    def test_non_self_dual_ring(self, pi, m):
        rep = sign_coherence(Z3, pi, 12)
        pairs = loop_qnum_pairs(Z3, pi, 12)
        assert rep.values_d == tuple(a for a, _ in pairs)
        assert rep.minimal_m == m
        assert rep.signs_dp == tuple(sign_class(b) for _, b in pairs) == rep.signs_d

    def test_mixed_sign_input_detected(self):
        fib = catalog.fibonacci()
        with pytest.raises(SignCoherenceViolation):
            sign_coherence(fib, (1, -1), 12)

    def test_bad_k(self):
        fib = catalog.fibonacci()
        with pytest.raises(OutOfRange):
            sign_coherence(fib, fib.basis("tau"), 0)


class TestRankTwoOrder:
    def test_fibonacci_tau(self):
        fib = catalog.fibonacci()
        assert rank_two_order(fib, fib.basis("tau")) == 5

    def test_s2_sign(self):
        s2 = catalog.rep_s2()
        assert rank_two_order(s2, s2.basis("S")) == 3

    def test_s3_standard_infinite(self):
        s3 = catalog.rep_s3()
        assert rank_two_order(s3, s3.basis("V")) == INFINITY

    def test_verlinde_orders(self):
        # closed form: 3 for V0 and V_L, L+2 for V1 and V_{L-1}, else infinite
        for L in range(1, 11):
            ring = catalog.verlinde_sl2(L)
            for j in range(L + 1):
                want = 3 if j in (0, L) else L + 2 if j in (1, L - 1) else INFINITY
                assert rank_two_order(ring, ring.basis(j)) == want, (L, j)
        l4 = catalog.verlinde_sl2(4)
        assert rank_two_order(l4, l4.basis("V1")) == 6
        assert rank_two_order(l4, l4.basis("V1"), module=catalog.verlinde_typeD(4)) == 6
        l2 = catalog.verlinde_sl2(2)
        assert rank_two_order(l2, l2.basis("V1"), module=catalog.verlinde_typeD(2)) == 4

    def test_partial_mode(self):
        assert rank_two_order(None, catalog.sl3at5_action()) == 5

    @pytest.mark.parametrize(
        "rows, sizes", [([[1, 0], [0, 2]], "{3, inf}"), ([[1, 0], [0, 0]], "{2, 3}")],
        ids=["finite_and_infinite", "two_finite"],
    )
    def test_orbit_sizes_differ_across_simples(self, rows, sizes):
        # each simple spans its own component of the unfolding
        with pytest.raises(InconsistentVerdict, match=re.escape(f"differ across simples: {sizes}")):
            rank_two_order(None, ActionLabel.from_rows(rows))

    def test_every_builtin_label(self):
        # the orbit-size, quantum-number, and angle methods are cross-checked
        # internally; disagreement raises
        for rkey, lname in BUILTIN_LABELS:
            ring = BUILTIN_RINGS[rkey]
            rank_two_order(ring, ring.basis(lname))


class TestMatrixPower:
    def test_identity_at_zero(self):
        fib = catalog.fibonacci()
        assert matrix_power_identity_check(fib, fib.basis("tau"), 0)

    def test_fibonacci_k2_entries(self):
        fib = catalog.fibonacci()
        tau = fib.basis("tau")
        assert qnum_in_ring(fib, tau, 5, "d'") == (0, 0)
        assert qnum_in_ring(fib, tau, 4, "d'") == (1, 0)
        assert qnum_in_ring(fib, tau, 3, "d") == (0, 1)
        assert matrix_power_identity_check(fib, tau, 2)

    def test_k_up_to_ten_all_labels(self):
        for rkey, lname in BUILTIN_LABELS:
            ring = BUILTIN_RINGS[rkey]
            pi = ring.basis(lname)
            for k in range(11):
                assert matrix_power_identity_check(ring, pi, k), (rkey, k)

    def test_order_five_power_is_identity(self):
        # over the regular module a ring element acts faithfully, so the
        # power is the identity when it fixes both columns [1] alpha_j
        Q = catalog.fib_edge_quiver()
        fib = Q.ring
        for x in ((fib.one, fib.zero()), (fib.zero(), fib.one)):
            y = x
            for _ in range(5):
                y = reflect_dimvec(Q, 0, reflect_dimvec(Q, 1, y))
            assert y == x

    @pytest.mark.parametrize("pi", [(0, 1, 0), (0, 0, 1), (0, 1, 1), (1, 1, 0), (2, 0, 1)])
    def test_k_up_to_ten_over_a_non_self_dual_ring(self, pi):
        # g is not self-dual, so sigma_a reads pi* and sigma_b pi apart
        for k in range(11):
            assert matrix_power_identity_check(Z3, pi, k), k

    @pytest.mark.parametrize("pi", [(1, -1), (-1, 2)])
    def test_mixed_sign_label_rejected(self, pi):
        # as in rank_two_order and x_ell_dimvec: the one-edge quiver needs a
        # label with non-negative coefficients
        with pytest.raises(OutOfRange, match="non-negative"):
            matrix_power_identity_check(catalog.fibonacci(), pi, 2)


class TestXEll:
    def test_ell_one_is_simple(self):
        fib = catalog.fibonacci()
        M = regular_module(fib)
        assert x_ell_dimvec(fib, M, fib.basis("tau"), "1", 1) == ((1, 0), (0, 0))

    def test_fibonacci_ell_two(self):
        fib = catalog.fibonacci()
        M = regular_module(fib)
        assert x_ell_dimvec(fib, M, fib.basis("tau"), "1", 2) == ((1, 0), (0, 1))

    def test_fibonacci_ell_five_simple_at_source(self):
        fib = catalog.fibonacci()
        M = regular_module(fib)
        assert x_ell_dimvec(fib, M, fib.basis("tau"), "1", 5) == ((0, 0), (1, 0))

    def test_out_of_range(self):
        fib = catalog.fibonacci()
        M = regular_module(fib)
        with pytest.raises(OutOfRange):
            x_ell_dimvec(fib, M, fib.basis("tau"), "1", 6)
        with pytest.raises(OutOfRange):
            x_ell_dimvec(fib, M, fib.basis("tau"), "1", 0)

    def test_closed_form_matches_alternating_reflections(self):
        from fqk import Edge, FusionQuiver, normalize

        cases = [
            ("fibonacci", "tau", None, 5),
            ("rep_s2", "S", None, 3),
            ("verlinde_sl2_4", "V1", None, 6),
            ("verlinde_sl2_4", "V1", catalog.verlinde_typeD(4), 6),
        ]
        for rkey, lname, M, m in cases:
            ring = BUILTIN_RINGS[rkey]
            if M is None:
                M = regular_module(ring)
            pi = ring.basis(lname)
            Q = normalize(
                FusionQuiver(
                    vertices=("a", "b"),
                    edges=(Edge(0, 1, pi),),
                    ring=ring,
                    module=M,
                )
            )
            for l in range(M.msize):
                # odd- and even-indexed members form the two reflection
                # orbits starting from the unit vectors; each orbit visits
                # pairwise-distinct dimension vectors, though a vector may
                # appear once in each orbit (e.g. the middle simple at
                # level 4 hits the same folded root at indices 3 and 4)
                seen_odd = set()
                seen_even = set()
                x = dimvec_basis(2, M.msize, 0, M.basis(l))
                for ell in range(1, m + 1):
                    closed = x_ell_dimvec(ring, M, pi, l, ell)
                    assert closed == x, (rkey, l, ell)
                    seen = seen_odd if ell % 2 == 1 else seen_even
                    assert closed not in seen, (rkey, l, ell)
                    seen.add(closed)
                    vtx = 1 if ell % 2 == 1 else 0
                    x = reflect_dimvec(Q, vtx, x)


class TestEnumerate:
    def test_s2_exact_list(self):
        Q = catalog.s2_sign_quiver()
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
        assert vecs == expected

    def test_fibonacci_ten_with_highest_root(self):
        Q = catalog.fib_edge_quiver()
        vecs = enumerate_indecomposables(Q)
        assert len(vecs) == 10
        assert ((0, 1), (1, 1)) in vecs  # [tau]a_a + ([1]+[tau])a_b

    def test_h4_chain_count(self):
        assert len(enumerate_indecomposables(catalog.fib_h4_quiver())) == 120

    def test_infinite_type_raises(self):
        with pytest.raises(InfiniteType):
            enumerate_indecomposables(catalog.s3_std_quiver())

    def test_oracle_equivalence_all_finite_builtins(self):
        for name in FINITE_QUIVERS:
            Q = BUILTIN_QUIVERS[name]
            assert enumerate_indecomposables(Q) == enumerate_by_closure(Q), name

    def test_vertex_order_irrelevant(self):
        # reversing the chain orientation changes nothing countable
        from fqk import Edge, FusionQuiver, normalize

        fib = catalog.fibonacci()
        Q = normalize(
            FusionQuiver(
                vertices=("d", "c", "b", "a"),
                edges=(
                    Edge(3, 2, fib.basis("tau")),
                    Edge(2, 1, fib.basis("1")),
                    Edge(1, 0, fib.basis("1")),
                ),
                ring=fib,
            )
        )
        assert len(enumerate_indecomposables(Q)) == 120


class TestExtendedRoots:
    def test_fibonacci_five_and_ten(self):
        rep = extended_positive_roots(catalog.fib_edge_quiver())
        assert len(rep.phi_plus) == 5
        assert len(rep.extended) == 10

    def test_s2_six(self):
        rep = extended_positive_roots(catalog.s2_sign_quiver())
        assert len(rep.extended) == 6
        # the reflection orbit already reaches every extension here
        assert set(rep.phi_plus) <= set(rep.extended)

    def test_single_vertex_no_edges(self):
        from fqk import Edge, FusionQuiver

        fib = catalog.fibonacci()
        Q = FusionQuiver(vertices=("a",), edges=(), ring=fib)
        rep = extended_positive_roots(Q)
        assert set(rep.extended) == {((1, 0),), ((0, 1),)}

    def test_orbits_cover_extension(self):
        rep = extended_positive_roots(catalog.fib_edge_quiver())
        from_orbits = {x for _, mults in rep.orbits for x in mults}
        assert from_orbits == set(rep.extended)

    @pytest.mark.parametrize(
        "key, phi_plus, extended, own_module",
        [("verlinde_l4_typeD_quiver", 12, 30, 24), ("verlinde_l2_typeD_quiver", 8, 12, 12)],
    )
    def test_type_d_quiver_runs_over_the_regular_module(self, key, phi_plus, extended, own_module):
        Q = BUILTIN_QUIVERS[key]
        rep = extended_positive_roots(Q)
        assert (len(rep.phi_plus), len(rep.extended)) == (phi_plus, extended)
        assert len(enumerate_indecomposables(Q)) == own_module


@pytest.fixture
def reflection_budget(monkeypatch):
    """Fail fast, instead of running on, past 1000 reflected (vector, vertex)
    pairs: a closure level reflects each of its rows at every vertex."""
    reflect = sys.modules["fqk.reflect"]
    real, pairs = reflect._reflect_rows, [0]

    def counted(F, Bt):
        pairs[0] += F.shape[0] * F.shape[1]
        assert pairs[0] <= 1000, "reflection budget exceeded"
        return real(F, Bt)

    monkeypatch.setattr(reflect, "_reflect_rows", counted)


ORACLES = [enumerate_by_closure, extended_positive_roots]


class TestRootClosureCap:
    """A closure or root count past ROOT_CLOSURE_CAP is a size limit, not an
    infinite-type verdict: fib_edge_quiver has 10 roots, over a cap of 5."""

    def test_enumeration_cap_is_out_of_range(self, monkeypatch):
        monkeypatch.setattr(sys.modules["fqk.unfold"], "ROOT_CLOSURE_CAP", 5)
        with pytest.raises(OutOfRange, match="10 positive roots exceed the cap of 5"):
            enumerate_indecomposables(catalog.fib_edge_quiver())

    @pytest.mark.parametrize("oracle", [enumerate_by_closure, extended_positive_roots])
    def test_closure_cap_is_out_of_range(self, monkeypatch, oracle):
        monkeypatch.setattr(sys.modules["fqk.reflect"], "ROOT_CLOSURE_CAP", 5)
        with pytest.raises(OutOfRange, match="exceeded the cap of 5 vectors"):
            oracle(catalog.fib_edge_quiver())


class TestRootBound:
    @pytest.mark.parametrize("oracle", ORACLES)
    @pytest.mark.parametrize("key", ["s3_std_quiver", "s4_std_quiver"])
    def test_infinite_closure_stops(self, reflection_budget, oracle, key):
        with pytest.raises(InfiniteType, match="root bound"):
            oracle(BUILTIN_QUIVERS[key])

    @pytest.mark.parametrize("oracle", ORACLES)
    @pytest.mark.parametrize(
        "rkey, lname", [("fibonacci", "tau"), ("fibonacci", "1"), ("rep_s2", "S"), ("rep_s3", "V")]
    )
    def test_loop_rejected(self, reflection_budget, oracle, rkey, lname):
        ring = BUILTIN_RINGS[rkey]
        Q = FusionQuiver(("a",), (Edge(0, 0, ring.basis(lname)),), ring=ring)
        with pytest.raises(InfiniteType, match="loop"):
            oracle(Q)
