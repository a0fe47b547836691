import math

import numpy as np
import pytest

from fqk import (
    ActionLabel,
    ModuleCategory,
    OutOfRange,
    SignIncoherentInput,
    act_on,
    catalog,
    fpdim,
    mckay_quiver,
    module_fpdims,
    nonzero_action_check,
    regular_module,
    unfold,
    validate_module,
)
from fqk.ring import perron_eigenpair, wide

from conftest import BUILTIN_MODULES, BUILTIN_RINGS


def all_modules():
    out = {f"regular_{k}": regular_module(r) for k, r in BUILTIN_RINGS.items()}
    out.update(BUILTIN_MODULES)
    return out


class TestValidateModule:
    @pytest.mark.parametrize("name", sorted(all_modules()))
    def test_builtins_valid(self, name):
        rep = validate_module(all_modules()[name])
        assert rep.ok, str(rep)

    def test_corrupted_action_axiom(self):
        M = catalog.verlinde_typeD(4)
        act = [[list(row) for row in mat] for mat in M.act]
        act[1][0][0] += 1
        bad = ModuleCategory.from_data(M.ring, M.mnames, act)
        rep = validate_module(bad)
        assert not rep.ok
        assert any("action axiom" in v for v in rep.violations)

    def test_exhaustive_action_axiom(self):
        for M in all_modules().values():
            ring = M.ring
            mats = [wide(M.tensor[i]) for i in range(ring.rank)]
            for i in range(ring.rank):
                for j in range(ring.rank):
                    rhs = sum(
                        ring.N[i][j][k] * mats[k] for k in range(ring.rank)
                    )
                    assert np.array_equal(mats[i].dot(mats[j]), rhs)

    def test_transpose_law(self):
        for M in all_modules().values():
            for i in range(M.ring.rank):
                assert np.array_equal(
                    wide(M.tensor[M.ring.dual[i]]), wide(M.tensor[i]).T
                )


    @pytest.mark.parametrize(
        "change, message",
        [
            ({"unit": 7}, "ring unit 7 is not a simple index"),
            ({"dual": (0, 1, 2, 3, 9)}, "ring dual is not a list of simple indices"),
            ({"dual": (0, 1, 2)}, "ring dual is not a list of simple indices"),
        ],
        ids=["unit", "dual_index", "dual_length"],
    )
    def test_ring_it_cannot_index_reported(self, change, message):
        from dataclasses import replace

        M = regular_module(catalog.verlinde_sl2(4))
        rep = validate_module(replace(M, ring=replace(M.ring, **change)))
        assert rep.violations == [message]


class TestRegularModule:
    def test_fibonacci_tau_matrix(self):
        M = regular_module(catalog.fibonacci())
        assert M.act[1] == ((0, 1), (1, 1))

    def test_s2_sign_is_swap(self):
        M = regular_module(catalog.rep_s2())
        assert M.act[1] == ((0, 1), (1, 0))

    def test_unit_identity(self):
        for ring in BUILTIN_RINGS.values():
            M = regular_module(ring)
            assert np.array_equal(
                wide(M.tensor[ring.unit]), np.eye(M.msize, dtype=object)
            )


class TestActOn:
    def test_fibonacci_tau_on_tau(self):
        fib = catalog.fibonacci()
        M = regular_module(fib)
        assert act_on(M, fib.basis("tau"), M.basis("tau")) == (1, 1)

    def test_unit_acts_trivially(self):
        for M in all_modules().values():
            u = tuple(range(1, M.msize + 1))
            assert act_on(M, M.ring.one, u) == u

    def test_typeD_fork_rule(self):
        M = catalog.verlinde_typeD(4)
        v1 = M.ring.basis("V1")
        out = act_on(M, v1, M.basis("L1"))
        # L0 + L+ + L-
        assert out == (1, 0, 1, 1)

    def test_multiplicative(self, rng):
        from conftest import random_element
        from fqk import multiply

        for M in all_modules().values():
            for _ in range(10):
                x = random_element(rng, M.ring.rank)
                y = random_element(rng, M.ring.rank)
                u = random_element(rng, M.msize)
                assert act_on(M, multiply(M.ring, x, y), u) == act_on(
                    M, x, act_on(M, y, u)
                )


class TestNonzeroActionCheck:
    def test_tau_on_unit_nonzero(self):
        fib = catalog.fibonacci()
        M = regular_module(fib)
        assert nonzero_action_check(M, fib.basis("tau"), M.basis("1")) is False

    def test_zero_annihilates(self):
        fib = catalog.fibonacci()
        M = regular_module(fib)
        assert nonzero_action_check(M, fib.zero(), M.basis("tau")) is True

    def test_level_top_on_fork(self):
        M = catalog.verlinde_typeD(4)
        v4 = M.ring.basis("V4")
        assert nonzero_action_check(M, v4, M.basis("L+")) is False

    def test_only_zero_annihilates(self, rng):
        from conftest import random_element

        for M in all_modules().values():
            for _ in range(20):
                x = random_element(rng, M.ring.rank)
                u = random_element(rng, M.msize, 0, 2)
                if not any(u):
                    continue
                assert nonzero_action_check(M, x, u) == (not any(x))

    def test_incoherent_input_rejected(self):
        fib = catalog.fibonacci()
        M = regular_module(fib)
        with pytest.raises(SignIncoherentInput):
            nonzero_action_check(M, (1, -1), M.basis("1"))


class TestModuleFPdims:
    def test_perron_eigenvalue_matches_ring_fpdim(self):
        for M in all_modules().values():
            dims = fpdim(M.ring).dims
            for i in range(M.ring.rank):
                lam, _ = perron_eigenpair(np.asarray(wide(M.tensor[i]), dtype=float))
                assert lam == pytest.approx(dims[i], abs=1e-8)

    def test_common_eigenvector(self):
        for M in all_modules().values():
            mu = np.array(module_fpdims(M))
            dims = fpdim(M.ring).dims
            for i in range(M.ring.rank):
                m = np.asarray(wide(M.tensor[i]), dtype=float)
                assert np.allclose(m @ mu, dims[i] * mu, atol=1e-7)

    def test_action_label_pin_is_its_fpdim(self, monkeypatch):
        import fqk.module

        pin = 1.618033988749895
        monkeypatch.setattr(fqk.module, "perron_eigenpair", lambda A: pytest.fail("pin ignored"))
        label = ActionLabel.from_rows([[0, 1], [1, 1]], pin)
        assert label.fpdim() == pin and label.transpose().fpdim() == pin


class TestMcKay:
    def test_fibonacci_separated_is_a4_path(self):
        fib = catalog.fibonacci()
        M = regular_module(fib)
        q = mckay_quiver(M, fib.basis("tau"), separated=True)
        # path (s,1) - (t,tau) - (s,tau) - (t,1)
        assert sorted(q.arrows) == [(0, 3, 1), (1, 2, 1), (1, 3, 1)]
        deg = {}
        for s, t, m in q.arrows:
            deg[s] = deg.get(s, 0) + m
            deg[t] = deg.get(t, 0) + m
        assert sorted(deg.values()) == [1, 1, 2, 2]

    def test_sl3_nonseparated_mckay_shape(self):
        # partial mode: the action matrix alone determines the McKay quiver
        label = catalog.sl3at5_action()
        ring = catalog.vect()  # placeholder ring; label carries its own matrix
        M = ModuleCategory.from_data(
            ring, catalog.SL3AT5_NAMES, (tuple(tuple(r) for r in np.eye(6, dtype=int)),)
        )
        q = mckay_quiver(M, label, separated=False)
        assert len(q.vertices) == 6
        assert sum(m for _, _, m in q.arrows) == 9

    @pytest.mark.parametrize("rows", [[[1]], np.eye(3, dtype=int).tolist()], ids=["1x1", "3x3"])
    def test_matrix_label_of_another_size_is_rejected(self, rows):
        M = regular_module(catalog.fibonacci())
        with pytest.raises(OutOfRange, match="does not act on the 2 module simples"):
            mckay_quiver(M, ActionLabel.from_rows(rows))

    @pytest.mark.parametrize("label", [(1,), (0, 1, 1)], ids=["short", "long"])
    def test_ring_label_of_another_length_is_rejected(self, label):
        M = regular_module(catalog.fibonacci())
        with pytest.raises(ValueError, match=f"length {len(label)} does not match the 2 simples"):
            mckay_quiver(M, label)

    def test_s3_separated_matches_unfold(self):
        s3 = catalog.rep_s3()
        M = regular_module(s3)
        q = mckay_quiver(M, s3.basis("V"), separated=True)
        assert len(q.vertices) == 6
        assert len(q.arrows) == 5
        U = unfold(catalog.s3_std_quiver())
        assert sorted(q.arrows) == sorted(U.arrows)

    def test_separated_matches_unfold_all_builtins(self):
        from fqk import Edge, FusionQuiver, normalize

        for M in all_modules().values():
            for i in range(M.ring.rank):
                pi = M.ring.basis(i)
                q = mckay_quiver(M, pi, separated=True)
                Q = normalize(
                    FusionQuiver(
                        vertices=("s", "t"),
                        edges=(Edge(0, 1, pi),),
                        ring=M.ring,
                        module=M,
                    )
                )
                U = unfold(Q)
                assert sorted(q.arrows) == sorted(U.arrows)
