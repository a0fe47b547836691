import math

import pytest

from fqk import (
    FusionRing,
    InvalidDimension,
    NonConvergence,
    OutOfRange,
    angle_label,
    catalog,
    dual,
    fpdim,
    fpdim_of,
    multiply,
    regular_module,
    validate,
)
from fqk.ring import INFINITY, wide

from conftest import BUILTIN_RINGS, random_element
from oracles import x_ell_dimvec


def corrupted_fibonacci():
    fib = catalog.fibonacci()
    N = [[list(row) for row in mat] for mat in fib.N]
    N[1][1][0] = 2  # breaks rigidity
    return FusionRing(names=fib.names, unit=0, N=tuple(
        tuple(tuple(r) for r in m) for m in N
    ), dual=fib.dual)


class TestValidate:
    @pytest.mark.parametrize("name", sorted(BUILTIN_RINGS))
    def test_builtins_valid(self, name):
        rep = validate(BUILTIN_RINGS[name])
        assert rep.ok, str(rep)

    def test_corruption_reports_rigidity(self):
        rep = validate(corrupted_fibonacci())
        assert not rep.ok
        assert any("rigidity" in v for v in rep.violations)

    def test_dual_derivable_from_tensor(self):
        fib = catalog.fibonacci()
        rederived = FusionRing.from_data(fib.names, fib.unit, fib.N)
        assert rederived.dual == fib.dual
        s4 = catalog.rep_s4()
        assert FusionRing.from_data(s4.names, s4.unit, s4.N).dual == s4.dual

    @pytest.mark.parametrize("unit", [7, -1, "1"])
    def test_unit_out_of_range_reported(self, unit):
        fib = catalog.fibonacci()
        rep = validate(FusionRing(names=fib.names, unit=unit, N=fib.N, dual=fib.dual))
        assert rep.violations == [f"unit {unit!r} is not a simple index"]

    def test_dual_not_derivable_without_a_unit(self):
        fib = catalog.fibonacci()
        with pytest.raises(ValueError, match="unit 7 is not a simple index"):
            FusionRing.from_data(fib.names, 7, fib.N)


class TestMultiply:
    def test_fibonacci_tau_squared(self):
        fib = catalog.fibonacci()
        tau = fib.basis("tau")
        assert multiply(fib, tau, tau) == (1, 1)

    def test_unit_law(self, rng):
        for ring in BUILTIN_RINGS.values():
            x = random_element(rng, ring.rank)
            assert multiply(ring, ring.one, x) == x
            assert multiply(ring, x, ring.one) == x

    def test_s3_standard_squared(self):
        s3 = catalog.rep_s3()
        v = s3.basis("V")
        assert multiply(s3, v, v) == (1, 1, 1)

    def test_associative_on_random_triples(self, rng):
        for ring in BUILTIN_RINGS.values():
            for _ in range(10):
                x, y, z = (random_element(rng, ring.rank) for _ in range(3))
                assert multiply(ring, multiply(ring, x, y), z) == multiply(
                    ring, x, multiply(ring, y, z)
                )

    def test_length_mismatch(self):
        fib = catalog.fibonacci()
        M = regular_module(fib)
        wrong = [
            (ValueError, lambda: multiply(fib, (1,), (1, 0))),
            (ValueError, lambda: multiply(fib, (1, 0), (1, 0, 0))),
            (ValueError, lambda: fpdim_of(fib, (1,))),
            (ValueError, lambda: fpdim_of(fib, (1, 1, 5))),
            (ValueError, lambda: dual(fib, (1,))),
            (OutOfRange, lambda: fib.basis(5)),
            (OutOfRange, lambda: fib.basis(-1)),
            (OutOfRange, lambda: M.basis(2)),
            (OutOfRange, lambda: x_ell_dimvec(fib, M, fib.basis("tau"), 7, 1)),
        ]
        for error, call in wrong:
            with pytest.raises(error):
                call()


class TestDual:
    def test_tau_self_dual(self):
        fib = catalog.fibonacci()
        assert dual(fib, fib.basis("tau")) == fib.basis("tau")

    def test_involution(self, rng):
        for ring in BUILTIN_RINGS.values():
            for _ in range(10):
                x = random_element(rng, ring.rank, -3, 3)
                assert dual(ring, dual(ring, x)) == x

    def test_anti_multiplicative(self, rng):
        for ring in BUILTIN_RINGS.values():
            for _ in range(10):
                x = random_element(rng, ring.rank)
                y = random_element(rng, ring.rank)
                assert dual(ring, multiply(ring, x, y)) == multiply(
                    ring, dual(ring, y), dual(ring, x)
                )


class TestFPdim:
    def test_fibonacci_golden(self):
        fib = catalog.fibonacci()
        assert fpdim(fib).dims[1] == pytest.approx(2 * math.cos(math.pi / 5), abs=1e-9)

    def test_s3_standard_is_two(self):
        s3 = catalog.rep_s3()
        assert fpdim(s3).dims[2] == pytest.approx(2.0, abs=1e-9)

    def test_unit_is_one(self):
        for ring in BUILTIN_RINGS.values():
            assert fpdim(ring).dims[ring.unit] == pytest.approx(1.0, abs=1e-12)

    def test_common_eigenvector_property(self):
        import numpy as np

        for ring in BUILTIN_RINGS.values():
            fpv = fpdim(ring)
            d = np.array(fpv.dims)
            for i in range(ring.rank):
                m = np.asarray(wide(ring.tensor[i].T), dtype=float)
                assert np.allclose(m @ d, fpv.dims[i] * d, atol=1e-8)

    def test_homomorphism_on_random_pairs(self, rng):
        for ring in BUILTIN_RINGS.values():
            fpv = fpdim(ring)
            for _ in range(100):
                x = random_element(rng, ring.rank)
                y = random_element(rng, ring.rank)
                lhs = fpdim_of(ring, multiply(ring, x, y), fpv)
                rhs = fpdim_of(ring, x, fpv) * fpdim_of(ring, y, fpv)
                assert abs(lhs - rhs) < 1e-8

    def test_duality_property(self, rng):
        for ring in BUILTIN_RINGS.values():
            fpv = fpdim(ring)
            for _ in range(20):
                x = random_element(rng, ring.rank)
                assert fpdim_of(ring, dual(ring, x), fpv) == pytest.approx(
                    fpdim_of(ring, x, fpv), abs=1e-9
                )

    def test_at_least_one_on_nonzero_nonneg(self, rng):
        for ring in BUILTIN_RINGS.values():
            fpv = fpdim(ring)
            assert all(d >= 1 - 1e-9 for d in fpv.dims)
            for _ in range(20):
                x = random_element(rng, ring.rank)
                val = fpdim_of(ring, x, fpv)
                if any(x):
                    assert val >= 1 - 1e-9
                else:
                    assert val == 0.0

    def test_power_iteration_gives_up_at_its_cap(self, monkeypatch):
        # unvalidated data: x x = 1 - 10x makes the shifted sum of the
        # multiplication matrices have a dominant negative eigenvalue, so the
        # iterates flip sign forever; at the real cap of 10**6 this takes seconds
        import fqk.ring

        ring = FusionRing.from_data(("1", "x"), 0, (((1, 0), (0, 1)), ((0, 1), (1, -10))))
        monkeypatch.setattr(fqk.ring, "POWER_ITER_CAP", 1000)
        with pytest.raises(NonConvergence, match="within 1000 iterations"):
            fpdim(ring)


class TestAngleLabel:
    def test_golden_ratio_gives_five(self):
        assert angle_label(2 * math.cos(math.pi / 5)) == 5

    def test_zero_gives_two(self):
        assert angle_label(0.0) == 2

    def test_two_gives_infinity(self):
        assert angle_label(2.0) == INFINITY
        assert angle_label(3.7) == INFINITY

    def test_identity_up_to_1000(self):
        for m in range(2, 1001):
            assert angle_label(2 * math.cos(math.pi / m)) == m

    def test_no_integer_match_raises(self):
        with pytest.raises(InvalidDimension):
            angle_label(1.57)  # strictly between 2cos(pi/4) and 2cos(pi/5)

    def test_negative_raises(self):
        with pytest.raises(InvalidDimension):
            angle_label(-0.5)
