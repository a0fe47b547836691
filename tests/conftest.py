import random

import pytest

from fqk import FusionRing, catalog


BUILTIN_RINGS = {
    "vect": catalog.vect(),
    "rep_s2": catalog.rep_s2(),
    "rep_s3": catalog.rep_s3(),
    "rep_s4": catalog.rep_s4(),
    "fibonacci": catalog.fibonacci(),
    "verlinde_sl2_1": catalog.verlinde_sl2(1),
    "verlinde_sl2_2": catalog.verlinde_sl2(2),
    "verlinde_sl2_4": catalog.verlinde_sl2(4),
}

# the group ring of Z/3 on (1, g, g^2): g and g^2 are dual to each other
Z3 = FusionRing.from_data(
    ("1", "g", "g2"), 0, [[[int(k == (i + j) % 3) for k in range(3)] for j in range(3)] for i in range(3)]
)

BUILTIN_MODULES = {
    "verlinde_typeD_2": catalog.verlinde_typeD(2),
    "verlinde_typeD_4": catalog.verlinde_typeD(4),
}

BUILTIN_QUIVERS = {
    "s2_sign_quiver": catalog.s2_sign_quiver(),
    "s3_std_quiver": catalog.s3_std_quiver(),
    "s4_std_quiver": catalog.s4_std_quiver(),
    "fib_edge_quiver": catalog.fib_edge_quiver(),
    "fib_h4_quiver": catalog.fib_h4_quiver(),
    "verlinde_l4_quiver": catalog.verlinde_l4_quiver(),
    "verlinde_l4_typeD_quiver": catalog.verlinde_l4_typeD_quiver(),
    "verlinde_l2_typeD_quiver": catalog.verlinde_l2_typeD_quiver(),
    "sl3at5_x_quiver": catalog.sl3at5_x_quiver(),
}

FINITE_QUIVERS = (
    "s2_sign_quiver",
    "fib_edge_quiver",
    "fib_h4_quiver",
    "verlinde_l4_quiver",
    "verlinde_l4_typeD_quiver",
    "verlinde_l2_typeD_quiver",
    "sl3at5_x_quiver",
)


@pytest.fixture
def rng():
    return random.Random(20260823)


def random_element(rng, rank, lo=0, hi=3):
    return tuple(rng.randint(lo, hi) for _ in range(rank))
