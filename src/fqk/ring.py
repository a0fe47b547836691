"""Exact arithmetic in fusion rings and the Frobenius-Perron dimension engine.

A fusion ring is given by its simple basis, a non-negative integer structure
tensor ``N`` (``N[i][j][k]`` = multiplicity of simple ``k`` in the product of
simples ``i`` and ``j``), a distinguished unit index, and a dual involution.
Elements are plain integer coefficient tuples over the simple basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidDimension, NonConvergence, OutOfRange

RingElement = tuple  # tuple[int, ...] over the simple basis

# the tolerance of every float comparison; no verdict rests on one
TOL = 1e-9
POWER_ITER_TOL = 1e-10
POWER_ITER_CAP = 10**6

# products are formed in int64 only while every sum of them the kernels form
# stays below this; larger data runs the same code on Python ints
INT64_SAFE = 2**62
# entries per vectorized block of an axiom check, so memory stays O(r^3)
BLOCK_ENTRIES = 2**16


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok and not self.warnings:
            return "valid"
        lines = [f"violation: {v}" for v in self.violations]
        lines += [f"warning: {w}" for w in self.warnings]
        return "\n".join(lines)


def _derive_dual(names, unit, N):
    """The dual permutation: for each i, the unique j with N[i][j][unit] = 1."""
    rank = len(names)
    if unit not in range(rank):
        raise ValueError(f"cannot derive the dual: unit {unit!r} is not a simple index")
    dual = []
    for i in range(rank):
        try:
            hits = [j for j in range(rank) if N[i][j][unit] != 0]
        except IndexError:
            raise ValueError(f"cannot derive the dual: N is not a {rank}x{rank}x{rank} tensor")
        if len(hits) != 1 or N[i][hits[0]][unit] != 1:
            raise ValueError(
                f"cannot derive dual of simple {i} ({names[i]}): "
                f"N[{i}][j][unit] is not a delta function"
            )
        dual.append(hits[0])
    return tuple(dual)


def exact_array(data, shape, width: int) -> np.ndarray:
    """Nested integer data as one read-only array of the given shape.

    While `width` * max|entry|**2 < INT64_SAFE, sums of `width` products of
    two entries cannot wrap in int64; the entries (then below 2**31) are
    stored in the narrowest integer type and widened to int64 by `wide`.
    Otherwise the array holds Python ints (dtype=object)."""
    try:
        a = np.array(data, dtype=np.int64).reshape(shape)
        big = max(int(a.max()), -int(a.min())) if a.size else 0
    except OverflowError:
        big = INT64_SAFE
    if width * big * big < INT64_SAFE:
        a = a.astype(np.int8 if big < 2**7 else np.int16 if big < 2**15 else np.int32)
    else:
        a = np.array(data, dtype=object).reshape(shape)
    a.setflags(write=False)
    return a


def wide(a: np.ndarray) -> np.ndarray:
    """An exact_array with its entries as int64, ready for products."""
    return a if a.dtype == object else a.astype(np.int64)


def row_blocks(rows: int, row_entries: int):
    """Consecutive slices of range(rows), each covering about BLOCK_ENTRIES
    entries (at least one row)."""
    step = max(1, BLOCK_ENTRIES // max(1, row_entries))
    return (slice(i, min(i + step, rows)) for i in range(0, rows, step))


@dataclass(frozen=True)
class FusionRing:
    names: tuple
    unit: int
    N: tuple  # rank x rank x rank nested tuples of non-negative ints
    dual: tuple

    @classmethod
    def from_data(cls, names, unit, N, dual=None):
        names = tuple(names)
        N = tuple(tuple(tuple(int(x) for x in row) for row in mat) for mat in N)
        if dual is None:
            dual = _derive_dual(names, unit, N)
        return cls(names=names, unit=unit, N=N, dual=tuple(dual))

    @property
    def rank(self) -> int:
        return len(self.names)

    @cached_property
    def tensor(self) -> np.ndarray:
        """N as one (rank, rank, rank) integer array (see exact_array)."""
        r = self.rank
        return exact_array(self.N, (r, r, r), r)

    def basis(self, i) -> RingElement:
        """The class of the i-th simple (index or name)."""
        if isinstance(i, str):
            i = self.names.index(i)
        if i not in range(self.rank):
            raise OutOfRange(f"simple index {i!r} is outside 0..{self.rank - 1}")
        return tuple(1 if k == i else 0 for k in range(self.rank))

    @property
    def one(self) -> RingElement:
        return self.basis(self.unit)

    def zero(self) -> RingElement:
        return (0,) * self.rank


def validate(ring: FusionRing) -> ValidationReport:
    """Check every fusion-ring invariant on the data; violations are report
    entries, not exceptions."""
    rep = ValidationReport()
    r = ring.rank
    N, unit, dual = ring.N, ring.unit, ring.dual

    if len(ring.names) != r or len(N) != r or len(dual) != r:
        rep.violations.append("inconsistent rank across fields")
        return rep
    for i in range(r):
        if len(N[i]) != r or any(len(N[i][j]) != r for j in range(r)):
            rep.violations.append(f"N[{i}] has wrong shape")
            return rep
    if unit not in range(r):
        rep.violations.append(f"unit {unit!r} is not a simple index")
        return rep

    T = wide(ring.tensor)
    rep.violations += [
        f"negative multiplicity N[{i}][{j}][{k}]"
        for i, j, k in np.argwhere(T < 0).tolist()
    ]

    # unit law
    eye = np.eye(r, dtype=np.int64)
    left, right = T[unit] != eye, T[:, unit] != eye
    for j, k in np.argwhere(left | right).tolist():
        if left[j, k]:
            rep.violations.append(f"unit law fails at N[unit][{j}][{k}]")
        if right[j, k]:
            rep.violations.append(f"unit law fails at N[{j}][unit][{k}]")

    # associativity: (S_i S_j) S_k against S_i (S_j S_k), in blocks over i
    for b in row_blocks(r, r**3):
        lhs = T[b].reshape(-1, r) @ T.reshape(r, r * r)
        rhs = T.reshape(r * r, r) @ T[b]
        bad = lhs.reshape(-1, r, r, r) != rhs.reshape(-1, r, r, r)
        rep.violations += [
            f"associativity fails at (i,j,k,l)=({b.start + i},{j},{k},{l})"
            for i, j, k, l in np.argwhere(bad).tolist()
        ]

    # dual involution and rigidity
    if any(d not in range(r) for d in dual) or len(set(dual)) != r:
        rep.violations.append("dual is not a permutation")
        return rep
    d = np.array(dual, dtype=np.intp)
    rep.violations += [
        f"dual not involutive at {i}"
        for i in np.flatnonzero(d[d] != np.arange(r)).tolist()
    ]
    if dual[unit] != unit:
        rep.violations.append("dual(unit) != unit")
    want = np.zeros((r, r), dtype=np.int64)
    want[np.arange(r), d] = 1
    rep.violations += [
        f"rigidity fails at N[{i}][{j}][unit]"
        for i, j in np.argwhere(T[:, :, unit] != want).tolist()
    ]
    mirror = T[np.ix_(d, d, d)].transpose(1, 0, 2)
    rep.violations += [
        f"dual symmetry fails at ({i},{j},{k})"
        for i, j, k in np.argwhere(T != mirror).tolist()
    ]
    return rep


def combination(stack: np.ndarray, x: RingElement) -> np.ndarray:
    """sum_i x[i] * stack[i] as an object array of Python ints: the matrix of
    a ring element, from the ring's or a module's tensor.  Every product of
    ring elements is formed here, so all are exact at any size."""
    if len(x) != len(stack):
        raise ValueError(f"an element of length {len(x)} does not match the {len(stack)} simples")
    out = None
    for c, m in zip(x, stack):
        if c:
            term = m.astype(object)
            if c != 1:
                term *= c
            out = term if out is None else out + term
    return np.zeros(stack.shape[1:], dtype=object) if out is None else out


def multiply(ring: FusionRing, x: RingElement, y: RingElement) -> RingElement:
    """The product xy = sum_j y[j] (x S_j), where row j of x's matrix
    sum_i x[i] N[i] is x S_j."""
    return tuple(combination(combination(ring.tensor, x), y).tolist())


def dual(ring: FusionRing, x: RingElement) -> RingElement:
    """Apply the dual involution to an element's coefficients."""
    out = [0] * ring.rank
    for c, d in zip(x, ring.dual, strict=True):
        out[d] = c
    return tuple(out)


def add(x: RingElement, y: RingElement) -> RingElement:
    return tuple(a + b for a, b in zip(x, y))


def sub(x: RingElement, y: RingElement) -> RingElement:
    return tuple(a - b for a, b in zip(x, y))


def scale(c: int, x: RingElement) -> RingElement:
    return tuple(c * a for a in x)


def perron_eigenpair(A):
    """Perron eigenvalue and positive eigenvector of a non-negative matrix
    with strictly positive Perron vector, by power iteration.

    Iterates on A + I so that periodic (but irreducible) matrices still
    converge; the Perron vector is unchanged and the eigenvalue shifts by 1.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    B = A + np.eye(n)
    v = np.ones(n) / math.sqrt(n)
    lam = 1.0
    for _ in range(POWER_ITER_CAP):
        w = B @ v
        lam_new = float(np.linalg.norm(w))
        if lam_new == 0.0:
            raise NonConvergence("matrix annihilated the positive cone")
        w = w / lam_new
        if np.linalg.norm(w - v) < POWER_ITER_TOL and abs(lam_new - lam) < POWER_ITER_TOL:
            return lam_new - 1.0, w
        v, lam = w, lam_new
    raise NonConvergence(
        f"power iteration did not converge within {POWER_ITER_CAP} iterations"
    )


@dataclass(frozen=True)
class FPVector:
    dims: tuple  # float per simple, dims[unit] = 1


def fpdim(ring: FusionRing) -> FPVector:
    """Common Perron eigenvector of all left-multiplication matrices,
    normalized so the unit has dimension 1; entry i is FPdim of simple i."""
    # one contiguous float copy per simple: a transposed view would change
    # the last bits of m @ v
    mats = [np.ascontiguousarray(m.T, dtype=float) for m in ring.tensor]
    total = np.ascontiguousarray(ring.tensor.sum(axis=0).T, dtype=float)
    _, v = perron_eigenpair(total)
    v = v / v[ring.unit]
    # per-simple eigenvalue extraction: LeftMult(S_i) v = d_i v
    k = int(np.argmax(v))
    dims = tuple(float((m @ v)[k] / v[k]) for m in mats)
    return FPVector(dims=dims)


def fpdim_of(ring: FusionRing, x: RingElement, fpv: FPVector | None = None) -> float:
    if fpv is None:
        fpv = fpdim(ring)
    return float(sum(c * d for c, d in zip(x, fpv.dims, strict=True)))


INFINITY = math.inf


def fmt_m(m) -> str:
    """An order, Coxeter number or root count as text: "inf" or the integer."""
    return "inf" if m == INFINITY else str(int(m))


def angle_label(f: float):
    """Map a real dimension f to the integer m with f = 2cos(pi/m), with
    f >= 2 mapping to infinity and f = 0 mapping to 2."""
    if f < 0:
        raise InvalidDimension(f"negative dimension {f}")
    if f >= 2 - TOL:
        return INFINITY
    if abs(f) < TOL:
        return 2
    m = round(math.pi / math.acos(f / 2))
    if m < 2 or abs(2 * math.cos(math.pi / m) - f) >= TOL:
        raise InvalidDimension(
            f"dimension {f} is below 2 but matches no 2cos(pi/m) within {TOL}"
        )
    return m
