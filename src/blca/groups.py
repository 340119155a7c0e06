"""Elementary locally compact abelian groups R^a x T^b x Z^c x F.

F is a finite abelian group stored through its invariant factors
(d_1 | d_2 | ... , each >= 2).  A Haar measure is a positive scalar per
sector against fixed reference measures: Lebesgue on R^a, the probability
measure on T^b, counting measure on Z^c and on F.  Only products of the four
scalars enter any measure value; keeping them per sector is what lets the
four-factor split and Pontryagin duals bookkeep measures exactly.

Subgroups of the discrete-finite sector Z^c x F are `LatticeSubgroup`s: the
preimage lattice in Z^n containing the order vectors d_i e_i, held in
canonical column Hermite form so equal subgroups compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import ShapeMismatch
from .intmat import (
    clear_denominators,
    diagonal_of,
    from_columns,
    hermite_basis,
    identity,
    integer_kernel,
    matmul,
    rational_kernel,
    smith_normal_form,
    solve_integer,
    transpose,
    unimodular_inverse,
)


def _positive_fraction(x, name: str) -> Fraction:
    q = Fraction(x)
    if q <= 0:
        raise ValueError(f"{name} must be positive")
    return q


@dataclass(frozen=True)
class HaarRecord:
    """Per-sector scale factors against the reference measures."""

    vector_scale: Fraction = Fraction(1)
    torus_total: Fraction = Fraction(1)
    z_point: Fraction = Fraction(1)
    f_point: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "vector_scale", _positive_fraction(self.vector_scale, "vector_scale"))
        object.__setattr__(self, "torus_total", _positive_fraction(self.torus_total, "torus_total"))
        object.__setattr__(self, "z_point", _positive_fraction(self.z_point, "z_point"))
        object.__setattr__(self, "f_point", _positive_fraction(self.f_point, "f_point"))

    def scalar(self) -> Fraction:
        return self.vector_scale * self.torus_total * self.z_point * self.f_point


@dataclass(frozen=True)
class ElementaryGroup:
    """R^a x T^b x Z^c x F with F given by its invariant factor chain."""

    a: int = 0
    b: int = 0
    c: int = 0
    torsion: Tuple[int, ...] = ()
    haar: HaarRecord = field(default_factory=HaarRecord)

    def __post_init__(self):
        for n, v in (("a", self.a), ("b", self.b), ("c", self.c)):
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"{n} must be a nonnegative integer")
        object.__setattr__(self, "torsion", tuple(int(d) for d in self.torsion))
        for d in self.torsion:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
        for d, e in zip(self.torsion, self.torsion[1:]):
            if e % d:
                raise ValueError("invariant factors must form a divisibility chain")

    @property
    def k(self) -> int:
        return len(self.torsion)

    @property
    def finite_order(self) -> int:
        out = 1
        for d in self.torsion:
            out *= d
        return out

    def is_compact(self) -> bool:
        return self.a == 0 and self.c == 0

    def is_trivial(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0 and not self.torsion

    def total_mass(self) -> Optional[Fraction]:
        """Total Haar mass, defined only for compact groups."""
        if not self.is_compact():
            return None
        return self.haar.scalar() * self.finite_order

    def discrete_orders(self) -> Tuple[int, ...]:
        """Order vector of the discrete-finite sector Z^c x F (0 = free)."""
        return (0,) * self.c + self.torsion

    def describe(self) -> str:
        parts = []
        if self.a:
            parts.append(f"R^{self.a}")
        if self.b:
            parts.append(f"T^{self.b}")
        if self.c:
            parts.append(f"Z^{self.c}")
        if self.torsion:
            parts.append(" x ".join(f"Z/{d}" for d in self.torsion))
        return " x ".join(parts) if parts else "0"


def dual_group(g: ElementaryGroup) -> ElementaryGroup:
    """Pontryagin dual with Plancherel-reciprocal Haar scales.

    R^a stays, T^b and Z^c swap, F is self-dual.  Scales: the dual of a scale
    s on a sector is whatever makes the Plancherel identity hold, which works
    out to 1/s for the vector sector, 1/torus_total on the new Z sector,
    1/z_point on the new T sector and 1/(|F| f_point) on F.
    """
    h = g.haar
    dual_haar = HaarRecord(
        vector_scale=1 / h.vector_scale,
        torus_total=1 / h.z_point,
        z_point=1 / h.torus_total,
        f_point=Fraction(1) / (g.finite_order * h.f_point),
    )
    return ElementaryGroup(g.a, g.c, g.b, g.torsion, dual_haar)


class LatticeSubgroup:
    """Subgroup of Z^n with per-coordinate orders (0 = free coordinate).

    Stored as the canonical Hermite basis of the preimage lattice
    L <= Z^n with L containing every order vector d_i e_i; subgroups are equal
    iff their stored bases are equal.
    """

    __slots__ = ("orders", "basis")

    def __init__(self, orders: Sequence[int], basis: Sequence[Sequence[int]]):
        self.orders = tuple(int(d) for d in orders)
        self.basis: Tuple[Tuple[int, ...], ...] = tuple(tuple(int(x) for x in col) for col in basis)

    @property
    def n(self) -> int:
        return len(self.orders)

    @classmethod
    def from_generators(cls, orders: Sequence[int], gens: Sequence[Sequence[int]]) -> "LatticeSubgroup":
        orders = tuple(int(d) for d in orders)
        n = len(orders)
        cols = [list(g) for g in gens]
        for g in cols:
            if len(g) != n:
                raise ShapeMismatch("generator length does not match ambient rank")
        for i, d in enumerate(orders):
            if d:
                cols.append([d if j == i else 0 for j in range(n)])
        return cls(orders, hermite_basis(cols, n))

    @classmethod
    def full(cls, orders: Sequence[int]) -> "LatticeSubgroup":
        return cls.from_generators(orders, identity(len(orders)))

    def key(self):
        return (self.orders, self.basis)

    def __eq__(self, other):
        return isinstance(other, LatticeSubgroup) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"LatticeSubgroup(orders={self.orders}, basis={[list(c) for c in self.basis]})"

    # -- structure ---------------------------------------------------------

    def structure(self):
        """Adapted generators: (free_cols, torsion_cols, torsion_orders).

        torsion_orders is an ascending divisibility chain with entries >= 2;
        the subgroup is the direct sum of Z generated by each free column and
        Z/s_i generated by each torsion column.
        """
        b = [list(col) for col in self.basis]
        r = len(b)
        n = self.n
        mod_idx = [i for i, d in enumerate(self.orders) if d]
        if r == 0:
            return [], [], []
        bmat = from_columns(b, n)
        rel_cols = []
        for i in mod_idx:
            target = [self.orders[i] if j == i else 0 for j in range(n)]
            sol = solve_integer(bmat, target)
            if sol is None:
                raise RuntimeError("order vector missing from stored lattice")
            rel_cols.append(sol)
        if not rel_cols:
            return [list(c) for c in self.basis], [], []
        rel = from_columns(rel_cols, r)
        u, d, _ = smith_normal_form(rel)
        # new generators are the columns of B U^{-1}; invert U exactly
        uinv = unimodular_inverse(u)
        newgens = matmul(bmat, uinv)
        cols = transpose(newgens)
        k = len(rel_cols)
        diag = diagonal_of(d)
        free_cols = [list(cols[i]) for i in range(k, r)]
        torsion_cols = []
        torsion_orders = []
        for i in range(k):
            s = diag[i] if i < len(diag) else 0
            if s == 0:
                raise RuntimeError("order relations must have full rank")
            if s > 1:
                torsion_cols.append(list(cols[i]))
                torsion_orders.append(s)
        return free_cols, torsion_cols, torsion_orders

    def contains(self, vec: Sequence[int]) -> bool:
        if not self.basis:
            return not any(vec)
        return solve_integer(from_columns(self.basis, self.n), list(vec)) is not None


def saturate_columns(cols: Sequence[Sequence[int]], n: int) -> List[List[int]]:
    """Canonical basis of span_Q(cols) intersected with Z^n."""
    if not cols:
        return []
    covectors = rational_kernel(transpose(from_columns(cols, n)))
    if not covectors:
        return identity(n)
    return hermite_basis(integer_kernel([clear_denominators(cov) for cov in covectors]), n)
