"""Elementary locally compact abelian groups R^a x T^b x Z^c x F.

F is a finite abelian group stored through its invariant factors
(d_1 | d_2 | ... , each >= 2).  A Haar measure is a positive scalar per
sector against fixed reference measures: Lebesgue on R^a, the probability
measure on T^b, counting measure on Z^c and on F.  Only products of the four
scalars enter any measure value; keeping them per sector is what lets the
four-factor split and Pontryagin duals bookkeep measures exactly.

Subgroups of the discrete-finite sector Z^c x F are `LatticeSubgroup`s: the
preimage lattice in Z^n containing the order vectors d_i e_i, held in
canonical column Hermite form so equal subgroups compare equal.  adapted()
gives a subgroup's adapted generators and each vector's coordinates in them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import IrrationalEntry, ShapeMismatch
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
    transpose,
    unimodular_inverse,
)


def _fraction(x) -> Fraction:
    """Fraction(x) of Python ints; a numpy integer would stay its numerator
    or denominator, in a fixed width that wraps on overflow."""
    q = Fraction(x)
    n, d = q.numerator, q.denominator
    return q if type(n) is int is type(d) else Fraction(int(n), int(d))


def _positive_fraction(x, name: str) -> Fraction:
    """x as a positive Fraction of Python ints, x itself when it is one.
    A float is not exact and a bool is not a number, as in the file format."""
    if not (type(x) is Fraction and type(x._numerator) is int is type(x._denominator)):
        if isinstance(x, bool):
            raise ValueError(f"{name} must be a rational number, got {x!r}")
        if isinstance(x, float):
            raise IrrationalEntry(f"{name} {x!r} is not exact; pass an int or a Fraction")
        x = _fraction(x)
    if x.numerator <= 0:
        raise ValueError(f"{name} must be positive")
    return x


_SCALES = ("vector_scale", "torus_total", "z_point", "f_point")


@dataclass(frozen=True)
class HaarRecord:
    """Per-sector scale factors against the reference measures."""

    vector_scale: Fraction = Fraction(1)
    torus_total: Fraction = Fraction(1)
    z_point: Fraction = Fraction(1)
    f_point: Fraction = Fraction(1)

    def __post_init__(self):
        for name in _SCALES:
            v = getattr(self, name)
            q = _positive_fraction(v, name)
            if q is not v:
                object.__setattr__(self, name, q)

    def scalar(self) -> Fraction:
        out = self.vector_scale
        for s in (self.torus_total, self.z_point, self.f_point):
            if s != 1:
                out *= s
        return out


# The record of the reference measures; every group without a record of its
# own shares it (a HaarRecord is immutable).
UNIT_HAAR = HaarRecord()


@dataclass(frozen=True)
class ElementaryGroup:
    """R^a x T^b x Z^c x F with F given by its invariant factor chain."""

    a: int = 0
    b: int = 0
    c: int = 0
    torsion: Tuple[int, ...] = ()
    haar: HaarRecord = UNIT_HAAR

    def __post_init__(self):
        for n, v in (("a", self.a), ("b", self.b), ("c", self.c)):
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                raise ValueError(f"{n} must be a nonnegative integer, got {v!r}")
        if type(self.torsion) is not tuple:
            object.__setattr__(self, "torsion", tuple(self.torsion))
        for d in self.torsion:
            if isinstance(d, bool) or not isinstance(d, int):
                raise ValueError(f"invariant factors must be integers, got {d!r}")
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
    scales = (_reciprocal(h.vector_scale), _reciprocal(h.z_point),
              _reciprocal(h.torus_total), _reciprocal(h.f_point, g.finite_order))
    dual_haar = UNIT_HAAR if all(s == 1 for s in scales) else HaarRecord(*scales)
    return ElementaryGroup(g.a, g.c, g.b, g.torsion, dual_haar)


def _reciprocal(q: Fraction, times: int = 1) -> Fraction:
    """1 / (times * q) for a positive Fraction q."""
    if times == 1 and q == 1:
        return q
    return Fraction(q.denominator, times * q.numerator)


class LatticeSubgroup:
    """Subgroup of Z^n with per-coordinate orders (0 = free coordinate).

    Stored as the canonical Hermite basis of the preimage lattice
    L <= Z^n with L containing every order vector d_i e_i; subgroups are equal
    iff their stored bases are equal.  The constructor raises ValueError on
    any other basis; from_generators builds one from any generators.
    """

    __slots__ = ("orders", "basis")

    def __init__(self, orders: Sequence[int], basis: Sequence[Sequence[int]]):
        self.orders = tuple(map(int, orders))
        self.basis: Tuple[Tuple[int, ...], ...] = tuple([tuple(map(int, col)) for col in basis])
        if LatticeSubgroup.from_generators(self.orders, self.basis).basis != self.basis:
            raise ValueError(f"{[list(c) for c in self.basis]} is not the canonical "
                             f"Hermite basis of a subgroup with orders {self.orders}")

    @classmethod
    def _canonical(cls, orders: Sequence[int], basis: Sequence[Sequence[int]]) -> "LatticeSubgroup":
        """The subgroup with a basis already known to be canonical and to
        contain the order vectors, unchecked."""
        lat = cls.__new__(cls)
        lat.orders = tuple(orders)
        lat.basis = tuple(map(tuple, basis))
        return lat

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
        return cls._canonical(orders, hermite_basis(cols, n))

    @classmethod
    def full(cls, orders: Sequence[int]) -> "LatticeSubgroup":
        """All of Z^n; the canonical basis of Z^n is the identity."""
        return cls._canonical(tuple(map(int, orders)), identity(len(orders)))

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
        """Adapted generators: (free_cols, torsion_cols, torsion_orders), the
        first three entries of adapted().

        torsion_orders is an ascending divisibility chain with entries >= 2;
        the subgroup is the direct sum of Z generated by each free column and
        Z/s_i generated by each torsion column.
        """
        return self.adapted()[:3]

    def adapted(self):
        """Adapted generators and the coordinate map: (free_cols,
        torsion_cols, torsion_orders, coordinates).

        The order relations are the coefficients of each order vector d_i e_i
        in the stored basis B; with U the left factor of their Smith form, the
        generators are the columns of B U^-1.  coordinates(vec) returns
        vec's coefficients in those generators, free ones first, each torsion
        one reduced mod its order: U times vec's coefficients in B.  It
        returns None when vec is not in the lattice.
        """
        n = self.n
        coefficients = self._coefficients()
        rel_cols = [coefficients([d if j == i else 0 for j in range(n)])
                    for i, d in enumerate(self.orders) if d]
        if None in rel_cols:
            raise RuntimeError("order vector missing from stored lattice")
        if not rel_cols:
            return [list(c) for c in self.basis], [], [], coefficients
        k, r = len(rel_cols), len(self.basis)
        u, d, _ = smith_normal_form(from_columns(rel_cols, r))
        cols = transpose(matmul(from_columns(self.basis, n), unimodular_inverse(u)))
        diag = diagonal_of(d)
        tors = [i for i in range(k) if diag[i] > 1]
        free_rows, tors_rows = u[k:], [u[i] for i in tors]
        tors_orders = [diag[i] for i in tors]

        def coordinates(vec):
            y = coefficients(vec)
            if y is None:
                return None
            return ([sum(map(operator.mul, row, y)) for row in free_rows]
                    + [sum(map(operator.mul, row, y)) % s
                       for row, s in zip(tors_rows, tors_orders)])
        return cols[k:], [cols[i] for i in tors], tors_orders, coordinates

    def _coefficients(self):
        """The map from a vector to its coefficients in the stored basis, or
        to None off the lattice: forward substitution at each column's first
        nonzero entry, its pivot in the echelon basis, leaves a remainder
        exactly when the vector is off the lattice."""
        steps = [(next(i for i, x in enumerate(col) if x), col) for col in self.basis]

        def coefficients(vec):
            rest = list(vec)
            out = []
            for p, col in steps:
                q = rest[p] // col[p]
                if q:
                    rest = [x - q * y for x, y in zip(rest, col)]
                out.append(q)
            return None if any(rest) else out
        return coefficients

    def contains(self, vec: Sequence[int]) -> bool:
        if len(vec) != self.n:
            raise ShapeMismatch("vector length does not match ambient rank")
        return self._coefficients()(vec) is not None


def saturate_columns(cols: Sequence[Sequence[int]], n: int) -> List[List[int]]:
    """Canonical basis of span_Q(cols) intersected with Z^n."""
    if not cols:
        return []
    covectors = rational_kernel(transpose(from_columns(cols, n)))
    if not covectors:
        return identity(n)
    return hermite_basis(integer_kernel([clear_denominators(cov) for cov in covectors]), n)
