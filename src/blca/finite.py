"""Exact subgroup constants on finite abelian groups.

On a finite group the inequality's best constant is a maximum over subgroups
H of (|H| m) / prod_j (|image_j(H)| m_j)^(1/p_j), so everything here is exact
arithmetic: subgroups are enumerated completely, values are ExactValue
products of rational powers, and the maximum is decided by integer
comparisons rather than floats.

Subgroups are listed by a depth-first search over their canonical Hermite
bases, which yields each one once without a deduplication set, and carries
the orders of the subgroup and of its images along the search.  The maximum
is taken as the subgroups stream past: the value depends only on those
orders, so it is computed once per distinct tuple of orders.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import ShapeMismatch, TooLarge
from .exact import ExactValue
from .groups import ElementaryGroup, LatticeSubgroup
from .homs import Datum

DEFAULT_BOUND = 100000   # the largest group order whose subgroups are searched


def _require_finite(g: ElementaryGroup, what: str) -> None:
    if g.a or g.b or g.c:
        raise ShapeMismatch(f"{what} must be a finite group, got {g.describe()}")


@dataclass(frozen=True)
class SubgroupList:
    ambient: ElementaryGroup
    subgroups: Tuple[LatticeSubgroup, ...]
    sizes: Tuple[int, ...]

    def __len__(self):
        return len(self.subgroups)

    def __iter__(self):
        return iter(zip(self.subgroups, self.sizes))


Basis = Tuple[Tuple[int, ...], ...]


def _subgroup_orders(group: ElementaryGroup) -> Tuple[int, ...]:
    _require_finite(group, "subgroup enumeration ambient")
    if group.finite_order > DEFAULT_BOUND:
        raise TooLarge(f"group order {group.finite_order} exceeds the bound "
                       f"{DEFAULT_BOUND}")
    return group.torsion


def _insert(echelon: Basis, vec: Sequence[int], orders: Tuple[int, ...]) -> Basis:
    """Echelon basis of the lattice spanned by `echelon`, `vec` and the order
    vectors.

    Row s is zero before coordinate s and has its pivot there, the pivot of
    the Hermite basis, so the subgroup has order prod_s orders[s] / pivot_s.
    Euclid's steps on coordinate s are unimodular, and the lattice holds
    every order vector, so entries are kept reduced modulo the orders.
    """
    rows = list(echelon)
    vec = [x % t for x, t in zip(vec, orders)]
    for s in range(len(orders)):
        row = rows[s]
        while vec[s]:
            q = row[s] // vec[s]
            row, vec = vec, [(a - q * b) % t for a, b, t in zip(row, vec, orders)]
        rows[s] = tuple(row)
    return tuple(rows)


def _subgroups(orders: Tuple[int, ...],
               maps: Sequence[Tuple[Sequence[Sequence[int]], Tuple[int, ...]]] = ()
               ) -> Iterator[Tuple[Basis, Tuple[int, ...]]]:
    """(canonical Hermite basis, (|H|, |image_1 H|, ...)) for every subgroup
    H of prod_i Z/orders[i], each exactly once, images under `maps`.

    The basis that `hermite_basis` gives the preimage lattice is lower
    triangular: column i has its pivot h_i | d_i at row i, and the entries
    below it lie in [0, h_k) for the pivot h_k of their row.  Columns are
    chosen from the last to the first.  Columns i.. span H restricted to the
    factors i.., and column i is kept only if d_i e_i lies in the lattice,
    that is if (d_i / h_i) times its entries below the pivot has integral
    forward-substitution coefficients on the later columns.  Every kept
    suffix is a subgroup of the last factors and extends to one of the whole
    group, so the search is polynomial in its output and needs no
    deduplication.  |H| is the index prod_i d_i / h_i, and each image keeps
    an echelon basis that grows by one generator per column.
    """
    n = len(orders)
    cols: List[Tuple[int, ...]] = [()] * n
    pivots = [0] * n

    def extend(i: int, size: int, echelons: Tuple[Basis, ...]
               ) -> Iterator[Tuple[Basis, Tuple[int, ...]]]:
        if i < 0:
            yield tuple(cols), (size,) + tuple(
                math.prod(t // ech[s][s] for s, t in enumerate(tors))
                for (_, tors), ech in zip(maps, echelons))
            return
        d = orders[i]
        for h in (h for h in range(1, d + 1) if d % h == 0):
            c = d // h
            pivots[i] = h
            for below in itertools.product(*(range(pivots[k]) for k in range(i + 1, n))):
                rest = [0] * (i + 1) + [c * x for x in below]
                for k in range(i + 1, n):
                    q, r = divmod(rest[k], pivots[k])
                    if r:
                        break
                    for t in range(k + 1, n):
                        rest[t] -= q * cols[k][t]
                else:
                    col = (0,) * i + (h,) + below
                    cols[i] = col
                    yield from extend(i - 1, size * c, tuple(
                        _insert(ech, [sum(a * b for a, b in zip(row, col)) for row in ff], tors)
                        for (ff, tors), ech in zip(maps, echelons)))

    start = tuple(tuple(tuple(t if s == r else 0 for s in range(len(tors)))
                        for r, t in enumerate(tors)) for _, tors in maps)
    return extend(n - 1, 1, start)


def enumerate_subgroups(group: ElementaryGroup) -> SubgroupList:
    """Every subgroup of a finite abelian group, each exactly once, sorted by
    (order, Hermite key).

    The subgroups come from the same depth-first search over canonical
    Hermite bases that `subgroup_bl_constant` streams, so no deduplication
    is needed; this list is for callers that want all of them at once.
    """
    orders = _subgroup_orders(group)
    ranked = sorted((sig[0], basis) for basis, sig in _subgroups(orders))
    return SubgroupList(group, tuple(LatticeSubgroup(orders, b) for _, b in ranked),
                        tuple(size for size, _ in ranked))


@dataclass(frozen=True)
class FiniteResult:
    value: ExactValue
    argmax: LatticeSubgroup
    argmax_size: int
    subgroup_count: int

    def __float__(self):
        return float(self.value)

    def __repr__(self):
        return (f"FiniteResult(value={self.value!r}~{float(self.value):.6g}, "
                f"argmax_size={self.argmax_size}, subgroups={self.subgroup_count})")


def _finite_targets(d: Datum) -> None:
    _require_finite(d.domain, "datum domain")
    for h in d.homs:
        _require_finite(h.codomain, "datum target")


def subgroup_bl_constant(d: Datum) -> FiniteResult:
    """Exact maximum of (|H| m) / prod_j (|image_j(H)| m_j)^(1/p_j).

    m and m_j are the per-point masses from the Haar records.  The subgroups
    stream past without being stored: the value depends only on the orders
    (|H|, |image_1 H|, ...), so it is computed once per distinct tuple of
    orders.  Ties in the exact value go to the largest subgroup, and that
    subgroup is unique: log |H| is modular and each log |image_j H|
    submodular on the subgroup lattice, so the subgroups attaining the
    maximum are closed under sums.  The argmax therefore does not depend on
    the order of the search.
    """
    _finite_targets(d)
    orders = _subgroup_orders(d.domain)
    used = [(h, r) for h, r in zip(d.homs, d.reciprocal_exponents()) if r != 0]
    bases: Dict[Tuple[int, ...], Basis] = {}
    count = 0
    for basis, sig in _subgroups(orders, [(h.FF, h.codomain.torsion) for h, _ in used]):
        count += 1
        bases.setdefault(sig, basis)
    best: Optional[Tuple[ExactValue, int, Basis]] = None
    for sig, basis in bases.items():
        val = ExactValue.of(Fraction(sig[0]) * d.domain.haar.f_point)
        for img, (h, r) in zip(sig[1:], used):
            val = val / ExactValue.of(Fraction(img) * h.codomain.haar.f_point) ** r
        if best is None or val > best[0] or (val == best[0] and sig[0] > best[1]):
            best = (val, sig[0], basis)
    assert best is not None
    return FiniteResult(best[0], LatticeSubgroup(orders, best[2]), best[1], count)


@dataclass(frozen=True)
class TowerResult:
    values: Tuple[ExactValue, ...]
    monotone: bool
    first_violation: Optional[int] = None

    def floats(self) -> Tuple[float, ...]:
        return tuple(float(v) for v in self.values)


def tower_limit(data: Sequence[Datum]) -> TowerResult:
    """Subgroup constants along a finite approximation tower.

    The caller supplies the levels (quotient data with compatible measures);
    the values then increase toward the limiting constant, and a decrease is
    flagged because it means the level normalizations are inconsistent.
    """
    values = tuple(subgroup_bl_constant(level).value for level in data)
    for i in range(1, len(values)):
        if values[i] < values[i - 1]:
            return TowerResult(values, False, i)
    return TowerResult(values, True)
