"""Exact subgroup constants on finite abelian groups.

On a finite group the inequality's best constant is a maximum over subgroups
H of (|H| m) / prod_j (|image_j(H)| m_j)^(1/p_j), so everything here is exact
arithmetic: subgroups are enumerated completely, values are ExactValue
products of rational powers, and the maximum is decided by integer
comparisons rather than floats.

Subgroups are listed by a depth-first search over their canonical Hermite
bases, which yields each one once without a deduplication set, and carries
the orders of the subgroup and of its images along the search, once per
p-primary part of F; there each subgroup scores an integer exponent of p.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import ShapeMismatch, TooLarge
from .exact import ExactValue, _factor
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
    return SubgroupList(group, tuple(LatticeSubgroup._canonical(orders, b) for _, b in ranked),
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

    m and m_j are the masses of a point, the scalars of the Haar records.
    H is the sum of its p-primary parts, so the value is d.haar_factor() =
    m / prod_j m_j^(1/p_j) times one maximum per prime p over
    F_p = prod_i Z/q_i, q_i the p-part of d_i, embedded by
    y_i -> y_i d_i / q_i.  With 1/p_j = c_j / l, H scores the
    integer l log_p |H| - sum_j c_j log_p |image_j H|.  Ties go to the
    largest subgroup, which is unique: log |H| is modular and each
    log |image_j H| submodular on the subgroup lattice, so the maximizers
    are closed under sums, and the argmax does not depend on the search
    order.
    """
    _finite_targets(d)
    orders = _subgroup_orders(d.domain)
    used = [(h, r) for h, r in zip(d.homs, d.reciprocal_exponents()) if r != 0]
    denom = math.lcm(*(r.denominator for _, r in used))
    weights = [int(r * denom) for _, r in used]
    exponents: Dict[int, Fraction] = {}
    gens: List[List[int]] = []
    size = count = 1
    for p in sorted(_factor(math.prod(orders))):
        part = tuple(math.gcd(t, p ** t.bit_length()) for t in orders)
        cofactor = [t // q for t, q in zip(orders, part)]
        maps = []
        for h, _ in used:
            tors = tuple(math.gcd(e, p ** e.bit_length()) for e in h.codomain.torsion)
            maps.append(([[a * c % q for a, c in zip(row, cofactor)] for row, q in zip(h.FF, tors)],
                         tors))
        logs = {p ** k: k for k in range(math.prod(part).bit_length())}
        best, found = None, 0
        for basis, sig in _subgroups(part, maps):
            found += 1
            key = (denom * logs[sig[0]] - sum(c * logs[s] for c, s in zip(weights, sig[1:])),
                   sig[0])
            if best is None or key > best[0]:
                best = (key, basis)
        (score, order), basis = best
        exponents[p] = Fraction(score, denom)
        size, count = size * order, count * found
        gens += [[y * c for y, c in zip(col, cofactor)] for col in basis]
    return FiniteResult(d.haar_factor() * ExactValue(exponents),
                        LatticeSubgroup.from_generators(orders, gens), size, count)


@dataclass(frozen=True)
class TowerResult:
    """The priced levels' values; unpriced is the first level past the bound
    (with the reason), and the levels from it on are not priced."""

    values: Tuple[ExactValue, ...]
    monotone: bool
    first_violation: Optional[int] = None
    unpriced: Optional[int] = None
    reason: Optional[str] = None

    def floats(self) -> Tuple[float, ...]:
        return tuple(float(v) for v in self.values)


def tower_limit(data: Sequence[Datum]) -> TowerResult:
    """Subgroup constants along a finite approximation tower.

    The caller supplies the levels (quotient data with compatible measures);
    the values then increase toward the limiting constant, and a decrease is
    flagged because it means the level normalizations are inconsistent.
    """
    values: List[ExactValue] = []
    unpriced = reason = None
    for i, level in enumerate(data):
        try:
            values.append(subgroup_bl_constant(level).value)
        except TooLarge as exc:
            unpriced, reason = i, str(exc)
            break
    drop = next((i for i in range(1, len(values)) if values[i] < values[i - 1]), None)
    return TowerResult(tuple(values), drop is None, drop, unpriced, reason)
