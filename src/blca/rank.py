"""Rank-condition checkers over Q.

The free and vector sectors control finiteness through inequalities of the
form dim W <= sum_j dim(A_j W) / p_j over all subspaces W: the deficit
dim W - sum_j dim(A_j W) / p_j is at most 0.  The torus sector controls it
through the same deficit against a level, the deficit of the whole space:
no subspace may have a larger deficit than Q^n (the torus case of Bennett,
Carbery, Christ, Tao, Finite bounds for Hölder-Brascamp-Lieb multilinear
inequalities, Math. Res. Lett. 2010).  A subspace violates when its deficit
is above the level.  There is no known terminating decision procedure over
the full subspace lattice once the kernels generate an infinite modular
lattice, so the checker is three-valued: FAILS carries an exact witness,
HOLDS_CERTIFIED is only claimed under a cited completeness theorem, and
everything else is LIKELY_HOLDS with the closure's statistics attached.

``rank_condition`` tries its routes in order and stops at the first that
decides:

1. every map of rank at most one: the condition is checked exactly over the
   closed index sets F of the row matroid (one row per map), which decides
   it (Barthe's matroid criterion, Invent. Math. 1998).  The flat of F is
   the subspace ker(rows of F); its deficit is (n - r(F)) - sum of 1/p_j
   over the maps j outside F, so no subspace is built except the witness
   or the critical subspace that the verdict reports, each straight as
   the saturated lattice ker(rows of F) ∩ Z^n, the Hermite basis of the
   integer kernel of F's cleared rows;
2. the sum/intersection closure of the kernels: a violation there is an
   exact FAILS, and a closure that terminates under the completeness
   criterion certifies the condition (Valdimarsson, The Brascamp-Lieb
   polyhedron, Canad. J. Math. 2010: the kernel lattice suffices); a closure
   that finds no violation but is not covered by the criterion gives
   LIKELY_HOLDS.  The closure works in integer arithmetic: it names each
   subspace by its fraction-free reduced echelon basis, and the maps' rows
   are cleared to integers once.  Only the witness and the critical subspace
   get saturated integer bases.

The torus and free factors read only the status and the witness, and each
map's rank (a torus map of rank below its target's dimension is not onto):
they call ``_prepare`` and ``_decide`` with ``split=False``, which looks for
no critical subspace.  ``rank_condition``, the vector callers' entry, always
does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import ShapeMismatch
from .groups import _fraction, saturate_columns
from .homs import parse_exponent
from .intmat import (clear_denominators, hermite_basis, identity, integer_kernel,
                     matmul, primitive_kernel, primitive_rref, rational_rank, transpose)

FAILS = "FAILS"
HOLDS_CERTIFIED = "HOLDS_CERTIFIED"
LIKELY_HOLDS = "LIKELY_HOLDS"

_CLOSURE_DEPTH = 6   # rounds of joins and meets
_CLOSURE_CAP = 2000  # subspaces; the closure stops at the first pair past it


@dataclass(frozen=True)
class RankVerdict:
    """status is FAILS, HOLDS_CERTIFIED or LIKELY_HOLDS; witness is a
    subspace with deficit above the level (0, or for a torus the deficit of
    the whole space) when it FAILS.  critical, never set on a FAILS, is the
    least (by dimension, then basis) proper nonzero subspace an exact route
    found with deficit exactly at the level, or None: a split point for
    the constant (Bennett, Carbery, Christ, Tao, GAFA 2008, Lemma 4.6).
    homogeneous says whether n = sum_j rank(A_j)/p_j, i.e. whether the whole
    space has deficit exactly 0; with the condition it decides finiteness on
    R^n (Bennett, Carbery, Christ, Tao, GAFA 2008)."""

    status: str
    witness: Optional[Tuple[Tuple[int, ...], ...]] = None
    evidence: Dict[str, object] = field(default_factory=dict)
    critical: Optional[Tuple[Tuple[int, ...], ...]] = None
    homogeneous: bool = True

    @property
    def ok(self) -> bool:
        return self.status != FAILS

    def __bool__(self):
        return self.ok


# -- subspace bookkeeping ---------------------------------------------------
# The closure names each subspace of Q^n by its fraction-free reduced echelon
# basis (``primitive_rref``: each row the primitive integer multiple of the
# reduced row echelon row, pivot positive), which is canonical and hashable;
# sums stack bases and meets take the kernel of the stacked annihilators, all
# in integer arithmetic.  Only a subspace a verdict reports is given its
# saturated Hermite basis (``_canon``), by ``_least``.

def _canon(cols, n) -> Tuple[Tuple[int, ...], ...]:
    return tuple(map(tuple, saturate_columns(cols, n)))


def _rref(rows) -> Tuple[Tuple[int, ...], ...]:
    """The echelon name of span(rows), for integer rows."""
    return tuple(map(tuple, primitive_rref(rows)[0]))


def _rank(rows) -> int:
    return len(primitive_rref(rows)[1])


def _cut(covectors, n):
    """The echelon name of the subspace where every covector vanishes."""
    return _rref(primitive_kernel(covectors)) if covectors else _full_space(n)


def _annihilator(space, n):
    return primitive_kernel(space) if space else identity(n)


def _full_space(n):
    return tuple(map(tuple, identity(n)))


class _Prepared(NamedTuple):
    """The maps with each row cleared to integers (scaling a row changes no
    rank or kernel) and their ranks, the integer weights scale/p_j (0 for
    p = inf) with their scale, the lcm of the denominators of the 1/p_j, and
    the domain dimension n."""
    maps: list
    ranks: List[int]
    weights: List[int]
    scale: int
    n: int


def _cleared(row) -> List[int]:
    """row times the lcm of its denominators, in Python ints.  Any entry but
    an int or a Fraction of ints, a numpy integer or a Fraction of them say,
    is made a Fraction of Python ints first."""
    kinds = set(map(type, row))
    if kinds <= {int}:
        return list(row)
    plain = kinds <= {int, Fraction} and all(
        type(x) is int or type(x._numerator) is int is type(x._denominator) for x in row)
    return clear_denominators(row if plain else list(map(_fraction, row)))


def _prepare(maps, p, dim) -> _Prepared:
    """The cleared maps, each map's rank, the weights and n, checked: one
    exponent per map, and dim, when given, the width of every row."""
    maps = [[_cleared(row) for row in m] for m in maps]
    exps = [parse_exponent(v) for v in p]
    if len(maps) != len(exps):
        raise ShapeMismatch("one exponent per map")
    widths = {len(row) for m in maps for row in m}
    if len(widths) > 1:
        raise ShapeMismatch("maps must share their domain dimension")
    n = dim if dim is not None else (widths.pop() if widths else 0)
    if widths - {n}:
        raise ShapeMismatch(f"maps act on Q^{widths.pop()}, not on Q^{n}")
    # 1/p_j = den/num in lowest terms, so scale is the lcm of the numerators
    scale = lcm(*(q.numerator for q in exps if q is not None))
    weights = [0 if q is None else q.denominator * (scale // q.numerator) for q in exps]
    return _Prepared(maps, list(map(rational_rank, maps)), weights, scale, n)


def _deficit(space, maps, weights, scale) -> int:
    """(dim W - sum_j dim(A_j W)/p_j) * scale for W named by integer rows,
    with the integer weights scale/p_j."""
    if not space:
        return 0
    return len(space) * scale - sum(w * _rank(matmul(space, transpose(a_j)))
                                    for a_j, w in zip(maps, weights) if w)


def _witness_sort_key(space):
    return (len(space), tuple(tuple(c) for c in space))


def _least(spaces, n):
    """The least of the spaces by _witness_sort_key, as its saturated basis;
    only those of least dimension are saturated."""
    low = min(map(len, spaces))
    return min((_canon(s, n) for s in spaces if len(s) == low), key=_witness_sort_key)


def rank_condition(maps: Sequence[Sequence[Sequence]], p: Sequence,
                   dim: Optional[int] = None, *, torus: bool = False) -> RankVerdict:
    """Decide dim W <= sum_j dim(A_j W)/p_j for all subspaces W of Q^n; with
    torus, decide that no W has a larger deficit than Q^n.

    The deficit of W is dim W - sum_j dim(A_j W)/p_j.  A subspace violates
    when its deficit is above the level: 0, or with torus the deficit
    n - sum_j rank(A_j)/p_j of Q^n itself, the torus condition (Bennett,
    Carbery, Christ, Tao, Math. Res. Lett. 2010).  There the zero subspace
    violates when the level is negative: functions concentrated at a point.

    Routes, in order; each returns as soon as it decides:

    (i) Every map of rational rank <= 1: each map j keeps one row a_j (a
        zero map has none, and lies in every flat), and the closed index
        sets F of the row matroid (at most sum_{k<=n} C(J, k) of them) are
        checked exactly.  For rank-one maps, dim(A_j W) only records
        whether W lies in ker A_j, so enlarging W to the intersection of
        the kernels containing it never lowers its deficit; these
        intersections are the flats ker(a_j, j in F), of dimension
        n - r(F), and their deficits (n - r(F)) - sum_{j not in F} 1/p_j
        decide the condition (Barthe's criterion).  A subspace basis is
        built only for the witness (among the violating F of largest rank)
        and for ``critical`` (among the tight proper nonzero F of largest
        rank), as the Hermite basis of the integer kernel of F's rows.  The
        map ranks come from ``rational_rank``, which gives a map of one row
        rank 1 exactly when its row is nonzero, with no elimination.
        HOLDS_CERTIFIED or FAILS.
    (ii) The sum/intersection closure of {0, Q^n, ker A_j} up to depth 6
        (_CLOSURE_DEPTH rounds); each round joins and meets every new
        subspace with every other one, each unordered pair once.  Each
        subspace is named by integer echelon rows, each the primitive
        multiple of its reduced row echelon row; a join re-echelons the two
        stacked names, and a meet is the integer kernel of the two stacked
        annihilators unless dim S + dim T - dim(S + T) already names it (0,
        S or T).  The closure stops, not terminated, at the first pair that
        takes it past 2000 subspaces, so it holds at most 2002.  A violation
        is an exact FAILS.  If the closure terminated and n <= 3, J <= 3 or
        the kernels form a chain, the kernel lattice is complete and
        suffices (Valdimarsson 2010): HOLDS_CERTIFIED.  With torus and
        sum_j 1/p_j <= 1 the condition holds by Hölder: HOLDS_CERTIFIED.
        Otherwise LIKELY_HOLDS: the closure found no violation, but no
        completeness theorem covers it.

    Both routes hold at the level.  Route (i) compares every flat with it,
    and enlarging W to its flat never lowers the deficit, whatever the
    level.  For route (ii) put U = W^perp and let K_j be a basis of
    ker A_j, so rank(A_j) - dim(A_j W) = dim U - dim(K_j^T U).  With
    r_j = 1/p_j and R = sum_j r_j, the level form reads
    (R - 1) dim U <= sum_j r_j dim(K_j^T U): a level-0 rank condition at
    the exponents (R - 1)/r_j.  When R <= 1 it holds outright: the left
    side is at most 0, and on T^n this is Hölder's inequality.
    W -> W^perp carries this closure onto that condition's closure (it
    swaps sums and meets, and the kernel of K_j^T is (ker A_j)^perp), so
    n, J, the chain test and termination are the same, and so is the
    completeness rule.

    Each map's rank is computed once: it picks the route, gives the level
    and ``homogeneous``.  dim, when given, must be the width of every row;
    ShapeMismatch otherwise.  The evidence records the route's counters,
    with the largest deficit seen as ``max_deficit`` and, when it is not 0,
    the ``level``.  Unless the verdict FAILS, ``critical`` holds the least
    proper nonzero subspace the route found with deficit exactly at the
    level, where the vector-sector constant splits.
    """
    return _decide(_prepare(maps, p, dim), torus=torus)


def _decide(prep: _Prepared, *, torus: bool = False, split: bool = True) -> RankVerdict:
    """rank_condition on prepared maps; without split, ``critical`` is left
    None and no tight subspace is saturated."""
    maps, ranks, weights, scale, n = prep
    if n == 0:
        return RankVerdict(HOLDS_CERTIFIED, None,
                           {"reason": "zero-dimensional domain has no nonzero subspaces"})

    whole = n * scale - sum(w * k for w, k in zip(weights, ranks))
    level = whole if torus else 0
    homogeneous = whole == 0
    if max(ranks, default=0) <= 1:
        return _rank_one_condition(maps, weights, scale, n, level, homogeneous, split)

    kernels = [_cut(m, n) for m in maps]
    closure = list(dict.fromkeys([(), _full_space(n)] + kernels))
    covectors = {s: _annihilator(s, n) for s in closure}  # also the seen set
    terminated = True
    rounds = 0
    frontier = list(closure)
    for rounds in range(1, _CLOSURE_DEPTH + 1):
        # each unordered pair once: a later frontier member meets the earlier
        # ones, and the subspaces from before this frontier, in closure order
        old = len(closure) - len(frontier)
        fresh: List[tuple] = []
        pairs = ((s, t) for i, s in enumerate(frontier)
                 for t in closure[:old] + frontier[i + 1:])
        for s, t in pairs:
            join = _rref(s + t)
            # dim(S meet T) = dim S + dim T - dim(S + T) names the meet
            # outright when it is 0, S or T
            low = len(s) + len(t) - len(join)
            meet = (() if not low else s if low == len(s) else t if low == len(t)
                    else _cut(covectors[s] + covectors[t], n))
            for cand in (join, meet):
                if cand not in covectors:
                    covectors[cand] = _annihilator(cand, n)
                    fresh.append(cand)
            if len(closure) + len(fresh) > _CLOSURE_CAP:
                break
        if not fresh:
            break
        closure.extend(fresh)
        frontier = fresh
        if len(closure) > _CLOSURE_CAP:
            terminated = False
            break
    else:
        terminated = False  # depth exhausted while new subspaces kept appearing

    deficits = [(s, _deficit(s, maps, weights, scale)) for s in closure]
    evidence: Dict[str, object] = {
        "closure_size": len(closure),
        "closure_terminated": terminated,
        "closure_rounds": rounds,
        "max_deficit": Fraction(max(d for _, d in deficits), scale),
    }
    if level:
        evidence["level"] = Fraction(level, scale)
    violations = [s for s, d in deficits if d > level]
    if violations:
        return RankVerdict(FAILS, _least(violations, n), evidence,
                           homogeneous=homogeneous)
    tight = [s for s, d in deficits if split and d == level and 0 < len(s) < n]
    critical = _least(tight, n) if tight else None

    chain = _kernels_chain(kernels)
    if terminated and (n <= 3 or len(maps) <= 3 or chain):
        evidence["certificate"] = (
            f"closure of kernel lattice complete (n={n}, J={len(maps)}, chain={chain})")
        return RankVerdict(HOLDS_CERTIFIED, None, evidence, critical, homogeneous)
    if torus and sum(weights) <= scale:
        evidence["certificate"] = "Hölder: sum_j 1/p_j <= 1"
        return RankVerdict(HOLDS_CERTIFIED, None, evidence, critical, homogeneous)

    evidence["note"] = "no violation found; completeness criterion not met"
    return RankVerdict(LIKELY_HOLDS, None, evidence, critical, homogeneous)


def _closed_sets(rows):
    """Every closed index set F of the matroid of rows (None for a loop), as
    (bitmask of F, r(F)), rank by rank from the closure of the empty set.

    Each F keeps the rows outside it reduced, fraction-free, against an
    echelon basis of its rows; adding one row as a new pivot reduces the
    rest once, and those that vanish join the closure.  The covers of F
    partition the indices outside it, so each is built once from F."""
    start = sum(1 << j for j, row in enumerate(rows) if row is None)
    out = [(start, 0)]
    seen = {start}
    level = [(start, {j: row for j, row in enumerate(rows) if row is not None})]
    rank = 0
    while level:
        rank += 1
        nxt = []
        for mask, residues in level:
            covered = mask
            for j, v in residues.items():
                if covered >> j & 1:
                    continue
                c = next(i for i, x in enumerate(v) if x)
                vc = v[c]
                cover = mask | 1 << j
                rest = {}
                for k, w in residues.items():
                    if k == j:
                        continue
                    wc = w[c]
                    if wc:
                        w = [vc * x - wc * y for x, y in zip(w, v)]
                        g = gcd(*w)
                        if not g:
                            cover |= 1 << k
                            continue
                        if g != 1:
                            w = [x // g for x in w]
                    rest[k] = w
                covered |= cover
                if cover not in seen:
                    seen.add(cover)
                    out.append((cover, rank))
                    nxt.append((cover, rest))
        level = nxt
    return out


def _rank_one_condition(maps, weights, scale, n, level, homogeneous, split) -> RankVerdict:
    """Exact decision for maps of rational rank <= 1 over the closed index
    sets of their rows, deficits scaled by scale against the scaled level;
    subspaces only for the witness and, with split, the critical one."""
    rows = [next((row for row in m if any(row)), None) for m in maps]
    outside = sum(weights)
    flats = []  # (F, r(F), deficit * scale): integer sums over the weights
    for mask, r in _closed_sets(rows):
        spent = outside - sum(w for j, w in enumerate(weights) if mask >> j & 1)
        flats.append((mask, r, (n - r) * scale - spent))

    evidence: Dict[str, object] = {
        "flats": len(flats),
        "max_deficit": Fraction(max(d for _, _, d in flats), scale),
    }
    if level:
        evidence["level"] = Fraction(level, scale)
    violations = [(mask, r) for mask, r, d in flats if d > level]
    if violations:
        return RankVerdict(FAILS, _least_flat(rows, violations, n), evidence,
                           homogeneous=homogeneous)
    evidence["certificate"] = (
        f"rank-one maps: Barthe's criterion checked exactly on all "
        f"{len(flats)} flats of the kernels")
    tight = [(mask, r) for mask, r, d in flats if split and d == level and 0 < r < n]
    critical = _least_flat(rows, tight, n) if tight else None
    return RankVerdict(HOLDS_CERTIFIED, None, evidence, critical, homogeneous)


def _least_flat(rows, cands, n):
    """The least by _witness_sort_key of the flats ker(rows of F) of the
    candidates (F, r(F)) of largest rank, each as its saturated basis: the
    Hermite basis of the integer kernel of F's rows (Q^n for no rows)."""
    top = max(r for _, r in cands)
    flats = ([row for j, row in enumerate(rows) if mask >> j & 1 and row is not None]
             for mask, r in cands if r == top)
    return min((tuple(map(tuple, hermite_basis(integer_kernel(f), n))) if f
                else _full_space(n) for f in flats), key=_witness_sort_key)


def _kernels_chain(kernels) -> bool:
    by_dim = sorted(kernels, key=len)
    return all(_rank(big + small) == len(big) for small, big in zip(by_dim, by_dim[1:]))

