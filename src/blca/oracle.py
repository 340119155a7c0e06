"""Independent numerical estimators, used to cross-check the exact machinery.

Nothing here shares code with the modules it validates.  On finite groups the
multilinear form is a plain weighted sum and the constant is approached from
below by alternating maximization over the inputs; on vector groups with
one-dimensional targets the gaussian objective collapses to a closed form in
one positive scalar per map, maximized by grid search plus golden-section
refinement; tori are handled by discretizing to (Z/n)^b with the matching
probability measure and reusing the finite path.

Inputs are restricted to nonnegative functions.  The supremum defining the
constant is unchanged by that (replace f_j with |f_j|), and it keeps the
alternating step a clean power-of-the-marginal update.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, FrozenSet, List, Optional, Sequence, Tuple

from .errors import (BadExponent, BlcaError, DimensionTooLarge, ShapeMismatch,
                     TooLarge)
from .finite import DEFAULT_BOUND
from .groups import ElementaryGroup, HaarRecord
from .homs import BlockHom, Datum

# numpy is imported inside the functions that use it, so that importing
# blca, and running its exact sectors, does not load it.
if TYPE_CHECKING:
    import numpy as np

_SWEEP_CAP = 10_000
_REL_GAIN = 1e-12
_WARM_START_MAX_ORDER = 64
_PROBE_CEILING = 1e8
_RESTARTS = 20      # random starts of alternating_maximization
_PROBE_GRID = 13    # log-spaced points per map in scalar_gaussian_probe's grid


def _require_finite_datum(d: Datum, what: str) -> None:
    for g in (d.domain, *d.targets):
        if g.a or g.b or g.c:
            raise ShapeMismatch(f"{what} needs a finite datum, got {g.describe()}")


def _elements(g: ElementaryGroup) -> List[Tuple[int, ...]]:
    return list(itertools.product(*[range(t) for t in g.torsion]))


def _image_index_table(h: BlockHom) -> np.ndarray:
    """index of sigma(x) in the codomain's element order, for each x."""
    import numpy as np
    src = _elements(h.domain)
    dst_pos = {el: i for i, el in enumerate(_elements(h.codomain))}
    tors = h.codomain.torsion
    out = np.empty(len(src), dtype=np.intp)
    for i, u in enumerate(src):
        img = tuple(sum(h.FF[r][s] * u[s] for s in range(len(u))) % tors[r]
                    for r in range(len(tors)))
        out[i] = dst_pos[img]
    return out


@dataclass(frozen=True)
class FunctionTuple:
    """Nonnegative input functions on the targets, with cached L^p norms."""

    values: Tuple[np.ndarray, ...]
    norms: Tuple[float, ...]

    @classmethod
    def build(cls, d: Datum, arrays: Sequence[Sequence[float]]) -> "FunctionTuple":
        import numpy as np
        _require_finite_datum(d, "FunctionTuple")
        if len(arrays) != d.J:
            raise ShapeMismatch(f"expected {d.J} functions, got {len(arrays)}")
        values, norms = [], []
        for h, p, arr in zip(d.homs, d.exponents, arrays):
            f = np.asarray(arr, dtype=float)
            if f.shape != (h.codomain.finite_order,):
                raise ShapeMismatch(
                    f"function length {f.shape} does not match |{h.codomain.describe()}|")
            if np.any(f < 0):
                raise BlcaError("oracle inputs must be nonnegative")
            mass = float(h.codomain.haar.f_point)
            if p is None:
                n = float(f.max(initial=0.0))
            else:
                n = float((f ** float(p)).sum() * mass) ** (1.0 / float(p))
            if n <= 0:
                raise BlcaError("oracle inputs must have positive norm")
            values.append(f)
            norms.append(n)
        return cls(tuple(values), tuple(norms))


def bl_form(d: Datum, fs: FunctionTuple) -> float:
    """The multilinear form: m_G * sum_x prod_j f_j(sigma_j x)."""
    import numpy as np
    _require_finite_datum(d, "bl_form")
    if len(fs.values) != d.J:
        raise ShapeMismatch("function tuple length does not match the datum")
    tables = [_image_index_table(h) for h in d.homs]
    prod = np.ones(d.domain.finite_order)
    for f, idx in zip(fs.values, tables):
        prod *= f[idx]
    return float(prod.sum()) * float(d.domain.haar.f_point)


def _small_subgroups(g: ElementaryGroup) -> List[FrozenSet[Tuple[int, ...]]]:
    """Every subgroup of order at most _WARM_START_MAX_ORDER, as an element set.

    A nonzero subgroup T has a subgroup S of prime index p, and then
    T = S + <x> for any x in T outside S, with p x in S.  So the search
    starts from the zero subgroup and adds, to each subgroup found, the
    multiples of one element from each coset whose order modulo it is prime.
    """
    tors = g.torsion

    def add(u, v):
        return tuple((a + b) % t for a, b, t in zip(u, v, tors))

    elements = _elements(g)
    found = {frozenset([tuple(0 for _ in tors)])}
    frontier = list(found)
    while frontier:
        fresh = []
        for s in frontier:
            covered = set(s)
            for x in elements:
                if x in covered:
                    continue
                shifted = {add(a, x) for a in s}
                covered |= shifted
                joined, k = set(s), 1
                while not shifted <= joined and (k + 1) * len(s) <= _WARM_START_MAX_ORDER:
                    joined |= shifted
                    shifted = {add(a, x) for a in shifted}
                    k += 1
                if shifted <= joined and all(k % q for q in range(2, k)):
                    t = frozenset(joined)
                    if t not in found:
                        found.add(t)
                        fresh.append(t)
        frontier = fresh
    return list(found)


def _warm_starts(d: Datum, tables: List[np.ndarray]) -> List[List[np.ndarray]]:
    """Indicator tuples 1_{sigma_j(H)} for every small subgroup H, or for the
    whole group alone when it is too large to search."""
    import numpy as np
    starts: List[List[np.ndarray]] = []
    elements = _elements(d.domain)
    if d.domain.finite_order > DEFAULT_BOUND:
        member_lists = [np.ones(len(elements), dtype=bool)]
    else:
        member_lists = [np.array([el in sub for el in elements], dtype=bool)
                        for sub in _small_subgroups(d.domain)]
    for members in member_lists:
        fs = []
        for h, idx in zip(d.homs, tables):
            f = np.zeros(h.codomain.finite_order)
            f[idx[members]] = 1.0
            fs.append(f)
        starts.append(fs)
    return starts


def alternating_maximization(d: Datum, seed: int = 0) -> float:
    """Best ratio form/norms found by cyclically optimizing one input, from
    the indicator tuple of every small subgroup and from 20 random starts
    drawn with seed.

    With the others fixed the form is linear in f_k, so the constrained
    optimum is an explicit power of the partial marginal: maximizing
    <f, g> under a weighted p-norm gives f proportional to (g/mass)^(p'-1).
    The ratio never decreases, and every limit is a genuine lower bound
    for the constant.
    """
    import numpy as np
    _require_finite_datum(d, "alternating_maximization")
    recips = []
    for p in d.exponents:
        if p is None or p <= 1:
            raise BadExponent("alternating maximization needs exponents in (1, oo)")
        recips.append(float(1 / p))
    tables = [_image_index_table(h) for h in d.homs]
    m_dom = float(d.domain.haar.f_point)
    masses = [float(h.codomain.haar.f_point) for h in d.homs]
    sizes = [h.codomain.finite_order for h in d.homs]
    ps = [float(p) for p in d.exponents]
    rng = np.random.default_rng(seed)

    def normalize(f: np.ndarray, p: float, mass: float) -> np.ndarray:
        n = ((f ** p).sum() * mass) ** (1.0 / p)
        return f / n if n > 0 else f

    def run(fs: List[np.ndarray]) -> float:
        fs = [normalize(np.maximum(f, 0.0), p, m)
              for f, p, m in zip(fs, ps, masses)]
        best = 0.0
        for _ in range(_SWEEP_CAP):
            for k in range(d.J):
                weight = np.full(d.domain.finite_order, m_dom)
                for j in range(d.J):
                    if j != k:
                        weight = weight * fs[j][tables[j]]
                marginal = np.bincount(tables[k], weights=weight,
                                       minlength=sizes[k])
                if marginal.max(initial=0.0) <= 0:
                    return best
                fs[k] = normalize((marginal / masses[k]) ** (1.0 / (ps[k] - 1.0)),
                                  ps[k], masses[k])
            prod = np.full(d.domain.finite_order, m_dom)
            for j in range(d.J):
                prod = prod * fs[j][tables[j]]
            value = float(prod.sum())
            if value <= best * (1.0 + _REL_GAIN):
                return max(best, value)
            best = value
        return best

    best = 0.0
    for fs in _warm_starts(d, tables):
        best = max(best, run(fs))
    for _ in range(_RESTARTS):
        fs = [rng.uniform(0.05, 1.0, size=s) for s in sizes]
        best = max(best, run(fs))
    return best


def _probe_objective(d: Datum, recips: List[float], rows: List[np.ndarray],
                     scale: float, logt: np.ndarray) -> float:
    import numpy as np
    a = d.domain.a
    q = np.zeros((a, a))
    num = 0.0
    for r, row, lt in zip(recips, rows, logt):
        t = math.exp(lt)
        num += 0.5 * r * lt
        q += r * t * np.outer(row, row)
    sign, logdet = np.linalg.slogdet(q) if a else (1.0, 0.0)
    if sign <= 0:
        return 0.0
    val = num - 0.5 * logdet
    if val > 700:
        return math.inf
    return math.exp(val) * scale


def scalar_gaussian_probe(d: Datum) -> float:
    """Direct maximization of the gaussian objective when every target is a
    line, one positive scalar per map.

    Log-spaced grid of 13 points per map over several decades, widened
    while the maximum sits on the boundary, then golden-section refinement
    coordinate by coordinate.
    When five widenings leave the maximum on the boundary, it returns the
    grid's best value, a gaussian lower bound, or inf if that value passes
    _PROBE_CEILING: so a divergent datum may read finite (R with x -> x at
    p = 101/100 reads 4.997).
    """
    import numpy as np
    for g in (d.domain, *d.targets):
        if g.b or g.c or g.k:
            raise ShapeMismatch("scalar probe expects a vector datum")
    for g in d.targets:
        if g.a > 1:
            raise DimensionTooLarge("scalar probe needs one-dimensional targets")
    recips, rows = [], []
    scale = float(d.domain.haar.scalar())
    for h, p in zip(d.homs, d.exponents):
        r = 0.0 if p is None else float(1 / p)
        scale *= float(h.codomain.haar.scalar()) ** (-r)
        if h.codomain.a == 0 or r == 0.0:
            continue
        recips.append(r)
        rows.append(np.array([float(x) for x in h.RR[0]]))
    if not rows:
        return scale
    m = len(rows)

    lo, hi = -4.0, 4.0
    best_logt: Optional[np.ndarray] = None
    best = 0.0
    for _ in range(5):
        axes = [np.linspace(lo, hi, _PROBE_GRID)] * m
        best = 0.0
        best_logt = None
        for combo in itertools.product(*axes):
            lt = np.array(combo)
            v = _probe_objective(d, recips, rows, scale, lt)
            if v > best:
                best, best_logt = v, lt
        if best == math.inf or best_logt is None:
            return math.inf
        on_edge = np.any(np.isclose(best_logt, lo)) or np.any(np.isclose(best_logt, hi))
        if not on_edge:
            break
        lo *= 3.0
        hi *= 3.0
    else:
        return math.inf if best > _PROBE_CEILING else best

    step = (hi - lo) / (_PROBE_GRID - 1)
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    logt = best_logt.copy()
    for _ in range(4):
        for i in range(m):
            a_, b_ = logt[i] - step, logt[i] + step
            c_ = b_ - phi * (b_ - a_)
            e_ = a_ + phi * (b_ - a_)
            while b_ - a_ > 1e-10:
                lt_c = logt.copy(); lt_c[i] = c_
                lt_e = logt.copy(); lt_e[i] = e_
                if _probe_objective(d, recips, rows, scale, lt_c) < \
                        _probe_objective(d, recips, rows, scale, lt_e):
                    a_, c_ = c_, e_
                    e_ = a_ + phi * (b_ - a_)
                else:
                    b_, e_ = e_, c_
                    c_ = b_ - phi * (b_ - a_)
            logt[i] = (a_ + b_) / 2.0
    return _probe_objective(d, recips, rows, scale, logt)


def discretized_compact_check(b: int, n: int, d: Datum) -> float:
    """Estimate a torus constant by sampling it on the n-division points.

    The torus T^b becomes (Z/n)^b carrying the same total mass spread evenly,
    each integer map descends coordinatewise, and the finite alternating
    maximization runs on the result with its 20 random starts from seed 0.
    The value is a lower bound for the torus constant only when every map
    stays onto mod n.  A map that does not, such as theta -> 2 theta for
    even n, has too small a discrete image, and the value can then exceed
    the torus constant (T with theta -> theta and theta -> 2 theta at
    p = (2, 2) has constant 1 and reads sqrt 2 at n = 4, 8 and 16).
    """
    if d.domain.b != b:
        raise ShapeMismatch(f"datum domain has {d.domain.b} torus dimensions, not {b}")
    for g in (d.domain, *d.targets):
        if g.a or g.c or g.k:
            raise ShapeMismatch("discretization expects a pure torus datum")
    if n < 2:
        raise ShapeMismatch("need at least two division points")
    if n ** b > 100_000:
        raise TooLarge(f"(Z/{n})^{b} has {n ** b} elements")

    def discretize(g: ElementaryGroup) -> ElementaryGroup:
        mass = g.haar.torus_total / (n ** g.b)
        return ElementaryGroup(torsion=(n,) * g.b,
                               haar=HaarRecord(f_point=mass))

    dom = discretize(d.domain)
    homs = []
    for h in d.homs:
        cod = discretize(h.codomain)
        ff = [[h.TT[r][i] % n for i in range(d.domain.b)]
              for r in range(h.codomain.b)]
        homs.append(BlockHom(dom, cod, FF=ff))
    return alternating_maximization(Datum(dom, homs, d.exponents))
