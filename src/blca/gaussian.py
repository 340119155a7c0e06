"""Gaussian constant for the vector sector, plus the exact finiteness test.

On R^a the supremum in the inequality is attained on centred gaussians, so
the constant is a finite-dimensional optimization over positive-definite
matrices M_j:

    obj(M) = prod_j det(M_j)^{1/2 p_j} / det(sum_j s_j^T M_j s_j / p_j)^{1/2}

maximized by cyclic block-coordinate ascent.  Write
Q = sum_j s_j^T M_j s_j / p_j and Q_{-j} for the same sum without map j.
With the other covariances held fixed, obj has a unique maximum in the block
M_j,

    M_j = ((1 - 1/p_j) s_j Q_{-j}^{-1} s_j^T)^{-1},

which is p_j/(p_j - 1) times the identity in coordinates where
s_j Q_{-j}^{-1} s_j^T is the identity, and each update moves M_j straight to
it.  An update that maximizes its block cannot lower obj; that monotone
ascent is the invariant the tests lean on.  A block has no maximum when
p_j <= 1, or when Q_{-j} is singular along s_j (a direction only s_j sees, as
on the axes datum): obj is then unbounded in the block, and the update falls
back to the stationarity step M_j <- (s_j Q^{-1} s_j^T)^{-1}, which walks
toward the supremum without lowering obj.  Divergence of the ascent is
reported numerically (DIVERGED) but never used as a certificate; certified
infiniteness comes from the exact rational checks in bcct_finiteness.

One sweep updates every M_j in order, then evaluates the objective once.  An
update neither inverts Q nor forms Q_{-j}: it reads the block maximum off
Q^{-1} and corrects Q^{-1} for the change in M_j, by Sherman-Morrison when s_j
is one row (M_j is then a number and nothing is factored) and otherwise by
Woodbury, with one small solve and two small symmetric eigenvalue problems
that give (s_j Q^{-1} s_j^T)^{-1} and decide the fallback.  At the end of the
sweep Q is assembled once and factored by one symmetric eigendecomposition,
which gives log det Q, the condition number lambda_max/lambda_min that the
divergence check reads, and a fresh Q^{-1} for the next sweep.  The
corrections therefore never carry rounding from one sweep into the next.

One ascent from the identity suffices: log obj is jointly geodesically
concave on the positive-definite matrices, so every fixed point of the ascent
is the global maximum (Sra, Vishnoi, Yildiz, arXiv:1804.04051).  On a datum
with a critical subspace V, dim V = sum_j dim(B_j V)/p_j, the ascent only
creeps toward a maximum it cannot attain.  There the constant factors as
BL(B|_V) * BL(B_{R^n/V}) (Bennett, Carbery, Christ, Tao, GAFA 2008,
arXiv:math/0505065, Lemma 4.6), so gaussian_bl_constant changes bases
exactly, splits the datum into its two diagonal pieces, and splits each
piece again until none has a critical subspace; then each simple piece gets
one ascent.

The ascent works in floats; objectives are tracked in log scale so that
near-divergent instances do not overflow before the threshold check fires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from .errors import SingularDenominator
from .homs import Datum
from .intmat import (clear_denominators, columns, det_rational, from_columns, hstack,
                     identity, matmul, primitive_rref, rational_rref)
from .rank import RankVerdict, rank_condition

# numpy is imported inside the functions that use it, so that importing
# blca, and running its exact sectors, does not load it.
if TYPE_CHECKING:
    import numpy as np

CONVERGED = "CONVERGED"
DIVERGED = "DIVERGED"
BUDGET = "BUDGET"

OBJECTIVE_CEILING = 1e8
CONDITION_CEILING = 1e12
ASCENT_TOLERANCE = 1e-10   # a sweep that moves log obj less has converged
ASCENT_BUDGET = 100000     # sweeps per ascent; an ascent that uses them all is BUDGET

_SINGULAR_UPDATE = "singular matrix inside the coordinate update"


def _float_blocks(maps, n: int) -> List[np.ndarray]:
    """The rational maps of Q^n as float arrays, one (rows, n) array each."""
    import numpy as np
    return [np.array([[float(x) for x in row] for row in m], dtype=float).reshape(len(m), n)
            for m in maps]


def _log_objective(sigmas: Sequence[np.ndarray], recips: Sequence[float],
                   mats: Sequence[np.ndarray], a: int) -> Tuple[float, float, np.ndarray]:
    """(log objective, condition number of Q, Q^-1) at mats, where
    Q = sum_j r_j s_j^T M_j s_j is the denominator matrix; the last two come
    from one eigendecomposition of Q."""
    import numpy as np
    # Q = S^T D S, with the maps' rows stacked in S and the blocks r_j M_j
    # on the diagonal of D
    terms = [(s, r, m) for s, r, m in zip(sigmas, recips, mats) if r and m.size]
    rows = np.concatenate([s for s, _, _ in terms] or [np.zeros((0, a))])
    d = np.zeros((len(rows), len(rows)))
    num, at = 0.0, 0
    for s, r, m in terms:
        k = m.shape[0]
        if k == 1:
            x = float(m[0, 0])
            if not x > 0:
                raise SingularDenominator("covariance matrix not positive definite")
            num += 0.5 * r * math.log(x)
            d[at, at] = r * x
        else:
            sign, ld = np.linalg.slogdet(m)
            if sign <= 0:
                raise SingularDenominator("covariance matrix not positive definite")
            num += 0.5 * r * ld
            d[at:at + k, at:at + k] = r * m
        at += k
    q = rows.T @ d @ rows
    if a == 0:
        return num, 1.0, q
    try:
        lam, vec = np.linalg.eigh(q)
    except np.linalg.LinAlgError:
        raise SingularDenominator("denominator matrix is singular") from None
    if not lam[0] > 0:
        raise SingularDenominator("denominator matrix is singular")
    ld = math.fsum(map(math.log, lam.tolist()))
    return num - 0.5 * ld, float(lam[-1] / lam[0]), (vec / lam) @ vec.T


@dataclass(frozen=True)
class GaussianResult:
    """value includes the datum's Haar scales; sweeps are summed over the
    pieces."""

    value: float
    status: str
    sweeps: int
    diagnosis: str = ""
    pieces: int = 1

    def __repr__(self):
        return f"GaussianResult({self.status}, value={self.value:.12g}, sweeps={self.sweeps})"


def _block_step(qinv, s, r: float, m) -> bool:
    """Move M_j = m, the covariance of the map s at r = 1/p_j, to the maximum
    of obj in its block, or, where the block has none, take the stationarity
    step.  m and qinv change in place, qinv to the inverse of the new Q;
    returns False, changing neither, when the update is singular.

    With middle = s Q^-1 s^T, P^-1 = (s Q_{-j}^-1 s^T)^-1 is middle^-1 - r M_j,
    so the block maximum N = P^-1 / (1 - r) is read off Q^-1 without forming
    Q_{-j}.  That difference carries rounding on the scale of middle^-1, so
    P^-1 counts as positive definite only when its smallest eigenvalue is
    above 1/CONDITION_CEILING of the largest eigenvalue of middle^-1.  When it
    is not, or when r >= 1, the block has no maximum and N = middle^-1.  Q then
    changes by s^T D s with D = r (N - M_j), so by Woodbury Q^-1 changes by
    -w D (I + middle D)^-1 w^T, w = Q^-1 s^T; I + middle D is invertible while
    the new Q is.
    """
    import numpy as np
    if m.shape[0] == 1:
        # one row: middle is a number mu, and nothing is factored
        v = s[0]
        w = qinv @ v
        mu = float(v @ w)
        if not mu > 0:
            return False
        x = float(m[0, 0])
        new_x = 1.0 / mu
        if r < 1.0 and new_x - r * x > new_x / CONDITION_CEILING:
            new_x = (new_x - r * x) / (1.0 - r)
        dx = r * (new_x - x)
        qinv -= np.multiply.outer(dx / (1.0 + mu * dx) * w, w)
        m[0, 0] = new_x
        return True
    w = qinv @ s.T
    middle = s @ w
    lam, vec = np.linalg.eigh(middle)
    if not lam[0] > 0:
        return False
    new_m = (vec / lam) @ vec.T
    new_m = 0.5 * (new_m + new_m.T)
    if r < 1.0:
        inv_p = new_m - r * m
        if np.linalg.eigvalsh(inv_p)[0] * lam[0] * CONDITION_CEILING > 1.0:
            new_m = inv_p / (1.0 - r)
    delta = r * (new_m - m)
    try:
        qinv -= w @ np.linalg.solve(np.eye(len(m)) + delta @ middle, delta) @ w.T
    except np.linalg.LinAlgError:
        return False
    m[...] = new_m
    return True


def _ascend(sigmas, recips, a, init_mats, budget):
    """Cyclic block-coordinate ascent from init_mats, at most budget sweeps."""
    mats = [m.copy() for m in init_mats]
    try:
        log_obj, _, qinv = _log_objective(sigmas, recips, mats, a)
    except SingularDenominator as exc:
        return GaussianResult(math.inf, DIVERGED, 0, str(exc))
    log_ceiling = math.log(OBJECTIVE_CEILING)
    active = [(s, r, m) for s, r, m in zip(sigmas, recips, mats) if r and s.shape[0]]
    for sweep in range(1, budget + 1):
        for s, r, m in active:
            if not _block_step(qinv, s, r, m):
                return GaussianResult(math.inf, DIVERGED, sweep, _SINGULAR_UPDATE)
        try:
            new_log_obj, cond, qinv = _log_objective(sigmas, recips, mats, a)
        except SingularDenominator as exc:
            return GaussianResult(math.inf, DIVERGED, sweep, str(exc))
        if new_log_obj > log_ceiling:
            return GaussianResult(math.inf, DIVERGED, sweep,
                                  f"objective passed {OBJECTIVE_CEILING:g}")
        if cond > CONDITION_CEILING:
            return GaussianResult(math.inf, DIVERGED, sweep,
                                  f"denominator condition passed {CONDITION_CEILING:g}")
        drift = abs(new_log_obj - log_obj)
        log_obj = new_log_obj
        if drift < ASCENT_TOLERANCE:
            return GaussianResult(math.exp(log_obj), CONVERGED, sweep)
    return GaussianResult(math.exp(log_obj) if log_obj < 700 else math.inf,
                          BUDGET, budget, "iteration budget exhausted")


def _completion(cols, n: int):
    """(T, r): an invertible n x n matrix whose first r columns are a basis of
    the span of cols, picked from cols in order, and whose other columns are
    unit vectors."""
    _, pivots = primitive_rref([clear_denominators(row)
                                for row in hstack(from_columns(cols, n), identity(n))])
    k = len(cols)
    units = identity(n)
    chosen = [list(cols[i]) if i < k else units[i - k] for i in pivots]
    return from_columns(chosen, n), sum(i < k for i in pivots)


def _split(maps, recips, critical, n: int):
    """Change bases so that every map is block upper-triangular along the
    critical subspace V.

    x = U y with U = [basis of V | unit vectors], and target j gets
    T_j = [basis of B_j V | unit vectors], so T_j^-1 B_j U has the diagonal
    blocks V -> B_j V and R^n/V -> R^m_j/B_j V.  Returns the jacobian
    |det U| prod_j |det T_j|^(-1/p_j) and the two lists of diagonal blocks.
    """
    k = len(critical)
    u, _ = _completion(critical, n)
    jacobian = abs(float(det_rational(u)))
    inner, outer = [], []
    for b, r in zip(maps, recips):
        if not b:
            inner.append([])
            outer.append([])
            continue
        bu = matmul(b, u)
        t, rj = _completion(columns(bu)[:k], len(b))
        if r:
            jacobian *= abs(float(det_rational(t))) ** -float(r)
        solved, _ = rational_rref(hstack(t, bu))
        blocks = [row[len(b):] for row in solved]
        inner.append([row[:k] for row in blocks[:rj]])
        outer.append([row[k:] for row in blocks[rj:]])
    return jacobian, inner, outer


def _piece_constant(maps, exponents, n: int, critical) -> GaussianResult:
    """Lebesgue-normalized gaussian constant of rational maps on Q^n: one
    ascent from the identity, or, given a critical subspace, the product of
    the constants of its two diagonal pieces, each split again at a critical
    subspace rank_condition finds in it (a piece of dimension <= 1 has no
    proper nonzero subspace, so it is not searched)."""
    recips = [Fraction(0) if p is None else 1 / Fraction(p) for p in exponents]
    if critical is None:
        import numpy as np
        sigmas = _float_blocks(maps, n)
        init = [np.eye(s.shape[0]) for s in sigmas]
        return _ascend(sigmas, [float(r) for r in recips], n, init, ASCENT_BUDGET)
    jacobian, inner, outer = _split(maps, recips, critical, n)
    parts = []
    for piece, dim in ((inner, len(critical)), (outer, n - len(critical))):
        found = rank_condition(piece, exponents, dim=dim).critical if dim > 1 else None
        parts.append(_piece_constant(piece, exponents, dim, found))
    sweeps = sum(r.sweeps for r in parts)
    pieces = sum(r.pieces for r in parts)
    diagnosis = "; ".join(r.diagnosis for r in parts if r.diagnosis)
    if any(r.status == DIVERGED for r in parts):
        return GaussianResult(math.inf, DIVERGED, sweeps, diagnosis, pieces)
    status = CONVERGED if all(r.status == CONVERGED for r in parts) else BUDGET
    return GaussianResult(jacobian * parts[0].value * parts[1].value, status, sweeps,
                          diagnosis, pieces)


def gaussian_bl_constant(d: Datum, verdict: Optional[RankVerdict] = None) -> GaussianResult:
    """The gaussian constant of a vector datum, one ascent per simple piece.

    verdict is the datum's rank verdict when the caller already has one;
    otherwise rank_condition runs here.  Its critical subspace, if any,
    splits the datum, and each piece is split again until none is left.
    Each remaining piece gets a single ascent from the identity, of at most
    ASCENT_BUDGET sweeps.  The reported value includes the datum's Haar
    scales (domain scale times prod_j target_scale^{-1/p_j}); status is
    CONVERGED only when every piece converged, and DIVERGED reports
    infinity.
    """
    maps = [h.RR for h in d.homs]
    a = d.domain.a
    if verdict is None:
        verdict = rank_condition(maps, d.exponents, dim=a)
    res = _piece_constant(maps, d.exponents, a, verdict.critical)
    return replace(res, value=res.value * float(d.haar_factor()))


def bcct_finiteness(d: Datum) -> RankVerdict:
    """Exact finiteness test for a vector datum: the rank verdict on its
    rational blocks, homogeneous when n = sum_j a_j / p_j over the targets'
    dimensions a_j (Bennett, Carbery, Christ, Tao).  The constant is finite
    exactly when the verdict is homogeneous and its condition holds; a FAILS
    verdict or a homogeneity mismatch certifies infiniteness, and finiteness
    is certified only under HOLDS_CERTIFIED.  On onto maps a_j is map j's
    rank; a map that is not onto, at 1/p_j > 0, breaks homogeneity or makes
    Q^n violate the condition."""
    verdict = rank_condition([h.RR for h in d.homs], d.exponents, dim=d.domain.a)
    s = math.lcm(*(p.numerator for p in d.exponents if p))  # clears every a_j / p_j
    homogeneous = d.domain.a * s == sum(h.codomain.a * p.denominator * s // p.numerator
                                        for h, p in zip(d.homs, d.exponents) if p)
    if homogeneous != verdict.homogeneous:
        verdict = replace(verdict, homogeneous=homogeneous)
    return verdict
