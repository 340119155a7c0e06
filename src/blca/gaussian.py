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
Q^{-1} and corrects Q^{-1} for the change in M_j by Sherman-Morrison, once
when s_j is one row (M_j is then a number and nothing is factored) and
otherwise once per eigenvector of the change, largest eigenvalue first.  The
small symmetric eigenvalue problems, which give (s_j Q^{-1} s_j^T)^{-1},
decide the fallback and split the change, are solved by cyclic Jacobi.  At
the end of the sweep Q is assembled once and factored by Cholesky, which
gives log det Q and a fresh Q^{-1} for the next sweep, so the corrections
never carry rounding from one sweep into the next.
The divergence check reads the condition number lambda_max/lambda_min of Q
through its upper bound tr(Q) tr(Q^{-1}); only when that bound passes half
of CONDITION_CEILING are Q's eigenvalues computed, by Jacobi, for the ratio
itself, so the check fires at the same sweep as on the exact ratio.

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

The ascent works in Python floats, on matrices held as lists of rows;
objectives are tracked in log scale so that near-divergent instances do not
overflow before the threshold check fires.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import getitem, mul
from typing import List, Optional, Sequence, Tuple

from .errors import SingularDenominator
from .homs import Datum
from .intmat import (clear_denominators, columns, det_rational, from_columns, hstack,
                     identity, matmul, primitive_rref, rational_rref)
from .rank import RankVerdict, rank_condition

# The ascent's matrices are lists of rows of Python floats.  They are a few
# rows across, where numpy's cost per call outweighs the arithmetic, so
# pricing a vector datum does not load numpy; only verify's oracles do.
Matrix = List[List[float]]

CONVERGED = "CONVERGED"
DIVERGED = "DIVERGED"
BUDGET = "BUDGET"

OBJECTIVE_CEILING = 1e8
CONDITION_CEILING = 1e12
ASCENT_TOLERANCE = 1e-10   # a sweep that moves log obj less has converged
ASCENT_BUDGET = 100000     # sweeps per ascent; an ascent that uses them all is BUDGET

_SINGULAR_UPDATE = "singular matrix inside the coordinate update"
_JACOBI_SWEEPS = 60        # cyclic Jacobi converges quadratically; this is a backstop
_EPS = sys.float_info.epsilon


def _float_blocks(maps) -> List[Matrix]:
    """The rational maps of Q^n as float matrices, one list of rows each."""
    return [[[float(x) for x in row] for row in m] for m in maps]


def _cholesky(q: Matrix) -> Optional[Matrix]:
    """The rows of the lower-triangular L with q = L L^T, row i cut after its
    diagonal entry, or None when q is not positive definite.  Reads only the
    lower triangle of q."""
    low: Matrix = []
    for qi in q:
        li: List[float] = []
        for lj in low:
            li.append((qi[len(li)] - sum(map(mul, li, lj))) / lj[-1])
        x = qi[len(li)] - sum(map(mul, li, li))
        if not x > 0:
            return None
        li.append(math.sqrt(x))
        low.append(li)
    return low


def _cholesky_inverse(low: Matrix) -> Matrix:
    """q^-1 = L^-T L^-1, exactly symmetric, from the Cholesky rows L of q."""
    cols: Matrix = []   # the columns of L^-1, grown by forward substitution
    for i, li in enumerate(low):
        for c in cols:
            c.append(-sum(map(mul, li, c)) / li[i])
        cols.append([0.0] * i + [1.0 / li[i]])
    return [[sum(map(mul, u, v)) for v in cols] for u in cols]


def _jacobi(a: Matrix) -> Tuple[List[float], Matrix]:
    """(eigenvalues, eigenvectors as columns) of the symmetric matrix a, by
    cyclic Jacobi rotations, each of which zeroes one off-diagonal entry,
    until every off-diagonal entry is below rounding against its two
    diagonal entries."""
    n = len(a)
    a = [row[:] for row in a]
    vec = [[float(i == j) for j in range(n)] for i in range(n)]
    for _ in range(_JACOBI_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if abs(apq) <= _EPS * math.sqrt(abs(a[p][p] * a[q][q])):
                    continue
                rotated = True
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for r in range(n):
                    if r != p and r != q:
                        x, y = a[r][p], a[r][q]
                        a[r][p] = a[p][r] = c * x - s * y
                        a[r][q] = a[q][r] = s * x + c * y
                a[p][p] -= t * apq
                a[q][q] += t * apq
                a[p][q] = a[q][p] = 0.0
                for row in vec:
                    row[p], row[q] = c * row[p] - s * row[q], s * row[p] + c * row[q]
        if not rotated:
            break
    return [a[i][i] for i in range(n)], vec


def _log_objective(sigmas: Sequence[Matrix], recips: Sequence[float],
                   mats: Sequence[Matrix], a: int) -> Tuple[float, float, Matrix]:
    """(log objective, condition bound of Q, Q^-1) at mats, where
    Q = sum_j r_j s_j^T M_j s_j is the denominator matrix; the last two come
    from one Cholesky factorization of Q.

    The condition bound is tr(Q) tr(Q^-1), which is at least
    lambda_max/lambda_min; once it passes CONDITION_CEILING/2, the ratio
    itself is computed from Q's eigenvalues."""
    # Q = sum over the maps' rows t of (D s)_t^T s_t, with the blocks r_j M_j
    # making up D
    num, rows, scaled = 0.0, [], []
    for s, r, m in zip(sigmas, recips, mats):
        if not (r and m):
            continue
        if len(m) == 1:
            x = m[0][0]
            if not x > 0:
                raise SingularDenominator("covariance matrix not positive definite")
            num += 0.5 * r * math.log(x)
            rx = r * x
            scaled.append([rx * y for y in s[0]])
        else:
            low = _cholesky(m)
            if low is None:
                raise SingularDenominator("covariance matrix not positive definite")
            # half the log det of M is the sum of the logs of L's diagonal
            num += r * sum(map(math.log, map(getitem, low, range(len(low)))))
            cols = list(zip(*s))
            scaled.extend([r * sum(map(mul, mi, c)) for c in cols] for mi in m)
        rows.extend(s)
    if a == 0:
        return num, 1.0, []
    cols = list(zip(*rows))
    q = [[sum(map(mul, u, v)) for v in cols] for u in zip(*scaled)]
    low = _cholesky(q)
    if low is None:
        raise SingularDenominator("denominator matrix is singular")
    qinv = _cholesky_inverse(low)
    cond = sum(map(getitem, q, range(a))) * sum(map(getitem, qinv, range(a)))
    if cond > CONDITION_CEILING / 2:
        # the lower triangle, which the factorization read, mirrored
        lam = _jacobi([[q[max(i, j)][min(i, j)] for j in range(a)] for i in range(a)])[0]
        cond = max(lam) / min(lam) if min(lam) > 0 else math.inf
    return num - sum(map(math.log, map(getitem, low, range(a)))), cond, qinv


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


def _symmetrized(a: Matrix) -> Matrix:
    return [[0.5 * (x + y) for x, y in zip(u, v)] for u, v in zip(a, zip(*a))]


def _rank_one_update(qinv: Matrix, w: List[float], mu: float, c: float) -> bool:
    """Correct qinv = Q^-1 in place to the inverse of Q + c u u^T, given
    w = Q^-1 u and mu = u^T w, by Sherman-Morrison:
    qinv -= c / (1 + c mu) w w^T.  Returns False, changing nothing, when
    1 + c mu <= 0, where Q + c u u^T is not positive definite."""
    den = 1.0 + c * mu
    if not den > 0:
        return False
    fw = [c / den * y for y in w]
    qinv[:] = [[q - f * y for q, y in zip(row, w)] for row, f in zip(qinv, fw)]
    return True


def _block_step(qinv: Matrix, s: Matrix, r: float, m: Matrix) -> bool:
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
    changes by s^T D s with D = r (N - M_j), the sum of d_i u_i u_i^T over
    D's eigenpairs (d_i, e_i) with u_i = s^T e_i, and Q^-1 takes one
    Sherman-Morrison step per eigenpair, largest d_i first: every
    intermediate Q then lies above the new one, so it is positive definite
    while the new Q is.  The steps run on a copy of Q^-1, so a refused step
    changes nothing.
    """
    if len(m) == 1:
        # one row: middle is a number mu, and nothing is factored
        v = s[0]
        w = [sum(map(mul, row, v)) for row in qinv]
        mu = sum(map(mul, v, w))
        if not mu > 0:
            return False
        x = m[0][0]
        new_x = 1.0 / mu
        if r < 1.0 and new_x - r * x > new_x / CONDITION_CEILING:
            new_x = (new_x - r * x) / (1.0 - r)
        if not _rank_one_update(qinv, w, mu, r * (new_x - x)):
            return False
        m[0][0] = new_x
        return True
    # the columns of w = Q^-1 s^T, as rows; Q^-1 is symmetric
    wt = [[sum(map(mul, row, v)) for row in qinv] for v in s]
    middle = _symmetrized([[sum(map(mul, u, v)) for v in wt] for u in s])
    lam, vec = _jacobi(middle)
    if not min(lam) > 0:
        return False
    new_m = _symmetrized([[sum(map(mul, [x / l for x, l in zip(u, lam)], v)) for v in vec]
                          for u in vec])
    if r < 1.0:
        inv_p = [[x - r * y for x, y in zip(u, v)] for u, v in zip(new_m, m)]
        if min(_jacobi(inv_p)[0]) * min(lam) * CONDITION_CEILING > 1.0:
            new_m = [[x / (1.0 - r) for x in u] for u in inv_p]
    d, e = _jacobi([[r * (x - y) for x, y in zip(u, v)] for u, v in zip(new_m, m)])
    cols = list(zip(*s))
    work = [row[:] for row in qinv]
    for di, ei in sorted(zip(d, zip(*e)), key=lambda pair: -pair[0]):
        u = [sum(map(mul, ei, c)) for c in cols]
        w = [sum(map(mul, row, u)) for row in work]
        if not _rank_one_update(work, w, sum(map(mul, u, w)), di):
            return False
    qinv[:] = work
    m[:] = new_m
    return True


def _ascend(sigmas, recips, a, init_mats, budget):
    """Cyclic block-coordinate ascent from init_mats, at most budget sweeps."""
    mats = [[row[:] for row in m] for m in init_mats]
    try:
        log_obj, _, qinv = _log_objective(sigmas, recips, mats, a)
    except SingularDenominator as exc:
        return GaussianResult(math.inf, DIVERGED, 0, str(exc))
    log_ceiling = math.log(OBJECTIVE_CEILING)
    active = [(s, r, m) for s, r, m in zip(sigmas, recips, mats) if r and s]
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
        sigmas = _float_blocks(maps)
        init = [[[float(i == j) for j in range(len(s))] for i in range(len(s))] for s in sigmas]
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
