"""Gaussian ascent for vector-sector data."""
import math
from fractions import Fraction

import blca.gaussian
from blca.gaussian import (BUDGET, CONVERGED, DIVERGED, bcct_finiteness,
                           gaussian_bl_constant)
from blca.groups import ElementaryGroup, HaarRecord
from blca.homs import BlockHom, Datum
from blca.rank import FAILS, HOLDS_CERTIFIED, RankVerdict
from blca.structure import INFINITE, bl_constant

F = Fraction

R1 = ElementaryGroup(a=1)
R2 = ElementaryGroup(a=2)


def young_datum():
    maps = [BlockHom(R2, R1, RR=[[1, 0]]),
            BlockHom(R2, R1, RR=[[0, 1]]),
            BlockHom(R2, R1, RR=[[1, 1]])]
    return Datum(R2, maps, [F(3, 2)] * 3)


def _eye(k):
    """The k x k identity as the ascent kernel takes it: a list of float rows."""
    return [[float(i == j) for j in range(k)] for i in range(k)]


def _arrays(sigmas, a):
    """The kernel's list matrices as the (rows, a) arrays _reference_ascent takes."""
    import numpy as np
    return [np.array(s, dtype=float).reshape(len(s), a) for s in sigmas]


def test_holder_line_converges_to_one():
    d = Datum(R1, [BlockHom(R1, R1, RR=[[1]])] * 3, [F(3)] * 3)
    res = gaussian_bl_constant(d)
    assert res.status == CONVERGED
    assert abs(res.value - 1.0) < 1e-8


def test_young_sharp_constant():
    res = gaussian_bl_constant(young_datum())
    assert res.status == CONVERGED
    assert abs(res.value - math.sqrt(3) / 2) < 1e-8
    v = bcct_finiteness(young_datum())
    assert v.status == HOLDS_CERTIFIED and v.homogeneous


def test_objective_at_identity():
    # the ascent's objective at its starting point: the covariance sum for
    # unit choices has determinant 12/9
    from blca.gaussian import _float_blocks, _log_objective
    d = young_datum()
    sigmas = _float_blocks([h.RR for h in d.homs])
    recips = [float(r) for r in d.reciprocal_exponents()]
    log_obj, _, _ = _log_objective(sigmas, recips, [_eye(1) for _ in range(3)], 2)
    assert abs(math.exp(log_obj) - 1 / math.sqrt(12 / 9)) < 1e-12


def test_axes_p2_diverges():
    axes = [BlockHom(R2, R1, RR=[[1, 0]]), BlockHom(R2, R1, RR=[[0, 1]])]
    d = Datum(R2, axes, [F(2), F(2)])
    res = gaussian_bl_constant(d)
    assert res.status == DIVERGED
    assert res.value == math.inf
    v = bcct_finiteness(d)
    assert v.status == FAILS and not v.homogeneous


def test_bcct_homogeneity_reads_the_target_dimensions():
    # x -> (x, 0) into R^2 is not onto, and the constant is infinite: f_0 = 1
    # on [0, 1] x [-eps, eps].  Homogeneity is n = sum_j a_j / p_j, as BCCT
    # state it, so at p = (2, 2) it fails (1 against 3/2) although the ranks
    # balance, and at p = (4, 2), where the dimensions balance, the whole
    # line has deficit 1 - 3/4 > 0 and the condition fails there
    d = Datum(R1, [BlockHom(R1, R2, RR=[[1], [0]]), BlockHom(R1, R1, RR=[[1]])], [2, 2])
    v = bcct_finiteness(d)
    assert not v.homogeneous
    assert bl_constant(d).kind == INFINITE
    v = bcct_finiteness(Datum(d.domain, d.homs, [4, 2]))
    assert v.homogeneous and v.status == FAILS and v.witness == ((1,),)
    # a map out of the trivial group into R^1 is not onto either
    R0 = ElementaryGroup()
    assert not bcct_finiteness(Datum(R0, [BlockHom(R0, R1)], [2])).homogeneous


def test_axes_p1_gives_one():
    axes = [BlockHom(R2, R1, RR=[[1, 0]]), BlockHom(R2, R1, RR=[[0, 1]])]
    d = Datum(R2, axes, [F(1), F(1)])
    res = gaussian_bl_constant(d)
    assert res.status == CONVERGED
    assert abs(res.value - 1.0) < 1e-8
    v = bcct_finiteness(d)
    assert v.status == HOLDS_CERTIFIED and v.homogeneous


def test_trivial_domain():
    R0 = ElementaryGroup()
    res = gaussian_bl_constant(Datum(R0, [BlockHom(R0, R0)], [F(2)]))
    assert res.status == CONVERGED and res.value == 1.0


def test_measure_scaling_covariance():
    Rs = ElementaryGroup(a=2, haar=HaarRecord(vector_scale=F(5)))
    Rt = ElementaryGroup(a=1, haar=HaarRecord(vector_scale=F(7)))
    maps = [BlockHom(Rs, Rt, RR=[[1, 0]]),
            BlockHom(Rs, Rt, RR=[[0, 1]]),
            BlockHom(Rs, Rt, RR=[[1, 1]])]
    res = gaussian_bl_constant(Datum(Rs, maps, [F(3, 2)] * 3))
    expected = (math.sqrt(3) / 2) * 5.0 * 7.0 ** (-2.0)
    assert abs(res.value - expected) < 1e-8


def test_infinite_exponent_drops_out():
    d = Datum(R1, [BlockHom(R1, R1, RR=[[1]]), BlockHom(R1, R1, RR=[[1]])],
              [F(1), None])
    res = gaussian_bl_constant(d)
    assert res.status == CONVERGED
    assert abs(res.value - 1.0) < 1e-8


def test_budget_status_exists(monkeypatch):
    # a starved budget must be reported honestly, not as convergence
    monkeypatch.setattr(blca.gaussian, "ASCENT_BUDGET", 2)
    res = gaussian_bl_constant(young_datum())
    assert res.status in (BUDGET, CONVERGED)
    assert res.sweeps <= 2 or res.status == CONVERGED


# -- one ascent per simple piece: the split at critical subspaces ------------

def _rank_one_datum(rows, p):
    n = len(rows[0])
    dom = ElementaryGroup(a=n)
    return Datum(dom, [BlockHom(dom, R1, RR=[row]) for row in rows], [p] * len(rows))


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _boundary_plane_rows(rnd):
    """Rows r1, r2, r3 in general position plus a multiple of r1: at p = 2
    the common kernel line of r1 and its multiple is critical."""
    while True:
        rows = [[rnd.randint(-3, 3) for _ in range(2)] for _ in range(3)]
        if all(r[0] * s[1] != r[1] * s[0] for i, r in enumerate(rows) for s in rows[i + 1:]):
            k = rnd.choice([-2, -1, 2])
            return rows + [[k * x for x in rows[0]]]


def test_split_rank_one_plane_matches_holder_closed_form():
    # R^2 = L + L^perp orthogonally, L the critical kernel line; each piece is
    # one-dimensional Holder, prod_j |b_j . unit|^(-1/p_j) over its maps
    import random
    rnd = random.Random(5)
    for _ in range(8):
        rows = _boundary_plane_rows(rnd)
        res = gaussian_bl_constant(_rank_one_datum(rows, F(2)))
        w = [rows[0][1], -rows[0][0]]
        u = rows[0]
        expected = 1.0
        for row in rows:
            unit = u if _dot(row, w) == 0 else w
            expected *= (abs(_dot(row, unit)) / math.sqrt(_dot(unit, unit))) ** -0.5
        assert res.status == CONVERGED and res.pieces == 2
        assert abs(res.value - expected) < 1e-9, rows
    worked = gaussian_bl_constant(_rank_one_datum([[-2, -3], [-2, 1], [1, 1], [2, 2]], F(2)))
    assert abs(worked.value - 1 / math.sqrt(6)) < 1e-9


def test_split_rank_one_space_matches_holder_closed_form():
    # rows s_j * (row i_j of G^-1), G unimodular, with weights 1/p summing
    # to 1 on each coordinate: the pullback of a product of one-dimensional
    # Holder data, whose constant is prod_j |s_j|^(-1/p_j)
    import random
    rnd = random.Random(11)
    for _ in range(6):
        g_inv = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        for _ in range(4):
            i, k = rnd.sample(range(3), 2)
            c = rnd.choice([-2, -1, 1, 2])
            g_inv[i] = [x + c * y for x, y in zip(g_inv[i], g_inv[k])]
        rows, p, expected = [], [], 1.0
        for i, count in enumerate(rnd.sample([2, 2, 3], 3)):
            for _ in range(count):
                s = rnd.choice([-3, -2, -1, 1, 2, 3])
                rows.append([s * x for x in g_inv[i]])
                p.append(F(count))
                expected *= abs(s) ** (-1.0 / count)
        dom = ElementaryGroup(a=3)
        d = Datum(dom, [BlockHom(dom, R1, RR=[row]) for row in rows], p)
        res = gaussian_bl_constant(d)
        assert res.status == CONVERGED and res.pieces == 3
        assert abs(res.value - expected) < 1e-9


def _loomis_whitney_type(lines):
    """Three maps Q^3 -> Q^2 at p = 2 killing the given kernel lines."""
    from blca.intmat import clear_denominators, rational_kernel
    R3 = ElementaryGroup(a=3)
    maps = [BlockHom(R3, R2, RR=[clear_denominators(v) for v in rational_kernel([line])])
            for line in lines]
    return Datum(R3, maps, [F(2)] * 3)


def test_split_mixed_rank_matches_single_ascent():
    # each kernel line is critical (1 = (0 + 1 + 1)/2); the split changes
    # bases in the targets, and must agree with one unsplit ascent
    import random
    from blca.intmat import det_rational
    rnd = random.Random(3)
    done = 0
    while done < 4:
        lines = [[rnd.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        if det_rational(lines) == 0:
            continue
        d = _loomis_whitney_type(lines)
        split = gaussian_bl_constant(d)
        single = gaussian_bl_constant(d, verdict=RankVerdict(HOLDS_CERTIFIED))
        assert split.pieces > 1 and single.pieces == 1
        assert split.status == single.status == CONVERGED
        assert abs(split.value - single.value) < 1e-9
        done += 1


def test_lines_are_not_searched_for_a_critical_subspace(monkeypatch):
    # R^3 splits at a kernel line into that line and a plane, and the plane
    # splits into two lines: only the datum and the plane have a proper
    # nonzero subspace to search
    dims = []
    search = blca.gaussian.rank_condition
    monkeypatch.setattr(blca.gaussian, "rank_condition",
                        lambda maps, p, dim: dims.append(dim) or search(maps, p, dim=dim))
    d = _loomis_whitney_type([[1, 0, 0], [0, 1, 0], [1, 1, 1]])
    split = gaussian_bl_constant(d)
    assert dims == [3, 2]
    single = gaussian_bl_constant(d, verdict=RankVerdict(HOLDS_CERTIFIED))
    assert split.status == CONVERGED and split.pieces == 3
    assert abs(split.value - single.value) < 1e-9


def test_capped_ascent_stays_below_the_split_value(monkeypatch):
    # on a critical datum the single ascent creeps up to the constant from
    # below; no budget may carry it past the split value
    d = _rank_one_datum([[-2, -3], [-2, 1], [1, 1], [2, 2]], F(2))
    split = gaussian_bl_constant(d).value
    for budget in (1, 10, 100, 1000):
        monkeypatch.setattr(blca.gaussian, "ASCENT_BUDGET", budget)
        capped = gaussian_bl_constant(d, verdict=RankVerdict(HOLDS_CERTIFIED))
        assert capped.status == BUDGET
        assert capped.value <= split + 1e-9
    assert split - capped.value < 1e-3


# -- the ascent kernel against the textbook loop -----------------------------

def _reference_ascent(sigmas, recips, a, budget, exact=True):
    """The coordinate ascent written out directly: per map, assemble the other
    maps' sum Q_{-j} from scratch and move M_j to the block maximum
    inv((1 - r_j) s_j inv(Q_{-j}) s_j^T); when r_j >= 1 or Q_{-j} is singular
    (the block has no maximum), or always when exact is False, take the
    fixed-point step inv(s_j inv(Q) s_j^T).  The objective from slogdet and
    the SVD condition number; a sweep that moves log obj by less than 1e-10
    has converged."""
    import numpy as np

    def objective(mats):
        q = np.zeros((a, a))
        num = 0.0
        for s, r, m in zip(sigmas, recips, mats):
            if r:
                q += r * (s.T @ m @ s)
                num += 0.5 * r * np.linalg.slogdet(m)[1]
        sign, ld = np.linalg.slogdet(q)
        assert sign > 0
        return num - 0.5 * ld, np.linalg.cond(q)

    mats = [np.eye(s.shape[0]) for s in sigmas]
    log_obj, _ = objective(mats)
    for sweep in range(1, budget + 1):
        for j, (s, r) in enumerate(zip(sigmas, recips)):
            if not r:
                continue
            rest = np.zeros((a, a))
            for k, (sk, rk, mk) in enumerate(zip(sigmas, recips, mats)):
                if rk and k != j:
                    rest += rk * (sk.T @ mk @ sk)
            if exact and r < 1 and np.linalg.matrix_rank(rest) == a:
                new_m = np.linalg.inv((1 - r) * (s @ np.linalg.inv(rest) @ s.T))
            else:
                q = rest + r * (s.T @ mats[j] @ s)
                new_m = np.linalg.inv(s @ np.linalg.inv(q) @ s.T)
            mats[j] = 0.5 * (new_m + new_m.T)
        new_log_obj, cond = objective(mats)
        if new_log_obj > math.log(1e8) or cond > 1e12:
            return DIVERGED, sweep, math.inf
        drift = abs(new_log_obj - log_obj)
        log_obj = new_log_obj
        if drift < 1e-10:
            return CONVERGED, sweep, math.exp(log_obj)
    return BUDGET, budget, math.exp(log_obj)


def _general_position_rows(rnd, n, count):
    import itertools
    from blca.intmat import det_rational
    while True:
        rows = [[rnd.randint(-3, 3) for _ in range(n)] for _ in range(count)]
        if all(det_rational([rows[i] for i in sub])
               for sub in itertools.combinations(range(count), n)):
            return rows


def _kernel_cases():
    """(name, datum, budget, expected status or None) on seeded data."""
    import random
    rnd = random.Random(2024)
    for n in (2, 3):
        for count in (3, 4, 5):
            for _ in range(3):
                rows = _general_position_rows(rnd, n, count)
                yield f"R{n}J{count}", _rank_one_datum(rows, F(count, n)), 100000, None
    from blca.intmat import det_rational
    lw = 0
    while lw < 3:
        lines = [[rnd.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        if det_rational(lines):
            yield "loomis-whitney", _loomis_whitney_type(lines), 100000, None
            lw += 1
    critical = _rank_one_datum([[-2, -3], [-2, 1], [1, 1], [2, 2]], F(2))
    for budget in (1, 10, 100):
        yield "critical", critical, budget, BUDGET
    axes = _rank_one_datum([[1, 0], [0, 1]], F(2))
    yield "axes", axes, 100000, DIVERGED
    # the two covariances shrink at different rates, so the denominator's
    # condition number passes its ceiling before the objective does
    yield "axes, unequal", Datum(R2, axes.homs, [F(3, 2), F(3)]), 100000, DIVERGED
    # two-row maps whose blocks have no maximum either: each candidate is
    # rounding in both eigenvalues, close to each other, so only the scale
    # of the fixed-point step tells it from a maximum
    R4 = ElementaryGroup(a=4)
    for rows, p in (([[[1, 2, 0, 0], [0, 1, 0, 0]], [[0, 0, 1, 3], [0, 0, 1, 1]]], [F(2)] * 2),
                    ([[[1, 0, 0, 0], [0, 1, 0, 0]], [[0, 0, 1, 0], [0, 0, 0, 1]]],
                     [F(3, 2), F(3)])):
        yield "block axes", Datum(R4, [BlockHom(R4, R2, RR=m) for m in rows], p), 100000, DIVERGED


def test_ascent_matches_the_textbook_loop():
    # the same status and sweep count on every datum, the same value to 1e-9
    from blca.gaussian import _ascend, _float_blocks
    for name, d, budget, expected in _kernel_cases():
        sigmas = _float_blocks([h.RR for h in d.homs])
        recips = [float(r) for r in d.reciprocal_exponents()]
        want = _reference_ascent(_arrays(sigmas, d.domain.a), recips, d.domain.a, budget)
        got = _ascend(sigmas, recips, d.domain.a, [_eye(len(s)) for s in sigmas], budget)
        assert (got.status, got.sweeps) == want[:2], name
        if expected is not None:
            assert got.status == expected, name
        if math.isinf(want[2]):
            assert math.isinf(got.value), name
        else:
            assert abs(got.value - want[2]) <= 1e-9 * want[2], name


def _float_datum(d):
    from blca.gaussian import _float_blocks
    sigmas = _float_blocks([h.RR for h in d.homs])
    return sigmas, [float(r) for r in d.reciprocal_exponents()]


def test_no_block_update_lowers_the_objective():
    # an exact step maximizes its block, and the fallback step is the
    # monotone fixed-point step
    from blca.gaussian import _block_step, _log_objective
    for name, d, budget, _ in _kernel_cases():
        a = d.domain.a
        sigmas, recips = _float_datum(d)
        mats = [_eye(len(s)) for s in sigmas]
        log_obj, _, qinv = _log_objective(sigmas, recips, mats, a)
        for _ in range(min(budget, 20)):
            for s, r, m in zip(sigmas, recips, mats):
                assert _block_step(qinv, s, r, m), name
                new_log_obj, _, _ = _log_objective(sigmas, recips, mats, a)
                assert new_log_obj >= log_obj + math.log1p(-1e-12), name
                log_obj = new_log_obj
            _, _, qinv = _log_objective(sigmas, recips, mats, a)


def test_an_exact_step_lands_on_its_block_maximum():
    # scaling the new covariance either way lowers the objective; the axes
    # data have no block maximum, and at r = 1 no block has one
    from blca.gaussian import _block_step, _log_objective
    exact = 0
    for name, d, _, expected in _kernel_cases():
        if expected == DIVERGED:
            continue
        a = d.domain.a
        sigmas, recips = _float_datum(d)
        mats = [_eye(len(s)) for s in sigmas]
        for _ in range(3):
            for s, r, m in zip(sigmas, recips, mats):
                _, _, qinv = _log_objective(sigmas, recips, mats, a)
                assert _block_step(qinv, s, r, m), name
                if r >= 1:
                    continue
                top = [row[:] for row in m]
                peak, _, _ = _log_objective(sigmas, recips, mats, a)
                for factor in (1 - 1e-3, 1 + 1e-3):
                    m[:] = [[factor * x for x in row] for row in top]
                    assert _log_objective(sigmas, recips, mats, a)[0] <= peak, name
                m[:] = top
                exact += 1
    assert exact > 100


def _graded_spd(rnd, n, cond):
    """A seeded positive-definite D A D of size n with condition number about
    cond: A has a unit diagonal and small off-diagonal entries, and D falls
    geometrically down the diagonal over a factor sqrt(cond).  Its inverse,
    determinant and eigenvalues are then fixed to high relative accuracy by
    its entries, so numpy and the float kernels can be held to 1e-9 even
    when cond is 1e12.  D must fall, not be shuffled: numpy's tridiagonal
    eigensolver keeps the small eigenvalues' relative accuracy only then.
    Returns the matrix and D's diagonal."""
    scale = math.exp(rnd.uniform(-5, 5))
    d = [scale * cond ** (-0.5 * i / max(n - 1, 1)) for i in range(n)]
    a = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            a[i][j] = a[j][i] = rnd.uniform(-0.4, 0.4) / n
    return [[d[i] * a[i][j] * d[j] for j in range(n)] for i in range(n)], d


def test_float_kernels_match_numpy():
    # Cholesky's log det and inverse, Jacobi's eigenpairs and the
    # Sherman-Morrison update, on seeded positive-definite matrices of size
    # 1-4 up to condition 1e11; the inverses are compared in D's scaling,
    # where each entry counts relative to its own size
    import random
    import numpy as np
    from blca.gaussian import _cholesky, _cholesky_inverse, _jacobi, _rank_one_update
    rnd = random.Random(31)
    for n in (1, 2, 3, 4):
        for cond in (1.0, 1e3, 1e6, 1e9, 1e11):
            for _ in range(10):
                q, d = _graded_spd(rnd, n, cond)
                want, dd = np.array(q), np.diag(d)
                low = _cholesky(q)
                log_det = 2 * sum(math.log(row[-1]) for row in low)
                assert abs(log_det - np.linalg.slogdet(want)[1]) <= 1e-9 * max(1, abs(log_det))
                got_inv, want_inv = np.array(_cholesky_inverse(low)), np.linalg.inv(want)
                assert (got_inv == got_inv.T).all()
                err = np.abs(dd @ (got_inv - want_inv) @ dd).max()
                assert err <= 1e-9 * np.abs(dd @ want_inv @ dd).max()
                lam, vec = _jacobi(q)
                want_lam = np.linalg.eigvalsh(want)
                assert np.allclose(sorted(lam), want_lam, rtol=1e-9, atol=0)
                vec = np.array(vec)
                assert np.allclose(vec.T @ vec, np.eye(n), rtol=0, atol=1e-12)
                assert np.allclose(vec @ np.diag(lam) @ vec.T, want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())
                # q + c u u^T with u = D z, in D's scaling like q itself
                u = [di * rnd.uniform(-1, 1) for di in d]
                c = rnd.uniform(0, 2)
                qinv = _cholesky_inverse(low)
                w = [sum(x * y for x, y in zip(row, u)) for row in qinv]
                mu = sum(x * y for x, y in zip(u, w))
                assert _rank_one_update(qinv, w, mu, c)
                got_inv = np.array(qinv)
                want_inv = np.linalg.inv(want + c * np.outer(u, u))
                err = np.abs(dd @ (got_inv - want_inv) @ dd).max()
                assert err <= 1e-9 * np.abs(dd @ want_inv @ dd).max()
                # c = -2/mu makes q + c u u^T indefinite: refused, qinv untouched
                qinv = _cholesky_inverse(low)
                kept = [row[:] for row in qinv]
                assert not _rank_one_update(qinv, w, mu, -2.0 / mu)
                assert qinv == kept


def test_condition_bound_never_undercuts_the_eigenvalue_ratio():
    # _log_objective reports tr(Q) tr(Q^-1), an upper bound on
    # lambda_max/lambda_min, and the ratio itself once the bound passes half
    # the ceiling; Q is set to each matrix by one map, the identity, at r = 1
    import random
    import numpy as np
    from blca.gaussian import CONDITION_CEILING, _log_objective
    rnd = random.Random(37)
    near = 0
    for n in (1, 2, 3, 4):
        eye = [[float(i == j) for j in range(n)] for i in range(n)]
        for cond in (1.0, 1e3, 1e6, 1e9, 1e11, 6e11, 1e12, 3e12):
            for _ in range(10):
                q, _ = _graded_spd(rnd, n, cond)
                lam = np.linalg.eigvalsh(np.array(q))
                want = lam[-1] / lam[0]
                got = _log_objective([eye], [1.0], [q], n)[1]
                # never below the ratio, up to rounding in the eigenvalues
                assert got >= want * (1 - 1e-12), (n, cond)
                if got >= CONDITION_CEILING / 2:
                    assert abs(got - want) <= 1e-6 * want, (n, cond)
                    near += 1
    assert near >= 50


def _frame3_datum():
    R3 = ElementaryGroup(a=3)
    frame = [[[0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 1]],
             [[1, 0, 0], [0, 1, 0]], [[1, -1, 0], [1, 0, -1]]]
    return Datum(R3, [BlockHom(R3, R2, RR=m) for m in frame], [F(8, 3)] * 4)


def test_two_row_steps_keep_the_inverse_exact():
    # in the first 5 sweeps of the converging two-row cases and the Q^3
    # frame, the Q^-1 that a two-row step corrects eigenvector by eigenvector
    # equals the Cholesky inverse of Q assembled afresh, to 1e-9 in the
    # scaling that gives the latter a unit diagonal
    from blca.gaussian import _block_step, _log_objective
    cases = [(name, d) for name, d, _, expected in _kernel_cases()
             if expected != DIVERGED and any(len(h.RR) == 2 for h in d.homs)]
    cases.append(("frame", _frame3_datum()))
    steps = 0
    for name, d in cases:
        a = d.domain.a
        sigmas, recips = _float_datum(d)
        mats = [_eye(len(s)) for s in sigmas]
        _, _, qinv = _log_objective(sigmas, recips, mats, a)
        for _ in range(5):
            for s, r, m in zip(sigmas, recips, mats):
                assert _block_step(qinv, s, r, m), name
                if len(s) != 2:
                    continue
                want = _log_objective(sigmas, recips, mats, a)[2]
                for i in range(a):
                    for j in range(a):
                        err = abs(qinv[i][j] - want[i][j])
                        assert err <= 1e-9 * math.sqrt(want[i][i] * want[j][j]), name
                steps += 1
            _, _, qinv = _log_objective(sigmas, recips, mats, a)
    assert steps == 65


def test_two_row_steps_run_largest_eigenvalue_first():
    # at r = 1, m enters a two-row step only through D = N - m.  From Q = I,
    # with rows u_1 = (1, 0) and u_2 = (1, 1) and D = diag(-3/2, 3), the new
    # Q = I - 3/2 u_1 u_1^T + 3 u_2 u_2^T = [[5/2, 3], [3, 4]] is positive
    # definite, but I - 3/2 u_1 u_1^T is not: only the step along u_2 first
    # keeps every intermediate Q positive definite
    from blca.gaussian import _block_step
    s = [[1.0, 0.0], [1.0, 1.0]]
    n = [[2.0, -1.0], [-1.0, 1.0]]   # (s Q^-1 s^T)^-1, the step's N at r = 1
    m = [[3.5, -1.0], [-1.0, -2.0]]  # N - diag(-3/2, 3)
    qinv = _eye(2)
    assert _block_step(qinv, s, 1.0, m)
    for got, want in zip(qinv + m, [[4.0, -3.0], [-3.0, 2.5]] + n):
        assert all(abs(x - y) <= 1e-12 for x, y in zip(got, want)), (qinv, m)
    # a new Q that is not positive definite: the step along e_1 is taken on
    # a copy, the one along e_2 is refused, and neither qinv nor m changes
    qinv, m = _eye(2), [[0.2, 0.0], [0.0, 20.0]]
    assert not _block_step(qinv, _eye(2), 0.5, m)
    assert (qinv, m) == (_eye(2), [[0.2, 0.0], [0.0, 20.0]])


def test_exact_steps_match_the_fixed_point_loop(monkeypatch):
    # the generic vector items of the rank_search benchmark (seed 1, blocks
    # 0-3) and the Q^3 projective frame, priced once by the ascent and once
    # with the fixed-point loop in its place: the same status, the same value
    # to 1e-8
    import os
    import sys
    import blca
    from blca.gaussian import GaussianResult
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if root not in sys.path:
        sys.path.insert(0, root)
    from bench import workloads
    data = [workloads.build_rank(blca, s) for block in range(4)
            for s in workloads.rank_search_block(1, block)
            if s["sector"] == "R" and s["stratum"].endswith("_generic")]
    assert len(data) == 136
    data.append(_frame3_datum())

    def fixed_point(sigmas, recips, a, init_mats, budget):
        status, sweeps, value = _reference_ascent(_arrays(sigmas, a), recips, a, budget,
                                                  exact=False)
        return GaussianResult(value, status, sweeps)

    for d in data:
        verdict = bcct_finiteness(d)
        got = gaussian_bl_constant(d, verdict)
        with monkeypatch.context() as patch:
            patch.setattr(blca.gaussian, "_ascend", fixed_point)
            want = gaussian_bl_constant(d, verdict)
        assert got.status == want.status == CONVERGED, d
        assert abs(got.value - want.value) <= 1e-8 * want.value, d


def _barthe_rank_one_plane(rows):
    """Barthe's closed form for three rank-one maps of R^2 at p = 3/2:
    every basis S gets delta_S = 1/3, so the constant is
    prod_S (a_S / delta_S)^(-delta_S / 2) with a_S = det(U_S)^2 * 4/9.
    Logarithms of the exact integer determinants keep it accurate at any
    entry size."""
    log_bl = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            det = rows[i][0] * rows[j][1] - rows[i][1] * rows[j][0]
            log_bl -= (2 * math.log(abs(det)) + math.log(4 / 3)) / 6
    return math.exp(log_bl)


def test_small_constants_converge_to_the_closed_form():
    # the constant is tiny when the entries are large; the ascent must stop
    # on the relative change of its objective, not on an absolute one
    from blca.structure import bl_constant
    data = [[[s + 1, 3], [5, s + 11], [7, 11]] for s in (10**3, 10**6, 10**9, 10**12)]
    data.append([[123456789012345678901, 3], [5, 98765432109876543211], [7, 11]])
    for rows in data:
        d = Datum(R2, [BlockHom(R2, R1, RR=[row]) for row in rows], [F(3, 2)] * 3)
        want = _barthe_rank_one_plane(rows)
        got = bl_constant(d).value
        assert abs(got - want) <= 1e-9 * want, (rows, got, want)
