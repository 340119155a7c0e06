"""Acceptance suite: one test (and one pass/fail line) per shipped claim.

Each test states its claim in the name and prints a summary line, so a
verbose run reads as a checklist of the package's load-bearing guarantees.
"""
import math
import random
import time
from dataclasses import replace
from fractions import Fraction

from blca.exact import ExactValue
from blca.finite import subgroup_bl_constant, tower_limit
from blca.gaussian import gaussian_bl_constant
from blca.groups import ElementaryGroup, HaarRecord
from blca.homs import BlockHom, ClosedSubgroup, Datum
from blca.intmat import mat_vec
from blca.oracle import (alternating_maximization, discretized_compact_check,
                         scalar_gaussian_probe)
from blca.rank import FAILS, HOLDS_CERTIFIED, rank_condition
from blca.structure import (FINITE, bl_constant, duality_check,
                            reduce_p_infinity, reduce_p_one,
                            reduce_transversal)

F = Fraction


def _line(n, text):
    print(f"criterion {n}: PASS  {text}")


# -- small exact rank over the integers, independent of the library ---------

def _int_rank(rows):
    m = [list(r) for r in rows if any(r)]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = None
        for r in range(rank, len(m)):
            if m[r][c]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                a, b = m[rank][c], m[r][c]
                m[r] = [b * x - a * y for x, y in zip(m[rank], m[r])]
        rank += 1
    return rank


def test_criterion_1_klein_four_constant_is_exactly_two():
    start = time.monotonic()
    K = ElementaryGroup(torsion=(2, 2))
    C2 = ElementaryGroup(torsion=(2,))
    d = Datum(K, [BlockHom(K, C2, FF=[[1, 0]]),
                  BlockHom(K, C2, FF=[[0, 1]])], [2, 2])
    exact = subgroup_bl_constant(d)
    assert exact.value == ExactValue.of(2)
    est = alternating_maximization(d, seed=0)
    assert est >= 2 - 1e-6
    rep = bl_constant(d)
    assert rep.kind == FINITE and rep.exact == ExactValue.of(2)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _line(1, f"Klein four-group constant 2 exact, oracle {est:.9f}, "
             f"{elapsed:.3f}s")


def test_criterion_2_vector_young_matches_independent_probe():
    start = time.monotonic()
    R2 = ElementaryGroup(a=2)
    R1 = ElementaryGroup(a=1)
    d = Datum(R2, [BlockHom(R2, R1, RR=[[1, 0]]),
                   BlockHom(R2, R1, RR=[[0, 1]]),
                   BlockHom(R2, R1, RR=[[1, 1]])], [F(3, 2)] * 3)
    ascent = gaussian_bl_constant(d).value
    probe = scalar_gaussian_probe(d)
    assert abs(ascent - probe) < 1e-4
    assert abs(ascent - 0.8660254) < 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _line(2, f"Young ascent {ascent:.7f} vs probe {probe:.7f}, "
             f"{elapsed:.2f}s")


def _height_one_vectors(n):
    out = []

    def rec(prefix):
        if len(prefix) == n:
            v = list(prefix)
            if any(v):
                for x in v:
                    if x > 0:
                        out.append(v)
                        return
                    if x < 0:
                        return
            return
        for x in (-1, 0, 1):
            rec(prefix + [x])

    rec([])
    return out


def test_criterion_3_rank_checker_sound_against_exhaustive_search():
    start = time.monotonic()
    rnd = random.Random(20260822)
    p_pool = [F(1), F(21, 20), F(3, 2), F(2), F(3), None]
    fails_seen = holds_seen = 0
    from itertools import combinations
    subsets_by_n = {}
    for n in (1, 2, 3):
        vecs = _height_one_vectors(n)
        subs = []
        for size in range(1, n + 1):
            subs.extend(combinations(range(len(vecs)), size))
        subsets_by_n[n] = (vecs, subs)
    for trial in range(200):
        n = rnd.randint(1, 3)
        J = rnd.randint(1, 3)
        maps, p = [], []
        for _ in range(J):
            rows = rnd.randint(0, 3)
            maps.append([[rnd.randint(-3, 3) for _ in range(n)]
                         for _ in range(rows)])
            p.append(rnd.choice(p_pool))
        verdict = rank_condition(maps, p, dim=n)
        recips = [F(0) if q is None else 1 / q for q in p]
        if verdict.status == FAILS:
            fails_seen += 1
            _assert_witness_violates(verdict.witness, maps, recips)
        else:
            holds_seen += 1
            vecs, subs = subsets_by_n[n]
            images = [[mat_vec(m, v) for v in vecs] for m in maps]
            for idxs in subs:
                basis = [vecs[i] for i in idxs]
                dim_w = _int_rank(basis)
                spent = sum(r * _int_rank([img[i] for i in idxs])
                            for img, r in zip(images, recips))
                assert F(dim_w) <= spent, (
                    f"trial {trial}: checker said {verdict.status} but "
                    f"{basis} violates")
    # n = 4, J = 4..5: rank-one data (decided over the flats) and data whose
    # kernels form a chain (certified by the terminated closure), the two
    # routes that claim HOLDS_CERTIFIED beyond n, J <= 3
    vecs, subs = _height_one_subspaces_of_q4()
    holds4 = 0
    for trial in range(40):
        J = rnd.randint(4, 5)
        if trial % 2:  # homogeneous, as in Barthe's criterion
            maps, p = _rank_one_maps_q4(rnd, J), [F(J, 4)] * J
        else:
            maps, p = _chain_maps_q4(rnd, J), [rnd.choice(p_pool) for _ in range(J)]
        verdict = rank_condition(maps, p, dim=4)
        recips = [F(0) if q is None else 1 / q for q in p]
        if verdict.status == FAILS:
            fails_seen += 1
            _assert_witness_violates(verdict.witness, maps, recips)
            continue
        assert verdict.status == HOLDS_CERTIFIED
        holds_seen += 1
        holds4 += 1
        images = [[mat_vec(m, v) for v in vecs] for m in maps]
        for idxs in subs:
            spent = sum(r * _int_rank([img[i] for i in idxs])
                        for img, r in zip(images, recips))
            assert F(len(idxs)) <= spent, (
                f"n=4 trial {trial}: checker said {verdict.status} but "
                f"{[vecs[i] for i in idxs]} violates")
    assert holds4 >= 5
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _line(3, f"240 random data (40 with n=4, J=4..5), {fails_seen} FAILS all "
             f"verified, {holds_seen} holds confirmed exhaustively, "
             f"{elapsed:.1f}s")


def _assert_witness_violates(witness, maps, recips):
    basis = [list(w) for w in witness]
    dim_w = _int_rank(basis)
    assert dim_w > 0
    spent = sum(r * _int_rank([mat_vec(m, w) for w in basis])
                for m, r in zip(maps, recips))
    assert F(dim_w) > spent, "FAILS witness must verify exactly"


def _normalized(coords):
    g = 0
    for x in coords:
        g = math.gcd(g, x)
    coords = [x // g for x in coords]
    sign = next(x for x in coords if x) > 0
    return tuple(coords if sign else [-x for x in coords])


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _height_one_subspaces_of_q4():
    """Every subspace of Q^4 spanned by height-one vectors, once each, as
    index tuples into the vector list.  Planes are told apart by their
    Pluecker coordinates and hyperplanes by their normal vectors."""
    from itertools import combinations
    vecs = _height_one_vectors(4)
    lines = [(i,) for i in range(len(vecs))]
    planes = {}
    for i, j in combinations(range(len(vecs)), 2):
        u, v = vecs[i], vecs[j]
        key = _normalized([u[a] * v[b] - u[b] * v[a]
                           for a, b in combinations(range(4), 2)])
        planes.setdefault(key, (i, j))
    hyperplanes = {}
    for i, j in planes.values():
        for k in range(len(vecs)):
            rows = [vecs[i], vecs[j], vecs[k]]
            normal = [(-1) ** c * _det3([[r[x] for x in range(4) if x != c]
                                          for r in rows]) for c in range(4)]
            if any(normal):
                hyperplanes.setdefault(_normalized(normal), (i, j, k))
    units = tuple(vecs.index([int(x == c) for x in range(4)]) for c in range(4))
    return vecs, lines + list(planes.values()) + list(hyperplanes.values()) + [units]


def _rank_one_maps_q4(rnd, J):
    maps = []
    for _ in range(J):
        row = [rnd.randint(-1, 1) for _ in range(4)]
        maps.append([[c * x for x in row] for c in rnd.sample([1, 2, -1], rnd.randint(1, 2))])
    return maps


def _chain_maps_q4(rnd, J):
    """Maps A_j = R_j M_k: the first k rows of M = L^-1, mixed by a unit
    triangular R_j.  With L unit lower triangular with entries in
    {-1, 0, 1}, ker A_j is spanned by the last 4 - k columns of L, so the
    kernels form a chain of height-one subspaces."""
    low = [[1 if r == c else (rnd.randint(-1, 1) if r > c else 0)
            for c in range(4)] for r in range(4)]
    inv = [[int(r == c) for c in range(4)] for r in range(4)]
    for c in range(4):  # forward substitution, column by column
        for r in range(c + 1, 4):
            for k in range(4):
                inv[r][k] -= low[r][c] * inv[c][k]
    maps = []
    for _ in range(J):
        k = rnd.randint(1, 4)
        rows = [list(inv[i]) for i in range(k)]
        for i in range(k):
            for l in range(i + 1, k):
                c = rnd.randint(-1, 1)
                rows[i] = [x + c * y for x, y in zip(rows[i], inv[l])]
        maps.append(rows)
    return maps


def _duality_cases():
    T = ElementaryGroup(b=1)
    T2 = ElementaryGroup(b=2)
    R1 = ElementaryGroup(a=1)
    R2 = ElementaryGroup(a=2)
    Z1 = ElementaryGroup(c=1)
    Z2 = ElementaryGroup(c=2)
    K = ElementaryGroup(torsion=(2, 2))
    C2 = ElementaryGroup(torsion=(2,))
    Z4 = ElementaryGroup(torsion=(4,))
    Z6 = ElementaryGroup(torsion=(6,))
    TK = ElementaryGroup(b=1, torsion=(2,))
    idT = BlockHom(T, T, TT=[[1]])
    discrete = []
    # finite
    discrete.append(Datum(K, [BlockHom(K, C2, FF=[[1, 0]]),
                              BlockHom(K, C2, FF=[[0, 1]])], [2, 2]))
    discrete.append(Datum(Z4, [BlockHom(Z4, C2, FF=[[1]])], [F(3, 2)]))
    discrete.append(Datum(Z6, [BlockHom.identity(Z6),
                               BlockHom.identity(Z6)], [2, 2]))
    discrete.append(Datum(K, [BlockHom(K, C2, FF=[[1, 0]]),
                              BlockHom(K, C2, FF=[[0, 1]])], [3, F(3, 2)]))
    discrete.append(Datum(Z4, [BlockHom(Z4, Z4, FF=[[1]]),
                               BlockHom(Z4, C2, FF=[[1]])], [2, 3]))
    # torus
    discrete.append(Datum(T, [idT, idT], [2, 2]))
    discrete.append(Datum(T, [idT, BlockHom(T, T, TT=[[2]])], [2, 2]))
    discrete.append(Datum(T2, [BlockHom(T2, T, TT=[[1, 0]]),
                               BlockHom(T2, T, TT=[[0, 1]]),
                               BlockHom(T2, T, TT=[[1, 1]])], [2, 2, 2]))
    discrete.append(Datum(T, [idT, idT, idT], [3, 3, 3]))
    # free
    discrete.append(Datum(Z1, [BlockHom.identity(Z1),
                               BlockHom.identity(Z1)], [2, 2]))
    discrete.append(Datum(Z2, [BlockHom.identity(Z2),
                               BlockHom.identity(Z2)], [2, 2]))
    # torus x finite with sector-mixing blocks
    discrete.append(Datum(TK, [BlockHom(TK, T, TT=[[1]], FT=[[F(1, 2)]]),
                               BlockHom(TK, T, TT=[[2]], FT=[[F(1, 2)]])],
                          [2, 2]))
    vector = []
    vector.append(Datum(R2, [BlockHom(R2, R1, RR=[[1, 0]]),
                             BlockHom(R2, R1, RR=[[0, 1]]),
                             BlockHom(R2, R1, RR=[[1, 1]])], [F(3, 2)] * 3))
    vector.append(Datum(R1, [BlockHom.identity(R1),
                             BlockHom.identity(R1)], [2, 2]))
    vector.append(Datum(R1, [BlockHom.identity(R1)] * 3, [3, 3, 3]))
    vector.append(Datum(R2, [BlockHom(R2, R1, RR=[[1, 0]]),
                             BlockHom(R2, R1, RR=[[0, 1]]),
                             BlockHom(R2, R1, RR=[[1, 1]])],
                        [F(10, 7), F(10, 7), F(5, 3)]))
    Rs = ElementaryGroup(a=2, haar=HaarRecord(vector_scale=F(5)))
    Rt = ElementaryGroup(a=1, haar=HaarRecord(vector_scale=F(7)))
    vector.append(Datum(Rs, [BlockHom(Rs, Rt, RR=[[1, 0]]),
                             BlockHom(Rs, Rt, RR=[[0, 1]]),
                             BlockHom(Rs, Rt, RR=[[1, 1]])], [F(3, 2)] * 3))
    M = ElementaryGroup(a=1, b=1)
    hm = BlockHom(M, M, RR=[[1]], TT=[[1]])
    vector.append(Datum(M, [hm, hm], [2, 2]))
    RK = ElementaryGroup(a=1, torsion=(2, 2))
    RT2 = ElementaryGroup(a=1, torsion=(2,))
    vector.append(Datum(RK, [BlockHom(RK, RT2, RR=[[1]], FF=[[1, 0]]),
                             BlockHom(RK, RT2, RR=[[1]], FF=[[0, 1]])],
                        [2, 2]))
    vector.append(Datum(R1, [BlockHom(R1, R1, RR=[[2]]),
                             BlockHom(R1, R1, RR=[[3]])], [2, 2]))
    return discrete, vector


def test_criterion_4_duality_identity_across_sectors():
    start = time.monotonic()
    discrete, vector = _duality_cases()
    assert len(discrete) + len(vector) == 20
    for d in discrete:
        chk = duality_check(d)
        assert chk.passed is True, chk.notes
        assert chk.ratio == 1.0, f"discrete data must match exactly: {chk}"
    for d in vector:
        chk = duality_check(d, tol=1e-4)
        assert chk.passed is True, chk.notes
        assert abs(chk.ratio - 1.0) <= 1e-4
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _line(4, f"duality holds on {len(discrete)} discrete data exactly and "
             f"{len(vector)} vector-containing data to 1e-4, {elapsed:.1f}s")


def test_criterion_5_constants_multiply_across_direct_products():
    rnd = random.Random(55)
    worst = 0.0
    for trial in range(20):
        m = rnd.choice([2, 3, 4, 6, 8])
        Fm = ElementaryGroup(torsion=(m,))
        J = rnd.choice([2, 3])
        p_fin = [F(rnd.choice([2, 3])) for _ in range(J)]
        fin_maps = [BlockHom(Fm, Fm, FF=[[rnd.randrange(m)]])
                    for _ in range(J)]
        d_fin = Datum(Fm, fin_maps, p_fin)
        cs = [rnd.choice([1, 2, 3]) for _ in range(J)]
        R1 = ElementaryGroup(a=1)
        vec_maps = [BlockHom(R1, R1, RR=[[c]]) for c in cs]
        p_vec = [F(J)] * J
        d_vec = Datum(R1, vec_maps, p_vec)
        prod_dom = ElementaryGroup(a=1, torsion=(m,))
        prod_tgt = ElementaryGroup(a=1, torsion=(m,))
        prod_maps = [BlockHom(prod_dom, prod_tgt, RR=[[c]], FF=[[e.FF[0][0]]])
                     for c, e in zip(cs, fin_maps)]
        # a shared exponent per index: use the vector one for both parts
        d_prod = Datum(prod_dom, prod_maps, p_vec)
        d_fin_shared = Datum(Fm, fin_maps, p_vec)
        total = bl_constant(d_prod)
        part_f = bl_constant(d_fin_shared)
        part_v = bl_constant(d_vec)
        assert total.kind == part_f.kind == part_v.kind == FINITE
        expected = part_f.value * part_v.value
        rel = abs(total.value - expected) / max(1.0, abs(expected))
        worst = max(worst, rel)
        assert rel <= 1e-9
    _line(5, f"20 product data split exactly, worst relative gap {worst:.2e}")


def test_criterion_6_reductions_preserve_constants():
    rnd = random.Random(66)
    for trial in range(20):
        chain = rnd.choice([(4,), (8,), (2, 4), (2, 2), (3, 6)])
        G = ElementaryGroup(torsion=chain)
        last, first = chain[-1], chain[0]
        # three well-defined maps: the identity, a row into Z/last with
        # entries scaled by last/d_i, and a row into Z/first (any entries
        # work there because first divides every d_i)
        homs = [
            BlockHom.identity(G),
            BlockHom(G, ElementaryGroup(torsion=(last,)),
                     FF=[[(last // d) * rnd.randrange(d) for d in chain]]),
            BlockHom(G, ElementaryGroup(torsion=(first,)),
                     FF=[[rnd.randrange(first) for _ in chain]]),
        ]
        p = [None, F(1), F(rnd.choice([2, 3]))]
        rnd.shuffle(p)
        d = Datum(G, homs, p)
        base = subgroup_bl_constant(d).value
        d_noinf = reduce_p_infinity(d)
        assert subgroup_bl_constant(d_noinf).value == base
        k_one = d_noinf.exponents.index(F(1))
        d_red = reduce_p_one(d_noinf, k_one)
        assert subgroup_bl_constant(d_red).value == base
    # a transversal subgroup with noncompact quotient direction blows up
    R2 = ElementaryGroup(a=2)
    R1 = ElementaryGroup(a=1)
    dxy = Datum(R2, [BlockHom(R2, R1, RR=[[1, 0]]),
                     BlockHom(R2, R1, RR=[[0, 1]])], [2, 2])
    n = ClosedSubgroup(R2, [[F(0), F(1)]], [])
    assert reduce_transversal(dxy, 1, n) == math.inf
    _line(6, "20 random finite data keep their constant through both "
             "reductions; noncompact transversal reports infinity")


def test_criterion_7_measure_covariance():
    K = ElementaryGroup(torsion=(2, 2))
    C2 = ElementaryGroup(torsion=(2,))

    def klein(domain_scale=F(1), target_scales=(F(1), F(1)), p=(2, 2)):
        dom = replace(K, haar=HaarRecord(f_point=domain_scale))
        tg = [replace(C2, haar=HaarRecord(f_point=s)) for s in target_scales]
        return Datum(dom, [BlockHom(dom, tg[0], FF=[[1, 0]]),
                           BlockHom(dom, tg[1], FF=[[0, 1]])], list(p))

    base = bl_constant(klein())
    scaled = bl_constant(klein(domain_scale=F(3)))
    assert scaled.exact == base.exact * 3
    tscaled = bl_constant(klein(target_scales=(F(5), F(1))))
    assert tscaled.exact == base.exact * (ExactValue.of(5) ** F(-1, 2))
    t2 = bl_constant(klein(target_scales=(F(1), F(4)), p=(2, 4)))
    assert t2.exact == bl_constant(klein(p=(2, 4))).exact * (
        ExactValue.of(4) ** F(-1, 4))

    R2 = ElementaryGroup(a=2)
    R1 = ElementaryGroup(a=1)

    def young(ds=F(1), ts=F(1)):
        dom = replace(R2, haar=HaarRecord(vector_scale=ds))
        tgt = replace(R1, haar=HaarRecord(vector_scale=ts))
        return Datum(dom, [BlockHom(dom, tgt, RR=[[1, 0]]),
                           BlockHom(dom, tgt, RR=[[0, 1]]),
                           BlockHom(dom, tgt, RR=[[1, 1]])], [F(3, 2)] * 3)

    vb = bl_constant(young()).value
    vs = bl_constant(young(ds=F(3))).value
    assert abs(vs - 3 * vb) <= 1e-10 * max(1.0, 3 * vb)
    vt = bl_constant(young(ts=F(7))).value
    want = vb * 7.0 ** (-2.0)  # three targets, each at 1/p = 2/3
    assert abs(vt - want) <= 1e-10 * max(1.0, want)
    _line(7, "domain and target Haar scalings move every constant by "
             "exactly the predicted powers")


def test_criterion_8_tower_monotonicity_and_discretized_blowup():
    for fam in range(5):
        rnd = random.Random(800 + fam)
        J = rnd.choice([2, 3])
        rows = [[rnd.randrange(8), rnd.randrange(8)] for _ in range(J)]
        p = [F(rnd.choice([F(21, 20), F(3, 2), F(2), F(3)]))
             for _ in range(J)]
        levels = []
        for k in (1, 2, 3):
            n = 2 ** k
            dom = ElementaryGroup(torsion=(n, n),
                                  haar=HaarRecord(f_point=F(1, n * n)))
            tgt = ElementaryGroup(torsion=(n,),
                                  haar=HaarRecord(f_point=F(1, n)))
            homs = [BlockHom(dom, tgt, FF=[row]) for row in rows]
            levels.append(Datum(dom, homs, p))
        res = tower_limit(levels)
        assert res.monotone, (fam, res.floats())
    # four identity maps on the circle just above p = 1: the discretized
    # levels grow without bound, far past 10^3 by n = 64
    T = ElementaryGroup(b=1)
    idT = BlockHom(T, T, TT=[[1]])
    bad = Datum(T, [idT, idT, idT, idT], [F(21, 20)] * 4)
    vals = [discretized_compact_check(1, n, bad) for n in (16, 32, 64)]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > 1e3
    _line(8, f"5 tower families nondecreasing; rank-violating circle datum "
             f"reaches {vals[2]:.3g} at 64 points")
