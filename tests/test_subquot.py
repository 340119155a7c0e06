"""Kernel quotients, corestrictions, and the four-factor splitting."""
import math
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from blca.errors import Degenerate, NotProper
from blca.groups import ElementaryGroup, HaarRecord, LatticeSubgroup, dual_group
from blca.homs import (MIXING_BLOCKS, BlockHom, ClosedSubgroup, Datum,
                       GroupElement, ProperReport, adjoint_hom, image_is_open,
                       is_proper, is_surjective, joint_kernel, kernel_info)
from blca.intmat import (clear_denominators, from_columns, hermite_basis,
                         identity, integer_kernel, mat_vec, rational_kernel,
                         rational_rank, solve_integer, solve_rational,
                         transpose)
from blca.structure import (_TRIVIAL_REPORTS, CERTIFIED, INFINITE, FactorReport,
                            _finite_factor, _free_factor, _image_subgroup,
                            _torus_factor, _vector_factor, analyze, bl_constant,
                            dual_datum, duality_check, reduce_p_infinity,
                            reduce_transversal)
from blca.subquot import (_EMPTY, _annihilator_of_compact_kernel,
                          _is_nondegenerate, _quotient_by_joint_kernel,
                          _sector_parts, corestrict_open,
                          discrete_image_lattice, kernel_embedding,
                          make_nondegenerate)
from test_groups import _ref_structure
from test_homs import CHAINS, random_group, random_hom

F = Fraction

R = ElementaryGroup(a=1)
R2 = ElementaryGroup(a=2)
T = ElementaryGroup(b=1)
Z = ElementaryGroup(c=1)
Z2 = ElementaryGroup(torsion=(2,))
Z4 = ElementaryGroup(torsion=(4,))
pt = ElementaryGroup()


def test_compact_kernel_quotiented():
    g = ElementaryGroup(a=1, b=1)
    sigma = BlockHom(g, R, RR=[[F(1)]])
    res = make_nondegenerate(Datum(g, [sigma], [F(2)]))
    nd = res.datum
    assert (nd.domain.a, nd.domain.b, nd.domain.c, nd.domain.k) == (1, 0, 0, 0)
    assert nd.domain.haar.scalar() == 1
    assert nd.homs[0].RR == [[F(1)]]
    assert len(res.ledger) == 1
    assert res.quotient_map is not None
    assert nd.homs[0].compose(res.quotient_map) == sigma
    assert joint_kernel(nd).is_trivial()


def test_quotient_pushes_measure_forward():
    g = ElementaryGroup(a=1, b=1, haar=HaarRecord(torus_total=F(5)))
    nd = make_nondegenerate(Datum(g, [BlockHom(g, R, RR=[[F(1)]])],
                                  [F(2)])).datum
    assert nd.domain.haar.scalar() == 5
    assert nd.domain.a == 1


def test_full_torus_kernel_leaves_weighted_point():
    t5 = ElementaryGroup(b=1, haar=HaarRecord(torus_total=F(5)))
    res = make_nondegenerate(Datum(t5, [BlockHom(t5, pt)], [F(2)]))
    assert res.datum.domain.is_trivial()
    assert res.datum.domain.total_mass() == 5


def test_corestrict_doubling_on_z():
    res = make_nondegenerate(Datum(Z, [BlockHom(Z, Z, ZZ=[[2]])], [F(2)]))
    h = res.datum.homs[0]
    assert is_surjective(h)
    assert h.ZZ == [[1]]
    assert h.codomain.haar.z_point == 1
    assert "map 0" in res.ledger[0]
    assert res.quotient_map is None


def test_corestrict_finite_embedding():
    emb = BlockHom(Z2, Z4, FF=[[2]])
    res = make_nondegenerate(Datum(Z2, [emb], [F(2)]))
    h = res.datum.homs[0]
    assert h.codomain.torsion == (2,)
    assert h.FF == [[1]]
    assert h.codomain.haar.f_point == 1


def test_finite_quotient_carries_mass():
    red = BlockHom(Z4, Z2, FF=[[1]])
    res = make_nondegenerate(Datum(Z4, [red], [F(2)]))
    nd = res.datum
    assert nd.domain.torsion == (2,)
    assert nd.domain.haar.f_point == 2
    assert nd.homs[0].FF == [[1]]
    assert nd.homs[0].codomain == Z2
    assert nd.homs[0].compose(res.quotient_map) == red


def test_nondegenerate_input_untouched():
    d = Datum(R, [BlockHom(R, R, RR=[[F(1)]])], [F(2)])
    res = make_nondegenerate(d)
    # no map moved, so no datum is built
    assert res.datum is d
    assert res.ledger == ()


def test_idempotent_after_quotient():
    g = ElementaryGroup(a=1, b=1)
    nd = make_nondegenerate(Datum(g, [BlockHom(g, R, RR=[[F(1)]])],
                                  [F(2)])).datum
    again = make_nondegenerate(nd)
    assert again.datum is nd and again.ledger == ()


def test_non_open_image_warned_not_fixed():
    line = BlockHom(R, R2, RR=[[F(1)], [F(0)]])
    keep = BlockHom(R, R, RR=[[F(1)]])
    res = make_nondegenerate(Datum(R, [keep, line], [F(2), F(2)]))
    assert res.datum.homs[1] == line
    assert any("not open" in line_ for line_ in res.ledger)
    assert res.obstruction == "map 1 is not surjective"


def _all_blocks_datum(rnd):
    """A datum on a small group of every sector whose maps keep each block
    with probability one half."""
    dom = ElementaryGroup(a=rnd.randint(0, 1), b=rnd.randint(0, 2),
                          c=rnd.randint(0, 1), torsion=rnd.choice(CHAINS))
    homs = []
    for _ in range(rnd.randint(1, 3)):
        cod = ElementaryGroup(a=rnd.randint(0, 1), b=rnd.randint(0, 1),
                              c=rnd.randint(0, 1),
                              torsion=rnd.choice(CHAINS[:5]))
        full = random_hom(rnd, dom, cod)
        homs.append(BlockHom(dom, cod, **{name: blk for name, blk
                                         in full.blocks().items()
                                         if rnd.random() < 0.5}))
    return Datum(dom, homs, [F(2)] * len(homs))


def test_recorded_obstruction_matches_a_fresh_check():
    # random proper data with sector-mixing blocks: whatever make_nondegenerate
    # records is what checking its output from scratch finds
    rnd = random.Random(7)
    seen = quotiented = obstructed = 0
    while seen < 300:
        d = _all_blocks_datum(rnd)
        if not is_proper(d):
            continue
        seen += 1
        res = make_nondegenerate(d)
        quotiented += res.quotient_map is not None
        if res.quotient_map is not None:
            # the note's lie rank is the torus dimension the quotient lost
            assert f"(lie rank {joint_kernel(d).lie_rank()}," in res.ledger[0]
        obstructed += res.obstruction is not None
        assert res.obstruction == _is_nondegenerate(res.datum)
    assert quotiented >= 100
    assert 30 <= obstructed <= 270


def test_improper_rejected():
    half = BlockHom(Z, T, ZT=[[F(1, 2)]])
    with pytest.raises(NotProper):
        make_nondegenerate(Datum(Z, [half], [F(2)]))


def test_analyze_splits_block_diagonal():
    M = ElementaryGroup(a=1, b=1, c=1, torsion=(2,),
                        haar=HaarRecord(F(3), F(5), F(7), F(11)))
    dm = Datum(M, [BlockHom.identity(M)], [F(2)])
    norm, why, parts = analyze(dm)
    assert norm.datum == dm and why is None
    d_t, d_v, d_f, d_z = parts
    assert d_t.domain.b == 1 and d_t.domain.haar.torus_total == 5
    assert d_t.homs[0].TT == [[1]]
    assert d_v.domain.a == 1 and d_v.domain.haar.vector_scale == 3
    assert d_v.homs[0].RR == [[F(1)]]
    assert d_f.domain.torsion == (2,) and d_f.domain.haar.f_point == 11
    assert d_f.homs[0].FF == [[1]]
    assert d_z.domain.c == 1 and d_z.domain.haar.z_point == 7
    assert d_z.homs[0].ZZ == [[1]]
    assert d_t.exponents == dm.exponents
    # the domain scalar distributes across the four factors without loss
    slots = (d_t.domain.haar.torus_total * d_v.domain.haar.vector_scale
             * d_f.domain.haar.f_point * d_z.domain.haar.z_point)
    assert slots == M.haar.scalar()


def test_mixed_kernel_full_pipeline():
    gt = ElementaryGroup(b=1, torsion=(2,))
    sm = BlockHom(gt, T, TT=[[2]], FT=[[F(1, 2)]])
    res = make_nondegenerate(Datum(gt, [sm], [F(3, 2)]))
    assert joint_kernel(res.datum).is_trivial()
    assert all(is_surjective(h) for h in res.datum.homs)
    assert res.datum.homs[0].compose(res.quotient_map) == sm
    assert res.datum.domain.total_mass() == gt.total_mass()


def test_discrete_image_lattice():
    h = BlockHom(Z, Z, ZZ=[[2]])
    lat = discrete_image_lattice(h)
    assert lat.contains([2]) and not lat.contains([1])


def test_corestrict_open_gives_the_map_onto_its_image():
    onto = BlockHom(T, T, TT=[[2]])
    assert corestrict_open(onto) is onto
    assert corestrict_open(BlockHom(Z, R, ZR=[[F(1)]])) is None
    h = corestrict_open(BlockHom(Z, Z, ZZ=[[2]]))
    assert h.codomain == Z and h.ZZ == [[1]]


def _parent_image_is_open(h):
    """image_is_open as it was before it became one rank: RR hits all of the
    target vector sector, and the fibre directions over x' = 0 (RT on ker
    RR, plus all of TT) span the target torus."""
    t = h.codomain
    if rational_rank(h.RR) != t.a:
        return False
    if t.b == 0:
        return True
    span = transpose(h.TT)
    if h.domain.a:
        ker = identity(h.domain.a) if t.a == 0 else rational_kernel(h.RR)
        span += [mat_vec(h.RT, v) for v in ker]
    return bool(span) and rational_rank(span) == t.b


def _parent_onto(h):
    """h onto its image as the normal form took it before corestrict_open
    decided openness itself: h when onto, None when the image is not open,
    else the corestriction onto the map's own image lattice."""
    if not _parent_image_is_open(h):
        return None
    orders = h.codomain.discrete_orders()
    lattice = discrete_image_lattice(h)
    if not orders or lattice == LatticeSubgroup.full(orders):
        return h
    return _ref_corestrict_open(h, lattice)


def test_openness_is_one_rank_of_the_lifted_connected_map():
    # every block drawn, each kept with probability 1/2
    rnd = random.Random(29)
    seen = {"open": 0, "not open": 0, "corestricted": 0}
    for _ in range(2000):
        full = random_hom(rnd, random_group(rnd), random_group(rnd))
        h = BlockHom(full.domain, full.codomain,
                     **{name: blk for name, blk in full.blocks().items()
                        if rnd.random() < 0.5})
        is_open = image_is_open(h)
        assert is_open == _parent_image_is_open(h)
        onto = corestrict_open(h)
        assert onto == _parent_onto(h)
        assert (onto is None) == (not is_open)
        assert (onto is h) == is_surjective(h)
        if onto is not None and onto is not h:
            assert is_surjective(onto)
            seen["corestricted"] += 1
        seen["open" if is_open else "not open"] += 1
    # 547 open, 1453 not open and 471 corestricted at this seed
    assert seen["open"] >= 450 and seen["not open"] >= 1300
    assert seen["corestricted"] >= 400


def test_merge_finite_coordinates():
    # the adapted generators of all of Z/orders[i], as the dual datum reads
    # them: the divisibility chain and each generator in the original blocks
    def merged(orders):
        _, gens, chain, _ = LatticeSubgroup.full(orders).adapted()
        return chain, gens
    chain, gens = merged([2, 4])
    assert list(chain) == [2, 4]
    assert len(gens) == 2
    # coprime blocks merge into one cyclic factor
    chain2, gens2 = merged([2, 3])
    assert list(chain2) == [6]
    assert len(gens2) == 1
    assert merged([]) == ([], [])


def _whole(g):
    """g as a closed subgroup of itself."""
    gens = [GroupElement((0,) * g.a, (0,) * g.b, tuple(row), (0,) * g.k)
            for row in identity(g.c)]
    gens += [GroupElement((0,) * g.a, (0,) * g.b, (0,) * g.c, tuple(row))
             for row in identity(g.k)]
    return ClosedSubgroup(g, identity(g.a + g.b), gens)


def test_kernel_embedding_weil_mass():
    # Z/4 -> Z/2 with weighted measures: the kernel inclusion carries the
    # fiber mass ratio
    g = replace(Z4, haar=HaarRecord(f_point=F(3)))
    t = replace(Z2, haar=HaarRecord(f_point=F(5)))
    h = BlockHom(g, t, FF=[[1]])
    iota = kernel_embedding(h)
    assert iota.codomain == g
    ker = iota.domain
    assert ker.finite_order == 2
    # fibers integrate against the target measure back to the domain total:
    # mass(N) * mass(H) = mass(G), here f * 2 * 10 = 12
    mass_n = ker.haar.f_point * ker.finite_order
    mass_h = t.haar.f_point * t.finite_order
    mass_g = g.haar.f_point * g.finite_order
    assert mass_n * mass_h == mass_g
    assert ker.haar.f_point == F(3, 5)

    # mixing maps, by hand.  R -> T by x -> x: the kernel Z, point mass
    # vs_G / tt_H
    r3 = replace(R, haar=HaarRecord(vector_scale=F(3)))
    t5 = replace(T, haar=HaarRecord(torus_total=F(5)))
    iota = kernel_embedding(BlockHom(r3, t5, RT=[[1]]))
    assert iota == BlockHom(ElementaryGroup(c=1, haar=HaarRecord(z_point=F(3, 5))),
                            r3, ZR=[[1]])
    assert iota.domain.haar == HaarRecord(z_point=F(3, 5))
    # Z -> Z/2 by ZF: the kernel 2Z, point mass z_G / f_H
    z7 = replace(Z, haar=HaarRecord(z_point=F(7)))
    f11 = replace(Z2, haar=HaarRecord(f_point=F(11)))
    iota = kernel_embedding(BlockHom(z7, f11, ZF=[[1]]))
    assert iota == BlockHom(ElementaryGroup(c=1, haar=HaarRecord(z_point=F(7, 11))),
                            z7, ZZ=[[2]])
    assert iota.domain.haar == HaarRecord(z_point=F(7, 11))
    # T x Z/2 -> T by (t, f) -> 2t + f/2: Z/4 generated by (1/4, 1), mass 2
    tk = ElementaryGroup(b=1, torsion=(2,))
    iota = kernel_embedding(BlockHom(tk, T, TT=[[2]], FT=[[F(1, 2)]]))
    assert iota == BlockHom(ElementaryGroup(torsion=(4,), haar=HaarRecord(f_point=F(1, 2))),
                            tk, FT=[[F(1, 4)]], FF=[[1]])
    assert iota.domain.haar == HaarRecord(f_point=F(1, 2))
    assert iota.domain.total_mass() == 2

    # compact data on T^b x F with FT blocks: mass(G) = mass(K) mass(H)
    rnd = random.Random(27)
    compact = 0
    while compact < 150:
        dom = ElementaryGroup(b=rnd.randint(0, 2), torsion=rnd.choice(CHAINS[1:]),
                              haar=_random_haar(rnd))
        cod = ElementaryGroup(b=rnd.randint(0, 2), torsion=rnd.choice(CHAINS),
                              haar=_random_haar(rnd))
        h = corestrict_open(random_hom(rnd, dom, cod))
        if h is None or not any(map(any, h.FT)):
            continue
        compact += 1
        iota = kernel_embedding(h)
        assert dom.total_mass() == iota.domain.total_mass() * h.codomain.total_mass()

    # every block drawn: the inclusion is injective, h kills it, and its
    # image is kernel_info(h), by containment both ways
    seen = dict.fromkeys(MIXING_BLOCKS, 0)
    models = set()
    while min(seen.values()) < 150:
        h = corestrict_open(random_hom(rnd, random_group(rnd), random_group(rnd)))
        if h is None:
            continue
        iota = kernel_embedding(h)
        assert not any(any(row) for blk in h.compose(iota).blocks().values()
                       for row in blk)
        assert kernel_info(iota).is_trivial()
        image = _image_subgroup(iota, _whole(iota.domain))
        ker = kernel_info(h)
        assert ker.contains(image) and image.contains(ker)
        for name in MIXING_BLOCKS:
            seen[name] += any(map(any, getattr(h, name)))
        k = iota.domain
        models.add((k.a > 0, k.b > 0, k.c > 0, k.k > 0))
    assert len(models) == 16


def test_kernel_embedding_takes_an_open_map_onto_its_image():
    # onto: the model of h itself, as pinned above
    iota = kernel_embedding(BlockHom(Z, Z2, ZF=[[1]]))
    assert iota == BlockHom(Z, Z, ZZ=[[2]])
    # open but not onto: the model of corestrict_open(h), whose kernel is
    # the same subgroup.  Z -> Z by 2 and R x Z -> R x Z by (1, 2) are
    # injective, and Z^2 -> Z by (2, 4) has the kernel Z (2, -1)
    rz = ElementaryGroup(a=1, c=1)
    for h in (BlockHom(Z, Z, ZZ=[[2]]), BlockHom(rz, rz, RR=[[1]], ZZ=[[2]])):
        assert corestrict_open(h) is not h
        iota = kernel_embedding(h)
        assert iota == kernel_embedding(corestrict_open(h))
        assert iota.domain == pt and iota.codomain == h.domain
    z2 = ElementaryGroup(c=2)
    iota = kernel_embedding(BlockHom(z2, Z, ZZ=[[2, 4]]))
    assert iota.domain == Z and iota.ZZ in ([[2], [-1]], [[-2], [1]])
    # an image that is not open: a line in R^2, and Z -> R
    for h in (BlockHom(R, R2, RR=[[1], [0]]), BlockHom(Z, R, ZR=[[1]])):
        with pytest.raises(Degenerate, match="open image"):
            kernel_embedding(h)
    # every block drawn: the model of each open map is that of its
    # corestriction, and its image is kernel_info(h)
    rnd = random.Random(30)
    seen = {"onto": 0, "corestricted": 0, "not open": 0}
    while min(seen.values()) < 100:
        h = random_hom(rnd, random_group(rnd), random_group(rnd))
        onto = corestrict_open(h)
        if onto is None:
            seen["not open"] += 1
            with pytest.raises(Degenerate):
                kernel_embedding(h)
            continue
        seen["onto" if onto is h else "corestricted"] += 1
        iota = kernel_embedding(h)
        assert iota == kernel_embedding(onto)
        image = _image_subgroup(iota, _whole(iota.domain))
        ker = kernel_info(h)
        assert ker.contains(image) and image.contains(ker)


# -- the normal form and split against reference copies ----------------------
# _ref_stacked_kernel is the joint kernel by one coupled elimination over all
# sectors.  _ref_is_proper and _ref_quotient_by_joint_kernel decide properness
# and the kernel quotient from that kernel, where the pipeline reads both off
# the maps' blocks, and _ref_sector_parts builds every part's groups and maps
# afresh.  The pipeline's own versions must give the same datum, ledger,
# obstruction, quotient map and parts on every datum below.

def _ref_stacked_kernel(domain, homs):
    a, b, c, k = domain.a, domain.b, domain.c, domain.k
    lie_rows = []
    for h in homs:
        for r in range(h.codomain.a):
            lie_rows.append(list(h.RR[r]) + [Fraction(0)] * b)
        for r in range(h.codomain.b):
            lie_rows.append(list(h.RT[r]) + [Fraction(v) for v in h.TT[r]])
    if a + b == 0:
        lie = []
    elif not lie_rows:
        lie = identity(a + b)
    else:
        lie = rational_kernel(lie_rows)
    offs = []
    total = c + k
    for h in homs:
        offs.append(total)
        total += h.codomain.b + h.codomain.k
    if total == 0:
        return ClosedSubgroup(domain, lie, [])
    seg = []
    pos = 0
    for h in homs:
        seg.append(pos)
        pos += h.codomain.a + h.codomain.b
    if a + b == 0:
        ells = identity(pos)
    elif not lie_rows:
        ells = []
    else:
        ells = rational_kernel(transpose(lie_rows))
    rows = []
    for ell in ells:
        row = [Fraction(0)] * total
        for j, h in enumerate(homs):
            aj, bj = h.codomain.a, h.codomain.b
            lr = ell[seg[j]: seg[j] + aj]
            lt = ell[seg[j] + aj: seg[j] + aj + bj]
            for i in range(c):
                row[i] -= (sum((lr[s] * h.ZR[s][i] for s in range(aj)), Fraction(0))
                           + sum((lt[s] * h.ZT[s][i] for s in range(bj)), Fraction(0)))
            for i in range(k):
                row[c + i] -= sum((lt[s] * h.FT[s][i] for s in range(bj)), Fraction(0))
            for s in range(bj):
                row[offs[j] + s] += lt[s]
        rows.append(row)
    for j, h in enumerate(homs):
        bj, kj = h.codomain.b, h.codomain.k
        for r in range(h.codomain.c):
            row = [Fraction(0)] * total
            for i in range(c):
                row[i] = Fraction(h.ZZ[r][i])
            rows.append(row)
        for r in range(kj):
            row = [Fraction(0)] * total
            for i in range(c):
                row[i] = Fraction(h.ZF[r][i])
            for i in range(k):
                row[c + i] = Fraction(h.FF[r][i])
            row[offs[j] + bj + r] = Fraction(-h.codomain.torsion[r])
            rows.append(row)
    if rows:
        lattice = hermite_basis(integer_kernel([clear_denominators(row) for row in rows]), total)
    else:
        lattice = identity(total)
    gens = []
    for vec in lattice:
        m = list(vec[:c])
        u = list(vec[c: c + k])
        rhs = []
        for j, h in enumerate(homs):
            bj = h.codomain.b
            n_part = vec[offs[j]: offs[j] + bj]
            for r in range(h.codomain.a):
                rhs.append(-sum((h.ZR[r][i] * m[i] for i in range(c)), Fraction(0)))
            for r in range(bj):
                rhs.append(Fraction(n_part[r])
                           - sum((h.ZT[r][i] * m[i] for i in range(c)), Fraction(0))
                           - sum((h.FT[r][i] * u[i] for i in range(k)), Fraction(0)))
        sol = solve_rational(lie_rows, rhs) if lie_rows else [Fraction(0)] * (a + b)
        gens.append(GroupElement(tuple(sol[:a]), tuple(sol[a:]), tuple(m), tuple(u)))
    return ClosedSubgroup(domain, lie, gens)


def _ref_is_proper(d):
    r = _ref_stacked_kernel(d.domain, d.homs).noncompact_rank()
    if r:
        return ProperReport(False, f"joint kernel has noncompact rank {r}", r)
    return ProperReport(True, "joint kernel compact; image closed and relatively open", 0)


def _ref_quotient_by_joint_kernel(d):
    N = _ref_stacked_kernel(d.domain, d.homs)
    if N.is_trivial():
        return None
    return _ref_round_trip_quotient(d, N)


def _ref_sector_parts(d):
    g = d.domain
    torus_dom = ElementaryGroup(b=g.b, haar=HaarRecord(torus_total=g.haar.torus_total))
    vector_dom = ElementaryGroup(a=g.a, haar=HaarRecord(vector_scale=g.haar.vector_scale))
    finite_dom = ElementaryGroup(torsion=g.torsion, haar=HaarRecord(f_point=g.haar.f_point))
    free_dom = ElementaryGroup(c=g.c, haar=HaarRecord(z_point=g.haar.z_point))
    torus_homs, vector_homs, finite_homs, free_homs = [], [], [], []
    for h in d.homs:
        cj = h.codomain
        torus_homs.append(BlockHom(
            torus_dom, ElementaryGroup(b=cj.b, haar=HaarRecord(torus_total=cj.haar.torus_total)),
            TT=h.TT))
        vector_homs.append(BlockHom(
            vector_dom, ElementaryGroup(a=cj.a, haar=HaarRecord(vector_scale=cj.haar.vector_scale)),
            RR=h.RR))
        finite_homs.append(BlockHom(
            finite_dom, ElementaryGroup(torsion=cj.torsion, haar=HaarRecord(f_point=cj.haar.f_point)),
            FF=h.FF))
        free_homs.append(BlockHom(
            free_dom, ElementaryGroup(c=cj.c, haar=HaarRecord(z_point=cj.haar.z_point)),
            ZZ=h.ZZ))
    return (Datum(torus_dom, torus_homs, d.exponents),
            Datum(vector_dom, vector_homs, d.exponents),
            Datum(finite_dom, finite_homs, d.exponents),
            Datum(free_dom, free_homs, d.exponents))


_SCALES = (F(1), F(1), F(2), F(1, 3), F(5, 2))


def _random_haar(rnd):
    return HaarRecord(*(rnd.choice(_SCALES) for _ in range(4)))


def _pin_datum(rnd, kind):
    """kind 0: every block drawn; 1: sector-diagonal; 2: a torus with small
    windings (often a finite joint kernel); 3: sector-diagonal on a product
    group, one map drawn into a larger vector or torus (often a non-open
    image)."""
    if kind == 2:
        dom = ElementaryGroup(b=rnd.randint(1, 3), haar=_random_haar(rnd))
        cods = [ElementaryGroup(b=rnd.randint(1, 2), haar=_random_haar(rnd))
                for _ in range(rnd.randint(1, 3))]
    else:
        dom = replace(random_group(rnd), haar=_random_haar(rnd))
        cods = [replace(random_group(rnd), haar=_random_haar(rnd))
                for _ in range(rnd.randint(1, 3))]
        if kind == 3:
            cods[0] = replace(cods[0], a=dom.a + 1, b=dom.b + 1)
    homs = []
    for cod in cods:
        full = random_hom(rnd, dom, cod)
        keep = (("RR", "TT", "ZZ", "FF") if kind else
                [name for name in full.blocks() if rnd.random() < 0.6])
        homs.append(BlockHom(dom, cod, **{name: full.blocks()[name] for name in keep}))
    return Datum(dom, homs, [rnd.choice((F(3, 2), F(2), F(3)))] * len(homs))


def _normal_form_and_split(d):
    try:
        norm, why, parts = analyze(d)
    except NotProper as exc:
        return str(exc)
    return (norm.datum, norm.ledger, norm.obstruction, norm.quotient_map,
            why, parts)


def test_normal_form_and_split_match_reference(monkeypatch):
    import blca.structure
    import blca.subquot
    rnd = random.Random(18)
    seen = {"mixing": 0, "quotiented": 0, "torus_finite_kernel": 0,
            "obstructed": 0, "improper": 0}
    for i in range(300):
        d = _pin_datum(rnd, i % 4)
        ker = joint_kernel(d)
        ref_ker = _ref_stacked_kernel(d.domain, d.homs)
        assert ker.contains(ref_ker) and ref_ker.contains(ker)
        assert len(ker.gens) == len(ref_ker.gens)
        assert ker.lie_rank() == ref_ker.lie_rank()
        with monkeypatch.context() as mp:
            mp.setattr(blca.subquot, "is_proper", _ref_is_proper)
            mp.setattr(blca.subquot, "_quotient_by_joint_kernel",
                       _ref_quotient_by_joint_kernel)
            mp.setattr(blca.structure, "_sector_parts", _ref_sector_parts)
            want = _normal_form_and_split(d)
        got = _normal_form_and_split(d)
        assert got == want
        seen["mixing"] += any(any(any(row) for row in getattr(h, name))
                              for h in d.homs for name in MIXING_BLOCKS)
        if isinstance(got, str):
            seen["improper"] += 1
            continue
        quotiented = got[3] is not None
        seen["quotiented"] += quotiented
        seen["torus_finite_kernel"] += quotiented and i % 4 == 2
        seen["obstructed"] += got[2] is not None
    assert seen["mixing"] >= 50
    assert seen["quotiented"] >= 60
    assert seen["torus_finite_kernel"] >= 15
    assert 20 <= seen["obstructed"] <= 250
    assert seen["improper"] <= 200


# -- the direct quotient against the dual round trip ---------------------------
# The reference is the quotient as it was before it was taken directly:
# dualize every map, corestrict the adjoints onto the annihilator of the
# compact subgroup, and dualize back.  Its corestriction solves for each
# column with solve_integer in the adapted generators of _ref_structure.

def _ref_fold_discrete_haar(haar, c_new, k_new):
    if c_new and k_new:
        return haar
    if c_new:
        if haar.f_point == 1:
            return haar
        return HaarRecord(haar.vector_scale, haar.torus_total,
                          haar.z_point * haar.f_point, Fraction(1))
    if haar.z_point == 1:
        return haar
    return HaarRecord(haar.vector_scale, haar.torus_total, Fraction(1),
                      haar.z_point * haar.f_point)


def _ref_corestrict_open(h, lattice):
    cod = h.codomain
    free_cols, tors_cols, tors_orders = _ref_structure(lattice)
    c_new, k_new = len(free_cols), len(tors_orders)
    new_cod = ElementaryGroup(a=cod.a, b=cod.b, c=c_new, torsion=tuple(tors_orders),
                              haar=_ref_fold_discrete_haar(cod.haar, c_new, k_new))
    n = cod.c + cod.k
    solver_cols = list(free_cols) + list(tors_cols)
    for i, d in enumerate(lattice.orders):
        if d:
            solver_cols.append([d if j == i else 0 for j in range(n)])
    mat = from_columns(solver_cols, n)

    def rewrite(col):
        if not any(col):
            return [0] * c_new, [0] * k_new
        y = solve_integer(mat, col)
        assert y is not None
        return y[:c_new], [y[c_new + i] % tors_orders[i] for i in range(k_new)]

    zz = [[0] * h.domain.c for _ in range(c_new)]
    zf = [[0] * h.domain.c for _ in range(k_new)]
    ff = [[0] * h.domain.k for _ in range(k_new)]
    for i in range(h.domain.c):
        free, tors = rewrite([h.ZZ[r][i] for r in range(cod.c)]
                             + [h.ZF[r][i] for r in range(cod.k)])
        for r in range(c_new):
            zz[r][i] = free[r]
        for r in range(k_new):
            zf[r][i] = tors[r]
    for i in range(h.domain.k):
        _, tors = rewrite([0] * cod.c + [h.FF[r][i] for r in range(cod.k)])
        for r in range(k_new):
            ff[r][i] = tors[r]
    return BlockHom(h.domain, new_cod, RR=h.RR, RT=h.RT, TT=h.TT, ZR=h.ZR,
                    ZT=h.ZT, ZZ=zz, ZF=zf, FT=h.FT, FF=ff)


def _ref_lattice_inclusion_hom(lattice, ghat):
    """Inclusion of the open subgroup (full R and T sectors) x lattice, with
    the restricted measure."""
    free_cols, tors_cols, tors_orders = _ref_structure(lattice)
    c_new, k_new = len(free_cols), len(tors_orders)
    sub = ElementaryGroup(a=ghat.a, b=ghat.b, c=c_new, torsion=tuple(tors_orders),
                          haar=_ref_fold_discrete_haar(ghat.haar, c_new, k_new))
    return BlockHom(
        sub, ghat,
        RR=identity(ghat.a),
        TT=identity(ghat.b),
        ZZ=[[col[r] for col in free_cols] for r in range(ghat.c)],
        ZF=[[col[ghat.c + r] for col in free_cols] for r in range(ghat.k)],
        FF=[[col[ghat.c + r] for col in tors_cols] for r in range(ghat.k)])


def _ref_round_trip_quotient(d, N):
    g = d.domain
    ghat = dual_group(g)
    ann = _annihilator_of_compact_kernel(N, g)
    new_taus = [_ref_corestrict_open(adjoint_hom(h), ann) for h in d.homs]
    new_domain = dual_group(new_taus[0].codomain)
    new_homs = [adjoint_hom(t) for t in new_taus]
    quotient_map = adjoint_hom(_ref_lattice_inclusion_hom(ann, ghat))
    note = (f"quotiented the domain by its compact joint kernel "
            f"(lie rank {N.lie_rank()}, {len(N.gens)} discrete generators); "
            f"new domain {new_domain.describe()}, kernel normalized to total mass 1, "
            f"quotient carries the pushforward measure")
    return Datum(new_domain, new_homs, d.exponents), quotient_map, note


def _ref_reduce_transversal(d, k, n):
    """reduce_transversal's quotient by a compact n, as a round trip."""
    ann = _annihilator_of_compact_kernel(n, d.domain)
    new_homs = []
    for j, h in enumerate(d.homs):
        if j == k:
            image = _image_subgroup(h, n)
            ann_k = _annihilator_of_compact_kernel(image, h.codomain)
            incl_k = _ref_lattice_inclusion_hom(ann_k, dual_group(h.codomain))
            tau = adjoint_hom(h).compose(incl_k)
            new_homs.append(adjoint_hom(_ref_corestrict_open(tau, ann)))
        else:
            new_homs.append(adjoint_hom(_ref_corestrict_open(adjoint_hom(h), ann)))
    return Datum(new_homs[0].domain, new_homs, d.exponents)


def _torus_datum(rnd, with_sides):
    """A sector-diagonal datum on T^b, b = 1..3, with J = 1..4 maps of small
    windings; with_sides adds a vector and a free sector that the maps carry
    by the identity."""
    side = rnd.randint(0, 1) if with_sides else 0
    dom = ElementaryGroup(a=side, b=rnd.randint(1, 3), c=side,
                          haar=_random_haar(rnd))
    homs = []
    for _ in range(rnd.randint(1, 4)):
        cod = ElementaryGroup(a=side, b=rnd.randint(0, 2), c=side,
                              haar=_random_haar(rnd))
        tt = [[rnd.choice((0, 0, 1, -1, 2, -2, 3)) for _ in range(dom.b)]
              for _ in range(cod.b)]
        homs.append(BlockHom(dom, cod, RR=identity(side), TT=tt,
                             ZZ=identity(side)))
    return Datum(dom, homs, [rnd.choice((F(3, 2), F(2), F(3)))] * len(homs))


def _any_datum(rnd, i):
    """Every fifth datum from _torus_datum, the others from _pin_datum's four
    kinds in turn."""
    if i % 5 == 4:
        return _torus_datum(rnd, with_sides=i % 10 == 9)
    return _pin_datum(rnd, i % 4)


def _haar_records(d):
    return [d.domain.haar] + [h.codomain.haar for h in d.homs]


def _without_adjoints(mp):
    """Make adjoint_hom raise at every binding of it in blca."""
    def no_round_trip(h):
        raise AssertionError("the quotient took the dual round trip")

    bound = [mod for name, mod in list(sys.modules.items())
             if (name == "blca" or name.startswith("blca."))
             and getattr(mod, "adjoint_hom", None) is adjoint_hom]
    assert bound
    for mod in bound:
        mp.setattr(mod, "adjoint_hom", no_round_trip)


def _is_mixing(d):
    return any(any(map(any, getattr(h, name))) for h in d.homs for name in MIXING_BLOCKS)


def _stripped(d):
    """d with every mixing block dropped."""
    return Datum(d.domain, [BlockHom(h.domain, h.codomain, RR=h.RR, TT=h.TT,
                                     ZZ=h.ZZ, FF=h.FF) for h in d.homs],
                 d.exponents)


def test_duality_holds_on_mixing_data_as_given():
    # Fourier invariance, BL(d) = s(d) BL(d^), on proper data with mixing
    # blocks that have a dual form: the dual keeps the blocks, so the two
    # sides treat each of them differently, and every pair must agree or be
    # infinite on both sides
    rnd = random.Random(27)
    seen = {"finite": 0, "infinite": 0, "dual_mixing": 0, "kernel_moved": 0,
            "torus_gap": 0}
    i = 0
    while seen["finite"] + seen["infinite"] < 300:
        d = _pin_datum(rnd, 0) if i % 2 else _all_blocks_datum(rnd)
        i += 1
        if not (is_proper(d) and _is_mixing(d)) or make_nondegenerate(d).obstruction:
            continue
        chk = duality_check(d)
        assert chk.passed is True, (d.domain, d.homs, chk.primal, chk.dual)
        seen["infinite" if chk.primal.kind == INFINITE else "finite"] += 1
        seen["dual_mixing"] += _is_mixing(chk.dual_datum)
        stripped = _stripped(d)
        if is_proper(stripped):
            ker, plain = joint_kernel(d), joint_kernel(stripped)
            seen["kernel_moved"] += not (ker.contains(plain) and plain.contains(ker))
        seen["torus_gap"] += any(str(f.witness).endswith("through RT")
                                 for rep in (chk.primal, chk.dual)
                                 for f in rep.factors)
    assert seen["finite"] >= 25 and seen["dual_mixing"] >= 100, seen
    assert seen["kernel_moved"] >= 60 and seen["torus_gap"] >= 5, seen


# -- the torus part's RT report against a reference copy ---------------------
# _ref_torus_gap is the vector report a torus direction reached through RT
# gave before the torus part's ranks decided it: a scan of the normalized
# datum with a rational rank of each map's TT block.  _ref_factors prices a
# datum's parts with it, the way bl_constant did.

def _ref_torus_gap(d):
    for j, h in enumerate(d.homs):
        if (h.codomain.b and any(map(any, h.RT))
                and rational_rank(h.TT) < h.codomain.b):
            return FactorReport(
                "vector", INFINITE, math.inf, None, CERTIFIED,
                witness=f"map {j} reaches T^{h.codomain.b} through RT",
                notes=("a torus direction reached only from the vector sector "
                       "counts as a vector target dimension, and concentrating "
                       "near a point outruns the right-hand side",))
    return None


def _ref_factors(d):
    """bl_constant(d)'s factors, the vector one replaced by _ref_torus_gap
    unless it is INFINITE; None when d is priced before the split."""
    norm, why, parts = analyze(reduce_p_infinity(d))
    if why is not None:
        return None
    def price(name, fd, engine):
        return _TRIVIAL_REPORTS[name] if fd.domain is _EMPTY else engine(fd)
    torus_d, vector_d, finite_d, free_d = parts
    vector = price("vector", vector_d, _vector_factor)
    if vector.kind != INFINITE:
        vector = _ref_torus_gap(norm.datum) or vector
    return (price("torus", torus_d, lambda fd: _torus_factor(fd)[0]), vector,
            price("finite", finite_d, _finite_factor),
            price("free", free_d, _free_factor))


def test_torus_part_reports_rt_as_the_reference_scan():
    # the mixing data of the duality test and their duals: on a
    # nondegenerate datum [RT_j | TT_j] has full row rank, so a torus map
    # that is not onto is reached through RT, and the torus part's ranks
    # give the report the scan of the whole datum gave
    rnd = random.Random(27)
    priced = gaps = i = 0
    while priced < 300:
        d = _pin_datum(rnd, 0) if i % 2 else _all_blocks_datum(rnd)
        i += 1
        if not (is_proper(d) and _is_mixing(d)) or make_nondegenerate(d).obstruction:
            continue
        for side in (d, dual_datum(d)):
            want = _ref_factors(side)
            assert bl_constant(side).factors == (want or ()), side
            gaps += want is not None and str(want[1].witness).endswith("through RT")
        priced += 1
    assert gaps >= 5, gaps


def test_torus_quotient_matches_the_dual_round_trip(monkeypatch):
    # every kind of datum: a kernel with an identity component quotients
    # onto a smaller torus, the whole torus onto a weighted point, a finite
    # sector onto its adapted chain
    import blca.subquot

    rnd = random.Random(21)
    seen = {"finite_sector": 0, "mixing": 0, "finite_kernel": 0,
            "identity_component": 0, "whole_torus": 0, "weighted": 0}
    compared = i = 0
    while compared < 1000:
        d = _any_datum(rnd, i)
        i += 1
        if not is_proper(d):
            continue
        N = joint_kernel(d)
        if N.is_trivial():
            continue
        compared += 1
        want = _ref_round_trip_quotient(d, N)
        with monkeypatch.context() as mp:
            _without_adjoints(mp)
            got = blca.subquot._quotient_by_joint_kernel(d)
        assert got == want
        assert _haar_records(got[0]) == _haar_records(want[0])
        assert got[1].domain.haar == want[1].domain.haar
        assert got[1].codomain.haar == want[1].codomain.haar
        rank, b = N.lie_rank(), d.domain.b
        seen["finite_sector"] += d.domain.k > 0
        seen["mixing"] += _is_mixing(d)
        seen["finite_kernel"] += rank == 0
        seen["identity_component"] += 0 < rank < b
        seen["whole_torus"] += rank == b > 0
        seen["weighted"] += d.domain.haar != ElementaryGroup().haar
    assert seen["finite_sector"] >= 300 and seen["mixing"] >= 100, seen
    assert min(seen.values()) >= 50, seen


def test_properness_and_kernel_read_off_the_blocks():
    # the normal form decides properness by one rational rank and the compact
    # kernel through its annihilator; both must say what the joint kernel
    # itself says
    rnd = random.Random(23)
    seen = {"mixing": 0, "improper": 0, "nontrivial": 0}
    for i in range(3000):
        d = _all_blocks_datum(rnd) if i % 2 else _any_datum(rnd, i // 2)
        N = joint_kernel(d)
        report = is_proper(d)
        assert report.noncompact_rank == N.noncompact_rank()
        seen["mixing"] += _is_mixing(d)
        if not report:
            seen["improper"] += 1
            continue
        got = _quotient_by_joint_kernel(d)
        assert (got is None) == N.is_trivial()
        if got is not None:
            seen["nontrivial"] += 1
            assert f", {len(N.gens)} discrete generators)" in got[2]
    assert min(seen.values()) >= 800, seen


def test_reduce_transversal_matches_the_dual_round_trip(monkeypatch):
    # n is the joint kernel of every map but the k-th, compact and nontrivial
    rnd = random.Random(22)
    seen = {"finite_sector": 0, "mixing": 0, "target_quotiented": 0}
    compared = i = 0
    while compared < 1000:
        d = _any_datum(rnd, i)
        i += 1
        if d.J < 2:
            continue
        k = rnd.randrange(d.J)
        others = Datum(d.domain, d.homs[:k] + d.homs[k + 1:],
                       d.exponents[:k] + d.exponents[k + 1:])
        n = joint_kernel(others)
        if n.is_trivial() or not n.is_compact():
            continue
        compared += 1
        want = _ref_reduce_transversal(d, k, n)
        with monkeypatch.context() as mp:
            _without_adjoints(mp)
            got = reduce_transversal(d, k, n)
        assert got == want
        assert _haar_records(got) == _haar_records(want)
        seen["finite_sector"] += d.domain.k > 0
        seen["mixing"] += _is_mixing(d)
        seen["target_quotiented"] += got.homs[k].codomain != d.homs[k].codomain
    assert seen["finite_sector"] >= 300 and min(seen.values()) >= 50, seen


def test_image_subgroup_decides_what_a_map_kills():
    # reduce_transversal asks whether a map kills n by mapping n; building
    # the map's kernel and testing containment is the reference
    def sparse_hom(rnd, dom):
        full = random_hom(rnd, dom, random_group(rnd))
        return BlockHom(dom, full.codomain, **{name: blk for name, blk
                                              in full.blocks().items()
                                              if rnd.random() < 0.5})

    rnd = random.Random(24)
    seen = {True: 0, False: 0}
    for i in range(2000):
        dom = random_group(rnd)
        h = sparse_hom(rnd, dom)
        homs = [sparse_hom(rnd, dom) for _ in range(rnd.randint(1, 2))]
        if i % 3 == 0:
            homs.append(h)
        n = joint_kernel(Datum(dom, homs, [F(2)] * len(homs)))
        kills = kernel_info(h).contains(n)
        assert _image_subgroup(h, n).is_trivial() == kills
        seen[kills] += 1
    assert min(seen.values()) >= 500, seen


def test_finite_sector_kernel_keeps_the_adapted_order():
    # the quotient's torus coordinates follow the adapted generators of the
    # annihilator, which list its Hermite basis (1, 3), (0, 6) in another order
    g = ElementaryGroup(b=2, torsion=(2,))
    d = Datum(g, [BlockHom(g, T, TT=[[2, 0]]), BlockHom(g, T, TT=[[1, 3]]),
                  BlockHom(g, Z2, FF=[[1]])], [F(2)] * 3)
    N = joint_kernel(d)
    assert not N.is_trivial()
    res = make_nondegenerate(d)
    assert res.quotient_map.TT == [[0, 6], [1, 3]]
    want, quotient_map, note = _ref_round_trip_quotient(d, N)
    assert res.datum == want and res.quotient_map == quotient_map
    assert res.ledger[0] == note
    for h, h0 in zip(res.datum.homs, d.homs):
        assert h.compose(res.quotient_map) == h0


# -- the split's reuse of a one-sector datum ----------------------------------

def test_one_sector_datum_is_its_own_part():
    T2 = ElementaryGroup(b=2)
    T2w = ElementaryGroup(b=2, haar=HaarRecord(torus_total=F(5)))
    K = ElementaryGroup(torsion=(2, 2))
    Z2free = ElementaryGroup(c=2)
    cases = [
        (0, Datum(T2, [BlockHom(T2, T, TT=[[1, 0]]), BlockHom(T2, T, TT=[[0, 1]])],
                  [F(2)] * 2)),
        # a scale of the part's own sector is kept by the part
        (0, Datum(T2w, [BlockHom(T2w, T, TT=[[1, 1]]), BlockHom(T2w, T, TT=[[0, 1]])],
                  [F(2)] * 2)),
        (1, Datum(R2, [BlockHom(R2, R, RR=[[1, 0]]), BlockHom(R2, R, RR=[[0, 1]]),
                       BlockHom(R2, R, RR=[[1, 1]])], [F(3, 2)] * 3)),
        (2, Datum(K, [BlockHom(K, Z2, FF=[[1, 0]]), BlockHom(K, Z2, FF=[[0, 1]])],
                  [F(2)] * 2)),
        (3, Datum(Z2free, [BlockHom(Z2free, Z, ZZ=[[1, 0]]),
                           BlockHom(Z2free, Z, ZZ=[[0, 1]])], [F(2)] * 2)),
    ]
    for pos, d in cases:
        parts = _sector_parts(d)
        assert parts[pos] is d
        assert parts == _ref_sector_parts(d)
        assert all(p is not d for i, p in enumerate(parts) if i != pos)


def test_a_foreign_scale_rebuilds_the_part():
    # R^2 whose record carries a point mass of the finite sector: the vector
    # part is rebuilt at unit scales, and the finite part keeps the mass
    heavy = ElementaryGroup(a=2, haar=HaarRecord(f_point=F(3)))
    d = Datum(heavy, [BlockHom(heavy, R, RR=[[1, 0]]), BlockHom(heavy, R, RR=[[0, 1]]),
                      BlockHom(heavy, R, RR=[[1, 1]])], [F(3, 2)] * 3)
    parts = _sector_parts(d)
    assert parts[1] is not d
    assert parts[1].domain == R2
    assert parts[2].domain.haar.f_point == 3
    assert parts == _ref_sector_parts(d)
    # the same for a target whose record carries a free point mass
    heavy_target = ElementaryGroup(a=1, haar=HaarRecord(z_point=F(2)))
    d = Datum(R2, [BlockHom(R2, heavy_target, RR=[[1, 0]]), BlockHom(R2, R, RR=[[0, 1]])],
              [F(2)] * 2)
    parts = _sector_parts(d)
    assert parts[1] is not d
    assert parts[1].homs[0].codomain == R
    assert parts == _ref_sector_parts(d)


# -- the one shared part of the absent sectors ---------------------------------

_SECTORS = (("b", "torus_total", "TT"), ("a", "vector_scale", "RR"),
            ("torsion", "f_point", "FF"), ("c", "z_point", "ZZ"))


def _absent_sectors(d):
    """The sectors, by their position in the split, that the domain and
    every target lack, with scale 1 in each of their records."""
    return [i for i, (dim, scale, _) in enumerate(_SECTORS)
            if all(not getattr(g, dim) and getattr(g.haar, scale) == 1
                   for g in (d.domain,) + d.targets)]


def _one_sector_datum(rnd, pos):
    """A datum at unit scales on the sector at position pos of the split."""
    dim, _, block = _SECTORS[pos]

    def group():
        size = rnd.choice(CHAINS[1:]) if dim == "torsion" else rnd.randint(1, 3)
        return ElementaryGroup(**{dim: size})
    dom = group()
    homs = []
    for _ in range(rnd.randint(1, 4)):
        cod = group()
        homs.append(BlockHom(dom, cod, **{block: random_hom(rnd, dom, cod).blocks()[block]}))
    return Datum(dom, homs, [rnd.choice((F(3, 2), F(2), F(3)))] * len(homs))


def _reference_report(monkeypatch, d):
    import blca.structure
    with monkeypatch.context() as mp:
        mp.setattr(blca.structure, "_sector_parts", _ref_sector_parts)
        return bl_constant(d)


def test_absent_sectors_share_one_empty_part(monkeypatch):
    # a sector absent from the domain and from every target, at scale 1 in
    # every record, gets the one part on _EMPTY; every part equals the one
    # the reference builds afresh
    rnd = random.Random(18)
    data = [_pin_datum(rnd, i % 4) for i in range(300)]
    for d in list(data):
        try:
            norm, why, _ = analyze(d)
        except NotProper:
            continue
        if why is None and norm.datum is not d:
            data.append(norm.datum)
    rnd = random.Random(25)
    one_sector = [_one_sector_datum(rnd, i % 4) for i in range(200)]
    seen = {"absent": 0, "present": 0, "shared": 0, "drawn_absent": 0}
    for n, d in enumerate(data + one_sector):
        parts = _sector_parts(d)
        assert parts == _ref_sector_parts(d)
        absent = _absent_sectors(d)
        for i, part in enumerate(parts):
            assert (part.domain is _EMPTY) == (i in absent)
        assert len({id(parts[i]) for i in absent}) <= 1
        seen["absent"] += len(absent)
        seen["present"] += 4 - len(absent)
        seen["shared"] += len(absent) >= 2
        seen["drawn_absent"] += len(absent) if n < len(data) else 0
    for i, d in enumerate(one_sector):
        pos = i % 4
        parts = _sector_parts(d)
        others = [p for j, p in enumerate(parts) if j != pos]
        assert parts[pos] is d
        assert others[0] is others[1] is others[2]
        assert others[0].homs == (others[0].homs[0],) * d.J
        assert others[0].exponents == d.exponents
    assert seen["absent"] >= 500 and seen["present"] >= 1000
    assert seen["shared"] >= 150 and seen["drawn_absent"] >= 25

    # a finite point mass on R^2 keeps the finite part built, with its scale
    heavy = ElementaryGroup(a=2, haar=HaarRecord(f_point=F(3)))
    d = Datum(heavy, [BlockHom(heavy, R, RR=[[1, 0]]), BlockHom(heavy, R, RR=[[0, 1]]),
                      BlockHom(heavy, R, RR=[[1, 1]])], [F(3, 2)] * 3)
    parts = _sector_parts(d)
    assert parts == _ref_sector_parts(d)
    assert parts[2].domain is not _EMPTY and parts[2].domain.haar.f_point == 3
    assert parts[0] is parts[3] and parts[0].domain is _EMPTY

    # R^1 -> T^1 by RT: the torus part has a trivial domain but a target, so
    # it is built and priced; its map 0 -> T^1 is not onto, so its factor is
    # infinite whatever the scale on that target
    for scale in (F(1), F(4)):
        circle = ElementaryGroup(b=1, haar=HaarRecord(torus_total=scale))
        d = Datum(R, [BlockHom(R, circle, RT=[[F(1, 2)]]), BlockHom(R, R, RR=[[2]])],
                  [2, 2])
        parts = _sector_parts(d)
        assert parts == _ref_sector_parts(d)
        assert parts[0].domain is not _EMPTY
        assert parts[0].targets == (circle, pt)
        assert parts[2] is parts[3] and parts[2].domain is _EMPTY
        rep = bl_constant(d)
        assert rep.to_dict() == _reference_report(monkeypatch, d).to_dict()
        assert (rep.factors[0].kind, rep.factors[0].witness) == (
            INFINITE, "map 0 is not onto T^1")


def test_the_one_sector_split_builds_nothing(monkeypatch):
    # a datum with one present sector is its own part and the others share
    # the empty part, so the split constructs no group and no map
    import blca.subquot
    built = {"groups": 0, "maps": 0}

    def counting(cls, key):
        def construct(*args, **kwargs):
            built[key] += 1
            return cls(*args, **kwargs)
        return construct
    rnd = random.Random(26)
    data = [_one_sector_datum(rnd, i % 4) for i in range(200)]
    monkeypatch.setattr(blca.subquot, "ElementaryGroup",
                        counting(ElementaryGroup, "groups"))
    monkeypatch.setattr(blca.subquot, "BlockHom", counting(BlockHom, "maps"))
    for i, d in enumerate(data):
        parts = _sector_parts(d)
        assert parts[i % 4] is d
    assert built == {"groups": 0, "maps": 0}
    # the wrappers count: a datum with two present sectors builds its parts
    d = Datum(R, [BlockHom(R, ElementaryGroup(b=1), RT=[[F(1, 2)]]),
                  BlockHom(R, R, RR=[[2]])], [2, 2])
    _sector_parts(d)
    assert built["groups"] > 0 and built["maps"] > 0
