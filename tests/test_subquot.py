"""Kernel quotients, corestrictions, and the four-factor splitting."""
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from blca.errors import Degenerate, NotProper
from blca.groups import ElementaryGroup, HaarRecord, dual_group
from blca.homs import (MIXING_BLOCKS, BlockHom, ClosedSubgroup, Datum,
                       GroupElement, adjoint_hom, is_proper, is_surjective,
                       joint_kernel)
from blca.intmat import (clear_denominators, hermite_basis, identity,
                         integer_kernel, rational_kernel, solve_rational,
                         transpose)
from blca.structure import analyze
from blca.subquot import (_annihilator_of_compact_kernel, _is_nondegenerate,
                          _sector_parts, corestrict_open,
                          discrete_image_lattice, kernel_embedding,
                          lattice_inclusion_hom, make_nondegenerate,
                          merge_finite_coordinates)
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
    assert res.datum == d
    assert res.ledger == ()
    assert make_nondegenerate(res.datum).datum == res.datum


def test_idempotent_after_quotient():
    g = ElementaryGroup(a=1, b=1)
    nd = make_nondegenerate(Datum(g, [BlockHom(g, R, RR=[[F(1)]])],
                                  [F(2)])).datum
    again = make_nondegenerate(nd)
    assert again.datum == nd and again.ledger == ()


def test_non_open_image_warned_not_fixed():
    line = BlockHom(R, R2, RR=[[F(1)], [F(0)]])
    keep = BlockHom(R, R, RR=[[F(1)]])
    res = make_nondegenerate(Datum(R, [keep, line], [F(2), F(2)]))
    assert res.datum.homs[1] == line
    assert any("not open" in line_ for line_ in res.ledger)
    assert res.obstruction == "map 1 is not surjective"


def test_recorded_obstruction_matches_a_fresh_check():
    # random proper data with sector-mixing blocks: whatever make_nondegenerate
    # records is what checking its output from scratch finds
    rnd = random.Random(7)
    seen = quotiented = obstructed = 0
    while seen < 300:
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
        d = Datum(dom, homs, [F(2)] * len(homs))
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


def test_corestrict_open_rejects_escaping_image():
    # into 2Z, and into the trivial lattice, which has no generator to solve for
    h = BlockHom(Z, Z, ZZ=[[1]])
    for k in (2, 0):
        lat = discrete_image_lattice(BlockHom(Z, Z, ZZ=[[k]]))
        with pytest.raises(Degenerate):
            corestrict_open(h, lat)


def test_merge_finite_coordinates():
    chain, gens = merge_finite_coordinates([2, 4])
    assert list(chain) == [2, 4]
    assert len(gens) == 2
    # coprime blocks merge into one cyclic factor
    chain2, gens2 = merge_finite_coordinates([2, 3])
    assert list(chain2) == [6]
    assert len(gens2) == 1
    assert merge_finite_coordinates([]) == ([], [])


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


# -- the normal form and split against reference copies ----------------------
# _ref_stacked_kernel is the joint kernel by one coupled elimination over all
# sectors, and _ref_sector_parts builds every part's groups and maps afresh.
# The pipeline's own versions must give the same datum, ledger, obstruction,
# quotient map and parts on every datum below.

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
    import blca.homs
    import blca.structure
    rnd = random.Random(18)
    seen = {"mixing": 0, "quotiented": 0, "torus_finite_kernel": 0,
            "obstructed": 0, "improper": 0}
    for i in range(300):
        d = _pin_datum(rnd, i % 4)
        ker = joint_kernel(d)
        with monkeypatch.context() as mp:
            mp.setattr(blca.homs, "_stacked_kernel", _ref_stacked_kernel)
            mp.setattr(blca.structure, "_sector_parts", _ref_sector_parts)
            ref_ker = joint_kernel(d)
            want = _normal_form_and_split(d)
        assert ker.contains(ref_ker) and ref_ker.contains(ker)
        assert len(ker.gens) == len(ref_ker.gens)
        assert ker.lie_rank() == ref_ker.lie_rank()
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


# -- the direct torus quotient against the dual round trip --------------------
# _ref_round_trip_quotient is the kernel quotient every datum took before the
# direct torus quotient: dualize every map, corestrict the adjoints onto the
# annihilator of the joint kernel, and dualize back.

def _ref_round_trip_quotient(d, N):
    g = d.domain
    ghat = dual_group(g)
    ann = _annihilator_of_compact_kernel(N, g)
    new_taus = [corestrict_open(adjoint_hom(h), ann) for h in d.homs]
    new_domain = dual_group(new_taus[0].codomain)
    new_homs = [adjoint_hom(t) for t in new_taus]
    quotient_map = adjoint_hom(lattice_inclusion_hom(ann, ghat))
    note = (f"quotiented the domain by its compact joint kernel "
            f"(lie rank {N.lie_rank()}, {len(N.gens)} discrete generators); "
            f"new domain {new_domain.describe()}, kernel normalized to total mass 1, "
            f"quotient carries the pushforward measure")
    return Datum(new_domain, new_homs, d.exponents), quotient_map, note


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


def _haar_records(d):
    return [d.domain.haar] + [h.codomain.haar for h in d.homs]


def test_torus_quotient_matches_the_dual_round_trip(monkeypatch):
    # the rank-r annihilator is handled directly: a kernel with an identity
    # component quotients onto T^r, the whole torus onto a weighted point
    import blca.subquot

    def no_round_trip(h):
        raise AssertionError("the direct torus quotient took the round trip")

    rnd = random.Random(21)
    seen = {"finite": 0, "identity_component": 0, "whole_torus": 0,
            "weighted_torus": 0, "sides": 0}
    compared = 0
    while compared < 400:
        d = _torus_datum(rnd, with_sides=compared % 4 == 3)
        N = joint_kernel(d)
        if N.is_trivial():
            continue
        compared += 1
        want = _ref_round_trip_quotient(d, N)
        with monkeypatch.context() as mp:
            mp.setattr(blca.subquot, "adjoint_hom", no_round_trip)
            got = blca.subquot._quotient_by_joint_kernel(d, N)
        assert got == want
        assert _haar_records(got[0]) == _haar_records(want[0])
        assert got[1].domain.haar == want[1].domain.haar
        assert got[1].codomain.haar == want[1].codomain.haar
        rank = N.lie_rank()
        seen["finite"] += rank == 0
        seen["identity_component"] += 0 < rank < d.domain.b
        seen["whole_torus"] += rank == d.domain.b
        seen["weighted_torus"] += d.domain.haar.torus_total != 1
        seen["sides"] += d.domain.a > 0
    assert min(seen.values()) >= 25, seen


def test_finite_sector_kernel_takes_the_round_trip():
    # a domain with a finite sector keeps the round trip, whose adapted basis
    # lists the torus coordinates in its own order
    g = ElementaryGroup(b=2, torsion=(2,))
    d = Datum(g, [BlockHom(g, T, TT=[[2, 0]]), BlockHom(g, T, TT=[[1, 3]]),
                  BlockHom(g, Z2, FF=[[1]])], [F(2)] * 3)
    N = joint_kernel(d)
    assert not N.is_trivial()
    res = make_nondegenerate(d)
    # the Hermite basis of the annihilator's torus part is (1, 3), (0, 6)
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
