"""End-to-end decision pipeline, reductions, and the duality identity."""
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from blca.errors import BadSubgroup, EmptyDatum, NotUnitExponent
from blca.exact import ExactValue
from blca.groups import ElementaryGroup, HaarRecord
from blca.homs import BlockHom, ClosedSubgroup, Datum
from blca.intmat import det_rational
from blca.structure import (_TRIVIAL_REPORTS, FINITE, INFINITE, UNKNOWN,
                            ExponentReduction, analyze, bl_constant, dual_datum,
                            duality_check, reduce_exponents, reduce_p_infinity,
                            reduce_p_one, reduce_transversal, verify)
from blca.subquot import _EMPTY
from test_finite import _random_finite_datum

F = Fraction

T = ElementaryGroup(b=1)
T2 = ElementaryGroup(b=2)
R1 = ElementaryGroup(a=1)
R2 = ElementaryGroup(a=2)
Z1 = ElementaryGroup(c=1)
Z2g = ElementaryGroup(c=2)
K = ElementaryGroup(torsion=(2, 2))
C2 = ElementaryGroup(torsion=(2,))


def young_datum():
    return Datum(R2, [BlockHom(R2, R1, RR=[[1, 0]]),
                      BlockHom(R2, R1, RR=[[0, 1]]),
                      BlockHom(R2, R1, RR=[[1, 1]])], [F(3, 2)] * 3)


def test_holder_circle_exact_one():
    d = Datum(T, [BlockHom(T, T, TT=[[1]]), BlockHom(T, T, TT=[[1]])], [2, 2])
    rep = bl_constant(d)
    assert rep.kind == FINITE
    assert rep.exact is not None and rep.exact.as_fraction() == 1
    assert rep.certification == "exact"


def test_axes_of_z2_infinite_with_witness():
    d = Datum(Z2g, [BlockHom(Z2g, Z1, ZZ=[[1, 0]]),
                    BlockHom(Z2g, Z1, ZZ=[[0, 1]])], [2, 2])
    rep = bl_constant(d)
    assert rep.kind == INFINITE
    assert rep.certification == "certified"
    assert any(f.name == "free" and f.kind == INFINITE for f in rep.factors)
    assert rep.witnesses
    assert rep.total == math.inf


def test_line_times_klein_four():
    rk = ElementaryGroup(a=1, torsion=(2, 2))
    rt = ElementaryGroup(a=1, torsion=(2,))
    s1 = BlockHom(rk, rt, RR=[[1]], FF=[[1, 0]])
    s2 = BlockHom(rk, rt, RR=[[1]], FF=[[0, 1]])
    rep = bl_constant(Datum(rk, [s1, s2], [2, 2]))
    assert rep.kind == FINITE
    assert abs(rep.value - 2.0) < 1e-8
    fin = [f for f in rep.factors if f.name == "finite"][0]
    assert fin.exact is not None and fin.exact.as_fraction() == 2


def test_all_infinite_exponents():
    rep = bl_constant(Datum(T, [BlockHom(T, T, TT=[[1]])], [None]))
    assert rep.kind == FINITE and rep.exact.as_fraction() == 1
    assert not rep.factors
    rep = bl_constant(Datum(R1, [BlockHom(R1, R1, RR=[[1]])], [None]))
    assert rep.kind == INFINITE


def test_torus_young_near_one_infinite():
    homs = [BlockHom(T2, T, TT=[[1, 0]]), BlockHom(T2, T, TT=[[0, 1]]),
            BlockHom(T2, T, TT=[[1, 1]])]
    rep = bl_constant(Datum(T2, homs, [F(21, 20)] * 3))
    assert rep.kind == INFINITE
    assert any(f.name == "torus" and f.kind == INFINITE for f in rep.factors)
    rep2 = bl_constant(Datum(T2, homs, [2, 2, 2]))
    assert rep2.kind == FINITE and rep2.exact.as_fraction() == 1


def test_non_open_image_infinite():
    rep = bl_constant(Datum(Z1, [BlockHom(Z1, R1, ZR=[[1]])], [2]))
    assert rep.kind == INFINITE and rep.certification == "certified"


def test_klein_p_one_primal_and_reduced():
    d = Datum(K, [BlockHom(K, C2, FF=[[1, 0]]), BlockHom(K, C2, FF=[[0, 1]])],
              [1, F(3, 2)])
    want = float(ExactValue.of(2) ** F(1, 3))
    rep = bl_constant(d)
    assert rep.exact is not None and abs(rep.value - want) < 1e-12
    # the vector part is R^0 at unit scale: exactly 1, with no fold notes
    vector = [f for f in rep.factors if f.name == "vector"][0]
    assert (vector.exact, vector.notes) == (ExactValue.one(), ())
    red = reduce_p_one(d, 0)
    assert abs(bl_constant(red).value - want) < 1e-12


def test_weighted_reduction_carries_kernel_mass():
    kw = replace(K, haar=HaarRecord(f_point=F(3)))
    ta = replace(C2, haar=HaarRecord(f_point=F(5)))
    tb = replace(C2, haar=HaarRecord(f_point=F(7)))
    d = Datum(kw, [BlockHom(kw, ta, FF=[[1, 0]]),
                   BlockHom(kw, tb, FF=[[0, 1]])], [1, 2])
    want = 6.0 / (5.0 * math.sqrt(14.0))
    assert abs(bl_constant(d).value - want) < 1e-12
    red = reduce_p_one(d, 0)
    assert red.domain.torsion == (2,)
    assert red.domain.haar.f_point == F(3, 5)
    assert abs(bl_constant(red).value - want) < 1e-12


def test_vector_p_one_cascade():
    d = Datum(R2, [BlockHom(R2, R1, RR=[[1, 0]]),
                   BlockHom(R2, R1, RR=[[0, 1]])], [1, 1])
    rep = bl_constant(d)
    assert rep.kind == FINITE and rep.exact.as_fraction() == 1
    mid = reduce_p_one(d, 0)
    assert mid.J == 1 and mid.exponents == (F(1),)
    with pytest.raises(EmptyDatum) as exc:
        reduce_p_one(mid, 0)
    assert exc.value.resolution == 1


def test_reduce_p_one_guards():
    d = Datum(K, [BlockHom(K, C2, FF=[[1, 0]]),
                  BlockHom(K, C2, FF=[[0, 1]])], [2, 2])
    with pytest.raises(NotUnitExponent):
        reduce_p_one(d, 0)
    single = Datum(K, [BlockHom(K, C2, FF=[[1, 0]])], [1])
    with pytest.raises(EmptyDatum) as exc:
        reduce_p_one(single, 0)
    assert exc.value.resolution == 2


def test_transversal_noncompact_blows_up():
    d = Datum(R2, [BlockHom(R2, R1, RR=[[1, 0]]),
                   BlockHom(R2, R1, RR=[[0, 1]])], [2, 2])
    n = ClosedSubgroup(R2, [[F(0), F(1)]], [])
    assert reduce_transversal(d, 1, n) == math.inf
    with pytest.raises(BadSubgroup):
        reduce_transversal(d, 0, n)  # map 1 does not kill n
    triv = ClosedSubgroup(R2, [], [])
    assert reduce_transversal(d, 1, triv) is d


def test_transversal_compact_preserves_constant():
    d = Datum(T2, [BlockHom(T2, T, TT=[[1, 0]]),
                   BlockHom(T2, T, TT=[[0, 1]])], [2, 2])
    n = ClosedSubgroup(T2, [[F(1), F(0)]], [])
    out = reduce_transversal(d, 0, n)
    assert isinstance(out, Datum)
    assert out.domain.b == 1
    before, after = bl_constant(d), bl_constant(out)
    assert before.kind == after.kind == FINITE
    assert abs(before.value - after.value) < 1e-12


def test_reduce_p_infinity_drops_indices():
    d = Datum(T, [BlockHom(T, T, TT=[[1]]), BlockHom(T, T, TT=[[1]])],
              [2, None])
    d2 = reduce_p_infinity(d)
    assert d2.J == 1 and d2.exponents == (F(2),)
    assert bl_constant(d).exact.as_fraction() == 1


FOLD = "removed unit-exponent index 0 by restricting to its kernel"
LAST = "removed the last unit-exponent index; the value is the mass of its kernel"


def test_reduce_exponents_ledger():
    d = Datum(R2, [BlockHom(R2, R1, RR=[[1, 0]]), BlockHom(R2, R1, RR=[[0, 2]]),
                   BlockHom(R2, R1, RR=[[1, 1]])], [1, 1, None])
    assert reduce_exponents(d) == ExponentReduction(
        None, F(1, 2), ("dropped 1 index(es) with infinite exponent", FOLD, LAST))
    # the kernel of the last map is a line, whose mass is infinite
    line = Datum(R2, [BlockHom(R2, R1, RR=[[1, 0]])], [1])
    assert reduce_exponents(line) == ExponentReduction(None, math.inf, (LAST,))
    young = young_datum()
    assert reduce_exponents(young) == ExponentReduction(young, None, ())
    every = Datum(T, [BlockHom(T, T, TT=[[1]])], [None])
    red = reduce_exponents(every)
    assert (red.datum, red.resolution) == (None, 1)
    assert red.ledger == ("every exponent is infinite; the inequality compares "
                          "the domain mass against the constant",)


def test_reduce_exponents_stops_at_a_non_open_image():
    # after folding index 0, map 0 is the zero map R -> R
    d = Datum(R2, [BlockHom(R2, R1, RR=[[1, 0]]), BlockHom(R2, R1, RR=[[1, 0]]),
                   BlockHom(R2, R1, RR=[[0, 1]])], [1, 1, 2])
    red = reduce_exponents(d)
    assert red.datum.exponents == (1, 2) and red.ledger == (FOLD,)
    assert red.blocked == ("left index 0 in place: map 0 has an image that is "
                           "not open, which forces an infinite constant at "
                           "any finite exponent")
    # the vector report names the map, and keeps blocked out of its notes
    vector = [f for f in bl_constant(d).factors if f.name == "vector"][0]
    assert vector.kind == INFINITE
    assert vector.witness == "map 0 has image a proper subspace"
    assert vector.notes[:-1] == (FOLD,)
    # a kernel that mixes sectors has a model too: the index folds, and the
    # constant stays
    g = ElementaryGroup(b=1, torsion=(2,))
    mixing = Datum(g, [BlockHom(g, T, TT=[[1]], FT=[[F(1, 2)]]),
                       BlockHom(g, T, TT=[[1]]), BlockHom(g, C2, FF=[[1]])],
                   [1, 2, 2])
    red = reduce_exponents(mixing)
    assert FOLD in red.ledger
    want, got = bl_constant(mixing), bl_constant(red.datum)
    assert (got.kind, got.exact) == (want.kind, want.exact)
    assert red.blocked is None


def test_reduction_preserves_the_constant():
    # the finite engine prices p = 1 directly, so the two sides share no fold
    rng = random.Random(5)
    resolved = reduced = 0
    for _ in range(80):
        d = _random_finite_datum(rng)
        exps = list(d.exponents)
        exps[rng.randrange(d.J)] = F(1)
        d = Datum(d.domain, d.homs, exps)
        want = bl_constant(d)
        assert want.kind == FINITE
        red = reduce_exponents(d)
        assert red.blocked is None
        if red.datum is None:
            resolved += 1
            assert want.exact == ExactValue.of(red.resolution)
        else:
            reduced += 1
            assert 1 not in red.datum.exponents
            assert bl_constant(red.datum).exact == want.exact
    assert resolved >= 10 and reduced >= 30
    # n independent rank-one maps at p = 1 on R^n resolve to 1/|det B|
    for n in (1, 2, 3, 4):
        rn = ElementaryGroup(a=n)
        for _ in range(5):
            rows = [[0] * n for _ in range(n)]
            while not det_rational(rows):
                rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            d = Datum(rn, [BlockHom(rn, R1, RR=[row]) for row in rows], [1] * n)
            want = 1 / abs(det_rational(rows))
            assert reduce_exponents(d).resolution == want
            assert bl_constant(d).exact == ExactValue.of(want)


def test_dual_of_circle_holder():
    d = Datum(T, [BlockHom(T, T, TT=[[1]]), BlockHom(T, T, TT=[[1]])], [2, 2])
    dd = dual_datum(d)
    assert (dd.domain.a, dd.domain.b, dd.domain.c) == (0, 0, 1)
    assert dd.exponents == (F(2), F(2))
    vals = [h.ZZ[0][0] for h in dd.homs]
    assert sorted(abs(v) for v in vals) == [1, 1]
    assert vals[0] * vals[1] < 0
    assert abs(bl_constant(dd).value - 1.0) < 1e-12
    chk = duality_check(d)
    assert chk.passed is True
    assert abs(chk.ratio - 1.0) < 1e-9


def test_young_duality():
    rep = bl_constant(young_datum())
    want = math.sqrt(3.0) / 2.0
    assert rep.kind == FINITE and abs(rep.value - want) < 1e-6
    chk = duality_check(young_datum(), tol=1e-4)
    assert chk.passed is True
    assert abs(chk.scale - want) < 1e-12
    assert abs(chk.dual.value - 1.0) < 1e-6


def test_duality_both_infinite():
    d = Datum(Z2g, [BlockHom(Z2g, Z1, ZZ=[[1, 0]]),
                    BlockHom(Z2g, Z1, ZZ=[[0, 1]])], [2, 2])
    chk = duality_check(d)
    assert chk.passed is True and chk.ratio is None


def test_duality_finite_exact():
    d = Datum(K, [BlockHom(K, C2, FF=[[1, 0]]), BlockHom(K, C2, FF=[[0, 1]])],
              [2, 2])
    chk = duality_check(d)
    assert chk.passed is True
    assert chk.ratio == 1.0
    assert chk.scale == 1.0
    assert chk.primal.value == 2.0 and chk.dual.value == 2.0


def test_duality_without_a_dual_is_inconclusive():
    # improper: the joint kernel is the line e2, so the primal is infinite and
    # there is no dual datum to compare it with
    d = Datum(R2, [BlockHom(R2, R1, RR=[[1, 0]])], [2])
    chk = duality_check(d)
    assert chk.passed is None and chk.rhs is None and chk.ratio is None
    assert (chk.primal.kind, chk.primal.certification) == (INFINITE, "certified")
    assert chk.dual.kind == UNKNOWN
    assert chk.notes == ("dual datum unavailable: joint kernel has noncompact rank 1",)


def test_mixed_product_of_sectors():
    m = ElementaryGroup(a=1, b=1)
    hm = BlockHom(m, m, RR=[[1]], TT=[[1]])
    rep = bl_constant(Datum(m, [hm, hm], [2, 2]))
    assert rep.kind == FINITE and abs(rep.value - 1.0) < 1e-7


def test_sector_mixing_dual_preserves_constant():
    tk = ElementaryGroup(b=1, torsion=(2,))
    mix1 = BlockHom(tk, T, TT=[[1]], FT=[[F(1, 2)]])
    mix2 = BlockHom(tk, T, TT=[[2]], FT=[[F(1, 2)]])
    d = Datum(tk, [mix1, mix2], [2, 2])
    rep = bl_constant(d)
    assert rep.kind == FINITE and rep.exact.as_fraction() == 2
    assert bl_constant(dual_datum(d)).kind == FINITE
    chk = duality_check(d)
    assert chk.passed is True


def test_a_torus_direction_reached_through_rt_is_infinite():
    # R x Z/2 with x -> x mod 1 into T, the identity onto R x Z/2 and x -> x
    # onto R, all at p = 2.  Split by blocks, the other parts are finite and
    # the torus part is 0 -> T^1, a map that is not onto, but f0 = eps^(-1/2)
    # on [0, eps] in T, f1 the same at u = 0 and f2 the same on R have unit
    # norms and the integral eps^(-1/2): the constant is infinite, and so is
    # the dual's
    g = ElementaryGroup(a=1, torsion=(2,))
    d = Datum(g, [BlockHom(g, T, RT=[[1]]),
                  BlockHom(g, ElementaryGroup(a=1, torsion=(2,)), RR=[[1]], FF=[[1]]),
                  BlockHom(g, R1, RR=[[1]])], [2, 2, 2])
    rep = bl_constant(d)
    assert (rep.kind, rep.certification) == (INFINITE, "certified")
    vector = rep.factors[1]
    assert (vector.kind, vector.witness) == (INFINITE, "map 0 reaches T^1 through RT")
    assert [f.kind for f in rep.factors] == [INFINITE, INFINITE, FINITE, FINITE]
    assert rep.factors[0].witness == "map 0 is not onto T^1"
    chk = duality_check(d)
    assert chk.passed is True and chk.dual.kind == INFINITE


def test_the_rt_report_runs_no_ascent(monkeypatch):
    # R^2 with x -> x_1 / 2 into T^1 at p = 2 and Young's maps at p = 3/2:
    # the vector part alone is Young's finite datum, but map 0 reaches T^1
    # only through RT, so the vector factor is the torus part's RT report and
    # the gaussian ascent is never started
    import blca.gaussian
    calls = []
    ascend = blca.gaussian._ascend

    def counted(*args):
        calls.append(1)
        return ascend(*args)
    monkeypatch.setattr(blca.gaussian, "_ascend", counted)
    d = Datum(R2, [BlockHom(R2, T, RT=[[F(1, 2), 0]]),
                   BlockHom(R2, R1, RR=[[1, 0]]),
                   BlockHom(R2, R1, RR=[[0, 1]]),
                   BlockHom(R2, R1, RR=[[1, 1]])], [2] + [F(3, 2)] * 3)
    torus, vector = bl_constant(d).factors[:2]
    assert (torus.kind, torus.witness) == (INFINITE, "map 0 is not onto T^1")
    assert (vector.kind, vector.witness) == (INFINITE,
                                             "map 0 reaches T^1 through RT")
    assert calls == []
    assert bl_constant(young_datum()).kind == FINITE and len(calls) == 1
    # the same report where the vector part's folds resolve to a mass
    d = Datum(R1, [BlockHom(R1, T, RT=[[F(1, 2)]]),
                   BlockHom(R1, R1, RR=[[2]])], [1, 1])
    assert reduce_exponents(analyze(d)[2][1]).resolution == F(1, 2)
    assert bl_constant(d).factors[1] == vector


def test_parts_present_only_through_a_scale():
    # trivial groups whose Haar scales cancel: each such part is built,
    # priced by its own engine, and reports what the shared report says
    for name, dim, scale in (("torus", "b", "torus_total"),
                             ("finite", "torsion", "f_point"),
                             ("free", "c", "z_point")):
        heavy = ElementaryGroup(a=1, haar=HaarRecord(**{scale: F(3)}))
        light = ElementaryGroup(haar=HaarRecord(**{scale: F(3)}))
        d = Datum(heavy, [BlockHom(heavy, light), BlockHom(heavy, R1, RR=[[1]]),
                          BlockHom(heavy, R1, RR=[[1]])], [1, 2, 2])
        parts = analyze(d)[2]
        i = ("torus", "vector", "finite", "free").index(name)
        assert parts[i].domain is not _EMPTY, name
        assert not getattr(parts[i].domain, dim), name
        assert parts[i].haar_factor() == 1, name
        assert bl_constant(d).factors[i] == _TRIVIAL_REPORTS[name], name

    # the vector part of Z/2 at vector scale 2 onto Z/2 at vector scale 2
    # (p = 1) and onto Z/2 (p = 2) folds its unit exponent, and says so
    dom = ElementaryGroup(torsion=(2,), haar=HaarRecord(vector_scale=F(2)))
    d = Datum(dom, [BlockHom(dom, dom, FF=[[1]]), BlockHom(dom, C2, FF=[[1]])],
              [1, 2])
    vector = bl_constant(d).factors[1]
    assert (vector.kind, vector.value, vector.certification) == (FINITE, 1.0,
                                                                 "exact")
    assert vector.notes == (FOLD,)


def test_finite_report_holds_no_copies():
    k = ElementaryGroup(torsion=(2, 4))
    s1 = BlockHom(k, ElementaryGroup(torsion=(2,)), FF=[[1, 0]])
    s2 = BlockHom(k, ElementaryGroup(torsion=(4,)), FF=[[0, 1]])
    rep = bl_constant(Datum(k, [s1, s2], [F(3, 2), F(3, 2)]))
    assert rep.kind == FINITE
    fin = [f for f in rep.factors if f.name == "finite"][0]
    assert rep.exact is fin.exact
    assert all(f.exact is ExactValue.one() for f in rep.factors if f is not fin)
    assert not any(hasattr(r, "__dict__") for r in (rep,) + rep.factors)


def test_vector_reports_share_their_trivial_parts():
    from blca.structure import _finite_factor, _free_factor, _torus_factor
    a, b = bl_constant(young_datum()), bl_constant(young_datum())
    assert a.kind == FINITE
    shared = [(fa, fb) for fa, fb in zip(a.factors, b.factors) if fa.name != "vector"]
    assert len(shared) == 3 and all(fa is fb for fa, fb in shared)
    # each shared report is the one its sector's engine computes
    torus_d, _, finite_d, free_d = analyze(young_datum())[2]
    assert [fa for fa, _ in shared] == [
        _torus_factor(torus_d)[0], _finite_factor(finite_d), _free_factor(free_d)]
    # a unit Haar scale is required: a scaled trivial part gets its own report
    scaled = ElementaryGroup(a=2, haar=HaarRecord(f_point=F(3)))
    d = Datum(scaled, [BlockHom(scaled, R1, RR=[[1, 0]]), BlockHom(scaled, R1, RR=[[0, 1]]),
                       BlockHom(scaled, R1, RR=[[1, 1]])], [F(3, 2)] * 3)
    fin = [f for f in bl_constant(d).factors if f.name == "finite"][0]
    assert fin.exact.as_fraction() == 3 and fin is not shared[1][0]


def big_elementary_datum():
    # (Z/2)^17 has order 131072, past the finite search's fixed bound
    g = ElementaryGroup(torsion=(2,) * 17)
    ident = [[int(r == i) for i in range(17)] for r in range(17)]
    return Datum(g, [BlockHom(g, g, FF=ident), BlockHom(g, C2, FF=[[1] * 17])],
                 [F(2), F(3)])


def test_finite_part_past_the_bound_is_unknown():
    rep = bl_constant(big_elementary_datum())
    fin = [f for f in rep.factors if f.name == "finite"][0]
    assert (rep.kind, fin.kind, fin.certification) == (UNKNOWN, UNKNOWN, "heuristic")
    assert fin.notes == ("group order 131072 exceeds the bound 100000",)
    rep, rows = verify(big_elementary_datum())
    row = [r for r in rows if r["part"] == "finite"][0]
    assert (rep.kind, row["status"], row["note"]) == (UNKNOWN, "skipped",
                                                       "factor is UNKNOWN")


def test_verify_all_infinite_exponents_has_no_rows():
    rep, rows = verify(Datum(T, [BlockHom(T, T, TT=[[1]])], [None]))
    assert (rep.kind, rep.factors, rows) == (FINITE, (), [])


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_tolerance_must_be_positive_and_finite(tol):
    d = Datum(T, [BlockHom(T, T, TT=[[1]]), BlockHom(T, T, TT=[[1]])], [2, 2])
    with pytest.raises(ValueError, match="positive finite"):
        verify(d, tol=tol)
    with pytest.raises(ValueError, match="positive finite"):
        duality_check(d, tol=tol)


def test_verify_checks_the_parts_bl_constant_priced():
    # the sum map at p = inf is dropped before pricing, so the finite part
    # has exponents 2, 2 and its oracle runs
    d = Datum(K, [BlockHom(K, C2, FF=[[1, 0]]), BlockHom(K, C2, FF=[[0, 1]]),
                  BlockHom(K, C2, FF=[[1, 1]])], [F(2), F(2), None])
    rep, rows = verify(d)
    assert rep.kind == FINITE and rep.exact.as_fraction() == 2
    fin = [r for r in rows if r["part"] == "finite"][0]
    assert fin["status"] == "ok" and fin["pipeline"] == 2.0


def test_verify_reads_the_probe_as_a_lower_bound_at_a_critical_subspace():
    # span(1, -1) is critical: the last two maps kill it and the first two
    # give 1 = dim/2 + dim/2, so the gaussian supremum is not attained and
    # the scalar grid stays well below 1/sqrt(6)
    d = Datum(R2, [BlockHom(R2, R1, RR=[row])
                   for row in ([-2, -3], [-2, 1], [1, 1], [2, 2])], [F(2)] * 4)
    rep, rows = verify(d)
    assert rep.kind == FINITE
    assert abs(rep.value - 1 / math.sqrt(6)) < 1e-9
    vec = [r for r in rows if r["part"] == "vector"][0]
    assert vec["status"] == "ok"
    assert vec["oracle"] < 0.9 * vec["pipeline"]
    assert vec["note"] == "scalar gaussian grid lower bound (critical subspace)"


def test_verify_reads_the_critical_subspace_from_the_priced_verdict(monkeypatch):
    import blca.rank
    import blca.structure
    calls = []

    # every verdict, through rank_condition or a factor's own call, is one
    # _decide
    def counted(*args, **kwargs):
        calls.append(1)
        return decide(*args, **kwargs)

    decide = blca.rank._decide
    for mod in (blca.rank, blca.structure):
        monkeypatch.setattr(mod, "_decide", counted)
    rep, rows = verify(young_datum())
    vec = [r for r in rows if r["part"] == "vector"][0]
    assert (rep.kind, vec["status"]) == (FINITE, "ok")
    assert len(calls) == 1


def test_free_to_finite_block_is_priced():
    # Z x Z/2 with the free coordinate sent to Z and to (1, 0) in Z/2 x Z/2:
    # the Z/2 factor is a compact joint kernel, and the quotient runs through
    # the adjoint of the free-to-finite block
    g = ElementaryGroup(c=1, torsion=(2,))
    d = Datum(g, [BlockHom(g, Z1, ZZ=[[1]]),
                  BlockHom(g, ElementaryGroup(torsion=(2, 2)), ZF=[[1], [0]])],
              [F(2), F(2)])
    norm, why, parts = analyze(d)
    assert why is None and norm.datum.domain.describe() == "Z^1"
    rep = bl_constant(d)
    assert (rep.kind, rep.certification, rep.witnesses) == (
        INFINITE, "certified", (((1,),),))
    assert dual_datum(d).exponents == (F(2), F(2))


def test_dual_datum_checks_nondegeneracy_once(monkeypatch):
    import blca.homs
    import blca.subquot
    calls = {"kernel": 0, "proper": 0, "quotient": 0}

    def counted(mod, name, key):
        fn = getattr(mod, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(mod, name, wrapper)

    counted(blca.homs, "_stacked_kernel", "kernel")
    counted(blca.subquot, "is_proper", "proper")
    counted(blca.subquot, "_quotient_by_joint_kernel", "quotient")
    klein = Datum(K, [BlockHom(K, C2, FF=[[1, 0]]), BlockHom(K, C2, FF=[[0, 1]])],
                  [F(2), F(2)])
    dual_datum(klein)
    # properness and the kernel quotient once each, read off the maps'
    # blocks with no joint kernel; make_nondegenerate records what it
    # leaves behind
    assert calls == {"kernel": 0, "proper": 1, "quotient": 1}


def test_report_shape():
    rep = bl_constant(young_datum())
    doc = rep.to_dict()
    assert doc["kind"] == FINITE
    assert isinstance(doc["factors"], list)
    assert {"FINITE", "INFINITE", "UNKNOWN"} == {FINITE, INFINITE, UNKNOWN}


def test_improper_datum_is_certified_infinite_with_reason():
    d = Datum(R2, [BlockHom(R2, R1, RR=[[1, 0]]), BlockHom(R2, R1, RR=[[0, 1]])],
              [2, "inf"])
    rep = bl_constant(d)
    assert (rep.kind, rep.certification, rep.factors) == (INFINITE, "certified", ())
    assert rep.ledger == ("dropped 1 index(es) with infinite exponent",
                          "joint kernel has noncompact rank 1")
    assert rep.witnesses == ("joint kernel has noncompact rank 1",)


def test_pipeline_runs_each_check_once(monkeypatch):
    import blca.homs
    import blca.structure
    import blca.subquot
    calls = {"kernel": 0, "proper": 0, "quotient": 0, "open": 0, "lattice": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(blca.homs, "_stacked_kernel",
                        counted("kernel", blca.homs._stacked_kernel))
    monkeypatch.setattr(blca.subquot, "is_proper",
                        counted("proper", blca.subquot.is_proper))
    monkeypatch.setattr(blca.subquot, "_quotient_by_joint_kernel",
                        counted("quotient",
                                blca.subquot._quotient_by_joint_kernel))
    is_open = counted("open", blca.homs.image_is_open)
    for mod in (blca.subquot, blca.structure):
        monkeypatch.setattr(mod, "image_is_open", is_open)
    monkeypatch.setattr(blca.subquot, "discrete_image_lattice",
                        counted("lattice", blca.homs.discrete_image_lattice))
    assert bl_constant(young_datum()).kind == FINITE
    # properness and the kernel quotient once each with no joint kernel,
    # and each map's openness once, all inside make_nondegenerate; a map
    # with no discrete sector needs no image lattice
    assert calls == {"kernel": 0, "proper": 1, "quotient": 1, "open": 3, "lattice": 0}
    # Z -> Z by 2 and by 3: each map's openness and image lattice once,
    # in the one corestrict_open call that takes it onto its image
    calls.update(kernel=0, proper=0, quotient=0, open=0, lattice=0)
    free = Datum(Z1, [BlockHom(Z1, Z1, ZZ=[[2]]), BlockHom(Z1, Z1, ZZ=[[3]])], [2, 2])
    rep = bl_constant(free)
    assert sum("corestricted" in line for line in rep.ledger) == 2
    assert calls == {"kernel": 0, "proper": 1, "quotient": 1, "open": 2, "lattice": 2}
    # a fold decides its map's openness once: reduce_exponents scans every
    # map, then kernel_embedding takes map k onto its image through the one
    # corestrict_open call, with no is_surjective check.  Count every binding,
    # is_surjective's own calls included
    for mod in (blca.homs, blca.subquot, blca.structure):
        monkeypatch.setattr(mod, "image_is_open", is_open)
    lattice = counted("lattice", blca.homs.discrete_image_lattice)
    onto = counted("surjective", blca.homs.is_surjective)
    for mod in (blca.homs, blca.subquot):
        monkeypatch.setattr(mod, "discrete_image_lattice", lattice)
        monkeypatch.setattr(mod, "is_surjective", onto)
    rz = ElementaryGroup(a=1, c=1)
    fold = Datum(rz, [BlockHom(rz, rz, RR=[[1]], ZZ=[[2]]),
                      BlockHom(rz, R1, RR=[[1]], ZR=[[1]])], [1, 2])
    calls.update(kernel=0, proper=0, quotient=0, open=0, lattice=0, surjective=0)
    red = reduce_exponents(fold)
    assert red.ledger == (FOLD,)
    assert calls == {"kernel": 0, "proper": 0, "quotient": 0, "open": 3, "lattice": 1,
                     "surjective": 0}
    # the R^3 cascade: the normal form decides the three maps once, then
    # three folds scan 3, 2 and 1 maps and corestrict each folded one
    R3 = ElementaryGroup(a=3)
    cascade = Datum(R3, [BlockHom(R3, R1, RR=[r]) for r in ([1, 2, 0], [0, 1, 3], [1, 0, 1])],
                    [1, 1, 1])
    calls.update(open=0, lattice=0, proper=0, quotient=0)
    rep = bl_constant(cascade)
    assert rep.exact == ExactValue.of(F(1, 7))
    assert calls["open"] == 12 and calls["surjective"] == 0


def test_pipeline_builds_each_group_once(monkeypatch):
    # the normal form and split build each group and map once: a datum that
    # lives in one sector at unit scales is its own part, every absent sector
    # shares the one empty part on the constant zero map, and a record at
    # unit scales is the shared one
    counts = {"HaarRecord": 0, "BlockHom": 0}

    def counted(cls):
        init = cls.__init__

        def wrapper(self, *args, **kwargs):
            counts[cls.__name__] += 1
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", wrapper)

    # the windings (2, 0), (0, 2), (1, 1) kill the order-2 point (1/2, 1/2)
    torus = Datum(T2, [BlockHom(T2, T, TT=[[2, 0]]), BlockHom(T2, T, TT=[[0, 2]]),
                       BlockHom(T2, T, TT=[[1, 1]])], [F(3, 2)] * 3)
    young = young_datum()
    counted(HaarRecord)
    counted(BlockHom)
    assert bl_constant(young).kind == FINITE
    # the vector part is the datum itself; the torus, finite and free
    # sectors are absent, and their one shared part builds no map
    assert counts == {"HaarRecord": 0, "BlockHom": 0}
    counts.update(HaarRecord=0, BlockHom=0)
    rep = bl_constant(torus)
    assert rep.kind == FINITE and "2 discrete generators" in rep.ledger[0]
    # the kernel quotient builds the three maps out of T^2 / N and the
    # quotient map; the split then keeps the quotient datum as its torus part
    # and gives the absent vector, finite and free sectors the shared part
    assert counts == {"HaarRecord": 0, "BlockHom": 4}


def test_reports_share_their_notes_and_ledger():
    # a caller that keeps many reports holds one copy of each distinct note
    # and ledger line
    finite = Datum(K, [BlockHom(K, C2, FF=[[1, 0]]), BlockHom(K, C2, FF=[[0, 1]]),
                       BlockHom(K, C2, FF=[[1, 1]])], [F(3, 2)] * 3)
    corestricted = Datum(R1, [BlockHom(R1, R1, RR=[[1]]),
                              BlockHom(R1, ElementaryGroup(a=1, c=1), RR=[[1]])],
                         [2, 2])
    for d in (finite, corestricted, young_datum()):
        first, second = bl_constant(d), bl_constant(d)
        lines = [(f.notes, g.notes) for f, g in zip(first.factors, second.factors)]
        lines.append((first.ledger, second.ledger))
        assert any(a for a, _ in lines)
        for a, b in lines:
            assert a == b and all(x is y for x, y in zip(a, b))


def test_exact_sectors_do_not_load_numpy():
    # numpy is imported only where floats are optimized over; importing the
    # package and pricing finite data must not load it
    import os
    import subprocess
    import sys
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = """
import sys
from fractions import Fraction
import blca, blca.cli
print(blca.bl_constant(blca.cli.load_datum(sys.argv[1])).exact)
G = blca.ElementaryGroup(torsion=(3, 9))
homs = [blca.BlockHom(G, blca.ElementaryGroup(torsion=(9,)), FF=[[3, 1]]),
        blca.BlockHom(G, blca.ElementaryGroup(torsion=(3,)), FF=[[1, 1]])]
print(blca.bl_constant(blca.Datum(G, homs, [Fraction(3, 2), Fraction(3)])).exact)
print('numpy' in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run([sys.executable, "-c", script, os.path.join(root, "data", "klein4.json")],
                          capture_output=True, text=True, env=env, timeout=60, check=True)
    klein, finite, numpy_loaded = done.stdout.split("\n")[:3]
    assert (klein, finite) == ("2", "3^(4/3)")
    assert numpy_loaded == "False"


def test_vector_sectors_do_not_load_numpy():
    # the gaussian ascent works on Python floats: pricing a vector datum, its
    # duality check, and an ascent with two-row block steps must not load
    # numpy either
    import os
    import subprocess
    import sys
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = """
import sys
from fractions import Fraction
import blca, blca.cli
d = blca.cli.load_datum(sys.argv[1])
print(f"{blca.bl_constant(d).value:.12g}")
print(blca.duality_check(d).passed)
R3, R2 = blca.ElementaryGroup(a=3), blca.ElementaryGroup(a=2)
frame = [[[0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 1]],
         [[1, 0, 0], [0, 1, 0]], [[1, -1, 0], [1, 0, -1]]]
homs = [blca.BlockHom(R3, R2, RR=m) for m in frame]
rep = blca.bl_constant(blca.Datum(R3, homs, [Fraction(8, 3)] * 4))
print(any('converged' in note for f in rep.factors if f.name == 'vector' for note in f.notes))
print('numpy' in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    young = os.path.join(root, "data", "young_r.json")
    done = subprocess.run([sys.executable, "-c", script, young],
                          capture_output=True, text=True, env=env, timeout=60, check=True)
    young, dual, frame, numpy_loaded = done.stdout.split("\n")[:4]
    assert (young, dual, frame) == ("0.866025403784", "True", "True")
    assert numpy_loaded == "False"


# -- the vector and free parts' rank-decided reports -------------------------

FRAME3 = [[[0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 1]],
          [[1, 0, 0], [0, 1, 0]], [[1, -1, 0], [1, 0, -1]]]


def _factor(rep, name):
    return next(f for f in rep.factors if f.name == name)


def test_vector_part_infinite_by_the_rank_condition():
    # homogeneous (2 = 3 * 2/3), but the line e2 meets the kernels of the
    # first two maps and pays only 2/3 for its dimension 1
    d = Datum(R2, [BlockHom(R2, R1, RR=[[1, 0]]), BlockHom(R2, R1, RR=[[2, 0]]),
                   BlockHom(R2, R1, RR=[[0, 1]])], [F(3, 2)] * 3)
    rep = bl_constant(d)
    assert (rep.kind, rep.certification) == (INFINITE, "certified")
    vec = _factor(rep, "vector")
    assert (vec.kind, vec.certification) == (INFINITE, "certified")
    assert vec.witness == ((0, 1),)
    assert vec.notes == ("rank condition fails at the witness subspace",)
    assert rep.witnesses == (((0, 1),),)


def test_vector_part_infinite_by_homogeneity():
    # the rank condition holds on the line (1 <= 2 * 2/3), but the two sides
    # scale differently: 1 != 4/3
    d = Datum(R1, [BlockHom(R1, R1, RR=[[1]]), BlockHom(R1, R1, RR=[[2]])],
              [F(3, 2)] * 2)
    rep = bl_constant(d)
    assert (rep.kind, rep.certification) == (INFINITE, "certified")
    vec = _factor(rep, "vector")
    assert (vec.kind, vec.certification) == (INFINITE, "certified")
    assert vec.notes == ("homogeneity fails: the scaling degree of the two "
                         "sides differs, so no finite constant exists",)
    # the rank condition has no violating subspace; the dilations witness it
    assert vec.witness == "dilations of R^1"
    assert rep.witnesses == ("dilations of R^1",)


def test_vector_part_on_an_uncertified_closure_is_heuristic():
    # the projective frame in Q^3: the closure is cut at its cap, so the
    # finiteness the ascent prices is not certified
    R3 = ElementaryGroup(a=3)
    d = Datum(R3, [BlockHom(R3, R2, RR=m) for m in FRAME3], [F(8, 3)] * 4)
    rep = bl_constant(d)
    assert (rep.kind, rep.certification) == (UNKNOWN, "heuristic")
    vec = _factor(rep, "vector")
    assert (vec.kind, vec.certification, vec.witness) == (FINITE, "heuristic", None)
    assert vec.notes == ("finiteness rests on an uncertified rank search",
                         "gaussian ascent converged after 17 sweeps")


def test_free_part_on_an_uncertified_closure_is_heuristic():
    Z3, Z2t = ElementaryGroup(c=3), ElementaryGroup(c=2)
    d = Datum(Z3, [BlockHom(Z3, Z2t, ZZ=m) for m in FRAME3], [F(8, 3)] * 4)
    rep = bl_constant(d)
    assert (rep.kind, rep.certification) == (UNKNOWN, "heuristic")
    free = _factor(rep, "free")
    assert (free.kind, free.certification, free.witness) == (FINITE, "heuristic", None)
    assert free.exact == ExactValue.one()
    assert free.notes == ("the rank search found no violation but could not "
                          "certify completeness; the value assumes the "
                          "condition holds",)


def _witness_dimensions(rep):
    return [len(f.witness) if isinstance(f.witness, tuple) else f.witness
            for f in rep.factors]


def test_rational_scaling_of_the_maps_scales_the_constant():
    # the vector items of the rank_search benchmark (seed 1, blocks 0-3) with
    # map j scaled by a non-integer rational c_j: the maps keep their kernels
    # and images, so the verdict, its certification and the witness subspaces'
    # dimensions stay, and the constant picks up prod_j |c_j|^(-m_j/p_j),
    # m_j the dimension of target j (the change of variables in each target)
    import os
    import sys
    import blca
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if root not in sys.path:
        sys.path.insert(0, root)
    from bench import workloads
    rnd = random.Random(7)
    scales = [F(1, 2), F(-3, 2), F(2, 3), F(5, 7), F(-7, 4), F(9, 5)]
    seen = {}
    for s in [s for block in range(4) for s in workloads.rank_search_block(1, block)
              if s["sector"] == "R"]:
        d = workloads.build_rank(blca, s)
        cs = [rnd.choice(scales) for _ in d.homs]
        scaled = Datum(d.domain, [BlockHom(d.domain, h.codomain, RR=[[c * x for x in row]
                                                                       for row in h.RR])
                                  for h, c in zip(d.homs, cs)], d.exponents)
        rep, got = bl_constant(d), bl_constant(scaled)
        assert (got.kind, got.certification) == (rep.kind, rep.certification), s
        assert _witness_dimensions(got) == _witness_dimensions(rep), s
        if rep.kind == FINITE:
            factor = math.prod(abs(float(c)) ** (-len(h.RR) / float(p))
                               for h, c, p in zip(d.homs, cs, d.exponents))
            assert abs(got.value - factor * rep.value) <= 1e-8 * factor * rep.value, s
        key = s["stratum"].split("_", 1)[1]
        seen[key] = seen.get(key, 0) + 1
    # generic, critical (boundary), infinite (parallel, shared) and mixed-rank
    assert set(seen) == {"generic", "boundary", "parallel", "mixed_generic",
                         "mixed_shared"}, seen
