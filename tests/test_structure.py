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
from blca.structure import (FINITE, INFINITE, UNKNOWN, ExponentReduction,
                            analyze, bl_constant, dual_datum, duality_check,
                            reduce_exponents, reduce_p_infinity, reduce_p_one,
                            reduce_transversal, verify)
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
    # a kernel that mixes sectors has no model: Degenerate leaves it in place
    g = ElementaryGroup(b=1, torsion=(2,))
    mixing = Datum(g, [BlockHom(g, T, TT=[[1]], FT=[[F(1, 2)]]),
                       BlockHom(g, T, TT=[[1]]), BlockHom(g, C2, FF=[[1]])],
                   [1, 2, 2])
    red = reduce_exponents(mixing)
    assert (red.datum, red.ledger) == (mixing, ())
    assert red.blocked.startswith("left index 0 in place: kernel model needs "
                                  "a sector-diagonal map")


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
        _torus_factor(torus_d), _finite_factor(finite_d), _free_factor(free_d)]
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
    import blca.gaussian
    import blca.rank
    import blca.structure
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return rank_condition(*args, **kwargs)

    rank_condition = blca.rank.rank_condition
    for mod in (blca.gaussian, blca.rank, blca.structure):
        monkeypatch.setattr(mod, "rank_condition", counted)
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
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return stacked(*args, **kwargs)

    stacked = blca.homs._stacked_kernel
    monkeypatch.setattr(blca.homs, "_stacked_kernel", counted)
    klein = Datum(K, [BlockHom(K, C2, FF=[[1, 0]]), BlockHom(K, C2, FF=[[0, 1]])],
                  [F(2), F(2)])
    dual_datum(klein)
    # properness only: make_nondegenerate records what it leaves behind
    assert len(calls) == 1


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
    calls = {"kernel": 0, "surjective": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(blca.homs, "_stacked_kernel",
                        counted("kernel", blca.homs._stacked_kernel))
    surjective = counted("surjective", blca.homs.is_surjective)
    for mod in (blca.subquot, blca.structure):
        monkeypatch.setattr(mod, "is_surjective", surjective)
    assert bl_constant(young_datum()).kind == FINITE
    # properness once, each map's surjectivity once, all inside
    # make_nondegenerate
    assert calls == {"kernel": 1, "surjective": 3}


def test_pipeline_builds_each_group_once(monkeypatch):
    # the normal form and split build each group and map once: a part that
    # is trivial in every group shares one zero map per distinct target, and
    # a record at unit scales is the shared one
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
    # the three vector maps, and one zero map for each trivial part
    assert counts == {"HaarRecord": 0, "BlockHom": 6}
    counts.update(HaarRecord=0, BlockHom=0)
    rep = bl_constant(torus)
    assert rep.kind == FINITE and "2 discrete generators" in rep.ledger[0]
    # 11 maps for the kernel quotient (three adjoints, their corestrictions,
    # three adjoints back, the annihilator's inclusion and its adjoint) and
    # 6 for the split
    assert counts == {"HaarRecord": 0, "BlockHom": 17}


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
                         "gaussian ascent converged after 38 sweeps")


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
