"""Independent lower-bound and discretization probes."""
import math
import random
from fractions import Fraction

import pytest

from blca.errors import DimensionTooLarge, TooLarge
from blca.finite import enumerate_subgroups, subgroup_bl_constant
from blca.groups import ElementaryGroup
from blca.homs import BlockHom, Datum
from blca.oracle import (FunctionTuple, _elements, _small_subgroups,
                         alternating_maximization, bl_form,
                         discretized_compact_check, scalar_gaussian_probe)
from test_groups import image_under

F = Fraction

K = ElementaryGroup(torsion=(2, 2))
Z2 = ElementaryGroup(torsion=(2,))
R1 = ElementaryGroup(a=1)
R2 = ElementaryGroup(a=2)
T = ElementaryGroup(b=1)
T2 = ElementaryGroup(b=2)


def klein_datum():
    return Datum(K, [BlockHom(K, Z2, FF=[[1, 0]]),
                     BlockHom(K, Z2, FF=[[0, 1]])], [F(2), F(2)])


def young_torus():
    homs = [BlockHom(T2, T, TT=[[1, 0]]), BlockHom(T2, T, TT=[[0, 1]]),
            BlockHom(T2, T, TT=[[1, 1]])]
    return Datum(T2, homs, [F(3, 2)] * 3)


def test_bl_form_values():
    d = klein_datum()
    ones = FunctionTuple.build(d, [[1, 1], [1, 1]])
    assert bl_form(d, ones) == 4.0
    delta = FunctionTuple.build(d, [[1, 0], [1, 1]])
    assert bl_form(d, delta) == 2.0


def test_alternating_matches_exact_on_klein():
    d = klein_datum()
    exact = float(subgroup_bl_constant(d).value)
    est = alternating_maximization(d, seed=1)
    assert abs(est - exact) < 1e-7
    assert est <= exact + 1e-9


def test_alternating_holder_cyclic():
    z5 = ElementaryGroup(torsion=(5,))
    idm = BlockHom(z5, z5, FF=[[1]])
    d = Datum(z5, [idm, idm], [F(2), F(2)])
    assert abs(alternating_maximization(d, seed=0) - 1.0) < 1e-9


def test_alternating_never_beats_exact():
    rnd = random.Random(7)
    z8 = ElementaryGroup(torsion=(8,))
    z4 = ElementaryGroup(torsion=(4,))
    for trial in range(6):
        h1 = BlockHom(z8, z4, FF=[[rnd.choice([0, 1, 2, 3])]])
        h2 = BlockHom(z8, z8, FF=[[rnd.choice([0, 1, 2, 3, 4, 5])]])
        d = Datum(z8, [h1, h2], [F(rnd.choice([2, 3])), F(3, 2)])
        lo = alternating_maximization(d, seed=trial)
        hi = float(subgroup_bl_constant(d).value)
        assert lo <= hi + 1e-9


def test_indicator_of_argmax_attains_constant():
    d = klein_datum()
    res = subgroup_bl_constant(d)
    fs = []
    for h in d.homs:
        img = image_under(res.argmax, h.FF, h.codomain.torsion)
        fs.append([1.0 if img.contains([u]) else 0.0 for u in range(2)])
    ft = FunctionTuple.build(d, fs)
    ratio = bl_form(d, ft) / (ft.norms[0] * ft.norms[1])
    assert abs(ratio - float(res.value)) < 1e-12


def test_scalar_probe_young():
    maps = [BlockHom(R2, R1, RR=[[F(1), F(0)]]),
            BlockHom(R2, R1, RR=[[F(0), F(1)]]),
            BlockHom(R2, R1, RR=[[F(1), F(1)]])]
    d = Datum(R2, maps, [F(3, 2)] * 3)
    assert abs(scalar_gaussian_probe(d) - math.sqrt(3) / 2) < 1e-4


def test_scalar_probe_holder():
    idm = BlockHom(R1, R1, RR=[[F(1)]])
    d = Datum(R1, [idm, idm], [F(2), F(2)])
    assert abs(scalar_gaussian_probe(d) - 1.0) < 1e-6


def test_scalar_probe_divergence():
    maps = [BlockHom(R2, R1, RR=[[F(1), F(0)]]),
            BlockHom(R2, R1, RR=[[F(0), F(1)]])]
    d = Datum(R2, maps, [F(2), F(2)])
    assert scalar_gaussian_probe(d) == math.inf


def test_scalar_probe_dimension_guard():
    with pytest.raises(DimensionTooLarge):
        scalar_gaussian_probe(Datum(R2, [BlockHom.identity(R2)], [F(2)]))


def test_discretized_holder_is_one():
    idt = BlockHom(T, T, TT=[[1]])
    d = Datum(T, [idt, idt], [F(2), F(2)])
    assert abs(discretized_compact_check(1, 16, d) - 1.0) < 1e-9


def test_discretized_young_chain_increases_to_one():
    d = young_torus()
    vals = [discretized_compact_check(2, n, d) for n in (4, 8, 16)]
    assert vals[0] <= vals[1] + 1e-12 and vals[1] <= vals[2] + 1e-12
    assert all(v <= 1 + 1e-6 for v in vals)
    assert vals[-1] > 0.95


def test_discretized_single_map():
    d = Datum(T2, [BlockHom(T2, T, TT=[[1, 1]])], [F(21, 20)])
    assert abs(discretized_compact_check(2, 8, d) - 1.0) < 1e-9


def test_discretized_detects_blowup():
    homs = [BlockHom(T2, T, TT=[[1, 0]]), BlockHom(T2, T, TT=[[0, 1]]),
            BlockHom(T2, T, TT=[[1, 1]])]
    bad = Datum(T2, homs, [F(21, 20)] * 3)
    g1 = discretized_compact_check(2, 4, bad)
    g2 = discretized_compact_check(2, 16, bad)
    assert g2 > g1 * 2
    # the point mass at the trivial subgroup drives the rate exactly
    assert abs(g2 - 16 ** (6 / 7)) < 1e-6


def test_discretized_size_guard():
    with pytest.raises(TooLarge):
        discretized_compact_check(2, 1000, young_torus())


def test_warm_start_subgroups_match_the_enumerator():
    # the oracle finds its small subgroups from element tables alone; they
    # must be exactly the enumerated subgroups of order <= 64
    for orders in [(2,), (6,), (2, 2), (4, 4), (2, 2, 2, 2), (2, 4, 8), (16, 16), (3, 27)]:
        g = ElementaryGroup(torsion=orders)
        elements = _elements(g)
        want = {frozenset(el for el in elements if sub.contains(list(el)))
                for sub, size in enumerate_subgroups(g) if size <= 64}
        got = _small_subgroups(g)
        assert len(got) == len(want) and set(got) == want, orders
