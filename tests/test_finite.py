"""Exact optimization over subgroups of finite groups."""
import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from blca import finite
from blca.errors import ShapeMismatch, TooLarge
from blca.exact import ExactValue
from blca.finite import (FiniteResult, enumerate_subgroups, subgroup_bl_constant,
                         tower_limit)
from blca.groups import ElementaryGroup, HaarRecord, LatticeSubgroup
from blca.homs import BlockHom, Datum
from blca.structure import bl_constant, dual_datum
from test_groups import finite_size, image_under

F = Fraction

K = ElementaryGroup(torsion=(2, 2))
C2 = ElementaryGroup(torsion=(2,))
Z4 = ElementaryGroup(torsion=(4,))


def klein_datum(p=(2, 2)):
    return Datum(K, [BlockHom(K, C2, FF=[[1, 0]]),
                     BlockHom(K, C2, FF=[[0, 1]])], list(p))


def test_enumerate_subgroups_counts():
    assert len(enumerate_subgroups(K)) == 5
    assert len(enumerate_subgroups(Z4)) == 3
    g = ElementaryGroup(torsion=(2, 4))
    assert len(enumerate_subgroups(g)) == 8
    assert len(enumerate_subgroups(ElementaryGroup())) == 1


def _chains(max_order):
    """Every invariant-factor chain (d_1 | d_2 | ..., d_i >= 2) of order at
    most max_order, the empty chain included."""
    out = [()]
    for chain in out:
        last = chain[-1] if chain else 1
        order = math.prod(chain)
        out.extend(chain + (d,) for d in range(max(2, last), max_order // order + 1)
                   if d % last == 0)
    return out


def _brute_subgroups(orders):
    """Every subgroup as a set of elements: the zero subgroup, then every
    set {s + k x} closed under addition, one x per coset of each subgroup."""
    def add(u, v):
        return tuple((a + b) % d for a, b, d in zip(u, v, orders))

    elements = list(itertools.product(*(range(d) for d in orders)))
    zero = tuple(0 for _ in orders)
    found = {frozenset([zero])}
    frontier = list(found)
    while frontier:
        fresh = []
        for s in frontier:
            covered = set(s)
            for x in elements:
                if x in covered:
                    continue
                covered |= {add(a, x) for a in s}
                closed, layer = set(s), set(s)
                while True:
                    layer = {add(a, x) for a in layer}
                    if layer <= closed:
                        break
                    closed |= layer
                t = frozenset(closed)
                if t not in found:
                    found.add(t)
                    fresh.append(t)
        frontier = fresh
    return found


def _element_set(sub):
    """Elements of a subgroup of F, from the columns of its basis."""
    out = {tuple(0 for _ in sub.orders)}
    for col in sub.basis:
        span = set(out)
        while True:
            step = {tuple((a + b) % d for a, b, d in zip(u, col, sub.orders))
                    for u in span} | out
            if step == span:
                break
            span = step
        out = span
    return frozenset(out)


def test_enumerate_subgroups_matches_brute_force():
    chains = _chains(64)
    # one chain per abelian group of order <= 64: sum of prod_p partitions(e_p)
    assert len(chains) == 117 and (2,) * 6 in chains and (64,) in chains
    for orders in chains:
        subs = enumerate_subgroups(ElementaryGroup(torsion=orders))
        sets = [_element_set(sub) for sub, _ in subs]
        assert [len(s) for s in sets] == list(subs.sizes)
        assert len(set(sets)) == len(sets)
        assert set(sets) == _brute_subgroups(orders), orders
        keys = [(size, sub.key()) for sub, size in subs]
        assert keys == sorted(keys)


def test_elementary_abelian_subgroup_counts():
    # OEIS A006116: subgroups of (Z/2)^k
    counts = [len(enumerate_subgroups(ElementaryGroup(torsion=(2,) * k)))
              for k in range(7)]
    assert counts == [1, 2, 5, 16, 67, 374, 2825]


def test_enumerate_subgroups_guard():
    big = ElementaryGroup(torsion=(2,) * 18)
    with pytest.raises(TooLarge):
        enumerate_subgroups(big)
    with pytest.raises(ShapeMismatch):
        enumerate_subgroups(ElementaryGroup(a=1))


def test_klein_constant_exact_two():
    res = subgroup_bl_constant(klein_datum())
    assert res.value == ExactValue.of(2)
    assert float(res) == 2.0
    assert res.argmax_size == 4  # the whole group achieves it
    assert res.subgroup_count == 5


def test_klein_p_one_value():
    res = subgroup_bl_constant(klein_datum((1, F(3, 2))))
    assert res.value == ExactValue.of(2) ** F(1, 3)


def test_weighted_measures():
    Kw = replace(K, haar=HaarRecord(f_point=F(3)))
    ta = replace(C2, haar=HaarRecord(f_point=F(5)))
    tb = replace(C2, haar=HaarRecord(f_point=F(7)))
    d = Datum(Kw, [BlockHom(Kw, ta, FF=[[1, 0]]), BlockHom(Kw, tb, FF=[[0, 1]])],
              [1, 2])
    got = subgroup_bl_constant(d).value
    want = (ExactValue.of(6) / (ExactValue.of(5)
                                * ExactValue.of(14) ** F(1, 2)))
    assert got == want


def test_every_haar_slot_scales_a_finite_group():
    # a point of this Z/2 has mass 3, although its f_point is 1; the
    # pipeline, which moves torus_total into the torus part, agrees
    g = ElementaryGroup(torsion=(2,), haar=HaarRecord(torus_total=F(3)))
    d = Datum(g, [BlockHom(g, C2, FF=[[1]])] * 2, [2, 2])
    three = ExactValue.of(3)
    assert d.haar_factor() == three
    assert bl_constant(d).exact == three
    assert subgroup_bl_constant(d).value == three
    assert tower_limit([d]).values == (three,)


def test_single_quotient_map():
    d = Datum(Z4, [BlockHom(Z4, C2, FF=[[1]])], [F(3, 2)])
    res = subgroup_bl_constant(d)
    # the whole group wins: 4 / 2^(2/3)
    assert res.value == ExactValue.of(4) / ExactValue.of(2) ** F(2, 3)


def test_infinite_exponent_in_finite_datum():
    d = Datum(K, [BlockHom(K, C2, FF=[[1, 0]])], [None])
    res = subgroup_bl_constant(d)
    assert res.value == ExactValue.of(4)


def _reference_maximum(d):
    """Maximum over the sorted subgroup list with the total order larger
    value, then larger subgroup, then smaller Hermite key.  Also returns the
    sizes of all subgroups attaining the maximum value."""
    best, sizes = None, []
    subs = enumerate_subgroups(d.domain)
    for sub, size in subs:
        val = ExactValue.of(F(size) * d.domain.haar.f_point)
        for h, r in zip(d.homs, d.reciprocal_exponents()):
            img = finite_size(image_under(sub, h.FF, h.codomain.torsion))
            val = val / ExactValue.of(F(img) * h.codomain.haar.f_point) ** r
        if best is None or val > best[0]:
            best, sizes = (val, size, sub), [size]
        elif val == best[0]:
            sizes.append(size)
            if size > best[1] or (size == best[1] and sub.key() < best[2].key()):
                best = (val, size, sub)
    return best, len(subs), sizes


def _random_finite_datum(rng):
    chains = [(2,), (4,), (6,), (2, 2), (2, 4), (3, 3), (2, 6), (4, 4),
              (2, 2, 2), (3, 9), (2, 2, 4), (2, 2, 2, 2)]
    masses = [F(1), F(1), F(1, 2), F(3), F(2, 9)]
    dom = ElementaryGroup(torsion=rng.choice(chains),
                          haar=HaarRecord(f_point=rng.choice(masses)))
    exps = [F(1), F(4, 3), F(3, 2), F(2), F(5, 2), F(3), None]
    if rng.random() < 0.4:
        # planted ties: one map per coordinate, equal exponents and masses
        p = rng.choice(exps[:6])
        mass = rng.choice(masses)
        homs = [BlockHom(dom, ElementaryGroup(torsion=(t,), haar=HaarRecord(f_point=mass)),
                         FF=[[1 if j == i else 0 for j in range(dom.k)]])
                for i, t in enumerate(dom.torsion)]
        return Datum(dom, homs, [p] * len(homs))
    homs = []
    for _ in range(rng.randint(1, 3)):
        tors = rng.choice([c for c in chains if len(c) <= 2])
        ff = [[(t // math.gcd(t, d)) * rng.randrange(math.gcd(t, d)) for d in dom.torsion]
              for t in tors]
        homs.append(BlockHom(dom, ElementaryGroup(torsion=tors,
                                                  haar=HaarRecord(f_point=rng.choice(masses))),
                             FF=ff))
    return Datum(dom, homs, [rng.choice(exps) for _ in homs])


def test_streamed_maximum_matches_sorted_reference(monkeypatch):
    search = finite._subgroups
    rng = random.Random(11)
    tied = 0
    for _ in range(100):
        d = _random_finite_datum(rng)
        (value, size, argmax), count, sizes = _reference_maximum(d)
        res = subgroup_bl_constant(d)
        assert res.value == value
        assert res.argmax == argmax
        assert res.argmax_size == size
        assert res.subgroup_count == count
        # the same result when the search runs in the opposite order
        with monkeypatch.context() as m:
            m.setattr(finite, "_subgroups", lambda *a: reversed(list(search(*a))))
            assert subgroup_bl_constant(d) == res
        # the largest maximizer is unique, so the key never breaks a tie
        assert sizes.count(size) == 1
        tied += len(sizes) > 1
    assert tied >= 15  # the size decides the argmax on these (19 of 100)


def _per_signature_maximum(d):
    """The maximum over all of F at once: one ExactValue per distinct tuple
    (|H|, |image_1 H|, ...), compared exactly, ties to the larger subgroup,
    the argmax the first subgroup found with the winning tuple."""
    orders = d.domain.torsion
    used = [(h, r) for h, r in zip(d.homs, d.reciprocal_exponents()) if r != 0]
    bases, count = {}, 0
    for basis, sig in finite._subgroups(orders, [(h.FF, h.codomain.torsion) for h, _ in used]):
        count += 1
        bases.setdefault(sig, basis)
    best = None
    for sig, basis in bases.items():
        val = ExactValue.of(F(sig[0]) * d.domain.haar.f_point)
        for img, (h, r) in zip(sig[1:], used):
            val = val / ExactValue.of(F(img) * h.codomain.haar.f_point) ** r
        if best is None or val > best[0] or (val == best[0] and sig[0] > best[1]):
            best = (val, sig[0], basis)
    return FiniteResult(best[0], LatticeSubgroup(orders, best[2]), best[1], count)


def _random_multiprime_datum(rng):
    """Domains with one to three primes (Z/3 x Z/18 is Z/2 x Z/3 x Z/9), the
    trivial group among them, and targets that may miss a prime entirely."""
    chains = [(), (2,), (6,), (2, 6), (12, 12), (3, 18), (6, 6), (2, 12),
              (4, 4), (2, 2, 2), (3, 9), (10,), (30,)]
    targets = [(2,), (3,), (4,), (5,), (6,), (9,), (12,), (2, 2), (2, 6), (3, 3),
               (6, 6), (3, 18), (2, 10)]
    masses = [F(1), F(1), F(1, 2), F(3), F(2, 9), F(5, 4)]
    exps = [F(1), F(4, 3), F(3, 2), F(2), F(5, 2), F(3), F(7, 6), None]
    dom = ElementaryGroup(torsion=rng.choice(chains),
                          haar=HaarRecord(f_point=rng.choice(masses)))
    homs = []
    for _ in range(rng.randint(1, 3)):
        tors = rng.choice(targets)
        ff = [[(t // math.gcd(t, d)) * rng.randrange(math.gcd(t, d)) for d in dom.torsion]
              for t in tors]
        homs.append(BlockHom(dom, ElementaryGroup(torsion=tors,
                                                  haar=HaarRecord(f_point=rng.choice(masses))),
                             FF=ff))
    return Datum(dom, homs, [rng.choice(exps) for _ in homs])


def test_primary_split_matches_the_per_signature_maximum():
    rng = random.Random(5)
    data = [_random_multiprime_datum(rng) for _ in range(240)]
    data += [_random_finite_datum(rng) for _ in range(60)]
    seen = set()
    for d in data:
        assert subgroup_bl_constant(d) == _per_signature_maximum(d)
        seen.add(d.domain.torsion)
    assert {(), (6,), (2, 6), (12, 12), (3, 18)} <= seen


def test_search_runs_once_per_primary_part(monkeypatch):
    # Z/12 x Z/12 = (Z/4 x Z/4) + (Z/3 x Z/3): 15 + 6 subgroups searched,
    # 15 * 6 subgroups of the whole group priced
    g = ElementaryGroup(torsion=(12, 12))
    z12 = ElementaryGroup(torsion=(12,))
    d = Datum(g, [BlockHom(g, z12, FF=[[1, 0]]), BlockHom(g, z12, FF=[[1, 1]])],
              [F(3, 2), F(3, 2)])
    search = finite._subgroups
    visited = []

    def counted(*args):
        for found in search(*args):
            visited.append(found)
            yield found

    with monkeypatch.context() as m:
        m.setattr(finite, "_subgroups", counted)
        res = subgroup_bl_constant(d)
    assert len(visited) == 21
    assert res.subgroup_count == 90 == len(enumerate_subgroups(g))
    assert res == _per_signature_maximum(d)


def test_dual_datum_keeps_the_subgroup_constant():
    # Fourier invariance, exactly: the annihilator datum at the conjugate
    # exponents has the same subgroup constant
    rng = random.Random(29)
    for _ in range(60):
        d = _random_finite_datum(rng)
        assert subgroup_bl_constant(dual_datum(d)).value == subgroup_bl_constant(d).value


def test_tower_limit_monotone():
    # (Z/2^k)^1 with the identity-plus-doubling pair, probability masses
    data = []
    for k in (1, 2, 3):
        n = 2 ** k
        g = ElementaryGroup(torsion=(n,), haar=HaarRecord(f_point=F(1, n)))
        data.append(Datum(g, [BlockHom.identity(g), BlockHom.identity(g)],
                          [F(21, 20)] * 2))
    res = tower_limit(data)
    vals = list(res.floats())
    assert res.monotone
    assert vals == sorted(vals)
    assert res.first_violation is None


def test_tower_limit_stops_past_the_bound():
    small = klein_datum()
    big = ElementaryGroup(torsion=(2,) * 17)
    res = tower_limit([small, Datum(big, [BlockHom.identity(big)], [F(2)]), small])
    assert res.values == (ExactValue.of(2),)
    assert (res.unpriced, res.reason) == (1, "group order 131072 exceeds the bound 100000")
    assert res.monotone and res.first_violation is None


def test_tower_limit_flags_violation():
    # reversing a strictly increasing family must trip the monotone check
    levels = []
    for n in (4, 2):
        g = ElementaryGroup(torsion=(n,), haar=HaarRecord(f_point=F(1, n)))
        levels.append(Datum(g, [BlockHom.identity(g), BlockHom.identity(g)],
                            [F(21, 20)] * 2))
    res = tower_limit(levels)
    assert not res.monotone
    assert res.first_violation == 1
